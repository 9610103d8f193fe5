"""JSON round-trips for graphs, instances, signed graphs, and certificates,
plus DOT export of covers.

Wire formats. The canonical text, written by :func:`dumps`, is compact JSON
on one line with every key and list sorted; ``python -m json.tool`` prints it
indented. Readers take any JSON layout, so indented files load as well.

* multigraph: {"vertices": ["a", "b"], "edges": [{"u": "a", "v": "b", "mult": 2}]}
  with u < v lexicographically.
* instance: the multigraph form plus "lists": {"a": [1, 2]} and
  "matchings": [{"u": "a", "v": "b", "pairs": [[1, 1], [2, 2]]}] where each
  pair is [color at u, color at v].
* signed graph: each edge object carries "signs": [1, -1] (length = mult).
* certificate: {"blocks": [{"kind": "Knt", "n": 3, "t": 1,
  "i_map": {"a": 1, ...}, "labels": {"a": {"1": [1, 1], ...}}}],
  "partition": {"b": {"B0": [1], "B1": [2]}}} where B<i> indexes "blocks".
  "partition" is written for readers only: certificate_from_json does not
  read it back, because verification recomputes the partition from "labels".

Readers check JSON shapes and ints, each value's type inline, and raise
ValueError on a mismatch: endpoints are strings, label keys canonical ("1",
not "01" or " 1"), colors, pairs, labels and indices JSON integers, never
floats or booleans. Multigraph and SignedGraph check the vertex ids,
multiplicities and signs; validate checks the rest, at the API boundary.

Readers share what the generators share. Every map is keyed by the "vertices"
entries' own strs, the matching by the graph's own pairs, and lists or pair sets
read as the same items in the same order (in canonical text, equal) are one frozenset.
"""

from __future__ import annotations

import json
from itertools import chain
from types import MappingProxyType
from typing import Any, Callable, Iterable

from .cover import Cover, DPInstance
from .multigraph import Multigraph, _block_kind
from .obstruction import BlockCertificate, ObstructionCertificate
from .signed import SignedGraph


_JSON_TYPE_NAMES = {dict: "object", list: "array", str: "string"}


def _expect(value: Any, kind: type, what: str) -> Any:
    """``value`` if it has the JSON type ``kind`` (dict, list or str)."""
    if not isinstance(value, kind):
        raise ValueError(f"{what} must be a JSON {_JSON_TYPE_NAMES[kind]}, got {value!r}")
    return value


def _int(value: Any, what: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return value


def _int_pair(value: Any, what: str) -> tuple[int, int]:
    if not isinstance(value, list) or len(value) != 2:
        raise ValueError(f"{what} must be an array of two integers, got {value!r}")
    return _int(value[0], what), _int(value[1], what)


def _require(data: dict, what: str, *keys: str) -> None:
    """Raise ValueError naming the first of ``keys`` missing from ``data``."""
    for key in keys:
        if key not in data:
            raise ValueError(f"{what} has no {key!r} key")


def _by_pair(data: dict, what: str, ids: dict, value: Callable[[dict, bool], Any]) -> dict:
    """Map each item of the array data[what + "s"] to value(item, u < v) under its canonical
    (u, v), each end the str object that ``ids`` maps it to (an unknown id as given)."""
    out: dict[tuple[str, str], Any] = {}
    for item in _expect(data.get(f"{what}s", []), list, f'"{what}s"'):
        if type(item) is not dict or "u" not in item or "v" not in item:
            _require(_expect(item, dict, what), what, "u", "v")
        u, v = item["u"], item["v"]
        if type(u) is not str or type(v) is not str:
            u, v = _expect(u, str, "vertex id"), _expect(v, str, "vertex id")
        u, v = ids.get(u, u), ids.get(v, v)
        key = (u, v) if u < v else (v, u)
        if key in out:
            raise ValueError(f"{what} ({u!r}, {v!r}) given twice")
        out[key] = value(item, u < v)
    return out


_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"), check_circular=False)


def dumps(data: Any) -> str:
    """Canonical JSON text: sorted keys, compact, one line ending in a newline.
    Payloads are fresh trees from the ``*_to_json`` writers, so there is no
    scan for circular references: a cyclic input raises RecursionError."""
    return _ENCODER.encode(data) + "\n"


def multigraph_to_json(g: Multigraph) -> dict:
    return {
        "vertices": list(g.vertices),
        "edges": [{"u": u, "v": v, "mult": m} for (u, v), m in g.mult.items()],
    }


def multigraph_from_json(data: dict) -> Multigraph:
    return _read_graph(data)[0]


def _read_graph(data: dict) -> tuple[Multigraph, dict[str, str]]:
    """The graph, and each str in "vertices" mapped to itself, to key every map by those objects."""
    _require(_expect(data, dict, "graph"), "graph", "vertices")
    vertices = _expect(data["vertices"], list, '"vertices"')
    ids = {u: u for u in vertices if type(u) is str}
    return Multigraph(tuple(vertices), _by_pair(data, "edge", ids, lambda e, _: e.get("mult", 1))), ids


def lists_from_json(data: Any) -> dict[str, frozenset[int]]:
    """Color lists in the wire form {"a": [1, 2], ...}; lists read alike are one frozenset."""
    return _read_lists(data, {})


def _shared(memo: dict, key: tuple, items: Iterable) -> frozenset:
    """The frozenset ``memo`` holds for ``key``, else a new one of ``items``, held for it."""
    return memo.get(key) or memo.setdefault(key, frozenset(items))


def _read_lists(data: Any, ids: dict) -> dict[str, frozenset[int]]:
    """Each vertex keyed as ``ids`` maps it, and one frozenset per sequence of colors read."""
    out, memo = {}, {}  # memo: the colors as read -> their list
    for u, cs in _expect(data, dict, '"lists"').items():
        for c in cs if type(cs) is list else _expect(cs, list, f"L({u!r})"):
            if type(c) is not int:
                _int(c, f"color in L({u!r})")
        out[ids.get(u, u)] = _shared(memo, tuple(cs), cs)
    return out


def instance_to_json(inst: DPInstance) -> dict:
    """The wire form; a pair set shared by edges is converted once, and its edges share the list."""
    out = multigraph_to_json(inst.graph)
    out["lists"] = {u: sorted(cs) for u, cs in sorted(inst.lists.items())}
    seen: dict[int, list[list[int]]] = {}  # by id: the sets stay alive in inst.matching
    matchings = out["matchings"] = []
    for (u, v), prs in inst.matching.items():
        if id(prs) not in seen:
            seen[id(prs)] = [list(p) for p in sorted(prs)]
        matchings.append({"u": u, "v": v, "pairs": seen[id(prs)]})
    return out


def _matched_pairs(m: dict, forward: bool, memo: dict) -> frozenset[tuple[int, int]]:
    """The pair set of ``m``, oriented, and one object for the pairs read in the same order."""
    prs = m.get("pairs", [])
    pairs = tuple([
        (p[0], p[1]) if type(p) is list and len(p) == 2 and type(p[0]) is type(p[1]) is int
        else _int_pair(p, "matched pair")
        for p in (prs if type(prs) is list else _expect(prs, list, '"pairs"'))
    ])
    return _shared(memo, (forward, pairs), pairs if forward else ((b, a) for a, b in frozenset(pairs)))


def instance_from_json(data: dict) -> DPInstance:
    """Built unchecked through DPInstance._from_parts, as __post_init__ would leave it: sorted
    canonical keys, every edge present, a non-empty entry off the edges kept for validate."""
    g, ids = _read_graph(data)
    memo: dict[tuple, frozenset] = {}  # (orientation, pairs as read) -> their pair set
    matched = _by_pair(data, "matching", ids, lambda m, forward: _matched_pairs(m, forward, memo))
    matching = {**dict.fromkeys(g.mult, _shared(memo, (True, ()), ())), **matched}  # keeps g.mult's keys
    if len(matching) > len(g.mult):  # pairs off the edges
        matching = {k: matching[k] for k in sorted(matching) if matching[k] or k in g.mult}
    return DPInstance._from_parts(g, _read_lists(data.get("lists", {}), ids), matching)


def signed_to_json(s: SignedGraph) -> dict:
    out = multigraph_to_json(s.graph)
    for e in out["edges"]:
        e["signs"] = list(s.signs[(e["u"], e["v"])])
    return out


def signed_from_json(data: dict) -> SignedGraph:
    g, ids = _read_graph(data)
    signs = _by_pair(data, "edge", ids, lambda e, _: e.get("signs"))
    for p, ss in signs.items():
        signs[p] = [1] * g.multiplicity(*p) if ss is None else _expect(ss, list, '"signs"')
    return SignedGraph(g, signs)


def certificate_to_json(cert: ObstructionCertificate) -> dict:
    """The wire form in one walk over the labels; a label view shared by vertices is converted once."""
    blocks_json = []
    partition: dict[str, dict[str, list[int]]] = {}
    for i, bc in enumerate(cert.blocks):
        labels, seen = {}, None
        for u, lab in sorted(bc.labels.items()):
            if lab is not seen:
                seen, colors = lab, sorted(lab)
                lab_json = {str(c): list(lab[c]) for c in colors}
            labels[u] = lab_json
            partition.setdefault(u, {})[f"B{i}"] = colors
        i_map = dict(sorted(bc.positions.items()))
        kind = bc.kind
        blocks_json.append({"kind": kind.shape, "n": kind.n, "t": kind.t, "i_map": i_map, "labels": labels})
    return {"blocks": blocks_json, "partition": dict(sorted(partition.items()))}


_BLOCK_KEYS = frozenset(("kind", "n", "t", "i_map", "labels"))


def certificate_from_json(data: dict) -> ObstructionCertificate:
    """Read the wire form; each block, its kind, sizes and i_map, and each
    int are checked inline, and _expect, _require, _int or _int_pair runs
    only on a value that fails, to raise (or pass a subclass). A vertex
    whose raw labels are the previous vertex's, item by item in the same
    key order, shares its view when each label is two exact ints."""
    out = []
    for b in _expect(_expect(data, dict, "certificate").get("blocks", []), list, '"blocks"'):
        if type(b) is not dict or not b.keys() >= _BLOCK_KEYS:
            b = _expect(b, dict, "certificate block")
            _require(b, "certificate block", "kind", "n", "t", "i_map", "labels")
        shape, n, t, i_map, raw = b["kind"], b["n"], b["t"], b["i_map"], b["labels"]
        if type(shape) is not str or type(n) is not int or type(t) is not int:
            shape, n, t = _expect(shape, str, "block kind"), _int(n, "block n"), _int(t, "block t")
        kind = _block_kind(shape, n, t)
        if type(i_map) is dict and {int}.issuperset(map(type, i_map.values())):
            positions = dict(i_map)
        else:
            positions = {
                u: i if type(i) is int else _int(i, "position")
                for u, i in _expect(i_map, dict, '"i_map"').items()
            }
        labels, exact = {}, None  # exact: the last raw map, if each of its labels passed the inline test
        for u, lab in (raw if type(raw) is dict else _expect(raw, dict, '"labels"')).items():
            if type(lab) is dict and lab == exact and list(lab) == list(exact) and {int}.issuperset(
                map(type, chain.from_iterable(lab.values()))  # == lets 1.0 and True pass for 1
            ):
                labels[u] = view
                continue
            lab_out, exact = {}, lab
            labels[u] = view = MappingProxyType(lab_out)
            for c, jk in (lab if type(lab) is dict else _expect(lab, dict, "labels")).items():
                color = int(c)
                if str(color) != c:
                    raise ValueError(f"label key must be an integer in canonical form, got {c!r}")
                ok = type(jk) is list and len(jk) == 2 and type(jk[0]) is type(jk[1]) is int
                lab_out[color] = (jk[0], jk[1]) if ok else _int_pair(jk, "label")
                exact = exact if ok else None
        out.append(BlockCertificate._wrap(kind, positions, labels, tuple(sorted(positions))))
    return ObstructionCertificate(tuple(out))


def cover_to_dot(cover: Cover, include_clique_edges: bool = True) -> str:
    """DOT text with node names "u:c"; per-vertex clique edges can be
    suppressed to show only the cross-matching structure."""

    def name(node: tuple[str, int]) -> str:
        return f'"{node[0]}:{node[1]}"'

    lines = ["graph cover {"]
    for node in cover.nodes:
        lines.append(f"  {name(node)};")
    for p, q in cover.edges():
        if not include_clique_edges and p[0] == q[0]:
            continue
        lines.append(f"  {name(p)} -- {name(q)};")
    lines.append("}")
    return "\n".join(lines) + "\n"
