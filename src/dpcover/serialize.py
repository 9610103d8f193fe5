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

Readers check the JSON shape and raise ValueError on a mismatch: edge
endpoints must be strings, label keys canonical ("1", not "01" or " 1"), and
colors, pairs, labels and indices JSON integers, never floats or booleans.
Multigraph and SignedGraph check the vertex ids, multiplicities and signs.
"""

from __future__ import annotations

import json
from typing import Any, Callable

from .cover import Cover, DPInstance
from .multigraph import BlockKind, Multigraph
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


def _by_pair(data: dict, what: str, value: Callable[[dict], Any]) -> dict[tuple[str, str], Any]:
    """Map (u, v) to value(item) over the array data[what + "s"]; a repeat of (u, v) or (v, u) fails."""
    out: dict[tuple[str, str], Any] = {}
    for item in _expect(data.get(f"{what}s", []), list, f'"{what}s"'):
        item = _expect(item, dict, what)
        if "u" not in item or "v" not in item:  # checked inline: one call per item adds up
            _require(item, what, "u", "v")
        u, v = _expect(item["u"], str, "vertex id"), _expect(item["v"], str, "vertex id")
        if (u, v) in out or (v, u) in out:
            raise ValueError(f"{what} ({u!r}, {v!r}) given twice")
        out[(u, v)] = value(item)
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
    data = _expect(data, dict, "graph")
    _require(data, "graph", "vertices")
    vertices = _expect(data["vertices"], list, '"vertices"')
    return Multigraph(tuple(vertices), _by_pair(data, "edge", lambda e: e.get("mult", 1)))


def lists_from_json(data: Any) -> dict[str, frozenset[int]]:
    """Color lists in the wire form {"a": [1, 2], ...}."""
    return {
        u: frozenset(_int(c, f"color in L({u!r})") for c in _expect(cs, list, f"L({u!r})"))
        for u, cs in _expect(data, dict, '"lists"').items()
    }


def instance_to_json(inst: DPInstance) -> dict:
    out = multigraph_to_json(inst.graph)
    out["lists"] = {u: sorted(cs) for u, cs in sorted(inst.lists.items())}
    out["matchings"] = [
        {"u": u, "v": v, "pairs": [list(p) for p in sorted(prs)]}
        for (u, v), prs in inst.matching.items()
    ]
    return out


def _matched_pairs(m: dict) -> frozenset[tuple[int, int]]:
    return frozenset(_int_pair(p, "matched pair") for p in _expect(m.get("pairs", []), list, '"pairs"'))


def instance_from_json(data: dict) -> DPInstance:
    g = multigraph_from_json(data)
    matching = _by_pair(data, "matching", _matched_pairs)
    return DPInstance(g, lists_from_json(data.get("lists", {})), matching)


def signed_to_json(s: SignedGraph) -> dict:
    out = multigraph_to_json(s.graph)
    for e in out["edges"]:
        e["signs"] = list(s.signs[(e["u"], e["v"])])
    return out


def signed_from_json(data: dict) -> SignedGraph:
    g = multigraph_from_json(data)
    signs = _by_pair(data, "edge", lambda e: e.get("signs"))
    for p, ss in signs.items():
        signs[p] = [1] * g.multiplicity(*p) if ss is None else _expect(ss, list, '"signs"')
    return SignedGraph(g, signs)


def certificate_to_json(cert: ObstructionCertificate) -> dict:
    """The wire form, "blocks" and "partition" written in one walk over the labels."""
    blocks_json = []
    partition: dict[str, dict[str, list[int]]] = {}
    for i, bc in enumerate(cert.blocks):
        labels = {}
        for u, lab in sorted(bc.labels.items()):
            colors = sorted(lab)
            labels[u] = {str(c): list(lab[c]) for c in colors}
            partition.setdefault(u, {})[f"B{i}"] = colors
        i_map = dict(sorted(bc.positions.items()))
        kind = bc.kind
        blocks_json.append({"kind": kind.shape, "n": kind.n, "t": kind.t, "i_map": i_map, "labels": labels})
    return {"blocks": blocks_json, "partition": dict(sorted(partition.items()))}


def certificate_from_json(data: dict) -> ObstructionCertificate:
    """Read the wire form; each int is checked inline, and _int or _int_pair
    runs only on a value that fails, to raise (or pass an int subclass)."""
    out = []
    for b in _expect(_expect(data, dict, "certificate").get("blocks", []), list, '"blocks"'):
        b = _expect(b, dict, "certificate block")
        _require(b, "certificate block", "kind", "n", "t", "i_map", "labels")
        kind = BlockKind(
            _expect(b["kind"], str, "block kind"), _int(b["n"], "block n"), _int(b["t"], "block t")
        )
        positions = {
            u: i if type(i) is int else _int(i, "position")
            for u, i in _expect(b["i_map"], dict, '"i_map"').items()
        }
        labels = {}
        for u, lab in _expect(b["labels"], dict, '"labels"').items():
            labels[u] = lab_out = {}
            for c, jk in _expect(lab, dict, "labels").items():
                color = int(c)
                if str(color) != c:
                    raise ValueError(f"label key must be an integer in canonical form, got {c!r}")
                ok = type(jk) is list and len(jk) == 2 and type(jk[0]) is type(jk[1]) is int
                lab_out[color] = (jk[0], jk[1]) if ok else _int_pair(jk, "label")
        out.append(BlockCertificate._wrap(kind, positions, labels))
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
