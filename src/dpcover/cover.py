"""List assignments, matching assignments, covers, and the restriction construction.

A DP instance is a multigraph plus a color list per vertex plus, per adjacent
vertex pair, a set of matched color pairs. The matched pairs must form a union
of mu(uv) matchings, which is exactly the bipartite-degree bound checked by
:func:`validate`. Colors are plain ints with no meaning across vertices; the
matchings alone carry inter-vertex semantics.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, combinations
from types import MappingProxyType
from typing import Iterable, Mapping, Optional

from .errors import ColorNotInList, InvalidInstance, MultigraphInput, VertexNotFound
from .multigraph import Multigraph

# A transversal picks one color per vertex.
Transversal = dict[str, int]


@dataclass(frozen=True)
class Violation:
    """One validation failure; ``subject`` names the vertex/pair/color at fault."""

    kind: str
    subject: tuple
    message: str


@dataclass(frozen=True)
class DPInstance:
    """A multigraph, a list assignment, and a matching assignment.

    ``matching`` maps each canonical pair (u, v) with u < v to a frozenset of
    (color at u, color at v) pairs. Construction normalizes pair orientation,
    fills an empty entry for every edge and drops one off the edges; both
    mappings are read-only. Semantic checks live in :func:`validate`.

    The graph is frozen too, and every mapping is a read-only view of a
    private dict whose values are frozensets, so an instance never changes
    after construction and its validity is computed once, on first use.
    """

    graph: Multigraph
    lists: Mapping[str, frozenset[int]]
    matching: Mapping[tuple[str, str], frozenset[tuple[int, int]]]

    def __post_init__(self) -> None:
        lists = {u: frozenset(cs) for u, cs in self.lists.items()}
        matching = dict.fromkeys(self.graph.pairs(), frozenset())
        for (u, v), prs in self.matching.items():
            key, prs = ((u, v), frozenset(prs)) if u < v else ((v, u), frozenset((b, a) for a, b in prs))
            if (v, u) in self.matching:  # both orientations given: their union
                prs |= matching.get(key, frozenset())
            if prs or key in matching:
                matching[key] = prs
        object.__setattr__(self, "lists", MappingProxyType(lists))
        object.__setattr__(
            self, "matching", MappingProxyType({k: matching[k] for k in sorted(matching)})
        )

    @classmethod
    def _from_parts(
        cls,
        graph: Multigraph,
        lists: dict[str, frozenset[int]],
        matching: dict[tuple[str, str], frozenset[tuple[int, int]]],
        valid: bool = False,
    ) -> DPInstance:
        """An instance on parts already normalized, as __post_init__ leaves
        them: frozenset lists, and a frozenset of pairs on every edge of the
        graph, keyed by its canonical pairs in sorted order. The dicts are
        wrapped, not copied. ``valid`` marks the instance checked clean. The
        only build path that skips normalization."""
        inst = object.__new__(cls)
        inst.__dict__.update(graph=graph, lists=MappingProxyType(lists), matching=MappingProxyType(matching))
        if valid:
            inst.__dict__["_violations"] = ()
        return inst

    @cached_property
    def _violations(self) -> tuple[Violation, ...]:
        return tuple(_check(self))

    def pairs_between(self, u: str, v: str) -> frozenset[tuple[int, int]]:
        """Matched pairs oriented as (color at u, color at v)."""
        return frozenset((a, b) for a, bs in self._partners(u, v).items() for b in bs)

    def _partners(self, u: str, v: str) -> dict[int, set[int]]:
        """Each matched color at u -> its partners at v, read off the stored pairs."""
        out: dict[int, set[int]] = {}
        i, j = (0, 1) if u < v else (1, 0)
        for pr in self.matching.get((u, v) if u < v else (v, u), ()):
            out.setdefault(pr[i], set()).add(pr[j])
        return out


@dataclass(frozen=True)
class Cover:
    """The cover graph on (vertex, color) nodes: one clique per vertex plus
    the matching edges across adjacent vertices, each edge once as (p, q), p < q."""

    nodes: tuple[tuple[str, int], ...]
    edge_set: frozenset[tuple[tuple[str, int], tuple[str, int]]]

    def adjacent(self, p: tuple[str, int], q: tuple[str, int]) -> bool:
        return (min(p, q), max(p, q)) in self.edge_set

    def edges(self) -> tuple[tuple[tuple[str, int], tuple[str, int]], ...]:
        return tuple(sorted(self.edge_set))

    @property
    def edge_count(self) -> int:
        return len(self.edge_set)


def _color_key(c: object) -> tuple:
    """Ints in order, then other colors by repr: mixed types never compare."""
    return (0, c) if type(c) is int else (1, repr(c))


def _check(inst: DPInstance) -> list[Violation]:
    """The full check behind :func:`validate`, in one pass. An edge passes at
    once when its colors lie in the lists and it cannot exceed mu(uv): at most
    mu pairs, no repeated color, or counted color degrees within mu, and all
    pair colors are plain ints. The vertex set, list colors that are not
    plain ints and every other edge are reported in detail, in order."""
    out: list[Violation] = []
    g, lists = inst.graph, inst.lists
    vset = set(g.vertices)
    if lists.keys() != vset:
        for u in g.vertices:
            if u not in lists:
                out.append(Violation("missing-list", (u,), f"vertex {u!r} has no list entry"))
        for u in sorted(lists):
            if u not in vset:
                out.append(Violation("unknown-vertex", (u,), f"list entry for unknown vertex {u!r}"))
    if not all(type(c) is int for cs in lists.values() for c in cs):
        for u in sorted(lists):
            for c in sorted((c for c in lists[u] if type(c) is not int), key=repr):
                out.append(Violation("non-int-color", (u, c), f"color {c!r} in L({u!r}) is not an int"))
    # True or 1.0 passes a test for membership in a list of ints.
    pair_colors = chain.from_iterable(chain.from_iterable(inst.matching.values()))
    int_pairs = set(map(type, pair_colors)) <= {int}
    for (u, v), prs in inst.matching.items():
        if not prs:
            continue
        mu = g.mult.get((u, v), 0)
        if not mu:
            out.append(Violation("non-edge-pair", (u, v), f"matching on non-edge ({u!r}, {v!r})"))
            continue
        lu, lv = lists.get(u, frozenset()), lists.get(v, frozenset())
        us, vs = {a for a, _ in prs}, {b for _, b in prs}
        if int_pairs and us <= lu and vs <= lv and (
            len(prs) <= mu
            or len(us) == len(vs) == len(prs)
            or max(Counter(a for a, _ in prs).values()) <= mu
            and max(Counter(b for _, b in prs).values()) <= mu
        ):
            continue
        deg_u, deg_v = Counter(), Counter()
        for a, b in sorted(prs, key=lambda p: (_color_key(p[0]), _color_key(p[1]))):
            for x, y, c, lx in ((u, v, a, lu), (v, u, b, lv)):
                if c not in lx:
                    out.append(
                        Violation(
                            "color-not-in-list",
                            (x, c, y),
                            f"pair ({a},{b}) on ({u!r},{v!r}) uses color {c} not in L({x!r})",
                        )
                    )
                elif type(c) is not int:
                    out.append(
                        Violation(
                            "non-int-pair-color",
                            (x, c, y),
                            f"pair ({a!r},{b!r}) on ({u!r},{v!r}) has non-int color {c!r} at {x!r}",
                        )
                    )
            deg_u[a] += 1
            deg_v[b] += 1
        for x, y, deg in ((u, v, deg_u), (v, u, deg_v)):
            for c, d in sorted(deg.items(), key=lambda item: _color_key(item[0])):
                if d > mu:
                    out.append(
                        Violation(
                            "capacity-exceeded",
                            (x, c, y),
                            f"color {c} at {x!r} has degree {d} > {mu} toward {y!r}",
                        )
                    )
    return out


def validate(inst: DPInstance) -> list[Violation]:
    """All invariant violations of the instance; empty list means valid.

    The check runs once per instance object and is cached on it; each call
    returns a fresh list, so changing it changes no later result.
    """
    return list(inst._violations)


def require_valid(inst: DPInstance) -> None:
    """Raise InvalidInstance unless the instance is valid; O(1) once the
    instance object has been checked."""
    if inst._violations:
        raise InvalidInstance(inst._violations)


def build_cover(inst: DPInstance) -> Cover:
    """The cover graph of a valid instance."""
    require_valid(inst)
    nodes = tuple(
        sorted((u, c) for u in inst.graph.vertices for c in inst.lists[u])
    )
    cliques = (
        ((u, a), (u, b)) for u, cs in inst.lists.items() for a, b in combinations(sorted(cs), 2)
    )
    cross = (((u, a), (v, b)) for (u, v), prs in inst.matching.items() for a, b in prs)
    return Cover(nodes, frozenset(chain(cliques, cross)))


def _extend_greedily(
    inst: DPInstance, order: Iterable[str], picks: Transversal
) -> Optional[str]:
    """Give each vertex of ``order`` in turn its least color not matched to a
    neighbour's pick in ``picks``, adding it there; returns the first vertex
    left without a color, or None. Reads edge pairs as stored, (color at the
    lesser vertex, color at the other), never a neighbour's list."""
    adj, lists, matching = inst.graph._index, inst.lists, inst.matching
    for u in order:
        forbidden = set()
        for v in adj[u]:
            if v in picks:
                c = picks[v]
                if v < u:
                    for a, b in matching[(v, u)]:
                        if a == c:
                            forbidden.add(b)
                else:
                    for a, b in matching[(u, v)]:
                        if b == c:
                            forbidden.add(a)
        free = lists[u] - forbidden
        if not free:
            return u
        picks[u] = min(free)
    return None


def restrict(inst: DPInstance, u: str, c: int) -> DPInstance:
    """Delete u and strip from every other list the colors matched to (u, c).

    Colors are never renamed. If the input lists are a degree-list assignment
    this preserves the property on the remaining graph.
    """
    if u not in inst.graph.vertices:
        raise VertexNotFound(f"vertex {u!r} not in graph")
    if c not in inst.lists.get(u, frozenset()):
        raise ColorNotInList(f"color {c} not in L({u!r})")
    lists = {v: inst.lists[v] for v in inst.graph.vertices if v != u}
    for v in inst.graph.neighbors(u):
        lists[v] = lists[v] - inst._partners(u, v).get(c, set())
    return _cut(inst, lists, lists)


def induced_instance(inst: DPInstance, vertices: Iterable[str]) -> DPInstance:
    """Sub-instance on a vertex subset (lists kept, matchings restricted)."""
    return _cut(inst, vertices)


def _pieces(inst: DPInstance) -> list[DPInstance]:
    """One instance per connected component, in components() order: ``inst``
    itself when connected, so its cached checks and blocks carry over."""
    comps = inst.graph.components()
    return [inst] if len(comps) == 1 else [_cut(inst, comp) for comp in comps]


def _cut(inst: DPInstance, vertices: Iterable[str], lists: Optional[Mapping] = None) -> DPInstance:
    """The sub-instance on ``vertices``, read off their adjacency alone: the
    parent's edges and lists there, or ``lists`` (frozensets within the
    parent's) and only the pairs inside them. A cut adds no edge, color or
    pair, so a cut of an instance whose check has run clean is marked valid.
    On such a parent an edge keeps its pair set as it is when both its lists
    are the parent's own objects: its pairs already lie inside them."""
    g = inst.graph.induced(vertices)
    clean = inst.__dict__.get("_violations") == ()  # the parent's check, only if it has run
    if lists is None:
        lists = {v: inst.lists[v] for v in g.vertices}
        matching = {p: inst.matching[p] for p in g.mult}
    else:
        matching = {}
        for x, y in g.mult:
            prs, lx, ly = inst.matching[(x, y)], lists[x], lists[y]
            if not (clean and lx is inst.lists[x] and ly is inst.lists[y]):
                prs = frozenset((a, b) for a, b in prs if a in lx and b in ly)
            matching[(x, y)] = prs
    # The parts are already what the constructor would make of them: frozensets
    # keyed by sorted canonical pairs. Skipping it keeps many small cuts cheap.
    return DPInstance._from_parts(g, lists, matching, valid=clean)


def _signed_matching(signs: Mapping[tuple[str, str], tuple[int, ...]], lists: Mapping) -> dict:
    """Per vertex pair, (c, c) for each +1 sign and (c, -c) for each -1, on listed colors.

    Keyed as ``signs`` is: with one key per edge of a graph, its sorted
    canonical pairs, and frozenset lists, it is a matching DPInstance._from_parts
    takes as it is. Each pair set is built once per (signs, L(u), L(v)) and
    shared by every edge that repeats them."""
    matching: dict[tuple[str, str], frozenset[tuple[int, int]]] = {}
    memo: dict[tuple, frozenset[tuple[int, int]]] = {}
    empty: frozenset[int] = frozenset()
    for (u, v), ss in signs.items():
        key = ss, lists.get(u, empty), lists.get(v, empty)
        prs = memo.get(key)
        if prs is None:
            _, lu, lv = key
            found: set[tuple[int, int]] = set()
            for sgn in ss:
                if sgn == 1:
                    found.update((c, c) for c in lu & lv)
                else:
                    found.update((c, -c) for c in lu if -c in lv)
            prs = memo[key] = frozenset(found)
        matching[(u, v)] = prs
    return matching


def from_list_instance(g: Multigraph, lists: Mapping[str, Iterable[int]]) -> DPInstance:
    """Identity matchings on shared colors; solving this is L-coloring g.
    The lists keep their keys, so validate reports a missing or unknown vertex."""
    if not g.is_simple():
        raise MultigraphInput("from_list_instance requires a simple graph")
    flists = {u: frozenset(cs) for u, cs in lists.items()}
    return DPInstance._from_parts(g, flists, _signed_matching(dict.fromkeys(g.pairs(), (1,)), flists))


def from_k_coloring(g: Multigraph, k: int) -> DPInstance:
    """All lists [k] with identity matchings; solving this is k-coloring g.

    Parallel identity matchings coincide, so multiplicity does not enlarge the
    pair sets. On a simple graph the cover is the Cartesian product with K_k.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    colors = frozenset(range(1, k + 1))
    lists = {u: colors for u in g.vertices}
    return DPInstance._from_parts(g, lists, _signed_matching(dict.fromkeys(g.pairs(), (1,)), lists))


def is_degree_list(inst: DPInstance) -> bool:
    """Checkable degree-list predicate: |L(u)| >= deg(u) for every vertex."""
    return all(
        len(inst.lists.get(u, frozenset())) >= inst.graph.degree(u)
        for u in inst.graph.vertices
    )


def is_valid_transversal(inst: DPInstance, picks: Mapping[str, int]) -> bool:
    """True iff picks is total, in-list, and independent in the cover; a
    pick whose type is not exactly int is not in any list, as in validate."""
    require_valid(inst)
    lists = inst.lists  # a valid instance has a list per vertex and no other
    if picks.keys() != lists.keys():
        return False
    if not all(type(c) is int and c in lists[u] for u, c in picks.items()):
        return False
    for (u, v), prs in inst.matching.items():
        if (picks[u], picks[v]) in prs:
            return False
    return True
