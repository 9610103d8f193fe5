"""List assignments, matching assignments, covers, and the restriction construction.

A DP instance is a multigraph plus a color list per vertex plus, per adjacent
vertex pair, a set of matched color pairs. The matched pairs must form a union
of mu(uv) matchings, which is exactly the bipartite-degree bound checked by
:func:`validate`. Colors are plain ints with no meaning across vertices; the
matchings alone carry inter-vertex semantics.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Iterable, Mapping, Optional

from .errors import ColorNotInList, InvalidInstance, MultigraphInput, VertexNotFound
from .multigraph import Multigraph, vertex_pair

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
    (color at u, color at v) pairs. Construction normalizes pair orientation
    and fills an empty entry for every edge; both mappings are read-only.
    Semantic checks live in :func:`validate`.
    """

    graph: Multigraph
    lists: Mapping[str, frozenset[int]]
    matching: Mapping[tuple[str, str], frozenset[tuple[int, int]]]

    def __post_init__(self) -> None:
        lists = {u: frozenset(cs) for u, cs in self.lists.items()}
        matching: dict[tuple[str, str], frozenset[tuple[int, int]]] = {
            p: frozenset() for p in self.graph.pairs()
        }
        for (u, v), prs in self.matching.items():
            key = (u, v) if u < v else (v, u)
            oriented = {(a, b) if u < v else (b, a) for a, b in prs}
            matching[key] = matching.get(key, frozenset()) | frozenset(oriented)
        object.__setattr__(self, "lists", MappingProxyType(lists))
        object.__setattr__(
            self, "matching", MappingProxyType({k: matching[k] for k in sorted(matching)})
        )

    def list_of(self, u: str) -> frozenset[int]:
        return self.lists[u]

    def pairs_between(self, u: str, v: str) -> frozenset[tuple[int, int]]:
        """Matched pairs oriented as (color at u, color at v)."""
        key = vertex_pair(u, v)
        prs = self.matching.get(key, frozenset())
        if key == (u, v):
            return prs
        return frozenset((b, a) for a, b in prs)


@dataclass(frozen=True)
class Cover:
    """The cover graph on (vertex, color) nodes: one clique per vertex plus
    the matching edges across adjacent vertices."""

    nodes: tuple[tuple[str, int], ...]
    adj: dict[tuple[str, int], frozenset[tuple[str, int]]]

    def adjacent(self, p: tuple[str, int], q: tuple[str, int]) -> bool:
        return q in self.adj.get(p, frozenset())

    def edges(self) -> tuple[tuple[tuple[str, int], tuple[str, int]], ...]:
        out = set()
        for p, nbrs in self.adj.items():
            for q in nbrs:
                out.add((p, q) if p < q else (q, p))
        return tuple(sorted(out))

    @property
    def edge_count(self) -> int:
        return sum(len(nbrs) for nbrs in self.adj.values()) // 2


def validate(inst: DPInstance) -> list[Violation]:
    """All invariant violations of the instance; empty list means valid."""
    out: list[Violation] = []
    g = inst.graph
    vset = set(g.vertices)
    for u in g.vertices:
        if u not in inst.lists:
            out.append(Violation("missing-list", (u,), f"vertex {u!r} has no list entry"))
    for u in sorted(inst.lists):
        if u not in vset:
            out.append(Violation("unknown-vertex", (u,), f"list entry for unknown vertex {u!r}"))
    edge_pairs = set(g.pairs())
    for (u, v), prs in inst.matching.items():
        if (u, v) not in edge_pairs:
            if prs:
                out.append(
                    Violation("non-edge-pair", (u, v), f"matching on non-edge ({u!r}, {v!r})")
                )
            continue
        lu = inst.lists.get(u, frozenset())
        lv = inst.lists.get(v, frozenset())
        mu = g.multiplicity(u, v)
        deg_u: dict[int, int] = {}
        deg_v: dict[int, int] = {}
        for a, b in sorted(prs):
            if a not in lu:
                out.append(
                    Violation(
                        "color-not-in-list",
                        (u, a, v),
                        f"pair ({a},{b}) on ({u!r},{v!r}) uses color {a} not in L({u!r})",
                    )
                )
            if b not in lv:
                out.append(
                    Violation(
                        "color-not-in-list",
                        (v, b, u),
                        f"pair ({a},{b}) on ({u!r},{v!r}) uses color {b} not in L({v!r})",
                    )
                )
            deg_u[a] = deg_u.get(a, 0) + 1
            deg_v[b] = deg_v.get(b, 0) + 1
        for c, d in sorted(deg_u.items()):
            if d > mu:
                out.append(
                    Violation(
                        "capacity-exceeded",
                        (u, c, v),
                        f"color {c} at {u!r} has degree {d} > {mu} toward {v!r}",
                    )
                )
        for c, d in sorted(deg_v.items()):
            if d > mu:
                out.append(
                    Violation(
                        "capacity-exceeded",
                        (v, c, u),
                        f"color {c} at {v!r} has degree {d} > {mu} toward {u!r}",
                    )
                )
    return out


def require_valid(inst: DPInstance) -> None:
    violations = validate(inst)
    if violations:
        raise InvalidInstance(violations)


def build_cover(inst: DPInstance) -> Cover:
    """The cover graph of a valid instance."""
    require_valid(inst)
    nodes = tuple(
        sorted((u, c) for u in inst.graph.vertices for c in inst.lists[u])
    )
    adj: dict[tuple[str, int], set[tuple[str, int]]] = {p: set() for p in nodes}
    for u in inst.graph.vertices:
        colors = sorted(inst.lists[u])
        for i, a in enumerate(colors):
            for b in colors[i + 1 :]:
                adj[(u, a)].add((u, b))
                adj[(u, b)].add((u, a))
    for (u, v), prs in inst.matching.items():
        for a, b in prs:
            adj[(u, a)].add((v, b))
            adj[(v, b)].add((u, a))
    return Cover(nodes, {p: frozenset(s) for p, s in adj.items()})


def matching_neighbors(inst: DPInstance, u: str, v: str) -> dict[int, frozenset[int]]:
    """For each color of L(u), the colors of L(v) it is matched to."""
    out: dict[int, set[int]] = {c: set() for c in inst.lists[u]}
    for a, b in inst.pairs_between(u, v):
        out.setdefault(a, set()).add(b)
    return {c: frozenset(s) for c, s in out.items()}


def _extend_greedily(
    inst: DPInstance, order: Iterable[str], picks: Transversal
) -> Optional[str]:
    """Give each vertex of ``order`` in turn its least color not matched to a
    neighbour's pick in ``picks``, adding it there; returns the first vertex
    left without a color, or None. Reads edge pairs, never a neighbour's list."""
    for u in order:
        forbidden = {
            b for v in inst.graph.neighbors(u) if v in picks
            for a, b in inst.pairs_between(v, u) if a == picks[v]
        }
        free = inst.lists[u] - forbidden
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
    g2 = inst.graph.without_vertex(u)
    lists2 = {v: inst.lists[v] for v in g2.vertices}
    for v in inst.graph.neighbors(u):
        lists2[v] = lists2[v] - {b for a, b in inst.pairs_between(u, v) if a == c}
    matching2: dict[tuple[str, str], frozenset[tuple[int, int]]] = {}
    for (x, y), prs in inst.matching.items():
        if u in (x, y):
            continue
        matching2[(x, y)] = frozenset(
            (a, b) for a, b in prs if a in lists2[x] and b in lists2[y]
        )
    return DPInstance(g2, lists2, matching2)


def induced_instance(inst: DPInstance, vertices: Iterable[str]) -> DPInstance:
    """Sub-instance on a vertex subset (lists kept, matchings restricted)."""
    keep = set(vertices)
    g2 = inst.graph.induced(keep)
    lists2 = {v: inst.lists[v] for v in g2.vertices}
    matching2 = {
        p: prs for p, prs in inst.matching.items() if p[0] in keep and p[1] in keep
    }
    return DPInstance(g2, lists2, matching2)


def from_list_instance(g: Multigraph, lists: Mapping[str, Iterable[int]]) -> DPInstance:
    """Identity matchings on shared colors; solving this is L-coloring g."""
    if not g.is_simple():
        raise MultigraphInput("from_list_instance requires a simple graph")
    flists = {u: frozenset(lists.get(u, ())) for u in g.vertices}
    matching = {
        (u, v): frozenset((c, c) for c in flists[u] & flists[v]) for u, v in g.pairs()
    }
    return DPInstance(g, flists, matching)


def from_k_coloring(g: Multigraph, k: int) -> DPInstance:
    """All lists [k] with identity matchings; solving this is k-coloring g.

    Parallel identity matchings coincide, so multiplicity does not enlarge the
    pair sets. On a simple graph the cover is the Cartesian product with K_k.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    colors = frozenset(range(1, k + 1))
    lists = {u: colors for u in g.vertices}
    matching = {p: frozenset((c, c) for c in colors) for p in g.pairs()}
    return DPInstance(g, lists, matching)


def is_degree_list(inst: DPInstance) -> bool:
    """Checkable degree-list predicate: |L(u)| >= deg(u) for every vertex."""
    return all(
        len(inst.lists.get(u, frozenset())) >= inst.graph.degree(u)
        for u in inst.graph.vertices
    )


def is_valid_transversal(inst: DPInstance, picks: Mapping[str, int]) -> bool:
    """True iff picks is total, in-list, and independent in the cover."""
    if set(picks) != set(inst.graph.vertices):
        return False
    if any(picks[u] not in inst.lists.get(u, frozenset()) for u in picks):
        return False
    for (u, v), prs in inst.matching.items():
        if (picks[u], picks[v]) in prs:
            return False
    return True
