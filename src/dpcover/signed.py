"""Signed graphs: symmetric palettes, switching, balance, fullness, and the
reduction of signed (list) coloring to a cover-coloring instance.

A signed coloring demands f(u) != sign(uv) * f(v) over the palette N_k, which
is {0, +-1, ..., +-r} for odd k = 2r+1 and {+-1, ..., +-r} for even k = 2r.
Positive edges contribute identity matchings, negative edges negation
matchings, so signed colorability is plain cover colorability of the
reduction.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Collection, Iterable, Mapping

from .cover import DPInstance, _signed_matching, require_valid
from .errors import (
    ColorOutsideNk,
    NotDegreeList,
    VertexNotFound,
)
from .multigraph import OTHER, BlockKind, Multigraph, blocks, vertex_pair
from .obstruction import FAT_MOBIUS, block_pattern_kind
from .solver import SolveResult, solve


@dataclass(frozen=True)
class NkSet:
    """The symmetric palette N_k."""

    k: int
    colors: frozenset[int]


def n_k(k: int) -> NkSet:
    """N_k: zero plus +-1..+-r for odd k = 2r+1, just +-1..+-r for even k = 2r."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    r = k // 2
    if k % 2 == 1:
        colors = frozenset(range(-r, r + 1))
    else:
        colors = frozenset(c for c in range(-r, r + 1) if c != 0)
    return NkSet(k, colors)


@dataclass(frozen=True)
class SignedGraph:
    """Multigraph plus one sign (+1/-1) per parallel edge instance; ``signs``
    is a read-only mapping from each canonical pair to its sign tuple."""

    graph: Multigraph
    signs: Mapping[tuple[str, str], tuple[int, ...]]

    def __post_init__(self) -> None:
        norm: dict[tuple[str, str], tuple[int, ...]] = {}
        for (u, v), ss in self.signs.items():
            key = vertex_pair(u, v)
            if key in norm:
                raise ValueError(f"signs for pair {key} given twice")
            norm[key] = tuple(ss)
        if set(norm) != set(self.graph.pairs()):
            raise ValueError("signs must cover exactly the edges of the graph")
        for key, ss in norm.items():
            if len(ss) != self.graph.mult[key]:
                raise ValueError(
                    f"pair {key} has {self.graph.mult[key]} parallel edges "
                    f"but {len(ss)} signs"
                )
            if any(isinstance(s, bool) or not isinstance(s, int) or s not in (1, -1) for s in ss):
                raise ValueError(f"signs of {key} must be +1 or -1, got {ss}")
        object.__setattr__(self, "signs", MappingProxyType({k: norm[k] for k in sorted(norm)}))

    def sign_tuple(self, u: str, v: str) -> tuple[int, ...]:
        return self.signs[vertex_pair(u, v)]


def all_positive(g: Multigraph) -> SignedGraph:
    return SignedGraph(g, {p: (1,) * m for p, m in g.mult.items()})


def switch(s: SignedGraph, v: str) -> SignedGraph:
    """Negate every sign on edges incident to v; an involution."""
    if v not in s.graph.vertices:
        raise VertexNotFound(f"vertex {v!r} not in graph")
    signs = {
        p: tuple(-x for x in ss) if v in p else ss for p, ss in s.signs.items()
    }
    return SignedGraph(s.graph, signs)


def _potentials(s: SignedGraph) -> dict[str, int]:
    """A +-1 potential per vertex of a connected signed graph, along a
    spanning tree (first sign of each tree edge). A spanning tree restricts to
    a spanning tree of every block, so a block is balanced iff its edges agree
    with these potentials."""
    g = s.graph
    pot = {g.vertices[0]: 1}
    stack = [g.vertices[0]]
    while stack:
        u = stack.pop()
        for v in g.neighbors(u):
            if v not in pot:
                pot[v] = pot[u] * s.sign_tuple(u, v)[0]
                stack.append(v)
    return pot


def _balanced(s: SignedGraph, pot: dict[str, int], pairs: Iterable[tuple[str, str]]) -> bool:
    return all(set(s.signs[p]) == {pot[p[0]] * pot[p[1]]} for p in pairs)


def _full(s: SignedGraph, pairs: Collection[tuple[str, str]]) -> bool:
    return bool(pairs) and all(sorted(s.signs[p]) == [-1, 1] for p in pairs)


def is_balanced(s: SignedGraph) -> bool:
    """True iff some switching sequence makes every sign positive.

    Spanning-tree potentials: fix a potential +-1 per vertex along a spanning
    tree and check every edge. A pair carrying parallel edges of both signs
    can never be balanced.
    """
    blocks(s.graph)  # refuses an empty or disconnected graph
    return _balanced(s, _potentials(s), s.signs)


def is_full(s: SignedGraph) -> bool:
    """True iff the graph is a doubled simple graph with each parallel pair
    carrying one positive and one negative sign."""
    return _full(s, s.signs)


def signed_to_dp(
    s: SignedGraph,
    lists: Mapping[str, Iterable[int]],
    k: int | None = None,
) -> DPInstance:
    """Reduce signed list coloring to a cover-coloring instance.

    Each positive parallel edge contributes identity pairs (i, i), each
    negative one negation pairs (i, -i); pair sets over a vertex pair are
    unioned. When ``k`` is given, list values are checked against N_k. The
    lists keep their keys, so validate reports a missing or unknown vertex.
    """
    flists = {u: frozenset(cs) for u, cs in lists.items()}
    if k is not None:
        palette = n_k(k).colors
        for u in sorted(flists):
            stray = flists[u] - palette
            if stray:
                raise ColorOutsideNk(
                    f"L({u!r}) contains {sorted(stray)} outside N_{k}"
                )
    return DPInstance._from_parts(s.graph, flists, _signed_matching(s.signs, flists))


def solve_signed(s: SignedGraph, k: int, *, max_nodes: int | None = None) -> SolveResult:
    """Signed k-coloring: solve on the reduction with N_k for every list.

    The reduction is built in one pass and trusted, not validated: see
    _nk_instance. ``max_nodes`` bounds the search as in solve."""
    return solve(_nk_instance(s, k), max_nodes=max_nodes)


def _nk_instance(s: SignedGraph, k: int) -> DPInstance:
    """signed_to_dp of ``s`` with N_k for every list, built once and marked
    valid: the lists are plain ints on exactly the vertices, and a
    SignedGraph carries one sign of +-1 per parallel edge, so each edge's
    pairs are a union of at most mu(uv) matchings on listed colors."""
    palette = n_k(k).colors
    lists = dict.fromkeys(s.graph.vertices, palette)
    return DPInstance._from_parts(s.graph, lists, _signed_matching(s.signs, lists), valid=True)


def _signed_block_in_taxonomy(kind: BlockKind, balanced: bool, full: bool) -> bool:
    """Whether one block, of shape ``kind``, is in the taxonomy of ss_block_check."""
    if kind.shape == OTHER:
        return False
    mobius = block_pattern_kind(kind) == FAT_MOBIUS  # an even cycle
    if kind.t == 1:
        return balanced != mobius
    return kind.t == 2 and not mobius and full


def ss_block_check(s: SignedGraph, lists: Mapping[str, Iterable[int]]) -> bool:
    """Block taxonomy test for signed list coloring at degree lists.

    True iff every block, up to switching, is a balanced complete graph, a
    balanced odd cycle, an unbalanced even cycle, a full doubled complete
    graph, or a full doubled odd cycle. Exact decisions should go through
    signed_to_dp plus decide. Each block is read from its own edges, with
    balance taken from one set of spanning-tree potentials.
    """
    g = s.graph
    dec = blocks(g)
    inst = DPInstance(g, lists, {})
    require_valid(inst)  # names a missing or unknown vertex, as signed_to_dp's solve does
    for u in g.vertices:
        if len(inst.lists[u]) < g.degree(u):
            raise NotDegreeList(f"|L({u!r})| < degree {g.degree(u)}")
    pot = _potentials(s)
    for E, kind in zip(dec.edges, dec.kinds):
        if not _signed_block_in_taxonomy(kind, _balanced(s, pot, E), _full(s, E)):
            return False
    return True
