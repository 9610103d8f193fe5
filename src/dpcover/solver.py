"""Exact cover-coloring search, greedy coloring, and small DP-chromatic numbers."""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations, product
from typing import Iterator, Optional, Sequence

from .cover import DPInstance, Transversal, _extend_greedily, require_valid
from .errors import EmptyGraph, GuardExceeded
from .multigraph import Multigraph


@dataclass(frozen=True)
class SolveResult:
    """Outcome of a coloring search.

    ``transversal`` is None when no coloring was found; ``witness_vertex``
    then names an empty-list vertex (solve) or the stuck vertex (greedy),
    when one exists.
    """

    transversal: Optional[Transversal]
    witness_vertex: Optional[str] = None

    @property
    def colorable(self) -> bool:
        return self.transversal is not None


def solve(inst: DPInstance) -> SolveResult:
    """Exhaustive backtracking search for an independent transversal.

    Branches over vertices by ascending list size then id, colors ascending;
    after each pick the matched colors are removed from the neighbors' live
    lists (the restriction construction applied incrementally). Deterministic:
    returns the lexicographically least transversal with respect to that
    branching order.
    """
    require_valid(inst)
    return _solve(inst)


def _solve(inst: DPInstance) -> SolveResult:
    """solve on an instance already validated."""
    g = inst.graph
    empties = sorted(u for u in g.vertices if not inst.lists[u])
    if empties:
        return SolveResult(None, witness_vertex=empties[0])
    if not g.vertices:
        return SolveResult({})

    order = sorted(g.vertices, key=lambda u: (len(inst.lists[u]), u))
    conflicts: dict[tuple[str, int], list[tuple[str, int]]] = {}
    for (u, v), prs in inst.matching.items():
        for a, b in prs:
            conflicts.setdefault((u, a), []).append((v, b))
            conflicts.setdefault((v, b), []).append((u, a))

    domains = {u: sorted(inst.lists[u]) for u in g.vertices}
    live = {u: set(domains[u]) for u in g.vertices}
    picks: Transversal = {}

    def search(i: int) -> bool:
        if i == len(order):
            return True
        u = order[i]
        for c in domains[u]:
            if c not in live[u]:
                continue
            removed: list[tuple[str, int]] = []
            dead_end = False
            for v, b in conflicts.get((u, c), ()):
                if v in picks or v == u:
                    continue
                if b in live[v]:
                    live[v].discard(b)
                    removed.append((v, b))
                    if not live[v]:
                        dead_end = True
            if not dead_end:
                picks[u] = c
                if search(i + 1):
                    return True
                del picks[u]
            for v, b in removed:
                live[v].add(b)
        return False

    if search(0):
        return SolveResult(dict(picks))
    return SolveResult(None)


def degeneracy_order(g: Multigraph) -> tuple[str, ...]:
    """Peeling order: repeatedly remove a minimum-degree vertex (ties by id).

    Degrees count multiplicities. The maximum back-degree along the reversed
    order is the (multiplicity-weighted) degeneracy.
    """
    if not g.vertices:
        raise EmptyGraph("degeneracy order of an empty graph")
    remaining = set(g.vertices)
    deg = {u: g.degree(u) for u in g.vertices}
    order: list[str] = []
    while remaining:
        u = min(remaining, key=lambda x: (deg[x], x))
        order.append(u)
        remaining.discard(u)
        for v in g.neighbors(u):
            if v in remaining:
                deg[v] -= g.multiplicity(u, v)
    return tuple(order)


def greedy_color(inst: DPInstance, order: Sequence[str]) -> SolveResult:
    """Greedy pass in reverse peeling order; a heuristic, not a decision.

    Each vertex takes its least color not matched to an earlier pick. Succeeds
    whenever every list is larger than the vertex's back-multiplicity, so
    (k+1)-lists on a k-degenerate graph always color.
    """
    require_valid(inst)
    if sorted(order) != list(inst.graph.vertices):
        raise ValueError("order must be a permutation of the vertices")
    picks: Transversal = {}
    stuck = _extend_greedily(inst, reversed(order), picks)
    return SolveResult(picks) if stuck is None else SolveResult(None, witness_vertex=stuck)


@lru_cache(maxsize=None)
def _capped_bipartite_graphs(t: int, mu: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """All bipartite graphs between [t] and [t] with max degree <= mu, as
    sorted pair tuples, largest first (saturated assignments fail fastest)."""
    cells = [(a, b) for a in range(1, t + 1) for b in range(1, t + 1)]
    out: list[tuple[tuple[int, int], ...]] = []
    for mask in range(1 << len(cells)):
        chosen = [cells[i] for i in range(len(cells)) if mask >> i & 1]
        deg_a: dict[int, int] = {}
        deg_b: dict[int, int] = {}
        ok = True
        for a, b in chosen:
            deg_a[a] = deg_a.get(a, 0) + 1
            deg_b[b] = deg_b.get(b, 0) + 1
            if deg_a[a] > mu or deg_b[b] > mu:
                ok = False
                break
        if ok:
            out.append(tuple(sorted(chosen)))
    out.sort(key=lambda m: (-len(m), m))
    return tuple(out)


def _uniform_assignments(g: Multigraph, t: int) -> Iterator[DPInstance]:
    """Matching assignments over uniform lists [t], one per orbit of the
    per-vertex color-relabeling group (relabeling is a cover isomorphism)."""
    edges = g.pairs()
    vidx = {u: i for i, u in enumerate(g.vertices)}
    perms = list(permutations(range(1, t + 1)))
    group = list(product(perms, repeat=len(g.vertices)))
    choices = [_capped_bipartite_graphs(t, g.mult[p]) for p in edges]
    lists = {u: frozenset(range(1, t + 1)) for u in g.vertices}

    def rec(
        i: int,
        chosen: list[tuple[tuple[int, int], ...]],
        stab: list[tuple[tuple[int, ...], ...]],
    ) -> Iterator[DPInstance]:
        if i == len(edges):
            matching = {e: frozenset(m) for e, m in zip(edges, chosen)}
            yield DPInstance(g, lists, matching)
            return
        iu, iv = vidx[edges[i][0]], vidx[edges[i][1]]
        for m in choices[i]:
            new_stab = []
            smaller = False
            for gp in stab:
                pu, pv = gp[iu], gp[iv]
                mapped = tuple(sorted((pu[a - 1], pv[b - 1]) for a, b in m))
                if mapped < m:
                    smaller = True
                    break
                if mapped == m:
                    new_stab.append(gp)
            if smaller:
                continue
            chosen.append(m)
            yield from rec(i + 1, chosen, new_stab)
            chosen.pop()

    yield from rec(0, [], group)


def dp_chromatic_number_small(g: Multigraph, k_max: int) -> Optional[int]:
    """Least t <= k_max such that every matching assignment over t-lists is
    colorable, or None (unknown) if no t <= k_max works.

    Hard guard: at most 5 vertices and k_max <= 3; beyond that the
    enumeration is refused with GuardExceeded.
    """
    # Uniform lists [t] suffice: a t-list instance restricts to exact-t
    # sublists (extra colors only add isolated-in-matching cover nodes), and
    # exact-t lists relabel per vertex onto [t], a cover isomorphism.
    if not g.vertices:
        raise EmptyGraph("dp_chromatic_number_small of an empty graph")
    if len(g.vertices) > 5 or k_max > 3:
        raise GuardExceeded(
            f"guard is 5 vertices / k_max 3; got {len(g.vertices)} vertices, k_max {k_max}"
        )
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    for t in range(1, k_max + 1):
        if all(solve(inst).colorable for inst in _uniform_assignments(g, t)):
            return t
    return None
