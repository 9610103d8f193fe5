"""Exact cover-coloring search, greedy coloring, and small DP-chromatic numbers."""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from heapq import heapify, heappop, heappush
from itertools import combinations, permutations, product
from typing import Iterator, Optional, Sequence

from .cover import DPInstance, Transversal, _extend_greedily, _pieces, require_valid, validate
from .errors import EmptyGraph, GuardExceeded
from .multigraph import Multigraph
from .obstruction import find_certificate


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


def solve(inst: DPInstance, *, max_nodes: int | None = None) -> SolveResult:
    """An independent transversal, or None when the instance has none.

    Theorem step first: when every list is nonempty and has exactly its
    vertex's degree, find_certificate runs on each connected component, and
    a certificate for any of them answers "not colorable" (a degree-list
    component has no transversal exactly when it has one). The step never
    answers "colorable", so a colorable instance always gets the search's
    transversal.

    The search branches over vertices by ascending list size then id, colors
    ascending; a pick removes its matched colors from the later live lists
    and is pruned if it empties one. Deterministic: returns the
    lexicographically least transversal in that branching order, or names
    the least empty-list vertex. ``max_nodes`` counts search nodes only, the
    picks that survive pruning; past it GuardExceeded is raised.
    """
    require_valid(inst)
    if max_nodes is not None and max_nodes < 0:
        raise ValueError(f"max_nodes must be >= 0, got {max_nodes}")
    g = inst.graph
    if all(0 < len(inst.lists[u]) == g.degree(u) for u in g.vertices):  # stops at the first miss
        if any(find_certificate(piece) is not None for piece in _pieces(inst)):
            return SolveResult(None)
    return _search(inst, max_nodes)


def _search(inst: DPInstance, max_nodes: int | None = None) -> SolveResult:
    """The exhaustive search behind solve, without its theorem step, on a
    valid instance. It never consults a certificate, so tests check the
    certificate code against it.

    Iterative and bit-parallel over a sliding window: the live lists are
    w-bit fields of one int (w = max |L| + 1, top bit a guard), in branching
    order with bit j of a field standing for its vertex's j-th least color.
    With B the largest forward distance k - i over the edges in branching
    order (at least 1), a pick at level i strikes only fields i+1..i+B, so
    the window holds fields i..i+B, vertex i at bit 0, and past vertex n - 1
    a nonempty padding field. A pick is ``rest = live >> w; hit = rest &
    mask; new = rest ^ hit`` with one precomputed mask per (vertex, color),
    and ``(new + FILL) & GUARD == GUARD``, constants of B fields, finds an
    emptied field; the full field of vertex i+1+B then enters at the top.
    The undo stack keeps (field, bit, hit); backtracking drops the top field,
    ``live = ((live & KEEP) | hit) << w | field``. Each level costs O(B * w)
    bits: linear in n on a path, as before on a dense instance. Past
    ``max_nodes`` picks that survive pruning, GuardExceeded is raised.

    The set-up is built once per distinct list, not per vertex: its sorted
    colors, its color -> bit map, a zero mask row that each vertex copies
    and its full field. Equal lists share them.
    """
    g, lists = inst.graph, inst.lists
    if not all(lists.values()):
        return SolveResult(None, witness_vertex=next(u for u in g.vertices if not lists[u]))
    if not g.vertices:
        return SolveResult({})

    # g.vertices is sorted and sorted() is stable: ties by size stay in id order.
    order = sorted(g.vertices, key=lambda u: len(lists[u]))
    n, w = len(order), len(lists[order[-1]]) + 1
    tables: dict[frozenset[int], tuple] = {}
    for cs in dict.fromkeys(lists.values()):
        colors = sorted(cs)
        bits = [1 << j for j in range(len(colors))]
        full = f"{(1 << len(bits)) - 1:0{w}b}"
        tables[cs] = colors, dict(zip(colors, bits)), dict.fromkeys(bits, 0), full
    tab = [tables[lists[u]] for u in order]
    masks = [zero.copy() for _, _, zero, _ in tab]
    pos = dict(zip(order, range(n)))
    span = 1
    for (u, v), prs in inst.matching.items():
        i, k = pos[u], pos[v]
        if i > k:
            i, k, prs = k, i, [(b, a) for a, b in prs]
        if k - i > span:
            span = k - i
        row, at, col, base = masks[i], tab[i][1], tab[k][1], (k - i - 1) * w
        for a, b in prs:
            row[at[a]] |= col[b] << base
    # The window at level 0: the full fields of vertices 0..B, padded past
    # the last vertex. Binary digit strings keep it linear in B * w.
    pad = "0" * (w - 1) + "1"
    head = [full for _, _, _, full in tab[: span + 1]] + [pad] * (span + 1 - n)
    live = int("".join(reversed(head)), 2)
    # incoming[i] enters at the top on reaching level i: vertex i + B's full
    # field, or padding; one shared int per distinct field.
    top = span * w
    shifted = {full: int(full, 2) << top for full in [pad, *(t[3] for t in tables.values())]}
    incoming = [shifted[full] for _, _, _, full in tab[span:]] + [shifted[pad]] * (span + 1)
    FILL, GUARD = int(("0" + "1" * (w - 1)) * span, 2), int(("1" + "0" * (w - 1)) * span, 2)
    KEEP, FIELD = (1 << top) - 1, (1 << w) - 1

    stop = -1 if max_nodes is None else max_nodes + 1
    i = nodes = 0
    stack: list[tuple[int, int, int]] = []
    field = cand = live & FIELD
    while True:
        rest, row = live >> w, masks[i]
        while cand:
            bit = cand & -cand
            hit = rest & row[bit]
            new = rest ^ hit
            if (new + FILL) & GUARD == GUARD:
                break
            cand ^= bit
        if cand:
            nodes += 1
            if nodes == stop:
                raise GuardExceeded(f"solve passed max_nodes={max_nodes} at node {nodes}")
            stack.append((field, bit, hit))
            i += 1
            if i == n:
                return SolveResult(
                    {u: t[0][b.bit_length() - 1] for u, t, (_, b, _) in zip(order, tab, stack)}
                )
            live = new | incoming[i]
            field = cand = live & FIELD
        elif i:
            field, bit, hit = stack.pop()
            i -= 1
            live = ((live & KEEP) | hit) << w | field
            cand = field & -(bit << 1)
        else:
            return SolveResult(None)


def degeneracy_order(g: Multigraph) -> tuple[str, ...]:
    """Peeling order: repeatedly remove a minimum-degree vertex (ties by id).

    Degrees count multiplicities. A heap of (degree, id) with lazy deletion
    makes it O((V + E) log V). The maximum back-degree along the reversed
    order is the (multiplicity-weighted) degeneracy.
    """
    if not g.vertices:
        raise EmptyGraph("degeneracy order of an empty graph")
    deg = {u: g.degree(u) for u in g.vertices}
    heap = [(d, u) for u, d in deg.items()]
    heapify(heap)
    order: list[str] = []
    while heap:
        d, u = heappop(heap)
        if deg.get(u) != d:  # peeled already, or a stale degree
            continue
        del deg[u]
        order.append(u)
        for v in g.neighbors(u):
            if v in deg:
                deg[v] -= g.multiplicity(u, v)
                heappush(heap, (deg[v], v))
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
    sorted pair tuples, largest first (saturated assignments fail fastest).
    The degree bound is validate's, on one edge of multiplicity mu."""
    cells = [(a, b) for a in range(1, t + 1) for b in range(1, t + 1)]
    edge = Multigraph(("a", "b"), {("a", "b"): mu})
    lists = dict.fromkeys(edge.vertices, range(1, t + 1))
    return tuple(
        chosen
        for r in range(len(cells), -1, -1)
        for chosen in combinations(cells, r)
        if not validate(DPInstance(edge, lists, {("a", "b"): chosen}))
    )


def _uniform_assignments(g: Multigraph, t: int) -> Iterator[DPInstance]:
    """Matching assignments over uniform lists [t], one per orbit of the
    per-vertex color-relabeling group (relabeling is a cover isomorphism)."""
    edges = g.pairs()
    vidx = {u: i for i, u in enumerate(g.vertices)}
    perms = list(permutations(range(1, t + 1)))
    group = list(product(perms, repeat=len(g.vertices)))
    choices = [_capped_bipartite_graphs(t, g.mult[p]) for p in edges]
    lists = {u: frozenset(range(1, t + 1)) for u in g.vertices}

    def children(chosen: tuple, stab: list) -> Iterator[tuple[tuple, list]]:
        """Each least-in-orbit choice for the next edge, with its stabilizer."""
        i = len(chosen)
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
            if not smaller:
                yield chosen + (m,), new_stab

    # Depth-first over the edges with an explicit stack of child iterators.
    stack = [iter([((), group)])]
    while stack:
        node = next(stack[-1], None)
        if node is None:
            stack.pop()
        elif len(node[0]) == len(edges):
            yield DPInstance(g, lists, {e: frozenset(m) for e, m in zip(edges, node[0])})
        else:
            stack.append(children(*node))


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
