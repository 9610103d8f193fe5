"""Instance and graph constructors: standard graphs, blow-ups, canonical
non-colorable instances with their certificates, and seeded random matchings."""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from itertools import combinations, product
from types import MappingProxyType
from typing import Optional, Sequence

from .cover import DPInstance
from .errors import EmptyGraph
from .multigraph import CNT, KNT, OTHER, BlockKind, Multigraph, _cycle_walk, blocks
from .obstruction import BlockCertificate, ObstructionCertificate, _label_pairs, _plan, _position_rule


def path_graph(names: Sequence[str]) -> Multigraph:
    return Multigraph.from_pairs(names, zip(names, names[1:]))


def cycle_graph(names: Sequence[str]) -> Multigraph:
    if len(names) < 3:
        raise ValueError("a cycle needs at least 3 vertices")
    edges = list(zip(names, names[1:])) + [(names[-1], names[0])]
    return Multigraph.from_pairs(names, edges)


def complete_graph(names: Sequence[str]) -> Multigraph:
    return Multigraph.from_pairs(names, combinations(names, 2))


def blow_up_vertex(u: str, k: int) -> str:
    """Vertex id of the k-th clique copy of u in a blow-up."""
    return f"{u}#{k}"


def blow_up(g: Multigraph, t: int) -> Multigraph:
    """Replace every vertex by a K_t clique, joined completely across each
    original edge."""
    if not g.is_simple():
        raise ValueError("blow_up is defined for simple graphs")
    if t < 1:
        raise ValueError(f"t must be >= 1, got {t}")
    copies = {u: [blow_up_vertex(u, k) for k in range(1, t + 1)] for u in g.vertices}
    pairs = [p for u in g.vertices for p in combinations(copies[u], 2)]
    pairs += [p for u, v in g.pairs() for p in product(copies[u], copies[v])]
    return Multigraph.from_pairs([x for u in g.vertices for x in copies[u]], pairs)


def _block_vertex_names(n: int) -> list[str]:
    return [f"u{i}" for i in range(1, n + 1)]


def _part(kind: BlockKind, names: list[str]) -> tuple:
    """The complete graph or the cycle on ``names`` as _assemble takes it:
    vertices and canonical edges sorted as blocks() lists them, and the
    order of positions as blocks().orders gives it, for a cycle the same
    _cycle_walk of its names' cyclic order."""
    verts = tuple(sorted(names))
    if kind.is_complete:
        return verts, kind, verts, tuple(combinations(verts, 2))
    walk = _cycle_walk(names)
    edges = sorted((u, v) if u < v else (v, u) for u, v in zip(walk, walk[1:] + walk[:1]))
    return verts, kind, walk, tuple(edges)


def _assemble(parts: Sequence[tuple], g: Optional[Multigraph] = None) -> tuple:
    """The canonical bad instance and its certificate, on ``g`` or else on
    the union of ``parts``: (vertices, kind, order, edges) per K_n^t or C_n^t
    block, as _part gives them. In blocks() order each block takes the next
    color range, its colors taking _plan(kind).cells in order, and its
    vertices share one label view; each _position_rule outcome in a block
    gives one frozenset of pairs, shared by its edges. Built through the
    trusted constructors, neither validated nor decomposed yet."""
    lists: dict[str, frozenset[int]] = {}
    matching: dict[tuple[str, str], frozenset[tuple[int, int]]] = {}
    certs = []
    offset = 0
    for _, kind, ordered, edges in sorted(parts, key=lambda p: p[0]):
        plan = _plan(kind)
        colors = range(offset + 1, offset + len(plan.cells) + 1)
        offset += len(plan.cells)
        label_of, color_of = MappingProxyType(dict(zip(colors, plan.cells))), dict(zip(plan.cells, colors))
        own = frozenset(colors)
        for u in ordered:
            lists[u] = lists[u] | own if u in lists else own
        positions = dict(zip(ordered, plan.positions))
        shared: dict[tuple[bool, bool], frozenset[tuple[int, int]]] = {}
        for u, v in edges:
            rule = _position_rule(plan.pattern, plan.n, positions[u], positions[v])
            if rule not in shared:
                shared[rule] = frozenset((color_of[a], color_of[b]) for a, b in _label_pairs(kind, *rule))
            matching[(u, v)] = shared[rule]
        certs.append(BlockCertificate._wrap(kind, positions, dict.fromkeys(ordered, label_of)))
    if g is None:
        mult = {e: k.t for _, k, _, es in parts for e in es}
        g = Multigraph._from_parts(tuple(sorted(lists)), {e: mult[e] for e in sorted(mult)})
    inst = DPInstance._from_parts(g, {u: lists[u] for u in g.vertices}, {e: matching[e] for e in g.mult})
    return inst, ObstructionCertificate(tuple(certs))


def bad_assignment(g: Multigraph) -> tuple[DPInstance, ObstructionCertificate]:
    """Canonical non-colorable instance on a graph whose blocks are all
    uniform complete or cycle powers.

    Every block gets its own disjoint color range (a per-block stride), which
    realizes the required list partition syntactically; the matchings wire
    each block's cover to its pattern.
    """
    dec = blocks(g)
    if any(k.shape == OTHER for k in dec.kinds):
        raise ValueError("bad_assignment needs every block to be K_n^t or C_n^t")
    return _assemble(list(zip(dec.blocks, dec.kinds, dec.orders, dec.edges)), g)


def bad_instance_knt(n: int, t: int) -> tuple[DPInstance, ObstructionCertificate]:
    """K_n^t with t(n-1)-lists whose cover is exactly the complete-block
    pattern; ships its own certificate."""
    BadBlockSpec(KNT, n, t)  # refuses n < 2 or t < 1
    return _assemble([_part(BlockKind(KNT, n, t), _block_vertex_names(n))])


def bad_instance_cnt(n: int, t: int) -> tuple[DPInstance, ObstructionCertificate]:
    """C_n^t with 2t-lists whose cover is the t-fat ladder (n odd) or t-fat
    Moebius ladder (n even); ships its own certificate."""
    if n == 3:
        raise ValueError("C_3^t is K_3^t; use bad_instance_knt(3, t)")
    BadBlockSpec(CNT, n, t)  # refuses n < 4 or t < 1
    return _assemble([_part(BlockKind(CNT, n, t), _block_vertex_names(n))])


@dataclass(frozen=True)
class BadBlockSpec:
    """One block of a glued non-colorable instance.

    ``attach`` is None for the root block, else (earlier block index,
    1-based vertex position in that block) naming the shared cut vertex.
    """

    kind: str  # KNT or CNT
    n: int
    t: int
    attach: Optional[tuple[int, int]] = None

    def __post_init__(self) -> None:
        if self.kind not in (KNT, CNT):
            raise ValueError(f"kind must be {KNT!r} or {CNT!r}")
        if self.kind == KNT and (self.n < 2 or self.t < 1):
            raise ValueError(f"Knt needs n >= 2, t >= 1, got n={self.n}, t={self.t}")
        if self.kind == CNT and (self.n < 4 or self.t < 1):
            raise ValueError(
                f"Cnt needs n >= 4, t >= 1 (triangles are Knt), got n={self.n}, t={self.t}"
            )


def glue_bad(specs: Sequence[BadBlockSpec]) -> tuple[DPInstance, ObstructionCertificate]:
    """Glue block specs along a tree of cut vertices into one non-colorable
    instance; cut vertices get the disjoint union of the per-block lists."""
    if not specs:
        raise EmptyGraph("glue_bad needs at least one block spec")
    if specs[0].attach is not None:
        raise ValueError("the first block spec must not attach to anything")
    block_vertices: list[list[str]] = []
    parts = []
    for i, spec in enumerate(specs):
        names = [f"b{i}v{j}" for j in range(1, spec.n + 1)]
        if i > 0:
            if spec.attach is None:
                raise ValueError(f"block {i} must attach to an earlier block")
            parent, pos = spec.attach
            if not 0 <= parent < i:
                raise ValueError(f"block {i} attaches to non-earlier block {parent}")
            if not 1 <= pos <= specs[parent].n:
                raise ValueError(f"block {i} attaches at bad position {pos}")
            names[0] = block_vertices[parent][pos - 1]
        block_vertices.append(names)
        # Only names[0] is shared, so each spec is one block of the glued graph.
        parts.append(_part(BlockKind(spec.kind, spec.n, spec.t), names))
    return _assemble(parts)


def random_matching(
    g: Multigraph,
    lists: dict[str, frozenset[int]] | dict[str, set[int]],
    seed: int,
    density: float,
) -> dict[tuple[str, str], frozenset[tuple[int, int]]]:
    """Seeded random matching assignment.

    Per pair uv, the union of ceil(density * mu) random partial matchings,
    each a zip of equal-length random samples of the two lists (random size),
    so the bipartite-degree capacity bound always holds. Deterministic per
    seed.
    """
    if not 0.0 <= density <= 1.0:
        raise ValueError(f"density must be in [0, 1], got {density}")
    rng = random.Random(seed)
    ordered = {u: sorted(lists[u]) for u in g.vertices if g.degree(u)}  # each list sorted once
    out: dict[tuple[str, str], frozenset[tuple[int, int]]] = {}
    for u, v in g.pairs():
        lu, lv = ordered[u], ordered[v]
        rounds = math.ceil(density * g.multiplicity(u, v))
        prs: set[tuple[int, int]] = set()
        for _ in range(rounds):
            size = rng.randint(0, min(len(lu), len(lv)))
            prs.update(zip(rng.sample(lu, size), rng.sample(lv, size)))
        out[(u, v)] = frozenset(prs)
    return out
