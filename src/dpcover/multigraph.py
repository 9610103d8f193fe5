"""Loopless multigraphs, block decomposition, and block-shape recognition.

Vertices are opaque strings; parallel edges are stored as a multiplicity per
unordered vertex pair. All orderings are lexicographic so every operation is
deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping

from .errors import DisconnectedGraph, EmptyGraph, MultigraphInput, NotABlock

# BlockKind shape tags (also the wire names used in certificate JSON).
KNT = "Knt"
CNT = "Cnt"
OTHER = "Other"


def vertex_pair(u: str, v: str) -> tuple[str, str]:
    """Canonical unordered pair: lexicographically smaller id first."""
    if u == v:
        raise ValueError(f"loops are not allowed: ({u!r}, {v!r})")
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True)
class Multigraph:
    """Loopless multigraph.

    ``vertices`` is the sorted tuple of vertex ids and ``mult`` is a read-only
    mapping from each canonical pair (u, v) with u < v to its multiplicity
    (>= 1, pairs with multiplicity 0 are absent). Adjacency queries read an
    index built from ``mult`` on first use.
    """

    vertices: tuple[str, ...]
    mult: Mapping[tuple[str, str], int]

    def __post_init__(self) -> None:
        for u in self.vertices:
            if not isinstance(u, str):
                raise ValueError(f"vertex ids must be strings, got {u!r}")
        verts, vset = tuple(sorted(self.vertices)), set(self.vertices)
        if len(vset) != len(verts):
            raise ValueError("duplicate vertex identifiers")
        norm: dict[tuple[str, str], int] = {}
        for (u, v), m in self.mult.items():
            key = vertex_pair(u, v)
            if key[0] not in vset or key[1] not in vset:
                raise ValueError(f"edge {key} references unknown vertex")
            if not isinstance(m, int) or isinstance(m, bool) or m < 1:
                raise ValueError(f"multiplicity of {key} must be a positive int, got {m!r}")
            if key in norm:
                raise ValueError(f"pair {key} given twice")
            norm[key] = m
        object.__setattr__(self, "vertices", verts)
        object.__setattr__(self, "mult", MappingProxyType({k: norm[k] for k in sorted(norm)}))

    @classmethod
    def _from_parts(cls, vertices: tuple[str, ...], mult: dict[tuple[str, str], int]) -> "Multigraph":
        """A graph on parts already normalized, as __post_init__ leaves them:
        sorted distinct string ids, and positive int multiplicities keyed by
        canonical pairs of them in sorted order. The dict is wrapped, not
        copied. The only build path that skips those checks."""
        g = object.__new__(cls)
        g.__dict__.update(vertices=vertices, mult=MappingProxyType(mult))
        return g

    @cached_property
    def _degrees(self) -> dict[str, int]:
        """Multiplicity-weighted degrees, in one pass over ``mult``."""
        deg = dict.fromkeys(self.vertices, 0)
        for (u, v), m in self.mult.items():
            deg[u] += m
            deg[v] += m
        return deg

    @cached_property
    def _index(self) -> dict[str, tuple[str, ...]]:
        """Sorted neighbour tuples. ``mult`` keeps its pairs sorted, so each
        vertex meets its lesser neighbours in order, then its greater ones."""
        adj: dict[str, list[str]] = {u: [] for u in self.vertices}
        for u, v in self.mult:
            adj[u].append(v)
            adj[v].append(u)
        return {u: tuple(ns) for u, ns in adj.items()}

    @cached_property
    def _blocks(self) -> BlockDecomposition:
        """Block decomposition with block shapes; see blocks()."""
        return _decompose(self)

    @classmethod
    def from_pairs(cls, vertices: Iterable[str], pairs: Iterable[tuple[str, str]]) -> "Multigraph":
        """Build from an edge list; repeated pairs accumulate multiplicity."""
        mult: dict[tuple[str, str], int] = {}
        for u, v in pairs:
            key = vertex_pair(u, v)
            mult[key] = mult.get(key, 0) + 1
        return cls(tuple(vertices), mult)

    def degree(self, u: str) -> int:
        return self._degrees.get(u, 0)

    def multiplicity(self, u: str, v: str) -> int:
        if u == v:
            return 0
        return self.mult.get(vertex_pair(u, v), 0)

    def neighbors(self, u: str) -> tuple[str, ...]:
        return self._index.get(u, ())

    def pairs(self) -> tuple[tuple[str, str], ...]:
        return tuple(self.mult)

    def total_multiplicity(self) -> int:
        return sum(self.mult.values())

    def is_simple(self) -> bool:
        return all(m == 1 for m in self.mult.values())

    def induced(self, vertices: Iterable[str]) -> "Multigraph":
        """The subgraph on ``vertices``, read off their adjacency alone."""
        keep, adj, mult = set(vertices), self._index, self.mult
        if not adj.keys() >= keep:
            raise ValueError(f"unknown vertices: {sorted(v for v in keep if v not in adj)}")
        verts = sorted(keep)  # so the edges come out sorted too
        kept = {(u, v): mult[(u, v)] for u in verts for v in adj[u] if u < v and v in keep}
        return Multigraph._from_parts(tuple(verts), kept)

    def without_vertex(self, u: str) -> "Multigraph":
        return self.induced(v for v in self.vertices if v != u)

    def components(self) -> tuple[tuple[str, ...], ...]:
        """Connected components as sorted vertex tuples, sorted lexicographically."""
        adj = self._index
        seen: set[str] = set()
        comps: list[tuple[str, ...]] = []
        for start in self.vertices:
            if start in seen:
                continue
            stack = [start]
            comp = [start]
            seen.add(start)
            while stack:
                for y in adj[stack.pop()]:
                    if y not in seen:
                        seen.add(y)
                        comp.append(y)
                        stack.append(y)
            comps.append(tuple(sorted(comp)))
        return tuple(sorted(comps))

    def is_connected(self) -> bool:
        return len(self.components()) <= 1


@dataclass(frozen=True)
class BlockKind:
    """Shape of a block: Knt = K_n with uniform multiplicity t, Cnt = cycle
    of length n >= 4 with uniform multiplicity t, Other = anything else."""

    shape: str
    n: int = 0
    t: int = 0

    @classmethod
    def complete(cls, n: int, t: int) -> "BlockKind":
        return _block_kind(KNT, n, t)

    @classmethod
    def cycle(cls, n: int, t: int) -> "BlockKind":
        return _block_kind(CNT, n, t)

    @classmethod
    def other(cls) -> "BlockKind":
        return _block_kind(OTHER, 0, 0)

    @property
    def is_complete(self) -> bool:
        return self.shape == KNT

    @property
    def is_cycle(self) -> bool:
        return self.shape == CNT


@lru_cache(maxsize=1024)
def _block_kind(shape: str, n: int, t: int) -> BlockKind:
    """The one BlockKind per (shape, n, t) that blocks(), the generators and
    the certificate reader hand out, so that comparing two kinds is mostly an
    identity test. Bounded, since the reader passes sizes from its input."""
    return BlockKind(shape, n, t)


@dataclass(frozen=True)
class BlockDecomposition:
    """Blocks (as sorted vertex tuples), cut vertices, the block-cut tree
    given as (block index, cut vertex) adjacency pairs, each block's edges
    as sorted canonical pairs, each block's shape as classify_members gives
    it, and the order of its positions in a certificate: for a cycle block
    _cycle_walk's walk of it, else its sorted vertices (``edges[i]``,
    ``kinds[i]`` and ``orders[i]`` belong to ``blocks[i]``).

    ``leaves_first`` lists every block once as (block index, p), in the order
    the DFS closed them: a block comes after every other block at each of its
    vertices but the cut vertex p it hangs from, and the last block closed,
    which hangs from nothing, has None for p."""

    blocks: tuple[tuple[str, ...], ...]
    cut_vertices: tuple[str, ...]
    block_tree: tuple[tuple[int, str], ...]
    edges: tuple[tuple[tuple[str, str], ...], ...]
    kinds: tuple[BlockKind, ...]
    orders: tuple[tuple[str, ...], ...]
    leaves_first: tuple[tuple[int, str | None], ...]


def blocks(g: Multigraph) -> BlockDecomposition:
    """Biconnected components of a connected multigraph, with their shapes.

    Bridges and parallel-edge bundles are two-vertex blocks. Blocks are sorted
    lexicographically by their vertex tuple. Computed once per graph object
    and cached on it, like the adjacency index; an empty or disconnected
    graph raises EmptyGraph or DisconnectedGraph on every call.
    """
    return g._blocks


def _decompose(g: Multigraph) -> BlockDecomposition:
    """The DFS behind blocks(); Multigraph._blocks caches its result."""
    if not g.vertices:
        raise EmptyGraph("block decomposition requires a nonempty graph")

    adj = g._index
    index: dict[str, int] = {}
    low: dict[str, int] = {}
    edge_stack: list[tuple[str, str]] = []
    raw_blocks: list[tuple[tuple[str, ...], tuple[tuple[str, str], ...], str | None, list]] = []

    root = g.vertices[0]
    index[root] = low[root] = 0
    counter = 1
    stack: list[tuple[str, str | None, Iterator[str]]] = [(root, None, iter(adj[root]))]
    while stack:
        u, parent, it = stack[-1]
        v = next(it, None)
        if v is None:
            stack.pop()
            if stack:
                p = stack[-1][0]
                low[p] = min(low[p], low[u])
                if low[u] >= index[p]:
                    comp: list[tuple[str, str]] = []
                    while edge_stack[-1] != (p, u):
                        comp.append(edge_stack.pop())
                    comp.append(edge_stack.pop())
                    if len(comp) == 1:  # a bridge or a parallel bundle: its pair is the block
                        x, y = comp[0]
                        e = (x, y) if x < y else (y, x)
                        raw_blocks.append((e, (e,), p, comp))
                    else:
                        edges = sorted((x, y) if x < y else (y, x) for x, y in comp)
                        raw_blocks.append((tuple(sorted({x for e in edges for x in e})), tuple(edges), p, comp))
            continue
        if v == parent:
            continue
        if v in index:
            if index[v] < index[u]:
                edge_stack.append((u, v))
                low[u] = min(low[u], index[v])
        else:
            edge_stack.append((u, v))
            index[v] = low[v] = counter
            counter += 1
            stack.append((v, u, iter(adj[v])))
    if len(index) < len(g.vertices):
        raise DisconnectedGraph("block decomposition requires a connected graph")
    if not raw_blocks:  # the one-vertex graph is a single block
        raw_blocks.append((g.vertices, (), None, []))

    blocks_sorted, edges_sorted, _, comps = zip(*sorted(raw_blocks))
    # A two-vertex block is one edge: K_2 with that edge's multiplicity.
    kinds = tuple(
        _block_kind(KNT, 2, g.mult[B]) if len(B) == 2 else classify_members(g, B, E)
        for B, E in zip(blocks_sorted, edges_sorted)
    )
    # The DFS pushed a cycle block's edges walking once around it from p: their first ends are that walk.
    orders = tuple(
        _cycle_walk([x for x, _ in reversed(comp)]) if k.is_cycle else B
        for B, k, comp in zip(blocks_sorted, kinds, comps)
    )
    index = {B: i for i, B in enumerate(blocks_sorted)}
    closed = [(index[B], p) for B, _, p, _ in raw_blocks]
    closed[-1] = (closed[-1][0], None)
    # Each block but the last closed hangs from a cut vertex; each cut vertex has one.
    cut = {p for _, p in closed if p is not None}
    cut_sorted = tuple(sorted(cut))
    tree = tuple(
        sorted((i, v) for i, b in enumerate(blocks_sorted) for v in b if v in cut)
    )
    return BlockDecomposition(blocks_sorted, cut_sorted, tree, edges_sorted, kinds, orders, tuple(closed))


def _cycle_walk(walk: list[str]) -> tuple[str, ...]:
    """A walk once around a cycle, rotated to start at its least vertex and
    turned toward that vertex's lesser neighbour: the one canonical order
    of a cycle block's positions."""
    at = walk.index(min(walk))
    walk = walk[at:] + walk[:at]
    if walk[-1] < walk[1]:
        walk[1:] = walk[:0:-1]
    return tuple(walk)


def classify_members(
    g: Multigraph, verts: tuple[str, ...], present: tuple[tuple[str, str], ...]
) -> BlockKind:
    """Classify a block of ``g`` from its vertices and its edges ``present``
    (as listed by blocks()).

    Triangles canonicalize to Knt(3, t), never Cnt(3, t).
    """
    n = len(verts)
    if n == 1:
        # Degenerate single-vertex block (only the one-vertex graph has one).
        return BlockKind.complete(1, 1)
    mults = {g.mult[p] for p in present}
    if len(mults) != 1:
        return BlockKind.other()
    t = mults.pop()
    if len(present) == n * (n - 1) // 2:
        return BlockKind.complete(n, t)
    # A 2-connected graph with as many edges as vertices is a cycle.
    if n >= 4 and len(present) == n:
        return BlockKind.cycle(n, t)
    return BlockKind.other()


def classify_block(g: Multigraph, block: Iterable[str]) -> BlockKind:
    """Classify one block of ``g``; raises NotABlock if the subset isn't one."""
    key = tuple(sorted(block))
    dec = blocks(g)
    if key not in dec.blocks:
        raise NotABlock(f"{key} is not a block of the graph")
    return dec.kinds[dec.blocks.index(key)]


def edge_power(g: Multigraph, t: int) -> Multigraph:
    """Replace each edge with t parallel copies (multiplies multiplicities)."""
    if t < 1:
        raise ValueError(f"t must be >= 1, got {t}")
    return Multigraph(g.vertices, {p: m * t for p, m in g.mult.items()})


def product_vertex(u: str, v: str) -> str:
    """Vertex id used by cartesian_product for the factor pair (u, v)."""
    return f"({u},{v})"


def cartesian_product(g1: Multigraph, g2: Multigraph) -> Multigraph:
    """Cartesian product of two simple graphs.

    (u1, u2) ~ (v1, v2) iff u1 == v1 and u2v2 is an edge, or u2 == v2 and
    u1v1 is an edge. Product vertices are named by :func:`product_vertex`.
    """
    for g in (g1, g2):
        if not g.is_simple():
            raise MultigraphInput("cartesian_product requires simple graphs")
    verts = [product_vertex(u, v) for u in g1.vertices for v in g2.vertices]
    pairs = [(product_vertex(u, a), product_vertex(u, b)) for u in g1.vertices for a, b in g2.pairs()]
    pairs += [(product_vertex(a, v), product_vertex(b, v)) for a, b in g1.pairs() for v in g2.vertices]
    return Multigraph.from_pairs(verts, pairs)
