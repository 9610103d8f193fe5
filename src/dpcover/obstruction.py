"""Obstruction patterns, certificates, and the degree-colorability decision.

A connected multigraph with a degree-list assignment fails to have a cover
coloring exactly when every block is a uniform complete power or cycle power
and the lists split into per-block parts whose induced cover realizes a rigid
pattern: the complete-block pattern for K_n^t blocks, a t-fat ladder for odd
cycle blocks, and a t-fat Moebius ladder for even cycle blocks. A certificate
records the parts and the index maps; verification replays the pattern edge
by edge, no isomorphism search involved.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import chain, combinations
from types import MappingProxyType
from typing import AbstractSet, Mapping, Optional

from .cover import (
    DPInstance,
    Transversal,
    _extend_greedily,
    _pieces,
    is_valid_transversal,
    require_valid,
    restrict,
)
from .errors import MultigraphInput, NotDegreeList
from .multigraph import KNT, OTHER, BlockKind, Multigraph, blocks

# Pattern kinds (also the wire names used by make_pattern callers).
HNT = "Hnt"
FAT_LADDER = "FatLadder"
FAT_MOBIUS = "FatMobius"


@dataclass(frozen=True)
class PatternGraph:
    """A pattern on index triples (i, j, k) with its full edge set."""

    kind: str
    n: int
    t: int
    nodes: tuple[tuple[int, int, int], ...]
    edges: frozenset[tuple[tuple[int, int, int], tuple[int, int, int]]]


def pattern_adjacent(
    kind: str, n: int, p: tuple[int, int, int], q: tuple[int, int, int]
) -> bool:
    """Adjacency rule of a pattern, applied to two index triples: the labels
    at one position form a clique, and _position_rule joins two positions."""
    i1, j1, _ = p
    i2, j2, _ = q
    if i1 == i2:
        return p != q
    same, cross = _position_rule(kind, n, i1, i2)
    return same if j1 == j2 else cross


def make_pattern(kind: str, n: int, t: int) -> PatternGraph:
    """Build a pattern graph: Hnt (n >= 2), FatLadder or FatMobius (n >= 3)."""
    if t < 1:
        raise ValueError(f"t must be >= 1, got {t}")
    if kind not in (HNT, FAT_LADDER, FAT_MOBIUS):
        raise ValueError(f"unknown pattern kind {kind!r}")
    least = 2 if kind == HNT else 3
    if n < least:
        raise ValueError(f"{kind} needs n >= {least}, got {n}")
    # The classes of the block shape whose pattern this is (a 3-cycle only lends its grid).
    cells = _plan(BlockKind.complete(n, t) if kind == HNT else BlockKind.cycle(n, t)).cells
    nodes = tuple((i, j, k) for i in range(1, n + 1) for j, k in cells)
    edges = frozenset((p, q) for p, q in combinations(nodes, 2) if pattern_adjacent(kind, n, p, q))
    return PatternGraph(kind, n, t, nodes, edges)


def block_pattern_kind(kind: BlockKind) -> str:
    """Pattern realized by an obstructed block: complete powers use Hnt,
    odd cycle powers the fat ladder, even cycle powers the fat Moebius ladder."""
    if kind.is_complete:
        return HNT
    if kind.is_cycle:
        return FAT_LADDER if kind.n % 2 == 1 else FAT_MOBIUS
    raise ValueError("no pattern for an Other-shaped block")


def _position_rule(pattern: str, n: int, i1: int, i2: int) -> tuple[bool, bool]:
    """(same, cross): whether ``pattern`` joins (j, k) at position i1 to
    (j', k') at i2 != i1 when j == j', and when j != j'. Hnt joins every two
    positions, the ladders consecutive ones and the wrap {1, n}, which the
    Moebius ladder crosses."""
    if pattern == HNT:
        return True, False
    wrap = (i1 == 1 and i2 == n) or (i1 == n and i2 == 1)
    if pattern == FAT_LADDER:
        return wrap or abs(i1 - i2) == 1, False
    if pattern == FAT_MOBIUS:
        return not wrap and abs(i1 - i2) == 1, wrap
    raise ValueError(f"unknown pattern kind {pattern!r}")


def pattern_between(
    kind: BlockKind, i1: int, i2: int
) -> frozenset[tuple[tuple[int, int], tuple[int, int]]]:
    """Label pairs ((j, k) at position i1, (j', k') at position i2 != i1)
    that the pattern of a K_n^t or C_n^t block joins, by _position_rule."""
    return _label_pairs(kind, *_position_rule(block_pattern_kind(kind), kind.n, i1, i2))


@lru_cache(maxsize=64)
def _label_pairs(kind: BlockKind, same: bool, cross: bool) -> frozenset:
    grid = _plan(kind).grid
    return frozenset((a, b) for a in grid for b in grid if (same if a[0] == b[0] else cross))


@dataclass(frozen=True)
class _Plan:
    """What every K_n^t or C_n^t block of one kind reads, in O(|grid|):
    its pattern, the label grid as a set and in class order (class j's
    cells (j, 1..t) from index (j - 1) t), the positions 1..n, and the
    pattern's pair count on an edge whose positions join the same classes
    (|grid| t) and on one whose positions cross them (|grid| (|grid| - t))."""

    pattern: str
    n: int
    grid: frozenset[tuple[int, int]]
    cells: tuple[tuple[int, int], ...]
    positions: range
    same_pairs: int
    cross_pairs: int


def _plan(kind: BlockKind) -> _Plan:
    return _plan_of(kind.shape, kind.n, kind.t)


@lru_cache(maxsize=128)
def _plan_of(shape: str, n: int, t: int) -> _Plan:
    """_plan's cache, keyed by a tuple of its fields: blocks() makes a fresh
    BlockKind per block, and a dataclass hashes and compares in Python."""
    classes = range(1, n) if shape == KNT else (1, 2)
    cells = tuple((j, k) for j in classes for k in range(1, t + 1))
    size = len(cells)
    return _Plan(
        block_pattern_kind(BlockKind(shape, n, t)), n, frozenset(cells), cells, range(1, n + 1),
        size * t, size * (size - t),
    )


@dataclass(frozen=True)
class BlockCertificate:
    """Index maps realizing the pattern on one block: vertex -> position i,
    and per vertex color -> (j, k) for the colors in that block's part.
    Both maps are read-only."""

    kind: BlockKind
    positions: Mapping[str, int]
    labels: Mapping[str, Mapping[int, tuple[int, int]]]

    vertex_set: tuple[str, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        # copies: the caller keeps its dicts
        labels = {u: MappingProxyType(dict(lab)) for u, lab in self.labels.items()}
        self.__dict__.update(self._wrap(self.kind, dict(self.positions), labels).__dict__)

    @classmethod
    def _wrap(
        cls, kind: BlockKind, positions: dict[str, int], labels: dict[str, Mapping[int, tuple[int, int]]]
    ) -> BlockCertificate:
        """A certificate on dicts its caller built and hands over, wrapped in read-only views, not
        copied; the label maps come as views already, one per distinct map: vertices may share one."""
        bc = object.__new__(cls)
        bc.__dict__.update(
            kind=kind,
            positions=MappingProxyType(positions),
            labels=MappingProxyType(labels),
            vertex_set=tuple(sorted(positions)),
        )
        return bc


@dataclass(frozen=True)
class ObstructionCertificate:
    """Per-block certificates; the parts at each vertex must partition its list."""

    blocks: tuple[BlockCertificate, ...]

    def partition(self) -> dict[str, dict[int, AbstractSet[int]]]:
        """vertex -> block index -> the part of L(vertex) owned by that block,
        as a read-only view of the colors that block labels there."""
        out: dict[str, dict[int, AbstractSet[int]]] = {}
        for i, bc in enumerate(self.blocks):
            for u, lab in bc.labels.items():
                out.setdefault(u, {})[i] = lab.keys()
        return out


@dataclass(frozen=True)
class Decision:
    """Either a transversal or a verified obstruction certificate."""

    transversal: Optional[Transversal]
    certificate: Optional[ObstructionCertificate]

    @property
    def colorable(self) -> bool:
        return self.transversal is not None

    @property
    def obstructed(self) -> bool:
        return self.certificate is not None


def _block_failure(
    inst: DPInstance, bc: BlockCertificate, edges: tuple[tuple[str, str], ...]
) -> Optional[str]:
    """Check one block certificate against a valid instance; None when it holds.

    Precondition: ``bc.kind`` and ``edges`` are the block's kind and edges
    in blocks().
    Validation leaves no pairs on non-edges, so the replay runs edge by edge:
    the positions of a cycle block must follow its edges (then every pair of
    pattern-adjacent positions sits on a graph edge; a complete block has
    every pair as an edge), and on each block edge the matched pairs between
    the two parts must be exactly the pattern's.
    """
    kind = bc.kind
    if kind.shape == OTHER:
        return "block certificate with Other shape"
    plan = _plan(kind)
    verts = bc.vertex_set
    n = kind.n
    # n positions that take every value in 1..n are a bijection onto it
    if len(verts) != n or not set(bc.positions.values()).issuperset(plan.positions):
        return f"positions of block {verts} are not a bijection onto 1..{n}"
    if bc.labels.keys() != bc.positions.keys():
        return f"labels of block {verts} do not cover its vertices"
    grid = plan.grid
    for u in verts:
        lab = bc.labels[u]
        if not lab.keys() <= inst.lists[u]:
            return f"block {verts}: labeled colors at {u!r} outside L({u!r})"
        if len(lab) != len(grid) or set(lab.values()) != grid:
            return f"block {verts}: labels at {u!r} are not a bijection onto the index grid"
    if n == 1:
        return None
    if kind.is_cycle:
        mult = inst.graph.mult
        at = {i: u for u, i in bc.positions.items()}
        for i in range(1, n + 1):
            u, v = at[i], at[i % n + 1]
            if ((u, v) if u < v else (v, u)) not in mult:
                return (
                    f"block {verts}: positions {i} and {i % n + 1} go to "
                    f"{u!r} and {v!r}, which share no edge"
                )
    failed = _edge_failure(inst, plan, bc.positions, bc.labels, edges)
    if failed is None:
        return None
    u, v = failed  # name the least label pair in the set difference, unexpected first
    lu, lv = bc.labels[u], bc.labels[v]
    have = {(lu[a], lv[b]) for a, b in inst.matching[(u, v)] if a in lu and b in lv}
    want = pattern_between(kind, bc.positions[u], bc.positions[v])
    extra = have - want
    verb, (x, y) = ("unexpected", min(extra)) if extra else ("missing", min(want - have))
    cu = next(c for c, lab in lu.items() if lab == x)
    cv = next(c for c, lab in lv.items() if lab == y)
    return f"block {verts}: {verb} cover edge between ({u!r},{cu}) and ({v!r},{cv})"


def _edge_failure(
    inst: DPInstance,
    plan: _Plan,
    positions: Mapping[str, int],
    labels: Mapping[str, Mapping[int, tuple[int, int]]],
    edges: tuple[tuple[str, str], ...],
) -> Optional[tuple[str, str]]:
    """First of ``edges`` whose matched pairs between the two parts differ
    from the pattern's, or None; the labels must biject onto the grid.

    The pairs are counted, not collected. With bijective labels and distinct
    matched pairs, the pairs inside the parts map one-to-one onto label
    pairs; if each obeys the positions' (same, cross) rule, they are a subset
    of the pattern's, and if there are as many as the pattern has (the
    plan's count when same or when cross), the two sets are equal.
    """
    pattern, n = plan.pattern, plan.n
    for u, v in edges:
        lu, lv = labels[u], labels[v]
        same, cross = _position_rule(pattern, n, positions[u], positions[v])
        want = plan.same_pairs if same else plan.cross_pairs if cross else 0
        for a, b in inst.matching[(u, v)]:
            if a in lu and b in lv:
                if not (same if lu[a][0] == lv[b][0] else cross):
                    return u, v
                want -= 1
        if want:
            return u, v
    return None


def certificate_failure(
    inst: DPInstance, cert: ObstructionCertificate
) -> Optional[str]:
    """First failure of a certificate against the instance, or None if it holds."""
    require_valid(inst)
    g, lists = inst.graph, inst.lists
    dec = blocks(g)
    degree = g._degrees
    for u in g.vertices:
        if len(lists[u]) != degree[u]:
            return f"|L({u!r})| = {len(lists[u])} != degree {degree[u]}"
    if sorted(bc.vertex_set for bc in cert.blocks) != list(dec.blocks):  # blocks() sorts them
        return "certificate blocks do not match the graph's blocks"
    index = {B: i for i, B in enumerate(dec.blocks)}
    for bc in cert.blocks:
        i = index[bc.vertex_set]
        # A derived certificate holds the decomposition's own kind: no dataclass __eq__ then.
        if bc.kind is not dec.kinds[i] and bc.kind != dec.kinds[i]:
            return (
                f"block {bc.vertex_set}: certificate kind {bc.kind} "
                f"!= actual shape {dec.kinds[i]}"
            )
        fail = _block_failure(inst, bc, dec.edges[i])
        if fail is not None:
            return fail
    union: dict[str, AbstractSet[int]] = {}  # per vertex, the union of its parts
    count: dict[str, int] = {}  # and the sum of their sizes, in one pass
    for bc in cert.blocks:
        for u, lab in bc.labels.items():
            union[u] = union[u] | lab.keys() if u in union else lab.keys()
            count[u] = count.get(u, 0) + len(lab)
    for u in sorted(union):
        # No overlap means a partition: each part lies in L(u), and their sizes sum to deg(u) = |L(u)|.
        if count[u] != len(union[u]):
            return f"parts at {u!r} overlap"
    return None


def verify_certificate(inst: DPInstance, cert: ObstructionCertificate) -> bool:
    """True iff the certificate proves the instance non-colorable; see
    certificate_failure for the first failing check."""
    return certificate_failure(inst, cert) is None


def _partner_groups(inst: DPInstance, a: str, b: str, t: int) -> dict[tuple[int, ...], list[int]]:
    """The colors of L(a) with exactly t partners in L(b), in color order,
    grouped by those partners as a sorted tuple: _partners reads the edge's
    pairs alone (a pass over all of L(a) would visit every block's part at a
    cut vertex), and a color with another number of partners is in no class."""
    groups: dict[tuple[int, ...], list[int]] = {}
    for c, nb in sorted(inst._partners(a, b).items()):
        if len(nb) == t:
            groups.setdefault(tuple(sorted(nb)), []).append(c)
    return groups


def _block_certificate(
    inst: DPInstance,
    order: tuple[str, ...],
    kind: BlockKind,
    edges: tuple[tuple[str, str], ...],
    left: Mapping[str, AbstractSet[int]],
) -> Optional[tuple[dict[str, int], dict[str, dict[int, tuple[int, int]]]]]:
    """The positions and labels, as plain dicts, of the certificate of one
    block whose parts lie inside ``left``, what the other blocks leave of
    each vertex's list, or None, always for an Other shape. The block's
    vertices take positions 1..n in ``order``, as blocks().orders gives it.
    The classes at the first two vertices of the order are all the size-t
    exact matched-set groups on their edge inside left, and each later
    vertex's classes are forced by the vertex before it; class j at a vertex
    labels its sorted colors (j, 1..t). That makes the pairs on every edge
    between consecutive vertices of the order the pattern's, so only the
    open edges are replayed: a cycle's closing edge (straight or crossed
    against its parity) and a complete block's other edges."""
    n, t, complete = kind.n, kind.t, kind.is_complete
    if kind.shape == OTHER:
        return None
    if n == 1:
        u = order[0]
        return {u: 1}, {u: {}}
    plan = _plan(kind)
    positions = dict(zip(order, plan.positions))
    a, b = order[0], order[1]
    left_a, left_b = left[a], left[b]
    classes = sorted(
        (cs, nb)
        for nb, cs in _partner_groups(inst, a, b, t).items()
        if len(cs) == t and left_a.issuperset(cs) and left_b.issuperset(nb)
    )
    if len(classes) != (n - 1 if complete else 2):
        return None
    # The k-th color of class j takes the plan's cell (j, k): one set of label tuples per block kind.
    cells = plan.cells
    labels = {
        a: dict(zip(chain.from_iterable(cs for cs, _ in classes), cells)),
        b: dict(zip(chain.from_iterable(nb for _, nb in classes), cells)),
    }
    for u, w in zip(order[1:], order[2:]):
        # One pass over the edge's pairs: per color at w, the class its
        # partners at u have (0 once one is unlabelled or two disagree) and
        # how many they are. Class j at w is then the colors whose t
        # partners are class j at u; in color order they take k = 1..t.
        # They are at most t: class j at u holds t colors, each with at most
        # mult(u, w) = t partners at w in a valid instance.
        lab_u, klass, count = labels[u], {}, {}
        i, o = (0, 1) if w < u else (1, 0)
        for pr in inst.matching[(w, u) if w < u else (u, w)]:
            c, x = pr[i], pr[o]
            j = lab_u[x][0] if x in lab_u else 0
            if c in klass:
                count[c] += 1
                if klass[c] != j:
                    klass[c] = 0
            else:
                klass[c] = j
                count[c] = 1
        lab_w, size = {}, [0] * len(classes)
        for c in sorted(klass):
            j = klass[c] - 1
            if j >= 0 and count[c] == t:
                size[j] += 1
                lab_w[c] = cells[j * t + size[j] - 1]
        if len(lab_w) != len(cells) or not left[w].issuperset(lab_w):  # each class has t colors
            return None
        labels[w] = lab_w
    if n > 2:
        open_edges = tuple((u, v) for u, v in edges if abs(positions[u] - positions[v]) != 1)
        if _edge_failure(inst, plan, positions, labels, open_edges) is not None:
            return None
    return positions, labels


def _leaves_first(inst: DPInstance) -> Optional[tuple]:
    """The leaves-first walk of a valid, connected instance, or None unless
    every list has exactly degree size. The parts are forced, so each block
    is derived once, in blocks().leaves_first order: with |L(v)| = deg(v), a
    block's part at each vertex but the cut vertex p it hangs from is what
    the blocks below it leave of L(v); each pattern class is a size-t exact
    matched-set group on a block edge, and a capacity-respecting cover leaves
    no room for another group onto the same class, so the part at p is fixed
    too. Returns (certificate, left, failed): the replayed certificate when
    every block derives, else None and the first (block index, p) that does
    not; left maps each vertex v to L(v) minus the parts derived so far.
    Blocks are frozen into certificates only once all of them derive."""
    g, lists = inst.graph, inst.lists
    degree = g._degrees
    if any(len(lists[u]) != degree[u] for u in g.vertices):
        return None
    dec = blocks(g)
    derived: list = [None] * len(dec.blocks)
    left = {**inst.lists, **{p: set(inst.lists[p]) for p in dec.cut_vertices}}
    for i, p in dec.leaves_first:
        parts = _block_certificate(inst, dec.orders[i], dec.kinds[i], dec.edges[i], left)
        if parts is None:
            return None, left, (i, p)
        derived[i] = parts
        if p is not None:
            left[p].difference_update(parts[1][p])
    cert = ObstructionCertificate(tuple(
        BlockCertificate._wrap(kind, pos, dict(zip(labs, map(MappingProxyType, labs.values()))))
        for kind, (pos, labs) in zip(dec.kinds, derived)
    ))
    failure = certificate_failure(inst, cert)
    if failure is not None:
        raise RuntimeError(f"internal: derived certificate does not verify: {failure}")
    return cert, left, None


def find_certificate(inst: DPInstance) -> Optional[ObstructionCertificate]:
    """An obstruction certificate, derived leaves first without search, or
    None when there is none. Rejects fast unless every list has exactly
    degree size, and at the first block that is not K_n^t or C_n^t."""
    require_valid(inst)
    walk = _leaves_first(inst)
    return None if walk is None else walk[0]


def _leftover_pick(
    inst: DPInstance, left: Mapping[str, AbstractSet[int]], edges: tuple, p: Optional[str]
) -> Optional[tuple[str, int, list[str]]]:
    """Case 2 of decide on the failing block with ``edges``, hung from p: a
    vertex x != p of it, the least c in left[x] with fewer than mult(x, w)
    partners in left[w] at a block neighbour w, and the roots for the
    greedy: w and the neighbours of x outside the block; or None."""
    block = {v for edge in edges for v in edge}
    g = inst.graph
    for u, v in edges:
        m = g.mult[(u, v)]
        # Partners inside left, counted at both ends in one pass over the pairs.
        at_u, at_v = dict.fromkeys(left[u], 0), dict.fromkeys(left[v], 0)
        for a, b in inst.matching[(u, v)]:
            if a in at_u and b in at_v:
                at_u[a] += 1
                at_v[b] += 1
        for x, w, at in ((u, v, at_u), (v, u, at_v)):
            if x != p:
                short = [c for c, k in at.items() if k < m]
                if short:
                    return x, min(short), [y for y in g._index[x] if y == w or y not in block]
    return None


def decide(inst: DPInstance) -> Decision:
    """Decide colorability of a connected degree-list instance; an empty or
    disconnected graph raises EmptyGraph or DisconnectedGraph.

    The leaves-first walk of find_certificate runs once per piece; when it
    derives every block, that is the certificate. Otherwise the transversal
    follows the constructive proof, and solve is never called:
    1. some r has slack, |L(r)| > deg(r): greedy in reverse BFS order from r;
    2. else the walk stopped at a block B hung from p. Each vertex of B but
       p has all its other blocks derived, and a derived block's parts keep
       all the pairs of their colors on its edges. So color an x != p of B
       with a c in left[x] (L(x) minus the derived parts) that has fewer
       than mult(x, w) partners in left[w] at some neighbour w in B, and go
       on as in case 1 from w and from x's neighbours outside B, where c has
       no such partner. The blocks hung from a vertex are colored before it,
       from their parts, and as patterns they take all of their parts there;
    3. else restrict at a vertex u of B other than p to a color of left[u]
       whose pieces have no certificate (a derived block's color at u leaves
       it a pattern tree), and treat each piece by cases 1-3.
    Cases 1 and 2 cost O(|V| + sum |L| + sum |pairs|). A certificate is
    replayed and a transversal checked with is_valid_transversal before
    either is returned.
    """
    require_valid(inst)
    g = inst.graph
    blocks(g)  # refuses an empty or disconnected graph; cached for what follows
    walk = _leaves_first(inst)
    degree = g._degrees
    for u in () if walk else g.vertices:  # a walk means every list has degree size
        if len(inst.lists[u]) < degree[u]:
            raise NotDegreeList(f"|L({u!r})| = {len(inst.lists[u])} < degree {degree[u]}; use solve")
    picks: Transversal = {}
    work = [(inst, walk)]
    while work:
        piece, walk = work.pop()
        g = piece.graph
        adj, degree = g._index, g._degrees
        if walk is None:
            roots = [next(u for u in g.vertices if len(piece.lists[u]) > degree[u])]
        elif walk[0] is not None:  # only inst: case 3 pushes no piece with a certificate
            return Decision(None, walk[0])
        else:
            _, left, (i, p) = walk
            found = _leftover_pick(piece, left, blocks(g).edges[i], p)
            if found is None:
                u = next(v for v in blocks(g).blocks[i] if v != p)
                for c in sorted(left[u]):
                    parts = [(part, _leaves_first(part)) for part in _pieces(restrict(piece, u, c))]
                    if all(w is None or w[0] is None for _, w in parts):
                        picks[u] = c
                        work += parts
                        break
                continue
            x, c, roots = found
            picks[x] = c
        # Reverse BFS order: each vertex but a root still has its BFS parent
        # uncolored when its turn comes, and the roots have slack.
        order, seen = list(roots), set(roots)
        for u in order:
            for v in adj[u]:
                if v not in seen:
                    seen.add(v)
                    if v not in picks:
                        order.append(v)
        _extend_greedily(piece, reversed(order), picks)
    if not is_valid_transversal(inst, picks):
        raise RuntimeError("internal: decide built an invalid transversal")
    return Decision(picks, None)


def is_degree_choosable_shape(g: Multigraph) -> bool:
    """False exactly when every block is complete or an odd cycle, i.e. the
    simple connected graph is not degree-choosable: a block realizing the
    Moebius ladder is an even cycle."""
    if not g.is_simple():
        raise MultigraphInput("degree-choosability shape test requires a simple graph")
    return any(k.shape == OTHER or block_pattern_kind(k) == FAT_MOBIUS for k in blocks(g).kinds)
