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
from itertools import chain, combinations, product
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
from .multigraph import CNT, KNT, OTHER, BlockKind, Multigraph, blocks

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
    cells (j, 1..t) from index (j - 1) t), the positions 1..n, the
    pattern's pair count on an edge whose positions join the same classes
    (|grid| t) and on one whose positions cross them (|grid| (|grid| - t)),
    whether the block is a cycle, and whether its grid is one class (K_2^t)."""

    pattern: str
    n: int
    grid: frozenset[tuple[int, int]]
    cells: tuple[tuple[int, int], ...]
    positions: range
    same_pairs: int
    cross_pairs: int
    cycle: bool
    one_class: bool


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
        size * t, size * (size - t), shape == CNT, len(classes) == 1,
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
        positions = dict(self.positions)
        self.__dict__.update(self._wrap(self.kind, positions, labels, tuple(sorted(positions))).__dict__)

    @classmethod
    def _wrap(
        cls, kind: BlockKind, positions: dict[str, int], labels: dict[str, Mapping[int, tuple[int, int]]],
        vertex_set: tuple[str, ...],
    ) -> BlockCertificate:
        """A certificate on dicts its caller built and hands over, wrapped in read-only views, not
        copied; the label maps come as views already, one per distinct map: vertices may share one.
        ``vertex_set`` is the block's sorted vertices, the keys of ``positions``."""
        bc = object.__new__(cls)
        bc.__dict__.update(
            kind=kind,
            positions=MappingProxyType(positions),
            labels=MappingProxyType(labels),
            vertex_set=vertex_set,
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
    """Check one block certificate against a valid instance; None when it
    holds, else _block_fault's failure as a message, which names a failing
    edge by the least label pair in the set difference of its pairs and the
    pattern's, unexpected first.

    Precondition: ``bc.kind`` and ``edges`` are the block's kind and edges
    in blocks().
    """
    fault = _block_fault(inst, bc, edges)
    if type(fault) is not tuple:
        return fault
    u, v = fault
    lu, lv = bc.labels[u], bc.labels[v]
    have = {(lu[a], lv[b]) for a, b in inst.matching[(u, v)] if a in lu and b in lv}
    want = pattern_between(bc.kind, bc.positions[u], bc.positions[v])
    extra = have - want
    verb, (x, y) = ("unexpected", min(extra)) if extra else ("missing", min(want - have))
    cu = next(c for c, lab in lu.items() if lab == x)
    cv = next(c for c, lab in lv.items() if lab == y)
    return f"block {bc.vertex_set}: {verb} cover edge between ({u!r},{cu}) and ({v!r},{cv})"


def _block_fault(
    inst: DPInstance, bc: BlockCertificate, edges: tuple[tuple[str, str], ...]
) -> str | tuple[str, str] | None:
    """The full check of one block certificate: None when it holds, a
    message when its positions or labels are wrong, else the first of
    ``edges`` whose matched pairs between the two parts are not the
    pattern's.

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
    verts, positions, labels, lists = bc.vertex_set, bc.positions, bc.labels, inst.lists
    n = plan.n
    # n positions that take every value in 1..n are a bijection onto it
    if len(verts) != n or not set(positions.values()).issuperset(plan.positions):
        return f"positions of block {verts} are not a bijection onto 1..{n}"
    if labels.keys() != positions.keys():
        return f"labels of block {verts} do not cover its vertices"
    grid = plan.grid
    held = None  # the last map found to biject: a run of vertices sharing it is not tested again
    for u in verts:
        lab = labels[u]
        if not lab.keys() <= lists[u]:
            return f"block {verts}: labeled colors at {u!r} outside L({u!r})"
        if lab is not held and (len(lab) != len(grid) or set(lab.values()) != grid):
            return f"block {verts}: labels at {u!r} are not a bijection onto the index grid"
        held = lab
    if n == 1:
        return None
    if plan.cycle:
        mult = inst.graph.mult
        at = dict(zip(positions.values(), positions))
        for i in range(1, n + 1):
            u, v = at[i], at[i % n + 1]
            if ((u, v) if u < v else (v, u)) not in mult:
                return (
                    f"block {verts}: positions {i} and {i % n + 1} go to "
                    f"{u!r} and {v!r}, which share no edge"
                )
    return _edge_failure(inst, plan, positions, labels, edges)


def _edge_failure(
    inst: DPInstance,
    plan: _Plan,
    positions: Mapping[str, int],
    labels: Mapping[str, Mapping[int, tuple[int, int]]],
    edges: tuple[tuple[str, str], ...],
) -> Optional[tuple[str, str]]:
    """First of ``edges`` whose matched pairs between the two parts differ
    from the pattern's, or None. The labels must biject onto the grid, and
    their keys at each vertex u must lie in L(u): _block_fault checks that,
    and the walk's derivation labels leftover colors alone.

    The pairs are counted, not collected. With bijective labels and
    distinct matched pairs, the pairs inside the parts map one-to-one onto
    label pairs; if each obeys the positions' (same, cross) rule, they are
    a subset of the pattern's, and if there are as many as the pattern has
    (the plan's count when same or when cross), the two sets are equal.
    Where both parts are whole lists, every matched pair of a valid
    instance lies inside them, so the edge's pair count is compared at once
    and its pairs take no membership test. With one class the pattern
    joins every pair of the two parts, so the edge holds exactly when its
    pairs hold their product.
    """
    matching = inst.matching
    if plan.one_class:
        for u, v in edges:
            if not matching[(u, v)].issuperset(product(labels[u], labels[v])):
                return u, v
        return None
    pattern, n, lists = plan.pattern, plan.n, inst.lists
    rules: dict[int, tuple[bool, bool]] = {}  # a pattern joins two positions by how far apart they are
    for edge in edges:
        u, v = edge
        lu, lv = labels[u], labels[v]
        step = positions[u] - positions[v]
        if step not in rules:
            rules[step] = _position_rule(pattern, n, positions[u], positions[v])
        same, cross = rules[step]
        pairs = matching[edge]
        want = plan.same_pairs if same else plan.cross_pairs if cross else 0
        whole = len(lu) == len(lists[u]) and len(lv) == len(lists[v])
        if whole and len(pairs) != want:
            return u, v
        for a, b in pairs:
            if whole or (a in lu and b in lv):
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
    return _certificate_failure(inst, cert, False)


def _certificate_failure(inst: DPInstance, cert: ObstructionCertificate, walked: bool) -> Optional[str]:
    """certificate_failure on a valid instance: the list sizes, the block
    set, and per block its kind and its full check, then the parts at each
    cut vertex. With ``walked``, ``cert`` is the leaves-first walk's own:
    the walk ran only because every list has degree size, and its complete
    blocks with n >= 3 had their full check as they derived, so the list
    sizes are not read again and only those blocks' kinds are checked."""
    g, lists = inst.graph, inst.lists
    dec = blocks(g)
    degree = g._degrees
    for u in () if walked else g.vertices:
        if len(lists[u]) != degree[u]:
            return f"|L({u!r})| = {len(lists[u])} != degree {degree[u]}"
    at = range(len(dec.blocks))  # the walk, the generators and the wire keep blocks() order
    of_block = cert.blocks  # of_block[i]: the certificate of block i
    found = tuple(bc.vertex_set for bc in of_block)
    if found != dec.blocks:
        if sorted(found) != list(dec.blocks):  # blocks() sorts them
            return "certificate blocks do not match the graph's blocks"
        index = {B: i for i, B in enumerate(dec.blocks)}
        at = [index[B] for B in found]
        of_block = [bc for _, bc in sorted(zip(at, cert.blocks))]
    for i, bc in zip(at, cert.blocks):
        kind = dec.kinds[i]
        # Kinds are interned, so a derived or a read certificate holds the decomposition's own.
        if bc.kind is not kind and bc.kind != kind:
            return f"block {bc.vertex_set}: certificate kind {bc.kind} != actual shape {kind}"
        if walked and kind.n >= 3 and kind.is_complete:
            continue
        fail = _block_failure(inst, bc, dec.edges[i])
        if fail is not None:
            return fail
    # Each part at u now lies in L(u) and has u's degree in its block for size, so the parts at u
    # sum to deg(u) = |L(u)| and partition L(u) unless two overlap, which only a cut vertex can hold.
    parts: dict[str, list[Mapping[int, tuple[int, int]]]] = {}
    for i, u in dec.block_tree:
        parts.setdefault(u, []).append(of_block[i].labels[u])
    for u in dec.cut_vertices:
        if len(set().union(*parts[u])) != len(lists[u]):
            return f"parts at {u!r} overlap"
    return None


def verify_certificate(inst: DPInstance, cert: ObstructionCertificate) -> bool:
    """True iff the certificate proves the instance non-colorable; see
    certificate_failure for the first failing check."""
    return certificate_failure(inst, cert) is None


def _block_certificate(
    inst: DPInstance,
    order: tuple[str, ...],
    kind: BlockKind,
    left: Mapping[str, AbstractSet[int]],
) -> Optional[tuple[dict[str, int], dict[str, Mapping[int, tuple[int, int]]]]]:
    """The positions and labels, as plain dicts, of the certificate of one
    block whose parts lie inside ``left``, what the other blocks leave of
    each vertex's list, or None, always for an Other shape. The block's
    vertices take positions 1..n in ``order``, as blocks().orders gives it.
    The classes at the first two vertices of the order are all the size-t
    exact matched-set groups on their edge inside left, and each later
    vertex's classes are forced by the vertex before it; class j at a vertex
    labels its sorted colors (j, 1..t) in a read-only view, and a map equal
    to the previous vertex's is that same view. That makes the pairs on
    every edge between consecutive vertices of the order the pattern's. Of
    the open edges, a cycle's closing edge (straight or crossed against its
    parity) is replayed here; a complete block's other edges are not, and
    the full check that _leaves_first gives the block as soon as it derives
    reads them. The order names each edge the derivation needs, and starts
    at the block's least vertex."""
    n, t = kind.n, kind.t
    if kind.shape == OTHER:
        return None
    if n == 1:
        u = order[0]
        return {u: 1}, {u: MappingProxyType({})}
    plan = _plan(kind)
    positions = dict(zip(order, plan.positions))
    a, b = order[0], order[1]
    left_a, left_b = left[a], left[b]
    # One pass over the first edge's pairs inside left gives each color at a
    # its partners at b; a class is t colors with the same t partners. Pairs
    # outside left lose nothing: a valid cover gives at most t colors the
    # same t partners, so a group with a color outside left is short.
    partners: dict[int, list[int]] = {}
    for c, x in inst.matching[(a, b)]:
        if c in left_a and x in left_b:
            partners.setdefault(c, []).append(x)
    groups: dict[tuple[int, ...], list[int]] = {}
    for c, nb in sorted(partners.items()):
        if len(nb) == t:
            groups.setdefault(tuple(sorted(nb)), []).append(c)
    classes = sorted((cs, nb) for nb, cs in groups.items() if len(cs) == t)
    if len(classes) != (2 if plan.cycle else n - 1):
        return None
    # The k-th color of class j takes the plan's cell (j, k): one set of label tuples per block kind.
    cells = plan.cells
    at_a, at_b = zip(*classes)
    lab_a = dict(zip(chain.from_iterable(at_a), cells))
    lab_b = dict(zip(chain.from_iterable(at_b), cells))
    view = MappingProxyType(lab_a)
    labels = {a: view, b: view if lab_b == lab_a else MappingProxyType(lab_b)}
    if n == 2:
        return positions, labels
    lab_u = lab_b  # the map of the vertex before w, read through the dict and not its view
    for u, w in zip(order[1:], order[2:]):
        # One pass over the edge's pairs: per color at w, the class its
        # partners at u have (0 once one is unlabelled or two disagree) and
        # how many they are. Class j at w is then the colors whose t
        # partners are class j at u; in color order they take k = 1..t.
        # They are at most t: class j at u holds t colors, each with at most
        # mult(u, w) = t partners at w in a valid instance.
        klass, count = {}, {}
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
        if lab_w == lab_u:
            labels[w] = labels[u]
        else:
            lab_u, labels[w] = lab_w, MappingProxyType(lab_w)
    # A cycle's order starts at its least vertex, so its closing edge is (a, order[-1]).
    if plan.cycle and _edge_failure(inst, plan, positions, labels, ((a, order[-1]),)) is not None:
        return None
    return positions, labels


def _stops_at(inst: DPInstance, bc: BlockCertificate, edges: tuple[tuple[str, str], ...]) -> bool:
    """The one full check of a complete block derived from its order alone:
    False when it holds, True when it fails on an edge between positions
    that are not consecutive, which the derivation does not read, while the
    labels and the consecutive edges hold. Any other failure is a fault of
    the derivation and raises."""
    fault = _block_fault(inst, bc, edges)
    if fault is None:
        return False
    if type(fault) is tuple:
        pos = bc.positions
        if abs(pos[fault[0]] - pos[fault[1]]) != 1:
            # The edges before the fault held; of those after it, the consecutive ones must hold too.
            steps = tuple((u, v) for u, v in edges[edges.index(fault) + 1:] if abs(pos[u] - pos[v]) == 1)
            fault = _edge_failure(inst, _plan(bc.kind), pos, bc.labels, steps)
            if fault is None:
                return True
        fault = _block_failure(inst, bc, (fault,))
    raise RuntimeError(f"internal: derived certificate does not verify: {fault}")


def _leaves_first(inst: DPInstance) -> Optional[tuple]:
    """The leaves-first walk of a valid, connected instance, or None unless
    every list has exactly degree size. The parts are forced, so each block
    is derived once, in blocks().leaves_first order: with |L(v)| = deg(v), a
    block's part at each vertex but the cut vertex p it hangs from is what
    the blocks below it leave of L(v); each pattern class is a size-t exact
    matched-set group on a block edge, and a capacity-respecting cover leaves
    no room for another group onto the same class, so the part at p is fixed
    too. Returns (certificate, left, failed): the certificate when every
    block derives, else None and the first (block index, p) that does not;
    left maps each vertex v to L(v) minus the parts derived so far.

    Each block of a returned certificate passes its full check once: a
    complete block with n >= 3 as soon as it derives, where a failure on an
    edge between non-consecutive positions stops the walk at it
    (_stops_at), and every other block at the end, with the checks across
    blocks. Blocks are wrapped into certificates only once all of them
    derive. A derived certificate that fails raises RuntimeError."""
    g, lists = inst.graph, inst.lists
    degree = g._degrees
    if any(len(lists[u]) != degree[u] for u in g.vertices):
        return None
    dec = blocks(g)
    derived: list = [None] * len(dec.blocks)
    left = dict(lists)
    for p in dec.cut_vertices:
        left[p] = set(lists[p])
    for i, p in dec.leaves_first:
        kind = dec.kinds[i]
        parts = _block_certificate(inst, dec.orders[i], kind, left)
        if parts is None or (kind.n >= 3 and kind.is_complete and _stops_at(
            inst, BlockCertificate._wrap(kind, *parts, dec.blocks[i]), dec.edges[i]
        )):
            return None, left, (i, p)
        derived[i] = parts
        if p is not None:
            left[p].difference_update(parts[1][p])
    # Wrapped together at the end, in blocks() order: on a large heap the
    # collector then reads the certificates in the order they lie in memory.
    cert = ObstructionCertificate(tuple(
        BlockCertificate._wrap(kind, *parts, B) for B, kind, parts in zip(dec.blocks, dec.kinds, derived)
    ))
    failure = _certificate_failure(inst, cert, True)
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
    greedy: w and the neighbours of x outside the block; or None.

    A color has at most m = mult(x, w) partners in a valid instance, so x
    has a short color exactly when the edge has fewer than m |left[x]| pairs
    inside left. Between whole lists that count is the edge's own, read
    in O(1); elsewhere it takes one pass. Only an end x != p that falls
    short has its colors counted, in one more pass over the edge's pairs."""
    g, lists, matching = inst.graph, inst.lists, inst.matching
    for edge in edges:
        u, v = edge
        left_u, left_v = left[u], left[v]
        pairs = matching[edge]
        if left_u is lists[u] and left_v is lists[v]:
            inside = len(pairs)
        else:
            inside = sum(1 for a, b in pairs if a in left_u and b in left_v)
        m = g.mult[edge]
        if u != p and inside < m * len(left_u):
            x, w, i = u, v, 0
        elif v != p and inside < m * len(left_v):
            x, w, i = v, u, 1
        else:
            continue
        at, left_w = dict.fromkeys(left[x], 0), left[w]
        for pr in pairs:
            if pr[i] in at and pr[1 - i] in left_w:
                at[pr[i]] += 1
        block = {y for e in edges for y in e}
        c = min(c for c, k in at.items() if k < m)
        return x, c, [y for y in g._index[x] if y == w or y not in block]
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
    Cases 1 and 2 cost O(|V| + sum |L| + sum |pairs|); case 2 passes a full
    block edge between whole lists in O(1) and counts leftover partners per
    color only at an end that falls short. Each block of a
    certificate passes its full check once in the walk (a complete block's
    pairs are read once, a cycle's closing edge twice), and a transversal is
    checked with is_valid_transversal, before either is returned.
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
