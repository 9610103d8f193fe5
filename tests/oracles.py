"""Independent brute-force oracles the tests check the library against.

Everything here is deliberately naive: full enumeration, no pruning, no reuse
of the code paths under test.
"""

from __future__ import annotations

import math
import random
from itertools import combinations, product
from typing import Optional

from dpcover import (
    BlockCertificate,
    ColorNotInList,
    DPInstance,
    Multigraph,
    ObstructionCertificate,
    SignedGraph,
    VertexNotFound,
    block_pattern_kind,
    blocks,
    certificate_failure,
    is_valid_transversal,
)
from dpcover.cover import _pieces, restrict
from dpcover.gen import complete_graph, cycle_graph
from dpcover.multigraph import KNT, OTHER, edge_power
from dpcover.obstruction import _leaves_first, _position_rule, pattern_between
from dpcover.solver import _search


def solve_checked(inst: DPInstance):
    """The exhaustive search behind solve(), without its theorem step, so it
    never consults find_certificate, plus the soundness re-validation of any
    returned transversal."""
    res = _search(inst)
    if res.colorable:
        assert is_valid_transversal(inst, res.transversal), res.transversal
    return res


def naive_colorable(inst: DPInstance):
    """Enumerate every transversal and test independence directly."""
    verts = list(inst.graph.vertices)
    domains = [sorted(inst.lists[u]) for u in verts]
    for picks in product(*domains):
        assignment = dict(zip(verts, picks))
        if is_valid_transversal(inst, assignment):
            return assignment
    return None


def transversal_space(inst: DPInstance) -> int:
    size = 1
    for u in inst.graph.vertices:
        size *= len(inst.lists[u])
    return size


def proper_coloring_exists(g: Multigraph, lists: dict[str, set[int]]) -> bool:
    """Classic list coloring by brute force: adjacent vertices differ."""
    verts = list(g.vertices)
    for picks in product(*[sorted(lists[u]) for u in verts]):
        assignment = dict(zip(verts, picks))
        if all(assignment[u] != assignment[v] for u, v in g.pairs()):
            return True
    return False


def articulation_vertices(g: Multigraph) -> set[str]:
    """Cut vertices by deletion: removing one increases the component count."""
    base = len(g.components())
    out = set()
    for v in g.vertices:
        if len(g.vertices) == 1:
            break
        rest = g.without_vertex(v)
        if len(rest.components()) > base:
            out.add(v)
    return out


def balanced_by_switching_search(s: SignedGraph) -> bool:
    """Try every switching subset and look for the all-positive sign."""
    verts = list(s.graph.vertices)
    for r in range(len(verts) + 1):
        for subset in combinations(verts, r):
            flip = set(subset)
            ok = True
            for (u, v), ss in s.signs.items():
                parity = -1 if (u in flip) != (v in flip) else 1
                if any(sgn * parity != 1 for sgn in ss):
                    ok = False
                    break
            if ok:
                return True
    return False


def cycle_sign_products_positive(s: SignedGraph) -> bool:
    """Every cycle (including 2-cycles from parallel edges) has product +1."""
    for ss in s.signs.values():
        if len(set(ss)) > 1:
            return False
    g = s.graph
    verts = list(g.vertices)
    # enumerate simple cycles by brute force over vertex sequences (n <= 5)
    for r in range(3, len(verts) + 1):
        for seq in product(verts, repeat=r):
            if len(set(seq)) != r or seq[0] != min(seq):
                continue
            edges = list(zip(seq, seq[1:])) + [(seq[-1], seq[0])]
            if any(g.multiplicity(u, v) == 0 for u, v in edges):
                continue
            prod = 1
            for u, v in edges:
                prod *= s.sign_tuple(u, v)[0]
            if prod != 1:
                return False
    return True


def signed_coloring_brute(s: SignedGraph, lists: dict[str, frozenset[int]]):
    """First f with f(u) != sign * f(v) over every parallel edge instance."""
    verts = list(s.graph.vertices)
    for picks in product(*[sorted(lists[u]) for u in verts]):
        f = dict(zip(verts, picks))
        ok = True
        for (u, v), ss in s.signs.items():
            if any(f[u] == sgn * f[v] for sgn in ss):
                ok = False
                break
        if ok:
            return f
    return None


def reference_pattern_adjacent(kind: str, n: int, p, q) -> bool:
    """A frozen copy of the earlier ``pattern_adjacent``, with its own
    consecutive and wrap tests, so the pattern rule the library derives its
    joins from has an independent twin: the Moebius ladder crosses the wrap
    {1, n} and keeps the classes straight between other consecutive positions."""
    if p == q:
        return False
    i1, j1, _ = p
    i2, j2, _ = q
    if i1 == i2:
        return True
    if kind == "Hnt":
        return j1 == j2
    consecutive = i2 == i1 + 1 or i1 == i2 + 1
    wrap = {i1, i2} == {1, n}
    if kind == "FatLadder":
        return j1 == j2 and (consecutive or wrap)
    if kind == "FatMobius":
        if consecutive and not wrap:
            return j1 == j2
        if wrap:
            return j1 != j2
        return False
    raise ValueError(f"unknown pattern kind {kind!r}")


def _reference_induced(g: Multigraph, vertices) -> Multigraph:
    """The earlier ``Multigraph.induced``: every edge filtered by membership."""
    keep = set(vertices)
    unknown = keep - set(g.vertices)
    if unknown:
        raise ValueError(f"unknown vertices: {sorted(unknown)}")
    mult = {p: m for p, m in g.mult.items() if p[0] in keep and p[1] in keep}
    return Multigraph(tuple(sorted(keep)), mult)


def reference_restrict(inst: DPInstance, u: str, c: int) -> DPInstance:
    """A frozen copy of the earlier ``restrict``: it rebuilds the matching
    from every entry, non-edges included, and reads the colors matched to
    (u, c) off the stored pairs itself."""
    if u not in inst.graph.vertices:
        raise VertexNotFound(f"vertex {u!r} not in graph")
    if c not in inst.lists.get(u, frozenset()):
        raise ColorNotInList(f"color {c} not in L({u!r})")
    g2 = _reference_induced(inst.graph, (v for v in inst.graph.vertices if v != u))
    lists2 = {v: inst.lists[v] for v in g2.vertices}
    for v in inst.graph.neighbors(u):
        prs = inst.matching.get((u, v) if u < v else (v, u), ())
        lists2[v] = lists2[v] - {b if u < v else a for a, b in prs if (a if u < v else b) == c}
    matching2 = {}
    for (x, y), prs in inst.matching.items():
        if u in (x, y):
            continue
        matching2[(x, y)] = frozenset(
            (a, b) for a, b in prs if a in lists2[x] and b in lists2[y]
        )
    return DPInstance(g2, lists2, matching2)


def reference_induced_instance(inst: DPInstance, vertices) -> DPInstance:
    """A frozen copy of the earlier ``induced_instance``: it keeps every
    matching entry with both ends kept, non-edges included."""
    keep = set(vertices)
    g2 = _reference_induced(inst.graph, keep)
    lists2 = {v: inst.lists[v] for v in g2.vertices}
    matching2 = {
        p: prs for p, prs in inst.matching.items() if p[0] in keep and p[1] in keep
    }
    return DPInstance(g2, lists2, matching2)


def reference_pieces(inst: DPInstance) -> list:
    """A frozen copy of the earlier ``_pieces``: one pass over the edges
    buckets them and their pairs by component, so pairs off the edges go."""
    comps = inst.graph.components()
    if len(comps) == 1:
        return [inst]
    at = {v: i for i, comp in enumerate(comps) for v in comp}
    mults = [{} for _ in comps]
    matchings = [{} for _ in comps]
    for p, m in inst.graph.mult.items():
        mults[at[p[0]]][p] = m
        matchings[at[p[0]]][p] = inst.matching[p]
    return [
        DPInstance(Multigraph(comp, mult), {v: inst.lists[v] for v in comp}, matching)
        for comp, mult, matching in zip(comps, mults, matchings)
    ]


def reference_cycle_order(verts, edges) -> tuple[str, ...]:
    """A frozen copy of the earlier cycle walk: from the least vertex, each
    next vertex is the least neighbour not among the last two visited."""
    nbrs: dict[str, list[str]] = {u: [] for u in verts}
    for u, v in edges:
        nbrs[u].append(v)
        nbrs[v].append(u)
    order = [min(verts)]
    while len(order) < len(verts):
        order.append(min(x for x in nbrs[order[-1]] if x not in order[-2:]))
    return tuple(order)


def _reference_partner_groups(inst: DPInstance, a: str, b: str) -> dict:
    groups: dict = {}
    for c, nb in sorted(inst._partners(a, b).items()):
        groups.setdefault(frozenset(nb), []).append(c)
    return groups


def _reference_edge_failure(inst: DPInstance, bc: BlockCertificate, edges) -> Optional[tuple[str, str]]:
    kind, positions, labels = bc.kind, bc.positions, bc.labels
    pattern, n, t = block_pattern_kind(kind), kind.n, kind.t
    for u, v in edges:
        lu, lv = labels[u], labels[v]
        same, cross = _position_rule(pattern, n, positions[u], positions[v])
        size = len(lu)
        want = size * t if same else size * (size - t) if cross else 0
        for a, b in inst.matching[(u, v)]:
            if a in lu and b in lv:
                if not (same if lu[a][0] == lv[b][0] else cross):
                    return u, v
                want -= 1
        if want:
            return u, v
    return None


def _reference_labels_of(classes) -> dict[int, tuple[int, int]]:
    return {c: (j, k) for j, cs in enumerate(classes, start=1) for k, c in enumerate(cs, start=1)}


def _reference_block_certificate(inst: DPInstance, verts, kind, edges, left) -> Optional[BlockCertificate]:
    n, t, complete = kind.n, kind.t, kind.is_complete
    if kind.shape == OTHER:
        return None
    if n == 1:
        u = verts[0]
        return BlockCertificate(kind, {u: 1}, {u: {}})
    order = verts if complete else reference_cycle_order(verts, edges)
    at = {v: i for i, v in enumerate(order)}
    open_edges = tuple((u, v) for u, v in edges if abs(at[u] - at[v]) != 1)
    left_a, left_b = left[order[0]], left[order[1]]
    classes_a = sorted(
        (cs, nb)
        for nb, cs in _reference_partner_groups(inst, order[0], order[1]).items()
        if len(cs) == t and len(nb) == t and left_a.issuperset(cs) and left_b.issuperset(nb)
    )
    if len(classes_a) != (n - 1 if complete else 2):
        return None
    classes = [[cs for cs, _ in classes_a], [sorted(nb) for _, nb in classes_a]]
    for prev, w in zip(order[1:], order[2:]):
        groups = _reference_partner_groups(inst, w, prev)
        classes.append([groups.get(frozenset(q), ()) for q in classes[-1]])
        if any(len(members) != t or not left[w].issuperset(members) for members in classes[-1]):
            return None
    labels = {v: _reference_labels_of(cls) for v, cls in zip(order, classes)}
    bc = BlockCertificate(kind, {v: i + 1 for i, v in enumerate(order)}, labels)
    return bc if not open_edges or _reference_edge_failure(inst, bc, open_edges) is None else None


def reference_leaves_first(inst: DPInstance) -> Optional[tuple]:
    """A frozen copy of the earlier leaves-first walk, which built each
    block's class lists, then its label dicts, then a BlockCertificate per
    derived block through the public (copying) constructor. Returns None or
    (certificate or None, left, failing (block index, p) or None)."""
    g, lists = inst.graph, inst.lists
    degree = g._degrees
    if any(len(lists[u]) != degree[u] for u in g.vertices):
        return None
    dec = blocks(g)
    derived: list = [None] * len(dec.blocks)
    left = {**inst.lists, **{p: set(inst.lists[p]) for p in dec.cut_vertices}}
    for i, p in dec.leaves_first:
        bc = _reference_block_certificate(inst, dec.blocks[i], dec.kinds[i], dec.edges[i], left)
        if bc is None:
            return None, left, (i, p)
        derived[i] = bc
        if p is not None:
            left[p].difference_update(bc.labels[p])
    cert = ObstructionCertificate(tuple(derived))
    assert certificate_failure(inst, cert) is None
    return cert, left, None


def reference_extend_greedily(inst: DPInstance, order, picks: dict) -> Optional[str]:
    """A frozen copy of the earlier greedy behind decide's cases 1-2 and
    greedy_color: a set comprehension per vertex over every neighbour's
    pairs, testing the edge's orientation on each pair."""
    for u in order:
        forbidden = {
            b if v < u else a for v in inst.graph.neighbors(u) if v in picks
            for a, b in inst.matching[(v, u) if v < u else (u, v)]
            if (a if v < u else b) == picks[v]
        }
        free = inst.lists[u] - forbidden
        if not free:
            return u
        picks[u] = min(free)
    return None


def reference_leftover_pick(inst: DPInstance, left, edges, p) -> Optional[tuple]:
    """A frozen copy of the earlier case-2 pick: per block edge, a count of
    the pairs inside ``left``, then the least short color from the partner
    sets of the vertex that shows one."""
    block = {v for edge in edges for v in edge}
    g = inst.graph
    for u, v in edges:
        m = g.mult[(u, v)]
        pairs = sum(a in left[u] and b in left[v] for a, b in inst.matching[(u, v)])
        for x, w in ((u, v), (v, u)):
            if x != p and pairs < m * len(left[x]):
                partners = inst._partners(x, w)
                c = min(c for c in left[x] if sum(b in left[w] for b in partners.get(c, ())) < m)
                return x, c, [y for y in g.neighbors(x) if y == w or y not in block]
    return None


def reference_decide_transversal(inst: DPInstance) -> Optional[dict]:
    """decide's transversal by a frozen copy of its earlier colorable branch:
    the reverse BFS order built with two scans of each vertex's neighbours,
    reference_leftover_pick and reference_extend_greedily; case 3 restricts
    as decide does. None when the walk derives a certificate."""
    picks: dict = {}
    work = [(inst, _leaves_first(inst))]
    while work:
        piece, walk = work.pop()
        g = piece.graph
        if walk is None:
            roots = [next(u for u in g.vertices if len(piece.lists[u]) > g.degree(u))]
        elif walk[0] is not None:
            return None
        else:
            _, left, (i, p) = walk
            found = reference_leftover_pick(piece, left, blocks(g).edges[i], p)
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
        order, seen = list(roots), set(roots)
        for u in order:
            order += [v for v in g.neighbors(u) if v not in seen and v not in picks]
            seen.update(g.neighbors(u))
        reference_extend_greedily(piece, reversed(order), picks)
    return picks


def one_k_order_per_class(grid):
    """Label orders of ``grid``, one per way to split positions into
    j-classes; within a class the k labels keep ascending order."""
    classes = sorted({j for j, _ in grid})
    size = len(grid) // len(classes)

    def fill(free, rest):
        if not rest:
            yield {}
            return
        for chosen in combinations(free, size):
            left = [p for p in free if p not in chosen]
            for tail in fill(left, rest[1:]):
                yield {p: (rest[0], k) for k, p in enumerate(chosen, 1)} | tail

    for slots in fill(list(range(len(grid))), classes):
        yield [slots[p] for p in range(len(grid))]


def brute_certificate_exists(inst: DPInstance, labelings=one_k_order_per_class) -> bool:
    """Exhaustive twin of the certificate search: try every choice of block
    parts, positions, and label bijections against the pattern rules.

    Independent of the library's search; blocks come from networkx and the
    candidate space is enumerated outright, up to one symmetry:
    ``pattern_adjacent`` reads the position i and the class j of a label
    (i, j, k) but never k. Two bijections from a vertex's part onto the
    label grid that differ only in the k-order within each j-class therefore
    pass or fail every pattern test together, and give the same part. So
    each j-class is enumerated as a set of colors with one k-order, and the
    parts found are exactly those of the full enumeration over
    ``permutations(grid)`` (``labelings=permutations``).
    """
    import networkx as nx
    from itertools import combinations, permutations

    from dpcover import pattern_adjacent

    g = inst.graph
    if any(len(inst.lists[u]) != g.degree(u) for u in g.vertices):
        return False
    if len(g.vertices) == 1:
        return not inst.lists[g.vertices[0]]

    nxg = nx.Graph(list(g.pairs()))
    block_sets = [tuple(sorted(b)) for b in nx.biconnected_components(nxg)]

    def classify(verts):
        n = len(verts)
        present = [
            (u, v) for u, v in combinations(verts, 2) if g.multiplicity(u, v) > 0
        ]
        mults = {g.multiplicity(u, v) for u, v in present}
        if len(mults) != 1:
            return None
        t = mults.pop()
        if len(present) == n * (n - 1) // 2:
            return ("Hnt", n, t, t * (n - 1))
        if n >= 4 and len(present) == n:
            kind = "FatLadder" if n % 2 == 1 else "FatMobius"
            return (kind, n, t, 2 * t)
        return None

    def block_assignments(verts, kind, n, t, part_size):
        js = range(1, n) if kind == "Hnt" else (1, 2)
        grid = [(j, k) for j in js for k in range(1, t + 1)]
        per_vertex = []
        for u in verts:
            options = []
            for subset in combinations(sorted(inst.lists[u]), part_size):
                for image in labelings(grid):
                    options.append(dict(zip(subset, image)))
            per_vertex.append(options)
        for pos in permutations(range(1, n + 1)):
            position = dict(zip(verts, pos))
            for labels in product(*per_vertex):
                lab = dict(zip(verts, labels))
                ok = True
                for a, u in enumerate(verts):
                    for v in verts[a + 1 :]:
                        prs = inst.pairs_between(u, v)
                        for cu, (ju, ku) in lab[u].items():
                            for cv, (jv, kv) in lab[v].items():
                                want = pattern_adjacent(
                                    kind,
                                    n,
                                    (position[u], ju, ku),
                                    (position[v], jv, kv),
                                )
                                if ((cu, cv) in prs) != want:
                                    ok = False
                                    break
                            if not ok:
                                break
                        if not ok:
                            break
                    if not ok:
                        break
                if ok:
                    yield {u: frozenset(lab[u]) for u in verts}

    per_block = []
    for verts in block_sets:
        shape = classify(verts)
        if shape is None:
            return False
        kind, n, t, part_size = shape
        found = list(block_assignments(verts, kind, n, t, part_size))
        if not found:
            return False
        per_block.append((verts, found))

    def assemble(i, used):
        if i == len(per_block):
            return True
        verts, options = per_block[i]
        for parts in options:
            if any(parts[u] & used.get(u, frozenset()) for u in verts):
                continue
            nxt = dict(used)
            for u in verts:
                nxt[u] = nxt.get(u, frozenset()) | parts[u]
            if assemble(i + 1, nxt):
                return True
        return False

    return assemble(0, {})


def reference_bad_assignment(g: Multigraph) -> tuple[DPInstance, ObstructionCertificate]:
    """A frozen copy of the earlier bad_assignment: blocks() read off the
    graph, one pattern_between call per edge, and the public constructors."""
    dec = blocks(g)
    if any(k.shape == OTHER for k in dec.kinds):
        raise ValueError("bad_assignment needs every block to be K_n^t or C_n^t")
    lists: dict[str, set[int]] = {u: set() for u in g.vertices}
    matching: dict[tuple[str, str], frozenset[tuple[int, int]]] = {}
    block_certs: list[BlockCertificate] = []
    offset = 0
    for B, E, kind in zip(dec.blocks, dec.edges, dec.kinds):
        classes = range(1, kind.n) if kind.is_complete else (1, 2)
        grid = [(j, k) for j in classes for k in range(1, kind.t + 1)]  # in (j, k) order
        label_of = {offset + i: jk for i, jk in enumerate(grid, start=1)}
        offset += len(label_of)
        color_of = {jk: c for c, jk in label_of.items()}
        ordered = B if kind.is_complete else reference_cycle_order(B, E)
        for u in ordered:
            lists[u].update(label_of)
        positions = {v: i + 1 for i, v in enumerate(ordered)}
        for u, v in E:
            matching[(u, v)] = frozenset(
                (color_of[a], color_of[b])
                for a, b in pattern_between(kind, positions[u], positions[v])
            )
        block_certs.append(BlockCertificate(kind, positions, {u: label_of for u in ordered}))
    inst = DPInstance(g, {u: frozenset(cs) for u, cs in lists.items()}, matching)
    return inst, ObstructionCertificate(tuple(block_certs))


def reference_bad_instance(kind: str, n: int, t: int) -> tuple[DPInstance, ObstructionCertificate]:
    """The earlier bad K_n^t or C_n^t: the t-th edge power of the complete
    graph or cycle on u1..un, through reference_bad_assignment."""
    names = [f"u{i}" for i in range(1, n + 1)]
    base = complete_graph(names) if kind == KNT else cycle_graph(names)
    return reference_bad_assignment(edge_power(base, t))


def reference_glue_bad(specs) -> tuple[DPInstance, ObstructionCertificate]:
    """The earlier glue_bad on a valid plan: one graph per spec, read for its
    edge keys, then reference_bad_assignment on the union."""
    block_vertices: list[list[str]] = []
    mult: dict[tuple[str, str], int] = {}
    for i, spec in enumerate(specs):
        names = [f"b{i}v{j}" for j in range(1, spec.n + 1)]
        if i > 0:
            parent, pos = spec.attach
            names[0] = block_vertices[parent][pos - 1]
        block_vertices.append(names)
        block = complete_graph(names) if spec.kind == KNT else cycle_graph(names)
        mult.update(dict.fromkeys(block.mult, spec.t))
    all_names = sorted({v for names in block_vertices for v in names})
    return reference_bad_assignment(Multigraph(tuple(all_names), mult))


def reference_random_matching(g: Multigraph, lists, seed: int, density: float) -> dict:
    """A frozen copy of the earlier random_matching, which sorted both lists
    once per edge."""
    rng = random.Random(seed)
    out: dict[tuple[str, str], frozenset[tuple[int, int]]] = {}
    for u, v in g.pairs():
        lu = sorted(lists[u])
        lv = sorted(lists[v])
        rounds = math.ceil(density * g.multiplicity(u, v))
        prs: set[tuple[int, int]] = set()
        for _ in range(rounds):
            size = rng.randint(0, min(len(lu), len(lv)))
            prs.update(zip(rng.sample(lu, size), rng.sample(lv, size)))
        out[(u, v)] = frozenset(prs)
    return out
