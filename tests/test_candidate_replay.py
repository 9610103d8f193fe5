"""The block derivation reads only the edges between consecutive positions
and a cycle's closing edge; these tests pin that argument and the messages
of the full replay in certificate_failure.

On an edge between consecutive vertices of a block's order, the derivation
matches every color of either part exactly to its class at the other end, so
only a cycle's closing edge and the non-consecutive edges of a complete block
are left open. The derivation replays the closing edge; the walk reads a
complete block's other edges in the block's one full check, as soon as it
derives. So every block of a certificate the walk returns passes the full
per-block replay, whatever colors the blocks below it have taken.

The replay itself counts the pairs on each block edge instead of comparing
sets; it is pinned against a frozen set-based copy on every single-pair change
of generated certificates. The whole replay, whose parts check takes one pass
over the labels, is pinned against a frozen copy on faults at a cut vertex.
"""

import random
from collections import Counter
from itertools import combinations, combinations_with_replacement
from typing import Optional

import pytest

import dpcover.obstruction as obstruction
from dpcover import (
    BadBlockSpec,
    BlockCertificate,
    BlockKind,
    DPInstance,
    Multigraph,
    ObstructionCertificate,
    bad_instance_cnt,
    bad_instance_knt,
    block_pattern_kind,
    blocks,
    certificate_failure,
    decide,
    find_certificate,
    glue_bad,
    make_pattern,
    random_matching,
    validate,
)
from dpcover.multigraph import OTHER
from dpcover.obstruction import _plan, pattern_between
from tests.enumeration import connected_multigraphs_upto_iso
from tests.oracles import reference_decide_transversal, reference_leaves_first
from tests.test_certificate_search import boundary_bases, one_pair_removed, relabeled
from tests.test_wire_reference import k2_chain, random_tree


def reference_block_failure(inst, bc, edges) -> Optional[str]:
    """A frozen copy of the full per-block replay: positions, labels, the
    cycle's order along its edges and the pairs on every block edge."""
    kind = bc.kind
    if kind.shape == OTHER:
        return "block certificate with Other shape"
    verts = bc.vertex_set
    n = kind.n
    if len(verts) != n or set(bc.positions.values()) != set(range(1, n + 1)):
        return f"positions of block {verts} are not a bijection onto 1..{n}"
    if set(bc.labels) != set(verts):
        return f"labels of block {verts} do not cover its vertices"
    grid = _plan(kind).grid
    for u in verts:
        lab = bc.labels[u]
        if not set(lab) <= inst.lists[u]:
            return f"block {verts}: labeled colors at {u!r} outside L({u!r})"
        if len(lab) != len(grid) or set(lab.values()) != grid:
            return f"block {verts}: labels at {u!r} are not a bijection onto the index grid"
    if n == 1:
        return None
    g = inst.graph
    if kind.is_cycle:
        at = {i: u for u, i in bc.positions.items()}
        for i in range(1, n + 1):
            u, v = at[i], at[i % n + 1]
            if g.multiplicity(u, v) == 0:
                return (
                    f"block {verts}: positions {i} and {i % n + 1} go to "
                    f"{u!r} and {v!r}, which share no edge"
                )
    for u, v in edges:
        lu, lv = bc.labels[u], bc.labels[v]
        have = {(lu[a], lv[b]) for a, b in inst.matching[(u, v)] if a in lu and b in lv}
        want = pattern_between(kind, bc.positions[u], bc.positions[v])
        if have != want:
            extra = have - want
            verb, (x, y) = ("unexpected", min(extra)) if extra else ("missing", min(want - have))
            cu = next(c for c, lab in lu.items() if lab == x)
            cv = next(c for c, lab in lv.items() if lab == y)
            return (
                f"block {verts}: {verb} cover edge between "
                f"({u!r},{cu}) and ({v!r},{cv})"
            )
    return None


def reference_certificate_failure(inst, cert) -> Optional[str]:
    """A frozen copy of the full replay: list sizes, block sets, kinds, each
    block by reference_block_failure, then the parts at every vertex."""
    g = inst.graph
    dec = blocks(g)
    for u in g.vertices:
        if len(inst.lists[u]) != g.degree(u):
            return f"|L({u!r})| = {len(inst.lists[u])} != degree {g.degree(u)}"
    if sorted(bc.vertex_set for bc in cert.blocks) != sorted(dec.blocks):
        return "certificate blocks do not match the graph's blocks"
    index = {B: i for i, B in enumerate(dec.blocks)}
    for bc in cert.blocks:
        i = index[bc.vertex_set]
        if bc.kind != dec.kinds[i]:
            return (
                f"block {bc.vertex_set}: certificate kind {bc.kind} "
                f"!= actual shape {dec.kinds[i]}"
            )
        fail = reference_block_failure(inst, bc, dec.edges[i])
        if fail is not None:
            return fail
    for u, parts in sorted(cert.partition().items()):
        union = set().union(*parts.values())
        if sum(map(len, parts.values())) != len(union):
            return f"parts at {u!r} overlap"
        if union != inst.lists[u]:
            return f"parts at {u!r} do not partition L({u!r})"
    return None


CATALOG = [("Knt", n, t) for n in (2, 3, 4, 5) for t in (1, 2)]
CATALOG += [("Cnt", n, t) for n in (4, 5) for t in (1, 2)]
SMALL = [("Knt", 2, 1), ("Knt", 3, 1), ("Knt", 4, 2), ("Cnt", 4, 1), ("Cnt", 5, 2)]


def criterion_4_instances():
    """The generated bad instances at the sizes of the soundness criterion:
    single blocks, every glued pair, and chains and stars of three blocks."""
    for shape, n, t in CATALOG:
        yield (bad_instance_knt if shape == "Knt" else bad_instance_cnt)(n, t)[0]
    for a, b in combinations_with_replacement(CATALOG, 2):
        yield glue_bad([BadBlockSpec(*a), BadBlockSpec(*b, attach=(0, 1))])[0]
    for a, b, c in combinations_with_replacement(SMALL, 3):
        first = BadBlockSpec(*a)
        yield glue_bad([first, BadBlockSpec(*b, attach=(0, 1)), BadBlockSpec(*c, attach=(1, 2))])[0]
        yield glue_bad([first, BadBlockSpec(*b, attach=(0, 1)), BadBlockSpec(*c, attach=(0, 1))])[0]


def certificate_search_instances():
    """The instances of the certificate-search sweep."""
    for base in boundary_bases():
        for seed in range(4):
            variant = relabeled(base, seed) if seed else base
            yield variant
            yield from one_pair_removed(variant)
    rng = random.Random(20_26)
    for g in connected_multigraphs_upto_iso(4, 6):
        lists = {u: frozenset(range(1, g.degree(u) + 1)) for u in g.vertices}
        for _ in range(12):
            yield DPInstance(g, lists, random_matching(g, lists, rng.randrange(2**32), 1.0))


def searched_blocks(inst):
    """(order, kind) per block, for instances the derivation does
    not reject before its per-block step."""
    g = inst.graph
    dec = blocks(g)
    if any(len(inst.lists[u]) != g.degree(u) for u in g.vertices) or any(
        k.shape == OTHER for k in dec.kinds
    ):
        return []
    return list(zip(dec.orders, dec.kinds))


@pytest.fixture
def block_certificates(monkeypatch):
    """(instance, order, kind, edges, certificate) of every block
    certificate that _block_certificate returns, find_certificate's calls
    included; the edges are the block's in blocks(), which names it by its
    order."""
    seen = []

    def spy(inst, order, kind, taken):
        parts = real(inst, order, kind, taken)
        if parts is not None:
            dec = blocks(inst.graph)
            edges = dec.edges[dec.orders.index(order)]
            seen.append((inst, order, kind, edges, BlockCertificate(kind, *parts)))
        return parts

    real = obstruction._block_certificate
    monkeypatch.setattr(obstruction, "_block_certificate", spy)
    return seen


class TestCandidatesPassTheFullReplay:
    @pytest.mark.parametrize(
        "instances", [criterion_4_instances, certificate_search_instances]
    )
    def test_every_candidate(self, instances, block_certificates):
        """Each block derived with every color left, and each block that
        find_certificate derives, has the pattern's pairs on every edge the
        derivation reads: those between consecutive positions and a cycle's
        closing edge. A complete block's other edges are left to the full
        check in the walk, so each block of each certificate that
        find_certificate returns passes the full replay."""
        certified = []
        for inst in instances():
            for order, kind in searched_blocks(inst):
                obstruction._block_certificate(inst, order, kind, inst.lists)
            cert = find_certificate(inst)
            if cert is not None:
                certified.append((inst, cert))
        for inst, B, kind, E, bc in block_certificates:
            pos = bc.positions
            read = tuple((u, v) for u, v in E if kind.is_cycle or abs(pos[u] - pos[v]) == 1)
            assert reference_block_failure(inst, bc, read) is None, (B, kind)
        assert len(block_certificates) > 300
        for inst, cert in certified:
            dec = blocks(inst.graph)
            for bc in cert.blocks:
                E = dec.edges[dec.blocks.index(bc.vertex_set)]
                assert reference_block_failure(inst, bc, E) is None, (bc.vertex_set, bc.kind)
                assert obstruction._block_failure(inst, bc, E) is None, (bc.vertex_set, bc.kind)
        assert certified


def generated_walk_bases():
    """Generated obstructed instances: single blocks, random block trees and K_2 chains."""
    for n in (2, 3, 4, 5):
        for t in (1, 2, 3):
            yield bad_instance_knt(n, t)[0]
    for n in (4, 5, 6, 7):
        for t in (1, 2):
            yield bad_instance_cnt(n, t)[0]
    rng = random.Random(21)
    for n_blocks in (2, 3, 4, 6):
        for _ in range(3):
            yield glue_bad(random_tree(rng, n_blocks))[0]
    for n_blocks, t in ((1, 1), (3, 1), (4, 2), (6, 3)):
        yield glue_bad(k2_chain(n_blocks, t))[0]


def walk_instances():
    """The corpora the walk is pinned on, each generated base with every
    one-pair-removed variant of it."""
    yield from criterion_4_instances()
    yield from certificate_search_instances()
    for base in generated_walk_bases():
        yield base
        yield from one_pair_removed(base)


class TestWalkMatchesTheFrozenWalk:
    def test_same_certificate_failing_block_and_left(self):
        """The walk that labels each block in one pass and freezes it at the
        end gives what the walk with class lists and copying certificates
        gave: an equal certificate, or the same (block index, p), and the
        same colors left at each vertex."""
        outcomes = {"certificate": 0, "failed": 0, "not degree": 0}
        for inst in walk_instances():
            want = reference_leaves_first(inst)
            got = obstruction._leaves_first(inst)
            if want is None:
                assert got is None
                outcomes["not degree"] += 1
                continue
            assert got[0] == want[0]
            assert got[2] == want[2]
            assert got[1] == want[1]
            outcomes["certificate" if want[0] is not None else "failed"] += 1
        assert outcomes["certificate"] > 200 and outcomes["failed"] > 2000, outcomes

    @pytest.mark.parametrize("case", ["color taken below", "partner outside the block"])
    def test_a_near_class_takes_no_color(self, case):
        """A triangle (a, b, c) over a pendant edge: at c, the last vertex
        of the triangle's order, a color whose partners at b are class 1
        there must not join class 1 when it is in the pendant block's part
        (t = 1, pendant c-d), nor when one of its partners lies outside the
        triangle's part at b (t = 2, pendant b-d). Either way the walk stops
        at the triangle, and the instance is colorable."""
        if case == "color taken below":
            g = Multigraph(("a", "b", "c", "d"), {("a", "b"): 1, ("a", "c"): 1, ("b", "c"): 1, ("c", "d"): 1})
            lists = {"a": {1, 2}, "b": {1, 2}, "c": {1, 2, 3}, "d": {3}}
            # Color 3 at c, the pendant block's part, stands in for color 2 on the triangle.
            matching = {("a", "b"): {(1, 1), (2, 2)}, ("a", "c"): {(1, 1), (2, 3)}, ("b", "c"): {(1, 1), (2, 3)},
                        ("c", "d"): {(3, 3)}}
        else:
            g = Multigraph(("a", "b", "c", "d"), {("a", "b"): 2, ("a", "c"): 2, ("b", "c"): 2, ("b", "d"): 1})
            lists = {"a": {1, 2, 3, 4}, "b": {1, 2, 3, 4, 5}, "c": {1, 2, 3, 4}, "d": {5}}
            classes = {(1, 1), (1, 2), (2, 1), (2, 2), (3, 3), (3, 4), (4, 3), (4, 4)}
            # Color 1 at c is matched to 1 and to the pendant block's 5 at b.
            matching = {("a", "b"): classes, ("a", "c"): classes, ("b", "c"): classes - {(2, 1)} | {(5, 1)},
                        ("b", "d"): {(5, 5)}}
        inst = DPInstance(g, {u: frozenset(cs) for u, cs in lists.items()}, matching)
        assert validate(inst) == []
        want = reference_leaves_first(inst)
        assert want[0] is None and want[2] == (0, None)  # blocks() sorts the triangle first
        assert obstruction._leaves_first(inst)[1:] == want[1:]
        assert decide(inst).colorable


@pytest.fixture
def replayed_edges(monkeypatch):
    """How often each block edge reaches obstruction._edge_failure."""
    seen = Counter()
    real = obstruction._edge_failure

    def spy(inst, plan, positions, labels, edges):
        seen.update(edges)
        return real(inst, plan, positions, labels, edges)

    monkeypatch.setattr(obstruction, "_edge_failure", spy)
    return seen


def replay_count_bases():
    """Bad K_n^t for n = 3..14 and t = 1..3, random block trees and a K_2 chain."""
    for n in range(3, 15):
        for t in (1, 2, 3):
            yield bad_instance_knt(n, t)[0]
    rng = random.Random(29)
    for n_blocks in (2, 3, 5, 8):
        for _ in range(3):
            yield glue_bad(random_tree(rng, n_blocks))[0]
    yield glue_bad(k2_chain(6, 2))[0]


def open_edge_variants():
    """Bad K_n^t and random block trees with n <= 6 and t <= 2, each with
    one pair removed on one open edge, in turn: a complete block's edges
    between non-consecutive positions, and a cycle's closing edge."""
    bases = [bad_instance_knt(n, t)[0] for n in range(3, 7) for t in (1, 2)]
    rng = random.Random(2929)
    bases += [glue_bad(random_tree(rng, n_blocks))[0] for n_blocks in (2, 3, 4) for _ in range(3)]
    for base in bases:
        dec = blocks(base.graph)
        for kind, E, order in zip(dec.kinds, dec.edges, dec.orders):
            at = {u: i for i, u in enumerate(order)}
            for key in (e for e in E if abs(at[e[0]] - at[e[1]]) != 1):
                for pair in sorted(base.matching[key]):
                    matching = dict(base.matching)
                    matching[key] = matching[key] - {pair}
                    yield kind, DPInstance(base.graph, base.lists, matching)


class TestOneReplayPerBlock:
    def test_each_block_edge_is_replayed_once(self, replayed_edges):
        """An obstructed decide reads the pairs of each complete block's
        edges once, in the block's full check, and a cycle block's n + 1
        times: its closing edge in the derivation, then every edge in its
        full check at the end of the walk."""
        for inst in replay_count_bases():
            replayed_edges.clear()
            assert decide(inst).obstructed
            dec = blocks(inst.graph)
            want = Counter()
            for kind, E, order in zip(dec.kinds, dec.edges, dec.orders):
                want.update(E)
                if kind.is_cycle:
                    a, z = order[0], order[-1]
                    want[(a, z) if a < z else (z, a)] += 1
            assert replayed_edges == want

    def test_a_pair_missing_on_an_open_edge(self):
        """The walk stops where the frozen walk stops, with the same colors
        left, and decide's transversal is the frozen branch's, whether the
        open edge is a complete block's, read in its full check, or a
        cycle's closing edge, read in the derivation."""
        stops = Counter()
        for kind, inst in open_edge_variants():
            want = reference_leaves_first(inst)
            got = obstruction._leaves_first(inst)
            assert want[0] is None and got[0] is None
            assert got[1:] == want[1:]
            assert decide(inst).transversal == reference_decide_transversal(inst)
            stops[kind.shape] += 1
        assert stops["Knt"] > 400 and stops["Cnt"] > 20, stops


def rematched(inst: DPInstance, cert: ObstructionCertificate, block: int) -> DPInstance:
    """The instance with two matched pairs trading partners across two
    classes on an edge the search leaves open in one block of its own
    certificate: a cycle's closing edge (positions n and 1), which turns
    from straight to crossed or back, or positions 1 and 3 of a complete
    block."""
    bc = cert.blocks[block]
    at = {i: u for u, i in bc.positions.items()}
    u, v = (at[bc.kind.n], at[1]) if bc.kind.is_cycle else (at[1], at[3])
    key = (u, v) if u < v else (v, u)
    pairs = sorted(inst.pairs_between(u, v))
    (a, b), (c, d) = next(
        (p, q)
        for p, q in combinations(pairs, 2)
        if bc.labels[v][p[1]][0] != bc.labels[v][q[1]][0]
    )
    moved = (set(pairs) - {(a, b), (c, d)}) | {(a, d), (c, b)}
    matching = dict(inst.matching)
    matching[key] = frozenset((x, y) if key == (u, v) else (y, x) for x, y in moved)
    return DPInstance(inst.graph, inst.lists, matching)


OPEN_EDGE_BASES = [
    *(bad_instance_cnt(n, t)[0] for n in (4, 5, 6, 7) for t in (1, 2)),
    *(bad_instance_knt(n, t)[0] for n in (3, 4, 5) for t in (1, 2)),
    glue_bad([BadBlockSpec("Cnt", 5, 1), BadBlockSpec("Knt", 4, 2, attach=(0, 2))])[0],
    glue_bad([BadBlockSpec("Knt", 3, 1), BadBlockSpec("Cnt", 6, 2, attach=(0, 2))])[0],
]


class TestAMovedPairOnAnOpenEdge:
    @pytest.mark.parametrize("base", OPEN_EDGE_BASES)
    def test_leaves_no_certificate(self, base):
        cert = find_certificate(base)
        assert cert is not None
        for block, bc in enumerate(cert.blocks):
            if bc.kind.n < 3:
                continue  # no open edge
            inst = rematched(base, cert, block)
            assert validate(inst) == []
            assert inst != base
            assert find_certificate(inst) is None  # and no internal RuntimeError
            assert decide(inst).colorable


def corruptions(inst, cert):
    """(instance, certificate, a fragment of the expected message) with
    block 0 broken in one way each; the other blocks stay intact."""
    bc = cert.blocks[0]
    at = {i: u for u, i in bc.positions.items()}

    def with_block(positions=None, labels=None):
        new = BlockCertificate(bc.kind, positions or bc.positions, labels or bc.labels)
        return ObstructionCertificate((new, *cert.blocks[1:]))

    def labels_copy():
        return {w: dict(lab) for w, lab in bc.labels.items()}

    positions = dict(bc.positions)
    positions[at[1]] = 2
    yield inst, with_block(positions=positions), "positions of block"
    if bc.kind.is_cycle:
        positions = dict(bc.positions)
        positions[at[2]], positions[at[3]] = 3, 2
        yield inst, with_block(positions=positions), "share no edge"

    u = at[2]
    labels = labels_copy()
    labels[u][max(inst.lists[u]) + 100] = labels[u].pop(min(labels[u]))
    yield inst, with_block(labels=labels), "labeled colors at"

    labels = labels_copy()
    first, second = sorted(labels[u])[:2]
    labels[u][second] = labels[u][first]
    yield inst, with_block(labels=labels), "not a bijection onto the index grid"

    labels = labels_copy()
    by_class = {}
    for color, (j, _) in sorted(labels[u].items()):
        by_class.setdefault(j, color)
    x, y = by_class[1], by_class[2]
    labels[u][x], labels[u][y] = labels[u][y], labels[u][x]
    yield inst, with_block(labels=labels), "unexpected cover edge"

    v, w = at[1], at[2]
    key = (v, w) if v < w else (w, v)
    matching = dict(inst.matching)
    matching[key] = frozenset(sorted(matching[key])[1:])
    yield DPInstance(inst.graph, inst.lists, matching), cert, "missing cover edge"


MESSAGE_BASES = [
    bad_instance_knt(4, 2),
    bad_instance_knt(3, 1),
    bad_instance_cnt(5, 1),
    bad_instance_cnt(6, 2),
    glue_bad([BadBlockSpec("Cnt", 5, 2), BadBlockSpec("Knt", 3, 1, attach=(0, 1))]),
]


class TestCertificateFailureMessages:
    @pytest.mark.parametrize("inst, cert", MESSAGE_BASES)
    def test_match_the_frozen_replay(self, inst, cert):
        assert certificate_failure(inst, cert) is None
        dec = blocks(inst.graph)
        edges = dec.edges[dec.blocks.index(cert.blocks[0].vertex_set)]
        seen = []
        for bad_inst, bad_cert, start in corruptions(inst, cert):
            want = reference_block_failure(bad_inst, bad_cert.blocks[0], edges)
            assert want is not None and start in want
            assert certificate_failure(bad_inst, bad_cert) == want
            seen.append(start)
        assert len(seen) == (6 if cert.blocks[0].kind.is_cycle else 5)


def partition_corruptions(inst, cert):
    """(instance, certificate, a fragment of the expected message) with the
    parts at the least cut vertex p broken, where blocks B0 and B1 meet.

    y is a color of B0's part at p, x one of B1's and z a fresh color. When
    the instance follows the certificate, x is renamed in B1's labels at p
    and on B1's edges at p, so both blocks still replay. Then a color in two
    parts leaves another in none unless L(p) shrinks, and a color in no part
    puts another in two unless L(p) grows: with every list at its degree,
    only "both at once" reaches the parts check."""
    dec = blocks(inst.graph)
    p = dec.cut_vertices[0]
    i0, i1 = [i for i, bc in enumerate(cert.blocks) if p in bc.labels][:2]
    b1 = cert.blocks[i1]
    edges = dec.edges[dec.blocks.index(b1.vertex_set)]
    y, (x, x2) = min(cert.blocks[i0].labels[p]), sorted(b1.labels[p])[:2]
    z = max(inst.lists[p]) + 100
    label_x = b1.labels[p][x]

    def with_labels(add, drop=()):
        """The certificate with B1's labels at p less the colors ``drop``, plus ``add``."""
        labels = dict(b1.labels)
        labels[p] = {c: jk for c, jk in b1.labels[p].items() if c not in drop} | add
        new = BlockCertificate(b1.kind, b1.positions, labels)
        return ObstructionCertificate(tuple(new if i == i1 else bc for i, bc in enumerate(cert.blocks)))

    def renamed(new, lists):
        """x renamed ``new`` at p in B1's labels and pairs; L(p) replaced by ``lists``."""
        matching = dict(inst.matching)
        for u, v in edges:
            if u == p:
                matching[(u, v)] = frozenset((new if a == x else a, b) for a, b in matching[(u, v)])
            elif v == p:
                matching[(u, v)] = frozenset((a, new if b == x else b) for a, b in matching[(u, v)])
        bad = DPInstance(inst.graph, {**inst.lists, p: frozenset(lists)}, matching)
        assert validate(bad) == []
        return bad, with_labels({new: label_x}, drop={x})

    yield *renamed(y, inst.lists[p]), "overlap"  # y in two parts and x in none
    yield *renamed(y, inst.lists[p] - {x}), "!= degree"  # y in two parts, none missing
    yield *renamed(z, inst.lists[p] | {z}), "!= degree"  # x in no part, none in two
    yield inst, with_labels({y: label_x}, drop={x}), "cover edge"  # the certificate alone
    yield inst, with_labels({z: label_x}, drop={x}), "outside L"
    yield inst, with_labels({x2: label_x}), "not a bijection"  # a label used twice at p
    yield inst, with_labels({y: label_x}), "not a bijection"  # and with B0's color


CUT_BASES = [
    MESSAGE_BASES[-1],
    glue_bad([BadBlockSpec("Knt", 2, 2), BadBlockSpec("Knt", 2, 2, attach=(0, 2))]),
    glue_bad([BadBlockSpec("Knt", 4, 2), BadBlockSpec("Cnt", 4, 1, attach=(0, 3))]),
    glue_bad([
        BadBlockSpec("Cnt", 6, 2),
        BadBlockSpec("Knt", 3, 1, attach=(0, 4)),
        BadBlockSpec("Knt", 2, 3, attach=(1, 2)),
    ]),
]


class TestPartitionFaultMessages:
    @pytest.mark.parametrize("inst, cert", CUT_BASES)
    def test_match_the_frozen_replay(self, inst, cert):
        assert certificate_failure(inst, cert) is None
        assert reference_certificate_failure(inst, cert) is None
        seen = []
        for bad_inst, bad_cert, start in partition_corruptions(inst, cert):
            want = reference_certificate_failure(bad_inst, bad_cert)
            assert want is not None and start in want, (start, want)
            assert certificate_failure(bad_inst, bad_cert) == want
            seen.append(want)
        assert len(seen) == 7

    @pytest.mark.parametrize("inst, cert", CUT_BASES)
    def test_blocks_out_of_blocks_order(self, inst, cert):
        """A certificate that lists its blocks in another order than
        blocks() is checked block by block in its own order, as the frozen
        replay checks it."""
        def turned(c):
            return ObstructionCertificate(c.blocks[::-1])

        assert certificate_failure(inst, turned(cert)) is None
        faults = [(inst, turned(cert))]
        faults += [(bad_inst, turned(bad_cert)) for bad_inst, bad_cert, _ in partition_corruptions(inst, cert)]
        # Every block of the wrong kind: the first one named is the last in blocks() order.
        other = turned(ObstructionCertificate(tuple(
            BlockCertificate(BlockKind.other(), bc.positions, bc.labels) for bc in cert.blocks
        )))
        assert str(cert.blocks[-1].vertex_set) in certificate_failure(inst, other)
        faults.append((inst, other))
        for bad_inst, bad_cert in faults:
            assert certificate_failure(bad_inst, bad_cert) == reference_certificate_failure(bad_inst, bad_cert)


SINGLE_BLOCK_BASES = [
    *(bad_instance_knt(n, t) for n in (2, 3, 4, 5, 6) for t in (1, 2)),
    *(bad_instance_cnt(n, t) for n in (4, 5, 6, 7) for t in (1, 2)),
]
PIN_BASES = SINGLE_BLOCK_BASES + [
    glue_bad([BadBlockSpec("Cnt", 5, 1), BadBlockSpec("Knt", 4, 2, attach=(0, 2))]),
    glue_bad([BadBlockSpec("Knt", 3, 1), BadBlockSpec("Cnt", 6, 2, attach=(0, 2))]),
    glue_bad([
        BadBlockSpec("Knt", 3, 2),
        BadBlockSpec("Cnt", 4, 1, attach=(0, 1)),
        BadBlockSpec("Knt", 2, 1, attach=(0, 2)),
    ]),
]


def single_pair_changes(inst, key):
    """The instances that differ from ``inst`` by one pair on the edge
    ``key``: a pair added, a pair removed, or a pair moved to another color
    at one end, which at a cut vertex may lie outside the block's part."""
    u, v = key
    pairs = inst.matching[key]

    def changed(prs):
        return DPInstance(inst.graph, inst.lists, {**inst.matching, key: frozenset(prs)})

    for a in sorted(inst.lists[u]):
        for b in sorted(inst.lists[v]):
            if (a, b) not in pairs:
                yield changed(pairs | {(a, b)})
    for a, b in sorted(pairs):
        rest = pairs - {(a, b)}
        yield changed(rest)
        moved = [(x, b) for x in sorted(inst.lists[u])] + [(a, y) for y in sorted(inst.lists[v])]
        for p in moved:
            if p not in pairs:
                yield changed(rest | {p})


class TestCountedReplayMatchesTheSetReplay:
    @pytest.mark.parametrize("inst, cert", PIN_BASES)
    def test_on_every_single_pair_change(self, inst, cert):
        dec = blocks(inst.graph)
        edges = {B: E for B, E in zip(dec.blocks, dec.edges)}
        messages = []
        for bc in cert.blocks:
            E = edges[bc.vertex_set]
            assert obstruction._block_failure(inst, bc, E) is None
            for key in E:
                for variant in single_pair_changes(inst, key):
                    want = reference_block_failure(variant, bc, E)
                    assert obstruction._block_failure(variant, bc, E) == want
                    messages.append(want or "")
        assert any("missing cover edge" in m for m in messages)
        if cert.blocks[0].kind.n > 2:  # a lone K_2^t joins its two parts completely
            assert any("unexpected cover edge" in m for m in messages)

    @pytest.mark.parametrize("inst, cert", SINGLE_BLOCK_BASES)
    def test_pattern_between_matches_the_pattern_graph(self, inst, cert):
        kind = cert.blocks[0].kind
        pattern = make_pattern(block_pattern_kind(kind), kind.n, kind.t)
        for i1 in range(1, kind.n + 1):
            for i2 in range(1, kind.n + 1):
                if i1 != i2:
                    read_off = {
                        (x[1:], y[1:])
                        for p, q in pattern.edges
                        for x, y in ((p, q), (q, p))
                        if x[0] == i1 and y[0] == i2
                    }
                    assert pattern_between(kind, i1, i2) == read_off, (kind, i1, i2)
