"""Patterns, certificate search and verification, and the decision procedure."""

import dataclasses
import gc
import random
import sys
import time

import pytest

import dpcover.obstruction as obstruction
from dpcover import (
    BlockKind,
    DPInstance,
    DisconnectedGraph,
    FAT_LADDER,
    FAT_MOBIUS,
    HNT,
    Multigraph,
    MultigraphInput,
    NotDegreeList,
    bad_instance_cnt,
    bad_instance_knt,
    blocks,
    cartesian_product,
    certificate_failure,
    complete_graph,
    cycle_graph,
    decide,
    find_certificate,
    from_k_coloring,
    from_list_instance,
    glue_bad,
    BadBlockSpec,
    is_degree_choosable_shape,
    is_valid_transversal,
    make_pattern,
    path_graph,
    product_vertex,
    random_matching,
    restrict,
    verify_certificate,
)
from tests.enumeration import connected_multigraphs_upto_iso
from tests.oracles import solve_checked


def fig1_left():
    return from_k_coloring(cycle_graph(["a", "b", "c", "d"]), 2)


def fig1_right():
    left = fig1_left()
    matching = dict(left.matching)
    matching[("a", "d")] = frozenset({(1, 2), (2, 1)})
    return DPInstance(left.graph, left.lists, matching)


class TestPatterns:
    def test_hnt_3_1_counts(self):
        p = make_pattern(HNT, 3, 1)
        assert len(p.nodes) == 6
        assert len(p.edges) == 9

    def test_hnt_3_1_isomorphic_to_k3_square_k2(self):
        p = make_pattern(HNT, 3, 1)
        prod = cartesian_product(
            complete_graph(["1", "2", "3"]), complete_graph(["1", "2"])
        )
        mapped = {
            tuple(sorted((product_vertex(str(i), str(j)), product_vertex(str(i2), str(j2)))))
            for (i, j, _), (i2, j2, _) in p.edges
        }
        assert mapped == set(prod.pairs())

    def test_fat_ladder_4_1_is_the_cube(self):
        p = make_pattern(FAT_LADDER, 4, 1)
        assert len(p.nodes) == 8
        assert len(p.edges) == 12
        degrees = {}
        for a, b in p.edges:
            degrees[a] = degrees.get(a, 0) + 1
            degrees[b] = degrees.get(b, 0) + 1
        assert set(degrees.values()) == {3}

    def test_fat_mobius_4_1_matches_fig1_right_cover(self):
        from dpcover import build_cover

        p = make_pattern(FAT_MOBIUS, 4, 1)
        cover = build_cover(fig1_right())
        pos = {"a": 1, "b": 2, "c": 3, "d": 4}
        mapped = {
            tuple(sorted([(pos[u], cu, 1), (pos[v], cv, 1)]))
            for (u, cu), (v, cv) in cover.edges()
        }
        assert mapped == {tuple(sorted([x, y])) for x, y in p.edges}

    @pytest.mark.parametrize("t", [1, 2])
    def test_fat_ladder_3_equals_hnt_3(self, t):
        assert make_pattern(FAT_LADDER, 3, t).edges == make_pattern(HNT, 3, t).edges

    def test_hnt_blow_up_structure(self):
        # every (i, j, *) bundle is a clique and bundles join completely
        p = make_pattern(HNT, 3, 2)
        for i in (1, 2, 3):
            for j in (1, 2):
                assert tuple(sorted([(i, j, 1), (i, j, 2)])) in p.edges

    def test_range_validation(self):
        with pytest.raises(ValueError):
            make_pattern(HNT, 1, 1)
        with pytest.raises(ValueError):
            make_pattern(FAT_LADDER, 2, 1)
        with pytest.raises(ValueError):
            make_pattern(FAT_MOBIUS, 4, 0)
        with pytest.raises(ValueError):
            make_pattern("Zigzag", 4, 1)


class TestVerifyCertificate:
    def test_generator_certificates_verify(self):
        inst, cert = bad_instance_knt(3, 1)
        assert verify_certificate(inst, cert)
        assert not solve_checked(inst).colorable

    def test_fig1_right_certificate(self):
        inst = fig1_right()
        cert = find_certificate(inst)
        assert cert is not None
        assert verify_certificate(inst, cert)
        (bc,) = cert.blocks
        assert bc.kind == BlockKind.cycle(4, 1)

    def test_fig1_left_rejects_any_maps(self):
        right_cert = find_certificate(fig1_right())
        failure = certificate_failure(fig1_left(), right_cert)
        assert failure is not None
        assert "edge" in failure

    def test_degree_mismatch_rejected(self):
        inst, cert = bad_instance_knt(3, 1)
        bigger = {u: cs | {99} for u, cs in inst.lists.items()}
        inst2 = DPInstance(inst.graph, bigger, inst.matching)
        assert certificate_failure(inst2, cert) is not None

    def test_wrong_kind_rejected(self):
        inst, cert = bad_instance_cnt(4, 1)
        (bc,) = cert.blocks
        wrong = obstruction.ObstructionCertificate(
            (obstruction.BlockCertificate(BlockKind.complete(4, 1), bc.positions, bc.labels),)
        )
        assert certificate_failure(inst, wrong) is not None

    def test_overlapping_parts_rejected(self):
        inst, cert = glue_bad(
            [BadBlockSpec("Knt", 2, 1), BadBlockSpec("Knt", 2, 1, (0, 2))]
        )
        b0, b1 = cert.blocks
        # relabel block 1's colors at the cut vertex onto block 0's part
        cut = "b0v2"
        bad_labels = {
            u: (dict(b0.labels[b0.vertex_set[0]]) if u == cut else dict(lab))
            for u, lab in b1.labels.items()
        }
        clash = obstruction.ObstructionCertificate(
            (b0, obstruction.BlockCertificate(b1.kind, b1.positions, bad_labels))
        )
        failure = certificate_failure(inst, clash)
        assert failure is not None


    def test_positions_off_the_cycle_are_rejected(self):
        # C_4 a-b-c-d-a with pairs on ab and cd only: colorable. Positions
        # a:1 b:2 d:3 c:4 put pattern-adjacent positions 2, 3 on the non-edge
        # bd and 4, 1 on the non-edge ca, while the graph edges bc and da
        # land on non-adjacent positions whose empty pair sets look right.
        g = cycle_graph(["a", "b", "c", "d"])
        lists = {u: frozenset({1, 2}) for u in g.vertices}
        same = frozenset({(1, 1), (2, 2)})
        inst = DPInstance(g, lists, {("a", "b"): same, ("c", "d"): same})
        assert solve_checked(inst).colorable
        labels = {u: {1: (1, 1), 2: (2, 1)} for u in g.vertices}
        cert = obstruction.ObstructionCertificate(
            (
                obstruction.BlockCertificate(
                    BlockKind.cycle(4, 1), {"a": 1, "b": 2, "d": 3, "c": 4}, labels
                ),
            )
        )
        assert certificate_failure(inst, cert) is not None
        assert not verify_certificate(inst, cert)

    def test_block_sets_must_match(self):
        inst, cert = glue_bad([BadBlockSpec("Knt", 2, 1), BadBlockSpec("Knt", 2, 1, (0, 2))])
        short = obstruction.ObstructionCertificate(cert.blocks[:1])
        assert certificate_failure(inst, short) == "certificate blocks do not match the graph's blocks"

    def test_a_color_in_two_parts_overlaps(self):
        # Path a-v-b: each K_2 block alone replays, but both claim 5 at v.
        g = path_graph(["a", "v", "b"])
        lists = {"a": frozenset({1}), "v": frozenset({5, 6}), "b": frozenset({2})}
        inst = DPInstance(g, lists, {("a", "v"): frozenset({(1, 5)}), ("b", "v"): frozenset({(2, 5)})})
        k2 = BlockKind.complete(2, 1)
        cert = obstruction.ObstructionCertificate(
            (
                obstruction.BlockCertificate(k2, {"a": 1, "v": 2}, {"a": {1: (1, 1)}, "v": {5: (1, 1)}}),
                obstruction.BlockCertificate(k2, {"b": 1, "v": 2}, {"b": {2: (1, 1)}, "v": {5: (1, 1)}}),
            )
        )
        assert certificate_failure(inst, cert) == "parts at 'v' overlap"

    def test_a_claimed_other_shape_is_rejected(self):
        # The diamond is one Other-shaped block, so the kinds agree.
        g = Multigraph.from_pairs("abcd", [("a", "b"), ("a", "c"), ("a", "d"), ("b", "c"), ("c", "d")])
        lists = {u: frozenset(range(1, g.degree(u) + 1)) for u in g.vertices}
        inst = DPInstance(g, lists, {})
        cert = obstruction.ObstructionCertificate(
            (
                obstruction.BlockCertificate(
                    BlockKind.other(), {u: i for i, u in enumerate("abcd", 1)}, {u: {} for u in "abcd"}
                ),
            )
        )
        assert certificate_failure(inst, cert) == "block certificate with Other shape"

    def test_labels_must_cover_the_block(self):
        inst, cert = bad_instance_knt(3, 1)
        (bc,) = cert.blocks
        labels = {u: lab for u, lab in bc.labels.items() if u != bc.vertex_set[0]}
        short = obstruction.ObstructionCertificate(
            (obstruction.BlockCertificate(bc.kind, bc.positions, labels),)
        )
        assert "do not cover its vertices" in certificate_failure(inst, short)


def assert_read_only(cert):
    """Every block's positions, labels and label maps reject assignment."""
    for bc in cert.blocks:
        u = bc.vertex_set[0]
        with pytest.raises(TypeError):
            bc.positions[u] = 2
        with pytest.raises(TypeError):
            bc.labels[u] = {}
        for lab in bc.labels.values():
            with pytest.raises(TypeError):
                lab[next(iter(lab), 1)] = (1, 1)


def read_only_cases():
    """Obstructed instances with single-vertex, K_2, complete and cycle blocks."""
    yield bad_instance_knt(3, 1)[0]
    yield bad_instance_cnt(6, 2)[0]
    yield glue_bad([BadBlockSpec("Cnt", 5, 1), BadBlockSpec("Knt", 2, 2, attach=(0, 2))])[0]
    g = Multigraph(("a",), {})
    yield DPInstance(g, {"a": frozenset()}, {})


class TestReadOnly:
    def test_certificate_maps_reject_assignment(self):
        _, cert = bad_instance_knt(3, 1)
        (bc,) = cert.blocks
        u = bc.vertex_set[0]
        with pytest.raises(TypeError):
            bc.positions[u] = 2
        with pytest.raises(TypeError):
            bc.labels[u] = {}
        with pytest.raises(TypeError):
            bc.labels[u][next(iter(bc.labels[u]))] = (1, 1)

    @pytest.mark.parametrize("inst", list(read_only_cases()))
    def test_derived_and_read_certificates_reject_assignment(self, inst):
        from dpcover.serialize import certificate_from_json, certificate_to_json

        cert = decide(inst).certificate
        found = find_certificate(inst)
        read = certificate_from_json(certificate_to_json(cert))
        for c in (cert, found, read):
            assert c == cert
            assert_read_only(c)

    def test_public_constructor_keeps_its_own_copy(self):
        inst, cert = bad_instance_cnt(5, 2)
        (bc,) = cert.blocks
        positions = dict(bc.positions)
        labels = {u: dict(lab) for u, lab in bc.labels.items()}
        copy = obstruction.BlockCertificate(bc.kind, positions, labels)
        u, v = bc.vertex_set[:2]
        positions[u], positions[v] = positions[v], positions[u]
        labels[u].clear()
        labels[v] = {}
        del labels[bc.vertex_set[2]]
        assert copy == bc and copy.vertex_set == bc.vertex_set
        assert verify_certificate(inst, obstruction.ObstructionCertificate((copy,)))


class TestFindCertificate:
    def test_fig1_right_moebius(self):
        cert = find_certificate(fig1_right())
        assert cert is not None and len(cert.blocks) == 1
        assert cert.blocks[0].kind == BlockKind.cycle(4, 1)

    def test_fig1_left_none(self):
        assert find_certificate(fig1_left()) is None

    def test_p3_two_bridge_blocks(self):
        g = path_graph(["a", "b", "c"])
        inst = from_list_instance(g, {"a": {1}, "b": {1, 2}, "c": {2}})
        assert not solve_checked(inst).colorable
        cert = find_certificate(inst)
        assert cert is not None
        parts = cert.partition()["b"]
        assert sorted(map(sorted, parts.values())) == [[1], [2]]
        for bc in cert.blocks:
            assert bc.kind == BlockKind.complete(2, 1)

    def test_non_degree_lists_have_no_certificate(self):
        g = cycle_graph(["a", "b", "c", "d"])
        inst = from_k_coloring(g, 3)
        assert find_certificate(inst) is None

    def test_wrong_shape_has_no_certificate(self):
        g = Multigraph.from_pairs(
            "abcd", [("a", "b"), ("b", "c"), ("c", "d"), ("a", "d"), ("a", "c")]
        )
        lists = {u: frozenset(range(1, g.degree(u) + 1)) for u in g.vertices}
        inst = DPInstance(g, lists, random_matching(g, lists, 5, 1.0))
        assert find_certificate(inst) is None

    def test_disconnected_raises(self):
        g = Multigraph(("a", "b"), {})
        inst = DPInstance(g, {"a": frozenset(), "b": frozenset()}, {})
        with pytest.raises(DisconnectedGraph):
            find_certificate(inst)

    def test_invalid_instance_raises(self):
        from dpcover import InvalidInstance

        g = Multigraph(("a", "b"), {("a", "b"): 1})
        inst = DPInstance(
            g, {"a": frozenset({1}), "b": frozenset({1, 2})},
            {("a", "b"): frozenset({(1, 1), (1, 2)})},
        )
        with pytest.raises(InvalidInstance):
            find_certificate(inst)
        _, cert = bad_instance_knt(2, 1)
        with pytest.raises(InvalidInstance):
            verify_certificate(inst, cert)

    def test_extra_cross_edges_do_not_hide_the_certificate(self):
        # Moebius 4-cycle with pendant bridges at the adjacent cut vertices a
        # and b, plus a spurious matched pair between the two bridge colors
        # across the cycle edge (a, b). The pair is outside every pattern
        # union and has spare capacity, and the instance stays obstructed.
        g = Multigraph.from_pairs(
            "abcdpq",
            [("a", "b"), ("b", "c"), ("c", "d"), ("a", "d"), ("a", "p"), ("b", "q")],
        )
        lists = {
            "a": frozenset({1, 2, 3}),
            "b": frozenset({1, 2, 3}),
            "c": frozenset({1, 2}),
            "d": frozenset({1, 2}),
            "p": frozenset({1}),
            "q": frozenset({1}),
        }
        matching = {
            ("a", "b"): frozenset({(1, 1), (2, 2)}),
            ("b", "c"): frozenset({(1, 1), (2, 2)}),
            ("c", "d"): frozenset({(1, 1), (2, 2)}),
            ("a", "d"): frozenset({(1, 2), (2, 1)}),
            ("a", "p"): frozenset({(3, 1)}),
            ("b", "q"): frozenset({(3, 1)}),
        }
        base = DPInstance(g, lists, matching)
        assert not solve_checked(base).colorable
        assert find_certificate(base) is not None
        extra = dict(matching)
        extra[("a", "b")] = matching[("a", "b")] | {(3, 3)}
        inst = DPInstance(g, lists, extra)
        assert not solve_checked(inst).colorable
        cert = find_certificate(inst)
        assert cert is not None
        assert verify_certificate(inst, cert)
        assert decide(inst).obstructed


class TestAnchorAmbiguity:
    """A middle block whose anchor grouping has two block-locally valid
    readings; only the cross-block list partition picks the right one."""

    def build(self, cd_pairs):
        g = path_graph(["a", "b", "c", "d"])
        lists = {
            "a": frozenset({1}),
            "b": frozenset({1, 2}),
            "c": frozenset({1, 2}),
            "d": frozenset({1}),
        }
        matching = {
            ("a", "b"): frozenset({(1, 2)}),
            ("b", "c"): frozenset({(1, 1), (2, 2)}),
            ("c", "d"): frozenset(cd_pairs),
        }
        return DPInstance(g, lists, matching)

    def test_backtracking_finds_the_consistent_grouping(self):
        inst = self.build({(2, 1)})
        assert not solve_checked(inst).colorable
        cert = find_certificate(inst)
        assert cert is not None
        assert verify_certificate(inst, cert)
        parts = cert.partition()
        assert sorted(map(sorted, parts["b"].values())) == [[1], [2]]
        assert sorted(map(sorted, parts["c"].values())) == [[1], [2]]

    def test_no_consistent_grouping_means_colorable(self):
        inst = self.build({(1, 1)})
        assert solve_checked(inst).colorable
        assert find_certificate(inst) is None
        assert decide(inst).colorable


class TestDecide:
    def test_fig1(self):
        assert decide(fig1_right()).obstructed
        dec = decide(fig1_left())
        assert dec.colorable
        assert is_valid_transversal(fig1_left(), dec.transversal)

    def test_k4_minus_edge_always_colorable(self):
        g = Multigraph.from_pairs(
            "abcd", [("a", "b"), ("b", "c"), ("c", "d"), ("a", "d"), ("a", "c")]
        )
        lists = {u: frozenset(range(1, g.degree(u) + 1)) for u in g.vertices}
        for seed in range(25):
            inst = DPInstance(g, lists, random_matching(g, lists, seed, 1.0))
            dec = decide(inst)
            assert dec.colorable
            assert is_valid_transversal(inst, dec.transversal)
            assert solve_checked(inst).colorable

    def test_not_degree_list_refused(self):
        g = cycle_graph(["a", "b", "c", "d"])
        lists = {u: frozenset({1}) for u in g.vertices}
        inst = DPInstance(g, lists, {})
        with pytest.raises(NotDegreeList):
            decide(inst)

    def test_disconnected_refused(self):
        g = Multigraph(("a", "b"), {})
        inst = DPInstance(g, {"a": frozenset(), "b": frozenset()}, {})
        with pytest.raises(DisconnectedGraph):
            decide(inst)

    def test_disconnected_slack_instance_refused(self):
        # find_certificate rejects it on the list sizes before it needs the
        # blocks, so decide checks connectivity itself.
        g = Multigraph(("a", "b", "c", "d"), {("a", "b"): 1, ("c", "d"): 1})
        lists = {u: frozenset({1, 2}) for u in g.vertices}
        inst = DPInstance(g, lists, {p: frozenset({(1, 1), (2, 2)}) for p in g.pairs()})
        assert find_certificate(inst) is None
        with pytest.raises(DisconnectedGraph):
            decide(inst)

    def test_disconnected_short_list_refused(self):
        # Connectivity is checked before the list sizes.
        g = Multigraph(("a", "b", "c", "d"), {("a", "b"): 1, ("c", "d"): 1})
        lists = {u: frozenset({1}) for u in g.vertices}
        inst = DPInstance(g, {**lists, "b": frozenset()}, {})
        with pytest.raises(DisconnectedGraph):
            decide(inst)

    def test_single_vertex_empty_list_is_obstructed(self):
        inst = DPInstance(Multigraph(("a",), {}), {"a": frozenset()}, {})
        dec = decide(inst)
        assert dec.obstructed
        assert verify_certificate(inst, dec.certificate)

    def test_constructive_route(self):
        inst = fig1_left()
        dec = decide(inst)
        assert dec.colorable
        assert is_valid_transversal(inst, dec.transversal)
        # and on a cut-vertex instance whose restriction disconnects
        g = Multigraph.from_pairs(
            "abcde",
            [("a", "b"), ("b", "c"), ("a", "c"), ("c", "d"), ("d", "e"), ("c", "e")],
        )
        inst2 = from_k_coloring(g, 4)
        dec2 = decide(inst2)
        assert dec2.colorable
        assert is_valid_transversal(inst2, dec2.transversal)

    def test_agrees_with_solve_on_sample(self):
        count = 0
        for gi, g in enumerate(connected_multigraphs_upto_iso(4, 5)):
            lists = {u: frozenset(range(1, g.degree(u) + 1)) for u in g.vertices}
            for seed in range(15):
                inst = DPInstance(
                    g, lists, random_matching(g, lists, gi * 100 + seed, 1.0)
                )
                count += 1
                assert decide(inst).obstructed != solve_checked(inst).colorable
        assert count > 400


    def test_long_k2_chain_has_a_certificate(self):
        # One block per level of a recursive walk would overflow the stack.
        specs = [BadBlockSpec("Knt", 2, 1)]
        specs += [BadBlockSpec("Knt", 2, 1, (i, 2)) for i in range(1199)]
        inst, _ = glue_bad(specs)
        dec = decide(inst)
        assert dec.obstructed and len(dec.certificate.blocks) == 1200
        assert verify_certificate(inst, dec.certificate)


def _drop_first_pair(inst):
    """The instance with the least pair of its first nonempty edge removed."""
    matching = dict(inst.matching)
    key = next(p for p, prs in matching.items() if prs)
    matching[key] = matching[key] - {min(matching[key])}
    return DPInstance(inst.graph, inst.lists, matching)


SELF_CHECKED = [
    bad_instance_knt(4, 1)[0],
    bad_instance_knt(3, 3)[0],
    bad_instance_cnt(5, 2)[0],
    bad_instance_cnt(6, 1)[0],
    glue_bad([BadBlockSpec("Cnt", 5, 1), BadBlockSpec("Knt", 4, 2, attach=(0, 2)),
              BadBlockSpec("Knt", 2, 1, attach=(1, 3))])[0],
    glue_bad([BadBlockSpec("Knt", 2, 1)] + [BadBlockSpec("Knt", 2, 1, (i, 2)) for i in range(30)])[0],
    DPInstance(Multigraph(("v",), {}), {"v": frozenset()}, {}),
]


@pytest.fixture
def block_checks(monkeypatch):
    """(instance, block vertices) of every full per-block check in obstruction."""
    calls = []
    real = obstruction._block_fault

    def spy(inst, bc, edges):
        calls.append((inst, bc.vertex_set))
        return real(inst, bc, edges)

    monkeypatch.setattr(obstruction, "_block_fault", spy)
    return calls


class TestSelfCheck:
    """The walk checks each block of a certificate it derives in full
    before handing the certificate out, a complete block with n >= 3 as
    soon as it derives and every other block at the end: each block once
    per obstructed decide and once per find_certificate hit, and none when
    no certificate is derived."""

    @pytest.mark.parametrize("inst", SELF_CHECKED)
    def test_once_per_certificate(self, inst, block_checks):
        for call in (lambda i: decide(i).certificate, find_certificate):
            block_checks.clear()
            cert = call(inst)
            assert cert is not None
            assert all(checked is inst for checked, _ in block_checks)
            assert sorted(B for _, B in block_checks) == sorted(bc.vertex_set for bc in cert.blocks)
            assert len(block_checks) == len(blocks(inst.graph).blocks)

    @pytest.mark.parametrize("inst", [fig1_left(), _drop_first_pair(bad_instance_cnt(5, 2)[0])])
    def test_not_without_a_certificate(self, inst, block_checks):
        assert find_certificate(inst) is None
        assert block_checks == []

    @pytest.mark.parametrize("inst", SELF_CHECKED[:5])
    def test_a_wrong_label_is_caught(self, inst, monkeypatch):
        """A derivation that swaps the labels of two colors of different
        classes at one vertex of a block with two classes or more."""
        real = obstruction._block_certificate
        swapped = []

        def wrong(inst, verts, kind, left):
            parts = real(inst, verts, kind, left)
            if parts is not None and not swapped and kind.t < len(obstruction._plan(kind).grid):
                # on a copy: the derived map may be shared by the vertices after it
                lab = parts[1][verts[0]] = dict(parts[1][verts[0]])
                x, y = (min(c for c, (j, _) in lab.items() if j == i) for i in (1, 2))
                lab[x], lab[y] = lab[y], lab[x]
                swapped.append(verts)
            return parts

        monkeypatch.setattr(obstruction, "_block_certificate", wrong)
        for call in (decide, find_certificate):
            swapped.clear()
            with pytest.raises(RuntimeError, match=r"^internal: derived certificate does not verify: "):
                call(inst)
            assert swapped


    @pytest.mark.parametrize("inst", [bad_instance_knt(4, 1)[0], bad_instance_knt(5, 2)[0]])
    def test_a_wrong_label_behind_an_open_edge_is_caught(self, inst, monkeypatch):
        """Labels of two classes swapped at the last vertex of a complete
        block's order: the first block edge to fail joins positions 1 and
        n, which are not consecutive, but an edge between consecutive
        positions fails too, so the walk raises instead of stopping."""
        real = obstruction._block_certificate

        def wrong(inst, order, kind, left):
            parts = real(inst, order, kind, left)
            lab = parts[1][order[-1]] = dict(parts[1][order[-1]])  # on a copy, as above
            x, y = (min(c for c, (j, _) in lab.items() if j == i) for i in (1, 2))
            lab[x], lab[y] = lab[y], lab[x]
            return parts

        monkeypatch.setattr(obstruction, "_block_certificate", wrong)
        n = len(inst.graph.vertices)
        for call in (decide, find_certificate):
            with pytest.raises(RuntimeError, match=rf"^internal: derived certificate does not verify: .* between \('u{n - 1}',"):
                call(inst)


class TestPlan:
    """A block kind's plan holds O(|grid|) items whatever n: no table per
    pair of positions."""

    @pytest.mark.parametrize("make", [BlockKind.complete, BlockKind.cycle])
    @pytest.mark.parametrize("n", [4, 5, 330, 331, 2000, 2001])
    @pytest.mark.parametrize("t", [1, 3])
    def test_holds_at_most_the_grid(self, make, n, t):
        kind = make(n, t)
        plan = obstruction._plan(kind)
        classes = range(1, n) if kind.is_complete else (1, 2)
        grid = frozenset((j, k) for j in classes for k in range(1, t + 1))
        assert plan is obstruction._plan(make(n, t))
        for field in dataclasses.fields(plan):
            value = getattr(plan, field.name)
            if isinstance(value, range):  # its bounds alone, whatever n
                assert value == range(1, n + 1)
                assert sys.getsizeof(value) == sys.getsizeof(range(1, 2))
            elif isinstance(value, (frozenset, tuple)):
                assert len(value) <= len(grid), field.name
            else:
                assert isinstance(value, (int, str)), field.name
        assert plan.grid == grid and plan.cells == tuple(sorted(grid))

    @pytest.mark.parametrize("kind", [
        *(BlockKind.complete(n, t) for n in (2, 3, 5) for t in (1, 2, 3)),
        *(BlockKind.cycle(n, t) for n in (4, 5, 6, 7) for t in (1, 2, 3)),
    ])
    def test_pair_counts_are_the_pattern_s(self, kind):
        plan = obstruction._plan(kind)
        assert plan.pattern == obstruction.block_pattern_kind(kind) and plan.n == kind.n
        counts = {
            obstruction._position_rule(plan.pattern, kind.n, i1, i2): len(obstruction.pattern_between(kind, i1, i2))
            for i1 in plan.positions for i2 in plan.positions if i1 != i2
        }
        assert counts.get((True, False), plan.same_pairs) == plan.same_pairs
        assert counts.get((False, True), plan.cross_pairs) == plan.cross_pairs
        assert counts.get((False, False), 0) == 0
        assert (True, False) in counts


def _k2_star(leaves):
    specs = [BadBlockSpec("Knt", 2, 1)]
    specs += [BadBlockSpec("Knt", 2, 1, (0, 1)) for _ in range(leaves - 1)]
    return glue_bad(specs)


def _two_list_path(n):
    """P_n with 2-lists and a perfect matching on every edge; the ends have slack."""
    g = path_graph([f"p{i:06d}" for i in range(n)])
    lists = {u: frozenset({i % 3, i % 3 + 3}) for i, u in enumerate(g.vertices)}
    matching = {}
    for i, (u, v) in enumerate(g.pairs()):
        a, b = sorted(lists[u]), sorted(lists[v])
        matching[(u, v)] = frozenset(zip(a, b if i % 2 else b[::-1]))
    return DPInstance(g, lists, matching)


def _crossed_cycle(n, crossed):
    """C_n with lists {1, 2}, identity matchings and the ``crossed``-th edge
    crossed: a full cover that is not the pattern, so a forced chain."""
    g = cycle_graph([f"c{i:06d}" for i in range(n)])
    matching = {p: frozenset({(1, 1), (2, 2)}) for p in g.pairs()}
    matching[g.pairs()[crossed]] = frozenset({(1, 2), (2, 1)})
    return DPInstance(g, {u: frozenset({1, 2}) for u in g.vertices}, matching)


def _pendant_crossed_cycle(k, n=11):
    """A crossed C_n through ``a`` (lists {1001, 1002}, identity matchings,
    one crossed edge) with k pendant K_2 pattern blocks at ``a``: leaf b_i
    has the list {5000 + i}, and the pair (i + 1, 5000 + i) gives its block
    the part {i + 1} at ``a``, below 1001. The leaves sort before the cycle,
    so the cycle closes last and the walk fails at it with ``a`` first."""
    cycle = ["a"] + [f"c{i:05d}" for i in range(1, n)]
    leaves = [f"b{i:05d}" for i in range(k)]
    mult = {(u, v): 1 for u, v in zip(cycle, cycle[1:] + cycle[:1])}
    g = Multigraph(tuple(cycle + leaves), {**mult, **{("a", b): 1 for b in leaves}})
    lists = {u: frozenset({1001, 1002}) for u in cycle}
    lists["a"] = lists["a"] | frozenset(range(1, k + 1))
    lists.update({b: frozenset({5000 + i}) for i, b in enumerate(leaves)})
    matching = {p: frozenset({(1001, 1001), (1002, 1002)}) for p in mult}
    matching[(cycle[1], cycle[2])] = frozenset({(1001, 1002), (1002, 1001)})
    matching.update({("a", b): frozenset({(i + 1, 5000 + i)}) for i, b in enumerate(leaves)})
    return DPInstance(g, lists, matching)


def _random_block_tree(n_blocks, seed):
    """Exact-degree lists on a random tree of K_n^t and C_n^t blocks with
    random matchings; one emptied edge rules out every certificate."""
    rng = random.Random(seed)
    specs = []
    for i in range(n_blocks):
        attach = None
        if i:
            parent = rng.randrange(i)
            attach = (parent, rng.randint(1, specs[parent].n))
        if rng.random() < 0.6:
            specs.append(BadBlockSpec("Knt", rng.choice((2, 3, 4)), rng.choice((1, 2)), attach))
        else:
            specs.append(BadBlockSpec("Cnt", rng.choice((4, 5, 6)), rng.choice((1, 2)), attach))
    inst, _ = glue_bad(specs)
    matching = random_matching(inst.graph, inst.lists, seed, 1.0)
    matching[rng.choice(sorted(matching))] = frozenset()
    return DPInstance(inst.graph, inst.lists, matching)


@pytest.fixture
def restrict_calls(monkeypatch):
    """The (vertex, color) of every restriction the colorable branch makes."""
    calls = []

    def spy(inst, u, c):
        calls.append((u, c))
        return restrict(inst, u, c)

    monkeypatch.setattr(obstruction, "restrict", spy)
    return calls


class TestColorableBranch:
    def test_full_cover_off_the_pattern_takes_the_fallback(self, restrict_calls):
        # Every matching is perfect, so each color is saturated toward every
        # neighbour; the swapped pair on ab keeps the cover off the pattern.
        g = complete_graph(["a", "b", "c", "d"])
        matching = {p: frozenset((c, c) for c in (1, 2, 3)) for p in g.pairs()}
        matching[("a", "b")] = frozenset({(1, 2), (2, 1), (3, 3)})
        inst = DPInstance(g, {u: frozenset({1, 2, 3}) for u in g.vertices}, matching)
        assert find_certificate(inst) is None
        dec = decide(inst)
        assert dec.colorable and is_valid_transversal(inst, dec.transversal)
        assert restrict_calls

    def test_families_never_restrict(self, restrict_calls):
        cases = [_two_list_path(60), _drop_first_pair(_k2_star(50)[0])]
        cases += [_drop_first_pair(bad_instance_cnt(n, t)[0]) for n, t in ((7, 1), (8, 2))]
        for inst in cases:
            dec = decide(inst)
            assert dec.colorable and is_valid_transversal(inst, dec.transversal)
        assert restrict_calls == []

    def test_crossed_cycle_restricts_once(self, restrict_calls):
        # One restriction breaks the full cover; case 2 colors the chain it leaves.
        for crossed in (0, 50, 100):
            inst = _crossed_cycle(101, crossed)
            restrict_calls.clear()
            dec = decide(inst)
            assert dec.colorable and is_valid_transversal(inst, dec.transversal)
            assert len(restrict_calls) <= 1

    def test_fallback_tries_only_leftover_colors(self, restrict_calls):
        # Colors 1..400 at ``a`` are the parts of the pendant blocks, and
        # each would leave its block's leaf a one-vertex pattern; the first
        # color left over, 1001, breaks the crossed cycle.
        inst = _pendant_crossed_cycle(400)
        gc.collect()
        start = time.perf_counter()
        dec = decide(inst)
        elapsed = time.perf_counter() - start
        assert dec.colorable and is_valid_transversal(inst, dec.transversal)
        assert restrict_calls == [("a", 1001)]
        assert elapsed < 1.0

    def test_k2_star(self):
        # A cut vertex in 2,000 blocks: each block's work must stay local.
        inst, _ = _k2_star(2000)
        dec = decide(inst)
        assert dec.obstructed and verify_certificate(inst, dec.certificate)
        near = _drop_first_pair(inst)
        dec = decide(near)
        assert dec.colorable and is_valid_transversal(near, dec.transversal)

    def test_cut_vertex_work_stays_local(self):
        # Each block reads only its own edge's pairs; a scan of the centre's
        # whole list per block made this star take seconds.
        inst, _ = _k2_star(2000)
        gc.collect()  # collect earlier tests' garbage now, not inside the timed region
        start = time.perf_counter()
        assert decide(inst).obstructed
        assert time.perf_counter() - start < 1.5

    def test_scale(self):
        cases = [
            _two_list_path(100_000),
            _drop_first_pair(bad_instance_cnt(10_000, 1)[0]),
            _drop_first_pair(_k2_star(1000)[0]),
            _random_block_tree(300, 2),
            _random_block_tree(3000, 3),
            _crossed_cycle(10_001, 5000),
        ]
        for inst in cases:
            dec = decide(inst)
            assert dec.colorable and is_valid_transversal(inst, dec.transversal)


class TestRestrictionCoherence:
    def test_every_restriction_of_an_obstructed_instance_fails(self):
        # a colorable restriction would lift to a coloring, so every
        # restriction of an obstructed instance must fail
        for inst, cert in (bad_instance_knt(3, 1), bad_instance_cnt(4, 1)):
            assert decide(inst).obstructed
            for u in inst.graph.vertices:
                for c in sorted(inst.lists[u]):
                    sub = restrict(inst, u, c)
                    assert not solve_checked(sub).colorable


@pytest.mark.parametrize(
    "make, error, match",
    [
        (
            lambda: obstruction.pattern_adjacent("Zigzag", 4, (1, 1, 1), (2, 1, 1)),
            ValueError,
            "unknown pattern kind",
        ),
        (lambda: obstruction.block_pattern_kind(BlockKind.other()), ValueError, "Other-shaped"),
        (
            lambda: is_degree_choosable_shape(Multigraph(("a", "b"), {("a", "b"): 2})),
            MultigraphInput,
            "requires a simple graph",
        ),
    ],
    ids=["pattern-kind", "other-block", "multigraph-shape"],
)
def test_pattern_and_shape_refusals(make, error, match):
    with pytest.raises(error, match=match):
        make()


class TestDegreeChoosableShape:
    def test_k4_not_choosable(self):
        assert is_degree_choosable_shape(complete_graph(["a", "b", "c", "d"])) is False

    def test_even_cycle_choosable(self):
        assert is_degree_choosable_shape(cycle_graph(["a", "b", "c", "d"])) is True

    def test_odd_cycle_not_choosable(self):
        assert is_degree_choosable_shape(cycle_graph(list("abcde"))) is False

    def test_two_triangles_not_choosable(self):
        g = Multigraph.from_pairs(
            "abcde",
            [("a", "b"), ("b", "c"), ("a", "c"), ("c", "d"), ("d", "e"), ("c", "e")],
        )
        assert is_degree_choosable_shape(g) is False

    def test_diamond_choosable(self):
        g = Multigraph.from_pairs(
            "abcd", [("a", "b"), ("b", "c"), ("c", "d"), ("a", "d"), ("a", "c")]
        )
        assert is_degree_choosable_shape(g) is True

    def test_shape_matches_solver_on_k_lists(self):
        # shape says "not degree-choosable" iff some degree-list assignment
        # fails; spot-check via identity matchings on equal lists
        for g in (complete_graph(["a", "b", "c"]), cycle_graph(list("abcde"))):
            lists = {u: set(range(1, g.degree(u) + 1)) for u in g.vertices}
            inst = from_list_instance(g, lists)
            assert not solve_checked(inst).colorable
            assert is_degree_choosable_shape(g) is False
