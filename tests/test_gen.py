"""Generators: blow-ups, canonical bad instances, gluing, random matchings."""

import random
from collections import Counter

import pytest

from dpcover import (
    BadBlockSpec,
    BlockKind,
    DPInstance,
    EmptyGraph,
    FAT_LADDER,
    Multigraph,
    bad_assignment,
    bad_instance_cnt,
    bad_instance_knt,
    blocks,
    blow_up,
    cartesian_product,
    complete_graph,
    cycle_graph,
    decide,
    from_list_instance,
    glue_bad,
    make_pattern,
    path_graph,
    random_matching,
    validate,
    verify_certificate,
)
from dpcover.gen import blow_up_vertex
from dpcover.multigraph import CNT, KNT, edge_power
from dpcover.serialize import certificate_to_json, dumps, instance_to_json
from tests.oracles import (
    reference_bad_assignment,
    reference_bad_instance,
    reference_glue_bad,
    reference_random_matching,
    solve_checked,
)


class TestBlowUp:
    def test_identity(self):
        g = cycle_graph(["a", "b", "c", "d"])
        b = blow_up(g, 1)
        relabel = {blow_up_vertex(u, 1): u for u in g.vertices}
        assert {tuple(sorted((relabel[u], relabel[v]))) for u, v in b.pairs()} == set(
            g.pairs()
        )

    def test_c4_doubled_counts(self):
        b = blow_up(cycle_graph(["a", "b", "c", "d"]), 2)
        assert len(b.vertices) == 8
        assert b.total_multiplicity() == 20

    def test_k1_becomes_clique(self):
        b = blow_up(Multigraph(("a",), {}), 3)
        assert len(b.vertices) == 3
        assert b.total_multiplicity() == 3

    @pytest.mark.parametrize("n,t", [(3, 1), (4, 2), (5, 2)])
    def test_matches_fat_ladder_pattern(self, n, t):
        ladder = cartesian_product(
            cycle_graph([f"{i}" for i in range(1, n + 1)]),
            complete_graph(["1", "2"]),
        )
        blown = blow_up(ladder, t)
        pattern = make_pattern(FAT_LADDER, n, t)
        mapping = {}
        for i in range(1, n + 1):
            for j in (1, 2):
                for k in range(1, t + 1):
                    mapping[(i, j, k)] = blow_up_vertex(f"({i},{j})", k)
        mapped = {
            tuple(sorted((mapping[p], mapping[q]))) for p, q in pattern.edges
        }
        assert mapped == set(blown.pairs())

    def test_rejects_multigraph(self):
        with pytest.raises(ValueError):
            blow_up(Multigraph(("a", "b"), {("a", "b"): 2}), 2)


class TestBadInstances:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    @pytest.mark.parametrize("t", [1, 2])
    def test_knt_not_colorable_and_verified(self, n, t):
        inst, cert = bad_instance_knt(n, t)
        assert validate(inst) == []
        assert verify_certificate(inst, cert)
        assert not solve_checked(inst).colorable
        assert decide(inst).obstructed

    @pytest.mark.parametrize("n", [4, 5])
    @pytest.mark.parametrize("t", [1, 2])
    def test_cnt_not_colorable_and_verified(self, n, t):
        inst, cert = bad_instance_cnt(n, t)
        assert validate(inst) == []
        assert verify_certificate(inst, cert)
        assert not solve_checked(inst).colorable

    def test_knt_3_1_matches_equal_list_triangle(self):
        inst, _ = bad_instance_knt(3, 1)
        plain = from_list_instance(
            complete_graph(list(inst.graph.vertices)), {u: {1, 2} for u in inst.graph.vertices}
        )
        assert inst.matching == plain.matching

    def test_knt_2_2_is_complete_four_cover(self):
        inst, _ = bad_instance_knt(2, 2)
        assert inst.graph.mult == {("u1", "u2"): 2}
        assert inst.matching[("u1", "u2")] == frozenset(
            {(1, 1), (1, 2), (2, 1), (2, 2)}
        )

    def test_cnt_4_1_matches_fig1_right_shape(self):
        inst, cert = bad_instance_cnt(4, 1)
        assert all(len(cs) == 2 for cs in inst.lists.values())
        # one crossed pair, three straight, in some rotation
        crossings = sum(
            1
            for prs in inst.matching.values()
            if any(a != b for a, b in prs)
        )
        assert crossings == 1

    def test_cnt_5_1_straight_ladder(self):
        inst, _ = bad_instance_cnt(5, 1)
        assert all(all(a == b for a, b in prs) for prs in inst.matching.values())
        assert not solve_checked(inst).colorable

    def test_triangle_redirects(self):
        with pytest.raises(ValueError, match="knt"):
            bad_instance_cnt(3, 1)

    def test_range_validation(self):
        with pytest.raises(ValueError):
            bad_instance_knt(1, 1)
        with pytest.raises(ValueError):
            bad_instance_cnt(4, 0)

    @pytest.mark.parametrize(
        "make, kind, n, t",
        [
            (bad_instance_knt, "Knt", 1, 1),
            (bad_instance_knt, "Knt", 3, 0),
            (bad_instance_cnt, "Cnt", 2, 1),
            (bad_instance_cnt, "Cnt", 5, 0),
        ],
    )
    def test_ranges_are_the_block_spec_ranges(self, make, kind, n, t):
        with pytest.raises(ValueError) as spec_error:
            BadBlockSpec(kind, n, t)
        with pytest.raises(ValueError) as make_error:
            make(n, t)
        assert str(make_error.value) == str(spec_error.value)


class TestGlueBad:
    def test_two_bridges_make_the_path_example(self):
        inst, cert = glue_bad(
            [BadBlockSpec("Knt", 2, 1), BadBlockSpec("Knt", 2, 1, (0, 2))]
        )
        assert len(inst.graph.vertices) == 3
        assert not solve_checked(inst).colorable
        assert verify_certificate(inst, cert)
        cut = [u for u in inst.graph.vertices if inst.graph.degree(u) == 2][0]
        assert len(inst.lists[cut]) == 2

    def test_triangle_plus_square(self):
        inst, cert = glue_bad(
            [BadBlockSpec("Knt", 3, 1), BadBlockSpec("Cnt", 4, 1, (0, 1))]
        )
        assert len(inst.graph.vertices) == 6
        assert verify_certificate(inst, cert)
        assert not solve_checked(inst).colorable
        assert decide(inst).obstructed

    def test_star_of_three_blocks(self):
        inst, cert = glue_bad(
            [
                BadBlockSpec("Knt", 2, 1),
                BadBlockSpec("Knt", 3, 1, (0, 1)),
                BadBlockSpec("Cnt", 4, 1, (0, 1)),
            ]
        )
        assert verify_certificate(inst, cert)
        assert not solve_checked(inst).colorable
        hub = "b0v1"
        assert len(inst.lists[hub]) == inst.graph.degree(hub) == 5

    def test_single_block_delegates(self):
        inst, cert = glue_bad([BadBlockSpec("Knt", 4, 2)])
        ref, _ = bad_instance_knt(4, 2)
        renamed = {
            tuple(f"b0v{u[1:]}" for u in p): prs for p, prs in ref.matching.items()
        }
        assert inst.matching == renamed
        assert verify_certificate(inst, cert)

    def test_plan_validation(self):
        with pytest.raises(ValueError):
            glue_bad([BadBlockSpec("Knt", 2, 1, (0, 1))])
        with pytest.raises(ValueError):
            glue_bad([BadBlockSpec("Knt", 2, 1), BadBlockSpec("Knt", 2, 1, (1, 1))])
        with pytest.raises(ValueError):
            glue_bad([BadBlockSpec("Knt", 2, 1), BadBlockSpec("Knt", 2, 1, (0, 9))])
        with pytest.raises(ValueError):
            BadBlockSpec("Cnt", 3, 1)

    @pytest.mark.parametrize("seed", range(40))
    def test_blocks_share_no_edge(self, seed):
        """Each later block shares only its first vertex with earlier ones, so
        every block edge is new: the multiplicities add up and every spec is
        one block of the glued graph."""
        rng = random.Random(seed)
        specs = []
        for i in range(rng.randint(1, 8)):
            kind = rng.choice(["Knt", "Cnt"])
            n = rng.randint(2, 5) if kind == "Knt" else rng.randint(4, 7)
            attach = None
            if i:
                parent = rng.randrange(i)
                attach = (parent, rng.randint(1, specs[parent].n))
            specs.append(BadBlockSpec(kind, n, rng.randint(1, 3), attach))
        inst, _ = glue_bad(specs)
        assert inst.graph.total_multiplicity() == sum(
            s.t * (s.n * (s.n - 1) // 2 if s.kind == "Knt" else s.n) for s in specs
        )
        dec = blocks(inst.graph)
        assert len(dec.blocks) == len(specs)
        assert Counter(dec.kinds) == Counter(BlockKind(s.kind, s.n, s.t) for s in specs)

    def test_bad_assignment_rejects_other_shapes(self):
        g = Multigraph.from_pairs(
            "abcd", [("a", "b"), ("b", "c"), ("c", "d"), ("a", "d"), ("a", "c")]
        )
        with pytest.raises(ValueError):
            bad_assignment(g)


def _assert_same_output(got, want):
    """Equal instances and certificates with the same canonical JSON and the
    same key orders, and both pass validate and verify_certificate."""
    (inst, cert), (ref, ref_cert) = got, want
    assert inst == ref and cert == ref_cert
    assert dumps(instance_to_json(inst)) == dumps(instance_to_json(ref))
    assert dumps(certificate_to_json(cert)) == dumps(certificate_to_json(ref_cert))
    assert inst.graph.vertices == ref.graph.vertices
    for mine, theirs in ((inst.graph.mult, ref.graph.mult), (inst.lists, ref.lists), (inst.matching, ref.matching)):
        assert list(mine) == list(theirs)
    for bc, ref_bc in zip(cert.blocks, ref_cert.blocks):
        assert list(bc.positions) == list(ref_bc.positions)
        assert list(bc.labels) == list(ref_bc.labels)
        assert [list(lab) for lab in bc.labels.values()] == [list(lab) for lab in ref_bc.labels.values()]
        assert bc.vertex_set == ref_bc.vertex_set
    assert validate(inst) == []
    assert verify_certificate(inst, cert)


def _assert_undecomposed(inst):
    """Fresh from a generator: no block decomposition, validation not yet run."""
    assert "_blocks" not in inst.graph.__dict__
    assert "_violations" not in inst.__dict__


def _random_plan(rng):
    """A K_2 chain, or a random tree of K_n^t and C_n^t blocks."""
    if rng.random() < 0.25:
        t = rng.randint(1, 3)
        return [BadBlockSpec(KNT, 2, t)] + [
            BadBlockSpec(KNT, 2, t, (i, 2)) for i in range(rng.randint(1, 11))
        ]
    specs = []
    for i in range(rng.randint(1, 9)):
        attach = None
        if i:
            parent = rng.randrange(i)
            attach = (parent, rng.randint(1, specs[parent].n))
        if rng.random() < 0.6:
            specs.append(BadBlockSpec(KNT, rng.choice((2, 2, 3, 3, 4, 5)), rng.randint(1, 3), attach))
        else:
            specs.append(BadBlockSpec(CNT, rng.choice((4, 4, 5, 6, 7, 10, 11)), rng.randint(1, 3), attach))
    return specs


class TestAssembler:
    """The generators build each block from its plan, without decomposing
    the graph: their output is the earlier path's, byte for byte, which
    read the blocks off the graph and built through the public constructors."""

    @pytest.mark.parametrize("t", [1, 2, 3])
    @pytest.mark.parametrize("n", range(2, 13))
    def test_knt_and_cnt_match_the_reference(self, n, t):
        made = [(KNT, bad_instance_knt)] + ([(CNT, bad_instance_cnt)] if n >= 4 else [])
        for kind, make in made:
            got = make(n, t)
            _assert_undecomposed(got[0])
            _assert_same_output(got, reference_bad_instance(kind, n, t))

    @pytest.mark.parametrize(
        "g",
        [
            Multigraph(("v",), {}),
            Multigraph(("a", "b"), {("a", "b"): 3}),
            edge_power(complete_graph(["z", "m", "a"]), 2),
            edge_power(cycle_graph(["e", "a", "d", "b", "c"]), 2),
            cycle_graph([f"w{i}" for i in (3, 11, 7, 1, 20, 2)]),
            Multigraph.from_pairs("abcde", ["ab", "bc", "ac", "cd", "de", "ce"]),
            Multigraph.from_pairs("pqrstu", ["pq", "qr", "rs", "st", "pt", "tu"]),
            path_graph(["p10", "p2", "p1", "p30", "p3"]),
            edge_power(blow_up(path_graph(["a", "b"]), 2), 3),
        ],
        ids=["k1", "k2-mult3", "triangle-t2", "c5-t2", "c6-renamed", "bowtie", "c5-pendant", "path", "k4-t3"],
    )
    def test_bad_assignment_matches_the_reference(self, g):
        got = bad_assignment(g)
        assert got[0].graph is g
        _assert_same_output(got, reference_bad_assignment(g))

    @pytest.mark.parametrize("seed", range(8))
    def test_glue_bad_matches_the_reference(self, seed):
        rng = random.Random(seed)
        seen = set()
        for _ in range(30):
            specs = _random_plan(rng)
            got = glue_bad(specs)
            _assert_undecomposed(got[0])
            _assert_same_output(got, reference_glue_bad(specs))
            seen.update((s.kind, s.n) for s in specs)
            seen.update("mult" for s in specs if s.t > 1)
            if len(specs) > 2 and all((s.kind, s.n) == (KNT, 2) for s in specs):
                seen.add("chain")
        assert {(KNT, 2), (KNT, 3), (CNT, 4), "mult", "chain"} <= seen

    def test_random_matching_draws_are_unchanged(self):
        rng = random.Random(4)
        graphs = [Multigraph(("a", "b", "z"), {("a", "b"): 2})]  # z has no edge and no list
        graphs += [glue_bad(_random_plan(rng))[0].graph for _ in range(40)]
        for seed, g in enumerate(graphs):
            lists = {u: frozenset(rng.sample(range(1, 30), rng.randint(0, 6))) for u in g.vertices if g.degree(u)}
            for density in (0.0, 0.4, 1.0):
                got = random_matching(g, lists, seed, density)
                want = reference_random_matching(g, lists, seed, density)
                assert got == want and list(got) == list(want)


@pytest.mark.parametrize(
    "make, error, match",
    [
        (lambda: cycle_graph(["a", "b"]), ValueError, "at least 3 vertices"),
        (lambda: blow_up(path_graph(["a", "b"]), 0), ValueError, "t must be >= 1"),
        (lambda: BadBlockSpec("Pnt", 3, 1), ValueError, "kind must be"),
        (lambda: glue_bad([]), EmptyGraph, "at least one block spec"),
        (
            lambda: glue_bad([BadBlockSpec("Knt", 2, 1), BadBlockSpec("Knt", 3, 1)]),
            ValueError,
            "block 1 must attach to an earlier block",
        ),
    ],
    ids=["short-cycle", "blow-up-t0", "bad-kind", "empty-plan", "unattached-block"],
)
def test_generators_refuse_bad_arguments(make, error, match):
    with pytest.raises(error, match=match):
        make()


class TestRandomMatching:
    def test_density_zero_is_empty(self):
        g = cycle_graph(["a", "b", "c", "d"])
        lists = {u: frozenset({1, 2}) for u in g.vertices}
        m = random_matching(g, lists, 42, 0.0)
        assert all(prs == frozenset() for prs in m.values())

    def test_deterministic_per_seed(self):
        g = complete_graph(["a", "b", "c", "d"])
        lists = {u: frozenset(range(1, 5)) for u in g.vertices}
        assert random_matching(g, lists, 42, 0.8) == random_matching(g, lists, 42, 0.8)
        assert random_matching(g, lists, 42, 0.8) != random_matching(g, lists, 43, 0.8)

    def test_capacity_respected_over_many_draws(self):
        g = Multigraph(
            ("a", "b", "c"), {("a", "b"): 3, ("b", "c"): 2, ("a", "c"): 1}
        )
        lists = {u: frozenset(range(1, 6)) for u in g.vertices}
        for seed in range(1000):
            m = random_matching(g, lists, seed, 1.0)
            inst = DPInstance(g, lists, m)
            assert validate(inst) == []

    def test_density_bounds(self):
        g = cycle_graph(["a", "b", "c", "d"])
        lists = {u: frozenset({1}) for u in g.vertices}
        with pytest.raises(ValueError):
            random_matching(g, lists, 0, 1.5)
