"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; the whole suite targets a laptop-scale budget.
"""

import random
from itertools import combinations_with_replacement, product

from dpcover import (
    BadBlockSpec,
    BlockKind,
    DPInstance,
    HNT,
    Multigraph,
    all_positive,
    bad_assignment,
    bad_instance_cnt,
    bad_instance_knt,
    cartesian_product,
    complete_graph,
    cycle_graph,
    decide,
    degeneracy_order,
    dp_chromatic_number_small,
    from_k_coloring,
    glue_bad,
    greedy_color,
    is_valid_transversal,
    make_pattern,
    n_k,
    product_vertex,
    random_matching,
    restrict,
    signed_to_dp,
    solve,
    solve_signed,
    switch,
    verify_certificate,
    SignedGraph,
)
from dpcover.solver import _search
from tests.enumeration import connected_multigraphs_upto_iso
from tests.oracles import signed_coloring_brute, solve_checked


def _report(n: int, name: str) -> None:
    print(f"ACCEPTANCE criterion {n} ({name}): PASS")


def _fig1_pair():
    g = cycle_graph(["a", "b", "c", "d"])
    left = from_k_coloring(g, 2)
    matching = dict(left.matching)
    matching[("a", "d")] = frozenset({(1, 2), (2, 1)})
    return left, DPInstance(g, left.lists, matching)


def test_criterion_1_figure_one_reproduction():
    left, right = _fig1_pair()
    assert solve_checked(left).colorable
    assert not solve_checked(right).colorable
    left_dec = decide(left)
    assert left_dec.colorable
    assert is_valid_transversal(left, left_dec.transversal)
    right_dec = decide(right)
    assert right_dec.obstructed
    (bc,) = right_dec.certificate.blocks
    assert bc.kind == BlockKind.cycle(4, 1)
    assert bc.kind.n % 2 == 0  # even cycle: the pattern is the fat Moebius ladder
    assert verify_certificate(right, right_dec.certificate)
    _report(1, "figure-one reproduction")


def test_criterion_2_dp_chromatic_of_even_cycles():
    c4 = cycle_graph(["a", "b", "c", "d"])
    assert dp_chromatic_number_small(c4, 3) == 3

    # exhaustive sweep at t = 2: the non-colorable assignments are exactly
    # those whose four matchings are perfect with an odd number of swaps
    identity = frozenset({(1, 1), (2, 2)})
    swap = frozenset({(1, 2), (2, 1)})
    partials = [
        frozenset(),
        frozenset({(1, 1)}),
        frozenset({(1, 2)}),
        frozenset({(2, 1)}),
        frozenset({(2, 2)}),
        identity,
        swap,
    ]
    edges = c4.pairs()
    lists = {u: frozenset({1, 2}) for u in c4.vertices}
    checked = 0
    for assignment in product(partials, repeat=len(edges)):
        inst = DPInstance(c4, lists, dict(zip(edges, assignment)))
        moebius_class = all(m in (identity, swap) for m in assignment) and (
            sum(1 for m in assignment if m == swap) % 2 == 1
        )
        assert _search(inst).colorable == (not moebius_class)
        checked += 1
    assert checked == 7 ** 4
    _report(2, "dp-chromatic number of even cycles")


def test_criterion_3_characterization_iff_equivalence():
    graphs = connected_multigraphs_upto_iso(5, 8)
    assert len(graphs) > 500
    instances_checked = 0
    for gi, g in enumerate(graphs):
        lists = {u: frozenset(range(1, g.degree(u) + 1)) for u in g.vertices}
        batch = []
        try:
            bad, cert = bad_assignment(g)
            assert verify_certificate(bad, cert)
            batch.append(bad)
        except ValueError:
            pass  # some block is neither a complete nor a cycle power
        for s in range(200):
            matching = random_matching(g, lists, seed=gi * 1000 + s, density=1.0)
            batch.append(DPInstance(g, lists, matching))
        for inst in batch:
            instances_checked += 1
            colorable = _search(inst).colorable
            decision = decide(inst)
            assert decision.obstructed == (not colorable), (gi, inst)
            if decision.colorable:
                assert is_valid_transversal(inst, decision.transversal)
            else:
                assert verify_certificate(inst, decision.certificate)
    assert instances_checked > 100_000
    _report(3, f"degree-list characterization iff, {instances_checked} instances")


def test_criterion_4_certificate_soundness():
    outputs = []
    for t in (1, 2):
        for n in (2, 3, 4, 5):
            outputs.append(bad_instance_knt(n, t))
        for n in (4, 5):
            outputs.append(bad_instance_cnt(n, t))
    catalog = [
        ("Knt", 2, 1),
        ("Knt", 2, 2),
        ("Knt", 3, 1),
        ("Knt", 3, 2),
        ("Knt", 4, 1),
        ("Knt", 4, 2),
        ("Knt", 5, 1),
        ("Knt", 5, 2),
        ("Cnt", 4, 1),
        ("Cnt", 4, 2),
        ("Cnt", 5, 1),
        ("Cnt", 5, 2),
    ]
    for a, b in combinations_with_replacement(catalog, 2):
        outputs.append(glue_bad([BadBlockSpec(*a), BadBlockSpec(*b, attach=(0, 1))]))
    small = [("Knt", 2, 1), ("Knt", 3, 1), ("Knt", 4, 2), ("Cnt", 4, 1), ("Cnt", 5, 2)]
    for combo in combinations_with_replacement(small, 3):
        a, b, c = combo
        outputs.append(
            glue_bad(  # chain: three blocks along distinct cut vertices
                [
                    BadBlockSpec(*a),
                    BadBlockSpec(*b, attach=(0, 1)),
                    BadBlockSpec(*c, attach=(1, 2)),
                ]
            )
        )
        outputs.append(
            glue_bad(  # star: all three blocks share one cut vertex
                [
                    BadBlockSpec(*a),
                    BadBlockSpec(*b, attach=(0, 1)),
                    BadBlockSpec(*c, attach=(0, 1)),
                ]
            )
        )
    for inst, cert in outputs:
        assert verify_certificate(inst, cert)
        assert not _search(inst).colorable
    _report(4, f"certificate soundness over {len(outputs)} generated instances")


def _random_degenerate_graph(rng: random.Random, k: int, n: int) -> Multigraph:
    names = [f"v{i:02d}" for i in range(n)]
    mult = {}
    for i in range(1, n):
        budget = rng.randint(1, k)
        while budget:
            j = rng.randrange(i)
            take = rng.randint(1, budget)
            key = (names[j], names[i])
            mult[key] = mult.get(key, 0) + take
            budget -= take
    return Multigraph(tuple(names), mult)


def test_criterion_5_greedy_degeneracy_guarantee():
    successes = 0
    for seed in range(1000):
        rng = random.Random(seed)
        k = seed % 3 + 1
        n = rng.randint(2, 12)
        g = _random_degenerate_graph(rng, k, n)
        lists = {u: frozenset(range(1, k + 2)) for u in g.vertices}
        inst = DPInstance(g, lists, random_matching(g, lists, seed, 1.0))
        res = greedy_color(inst, degeneracy_order(g))
        assert res.colorable, (seed, inst)
        assert is_valid_transversal(inst, res.transversal)
        successes += 1
    assert successes == 1000
    _report(5, "greedy coloring of degenerate graphs, 1000/1000")


def test_criterion_6_restriction_lift():
    lifted = 0
    seed = 0
    while lifted < 200:
        seed += 1
        rng = random.Random(10_000 + seed)
        g = _random_degenerate_graph(rng, rng.randint(1, 3), rng.randint(2, 7))
        lists = {
            u: frozenset(range(1, g.degree(u) + rng.randint(1, 2) + 1))
            for u in g.vertices
        }
        inst = DPInstance(g, lists, random_matching(g, lists, seed, 1.0))
        res = solve(inst)
        if not res.colorable:
            continue
        u = sorted(g.vertices)[rng.randrange(len(g.vertices))]
        c = res.transversal[u]
        sub = restrict(inst, u, c)
        sub_res = solve(sub)
        assert sub_res.colorable
        transversal = dict(sub_res.transversal)
        transversal[u] = c
        assert is_valid_transversal(inst, transversal)
        lifted += 1
    _report(6, "restriction lift on 200 colorable instances")


def _one_negative(g: Multigraph) -> SignedGraph:
    first = g.pairs()[0]
    signs = {
        p: tuple(-1 if (p == first and i == 0) else 1 for i in range(m))
        for p, m in g.mult.items()
    }
    return SignedGraph(g, signs)


def test_criterion_7_signed_brooks_desk_check():
    def degree_lists(g):
        return {u: n_k(g.degree(u)).colors for u in g.vertices}

    not_colorable = []
    for n in (2, 3, 4):
        kn = complete_graph([f"v{i}" for i in range(n)])
        not_colorable.append(all_positive(kn))
        not_colorable.append(switch(all_positive(kn), kn.vertices[0]))
    for n in (3, 5):
        not_colorable.append(all_positive(cycle_graph([f"v{i}" for i in range(n)])))
    not_colorable.append(_one_negative(cycle_graph(list("abcd"))))

    colorable = [
        _one_negative(cycle_graph(list("abc"))),
        _one_negative(cycle_graph(list("abcde"))),
        all_positive(cycle_graph(list("abcd"))),
    ]

    for s in not_colorable:
        inst = signed_to_dp(s, degree_lists(s.graph))
        assert not solve_checked(inst).colorable
        assert decide(inst).obstructed
    for s in colorable:
        inst = signed_to_dp(s, degree_lists(s.graph))
        decision = decide(inst)
        assert decision.colorable
        assert is_valid_transversal(inst, decision.transversal)

    # brute-force signed enumeration agrees on every case, k <= 3
    for s in not_colorable + colorable:
        assert len(s.graph.vertices) <= 5
        for k in (1, 2, 3):
            lists = {u: n_k(k).colors for u in s.graph.vertices}
            brute = signed_coloring_brute(s, lists)
            assert solve_signed(s, k).colorable == (brute is not None)
    _report(7, "signed Brooks-type desk check")


def test_criterion_8_pattern_product_identity():
    for n in (2, 3, 4, 5):
        pattern = make_pattern(HNT, n, 1)
        prod = cartesian_product(
            complete_graph([str(i) for i in range(1, n + 1)]),
            complete_graph([str(j) for j in range(1, n)]),
        )
        mapped = {
            tuple(
                sorted(
                    (product_vertex(str(i), str(j)), product_vertex(str(i2), str(j2)))
                )
            )
            for (i, j, _), (i2, j2, _) in pattern.edges
        }
        assert mapped == set(prod.pairs())
        assert len(pattern.nodes) == len(prod.vertices)
    _report(8, "complete-block pattern is a product of cliques")
