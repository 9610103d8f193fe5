"""decide's colorable branch (cases 1 and 2) and the greedy behind it read
the adjacency index once per vertex; these tests pin their answers against
a frozen copy of the earlier branch in tests/oracles.py: the same
transversal in the same key order, the same case-2 pick and the same greedy
result, stuck witness included.
"""

import random

import pytest

import dpcover.obstruction as obstruction
from dpcover import (
    DPInstance,
    Multigraph,
    bad_instance_cnt,
    bad_instance_knt,
    blocks,
    decide,
    glue_bad,
    greedy_color,
    path_graph,
    random_matching,
)
from tests.oracles import (
    reference_decide_transversal,
    reference_extend_greedily,
    reference_leftover_pick,
)
from tests.test_candidate_replay import walk_instances
from tests.test_certificate_search import relabeled
from tests.test_solver import random_degenerate_graph
from tests.test_wire_reference import random_tree


def drop_one_pair(rng, inst):
    """The instance with one random matched pair removed."""
    matching = dict(inst.matching)
    key = rng.choice([p for p, prs in matching.items() if prs])
    pairs = sorted(matching[key])
    pairs.pop(rng.randrange(len(pairs)))
    matching[key] = frozenset(pairs)
    return DPInstance(inst.graph, inst.lists, matching)


def path_two_lists(rng, n):
    """P_n with random 2-lists and a random perfect matching on every edge."""
    names = [f"p{i:03d}" for i in range(n)]
    g = path_graph(names)
    lists = {u: frozenset(rng.sample(range(1, 10), 2)) for u in names}
    matching = {}
    for u, v in g.pairs():
        b = sorted(lists[v])
        rng.shuffle(b)
        matching[(u, v)] = frozenset(zip(sorted(lists[u]), b))
    return DPInstance(g, lists, matching)


def random_matching_tree(rng, n_blocks):
    """Exact-degree lists on a random block tree with random matchings and
    one edge left without pairs."""
    inst = glue_bad(random_tree(rng, n_blocks))[0]
    matching = random_matching(inst.graph, inst.lists, rng.randrange(2**31), 1.0)
    matching[rng.choice(sorted(matching))] = frozenset()
    return DPInstance(inst.graph, inst.lists, matching)


def colorable_instances():
    """Certificate-free instances of the four colorable families: 2-list
    paths, near-bad C_n^t and K_n^t (one pair removed), near-bad random
    block trees and random-matching block trees; every other one has its
    lists' colors renamed per vertex."""
    rng = random.Random(2024)
    bases = []
    for n in (2, 3, 4, 7, 12, 25, 40):
        bases += [path_two_lists(rng, n) for _ in range(4)]
    for n in (4, 5, 6, 9, 20):
        for t in (1, 2, 3):
            bases += [drop_one_pair(rng, bad_instance_cnt(n, t)[0]) for _ in range(2)]
    for n in (2, 3, 4, 6):
        for t in (1, 2, 3):
            bases += [drop_one_pair(rng, bad_instance_knt(n, t)[0]) for _ in range(2)]
    for n_blocks in (2, 3, 5, 8):
        bases += [drop_one_pair(rng, glue_bad(random_tree(rng, n_blocks))[0]) for _ in range(6)]
        bases += [random_matching_tree(rng, n_blocks) for _ in range(6)]
    for i, inst in enumerate(bases):
        yield relabeled(inst, i) if i % 2 else inst


def case_of(inst) -> int:
    """Which case of decide's colorable branch answers inst first."""
    walk = obstruction._leaves_first(inst)
    if walk is None:
        return 1
    _, left, (i, p) = walk
    return 2 if reference_leftover_pick(inst, left, blocks(inst.graph).edges[i], p) else 3


class TestColorableBranchMatchesTheFrozenBranch:
    def test_same_transversal_in_the_same_key_order(self):
        cases = {1: 0, 2: 0, 3: 0}
        for inst in colorable_instances():
            want = reference_decide_transversal(inst)
            assert want is not None
            got = decide(inst).transversal
            assert list(got.items()) == list(want.items())
            cases[case_of(inst)] += 1
        assert cases[1] > 25 and cases[2] > 100, cases

    def test_same_leftover_pick_on_every_failing_walk(self):
        outcomes = {"pick": 0, "none": 0}
        for inst in walk_instances():
            walk = obstruction._leaves_first(inst)
            if walk is None or walk[0] is not None:
                continue
            _, left, (i, p) = walk
            edges = blocks(inst.graph).edges[i]
            want = reference_leftover_pick(inst, left, edges, p)
            assert obstruction._leftover_pick(inst, left, edges, p) == want
            outcomes["pick" if want else "none"] += 1
        assert outcomes["pick"] > 2000 and outcomes["none"] > 5, outcomes

    def test_greedy_color_matches_the_frozen_greedy_on_random_orders(self):
        rng = random.Random(24)
        outcomes = {"colored": 0, "stuck": 0}
        for seed in range(300):
            g = random_degenerate_graph(rng, 3, rng.randint(2, 10))
            lists = {u: frozenset(rng.sample(range(1, 20), rng.randint(1, 4))) for u in g.vertices}
            inst = DPInstance(g, lists, random_matching(g, lists, seed, 1.0))
            order = list(g.vertices)
            rng.shuffle(order)
            picks = {}
            stuck = reference_extend_greedily(inst, reversed(order), picks)
            res = greedy_color(inst, order)
            if stuck is None:
                assert list(res.transversal.items()) == list(picks.items())
            else:
                assert res.transversal is None and res.witness_vertex == stuck
            outcomes["colored" if stuck is None else "stuck"] += 1
        assert min(outcomes.values()) > 50, outcomes


def complete_pairs(xs, ys):
    """Every pair of a color in xs and a color in ys."""
    return {(a, b) for a in xs for b in ys}


def near_bad_cycle_cut_last(n, t):
    """The bad C_n^t with its least pair removed on the last block edge in
    edge order, where case 2 finds the only short ends."""
    inst = bad_instance_cnt(n, t)[0]
    last = blocks(inst.graph).edges[0][-1]
    matching = {**inst.matching, last: frozenset(sorted(inst.matching[last])[1:])}
    return DPInstance(inst.graph, inst.lists, matching)


def triangle_short_at_p(t):
    """A K_3^t on p, x, y hung from p, with a K_2^t from p to the root
    vertex a. Each class of t colors at one vertex joins the same class at
    the next on p-x and x-y, and the other class on p-y, so the walk stops
    at the triangle with every color at x and y full; p keeps t more
    colors, all matched to a, so it is the only short end of its edges."""
    g = Multigraph(("a", "p", "x", "y"), {("a", "p"): t, ("p", "x"): t, ("p", "y"): t, ("x", "y"): t})
    one, two, extra = range(1, t + 1), range(t + 1, 2 * t + 1), range(2 * t + 1, 3 * t + 1)
    lists = {"a": frozenset(one), "p": frozenset(range(1, 3 * t + 1)), "x": frozenset(range(1, 2 * t + 1))}
    lists["y"] = lists["x"]
    straight = complete_pairs(one, one) | complete_pairs(two, two)
    matching = {
        ("a", "p"): complete_pairs(one, extra),
        ("p", "x"): straight,
        ("x", "y"): straight,
        ("p", "y"): complete_pairs(one, two) | complete_pairs(two, one),
    }
    return DPInstance(g, lists, matching)


def diamond_full_at_one_end(t):
    """K_4^t less the edge w-z: each class of t colors at w joins a class
    at x on the first block edge, w-x, which leaves w full and x, of
    degree 3t, short by its third class."""
    pairs = [("w", "x"), ("w", "y"), ("x", "y"), ("x", "z"), ("y", "z")]
    g = Multigraph(("w", "x", "y", "z"), dict.fromkeys(pairs, t))
    lists = {u: frozenset(range(1, g.degree(u) + 1)) for u in g.vertices}
    one, two = range(1, t + 1), range(t + 1, 2 * t + 1)
    matching = {("w", "x"): complete_pairs(one, one) | complete_pairs(two, two)}
    return DPInstance(g, lists, matching)


def failing_walk(inst):
    """The failing block's edges, the walk's left and the p it hangs from."""
    _, left, (i, p) = obstruction._leaves_first(inst)
    return blocks(inst.graph).edges[i], left, p


class TestCaseTwoShortcuts:
    """_leftover_pick reads a block edge between whole lists by its pair
    count alone and counts per color only at an end that falls short; the
    frozen pick counts the pairs inside left on every edge."""

    @pytest.mark.parametrize("t", [1, 2])
    @pytest.mark.parametrize("n", [7, 8])
    def test_short_pair_on_the_last_edge(self, n, t):
        inst = near_bad_cycle_cut_last(n, t)
        edges, left, p = failing_walk(inst)
        got = obstruction._leftover_pick(inst, left, edges, p)
        assert got == reference_leftover_pick(inst, left, edges, p)
        assert got[0] == edges[-1][0]

    @pytest.mark.parametrize("t", [1, 2])
    def test_only_p_is_short(self, t):
        inst = triangle_short_at_p(t)
        edges, left, p = failing_walk(inst)
        assert p == "p" and set(edges) == {("p", "x"), ("p", "y"), ("x", "y")}
        assert len(left["p"]) == 3 * t and all(len(inst.matching[e]) == 2 * t * t for e in edges)
        assert obstruction._leftover_pick(inst, left, edges, p) is None
        assert reference_leftover_pick(inst, left, edges, p) is None

    @pytest.mark.parametrize("t", [1, 2])
    def test_an_edge_full_at_one_end_only(self, t):
        inst = diamond_full_at_one_end(t)
        edges, left, p = failing_walk(inst)
        assert p is None and edges[0] == ("w", "x")
        got = obstruction._leftover_pick(inst, left, edges, p)
        assert got == reference_leftover_pick(inst, left, edges, p)
        assert got[:2] == ("x", 2 * t + 1)

    @pytest.mark.parametrize("t", [1, 2])
    def test_a_full_edge_between_whole_lists_is_not_read(self, t):
        """Each edge's pairs log every pass over them: of the near-bad C_8^t,
        only the last edge, the short one, is read, once, for its per-color
        count; the full edges before it are passed on their pair count."""
        base = near_bad_cycle_cut_last(8, t)
        passes = []

        class Pairs(frozenset):
            def __iter__(self):
                passes.append(self.edge)
                return frozenset.__iter__(self)

        matching = {}
        for key, prs in base.matching.items():
            matching[key] = Pairs(prs)
            matching[key].edge = key
        inst = DPInstance._from_parts(base.graph, dict(base.lists), matching, valid=True)
        edges, left, p = failing_walk(inst)
        passes.clear()
        got = obstruction._leftover_pick(inst, left, edges, p)
        assert got == reference_leftover_pick(base, left, edges, p)
        assert passes == [edges[-1]]
