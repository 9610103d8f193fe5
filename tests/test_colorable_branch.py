"""decide's colorable branch (cases 1 and 2) and the greedy behind it read
the adjacency index once per vertex; these tests pin their answers against
a frozen copy of the earlier branch in tests/oracles.py: the same
transversal in the same key order, the same case-2 pick and the same greedy
result, stuck witness included.
"""

import random

import dpcover.obstruction as obstruction
from dpcover import (
    DPInstance,
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
