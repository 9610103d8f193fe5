"""Boundary stress for the decision procedure beyond the acceptance sweep."""

import random
from concurrent.futures import ThreadPoolExecutor

from dpcover import (
    BadBlockSpec,
    DPInstance,
    Multigraph,
    bad_assignment,
    bad_instance_cnt,
    bad_instance_knt,
    decide,
    glue_bad,
    is_valid_transversal,
    random_matching,
    solve,
    verify_certificate,
)
from dpcover.solver import _search
from tests.oracles import solve_checked


def _single_pair_removals(inst):
    """Every instance obtained by deleting exactly one matched pair."""
    for key in sorted(inst.matching):
        for pair in sorted(inst.matching[key]):
            matching = dict(inst.matching)
            matching[key] = matching[key] - {pair}
            yield DPInstance(inst.graph, inst.lists, matching)


class TestPerturbedBadInstances:
    """Bad instances sit exactly on the colorability boundary: removing any
    single matched pair must flip them, and decide must track solve either
    way."""

    def cases(self):
        yield bad_instance_knt(3, 1)[0]
        yield bad_instance_knt(4, 1)[0]
        yield bad_instance_knt(2, 2)[0]
        yield bad_instance_cnt(4, 1)[0]
        yield bad_instance_cnt(5, 1)[0]
        yield bad_instance_cnt(4, 2)[0]
        yield glue_bad(
            [BadBlockSpec("Knt", 3, 1), BadBlockSpec("Cnt", 4, 1, (0, 1))]
        )[0]

    def test_removals_agree_with_solve(self):
        checked = 0
        for base in self.cases():
            assert decide(base).obstructed
            for inst in _single_pair_removals(base):
                checked += 1
                colorable = solve_checked(inst).colorable
                decision = decide(inst)
                assert decision.obstructed == (not colorable)
                if decision.colorable:
                    assert is_valid_transversal(inst, decision.transversal)
        assert checked > 80

    def test_single_block_removals_all_turn_colorable(self):
        # within one exactly-wired block every cross edge is load-bearing
        for base in (bad_instance_knt(3, 1)[0], bad_instance_cnt(4, 1)[0]):
            for inst in _single_pair_removals(base):
                assert solve_checked(inst).colorable


def _random_connected_multigraph(rng: random.Random, n: int, extra: int) -> Multigraph:
    names = [f"v{i:02d}" for i in range(n)]
    mult: dict[tuple[str, str], int] = {}
    for i in range(1, n):
        j = rng.randrange(i)
        key = (names[j], names[i])
        mult[key] = mult.get(key, 0) + 1
    for _ in range(extra):
        i = rng.randrange(n)
        j = rng.randrange(n)
        if i == j:
            continue
        key = (names[min(i, j)], names[max(i, j)])
        mult[key] = mult.get(key, 0) + 1
    return Multigraph(tuple(names), mult)


class TestBeyondTheSweep:
    """The acceptance sweep stops at 5 vertices; the characterization has no
    size limit, so sample larger graphs too."""

    def test_six_to_eight_vertices_random(self):
        checked = 0
        for seed in range(400):
            rng = random.Random(777_000 + seed)
            n = rng.randint(6, 8)
            g = _random_connected_multigraph(rng, n, rng.randint(0, 5))
            lists = {u: frozenset(range(1, g.degree(u) + 1)) for u in g.vertices}
            inst = DPInstance(g, lists, random_matching(g, lists, seed, 1.0))
            colorable = _search(inst).colorable
            decision = decide(inst)
            assert decision.obstructed == (not colorable), seed
            checked += 1
        assert checked == 400

    def test_bad_assignments_on_larger_block_trees(self):
        for seed in range(60):
            rng = random.Random(888_000 + seed)
            # random tree of 3..5 blocks
            specs = [self._random_spec(rng, None)]
            for i in range(1, rng.randint(3, 5)):
                parent = rng.randrange(i)
                pos = rng.randint(1, specs[parent].n)
                specs.append(self._random_spec(rng, (parent, pos)))
            inst, cert = glue_bad(specs)
            assert verify_certificate(inst, cert)
            assert decide(inst).obstructed
            found = decide(inst).certificate
            assert verify_certificate(inst, found)

    @staticmethod
    def _random_spec(rng, attach):
        if rng.random() < 0.6:
            return BadBlockSpec("Knt", rng.randint(2, 4), rng.randint(1, 2), attach)
        return BadBlockSpec("Cnt", rng.randint(4, 5), 1, attach)


class TestConcurrentReads:
    def test_shared_instances_across_threads(self):
        # values are immutable; parallel solves must agree with serial ones
        base = []
        for seed in range(16):
            rng = random.Random(seed)
            g = _random_connected_multigraph(rng, 5, 3)
            lists = {u: frozenset(range(1, g.degree(u) + 1)) for u in g.vertices}
            base.append(DPInstance(g, lists, random_matching(g, lists, seed, 1.0)))
        serial = [solve(inst).transversal for inst in base]
        with ThreadPoolExecutor(max_workers=8) as pool:
            parallel = list(pool.map(lambda i: solve(i).transversal, base * 4))
        assert parallel == serial * 4
