"""Differential test: the anchored certificate search against an exhaustive
enumeration of every possible certificate, independent of the solver."""

import random
from itertools import permutations

from dpcover import (
    BadBlockSpec,
    DPInstance,
    bad_instance_cnt,
    bad_instance_knt,
    find_certificate,
    glue_bad,
    path_graph,
    random_matching,
)
from tests.enumeration import connected_multigraphs_upto_iso
from tests.oracles import brute_certificate_exists


def found(inst) -> bool:
    return find_certificate(inst) is not None


def boundary_bases():
    return [
        bad_instance_knt(3, 1)[0],
        bad_instance_knt(2, 2)[0],
        bad_instance_cnt(4, 1)[0],
        glue_bad([BadBlockSpec("Knt", 2, 1), BadBlockSpec("Knt", 2, 1, (0, 2))])[0],
    ]


def one_pair_removed(base):
    for key in sorted(base.matching):
        for pair in sorted(base.matching[key]):
            matching = dict(base.matching)
            matching[key] = matching[key] - {pair}
            yield DPInstance(base.graph, base.lists, matching)


def relabeled(base, seed):
    # The same instance with each list's colors renamed among themselves, so
    # that the matchings cross and label order cannot follow color order.
    rng = random.Random(seed)
    perm = {}
    for u in base.graph.vertices:
        colors = sorted(base.lists[u])
        perm[u] = dict(zip(colors, rng.sample(colors, len(colors))))
    matching = {
        (u, v): frozenset((perm[u][a], perm[v][b]) for a, b in prs)
        for (u, v), prs in base.matching.items()
    }
    return DPInstance(base.graph, base.lists, matching)


class TestSearchMatchesExhaustiveEnumeration:
    def test_on_boundary_instances(self):
        for base in boundary_bases():
            assert found(base) and brute_certificate_exists(base)
            for inst in one_pair_removed(base):
                assert found(inst) == brute_certificate_exists(inst)

    def test_oracle_matches_every_label_permutation(self):
        # One k-order per j-class finds exactly what every bijection finds.
        for base in boundary_bases():
            for seed in range(4):
                variant = relabeled(base, seed) if seed else base
                assert brute_certificate_exists(variant)
                for inst in [variant, *one_pair_removed(variant)]:
                    assert brute_certificate_exists(inst) == brute_certificate_exists(
                        inst, labelings=permutations
                    )

    def test_on_the_ambiguous_middle_block(self):
        for cd_pairs, expect in (({(2, 1)}, True), ({(1, 1)}, False)):
            g = path_graph(["a", "b", "c", "d"])
            inst = DPInstance(
                g,
                {
                    "a": frozenset({1}),
                    "b": frozenset({1, 2}),
                    "c": frozenset({1, 2}),
                    "d": frozenset({1}),
                },
                {
                    ("a", "b"): frozenset({(1, 2)}),
                    ("b", "c"): frozenset({(1, 1), (2, 2)}),
                    ("c", "d"): frozenset(cd_pairs),
                },
            )
            assert found(inst) == brute_certificate_exists(inst) == expect

    def test_on_random_small_instances(self):
        rng = random.Random(20_26)
        checked = positives = 0
        for gi, g in enumerate(connected_multigraphs_upto_iso(4, 6)):
            lists = {u: frozenset(range(1, g.degree(u) + 1)) for u in g.vertices}
            for s in range(12):
                inst = DPInstance(
                    g, lists, random_matching(g, lists, rng.randrange(2**32), 1.0)
                )
                mine = found(inst)
                assert mine == brute_certificate_exists(inst), (gi, s)
                checked += 1
                positives += mine
        assert checked > 700
        assert positives > 10  # the sample really contains obstructions
