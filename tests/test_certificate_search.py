"""Differential test: the leaves-first certificate derivation against an
exhaustive enumeration of every possible certificate, independent of the
solver."""

import random
from collections import Counter
from itertools import permutations

import pytest

import dpcover.obstruction as obstruction

from dpcover import (
    OTHER,
    BadBlockSpec,
    DPInstance,
    bad_assignment,
    bad_instance_cnt,
    bad_instance_knt,
    blocks,
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
        # Half the instances are relabeled, so that a certificate's j-classes
        # need not follow color order. Random matchings obstruct only blocks
        # with one j-class (K_1 and K_2^t), so every graph whose blocks are
        # all complete or cycle powers also brings its canonical obstruction,
        # relabeled: an oracle that tried only the color-order j-classes
        # passed the sweep without them.
        rng = random.Random(20_26)
        checked = positives = 0
        for gi, g in enumerate(connected_multigraphs_upto_iso(4, 6)):
            lists = {u: frozenset(range(1, g.degree(u) + 1)) for u in g.vertices}
            cases = [
                DPInstance(g, lists, random_matching(g, lists, rng.randrange(2**32), 1.0))
                for _ in range(12)
            ]
            cases = [relabeled(inst, gi * 12 + s) if s % 2 else inst for s, inst in enumerate(cases)]
            if all(kind.shape != OTHER for kind in blocks(g).kinds):
                cases.append(relabeled(bad_assignment(g)[0], gi))
            for s, inst in enumerate(cases):
                mine = found(inst)
                assert mine == brute_certificate_exists(inst), (gi, s)
                checked += 1
                positives += mine
        assert checked > 700
        assert positives > 10  # the sample really contains obstructions


def with_extra_pairs(inst, rng, count):
    """``inst`` with up to ``count`` more matched pairs, each between two
    colors that still have spare capacity on their edge. A bad block's own
    colors are saturated on its edges, so in a glued tree every extra pair
    joins colors of other blocks' parts at two adjacent cut vertices."""
    g = inst.graph
    matching = {key: set(prs) for key, prs in inst.matching.items()}
    for _ in range(count):
        options = []
        for (u, v), prs in sorted(matching.items()):
            mu = g.mult[(u, v)]
            free_u = [a for a in sorted(inst.lists[u]) if sum(x == a for x, _ in prs) < mu]
            free_v = [b for b in sorted(inst.lists[v]) if sum(y == b for _, y in prs) < mu]
            options += [((u, v), (a, b)) for a in free_u for b in free_v]
        if not options:
            break
        key, pair = rng.choice(options)
        matching[key].add(pair)
    return DPInstance(g, inst.lists, {key: frozenset(prs) for key, prs in matching.items()})


MIDDLE = [("Knt", 2, 1), ("Knt", 2, 2), ("Knt", 3, 1), ("Cnt", 4, 1)]
LEAVES = [("Knt", 2, 1), ("Knt", 2, 2), ("Knt", 3, 1)]


def ambiguous_trees(count=24):
    """Three bad blocks, two hanging from adjacent vertices of the first,
    with extra pairs between the two leaves' parts on the first block's edge
    and half of them relabeled. With no colors taken, the first block has
    more exact matched-set groups on that edge than it has classes."""
    rng = random.Random(12)
    for i in range(count):
        specs = [
            BadBlockSpec(*rng.choice(MIDDLE)),
            BadBlockSpec(*rng.choice(LEAVES), attach=(0, 1)),
            BadBlockSpec(*rng.choice(LEAVES), attach=(0, 2)),
        ]
        inst = with_extra_pairs(glue_bad(specs)[0], rng, rng.randint(1, 4))
        yield relabeled(inst, i) if i % 2 else inst


@pytest.fixture
def derivations(monkeypatch):
    """The vertex tuple of every block _block_certificate is asked about."""
    seen = []

    def spy(inst, verts, kind, taken):
        seen.append(verts)
        return real(inst, verts, kind, taken)

    real = obstruction._block_certificate
    monkeypatch.setattr(obstruction, "_block_certificate", spy)
    return seen


class TestLeavesFirstDerivation:
    def test_matches_the_oracle_on_extra_pairs_between_parts(self):
        checked = positives = 0
        for base in ambiguous_trees():
            assert found(base) and brute_certificate_exists(base)
            for inst in one_pair_removed(base):
                mine = found(inst)
                assert mine == brute_certificate_exists(inst)
                checked += 1
                positives += mine
        assert checked > 300
        assert positives > 10  # removing an extra pair keeps the certificate

    def test_derives_each_block_at_most_once(self, derivations):
        specs = [BadBlockSpec("Knt", 2, 1)]
        rng = random.Random(2000)
        for i in range(1, 2000):
            parent = rng.randrange(i)
            specs.append(BadBlockSpec("Knt", 2, 1, (parent, rng.randint(1, 2))))
        big = glue_bad(specs)[0]
        cases = [big, next(one_pair_removed(big))]
        for tree in ambiguous_trees():
            cases += [tree, *one_pair_removed(tree)]
        for inst in cases:
            derivations.clear()
            if found(inst):
                assert len(derivations) == len(obstruction.blocks(inst.graph).blocks)
            assert max(Counter(derivations).values()) == 1
