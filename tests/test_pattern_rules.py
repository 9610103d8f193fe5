"""The two pattern rules, pinned against frozen copies of the earlier code.

Which pattern a block realizes and which classes a pattern joins each have
one owner in dpcover.obstruction; the public pattern graphs, the replay, the
simple-graph shape test and the signed taxonomy all read them. The earlier
code wrote the parity rule and the join rule out in each place. These tests
compare the owners, as every caller sees them, with frozen copies of those
earlier rules, errors included.
"""

from itertools import product
from types import SimpleNamespace

import pytest

import dpcover.obstruction as obstruction
from dpcover import BlockKind, Multigraph, blocks, block_pattern_kind, is_degree_choosable_shape
from dpcover.multigraph import OTHER
from dpcover.obstruction import pattern_between
from dpcover.signed import _signed_block_in_taxonomy
from tests.enumeration import simple_graphs_upto_iso
from tests.oracles import reference_pattern_adjacent

KINDS = ("Hnt", "FatLadder", "FatMobius", "Zigzag")


def outcome(rule, *args):
    """What a rule gives: its value, or the type and message of its error."""
    try:
        return rule(*args)
    except ValueError as e:
        return type(e), str(e)


def frozen_pattern_name(kind) -> str:
    return "Hnt" if kind.is_complete else "FatLadder" if kind.n % 2 == 1 else "FatMobius"


def block_kinds():
    """K_1^1, K_n^t for n 2-6 and C_n^t for n 4-9, with t 1-3, and Other."""
    yield BlockKind.complete(1, 1)
    for t in (1, 2, 3):
        yield from (BlockKind.complete(n, t) for n in range(2, 7))
        yield from (BlockKind.cycle(n, t) for n in range(4, 10))
    yield BlockKind.other()


def reference_shape_blocks(kinds) -> bool:
    """A frozen copy of the earlier block loop of is_degree_choosable_shape."""
    for kind in kinds:
        if kind.is_complete:
            continue
        if kind.is_cycle and kind.n % 2 == 1:
            continue
        return True
    return False


def reference_signed_block_in_taxonomy(kind, balanced, full) -> bool:
    """A frozen copy of the earlier per-block signed taxonomy."""
    if kind.shape == OTHER:
        return False
    odd_cycle = kind.is_cycle and kind.n % 2 == 1
    if kind.t == 1:
        return balanced if kind.is_complete or odd_cycle else not balanced
    return kind.t == 2 and (kind.is_complete or odd_cycle) and full


def test_pattern_adjacent_matches_the_frozen_rule():
    # Every kind, n from 0 to 8, positions 0..n+1 (off the pattern too), j 1-3, k equal or not.
    probes = 0
    for kind, n in product(KINDS, range(9)):
        for i1, i2, j1, j2, k2 in product(range(n + 2), range(n + 2), (1, 2, 3), (1, 2, 3), (1, 2)):
            p, q = (i1, j1, 1), (i2, j2, k2)
            want = outcome(reference_pattern_adjacent, kind, n, p, q)
            assert outcome(obstruction.pattern_adjacent, kind, n, p, q) == want, (kind, n, p, q)
            probes += 1
    assert probes == 27_648


@pytest.mark.parametrize("kind", [k for k in block_kinds() if k.n >= 2], ids=str)
def test_pattern_between_reads_the_frozen_rule(kind):
    n, t = kind.n, kind.t
    name = frozen_pattern_name(kind)
    grid = [(j, k) for j in (range(1, n) if kind.is_complete else (1, 2)) for k in range(1, t + 1)]
    for i1, i2 in product(range(1, n + 1), repeat=2):
        if i1 != i2:
            read_off = {
                (a, b) for a in grid for b in grid
                if reference_pattern_adjacent(name, n, (i1, *a), (i2, *b))
            }
            assert pattern_between(kind, i1, i2) == read_off, (i1, i2)


@pytest.mark.parametrize("kind", list(block_kinds()), ids=str)
def test_block_rules_match_the_frozen_ones(kind, monkeypatch):
    for balanced, full in product((False, True), repeat=2):
        want = reference_signed_block_in_taxonomy(kind, balanced, full)
        assert _signed_block_in_taxonomy(kind, balanced, full) is want, (balanced, full)
    if kind.shape != OTHER:
        assert block_pattern_kind(kind) == frozen_pattern_name(kind)
    # The shape test as if the (simple) graph had one block of this kind, simple or not.
    monkeypatch.setattr(obstruction, "blocks", lambda g: SimpleNamespace(kinds=(kind,)))
    assert is_degree_choosable_shape(Multigraph(("a",), {})) is reference_shape_blocks([kind])


def test_shape_test_matches_the_frozen_loop_on_small_simple_graphs():
    for g in simple_graphs_upto_iso(5):
        assert is_degree_choosable_shape(g) is reference_shape_blocks(blocks(g).kinds), g
