"""Every cut of an instance comes from one builder.

restrict, induced_instance and the per-component split all build through
dpcover.cover._cut. These tests pin them against frozen copies of the three
earlier builders (tests/oracles.py), errors included; check that a cut costs
the size of what it keeps; and count the full checks, which run once per
checked instance and not again on its cuts.
"""

import random
import time
from itertools import chain
from types import MappingProxyType

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpcover import (
    DPInstance,
    Multigraph,
    complete_graph,
    cycle_graph,
    from_list_instance,
    induced_instance,
    restrict,
    solve,
    validate,
)
from dpcover import cover
from dpcover.cli import run
from dpcover.cover import _pieces
from dpcover.errors import DPCoverError
from dpcover.serialize import dumps, instance_to_json
from tests.oracles import reference_induced_instance, reference_pieces, reference_restrict
from tests.strategies import instances
from tests.test_cover import _CountingMapping, seeded_validation_cases


def outcome(build, inst, *args):
    """What a builder gives: its result, or the type and message of its error."""
    try:
        return build(inst, *args)
    except (DPCoverError, KeyError, ValueError) as e:
        return type(e), str(e)


def builds(inst, subsets):
    """(builder, frozen builder, arguments) for every cut compared: the split,
    each (u, c) restriction, a missing vertex and a missing color, and
    ``subsets``."""
    yield _pieces, reference_pieces, ()
    for u in inst.graph.vertices + ("zz",):
        for c in sorted(inst.lists.get(u, ())) + [99]:
            yield restrict, reference_restrict, (u, c)
    for vs in subsets:
        yield induced_instance, reference_induced_instance, (tuple(vs),)


def cuts_of(result, inst):
    """The new instances a builder's result holds: not ``inst`` itself."""
    if isinstance(result, DPInstance):
        result = [result]
    return [cut for cut in result if isinstance(cut, DPInstance) and cut is not inst]


@settings(max_examples=150, deadline=None)
@given(instances(max_vertices=6, connected=False), st.data())
def test_builders_match_the_frozen_copies_on_valid_instances(inst, data):
    names = inst.graph.vertices + ("zz",)
    subsets = [data.draw(st.lists(st.sampled_from(names), max_size=7)) for _ in range(3)]
    assert validate(inst) == []
    for new, old, args in builds(inst, subsets):
        got = outcome(new, inst, *args)
        assert got == outcome(old, inst, *args), (new.__name__, args)
        for cut in cuts_of(got, inst):
            assert cut.__dict__.get("_violations") == ()
            assert validate(DPInstance(cut.graph, cut.lists, cut.matching)) == []
    if "zz" not in subsets[0]:
        assert induced_instance(inst, iter(subsets[0])) == reference_induced_instance(inst, subsets[0])


@settings(max_examples=100, deadline=None)
@given(instances(max_vertices=6, connected=False), st.data())
def test_cuts_are_what_the_public_constructor_makes_of_their_parts(inst, data):
    """A cut builds through DPInstance._from_parts and its graph through
    Multigraph._from_parts, neither of which normalizes: each cut equals the
    public constructors' result on its parts, with the same key order and
    read-only views, and is marked checked only when its parent is."""
    verts = list(inst.graph.vertices)
    subsets = [data.draw(st.lists(st.sampled_from(verts), unique=True)) for _ in range(2)]
    checked = data.draw(st.booleans())
    if checked:
        validate(inst)
    for new, _, args in builds(inst, subsets):
        for cut in cuts_of(outcome(new, inst, *args), inst):
            g = Multigraph(cut.graph.vertices, dict(cut.graph.mult))
            rebuilt = DPInstance(g, dict(cut.lists), dict(cut.matching))
            assert cut == rebuilt and cut.graph == g
            assert tuple(cut.matching) == tuple(rebuilt.matching) == tuple(g.mult)
            for mapping in (cut.lists, cut.matching, cut.graph.mult):
                assert type(mapping) is MappingProxyType
            assert ("_violations" in cut.__dict__) == checked


def test_unknown_vertices_are_named():
    inst = from_list_instance(cycle_graph(list("abcd")), dict.fromkeys("abcd", {1, 2}))
    with pytest.raises(ValueError, match=r"^unknown vertices: \['y', 'z'\]$"):
        induced_instance(inst, ["a", "z", "y"])


def test_invalid_parents_differ_only_by_pairs_off_the_edges():
    """On an invalid parent a builder gives what its frozen copy gives on the
    same parent with the pairs on non-edges dropped, errors included; its
    cuts are not marked valid."""
    rng = random.Random(11)
    changed = 0
    for seed in (1, 2, 3):
        for inst in seeded_validation_cases(seed, 300):
            on_edges = DPInstance(
                inst.graph, inst.lists, {p: prs for p, prs in inst.matching.items() if p in inst.graph.mult}
            )
            changed += on_edges != inst
            verts = list(inst.graph.vertices)
            subsets = [rng.sample(verts, rng.randint(0, len(verts))) for _ in range(3)]
            clean = validate(inst) == []
            for new, old, args in builds(inst, subsets):
                got = outcome(new, inst, *args)
                for cut in cuts_of(got, inst):
                    assert ("_violations" in cut.__dict__) == clean
                if isinstance(got, list):  # a connected parent is its own piece
                    got = [on_edges if p is inst else p for p in got]
                assert got == outcome(old, on_edges, *args) == outcome(new, on_edges, *args)
    assert changed > 20


def test_pairs_on_a_non_edge_are_dropped():
    # The one change from the earlier induced_instance and restrict, which
    # kept such pairs; the per-component split already dropped them.
    g = Multigraph(("a", "b", "c"), {("a", "b"): 1, ("b", "c"): 1})
    lists = dict.fromkeys("abc", frozenset({1, 2}))
    inst = DPInstance(g, lists, {("a", "b"): {(1, 1)}, ("b", "c"): {(2, 2)}, ("a", "c"): {(1, 1)}})
    assert [v.kind for v in validate(inst)] == ["non-edge-pair"]
    old, new = reference_induced_instance(inst, "abc"), induced_instance(inst, "abc")
    assert old.matching[("a", "c")] == {(1, 1)} and ("a", "c") not in new.matching
    assert new == DPInstance(g, lists, {p: inst.matching[p] for p in g.mult})
    assert validate(old) != [] and validate(new) == []
    old, new = reference_restrict(inst, "b", 2), restrict(inst, "b", 2)
    assert old.matching[("a", "c")] == {(1, 1)} and dict(new.matching) == {}
    assert new.lists == old.lists == {"a": frozenset({1, 2}), "c": frozenset({1})}


class TestCutCost:
    def test_many_small_pieces_cost_their_own_size(self):
        # Each cut reads only its own vertices' adjacency. A cut that builds
        # a set of all 16,000 vertices, as the earlier induced did, makes
        # this take about 4 s.
        names = [(f"a{i:05d}", f"b{i:05d}") for i in range(8000)]
        g = Multigraph(tuple(chain.from_iterable(names)), dict.fromkeys(names, 1))
        inst = DPInstance(g, dict.fromkeys(g.vertices, frozenset({1})), {})
        start = time.perf_counter()
        pieces = _pieces(inst)
        assert time.perf_counter() - start < 1.0
        assert [p.graph.vertices for p in pieces] == names

    def test_restrict_filters_only_the_edges_at_the_neighbours(self):
        # Of a checked parent, an edge whose two lists the restriction keeps
        # keeps the parent's pair set itself; of an unchecked one, none does.
        g = cycle_graph([f"v{i}" for i in range(6)])
        checked, unchecked = (from_list_instance(g, {u: {1, 2} for u in g.vertices}) for _ in range(2))
        assert validate(checked) == []
        cut = restrict(checked, "v0", 1)
        kept = {p: prs is checked.matching[p] for p, prs in cut.matching.items()}
        assert kept == {("v1", "v2"): False, ("v2", "v3"): True, ("v3", "v4"): True, ("v4", "v5"): False}
        cut = restrict(unchecked, "v0", 1)
        assert not any(prs is unchecked.matching[p] for p, prs in cut.matching.items())
        assert cut == reference_restrict(unchecked, "v0", 1)

    def test_induced_reads_only_the_kept_edges(self):
        g = complete_graph([f"v{i:02d}" for i in range(60)])
        g.neighbors("v00")  # build the adjacency index before counting reads
        mult = _CountingMapping(g.mult)
        object.__setattr__(g, "mult", mult)
        sub = g.induced(["v01", "v02", "v03", "v01"])
        assert mult.reads == 3
        assert sub == complete_graph(["v01", "v02", "v03"])


@pytest.fixture
def check_runs(monkeypatch):
    """The instances cover._check runs on, in order."""
    runs = []
    check = cover._check
    monkeypatch.setattr(cover, "_check", lambda inst: runs.append(inst) or check(inst))
    return runs


def three_pieces():
    """A 4-cycle with 2-color lists (tight, no certificate), an edge and a
    lone vertex, with identity matchings."""
    g = Multigraph(
        ("a", "b", "c", "d", "x", "y", "z"),
        {("a", "b"): 1, ("b", "c"): 1, ("c", "d"): 1, ("a", "d"): 1, ("x", "y"): 1},
    )
    return from_list_instance(g, {u: {1, 2} for u in g.vertices})


class TestValidityCarriesOver:
    def test_cli_decide_checks_the_file_once(self, tmp_path, check_runs, capsys):
        p = tmp_path / "three.json"
        p.write_text(dumps(instance_to_json(three_pieces())))
        assert run(["decide", str(p)]) == 0
        assert capsys.readouterr().out.startswith("COLORABLE")
        assert len(check_runs) == 1

    @pytest.mark.parametrize("obstructed", [False, True])
    def test_solve_on_degree_lists_checks_once(self, check_runs, obstructed):
        # Every list has degree size, so solve looks for a certificate on
        # each piece before it searches.
        names = ["a", "b", "c"] if obstructed else ["a", "b", "c", "d"]
        cycles = [cycle_graph([f"{u}{i}" for u in names]) for i in (1, 2)]
        g = Multigraph(
            tuple(chain(cycles[0].vertices, cycles[1].vertices)), {**cycles[0].mult, **cycles[1].mult}
        )
        inst = from_list_instance(g, {u: {1, 2} for u in g.vertices})
        assert solve(inst).colorable is not obstructed
        assert check_runs == [inst]

    def test_cuts_of_an_unchecked_parent_run_their_own_check(self, check_runs):
        inst = three_pieces()
        cuts = [*_pieces(inst), restrict(inst, "a", 1), induced_instance(inst, "abx")]
        assert check_runs == []  # cutting does not run the parent's check
        assert all(validate(cut) == [] for cut in cuts)
        assert check_runs == cuts

    def test_cuts_of_an_invalid_parent_run_their_own_check(self, check_runs):
        g = Multigraph(("a", "b", "c"), {("a", "b"): 1, ("b", "c"): 1})
        over = {(1, 1), (1, 2)}  # color 1 at a has two partners on a single edge
        inst = DPInstance(g, dict.fromkeys("abc", frozenset({1, 2})), {("a", "b"): over})
        assert [v.kind for v in validate(inst)] == ["capacity-exceeded"]
        cut, rest = induced_instance(inst, "ab"), restrict(inst, "c", 1)
        assert [v.kind for v in validate(cut)] == [v.kind for v in validate(rest)] == ["capacity-exceeded"]
        assert check_runs == [inst, cut, rest]
