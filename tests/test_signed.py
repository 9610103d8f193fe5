"""Signed graphs: palettes, switching, balance, fullness, reduction, taxonomy."""

import gc
import random
import time
from types import MappingProxyType

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dpcover import (
    ColorOutsideNk,
    DisconnectedGraph,
    DPInstance,
    EmptyGraph,
    GuardExceeded,
    InvalidInstance,
    Multigraph,
    NotDegreeList,
    SignedGraph,
    VertexNotFound,
    all_positive,
    complete_graph,
    cycle_graph,
    decide,
    edge_power,
    from_k_coloring,
    from_list_instance,
    is_balanced,
    is_full,
    is_valid_transversal,
    n_k,
    path_graph,
    signed_to_dp,
    solve,
    solve_signed,
    ss_block_check,
    switch,
    validate,
)
from dpcover.cover import _signed_matching
from dpcover.signed import _nk_instance
from tests.oracles import (
    balanced_by_switching_search,
    cycle_sign_products_positive,
    signed_coloring_brute,
    solve_checked,
)
from tests.strategies import signed_graphs


def one_negative(g: Multigraph, pair) -> SignedGraph:
    signs = {
        p: tuple(-1 if (p == pair and i == 0) else 1 for i in range(m))
        for p, m in g.mult.items()
    }
    return SignedGraph(g, signs)


def full_double(g: Multigraph) -> SignedGraph:
    doubled = edge_power(g, 2)
    return SignedGraph(doubled, {p: (1, -1) for p in doubled.pairs()})


class TestNk:
    def test_examples(self):
        assert n_k(1).colors == frozenset({0})
        assert n_k(2).colors == frozenset({-1, 1})
        assert n_k(3).colors == frozenset({-1, 0, 1})
        assert n_k(6).colors == frozenset({-3, -2, -1, 1, 2, 3})

    def test_sizes(self):
        for k in range(1, 9):
            assert len(n_k(k).colors) == k

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            n_k(0)


class TestSwitch:
    def test_triangle_example(self):
        s = all_positive(complete_graph(["a", "b", "c"]))
        sw = switch(s, "a")
        assert sw.sign_tuple("a", "b") == (-1,)
        assert sw.sign_tuple("a", "c") == (-1,)
        assert sw.sign_tuple("b", "c") == (1,)

    def test_involution(self):
        s = one_negative(cycle_graph(["a", "b", "c", "d"]), ("a", "b"))
        assert switch(switch(s, "b"), "b") == s

    def test_single_negative_edge(self):
        g = Multigraph.from_pairs("abc", [("a", "b"), ("a", "c")])
        s = one_negative(g, ("a", "b"))
        sw = switch(s, "a")
        assert sw.sign_tuple("a", "b") == (1,)
        assert sw.sign_tuple("a", "c") == (-1,)

    def test_flips_all_parallel_instances(self):
        g = Multigraph(("a", "b"), {("a", "b"): 2})
        s = SignedGraph(g, {("a", "b"): (1, -1)})
        assert switch(s, "a").sign_tuple("a", "b") == (-1, 1)


@pytest.mark.parametrize(
    "make, error, match",
    [
        (
            lambda: SignedGraph(path_graph(["a", "b"]), {("a", "b"): (1,), ("b", "a"): (1,)}),
            ValueError,
            "given twice",
        ),
        (
            lambda: SignedGraph(path_graph(["a", "b", "c"]), {("a", "b"): (1,), ("a", "c"): (1,)}),
            ValueError,
            "exactly the edges",
        ),
        (
            lambda: SignedGraph(Multigraph(("a", "b"), {("a", "b"): 2}), {("a", "b"): (1,)}),
            ValueError,
            "2 parallel edges but 1 signs",
        ),
        (lambda: switch(all_positive(path_graph(["a", "b"])), "zz"), VertexNotFound, "'zz'"),
    ],
    ids=["signs-twice", "signs-off-edges", "sign-count", "switch-unknown"],
)
def test_signed_graph_refusals(make, error, match):
    with pytest.raises(error, match=match):
        make()


class TestBalance:
    def test_all_positive(self):
        assert is_balanced(all_positive(complete_graph(["a", "b", "c", "d"])))

    def test_trees_always_balanced(self):
        g = path_graph(["a", "b", "c", "d"])
        for pair in g.pairs():
            assert is_balanced(one_negative(g, pair))

    def test_c4_one_negative(self):
        assert not is_balanced(one_negative(cycle_graph(["a", "b", "c", "d"]), ("a", "b")))

    def test_mixed_parallel_pair_never_balanced(self):
        g = Multigraph(("a", "b"), {("a", "b"): 2})
        assert not is_balanced(SignedGraph(g, {("a", "b"): (1, -1)}))
        assert is_balanced(SignedGraph(g, {("a", "b"): (-1, -1)}))

    def test_disconnected_raises(self):
        g = Multigraph(("a", "b"), {})
        with pytest.raises(DisconnectedGraph):
            is_balanced(SignedGraph(g, {}))

    def test_empty_raises(self):
        with pytest.raises(EmptyGraph):
            is_balanced(SignedGraph(Multigraph((), {}), {}))

    @settings(max_examples=80, deadline=None)
    @given(signed_graphs(max_vertices=5))
    def test_against_switching_search(self, s):
        assert is_balanced(s) == balanced_by_switching_search(s)

    @settings(max_examples=60, deadline=None)
    @given(signed_graphs(max_vertices=5))
    def test_cycle_sign_invariant(self, s):
        # balance iff every cycle product is positive, and switching never
        # changes either side
        assert is_balanced(s) == cycle_sign_products_positive(s)
        for v in s.graph.vertices:
            assert is_balanced(switch(s, v)) == is_balanced(s)


class TestFull:
    def test_full_doubled_triangle(self):
        assert is_full(full_double(complete_graph(["a", "b", "c"])))

    def test_same_sign_pair_not_full(self):
        doubled = edge_power(complete_graph(["a", "b", "c"]), 2)
        signs = {p: ((1, 1) if p == ("a", "b") else (1, -1)) for p in doubled.pairs()}
        assert not is_full(SignedGraph(doubled, signs))

    def test_simple_graph_not_full(self):
        assert not is_full(all_positive(complete_graph(["a", "b", "c"])))


class TestSignedToDp:
    def test_positive_edge_identity(self):
        g = Multigraph(("a", "b"), {("a", "b"): 1})
        inst = signed_to_dp(all_positive(g), {u: n_k(2).colors for u in "ab"}, k=2)
        assert inst.matching[("a", "b")] == frozenset({(-1, -1), (1, 1)})

    def test_negative_edge_negation(self):
        g = Multigraph(("a", "b"), {("a", "b"): 1})
        s = SignedGraph(g, {("a", "b"): (-1,)})
        inst = signed_to_dp(s, {u: n_k(3).colors for u in "ab"}, k=3)
        assert inst.matching[("a", "b")] == frozenset({(-1, 1), (0, 0), (1, -1)})

    def test_mixed_parallel_pair_full_bipartite(self):
        g = Multigraph(("a", "b"), {("a", "b"): 2})
        s = SignedGraph(g, {("a", "b"): (1, -1)})
        inst = signed_to_dp(s, {u: n_k(2).colors for u in "ab"}, k=2)
        assert inst.matching[("a", "b")] == frozenset(
            {(-1, -1), (1, 1), (-1, 1), (1, -1)}
        )

    def test_palette_enforced(self):
        g = Multigraph(("a", "b"), {("a", "b"): 1})
        with pytest.raises(ColorOutsideNk):
            signed_to_dp(all_positive(g), {"a": {0}, "b": {0}}, k=2)

    def test_lists_keep_their_keys(self):
        # A missing vertex is not given an empty list, nor is an extra one dropped.
        lists = {u: [1, -1] for u in ("a", "c", "d", "zz")}
        inst = signed_to_dp(all_positive(cycle_graph(list("abcd"))), lists)
        with pytest.raises(InvalidInstance) as info:
            solve(inst)
        message = str(info.value)
        assert "vertex 'b' has no list entry" in message
        assert "list entry for unknown vertex 'zz'" in message

    @settings(max_examples=120, deadline=None)
    @given(signed_graphs(max_vertices=5, connected=False), st.data())
    def test_reductions_build_what_the_public_constructor_builds(self, s, data):
        """signed_to_dp, from_list_instance and from_k_coloring hand their
        parts to DPInstance._from_parts: each result equals what the public
        constructor makes of the same parts, keys in the same order, and is
        left unchecked, so validate reports the same violations."""
        g, verts = s.graph, list(s.graph.vertices)
        lists = {u: data.draw(st.sets(st.integers(-2, 2), max_size=5)) for u in reversed(verts)}
        if data.draw(st.booleans()):
            del lists[data.draw(st.sampled_from(verts))]  # a missing vertex
        if data.draw(st.booleans()):
            lists["zz"] = {1}  # an unknown vertex
        if data.draw(st.booleans()):
            lists[data.draw(st.sampled_from(verts))] = {1, 7}  # 7 is outside every N_k here
        flists = {u: frozenset(cs) for u, cs in lists.items()}
        k = data.draw(st.integers(1, 3))
        identity, palette = dict.fromkeys(g.pairs(), (1,)), dict.fromkeys(verts, frozenset(range(1, k + 1)))
        built = [
            (signed_to_dp(s, lists), DPInstance(g, flists, _signed_matching(s.signs, flists))),
            (from_k_coloring(g, k), DPInstance(g, palette, _signed_matching(identity, palette))),
        ]
        if g.is_simple():
            built.append((from_list_instance(g, lists), DPInstance(g, flists, _signed_matching(identity, flists))))
        for inst, public in built:
            assert inst == public
            assert tuple(inst.lists) == tuple(public.lists)
            assert tuple(inst.matching) == tuple(public.matching) == g.pairs()
            assert type(inst.lists) is type(inst.matching) is MappingProxyType
            assert "_violations" not in inst.__dict__
            assert validate(inst) == validate(public)


def signed_matching_unmemoized(signs, lists):
    """_signed_matching's rule, edge by edge, without its memo."""
    matching = {}
    for (u, v), ss in signs.items():
        lu, lv = lists.get(u, frozenset()), lists.get(v, frozenset())
        prs = set()
        for sgn in ss:
            prs |= {(c, c) for c in lu & lv} if sgn == 1 else {(c, -c) for c in lu if -c in lv}
        matching[(u, v)] = frozenset(prs)
    return matching


class TestTrustedReduction:
    """solve_signed builds its N_k reduction once and marks it valid."""

    @settings(max_examples=120, deadline=None)
    @given(signed_graphs(max_vertices=5, max_mult=3, connected=False), st.integers(1, 4))
    @example(full_double(complete_graph(["a", "b", "c"])), 3)  # mixed signs on every pair
    @example(SignedGraph(Multigraph(("a", "b"), {("a", "b"): 3}), {("a", "b"): (1, -1, -1)}), 4)
    def test_solve_signed_builds_the_public_reduction(self, s, k):
        g, palette = s.graph, n_k(k).colors
        lists = dict.fromkeys(g.vertices, palette)
        inst = _nk_instance(s, k)
        public = DPInstance(g, lists, _signed_matching(s.signs, lists))
        assert inst == public
        assert tuple(inst.lists) == tuple(public.lists) == g.vertices
        assert tuple(inst.matching) == tuple(public.matching) == g.pairs()
        assert inst.__dict__["_violations"] == ()
        assert validate(public) == []
        assert solve_signed(s, k) == solve(signed_to_dp(s, lists, k)) == solve(public)

    def test_memo_matches_the_unmemoized_rule(self):
        rng = random.Random(41)
        checked = {"random": 0, "shared": 0, "equal": 0}
        for trial in range(300):
            n = rng.randint(2, 7)
            verts = [f"v{i}" for i in range(n)]
            signs = {}
            for i, j in ((i, j) for i in range(n) for j in range(i + 1, n)):
                if rng.random() < 0.6:
                    signs[(verts[i], verts[j])] = tuple(rng.choice((1, -1)) for _ in range(rng.randint(1, 3)))
            kind = ("random", "shared", "equal")[trial % 3]
            if kind == "random":
                lists = {u: frozenset(rng.sample(range(-3, 4), rng.randint(0, 5))) for u in verts}
            elif kind == "shared":
                one = frozenset(rng.sample(range(-3, 4), rng.randint(1, 5)))
                lists = dict.fromkeys(verts, one)
            else:  # equal lists, each its own object
                colors = rng.sample(range(-3, 4), rng.randint(1, 5))
                lists = {u: frozenset(colors) for u in verts}
                assert len({id(cs) for cs in lists.values()}) == n
            if rng.random() < 0.2:
                del lists[rng.choice(verts)]  # a missing list reads as empty
            got = _signed_matching(signs, lists)
            assert got == signed_matching_unmemoized(signs, lists)
            assert tuple(got) == tuple(signs)
            checked[kind] += sum(map(bool, got.values())) > 0
        assert min(checked.values()) >= 50, checked


class TestSolveSigned:
    def test_desk_checks(self):
        c4 = cycle_graph(["a", "b", "c", "d"])
        assert solve_signed(all_positive(c4), 2).colorable
        assert not solve_signed(one_negative(c4, ("a", "b")), 2).colorable
        assert not solve_signed(all_positive(complete_graph(["a", "b", "c"])), 2).colorable

    def test_signed_brooks_obstruction_is_fast(self):
        # All-positive K_12 with N_11 lists has exact degree lists and the
        # complete-block pattern, so solve's theorem step answers it; the
        # search alone would take about a minute.
        s = all_positive(complete_graph([f"v{i:02d}" for i in range(12)]))
        gc.collect()  # collect earlier tests' garbage now, not inside the timed region
        start = time.perf_counter()
        assert not solve_signed(s, 11).colorable
        assert time.perf_counter() - start < 1.0

    def test_node_budget_reaches_the_search(self):
        c4 = all_positive(cycle_graph(["a", "b", "c", "d"]))
        with pytest.raises(GuardExceeded, match="max_nodes=0"):
            solve_signed(c4, 2, max_nodes=0)
        assert solve_signed(c4, 2, max_nodes=4) == solve_signed(c4, 2)
        with pytest.raises(ValueError, match="max_nodes must be >= 0"):
            solve_signed(c4, 2, max_nodes=-1)
        # A certified instance needs no search node.
        k12 = all_positive(complete_graph([f"v{i:02d}" for i in range(12)]))
        assert not solve_signed(k12, 11, max_nodes=0).colorable

    @settings(max_examples=60, deadline=None)
    @given(signed_graphs(max_vertices=4))
    def test_reduction_faithful_to_brute_force(self, s):
        for k in (1, 2, 3):
            lists = {u: n_k(k).colors for u in s.graph.vertices}
            brute = signed_coloring_brute(s, lists)
            res = solve_signed(s, k)
            assert res.colorable == (brute is not None)
            if res.colorable:
                f = res.transversal
                for (u, v), ss in s.signs.items():
                    assert all(f[u] != sgn * f[v] for sgn in ss)

    @settings(max_examples=40, deadline=None)
    @given(signed_graphs(max_vertices=5))
    def test_switching_equivalence_with_explicit_bijection(self, s):
        for k in (2, 3):
            base = solve_signed(s, k)
            for v in s.graph.vertices:
                other = solve_signed(switch(s, v), k)
                assert other.colorable == base.colorable
                if other.colorable:
                    mapped = dict(other.transversal)
                    mapped[v] = -mapped[v]
                    lists = {u: n_k(k).colors for u in s.graph.vertices}
                    inst = signed_to_dp(s, lists, k=k)
                    assert is_valid_transversal(inst, mapped)


class TestBlockTaxonomy:
    def degree_lists(self, g):
        return {
            u: n_k(g.degree(u)).colors if g.degree(u) else frozenset()
            for u in g.vertices
        }

    def test_balanced_complete(self):
        g = complete_graph(["a", "b", "c", "d"])
        assert ss_block_check(all_positive(g), self.degree_lists(g))
        # a switched version is still balanced, still in the taxonomy
        assert ss_block_check(switch(all_positive(g), "a"), self.degree_lists(g))

    def test_full_doubled_triangle(self):
        s = full_double(complete_graph(["a", "b", "c"]))
        assert ss_block_check(s, self.degree_lists(s.graph))

    def test_unbalanced_odd_cycle_not_in_taxonomy(self):
        c5 = cycle_graph(list("abcde"))
        s = one_negative(c5, ("a", "b"))
        assert not ss_block_check(s, self.degree_lists(c5))
        # cross-check: it is colorable at degree lists via the reduction
        assert solve_signed(s, 2).colorable

    def test_unbalanced_even_cycle_in_taxonomy(self):
        c4 = cycle_graph(list("abcd"))
        assert ss_block_check(one_negative(c4, ("a", "b")), self.degree_lists(c4))
        assert not ss_block_check(all_positive(c4), self.degree_lists(c4))

    def test_full_even_doubled_cycle_not_in_taxonomy(self):
        s = full_double(cycle_graph(list("abcd")))
        assert not ss_block_check(s, self.degree_lists(s.graph))

    def test_mixed_blocks(self):
        # triangle (balanced) + bridge (balanced K_2) at a cut vertex
        g = Multigraph.from_pairs("abcd", [("a", "b"), ("b", "c"), ("a", "c"), ("c", "d")])
        assert ss_block_check(all_positive(g), self.degree_lists(g))

    def test_large_star_is_fast(self):
        # one K_2 block per leaf: the check must stay local to each block
        leaves = [f"l{i:04d}" for i in range(2000)]
        g = Multigraph.from_pairs(["hub"] + leaves, [("hub", x) for x in leaves])
        s, lists = all_positive(g), self.degree_lists(g)
        gc.collect()  # collect earlier tests' garbage now, not inside the timed region
        start = time.perf_counter()
        assert ss_block_check(s, lists)
        assert time.perf_counter() - start < 0.1

    def test_lists_keep_their_keys(self):
        # A missing vertex is named, not read as an empty list, and an extra one is refused.
        lists = {u: [1, -1] for u in ("a", "c", "d", "zz")}
        with pytest.raises(InvalidInstance) as info:
            ss_block_check(all_positive(cycle_graph(list("abcd"))), lists)
        message = str(info.value)
        assert "vertex 'b' has no list entry" in message
        assert "list entry for unknown vertex 'zz'" in message

    def test_requires_degree_lists(self):
        g = complete_graph(["a", "b", "c"])
        with pytest.raises(NotDegreeList):
            ss_block_check(all_positive(g), {u: {1} for u in g.vertices})

    def test_taxonomy_implies_not_colorable_on_shared_palettes(self):
        # One direction, on regular graphs where N_{d(u)} is one shared
        # palette; with all blocks in the taxonomy those are exactly the five
        # families. Mixed-degree block trees go through decide instead.
        cases = []
        for n in (2, 3, 4, 5):
            names = [f"v{i}" for i in range(n)]
            cases.append(all_positive(complete_graph(names)))
            cases.append(switch(all_positive(complete_graph(names)), names[0]))
            cases.append(full_double(complete_graph(names)))
        for n in (3, 5):
            names = [f"v{i}" for i in range(n)]
            cases.append(all_positive(cycle_graph(names)))
            cases.append(switch(all_positive(cycle_graph(names)), names[1]))
            cases.append(full_double(cycle_graph(names)))
        cases.append(one_negative(cycle_graph(list("abcd")), ("a", "b")))
        for s in cases:
            lists = self.degree_lists(s.graph)
            assert ss_block_check(s, lists)
            inst = signed_to_dp(s, lists)
            assert not solve_checked(inst).colorable
            assert decide(inst).obstructed

    def test_taxonomy_alone_does_not_decide_mixed_palettes(self):
        # Regression for a real boundary: the all-positive path has only
        # balanced-K_2 blocks, yet N_1 = {0} and N_2 = {-1, 1} share no
        # colors, the identity matchings are empty, and a coloring exists.
        # Exact decisions must go through the reduction, never this check.
        g = path_graph(["a", "b", "c"])
        s = all_positive(g)
        lists = self.degree_lists(g)
        assert ss_block_check(s, lists)
        inst = signed_to_dp(s, lists)
        assert solve_checked(inst).colorable
        assert decide(inst).colorable
