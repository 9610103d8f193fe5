"""Instance validation, cover construction, restriction, and reductions."""

import json
import random
from collections.abc import Mapping
from itertools import combinations

import pytest
from hypothesis import given, settings

from dpcover import (
    ColorNotInList,
    DPInstance,
    InvalidInstance,
    Violation,
    Multigraph,
    MultigraphInput,
    VertexNotFound,
    build_cover,
    complete_graph,
    cycle_graph,
    from_k_coloring,
    from_list_instance,
    induced_instance,
    is_degree_list,
    is_valid_transversal,
    path_graph,
    product_vertex,
    cartesian_product,
    bad_instance_knt,
    decide,
    find_certificate,
    random_matching,
    restrict,
    solve,
    validate,
    verify_certificate,
)
from dpcover import cover
from dpcover.serialize import dumps, instance_from_json, instance_to_json
from dpcover.solver import _search
from tests.oracles import naive_colorable, proper_coloring_exists, solve_checked
from tests.enumeration import simple_graphs_upto_iso
from tests.strategies import instances


def two_lists(g):
    return {u: frozenset({1, 2}) for u in g.vertices}


def fig1_left():
    g = cycle_graph(["a", "b", "c", "d"])
    return from_k_coloring(g, 2)


def fig1_right():
    inst = fig1_left()
    matching = dict(inst.matching)
    matching[("a", "d")] = frozenset({(1, 2), (2, 1)})
    return DPInstance(inst.graph, inst.lists, matching)


class TestValidate:
    def test_capacity_violation(self):
        g = Multigraph(("u", "v"), {("u", "v"): 1})
        inst = DPInstance(
            g, {"u": frozenset({1}), "v": frozenset({1, 2})},
            {("u", "v"): frozenset({(1, 1), (1, 2)})},
        )
        violations = validate(inst)
        assert any(
            v.kind == "capacity-exceeded" and v.subject == ("u", 1, "v")
            for v in violations
        )

    def test_capacity_ok_with_multiplicity_two(self):
        g = Multigraph(("u", "v"), {("u", "v"): 2})
        inst = DPInstance(
            g, {"u": frozenset({1}), "v": frozenset({1, 2})},
            {("u", "v"): frozenset({(1, 1), (1, 2)})},
        )
        assert validate(inst) == []

    def test_color_membership(self):
        g = Multigraph(("u", "v"), {("u", "v"): 1})
        inst = DPInstance(
            g, {"u": frozenset({1}), "v": frozenset({1})},
            {("u", "v"): frozenset({(9, 1)})},
        )
        assert any(v.kind == "color-not-in-list" for v in validate(inst))

    def test_missing_list(self):
        g = Multigraph(("u", "v"), {("u", "v"): 1})
        inst = DPInstance(g, {"u": frozenset({1})}, {})
        assert any(v.kind == "missing-list" for v in validate(inst))

    def test_matching_on_non_edge(self):
        g = path_graph(["a", "b", "c"])
        inst = DPInstance(
            g, {u: frozenset({1}) for u in "abc"},
            {("a", "c"): frozenset({(1, 1)})},
        )
        assert any(v.kind == "non-edge-pair" for v in validate(inst))

    def test_negative_colors_are_fine(self):
        g = Multigraph(("u", "v"), {("u", "v"): 1})
        inst = DPInstance(
            g, {"u": frozenset({-1, 1}), "v": frozenset({-1, 1})},
            {("u", "v"): frozenset({(-1, 1), (1, -1)})},
        )
        assert validate(inst) == []

    def test_matchings_normalize_key_orientation(self):
        g = Multigraph(("u", "v"), {("u", "v"): 1})
        flipped = DPInstance(
            g, {"u": frozenset({1}), "v": frozenset({2})},
            {("v", "u"): frozenset({(2, 1)})},
        )
        straight = DPInstance(
            g, {"u": frozenset({1}), "v": frozenset({2})},
            {("u", "v"): frozenset({(1, 2)})},
        )
        assert flipped == straight
        assert flipped.pairs_between("v", "u") == frozenset({(2, 1)})

    @pytest.mark.parametrize("container", [list, tuple, frozenset], ids=lambda c: c.__name__)
    def test_both_orientations_give_their_union(self, container):
        # On an edge and off the edges; the canonical entry is given as is, the other flipped once.
        g = Multigraph(("u", "v", "w"), {("u", "v"): 2, ("v", "w"): 1})
        lists = {"u": frozenset({1, 2}), "v": frozenset({1, 2, 3}), "w": frozenset({1, 2})}
        both = DPInstance(g, lists, {
            ("u", "v"): container([(1, 1)]), ("v", "u"): container([(2, 1), (3, 2)]),
            ("w", "u"): container([(1, 2)]), ("u", "w"): container([]),
        })
        straight = DPInstance(g, lists, {
            ("u", "v"): frozenset({(1, 1), (1, 2), (2, 3)}),
            ("v", "w"): frozenset(), ("u", "w"): frozenset({(2, 1)}),
        })
        assert both == straight
        assert dict(both.matching) == {
            ("u", "v"): frozenset({(1, 1), (1, 2), (2, 3)}),
            ("u", "w"): frozenset({(2, 1)}),
            ("v", "w"): frozenset(),
        }
        assert [i.kind for i in validate(both)] == ["non-edge-pair"]
        pairs = frozenset({(1, 2)})  # a lone canonical entry is kept, not copied
        assert DPInstance(g, lists, {("u", "v"): pairs}).matching[("u", "v")] is pairs

    def test_pair_colors_of_mixed_types_are_reported(self):
        g = Multigraph(("a", "b"), {("a", "b"): 1})
        inst = DPInstance(
            g, {"a": frozenset({1, 2}), "b": frozenset({1})},
            {("a", "b"): frozenset({("x", 1), (1, 1)})},
        )
        assert [(v.kind, v.subject) for v in validate(inst)] == [
            ("color-not-in-list", ("a", "x", "b")),
            ("capacity-exceeded", ("b", 1, "a")),
        ]

    def test_pair_colors_equal_to_list_ints_are_reported(self):
        # True == 1 and 2.0 == 2, so both pass a list-membership test; the
        # JSON writer would emit [true,2.0], which the reader refuses.
        g = Multigraph(("a", "b"), {("a", "b"): 1})
        lists = {"a": frozenset({1, 2}), "b": frozenset({1, 2})}
        inst = DPInstance(g, lists, {("a", "b"): frozenset({(True, 2.0)})})
        assert [(v.kind, v.subject) for v in validate(inst)] == [
            ("non-int-pair-color", ("a", True, "b")),
            ("non-int-pair-color", ("b", 2.0, "a")),
        ]
        assert validate(DPInstance(g, lists, {("a", "b"): frozenset({(1, 2)})})) == []


def reference_validate(inst):
    # The former check: sorted pairs and two color-degree dicts per edge.
    out = []
    g = inst.graph
    vset = set(g.vertices)
    for u in g.vertices:
        if u not in inst.lists:
            out.append(Violation("missing-list", (u,), f"vertex {u!r} has no list entry"))
    for u in sorted(inst.lists):
        if u not in vset:
            out.append(Violation("unknown-vertex", (u,), f"list entry for unknown vertex {u!r}"))
    edge_pairs = set(g.pairs())
    for (u, v), prs in inst.matching.items():
        if (u, v) not in edge_pairs:
            if prs:
                out.append(
                    Violation("non-edge-pair", (u, v), f"matching on non-edge ({u!r}, {v!r})")
                )
            continue
        lu = inst.lists.get(u, frozenset())
        lv = inst.lists.get(v, frozenset())
        mu = g.multiplicity(u, v)
        deg_u, deg_v = {}, {}
        for a, b in sorted(prs):
            if a not in lu:
                out.append(
                    Violation(
                        "color-not-in-list",
                        (u, a, v),
                        f"pair ({a},{b}) on ({u!r},{v!r}) uses color {a} not in L({u!r})",
                    )
                )
            if b not in lv:
                out.append(
                    Violation(
                        "color-not-in-list",
                        (v, b, u),
                        f"pair ({a},{b}) on ({u!r},{v!r}) uses color {b} not in L({v!r})",
                    )
                )
            deg_u[a] = deg_u.get(a, 0) + 1
            deg_v[b] = deg_v.get(b, 0) + 1
        for c, d in sorted(deg_u.items()):
            if d > mu:
                out.append(
                    Violation(
                        "capacity-exceeded",
                        (u, c, v),
                        f"color {c} at {u!r} has degree {d} > {mu} toward {v!r}",
                    )
                )
        for c, d in sorted(deg_v.items()):
            if d > mu:
                out.append(
                    Violation(
                        "capacity-exceeded",
                        (v, c, u),
                        f"color {c} at {v!r} has degree {d} > {mu} toward {u!r}",
                    )
                )
    return out


def edge_case(mu, prs, lu=(1, 2, 3), lv=(1, 2, 3)):
    g = Multigraph(("u", "v"), {("u", "v"): mu})
    return DPInstance(g, {"u": frozenset(lu), "v": frozenset(lv)}, {("u", "v"): frozenset(prs)})


def seeded_validation_cases(seed, count):
    """Random multigraphs with t <= 3 and seeded unions of t matchings, each
    perturbed with some probability into every kind of violation."""
    rng = random.Random(seed)
    for _ in range(count):
        verts = [f"v{i}" for i in range(rng.randint(1, 5))]
        mult = {p: rng.randint(1, 3) for p in combinations(verts, 2) if rng.random() < 0.6}
        g = Multigraph(tuple(verts), mult)
        lists = {u: frozenset(rng.sample(range(1, 7), rng.randint(1, 4))) for u in verts}
        matching = dict(random_matching(g, lists, rng.randrange(2**32), 1.0))
        for (u, v), m in mult.items():
            roll = rng.random()
            if roll < 0.1:  # a color outside a list
                matching[(u, v)] |= {(rng.randint(1, 9), rng.randint(1, 9))}
            elif roll < 0.2:  # one color at u over capacity by one
                a = rng.choice(sorted(lists[u]))
                matching[(u, v)] = frozenset((a, b) for b in range(1, m + 2))
            elif roll < 0.3:  # one color at v over capacity by one
                b = rng.choice(sorted(lists[v]))
                matching[(u, v)] = frozenset((a, b) for a in range(1, m + 2))
        if rng.random() < 0.15:
            u, v = rng.sample(verts + ["z"], 2) if len(verts) > 1 else (verts[0], "z")
            if (u, v) not in mult and (v, u) not in mult:
                matching[(u, v)] = frozenset({(1, 1)})
        if rng.random() < 0.15:
            del lists[rng.choice(verts)]
        if rng.random() < 0.15:
            lists[rng.choice(["z", "y"])] = frozenset({1})
        yield DPInstance(g, lists, matching)


class TestValidateMatchesReference:
    FIXED = [
        edge_case(2, {(1, 1), (1, 2), (2, 1), (2, 2)}),  # union of two, repeats
        edge_case(3, {(1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (3, 3)}),
        edge_case(2, {(1, 1), (1, 2), (1, 3), (2, 1)}),  # u-side just over
        edge_case(2, {(1, 1), (2, 1), (3, 1), (1, 2)}),  # v-side just over
        edge_case(1, {(1, 1), (2, 2), (3, 3)}),  # a perfect matching
        edge_case(1, {(1, 1), (1, 2), (2, 1), (2, 2)}),  # over at u and v
        edge_case(3, {(4, 1), (1, 4), (5, 5)}),  # colors outside both lists
        edge_case(2, {(4, 1), (4, 2), (4, 3)}, lv=(1, 2)),  # outside, and over
        edge_case(1, set(), lu=()),
    ]

    def test_fixed_cases(self):
        for inst in self.FIXED:
            assert validate(inst) == reference_validate(inst)
        assert validate(self.FIXED[0]) == validate(self.FIXED[1]) == []

    def test_seeded_instances(self):
        seen = set()
        for seed in (1, 2, 3):
            for inst in seeded_validation_cases(seed, 400):
                got = validate(inst)
                assert got == reference_validate(inst)
                for v in got:
                    side = v.subject[0] < v.subject[2] if len(v.subject) == 3 else None
                    seen.add((v.kind, side))
        kinds = {
            ("missing-list", None),
            ("unknown-vertex", None),
            ("non-edge-pair", None),
            ("color-not-in-list", True),
            ("color-not-in-list", False),
            ("capacity-exceeded", True),
            ("capacity-exceeded", False),
        }
        assert seen == kinds

    def test_full_check_runs_once_per_object(self, monkeypatch):
        runs = []
        check = cover._check
        monkeypatch.setattr(cover, "_check", lambda inst: runs.append(inst) or check(inst))
        inst = bad_instance_knt(3, 2)[0]
        decision = decide(inst)
        assert verify_certificate(inst, decision.certificate)
        assert not solve(inst).colorable
        picks = {u: min(inst.lists[u]) for u in inst.graph.vertices}
        assert not is_valid_transversal(inst, picks)
        assert validate(inst) == []
        assert runs == [inst]
        validate(DPInstance(inst.graph, inst.lists, inst.matching))
        assert len(runs) == 2

    def test_returned_list_is_a_copy(self):
        bad = self.FIXED[2]
        first = validate(bad)
        first.clear()
        assert validate(bad) == reference_validate(bad) != []
        good = self.FIXED[0]
        validate(good).append(Violation("x", (), "x"))
        assert validate(good) == []

    def test_transversal_check_rejects_an_invalid_instance(self):
        g = path_graph(["a", "b"])
        inst = DPInstance(
            g,
            {"a": frozenset({1}), "b": frozenset({1}), "z": frozenset({3})},
            {("a", "z"): frozenset({(1, 3)})},
        )
        with pytest.raises(InvalidInstance):
            is_valid_transversal(inst, {"a": 1, "b": 1})

    def test_transversal_check_needs_exactly_the_vertices_and_listed_colors(self):
        inst = from_k_coloring(path_graph(["a", "b"]), 2)
        assert is_valid_transversal(inst, {"a": 1, "b": 2})
        assert not is_valid_transversal(inst, {"a": 1})
        assert not is_valid_transversal(inst, {"a": 1, "b": 2, "z": 1})
        assert not is_valid_transversal(inst, {"a": 3, "b": 2})

    @pytest.mark.parametrize(
        "picks", [{"a": True, "b": 2}, {"a": 1.0, "b": 2.0}, {"a": [1], "b": 2}], ids=["bool", "float", "list"]
    )
    def test_transversal_check_takes_only_plain_int_picks(self, picks):
        # True == 1 and 1.0 == 1 pass a membership test in {1, 2}; validate
        # admits only plain ints as colors, and a list is not hashable.
        inst = from_k_coloring(path_graph(["a", "b"]), 2)
        assert is_valid_transversal(inst, {"a": 1, "b": 2})
        assert is_valid_transversal(inst, picks) is False


class TestBuildCover:
    def test_single_vertex_clique(self):
        g = Multigraph(("v",), {})
        cover = build_cover(DPInstance(g, {"v": frozenset({1, 2, 3})}, {}))
        assert len(cover.nodes) == 3
        assert cover.edge_count == 3

    def test_fig1_left_is_straight_ladder(self):
        cover = build_cover(fig1_left())
        assert len(cover.nodes) == 8
        # 4 rungs (cliques) + 8 cyclic same-color edges
        assert cover.edge_count == 12
        # straight ladder: two disjoint 4-cycles plus rungs; check same-color cycle
        for c in (1, 2):
            ring = [("a", c), ("b", c), ("c", c), ("d", c)]
            for p, q in zip(ring, ring[1:] + ring[:1]):
                assert cover.adjacent(p, q)

    def test_fig1_right_is_moebius(self):
        cover = build_cover(fig1_right())
        assert cover.edge_count == 12
        # the cross pair on (a, d) swaps sides: one 8-cycle
        assert cover.adjacent(("a", 1), ("d", 2))
        assert cover.adjacent(("a", 2), ("d", 1))
        assert not cover.adjacent(("a", 1), ("d", 1))

    def test_rejects_invalid(self):
        g = Multigraph(("u", "v"), {("u", "v"): 1})
        inst = DPInstance(
            g, {"u": frozenset({1}), "v": frozenset({1, 2})},
            {("u", "v"): frozenset({(1, 1), (1, 2)})},
        )
        with pytest.raises(InvalidInstance):
            build_cover(inst)

    @settings(max_examples=100, deadline=None)
    @given(instances())
    def test_node_and_edge_counts(self, inst):
        cover = build_cover(inst)
        assert len(cover.nodes) == sum(len(inst.lists[u]) for u in inst.graph.vertices)
        expected_edges = sum(
            len(inst.lists[u]) * (len(inst.lists[u]) - 1) // 2
            for u in inst.graph.vertices
        ) + sum(len(prs) for prs in inst.matching.values())
        assert cover.edge_count == expected_edges

    @settings(max_examples=100, deadline=None)
    @given(instances())
    def test_adjacency_is_symmetric_and_edges_are_listed_once(self, inst):
        cover = build_cover(inst)
        for p in cover.nodes:
            assert not cover.adjacent(p, p)
            for q in cover.nodes:
                assert cover.adjacent(p, q) == cover.adjacent(q, p)
        edges = cover.edges()
        assert all(p < q for p, q in edges)
        assert len(set(edges)) == len(edges) == cover.edge_count
        assert all(cover.adjacent(q, p) for p, q in edges)


class TestRestrict:
    def test_path_example(self):
        g = Multigraph(("a", "b"), {("a", "b"): 1})
        inst = DPInstance(
            g, {"a": frozenset({1}), "b": frozenset({1, 2})},
            {("a", "b"): frozenset({(1, 1)})},
        )
        sub = restrict(inst, "a", 1)
        assert sub.graph.vertices == ("b",)
        assert sub.lists["b"] == frozenset({2})

    def test_no_matched_pairs_keeps_lists(self):
        g = path_graph(["a", "b"])
        inst = DPInstance(g, two_lists(g), {("a", "b"): frozenset()})
        sub = restrict(inst, "a", 1)
        assert sub.lists["b"] == frozenset({1, 2})

    def test_k3_identity(self):
        g = complete_graph(["a", "b", "c"])
        inst = from_list_instance(g, two_lists(g))
        sub = restrict(inst, "a", 1)
        assert sub.lists == {"b": frozenset({2}), "c": frozenset({2})}
        assert sub.matching[("b", "c")] == frozenset({(2, 2)})

    def test_errors(self):
        inst = fig1_left()
        with pytest.raises(VertexNotFound):
            restrict(inst, "z", 1)
        with pytest.raises(ColorNotInList):
            restrict(inst, "a", 9)

    @settings(max_examples=50, deadline=None)
    @given(instances(extra_colors=1))
    def test_preserves_degree_list_property(self, inst):
        assert is_degree_list(inst)
        for u in inst.graph.vertices:
            for c in sorted(inst.lists[u]):
                sub = restrict(inst, u, c)
                assert is_degree_list(sub)

    @settings(max_examples=50, deadline=None)
    @given(instances())
    def test_lift_property(self, inst):
        """A transversal of the restriction plus the pinned pick is a
        transversal of the original."""
        res = solve_checked(inst)
        if not res.colorable:
            return
        u = inst.graph.vertices[0]
        c = res.transversal[u]
        sub = restrict(inst, u, c)
        sub_res = solve_checked(sub)
        assert sub_res.colorable
        lifted = dict(sub_res.transversal)
        lifted[u] = c
        assert is_valid_transversal(inst, lifted)


class TestFromListInstance:
    def test_intersection(self):
        g = Multigraph(("a", "b"), {("a", "b"): 1})
        inst = from_list_instance(g, {"a": {1, 2}, "b": {2, 3}})
        assert inst.matching[("a", "b")] == frozenset({(2, 2)})

    def test_disjoint_lists(self):
        g = Multigraph(("a", "b"), {("a", "b"): 1})
        inst = from_list_instance(g, {"a": {1}, "b": {2}})
        assert inst.matching[("a", "b")] == frozenset()

    def test_k3_equal_lists_gives_complete_block_pattern(self):
        g = complete_graph(["a", "b", "c"])
        cover = build_cover(from_list_instance(g, two_lists(g)))
        # same adjacency as the pattern on (vertex index, color): same vertex
        # or same color
        verts = ["a", "b", "c"]
        for ui, u in enumerate(verts):
            for v in verts[ui + 1 :]:
                for cu in (1, 2):
                    for cv in (1, 2):
                        assert cover.adjacent((u, cu), (v, cv)) == (cu == cv)

    def test_rejects_multigraph(self):
        with pytest.raises(MultigraphInput):
            from_list_instance(Multigraph(("a", "b"), {("a", "b"): 2}), {})

    def test_lists_keep_their_keys(self):
        inst = from_list_instance(path_graph(["a", "b"]), {"a": {1}, "zz": {1}})
        assert [v.kind for v in validate(inst)] == ["missing-list", "unknown-vertex"]


class TestFromKColoring:
    @pytest.mark.parametrize("k", [0, -1])
    def test_k_below_one_is_refused(self, k):
        with pytest.raises(ValueError, match="k must be >= 1"):
            from_k_coloring(path_graph(["a", "b"]), k)

    def test_k2_k2_is_c4(self):
        g = Multigraph(("a", "b"), {("a", "b"): 1})
        cover = build_cover(from_k_coloring(g, 2))
        assert len(cover.nodes) == 4
        assert cover.edge_count == 4

    def test_multiplicity_does_not_enlarge_pairs(self):
        g = Multigraph(("a", "b"), {("a", "b"): 3})
        inst = from_k_coloring(g, 2)
        assert inst.matching[("a", "b")] == frozenset({(1, 1), (2, 2)})
        assert validate(inst) == []

    def test_cover_isomorphic_to_cartesian_product(self):
        for g in simple_graphs_upto_iso(4):
            for k in (1, 2, 3):
                cover = build_cover(from_k_coloring(g, k))
                kk = complete_graph([str(c) for c in range(1, k + 1)])
                prod = cartesian_product(g, kk)
                mapped = {
                    tuple(sorted((product_vertex(u, str(cu)), product_vertex(v, str(cv)))))
                    for (u, cu), (v, cv) in cover.edges()
                }
                assert mapped == set(prod.pairs())

    def test_solvable_iff_properly_colorable(self):
        for g in simple_graphs_upto_iso(5, False):
            for k in (1, 2, 3):
                inst = from_k_coloring(g, k)
                lists = {u: set(range(1, k + 1)) for u in g.vertices}
                assert solve_checked(inst).colorable == proper_coloring_exists(g, lists)


class TestInducedInstance:
    def test_component_split(self):
        g = Multigraph(("a", "b", "c"), {("a", "b"): 1})
        inst = DPInstance(
            g,
            {u: frozenset({1, 2}) for u in "abc"},
            {("a", "b"): frozenset({(1, 1)})},
        )
        piece = induced_instance(inst, ("a", "b"))
        assert piece.graph.vertices == ("a", "b")
        assert piece.matching[("a", "b")] == frozenset({(1, 1)})
        alone = induced_instance(inst, ("c",))
        assert alone.graph.vertices == ("c",)
        assert alone.matching == {}


class TestPieces:
    def test_connected_instance_is_its_own_piece(self):
        inst, _ = bad_instance_knt(3, 1)
        pieces = cover._pieces(inst)
        assert len(pieces) == 1 and pieces[0] is inst

    def test_one_piece_per_component_in_order(self):
        g = Multigraph(("a", "b", "c", "d", "e"), {("a", "e"): 1, ("b", "d"): 2})
        lists = {u: frozenset({1, 2}) for u in "abcde"}
        inst = DPInstance(g, lists, {("a", "e"): {(1, 2)}, ("b", "d"): {(1, 1), (2, 2)}})
        pieces = cover._pieces(inst)
        assert [p.graph.vertices for p in pieces] == list(g.components())
        assert [p.graph.vertices for p in pieces] == [("a", "e"), ("b", "d"), ("c",)]
        for p in pieces:
            assert p == induced_instance(inst, p.graph.vertices)

    def test_many_components_split_in_one_pass(self):
        # 8,000 disjoint K_2: rescanning every edge per component took seconds.
        names = [(f"a{i:05d}", f"b{i:05d}") for i in range(8000)]
        g = Multigraph(tuple(v for pair in names for v in pair), dict.fromkeys(names, 1))
        inst = DPInstance(g, dict.fromkeys(g.vertices, frozenset({1})), {})
        g.components()  # build the adjacency index before counting reads
        mult, matching = _CountingMapping(g.mult), _CountingMapping(inst.matching)
        object.__setattr__(g, "mult", mult)
        object.__setattr__(inst, "matching", matching)
        pieces = cover._pieces(inst)
        # A rescan per component would read each mapping 8,000 times over.
        assert mult.reads <= 2 * len(names) and matching.reads <= 2 * len(names)
        assert [p.graph.vertices for p in pieces] == names
        assert pieces[-1] == induced_instance(inst, names[-1])

    def test_empty_entry_on_a_non_edge_is_dropped(self):
        # validate allows a key with no pairs off the edges, even at an unknown vertex.
        g = Multigraph(("a", "b", "c", "d"), {("a", "b"): 1, ("c", "d"): 1})
        lists = {"a": frozenset({1}), "b": frozenset({2}), "c": frozenset({1}), "d": frozenset({2})}
        inst = DPInstance(g, lists, {("a", "c"): frozenset(), ("a", "z"): frozenset()})
        assert validate(inst) == []
        pieces = cover._pieces(inst)
        assert [p.graph.vertices for p in pieces] == [("a", "b"), ("c", "d")]
        assert [dict(p.matching) for p in pieces] == [{("a", "b"): frozenset()}, {("c", "d"): frozenset()}]
        inst = DPInstance(g, lists, {("a", "c"): frozenset()})
        assert solve(inst).transversal == {"a": 1, "b": 2, "c": 1, "d": 2}


class TestValidMeansAnswerable:
    @pytest.mark.parametrize("stray", [("a", "z"), ("a", "c")], ids=["unknown-vertex", "non-edge"])
    def test_empty_entry_off_the_edges_is_dropped(self, stray):
        # The entry carries nothing, so construction drops it and every key is an edge.
        g = path_graph(["a", "b", "c"])
        lists = {"a": frozenset({1, 2}), "b": frozenset({1, 2, 3}), "c": frozenset({1, 2})}
        identity = frozenset({(1, 1), (2, 2)})
        inst = DPInstance(g, lists, {("a", "b"): identity, ("b", "c"): identity, stray: frozenset()})
        assert validate(inst) == []
        assert list(inst.matching) == list(g.pairs())
        for picks in (decide(inst).transversal, solve(inst).transversal, _search(inst).transversal):
            assert is_valid_transversal(inst, picks)
        assert find_certificate(inst) is None
        assert restrict(inst, "a", 1).lists == {"b": frozenset({2, 3}), "c": frozenset({1, 2})}
        assert build_cover(inst).edge_count == 9
        assert instance_from_json(json.loads(dumps(instance_to_json(inst)))) == inst


class _CountingMapping(Mapping):
    """A read-only mapping that counts the keys it yields and looks up."""

    def __init__(self, data):
        self._data, self.reads = data, 0

    def __getitem__(self, key):
        self.reads += 1
        return self._data[key]

    def __iter__(self):
        for key in self._data:
            self.reads += 1
            yield key

    def __len__(self):
        return len(self._data)


@settings(max_examples=40, deadline=None)
@given(instances(max_vertices=4))
def test_solve_matches_naive_enumeration(inst):
    assert solve_checked(inst).colorable == (naive_colorable(inst) is not None)


class TestReadOnly:
    def test_mappings_reject_assignment(self):
        from dpcover import all_positive

        inst = fig1_left()
        s = all_positive(inst.graph)
        with pytest.raises(TypeError):
            inst.graph.mult[("a", "b")] = 2
        with pytest.raises(TypeError):
            inst.lists["a"] = frozenset()
        with pytest.raises(TypeError):
            inst.matching[("a", "b")] = frozenset()
        with pytest.raises(TypeError):
            s.signs[("a", "b")] = (-1,)
        assert inst.graph.degree("a") == 2
