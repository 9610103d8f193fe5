"""Multigraph structure, block decomposition, and shape recognition."""

import random
from types import MappingProxyType

import networkx as nx
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import dpcover.multigraph as multigraph
from dpcover import (
    BadBlockSpec,
    BlockKind,
    DisconnectedGraph,
    DPInstance,
    EmptyGraph,
    Multigraph,
    MultigraphInput,
    NotABlock,
    all_positive,
    bad_assignment,
    blocks,
    cartesian_product,
    classify_block,
    complete_graph,
    cycle_graph,
    decide,
    edge_power,
    glue_bad,
    path_graph,
    product_vertex,
    random_matching,
    restrict,
    ss_block_check,
    verify_certificate,
)
from tests.oracles import articulation_vertices, reference_cycle_order
from tests.strategies import multigraphs, simple_graphs


class TestMultigraph:
    def test_canonicalization(self):
        g = Multigraph(("b", "a"), {("b", "a"): 2})
        assert g.vertices == ("a", "b")
        assert g.mult == {("a", "b"): 2}
        assert g.degree("a") == 2

    def test_rejects_loops(self):
        with pytest.raises(ValueError):
            Multigraph(("a",), {("a", "a"): 1})

    def test_rejects_zero_multiplicity(self):
        with pytest.raises(ValueError):
            Multigraph(("a", "b"), {("a", "b"): 0})

    def test_rejects_unknown_endpoint(self):
        with pytest.raises(ValueError):
            Multigraph(("a",), {("a", "b"): 1})

    @pytest.mark.parametrize(
        "make, match",
        [
            (lambda: Multigraph(("a", "b", "a"), {}), "duplicate vertex identifiers"),
            (lambda: Multigraph(("a", "b"), {("a", "b"): 1, ("b", "a"): 1}), "given twice"),
            (lambda: path_graph(["a", "b"]).induced(["a", "zz"]), "unknown vertices"),
        ],
        ids=["duplicate-ids", "pair-both-ways", "induced-unknown"],
    )
    def test_rejects_malformed_input(self, make, match):
        with pytest.raises(ValueError, match=match):
            make()

    def test_from_pairs_accumulates(self):
        g = Multigraph.from_pairs("ab", [("a", "b"), ("b", "a")])
        assert g.mult == {("a", "b"): 2}

    def test_degree_counts_multiplicity(self):
        g = Multigraph(("a", "b", "c"), {("a", "b"): 3, ("b", "c"): 1})
        assert g.degree("b") == 4
        assert g.neighbors("b") == ("a", "c")

    def test_degrees_need_no_adjacency_index(self):
        g = Multigraph(("a", "b", "c", "d"), {("a", "b"): 3, ("b", "c"): 1})
        assert [g.degree(u) for u in "abcdz"] == [3, 4, 1, 0, 0]
        assert "_index" not in g.__dict__

    def test_components(self):
        g = Multigraph(("a", "b", "c", "d"), {("a", "b"): 1, ("c", "d"): 1})
        assert g.components() == (("a", "b"), ("c", "d"))
        assert not g.is_connected()

    @settings(max_examples=100, deadline=None)
    @given(multigraphs(max_vertices=7), st.data())
    def test_induced_matches_the_public_constructor(self, g, data):
        """induced builds through _from_parts, skipping the normalization:
        it gives what the public constructor makes of the kept parts, in
        the same order, whatever order the subset comes in."""
        subset = data.draw(st.lists(st.sampled_from(g.vertices), unique=True))
        keep = set(subset)
        want = Multigraph(tuple(subset), {p: m for p, m in g.mult.items() if keep.issuperset(p)})
        got = g.induced(reversed(subset))
        assert got == want
        assert got.vertices == want.vertices
        assert tuple(got.mult.items()) == tuple(want.mult.items())
        assert type(got.mult) is MappingProxyType
        assert [got.degree(u) for u in got.vertices] == [want.degree(u) for u in want.vertices]

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(st.text("ab1Z_", min_size=1, max_size=3), min_size=2, max_size=9, unique=True),
        st.data(),
    )
    def test_neighbors_come_sorted(self, names, data):
        """The index keeps each vertex's neighbours in the order it meets
        them in ``mult``, which every build path keeps sorted: the public
        constructor on pairs in any order and orientation, induced and
        restrict (through _from_parts), and glue_bad's assembler."""
        mult = {}
        for u, v in data.draw(st.lists(st.tuples(st.sampled_from(names), st.sampled_from(names)))):
            if u != v and (v, u) not in mult:
                mult[(u, v)] = data.draw(st.integers(1, 3))
        g = Multigraph(tuple(names), mult)
        lists = {u: frozenset(range(1, g.degree(u) + 2)) for u in g.vertices}
        inst = DPInstance(g, lists, random_matching(g, lists, data.draw(st.integers(0, 99)), 1.0))
        u = data.draw(st.sampled_from(g.vertices))
        specs = [BadBlockSpec(data.draw(st.sampled_from(["Knt", "Cnt"])), 4, 1)]
        for i in range(1, data.draw(st.integers(1, 14))):
            attach = (data.draw(st.integers(0, i - 1)), data.draw(st.integers(1, 2)))  # every block has n >= 2
            specs.append(BadBlockSpec("Knt", data.draw(st.integers(2, 4)), 1, attach))
        kept = data.draw(st.sets(st.sampled_from(names)))
        for h in (g, g.induced(kept), restrict(inst, u, min(lists[u])).graph, glue_bad(specs)[0].graph):
            for v in h.vertices:
                assert h.neighbors(v) == tuple(sorted(b if a == v else a for a, b in h.mult if v in (a, b)))


class TestBlocks:
    def test_single_edge_is_a_block(self):
        dec = blocks(Multigraph(("a", "b"), {("a", "b"): 1}))
        assert dec.blocks == (("a", "b"),)
        assert dec.cut_vertices == ()

    def test_path_bridges(self):
        dec = blocks(path_graph(["a", "b", "c"]))
        assert dec.blocks == (("a", "b"), ("b", "c"))
        assert dec.cut_vertices == ("b",)
        assert dec.block_tree == ((0, "b"), (1, "b"))
        assert dec.leaves_first == ((1, "b"), (0, None))

    def test_leaves_first_at_a_root_cut_vertex(self):
        # The DFS starts at the least vertex, which here is the cut vertex.
        dec = blocks(path_graph(["b", "a", "c"]))
        assert dec.leaves_first == ((0, "a"), (1, None))

    def test_two_triangles_sharing_a_vertex(self):
        g = Multigraph.from_pairs(
            "abcde",
            [("a", "b"), ("b", "c"), ("a", "c"), ("c", "d"), ("d", "e"), ("c", "e")],
        )
        dec = blocks(g)
        assert dec.blocks == (("a", "b", "c"), ("c", "d", "e"))
        assert dec.cut_vertices == ("c",)
        # oracle: brute-force articulation check by vertex deletion
        assert set(dec.cut_vertices) == articulation_vertices(g)

    def test_single_vertex(self):
        dec = blocks(Multigraph(("a",), {}))
        assert dec.blocks == (("a",),)

    def test_disconnected_raises(self):
        g = Multigraph(("a", "b"), {})
        for _ in range(2):  # a raising decomposition is not cached
            with pytest.raises(DisconnectedGraph):
                blocks(g)

    def test_empty_raises(self):
        g = Multigraph((), {})
        for _ in range(2):
            with pytest.raises(EmptyGraph):
                blocks(g)

    def test_decomposition_runs_once_per_object(self, monkeypatch):
        inst, _ = glue_bad([BadBlockSpec("Knt", 3, 1), BadBlockSpec("Cnt", 4, 1, (0, 2))])
        g = Multigraph(inst.graph.vertices, inst.graph.mult)
        inst = DPInstance(g, inst.lists, inst.matching)
        runs = []
        decompose = multigraph._decompose
        monkeypatch.setattr(multigraph, "_decompose", lambda g: runs.append(g) or decompose(g))
        decision = decide(inst)
        assert verify_certificate(inst, decision.certificate)
        assert classify_block(g, decision.certificate.blocks[1].vertex_set) == BlockKind.cycle(4, 1)
        assert ss_block_check(all_positive(g), inst.lists) is False
        assert runs == [g]
        blocks(Multigraph(g.vertices, g.mult))
        assert len(runs) == 2

    @settings(max_examples=60, deadline=None)
    @given(multigraphs(min_vertices=2, max_vertices=6, connected=True))
    def test_against_networkx_and_oracle(self, g):
        dec = blocks(g)
        nxg = nx.Graph(list(g.pairs()))
        expected = sorted(tuple(sorted(b)) for b in nx.biconnected_components(nxg))
        assert list(dec.blocks) == expected
        reference = (multigraph.classify_members(g, B, E) for B, E in zip(dec.blocks, dec.edges))
        assert dec.kinds == tuple(reference)
        assert set(dec.cut_vertices) == articulation_vertices(g)
        # every edge lies in exactly one block, preserving total multiplicity
        total = sum(
            g.induced(b).total_multiplicity() for b in dec.blocks
        )
        assert total == g.total_multiplicity()
        # cut vertex iff it belongs to at least two blocks
        for v in g.vertices:
            in_blocks = sum(1 for b in dec.blocks if v in b)
            assert (v in dec.cut_vertices) == (in_blocks >= 2)

    @settings(max_examples=80, deadline=None)
    @given(multigraphs(min_vertices=1, max_vertices=8, max_mult=3, connected=True))
    @example(edge_power(path_graph(["c", "a", "d", "b"]), 2))
    def test_one_edge_blocks_read_as_the_general_rule_reads_them(self, g):
        # A two-vertex block is taken from its one edge and classified as
        # K_2 with its multiplicity; the rule for every other block gives
        # the same vertex tuple and kind.
        dec = blocks(g)
        general = tuple(tuple(sorted({x for e in E for x in e})) if E else B for B, E in zip(dec.blocks, dec.edges))
        assert dec.blocks == general
        assert dec.kinds == tuple(multigraph.classify_members(g, B, E) for B, E in zip(general, dec.edges))
        for B, E, kind in zip(dec.blocks, dec.edges, dec.kinds):
            if len(B) == 2:
                assert E == (B,) and kind == BlockKind.complete(2, g.mult[B])

    def test_one_edge_blocks_skip_classify_members(self, monkeypatch):
        calls = []
        classify = multigraph.classify_members
        monkeypatch.setattr(multigraph, "classify_members", lambda g, B, E: calls.append(B) or classify(g, B, E))
        path = edge_power(path_graph([f"p{i:03d}" for i in range(300)]), 3)
        assert blocks(path).kinds == (BlockKind.complete(2, 3),) * 299
        assert calls == []
        # A triangle, a doubled bridge and a C_4 in a row.
        g = Multigraph("abcdefg", {
            ("a", "b"): 1, ("a", "c"): 1, ("b", "c"): 1, ("c", "d"): 2,
            ("d", "e"): 1, ("e", "f"): 1, ("f", "g"): 1, ("d", "g"): 1,
        })
        assert blocks(g).kinds == (BlockKind.complete(3, 1), BlockKind.complete(2, 2), BlockKind.cycle(4, 1))
        assert calls == [("a", "b", "c"), ("d", "e", "f", "g")]

    @settings(max_examples=40, deadline=None)
    @given(multigraphs(min_vertices=2, max_vertices=6, connected=True))
    def test_block_tree_is_a_tree(self, g):
        dec = blocks(g)
        # union-find over block nodes and cut-vertex nodes
        parent = {}

        def find(x):
            while parent.setdefault(x, x) != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        edges = 0
        for bi, v in dec.block_tree:
            a, b = find(("B", bi)), find(("V", v))
            assert a != b, "cycle in block tree"
            parent[a] = b
            edges += 1
        nodes = len(dec.blocks) + len(dec.cut_vertices)
        assert edges == nodes - 1 or nodes == 1

    @settings(max_examples=60, deadline=None)
    @given(multigraphs(min_vertices=1, max_vertices=8, connected=True))
    def test_leaves_first_closes_each_block_after_those_below_it(self, g):
        dec = blocks(g)
        order = [i for i, _ in dec.leaves_first]
        assert sorted(order) == list(range(len(dec.blocks)))
        assert dec.leaves_first[-1][1] is None
        for pos, (i, p) in enumerate(dec.leaves_first):
            if pos < len(order) - 1:
                assert p in dec.blocks[i] and p in dec.cut_vertices
            for w in dec.blocks[i]:
                if w == p:
                    continue
                for other, B in enumerate(dec.blocks):
                    if other != i and w in B:
                        assert order.index(other) < pos, (i, w, other)


class TestClassifyBlock:
    def test_simple_k4(self):
        g = complete_graph(["a", "b", "c", "d"])
        assert classify_block(g, ("a", "b", "c", "d")) == BlockKind.complete(4, 1)

    def test_doubled_c5(self):
        g = edge_power(cycle_graph(list("abcde")), 2)
        assert classify_block(g, tuple("abcde")) == BlockKind.cycle(5, 2)

    def test_nonuniform_k4_is_other(self):
        g = complete_graph(["a", "b", "c", "d"])
        mult = dict(g.mult)
        mult[("a", "b")] = 2
        g2 = Multigraph(g.vertices, mult)
        assert classify_block(g2, g.vertices) == BlockKind.other()

    def test_triangle_canonicalizes_to_complete(self):
        g = edge_power(cycle_graph(["a", "b", "c"]), 3)
        kind = classify_block(g, ("a", "b", "c"))
        assert kind == BlockKind.complete(3, 3)
        assert kind.shape != "Cnt"

    def test_bridge_with_multiplicity(self):
        g = Multigraph(("a", "b"), {("a", "b"): 4})
        assert classify_block(g, ("a", "b")) == BlockKind.complete(2, 4)

    def test_diamond_is_other(self):
        g = Multigraph.from_pairs(
            "abcd", [("a", "b"), ("b", "c"), ("c", "d"), ("a", "d"), ("a", "c")]
        )
        assert classify_block(g, tuple("abcd")) == BlockKind.other()

    def test_not_a_block_raises(self):
        g = path_graph(["a", "b", "c"])
        with pytest.raises(NotABlock):
            classify_block(g, ("a", "c"))

    def test_cycle_order_matches_the_frozen_walk(self):
        """blocks().orders, read off the DFS's walk around each cycle block,
        gives the order of the walk that took the least neighbour not among
        the last two visited, on cycles with shuffled names and on the cycle
        blocks of generated block trees."""
        rng = random.Random(22)
        walked = 0
        for n in range(4, 40):
            names = [f"v{rng.randrange(10**6)}_{i}" for i in range(n)]
            rng.shuffle(names)
            g = edge_power(cycle_graph(names), rng.randint(1, 3))
            assert blocks(g).orders == (reference_cycle_order(g.vertices, g.pairs()),)
            walked += 1
        for n_blocks in range(2, 8):
            specs = [BadBlockSpec("Cnt", rng.randint(4, 9), 1)]
            specs += [BadBlockSpec("Cnt", rng.randint(4, 9), 1, (rng.randrange(i + 1), rng.randint(1, 4)))
                      for i in range(n_blocks - 1)]
            dec = blocks(glue_bad(specs)[0].graph)
            for B, kind, E, order in zip(dec.blocks, dec.kinds, dec.edges, dec.orders):
                assert kind.is_cycle
                assert order == reference_cycle_order(B, E)
                walked += 1
        assert walked > 50

    def test_orders_where_the_dfs_enters_anywhere(self):
        """On block trees renamed to shuffled random ids, the DFS enters
        cycle blocks at any vertex and in either direction: each cycle
        block's order is still the frozen walk's, every other block's is its
        sorted vertices, and decide's certificate on bad_assignment puts each
        cycle block's vertices at the positions of that order."""
        rng = random.Random(27)
        cycles = 0
        for _ in range(300):
            specs = [BadBlockSpec(rng.choice(["Knt", "Cnt"]), rng.randint(4, 7), 1)]
            for i in range(1, rng.randint(2, 7)):
                kind = rng.choice(["Knt", "Cnt", "Cnt"])
                n = rng.randint(2, 4) if kind == "Knt" else rng.randint(4, 8)
                parent = rng.randrange(i)
                specs.append(BadBlockSpec(kind, n, rng.randint(1, 2), (parent, rng.randint(1, specs[parent].n))))
            tree = glue_bad(specs)[0].graph
            ids = rng.sample(range(10**6), len(tree.vertices))
            name = {u: f"x{i}" for u, i in zip(tree.vertices, ids)}
            g = Multigraph(tuple(name.values()), {(name[u], name[v]): m for (u, v), m in tree.mult.items()})
            dec = blocks(g)
            cert = decide(bad_assignment(g)[0]).certificate
            for B, kind, E, order, bc in zip(dec.blocks, dec.kinds, dec.edges, dec.orders, cert.blocks):
                if kind.is_cycle:
                    assert order == reference_cycle_order(B, E)
                    assert dict(bc.positions) == {u: i for i, u in enumerate(order, start=1)}
                    cycles += 1
                else:
                    assert order == B
        assert cycles > 300

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    @pytest.mark.parametrize("t", [1, 2, 3])
    def test_complete_powers_roundtrip(self, n, t):
        g = edge_power(complete_graph([f"v{i}" for i in range(n)]), t)
        assert classify_block(g, g.vertices) == BlockKind.complete(n, t)


class TestEdgePower:
    def test_identity(self):
        g = cycle_graph(["a", "b", "c", "d"])
        assert edge_power(g, 1) == g

    def test_k3_doubled(self):
        g = edge_power(complete_graph(["a", "b", "c"]), 2)
        assert all(m == 2 for m in g.mult.values())

    def test_scales_existing_multiplicities(self):
        g = Multigraph(("a", "b", "c"), {("a", "b"): 2, ("b", "c"): 1})
        g3 = edge_power(g, 3)
        assert g3.mult == {("a", "b"): 6, ("b", "c"): 3}

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            edge_power(complete_graph(["a", "b"]), 0)


class TestCartesianProduct:
    def test_k2_square_k2_is_c4(self):
        k2a = Multigraph(("a", "b"), {("a", "b"): 1})
        k2b = Multigraph(("x", "y"), {("x", "y"): 1})
        prod = cartesian_product(k2a, k2b)
        assert len(prod.vertices) == 4
        assert prod.total_multiplicity() == 4
        assert all(len(prod.neighbors(v)) == 2 for v in prod.vertices)

    def test_k3_square_k2_is_prism(self):
        prod = cartesian_product(complete_graph(["a", "b", "c"]), Multigraph(("x", "y"), {("x", "y"): 1}))
        assert len(prod.vertices) == 6
        assert prod.total_multiplicity() == 9
        assert all(len(prod.neighbors(v)) == 3 for v in prod.vertices)

    def test_identity_factor(self):
        g = cycle_graph(["a", "b", "c", "d"])
        prod = cartesian_product(g, Multigraph(("z",), {}))
        relabel = {product_vertex(u, "z"): u for u in g.vertices}
        assert {tuple(sorted((relabel[u], relabel[v]))) for u, v in prod.pairs()} == set(
            g.pairs()
        )

    def test_rejects_multigraphs(self):
        with pytest.raises(MultigraphInput):
            cartesian_product(Multigraph(("a", "b"), {("a", "b"): 2}), complete_graph(["x", "y"]))

    @settings(max_examples=30, deadline=None)
    @given(simple_graphs(max_vertices=5))
    def test_counts_against_complete_factor(self, g):
        for k in (1, 2, 3):
            kk = complete_graph([str(i) for i in range(1, k + 1)])
            prod = cartesian_product(g, kk)
            assert len(prod.vertices) == len(g.vertices) * k
            assert prod.total_multiplicity() == len(g.vertices) * k * (k - 1) // 2 + k * g.total_multiplicity()
