"""Exact search, degeneracy greedy, and the small DP-chromatic enumeration."""

import gc
import json
import random
import time

import pytest
from hypothesis import given, settings

from dpcover import (
    DPInstance,
    EmptyGraph,
    GuardExceeded,
    InvalidInstance,
    Multigraph,
    SignedGraph,
    bad_instance_knt,
    complete_graph,
    cycle_graph,
    degeneracy_order,
    dp_chromatic_number_small,
    from_k_coloring,
    greedy_color,
    is_valid_transversal,
    path_graph,
    random_matching,
    signed_to_dp,
    solve,
    validate,
)
from dpcover.serialize import dumps, instance_from_json, instance_to_json
from dpcover.solver import SolveResult, _search, _uniform_assignments
from tests.oracles import naive_colorable, solve_checked, transversal_space
from tests.strategies import instances


def fig1_pair():
    g = cycle_graph(["a", "b", "c", "d"])
    left = from_k_coloring(g, 2)
    matching = dict(left.matching)
    matching[("a", "d")] = frozenset({(1, 2), (2, 1)})
    right = DPInstance(g, left.lists, matching)
    return left, right


def random_degenerate_graph(rng, k, n):
    """Connected multigraph built by attaching each vertex with total back
    multiplicity <= k, hence k-degenerate (multiplicity-weighted)."""
    names = [f"v{i:02d}" for i in range(n)]
    mult = {}
    for i in range(1, n):
        budget = rng.randint(1, k)
        while budget:
            j = rng.randrange(i)
            take = rng.randint(1, budget)
            key = (names[j], names[i])
            mult[key] = mult.get(key, 0) + take
            budget -= take
    return Multigraph(tuple(names), mult)


def bad_knt_less_one_color(n):
    """bad_instance_knt(n, 1) without the least color of its first vertex and
    that color's pairs: still not colorable, since a transversal of it would
    be one of the bad K_n, but below the degree lists, so only the search
    answers it."""
    inst = bad_instance_knt(n, 1)[0]
    u = inst.graph.vertices[0]
    c = min(inst.lists[u])
    lists = {**inst.lists, u: inst.lists[u] - {c}}
    matching = {
        (x, y): frozenset((a, b) for a, b in prs if (x, a) != (u, c) and (y, b) != (u, c))
        for (x, y), prs in inst.matching.items()
    }
    return DPInstance(inst.graph, lists, matching)


def disjoint_union(*insts):
    """The instances side by side, the i-th one's vertices prefixed by "i."."""
    verts, mult, lists, matching = [], {}, {}, {}
    for i, inst in enumerate(insts):
        name = f"{i}.{{}}".format
        verts += [name(u) for u in inst.graph.vertices]
        mult.update({(name(u), name(v)): m for (u, v), m in inst.graph.mult.items()})
        lists.update({name(u): cs for u, cs in inst.lists.items()})
        matching.update({(name(u), name(v)): prs for (u, v), prs in inst.matching.items()})
    return DPInstance(Multigraph(tuple(verts), mult), lists, matching)


def needs_nodes(search, inst):
    """Whether ``search`` (solve or _search) spends a search node on the
    instance, that is, raises on a budget of 0."""
    try:
        search(inst, max_nodes=0)
    except GuardExceeded:
        return True
    return False


def reference_search(inst):
    """The recursive search that solve replaced, plus a node count: branch
    by (list size, id), colors ascending, and drop the matched colors from
    the later live lists after each pick, pruning a pick that empties one."""
    g = inst.graph
    empties = sorted(u for u in g.vertices if not inst.lists[u])
    if empties:
        return (None, empties[0]), 0
    order = sorted(g.vertices, key=lambda u: (len(inst.lists[u]), u))
    conflicts = {}
    for (u, v), prs in inst.matching.items():
        for a, b in prs:
            conflicts.setdefault((u, a), []).append((v, b))
            conflicts.setdefault((v, b), []).append((u, a))
    domains = {u: sorted(inst.lists[u]) for u in g.vertices}
    live = {u: set(domains[u]) for u in g.vertices}
    picks = {}
    nodes = 0

    def search(i):
        nonlocal nodes
        if i == len(order):
            return True
        u = order[i]
        for c in domains[u]:
            if c not in live[u]:
                continue
            removed = []
            dead_end = False
            for v, b in conflicts.get((u, c), ()):
                if v in picks or v == u:
                    continue
                if b in live[v]:
                    live[v].discard(b)
                    removed.append((v, b))
                    if not live[v]:
                        dead_end = True
            if not dead_end:
                nodes += 1
                picks[u] = c
                if search(i + 1):
                    return True
                del picks[u]
            for v, b in removed:
                live[v].add(b)
        return False

    return ((dict(picks), None) if search(0) else (None, None)), nodes


def planted_instance(rng, n):
    """3-lists on a random graph of average degree 5; every edge carries a
    perfect matching that avoids a hidden transversal."""
    names = [f"x{i:02d}" for i in range(n)]
    lists = {u: frozenset(rng.sample(range(1, 100), 3)) for u in names}
    hidden = {u: rng.choice(sorted(lists[u])) for u in names}
    edges = set()
    while len(edges) < n * 5 // 2:
        edges.add(tuple(sorted(rng.sample(names, 2))))
    matching = {}
    for u, v in sorted(edges):
        a, b = sorted(lists[u]), sorted(lists[v])
        while (hidden[u], hidden[v]) in (pairs := set(zip(a, rng.sample(b, 3)))):
            pass
        matching[(u, v)] = frozenset(pairs)
    return DPInstance(Multigraph.from_pairs(names, sorted(edges)), lists, matching)


def reference_cases():
    rng = random.Random(5)
    for seed in range(80):
        t = 2 + seed % 2
        g = random_degenerate_graph(rng, t, rng.randint(1, 8))
        lists = {
            u: frozenset(rng.sample(range(1, 9), rng.randint(0 if seed % 5 == 0 else 1, 4)))
            for u in g.vertices
        }
        yield DPInstance(g, lists, random_matching(g, lists, seed, rng.choice((0.5, 1.0))))
    yield DPInstance(Multigraph((), {}), {}, {})
    for seed in range(20):
        g = random_degenerate_graph(rng, 2, rng.randint(2, 7))
        signs = {p: tuple(rng.choice((1, -1)) for _ in range(m)) for p, m in g.mult.items()}
        lists = {u: rng.sample(range(-2, 3), rng.randint(1, 4)) for u in g.vertices}
        yield signed_to_dp(SignedGraph(g, signs), lists)
    for n, t in ((3, 1), (4, 1), (5, 1), (3, 2), (4, 2), (7, 1)):
        yield bad_instance_knt(n, t)[0]
    for n in (14, 15, 16, 17, 18):
        yield planted_instance(rng, n)


def assert_search_is_the_reference(inst):
    """_search has reference_search's answer, witness and node count: a
    budget of exactly its nodes passes and one node less raises. Returns
    the answer and the node count."""
    assert not validate(inst)
    (transversal, witness), nodes = reference_search(inst)
    res = _search(inst, max_nodes=nodes)
    assert (res.transversal, res.witness_vertex) == (transversal, witness)
    if nodes:
        with pytest.raises(GuardExceeded):
            _search(inst, max_nodes=nodes - 1)
    return res, nodes


def shuffled_matchings(rng, g, lists):
    """Per edge of multiplicity m, the union of m random matchings between
    the two lists, each as large as the smaller list."""
    matching = {}
    for (u, v), m in g.mult.items():
        a, b = sorted(lists[u]), sorted(lists[v])
        size = min(len(a), len(b))
        matching[(u, v)] = frozenset(pr for _ in range(m) for pr in zip(rng.sample(a, size), rng.sample(b, size)))
    return matching


def uniform_list_cases(seed):
    """Every vertex holds one list object, [k] for k from 2 to 4, on a
    k-degenerate graph; the matchings are shuffled, not the identity."""
    rng = random.Random(seed)
    for i in range(90):
        k = 2 + i % 3
        g = random_degenerate_graph(rng, k, rng.randint(1, 10))
        lists = dict.fromkeys(g.vertices, frozenset(range(1, k + 1)))
        yield DPInstance(g, lists, shuffled_matchings(rng, g, lists))


class TestSearchTables:
    """The search builds its tables once per distinct list; what it answers
    must not depend on how the lists are shared."""

    @staticmethod
    def check(insts):
        """Checks each instance against the reference; counts the colorable
        ones, the others, and those whose search met a dead end."""
        kinds = {"colorable": 0, "not colorable": 0, "dead end": 0}
        for inst in insts:
            res, nodes = assert_search_is_the_reference(inst)
            kinds["colorable" if res.colorable else "not colorable"] += 1
            kinds["dead end"] += nodes > (len(inst.graph.vertices) if res.colorable else 0)
        return kinds

    def test_one_list_object_with_shuffled_matchings(self):
        insts = list(uniform_list_cases(31))
        for inst in insts:
            assert len({id(cs) for cs in inst.lists.values()}) == 1
        assert sum(a != b for inst in insts for prs in inst.matching.values() for a, b in prs) > 100
        assert min(self.check(insts).values()) >= 5

    def test_equal_lists_from_a_json_round_trip(self):
        insts = [
            instance_from_json(json.loads(dumps(instance_to_json(inst))))
            for inst in uniform_list_cases(32)
        ]
        for inst in insts:
            assert len({id(cs) for cs in inst.lists.values()}) == len(inst.lists)
            assert len(set(inst.lists.values())) == 1
        assert min(self.check(insts).values()) >= 5

    def test_ties_in_list_size_branch_in_id_order(self):
        # The lists are keyed in reverse id order, so only the vertex order
        # can put ties in id order.
        rng = random.Random(33)
        insts = []
        while len(insts) < 60:
            g = random_degenerate_graph(rng, 3, rng.randint(3, 10))
            lists = {
                u: frozenset(rng.sample(range(1, 7), rng.choice((1, 2, 2, 3, 3, 3, 4))))
                for u in reversed(g.vertices)
            }
            sizes = [len(cs) for cs in lists.values()]
            if 1 < len(set(sizes)) < len(sizes):
                insts.append(DPInstance(g, lists, shuffled_matchings(rng, g, lists)))
        assert min(self.check(insts).values()) >= 5


def bandwidth(inst):
    """B of the search window: the largest forward distance over the edges
    in branching order (list size, then id), at least 1."""
    order = sorted(inst.graph.vertices, key=lambda u: (len(inst.lists[u]), u))
    pos = {u: i for i, u in enumerate(order)}
    return max([abs(pos[u] - pos[v]) for u, v in inst.graph.pairs()] + [1])


def band_graph(rng, n, b):
    """Vertices v00.. in a row, each joined to the next one and to a random
    set of those at most b ahead; the pair at distance b is always there."""
    names = [f"v{i:02d}" for i in range(n)]
    mult = {(names[i], names[i + 1]): 1 for i in range(n - 1)}
    start = rng.randrange(n - b)
    mult[(names[start], names[start + b])] = 1
    for i in range(n):
        for j in range(i + 2, min(n, i + b + 1)):
            if rng.random() < 0.4:
                mult[(names[i], names[j])] = rng.randint(1, 2)
    return Multigraph(tuple(names), mult)


class TestSearchWindow:
    """The search keeps the fields of vertices i..i+B, padded past the last
    vertex; it must answer as the reference does at every bandwidth."""

    @staticmethod
    def cases(rng, n_range, b_of, count):
        """Band graphs with list sizes that never fall along the row, so
        branching order is id order: one size per instance for two cases
        in three, else rising sizes, so the fields that enter the window
        differ. Random matchings, half perfect, half partial."""
        insts = []
        for i in range(count):
            n = rng.randint(*n_range)
            g = band_graph(rng, n, b_of(n))
            if i % 3:
                sizes = [rng.choice((1, 2, 2, 3, 3))] * n
            else:
                sizes = sorted(rng.choice((1, 2, 2, 3, 3, 4)) for _ in range(n))
            lists = {u: frozenset(rng.sample(range(1, 6), size)) for u, size in zip(g.vertices, sizes)}
            matching = shuffled_matchings(rng, g, lists) if i % 2 else random_matching(g, lists, i, 1.0)
            insts.append(DPInstance(g, lists, matching))
        return insts

    def test_bandwidth_one(self):
        insts = self.cases(random.Random(51), (2, 14), lambda n: 1, 150)
        assert {bandwidth(inst) for inst in insts} == {1}
        assert min(TestSearchTables.check(insts).values()) >= 5

    def test_bandwidth_between_one_and_n_less_one(self):
        rng = random.Random(52)
        insts = self.cases(rng, (4, 13), lambda n: rng.randint(2, n - 2), 150)
        assert all(1 < bandwidth(inst) < len(inst.graph.vertices) - 1 for inst in insts)
        assert min(TestSearchTables.check(insts).values()) >= 5

    def test_bandwidth_n_less_one(self):
        insts = self.cases(random.Random(53), (2, 11), lambda n: n - 1, 150)
        insts += [bad_instance_knt(n, t)[0] for n, t in ((3, 1), (4, 1), (3, 2))]
        assert all(bandwidth(inst) == len(inst.graph.vertices) - 1 for inst in insts)
        assert min(TestSearchTables.check(insts).values()) >= 5

    def test_dead_ends_in_the_padded_levels(self):
        # A path of 2-lists whose first pick forces the rest, then a triangle
        # of 2-lists at the end: the last B = 2 levels read padding, and the
        # search meets its dead ends there, backtracking to the first level.
        rng = random.Random(54)
        insts = []
        for i in range(120):
            m = rng.randint(1, 12)
            names = [f"v{j:02d}" for j in range(m + 3)]
            mult = {(names[j], names[j + 1]): 1 for j in range(m + 2)}
            mult[(names[m], names[m + 2])] = 1
            g = Multigraph(tuple(names), mult)
            lists = {u: frozenset(rng.sample(range(1, 5), 2)) for u in names}
            matching = shuffled_matchings(rng, g, lists)
            inst = DPInstance(g, lists, matching)
            assert bandwidth(inst) == 2
            insts.append(inst)
        assert min(TestSearchTables.check(insts).values()) >= 5

    def test_one_vertex(self):
        one = Multigraph(("v",), {})
        for size in range(4):
            inst = DPInstance(one, {"v": frozenset(range(7, 7 + size))}, {})
            assert bandwidth(inst) == 1
            res, nodes = assert_search_is_the_reference(inst)
            assert res == (SolveResult({"v": 7}) if size else SolveResult(None, witness_vertex="v"))
            assert nodes == (1 if size else 0)


class TestSolve:
    def test_fig1(self):
        left, right = fig1_pair()
        assert solve_checked(left).colorable
        assert not solve_checked(right).colorable

    def test_single_vertex(self):
        inst = DPInstance(Multigraph(("v",), {}), {"v": frozenset({1})}, {})
        assert solve(inst).transversal == {"v": 1}

    def test_empty_list_witness(self):
        g = path_graph(["a", "b"])
        inst = DPInstance(g, {"a": frozenset(), "b": frozenset({1})}, {})
        res = solve(inst)
        assert not res.colorable
        assert res.witness_vertex == "a"

    def test_invalid_raises(self):
        g = Multigraph(("u", "v"), {("u", "v"): 1})
        inst = DPInstance(
            g, {"u": frozenset({1}), "v": frozenset({1, 2})},
            {("u", "v"): frozenset({(1, 1), (1, 2)})},
        )
        with pytest.raises(InvalidInstance):
            solve(inst)

    def test_deterministic_least_in_branch_order(self):
        # equal list sizes: branch order is vertex id order, so the result is
        # the lexicographically least feasible assignment
        left, _ = fig1_pair()
        assert solve(left).transversal == {"a": 1, "b": 2, "c": 1, "d": 2}
        assert solve(left).transversal == solve(left).transversal

    @settings(max_examples=60, deadline=None)
    @given(instances(max_vertices=4))
    def test_agrees_with_naive_enumeration(self, inst):
        if transversal_space(inst) > 10**5:
            return
        assert solve_checked(inst).colorable == (naive_colorable(inst) is not None)

    def test_matches_the_reference_search(self):
        # The search has the same answer and the same node count as the
        # recursive one: a budget of exactly its nodes passes, one node less
        # raises. solve gives the same answer.
        kinds = {"colorable": 0, "not colorable": 0, "witness": 0}
        for inst in reference_cases():
            (transversal, witness), nodes = reference_search(inst)
            res = _search(inst, max_nodes=nodes)
            assert (res.transversal, res.witness_vertex) == (transversal, witness)
            assert solve(inst).transversal == transversal
            kind = "colorable" if transversal is not None else "not colorable"
            kinds["witness" if witness else kind] += 1
            if nodes:
                with pytest.raises(GuardExceeded):
                    _search(inst, max_nodes=nodes - 1)
        assert min(kinds.values()) >= 5, kinds

    def test_theorem_step_agrees_with_the_search(self):
        # The theorem step only ever says "not colorable", so solve returns
        # the search's result on every case; it answers the certified ones,
        # the bad K_n^t among them, without a single search node.
        certified = 0
        for inst in reference_cases():
            res = _search(inst)
            assert solve(inst) == res
            if needs_nodes(_search, inst) and not needs_nodes(solve, inst):
                assert not res.colorable
                certified += 1
        assert certified >= 6

    def test_disconnected_components_are_certified_one_by_one(self):
        bad = bad_instance_knt(4, 1)[0]
        ladder = from_k_coloring(cycle_graph(["a", "b", "c", "d"]), 2)
        for inst in (disjoint_union(bad, bad), disjoint_union(ladder, bad)):
            assert solve(inst, max_nodes=0) == SolveResult(None) == _search(inst)
        both = disjoint_union(ladder, ladder)
        assert solve(both) == _search(both)
        assert solve(both).colorable and needs_nodes(solve, both)

    def test_deep_path(self):
        for n in (1500, 10**4, 10**5):
            inst = from_k_coloring(path_graph([f"p{i:06d}" for i in range(n)]), 2)
            res = solve(inst)
            assert res.colorable and is_valid_transversal(inst, res.transversal)
            assert res.transversal == {u: 1 + i % 2 for i, u in enumerate(inst.graph.vertices)}
            assert "_index" not in inst.graph.__dict__  # the degree-list test reads degrees only

    def test_node_budget(self):
        inst = bad_knt_less_one_color(9)
        with pytest.raises(GuardExceeded, match="max_nodes=100"):
            solve(inst, max_nodes=100)
        assert solve(inst) == solve(inst, max_nodes=10**6)
        assert not solve(inst).colorable
        with pytest.raises(ValueError):
            solve(inst, max_nodes=-1)

    def test_certified_instance_needs_no_nodes(self):
        assert solve(bad_instance_knt(9, 1)[0], max_nodes=0) == SolveResult(None)

    def test_monotone_in_list_growth(self):
        rng = random.Random(11)
        grown = 0
        for seed in range(120):
            g = random_degenerate_graph(rng, 2, rng.randint(2, 6))
            lists = {u: frozenset(range(1, g.degree(u) + 1)) for u in g.vertices}
            inst = DPInstance(g, lists, random_matching(g, lists, seed, 1.0))
            if not solve_checked(inst).colorable:
                continue
            u = sorted(g.vertices)[rng.randrange(len(g.vertices))]
            bigger = dict(lists)
            bigger[u] = lists[u] | {max(lists[u], default=0) + 1}
            grown += 1
            assert solve_checked(DPInstance(g, bigger, inst.matching)).colorable
        assert grown > 50


@pytest.mark.parametrize(
    "make, error, match",
    [
        (lambda: degeneracy_order(Multigraph((), {})), EmptyGraph, "empty graph"),
        (lambda: dp_chromatic_number_small(Multigraph((), {}), 3), EmptyGraph, "empty graph"),
        (lambda: dp_chromatic_number_small(path_graph(["a", "b"]), 0), ValueError, "k_max must be >= 1"),
    ],
    ids=["degeneracy-empty", "dp-chromatic-empty", "k-max-0"],
)
def test_small_graph_tools_refuse(make, error, match):
    with pytest.raises(error, match=match):
        make()


class TestDegeneracyOrder:
    def test_tree_back_degree_one(self):
        g = path_graph(["a", "b", "c", "d"])
        order = degeneracy_order(g)
        assert self.back_degree(g, order) <= 1

    def test_k4(self):
        assert self.back_degree(
            complete_graph(["a", "b", "c", "d"]),
            degeneracy_order(complete_graph(["a", "b", "c", "d"])),
        ) == 3

    def test_c4(self):
        g = cycle_graph(["a", "b", "c", "d"])
        assert self.back_degree(g, degeneracy_order(g)) == 2

    def test_counts_multiplicity(self):
        g = Multigraph(("a", "b"), {("a", "b"): 3})
        assert self.back_degree(g, degeneracy_order(g)) == 3

    def test_matches_the_reference_loop(self):
        # The old quadratic peel: repeatedly take the least (degree, id).
        rng = random.Random(13)
        for _ in range(60):
            g = random_degenerate_graph(rng, 3, rng.randint(1, 12))
            deg = {u: g.degree(u) for u in g.vertices}
            remaining, order = set(g.vertices), []
            while remaining:
                u = min(remaining, key=lambda x: (deg[x], x))
                order.append(u)
                remaining.discard(u)
                for v in g.neighbors(u):
                    if v in remaining:
                        deg[v] -= g.multiplicity(u, v)
            assert degeneracy_order(g) == tuple(order)

    def test_long_path_is_fast(self):
        g = path_graph([f"p{i}" for i in range(10**4)])
        gc.collect()  # collect earlier tests' garbage now, not inside the timed region
        start = time.perf_counter()
        order = degeneracy_order(g)
        assert time.perf_counter() - start < 0.5
        assert self.back_degree(g, order) == 1

    @staticmethod
    def back_degree(g, order):
        pos = {u: i for i, u in enumerate(order)}
        best = 0
        for u in order:
            back = sum(
                g.multiplicity(u, v) for v in g.neighbors(u) if pos[v] > pos[u]
            )
            best = max(best, back)
        return best


class TestGreedyColor:
    def test_tree_with_two_lists(self):
        rng = random.Random(3)
        for seed in range(30):
            n = rng.randint(2, 9)
            g = random_degenerate_graph(rng, 1, n)
            lists = {u: frozenset({1, 2}) for u in g.vertices}
            inst = DPInstance(g, lists, random_matching(g, lists, seed, 1.0))
            res = greedy_color(inst, degeneracy_order(g))
            assert res.colorable
            assert is_valid_transversal(inst, res.transversal)

    def test_c4_with_three_lists(self):
        g = cycle_graph(["a", "b", "c", "d"])
        lists = {u: frozenset({1, 2, 3}) for u in g.vertices}
        for seed in range(20):
            inst = DPInstance(g, lists, random_matching(g, lists, seed, 1.0))
            res = greedy_color(inst, degeneracy_order(g))
            assert res.colorable
            assert solve_checked(inst).colorable

    def test_heuristic_fails_on_tight_instance(self):
        _, right = fig1_pair()
        res = greedy_color(right, degeneracy_order(right.graph))
        assert not res.colorable
        assert res.witness_vertex is not None

    def test_matches_the_reference_loop(self):
        # In reverse order each vertex takes its least color not matched to
        # an earlier pick; the first vertex left with none is the witness.
        rng = random.Random(11)
        for seed in range(60):
            g = random_degenerate_graph(rng, 2, rng.randint(2, 9))
            lists = {u: frozenset(rng.sample(range(1, 6), 2)) for u in g.vertices}
            inst = DPInstance(g, lists, random_matching(g, lists, seed, 1.0))
            order = degeneracy_order(g)
            picks, witness = {}, None
            for u in reversed(order):
                free = sorted(
                    c for c in lists[u]
                    if not any((picks[v], c) in inst.pairs_between(v, u) for v in picks)
                )
                if not free:
                    witness = u
                    break
                picks[u] = free[0]
            res = greedy_color(inst, order)
            expected = (None, witness) if witness is not None else (picks, None)
            assert (res.transversal, res.witness_vertex) == expected

    def test_order_must_be_permutation(self):
        left, _ = fig1_pair()
        with pytest.raises(ValueError):
            greedy_color(left, ("a", "b"))


class TestDpChromaticSmall:
    def test_k1(self):
        assert dp_chromatic_number_small(Multigraph(("a",), {}), 3) == 1

    def test_k3(self):
        assert dp_chromatic_number_small(complete_graph(["a", "b", "c"]), 3) == 3

    def test_c4_unknown_below_three(self):
        assert dp_chromatic_number_small(cycle_graph(["a", "b", "c", "d"]), 2) is None

    def test_path_is_two(self):
        assert dp_chromatic_number_small(path_graph(["a", "b", "c"]), 3) == 2

    def test_doubled_edge(self):
        g = Multigraph(("a", "b"), {("a", "b"): 2})
        assert dp_chromatic_number_small(g, 3) == 3

    def test_guard(self):
        with pytest.raises(GuardExceeded):
            dp_chromatic_number_small(path_graph([f"v{i}" for i in range(6)]), 2)
        with pytest.raises(GuardExceeded):
            dp_chromatic_number_small(path_graph(["a", "b"]), 4)

    def test_uniform_enumeration_matches_brute_orbit_count(self):
        # one representative per relabeling orbit; cross-checked by counting
        # orbits directly on a path of two edges at t=2
        from itertools import permutations, product

        from dpcover.solver import _capped_bipartite_graphs

        g = path_graph(["a", "b", "c"])
        edges = g.pairs()
        vidx = {u: i for i, u in enumerate(g.vertices)}
        all_m = _capped_bipartite_graphs(2, 1)
        perms = list(permutations((1, 2)))
        orbit_reps = set()
        for assign in product(all_m, repeat=len(edges)):
            best = min(
                tuple(
                    tuple(sorted((gp[vidx[u]][x - 1], gp[vidx[v]][y - 1]) for x, y in m))
                    for m, (u, v) in zip(assign, edges)
                )
                for gp in product(perms, repeat=len(g.vertices))
            )
            orbit_reps.add(best)
        enumerated = sum(1 for _ in _uniform_assignments(g, 2))
        assert enumerated == len(orbit_reps)
