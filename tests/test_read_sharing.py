"""The JSON readers share what the generators share.

instance_from_json and signed_from_json key every map by the "vertices"
entries' own str objects and the matching by the graph's own pairs, and
read the lists, and the pair sets, given as the same items in the same
order into one frozenset each: in canonical text, every equal one. Pinned on
every fixture and on generated families, each read back from its canonical
text: the sharing itself; equality with the frozen reader of
tests/oracles.py, key and iteration orders included; and the answers of
decide, solve and restrict, which must be those on the frozen reader's
unshared instance. restrict's cut and case 2 of decide test lists by
identity (``lx is inst.lists[x]``, ``left_u is lists[u]``), so a list object
shared by many vertices must not change what they answer.
"""

import json
import random
from pathlib import Path

import pytest

from dpcover import (
    DPInstance,
    SignedGraph,
    all_positive,
    bad_instance_cnt,
    bad_instance_knt,
    complete_graph,
    cycle_graph,
    decide,
    from_k_coloring,
    glue_bad,
    path_graph,
    random_matching,
    restrict,
    solve,
    solve_signed,
    validate,
)
from dpcover.gen import blow_up
from dpcover.multigraph import edge_power
from dpcover.serialize import (
    certificate_to_json,
    dumps,
    instance_from_json,
    instance_to_json,
    lists_from_json,
    signed_from_json,
    signed_to_json,
)
from tests.oracles import reference_instance_from_json, reference_lists_from_json, reference_signed_from_json
from tests.test_reader_reference import _orders
from tests.test_wire_reference import k2_chain, random_tree

FIXTURES = Path(__file__).parent / "fixtures"


def _near_bad(inst: DPInstance, key) -> DPInstance:
    """``inst`` with the least pair removed on the edge ``key``: case 2 of decide."""
    return DPInstance(inst.graph, inst.lists, {**inst.matching, key: frozenset(sorted(inst.matching[key])[1:])})


def _random_matched(g, extra: int, seed: int) -> DPInstance:
    lists = {u: frozenset(range(1, g.degree(u) + 1 + extra)) for u in g.vertices}
    return DPInstance(g, lists, random_matching(g, lists, seed, 0.7))


def generated_instances():
    """name -> an instance, over the generated families."""
    for n, t in ((5, 1), (7, 2), (10, 3), (101, 1)):
        yield f"bad_cnt_{n}_{t}", bad_instance_cnt(n, t)[0]
    for n, t in ((4, 1), (5, 2), (8, 1)):
        yield f"bad_knt_{n}_{t}", bad_instance_knt(n, t)[0]
    rng = random.Random(3403)
    for n_blocks in (3, 12, 40):
        yield f"glue_tree_{n_blocks}", glue_bad(random_tree(rng, n_blocks))[0]
    for n_blocks, t in ((25, 1), (10, 2)):
        yield f"k2_chain_{n_blocks}_{t}", glue_bad(k2_chain(n_blocks, t))[0]
    for n, k in ((30, 2), (12, 3)):
        yield f"path_{n}_{k}", from_k_coloring(path_graph([f"p{i:06d}" for i in range(n)]), k)
    for seed, (g, extra) in enumerate([
        (cycle_graph([f"c{i}" for i in range(9)]), 0),
        (complete_graph(list("abcde")), 0),
        (blow_up(cycle_graph(list("wxyz")), 2), 1),
        (edge_power(cycle_graph(list("pqrst")), 2), 1),
    ]):
        yield f"random_matching_{seed}", _random_matched(g, extra, seed)
    bad = bad_instance_cnt(21, 1)[0]
    yield "near_bad_cnt_first", _near_bad(bad, min(bad.matching))
    yield "near_bad_cnt_last", _near_bad(bad, max(bad.matching))
    tree = glue_bad(random_tree(random.Random(3404), 15))[0]
    yield "near_bad_tree", _near_bad(tree, max(tree.matching))


INSTANCE_TEXTS = [
    pytest.param(p.read_text(), id=p.stem)
    for p in sorted(FIXTURES.glob("*.json"))
    if "lists" in json.loads(p.read_text())
] + [pytest.param(dumps(instance_to_json(inst)), id=name) for name, inst in generated_instances()]


def _signed_graphs():
    yield "all_positive_c5", all_positive(cycle_graph(list("abcde")))
    g = edge_power(complete_graph(list("abc")), 2)
    yield "mixed_k3_2", SignedGraph(g, {p: (1, -1) for p in g.mult})
    c = cycle_graph([f"s{i:03d}" for i in range(12)])
    yield "alternating_c12", SignedGraph(c, {p: ((-1) ** i,) for i, p in enumerate(c.mult)})


SIGNED_TEXTS = [
    pytest.param(p.read_text(), id=p.stem)
    for p in sorted(FIXTURES.glob("signed_*.json"))
] + [pytest.param(dumps(signed_to_json(s)), id=name) for name, s in _signed_graphs()]


def _assert_keyed_by_the_vertices(data: dict, graph, *maps) -> None:
    """Each id in ``graph`` is the doc's own "vertices" entry, and each key
    of ``maps`` that names a vertex, alone or in a pair, is that entry."""
    entries = {u: u for u in data["vertices"]}
    assert all(u is entries[u] for u in graph.vertices)
    for keys in (graph.mult, *maps):
        for key in keys:
            for u in key if isinstance(key, tuple) else (key,):
                assert u not in entries or u is entries[u], key


def _answer(call, *args, **kwargs):
    """What ``call`` returns, in comparable form, or the type and message it raises."""
    try:
        out = call(*args, **kwargs)
    except Exception as exc:  # noqa: BLE001 - the type and message are compared
        return type(exc), str(exc)
    if hasattr(out, "certificate"):
        cert = out.certificate
        return out.transversal, cert and dumps(certificate_to_json(cert))
    if isinstance(out, DPInstance):
        return out, _orders(out)
    return out


@pytest.mark.parametrize("text", INSTANCE_TEXTS)
def test_an_instance_read_shares_its_ids_pairs_and_sets(text):
    data = json.loads(text)
    read = instance_from_json(data)
    _assert_keyed_by_the_vertices(data, read.graph, read.lists, read.matching)
    pairs = {p: p for p in read.graph.mult}
    assert all(p is pairs[p] for p in read.matching if p in pairs)
    for sets in (read.lists.values(), read.matching.values()):
        assert len({id(s) for s in sets}) == len(set(sets))


@pytest.mark.parametrize("text", INSTANCE_TEXTS)
def test_an_instance_read_is_the_frozen_readers(text):
    read, unshared = instance_from_json(json.loads(text)), reference_instance_from_json(json.loads(text))
    assert read == unshared
    assert _orders(read) == _orders(unshared)
    assert "_violations" not in read.__dict__


@pytest.mark.parametrize("text", INSTANCE_TEXTS)
def test_a_shared_read_answers_as_the_unshared_one(text):
    """decide, solve and restrict, the cuts once the check has run clean."""
    read, unshared = instance_from_json(json.loads(text)), reference_instance_from_json(json.loads(text))
    assert _answer(decide, read) == _answer(decide, unshared)
    assert _answer(solve, read, max_nodes=2000) == _answer(solve, unshared, max_nodes=2000)
    assert validate(read) == validate(unshared)
    for u in read.graph.vertices[:40]:
        for c in sorted(read.lists.get(u, ())):
            assert _answer(restrict, read, u, c) == _answer(restrict, unshared, u, c), (u, c)


@pytest.mark.parametrize("text", SIGNED_TEXTS)
def test_a_signed_read_shares_its_ids(text):
    data = json.loads(text)
    read, unshared = signed_from_json(data), reference_signed_from_json(json.loads(text))
    _assert_keyed_by_the_vertices(data, read.graph, read.signs)
    assert read == unshared
    assert _orders(read) == _orders(unshared)
    assert _answer(solve_signed, read, 3, max_nodes=500) == _answer(solve_signed, unshared, 3, max_nodes=500)


@pytest.mark.parametrize("text", INSTANCE_TEXTS)
def test_lists_read_alone_share_equal_lists(text):
    lists = json.loads(text)["lists"]
    read, unshared = lists_from_json(lists), reference_lists_from_json(lists)
    assert read == unshared and list(read) == list(unshared)
    assert len({id(cs) for cs in read.values()}) == len(set(read.values()))


def test_a_set_read_in_another_order_keeps_its_own():
    """Equal sets can iterate in different orders when read in different
    orders; a set is shared only with one read as the same items in the same
    order, so every set iterates as the frozen reader's does."""
    assert list(frozenset([1, 9])) != list(frozenset([9, 1]))
    data = {
        "vertices": ["a", "b", "c"],
        "edges": [{"u": "a", "v": "b"}, {"u": "b", "v": "c"}, {"u": "a", "v": "c"}],
        "lists": {"a": [1, 9], "b": [9, 1], "c": [1, 9]},
        "matchings": [
            {"u": "a", "v": "b", "pairs": [[1, 9], [9, 1]]},
            {"u": "b", "v": "c", "pairs": [[9, 1], [1, 9]]},
            {"u": "c", "v": "a", "pairs": [[1, 9], [9, 1]]},
        ],
    }
    read = instance_from_json(data)
    assert _orders(read) == _orders(reference_instance_from_json(data))
    assert read.lists["a"] is read.lists["c"] is not read.lists["b"]
