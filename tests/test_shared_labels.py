"""One label view per run of equal label maps, from the walk to the wire
and back.

Along a block the derived label maps mostly repeat. The leaves-first walk
makes a map equal to the previous vertex's in the block order that same
dict, and freezes one read-only view per dict; certificate_from_json gives
a vertex the previous vertex's view when its raw labels are the same items
in the same key order, each a list of two exact ints. These tests pin the
sharing, and that nothing else changes: the certificates equal the
generators' and the frozen walk's, the reader returns what the frozen
reader returns, with each map's key order, and refuses what it refused.
"""

import json
import random

import pytest

from dpcover import (
    DPInstance,
    bad_instance_cnt,
    bad_instance_knt,
    find_certificate,
    glue_bad,
)
from dpcover.serialize import certificate_from_json, certificate_to_json, dumps
from tests.oracles import reference_leaves_first
from tests.test_wire_reference import k2_chain, random_tree, reference_certificate_from_json


def _generated():
    """(name, instance, the generator's certificate, one view per block)."""
    for n in (4, 5, 8, 9, 30, 31):
        for t in (1, 2):
            yield f"cnt{n}_{t}", *bad_instance_cnt(n, t), True
    for n in (2, 3, 4, 7, 12):
        for t in (1, 2, 3):
            yield f"knt{n}_{t}", *bad_instance_knt(n, t), True
    rng = random.Random(32)
    for n_blocks in (2, 5, 12, 30):
        yield f"tree{n_blocks}", *glue_bad(random_tree(rng, n_blocks)), False
    for n_blocks, t in ((1, 1), (6, 1), (20, 2), (9, 3)):
        yield f"chain{n_blocks}_{t}", *glue_bad(k2_chain(n_blocks, t)), False


GENERATED = list(_generated())


def _relabeled(inst: DPInstance, rng: random.Random) -> DPInstance:
    """The instance with the colors at about half its vertices permuted: the
    same cover up to names, so just as obstructed, but with label maps that
    differ from vertex to vertex along a block."""
    perm = {}
    for u in inst.graph.vertices:
        colors = sorted(inst.lists[u])
        image = rng.sample(colors, len(colors)) if rng.random() < 0.5 else colors
        perm[u] = dict(zip(colors, image))
    matching = {
        (u, v): frozenset((perm[u][a], perm[v][b]) for a, b in prs) for (u, v), prs in inst.matching.items()
    }
    return DPInstance(inst.graph, inst.lists, matching)


def _relabeled_cases():
    rng = random.Random(3201)
    for name, inst, _, _ in GENERATED:
        if len(inst.graph.vertices) <= 40:
            yield f"{name}-relabeled", _relabeled(inst, rng)


RELABELED = list(_relabeled_cases())


def _runs(maps: list) -> int:
    """The number of runs of equal maps in ``maps``, asserting that the maps
    of one run are one object and that two runs never share one."""
    for x, y in zip(maps, maps[1:]):
        assert (x is y) == (x == y)
    runs = 1 + sum(x != y for x, y in zip(maps, maps[1:]))
    assert len({id(lab) for lab in maps}) == runs
    return runs


def _along_the_order(bc) -> list:
    return [bc.labels[u] for u in sorted(bc.positions, key=bc.positions.get)]


@pytest.mark.parametrize("name,inst,cert,one", GENERATED, ids=[g[0] for g in GENERATED])
def test_the_walk_shares_a_view_per_run(name, inst, cert, one):
    found = find_certificate(inst)
    assert found == cert
    for bc in found.blocks:
        runs = _runs(_along_the_order(bc))
        assert runs == 1 or not one


@pytest.mark.parametrize("name,inst", RELABELED, ids=[r[0] for r in RELABELED])
def test_the_walk_shares_only_equal_maps(name, inst):
    found = find_certificate(inst)
    assert found is not None and found == reference_leaves_first(inst)[0]
    for bc in found.blocks:
        _runs(_along_the_order(bc))


def test_relabeled_maps_make_several_runs():
    runs = [_runs(_along_the_order(bc)) for _, inst in RELABELED for bc in find_certificate(inst).blocks]
    assert max(runs) >= 3 and runs.count(1) >= 5


def _read_as_the_frozen_reader(cert):
    data = json.loads(dumps(certificate_to_json(cert)))
    read, ref = certificate_from_json(data), reference_certificate_from_json(data)
    assert read == ref == cert
    for got, want in zip(read.blocks, ref.blocks):
        assert list(got.labels) == list(want.labels)
        for u in got.labels:
            assert list(got.labels[u].items()) == list(want.labels[u].items())
    return read


@pytest.mark.parametrize("name,inst,cert,one", GENERATED, ids=[g[0] for g in GENERATED])
def test_the_reader_shares_a_view_per_run(name, inst, cert, one):
    for source in (cert, find_certificate(inst)):
        read = _read_as_the_frozen_reader(source)
        for bc in read.blocks:
            # the reader shares along the text's vertex order, which is sorted
            runs = _runs(list(bc.labels.values()))
            assert runs == 1 or not one


@pytest.mark.parametrize("name,inst", RELABELED, ids=[r[0] for r in RELABELED])
def test_the_reader_shares_only_equal_maps(name, inst):
    read = _read_as_the_frozen_reader(find_certificate(inst))
    for bc in read.blocks:
        _runs(list(bc.labels.values()))


def _two_equal_vertices():
    """Wire form of bad C_5 and the raw labels of the first two vertices of
    its block, equal: {"1": [1, 1], "2": [2, 1]}."""
    data = certificate_to_json(bad_instance_cnt(5, 1)[1])
    data = json.loads(dumps(data))
    labels = data["blocks"][0]["labels"]
    first, second = list(labels)[:2]
    assert labels[first] == labels[second] == {"1": [1, 1], "2": [2, 1]}
    return data, labels, first, second


@pytest.mark.parametrize("odd,bad", [([1.0, 1], 1.0), ([True, 1], True), ([1, True], True), ([1, 1.0], 1.0)])
def test_an_equal_label_that_is_not_two_exact_ints_is_refused(odd, bad):
    data, labels, first, second = _two_equal_vertices()
    labels[second]["1"] = odd
    assert labels[second] == labels[first]
    with pytest.raises(ValueError) as want:
        reference_certificate_from_json(data)
    with pytest.raises(ValueError) as got:
        certificate_from_json(data)
    assert str(got.value) == str(want.value) == f"label must be an integer, got {bad!r}"


def test_equal_labels_in_another_key_order_keep_their_order():
    data, labels, first, second = _two_equal_vertices()
    labels[second] = dict(reversed(list(labels[second].items())))
    third = list(labels)[2]
    labels[third] = dict(labels[second])
    read = certificate_from_json(data)
    ref = reference_certificate_from_json(data)
    assert read == ref
    lab = read.blocks[0].labels
    for u in (first, second, third):
        assert list(lab[u].items()) == list(ref.blocks[0].labels[u].items())
    assert list(lab[first]) == [1, 2] and list(lab[second]) == [2, 1]
    assert lab[second] is not lab[first] and lab[third] is lab[second]


def test_a_label_after_one_read_through_the_int_checks_is_read_on_its_own():
    """A label the inline test does not pass but _int_pair lets through (an
    int subclass, from data built in Python) starts no run: the next vertex,
    equal to it under ==, keeps its own exact ints."""

    class Color(int):
        pass

    data, labels, first, second = _two_equal_vertices()
    labels[first]["1"] = [Color(1), 1]
    assert labels[second] == labels[first]
    read = certificate_from_json(data)
    ref = reference_certificate_from_json(data)
    assert read == ref
    lab = read.blocks[0].labels
    assert type(lab[first][1][0]) is Color and type(ref.blocks[0].labels[first][1][0]) is Color
    assert type(lab[second][1][0]) is int and type(ref.blocks[0].labels[second][1][0]) is int
    assert lab[second] is not lab[first]
