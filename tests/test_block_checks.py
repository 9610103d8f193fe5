"""Pins for the per-block check and the partition pass: the one-class
edge test of K_2^t blocks, the parts checked at cut vertices alone, and
the reader's inline block tests, each against the frozen copies."""

from __future__ import annotations

import json

import pytest

import dpcover.obstruction as obstruction
from dpcover import (
    BadBlockSpec,
    BlockCertificate,
    DPInstance,
    Multigraph,
    ObstructionCertificate,
    bad_instance_cnt,
    bad_instance_knt,
    blocks,
    certificate_failure,
    decide,
    glue_bad,
)
from dpcover.serialize import certificate_from_json, certificate_to_json
from tests.test_candidate_replay import (
    reference_block_failure,
    reference_certificate_failure,
    single_pair_changes,
)
from tests.test_wire_reference import k2_chain, reference_certificate_from_json, reference_certificate_to_json


def overlapping_chain() -> tuple[DPInstance, ObstructionCertificate]:
    """The path x1 - m2 - m1 - x2 with lists {1} at the ends and {1, 2} at
    the cut vertices m1 and m2, and the pair (1, 1) on each edge: every
    block's certificate labels color 1 at both of its vertices and holds,
    but the parts overlap at both cut vertices."""
    g = Multigraph.from_pairs(["x1", "m2", "m1", "x2"], [("x1", "m2"), ("m2", "m1"), ("m1", "x2")])
    lists = {"x1": {1}, "m2": {1, 2}, "m1": {1, 2}, "x2": {1}}
    inst = DPInstance(g, lists, {e: {(1, 1)} for e in g.mult})
    dec = blocks(g)
    cert = ObstructionCertificate(tuple(
        BlockCertificate(kind, dict(zip(order, (1, 2))), {u: {1: (1, 1)} for u in order})
        for kind, order in zip(dec.kinds, dec.orders)
    ))
    return inst, cert


class TestOverlapAtCutVertices:
    """Only a cut vertex can hold two parts, and of two cut vertices whose
    parts overlap, the lesser is named, as the frozen replay names it."""

    def test_on_a_built_and_on_a_read_certificate(self):
        inst, cert = overlapping_chain()
        want = reference_certificate_failure(inst, cert)
        assert want == "parts at 'm1' overlap"
        assert certificate_failure(inst, cert) == want
        read = certificate_from_json(json.loads(json.dumps(certificate_to_json(cert))))
        assert certificate_failure(inst, read) == want
        reordered = ObstructionCertificate(cert.blocks[::-1])
        assert certificate_failure(inst, reordered) == want

    def test_on_a_walk_s_certificate(self, monkeypatch):
        """A derivation that labels color 1 at every vertex: the walk
        derives each block, and its own check of the certificate,
        _certificate_failure with ``walked``, names m1."""
        inst, cert = overlapping_chain()
        assert decide(inst).colorable
        checked = []
        real = obstruction._certificate_failure

        def spy(inst, cert, walked):
            checked.append((walked, real(inst, cert, walked)))
            return checked[-1][1]

        monkeypatch.setattr(obstruction, "_block_certificate", lambda inst, order, kind, left: (
            dict(zip(order, (1, 2))), {u: {1: (1, 1)} for u in order}
        ))
        monkeypatch.setattr(obstruction, "_certificate_failure", spy)
        want = r"^internal: derived certificate does not verify: parts at 'm1' overlap$"
        with pytest.raises(RuntimeError, match=want):
            decide(inst)
        assert checked == [(True, "parts at 'm1' overlap")]


def resized(inst, cert, u, grow):
    """``cert`` with the part at vertex u of its one block shrunk by its
    least color, or grown by a color outside L(u) that takes the least
    color's label; the other vertices keep the shared map."""
    bc = cert.blocks[0]
    lab = dict(bc.labels[u])
    least = min(lab)
    if grow:
        lab[max(inst.lists[u]) + 1] = lab[least]
    else:
        del lab[least]
    return ObstructionCertificate((BlockCertificate(bc.kind, bc.positions, {**bc.labels, u: lab}),))


@pytest.mark.parametrize("inst, cert", [
    *(bad_instance_cnt(n, t) for n in (4, 5, 8) for t in (1, 2)),
    *(bad_instance_knt(n, t) for n in (2, 3, 5) for t in (1, 2)),
])
@pytest.mark.parametrize("grow", [False, True])
def test_a_part_shrunk_or_grown_at_one_vertex(inst, cert, grow):
    messages = set()
    for u in inst.graph.vertices:
        bad = resized(inst, cert, u, grow)
        want = reference_certificate_failure(inst, bad)
        assert want is not None
        assert certificate_failure(inst, bad) == want
        messages.add(want.split(": ", 1)[1].replace(repr(u), "U"))
    assert messages == {"labeled colors at U outside L(U)" if grow
                        else "labels at U are not a bijection onto the index grid"}


K2_BASES = [
    *(bad_instance_knt(2, t) for t in (1, 2, 3)),
    *(glue_bad(k2_chain(4, t)) for t in (1, 2, 3)),
    glue_bad([BadBlockSpec("Knt", 2, 2)] + [BadBlockSpec("Knt", 2, t, attach=(0, 2)) for t in (1, 2, 3)]),
]


@pytest.mark.parametrize("inst, cert", K2_BASES)
def test_k2_blocks_on_every_single_pair_change(inst, cert):
    """A K_2^t block's edge, between whole lists or at a cut vertex, with a
    pair added (inside the parts or reaching another block's part), removed
    or moved: _block_failure says what the frozen set replay says."""
    dec = blocks(inst.graph)
    edges = dict(zip(dec.blocks, dec.edges))
    messages = []
    for bc in cert.blocks:
        assert obstruction._plan(bc.kind).one_class
        E = edges[bc.vertex_set]
        for variant in single_pair_changes(inst, E[0]):
            want = reference_block_failure(variant, bc, E)
            assert obstruction._block_failure(variant, bc, E) == want
            messages.append(want)
    assert any(m is not None and "missing cover edge" in m for m in messages)
    if len(cert.blocks) > 1:
        assert None in messages  # a pair outside the block's part at a cut vertex is another block's


class IntSub(int):
    pass


class StrSub(str):
    pass


@pytest.mark.parametrize("field, value", [
    ("n", True), ("n", 1.0), ("n", 3.0), ("n", IntSub(3)), ("n", None),
    ("t", True), ("t", 2.0), ("t", IntSub(2)),
    ("kind", StrSub("Knt")), ("kind", 3),
    ("i_map", {"u1": 1.0, "u2": 2, "u3": 3}), ("i_map", {"u1": IntSub(1), "u2": 2, "u3": 3}),
    ("i_map", {"u1": True, "u2": 2, "u3": 3}), ("i_map", [1, 2, 3]),
    ("labels", []), ("block", "not a block"), ("block", {"kind": "Knt", "n": 3, "t": 2, "labels": {}}),
])
def test_reader_block_fields_match_the_frozen_reader(field, value):
    """Each block-level field the reader now tests inline: a refusal raises
    the frozen reader's message, and a value it passes (an int or str
    subclass) reads to the frozen reader's certificate."""
    data = reference_certificate_to_json(bad_instance_knt(3, 2)[1])
    if field == "block":
        data["blocks"][0] = value
    else:
        data["blocks"][0][field] = value
    try:
        want = reference_certificate_from_json(data)
    except KeyError as exc:
        with pytest.raises(ValueError, match=f"has no {exc.args[0]!r} key"):
            certificate_from_json(data)
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            certificate_from_json(data)
        assert str(got.value) == str(exc)
    else:
        assert certificate_from_json(data) == want
