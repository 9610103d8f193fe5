"""The certificate wire format against a frozen copy of its earlier writer
and reader.

certificate_to_json writes "blocks" and "partition" in one walk over the
labels, and certificate_from_json checks its ints inline. Both are pinned
here against the two-walk writer and the helper-per-int reader they
replaced: the canonical text must be byte-identical, the readers must return
equal certificates, and on malformed input the reader must refuse what the
frozen one refused, with the same message (a missing key, which the frozen
reader let out as a KeyError, is now a ValueError naming the key).
"""

import json
import random
from pathlib import Path

import pytest

from dpcover import (
    BadBlockSpec,
    BlockCertificate,
    BlockKind,
    ObstructionCertificate,
    all_positive,
    bad_instance_cnt,
    bad_instance_knt,
    complete_graph,
    cycle_graph,
    find_certificate,
    glue_bad,
    n_k,
    signed_to_dp,
)
from dpcover.cover import _pieces
from dpcover.serialize import certificate_from_json, certificate_to_json, dumps, instance_from_json
from tests.oracles import _reference_expect, _reference_int, _reference_int_pair

FIXTURES = Path(__file__).parent / "fixtures"


def reference_certificate_to_json(cert: ObstructionCertificate) -> dict:
    """A frozen copy of the earlier writer: the blocks, then the partition."""
    blocks_json = [
        {
            "kind": bc.kind.shape,
            "n": bc.kind.n,
            "t": bc.kind.t,
            "i_map": dict(sorted(bc.positions.items())),
            "labels": {
                u: {str(c): list(jk) for c, jk in sorted(lab.items())}
                for u, lab in sorted(bc.labels.items())
            },
        }
        for bc in cert.blocks
    ]
    partition = {
        u: {f"B{i}": sorted(part) for i, part in parts.items()}
        for u, parts in sorted(cert.partition().items())
    }
    return {"blocks": blocks_json, "partition": partition}


def _reference_label_key(key: str) -> int:
    color = int(key)
    if str(color) != key:
        raise ValueError(f"label key must be an integer in canonical form, got {key!r}")
    return color


def reference_certificate_from_json(data: dict) -> ObstructionCertificate:
    """A frozen copy of the earlier reader: one helper call per int."""
    expect = _reference_expect
    out = []
    for b in expect(expect(data, dict, "certificate").get("blocks", []), list, '"blocks"'):
        b = expect(b, dict, "certificate block")
        kind = BlockKind(
            expect(b["kind"], str, "block kind"),
            _reference_int(b["n"], "block n"),
            _reference_int(b["t"], "block t"),
        )
        positions = {
            u: _reference_int(i, "position") for u, i in expect(b["i_map"], dict, '"i_map"').items()
        }
        labels = {
            u: {
                _reference_label_key(c): _reference_int_pair(jk, "label")
                for c, jk in expect(lab, dict, "labels").items()
            }
            for u, lab in expect(b["labels"], dict, '"labels"').items()
        }
        out.append(BlockCertificate(kind, positions, labels))
    return ObstructionCertificate(tuple(out))


def random_tree(rng: random.Random, n_blocks: int) -> list[BadBlockSpec]:
    """A random plan of K_n^t and C_n^t blocks, each hung from an earlier one."""
    specs: list[BadBlockSpec] = []
    for i in range(n_blocks):
        attach = None
        if i:
            parent = rng.randrange(i)
            attach = (parent, rng.randint(1, specs[parent].n))
        if rng.random() < 0.6:
            specs.append(BadBlockSpec("Knt", rng.choice((2, 2, 3, 4)), rng.choice((1, 1, 2)), attach))
        else:
            specs.append(BadBlockSpec("Cnt", rng.choice((4, 5, 6)), rng.choice((1, 2)), attach))
    return specs


def k2_chain(n_blocks: int, t: int) -> list[BadBlockSpec]:
    return [BadBlockSpec("Knt", 2, t, attach=(i - 1, 2) if i else None) for i in range(n_blocks)]


OBSTRUCTED_FIXTURES = (
    "knt_3_1", "knt_4_2", "cnt_4_1", "cnt_5_1", "glue_tri_square", "p3_bad", "fig1_right", "two_pieces",
)


def fixture_certificates():
    for name in OBSTRUCTED_FIXTURES:
        inst = instance_from_json(json.loads((FIXTURES / f"{name}.json").read_text()))
        for piece in _pieces(inst):
            cert = find_certificate(piece)
            if cert is not None:
                yield cert


def certificates():
    """Generated and derived certificates: single blocks, random block
    trees, K_2 chains, negative colors from the signed reduction, and the
    fixtures."""
    for n in (2, 3, 4, 6, 11):
        for t in (1, 2, 3):
            yield bad_instance_knt(n, t)[1]
    for n in (4, 5, 6, 9, 12):
        for t in (1, 2):
            yield bad_instance_cnt(n, t)[1]
    rng = random.Random(2017)
    for n_blocks in (2, 3, 5, 9, 20, 40):
        for _ in range(3):
            inst, cert = glue_bad(random_tree(rng, n_blocks))
            yield cert
            yield find_certificate(inst)
    for n_blocks, t in ((1, 1), (5, 1), (12, 2), (30, 3)):
        inst, cert = glue_bad(k2_chain(n_blocks, t))
        yield cert
        yield find_certificate(inst)
    k3 = all_positive(complete_graph(["a", "b", "c"]))
    yield find_certificate(signed_to_dp(k3, {u: n_k(2).colors for u in "abc"}, k=2))
    c5 = all_positive(cycle_graph(["a", "b", "c", "d", "e"]))
    yield find_certificate(signed_to_dp(c5, {u: n_k(2).colors for u in "abcde"}, k=2))
    yield from fixture_certificates()


CERTIFICATES = list(certificates())


def test_corpus_is_broad():
    assert all(cert is not None for cert in CERTIFICATES)
    colors = [c for cert in CERTIFICATES for bc in cert.blocks for lab in bc.labels.values() for c in lab]
    assert min(colors) < 0
    assert max(len(cert.blocks) for cert in CERTIFICATES) >= 30


@pytest.mark.parametrize("cert", CERTIFICATES)
def test_text_and_reading_match_the_frozen_copy(cert):
    text = dumps(certificate_to_json(cert))
    assert text == dumps(reference_certificate_to_json(cert))
    assert certificate_to_json(cert) == reference_certificate_to_json(cert)
    data = json.loads(text)
    assert certificate_from_json(data) == reference_certificate_from_json(data) == cert


@pytest.mark.parametrize(
    "cert", [bad_instance_knt(4, 2)[1], bad_instance_cnt(7, 2)[1], glue_bad(k2_chain(3, 2))[1]]
)
def test_a_shared_label_view_is_converted_once(cert):
    """A generated block's vertices share one label view, and the writer
    hands them one label object; the text is still the frozen writer's."""
    data = certificate_to_json(cert)
    for bc, block in zip(cert.blocks, data["blocks"]):
        assert len({id(lab) for lab in bc.labels.values()}) == 1
        assert len({id(lab) for lab in block["labels"].values()}) == 1
    assert dumps(data) == dumps(reference_certificate_to_json(cert))


DELETE = object()
BAD_VALUES = [None, True, 1.5, -1, "1", [], [1], [1, 2, 3], [1.0, 1], [1, False], {}, {"1": [1, 1]}]


def malformed(data: dict):
    """Copies of a certificate's wire form with one value in its first block
    replaced by each bad value, or deleted; label keys made non-canonical."""
    def paths(x, path=()):
        yield path
        if isinstance(x, dict):
            for k, v in x.items():
                yield from paths(v, (*path, k))
        elif isinstance(x, list):
            for i, v in enumerate(x):
                yield from paths(v, (*path, i))

    for path in list(paths(data["blocks"][0], ("blocks", 0)))[1:]:
        for value in [*BAD_VALUES, DELETE]:
            copy = json.loads(json.dumps(data))
            parent = copy
            for k in path[:-1]:
                parent = parent[k]
            if value is DELETE:
                if isinstance(parent, dict):
                    del parent[path[-1]]
                    yield copy
            else:
                parent[path[-1]] = value
                yield copy
    for key in ("01", " 1", "+1", "1_0", "x", "1.0"):
        copy = json.loads(json.dumps(data))
        labels = next(iter(copy["blocks"][0]["labels"].values()))
        labels[key] = labels.pop(next(iter(labels)))
        yield copy


@pytest.mark.parametrize(
    "cert",
    [bad_instance_knt(3, 2)[1], bad_instance_cnt(5, 1)[1], glue_bad(k2_chain(3, 2))[1]],
)
def test_malformed_reading_matches_the_frozen_copy(cert):
    seen = 0
    for data in malformed(reference_certificate_to_json(cert)):
        try:
            want = reference_certificate_from_json(data)
        except KeyError as exc:
            with pytest.raises(ValueError, match=f"has no {exc.args[0]!r} key"):
                certificate_from_json(data)
        except ValueError as exc:
            with pytest.raises(ValueError) as got:
                certificate_from_json(data)
            assert str(got.value) == str(exc)
            seen += 1
        else:
            assert certificate_from_json(data) == want
    assert seen > 50
