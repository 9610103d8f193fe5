"""A noise-free cost record: Python opcodes per call, counted exactly.

Each public call is counted on its second run, warm (validation, blocks()
and the degrees already built), under ``sys.settrace`` with
``f_trace_opcodes``, per code object. Counts are exact and repeat from run
to run, so they gate what timed runs on a shared host cannot: that the
work of ``decide``, ``verify_certificate`` and ``certificate_from_json``
grows linearly on each family, and what one unit of it costs.

The families are K_2^1 chains (unit: one block), bad C_n^1 (one vertex)
and bad K_n^1 (one edge). The exponent is fitted against the input size,
|V| + |E| + the matched pairs. The per-unit ceilings hold for CPython 3.11,
the interpreter of Tier-1 CI; elsewhere the counts differ and only the
exponents are asserted. A C builtin counts as one opcode however much it
does, so the time slopes stay the measure of what happens inside one.

Bytes are the other half of the record: what ``json.loads`` and
``instance_from_json`` leave held per vertex, read from the canonical text
of four families, with a ceiling each on CPython 3.11.

Run ``pytest tests/test_linear_work.py -s`` to print the per-function split.
"""

from __future__ import annotations

import gc
import json
import math
import random
import sys
import tracemalloc
from collections import Counter
from pathlib import Path

import pytest

import dpcover
from dpcover import (
    bad_instance_cnt,
    bad_instance_knt,
    decide,
    from_k_coloring,
    glue_bad,
    path_graph,
    verify_certificate,
)
from dpcover.cover import require_valid
from dpcover.gen import BadBlockSpec
from dpcover.multigraph import blocks
from dpcover.serialize import certificate_from_json, certificate_to_json, dumps, instance_from_json, instance_to_json
from tests.test_wire_reference import random_tree

CPYTHON_311 = sys.implementation.name == "cpython" and sys.version_info[:2] == (3, 11)


PACKAGE = str(Path(dpcover.__file__).parent)


def opcodes(call) -> Counter:
    """Opcodes that ``call()`` runs in the package's own code, per code
    object's qualified name, on its second run. Other frames, such as a
    collector callback that a test tool installs, are not counted."""
    call()
    counts: Counter = Counter()

    def trace(frame, event, arg):
        if not frame.f_code.co_filename.startswith(PACKAGE):
            return None
        frame.f_trace_opcodes = True
        frame.f_trace_lines = False
        name = frame.f_code.co_qualname

        def local(frame, event, arg):
            if event == "opcode":
                counts[name] += 1
            return local

        return local

    sys.settrace(trace)
    try:
        call()
    finally:
        sys.settrace(None)
    return counts


def k2_chain(n_blocks: int):
    specs = [BadBlockSpec("Knt", 2, 1, attach=(i - 1, 2) if i else None) for i in range(n_blocks)]
    return glue_bad(specs)


# family -> (rungs, builder from a rung, units of a rung, gated calls)
FAMILIES = {
    "k2_chain": ((250, 500, 1000), k2_chain, lambda n: n,
                 ("decide", "verify_certificate", "certificate_from_json")),
    "bad_cnt": ((251, 501, 1001), lambda n: bad_instance_cnt(n, 1), lambda n: n,
                ("decide", "verify_certificate", "certificate_from_json")),
    "bad_knt": ((10, 20), lambda n: bad_instance_knt(n, 1), lambda n: n * (n - 1) // 2,
                ("decide", "verify_certificate")),
}

# Opcodes per unit at the largest rung, on CPython 3.11.
CEILINGS = {
    ("k2_chain", "decide"): 720,
    ("k2_chain", "verify_certificate"): 360,
    ("k2_chain", "certificate_from_json"): 330,
    ("bad_cnt", "decide"): 519,
    ("bad_cnt", "verify_certificate"): 273,
    ("bad_cnt", "certificate_from_json"): 65,
    ("bad_knt", "decide"): 730,
    ("bad_knt", "verify_certificate"): 569,
}


def calls(inst, cert):
    """The counted calls on one instance with its certificate; each runs
    on the instance validated and decomposed."""
    require_valid(inst)
    blocks(inst.graph)
    data = json.loads(dumps(certificate_to_json(cert)))
    return {
        "decide": lambda: decide(inst),
        "verify_certificate": lambda: verify_certificate(inst, cert),
        "certificate_from_json": lambda: certificate_from_json(data),
        "certificate_to_json": lambda: certificate_to_json(cert),
    }


def input_size(inst) -> int:
    return len(inst.graph.vertices) + len(inst.graph.mult) + sum(map(len, inst.matching.values()))


@pytest.fixture(scope="module")
def record():
    """family -> call -> [(input size, units, opcodes per code object)] per rung."""
    out = {}
    for family, (rungs, build, units, _) in FAMILIES.items():
        out[family] = {}
        for n in rungs:
            inst, cert = build(n)
            size = input_size(inst)
            for name, call in calls(inst, cert).items():
                out[family].setdefault(name, []).append((size, units(n), opcodes(call)))
    return out


def split(counts: Counter, units: int, top: int = 8) -> str:
    return ", ".join(f"{name} {k / units:.1f}" for name, k in counts.most_common(top))


@pytest.mark.parametrize("family", FAMILIES)
def test_work_is_linear(record, family):
    """The fitted log-log exponent of the opcode count against the input
    size is at most 1.02 for each gated call, between each two rungs."""
    for name in FAMILIES[family][3]:
        rows = record[family][name]
        for (s1, _, c1), (s2, _, c2) in zip(rows, rows[1:]):
            slope = math.log(sum(c2.values()) / sum(c1.values())) / math.log(s2 / s1)
            assert slope <= 1.02, (family, name, s1, s2, slope)


@pytest.mark.parametrize("family", FAMILIES)
def test_cost_per_unit(record, family, capsys):
    """Opcodes per unit at the largest rung, with the per-function split
    printed; the ceilings are asserted on CPython 3.11 only."""
    over = []
    for name, rows in record[family].items():
        _, units, counts = rows[-1]
        per_unit = sum(counts.values()) / units
        with capsys.disabled():
            print(f"\n{family} {name}: {per_unit:.1f} per unit ({split(counts, units)})")
        ceiling = CEILINGS.get((family, name))
        if CPYTHON_311 and ceiling is not None and per_unit > ceiling:
            over.append((name, round(per_unit, 1), ceiling))
    assert over == []


def test_counts_repeat():
    """The same call counts the same opcodes twice: the record is exact."""
    inst, cert = k2_chain(50)
    call = calls(inst, cert)["decide"]
    assert opcodes(call) == opcodes(call)


# family -> (its instance, the net bytes per vertex its read may hold on CPython 3.11)
READ_CEILINGS = {
    "path2_800": (lambda: from_k_coloring(path_graph([f"p{i:06d}" for i in range(800)]), 2), 280),
    "bad_cnt_331": (lambda: bad_instance_cnt(331, 1)[0], 230),
    "bad_knt_20": (lambda: bad_instance_knt(20, 1)[0], 2300),
    "glue_tree_66": (lambda: glue_bad(random_tree(random.Random(3202), 66))[0], 900),
}


def read_bytes_per_vertex(text: str) -> float:
    """Net traced bytes per vertex that ``json.loads`` and instance_from_json
    leave held on ``text``, the document dropped. A full collection on each
    side empties the interpreter's free lists, whose freed tuples, lists and
    dicts tracemalloc would still count."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        inst = instance_from_json(json.loads(text))
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    return held / len(inst.graph.vertices)


@pytest.mark.parametrize("family", READ_CEILINGS)
def test_read_bytes_per_vertex(family, capsys):
    """A read instance holds one object per vertex id, edge key, list and
    pair set, as a generated one does; the ceilings are asserted on CPython
    3.11 only."""
    build, ceiling = READ_CEILINGS[family]
    per_vertex = read_bytes_per_vertex(dumps(instance_to_json(build())))
    with capsys.disabled():
        print(f"\n{family} read: {per_vertex:.0f} B per vertex")
    assert not CPYTHON_311 or per_vertex <= ceiling
