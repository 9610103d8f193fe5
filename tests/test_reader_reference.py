"""The JSON readers against frozen copies of their earlier selves.

The readers test each value's type inline and build an instance through
DPInstance._from_parts, unchecked. They are pinned here against the copies
in tests/oracles.py, which made one helper call per value and built through
the public constructors: on hypothesis mutations of the fixture files and of
small generated instances and signed graphs, a reader must raise what the
frozen one raised, with the same message, or return an equal object with the
same key and iteration orders. Every CLI verb must answer a mutated file as
it did with the frozen readers.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path
from unittest import mock

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from dpcover import DPInstance, Multigraph, SignedGraph, cli
from dpcover.serialize import (
    instance_from_json,
    instance_to_json,
    lists_from_json,
    multigraph_from_json,
    signed_from_json,
    signed_to_json,
)
from tests.oracles import (
    reference_instance_from_json,
    reference_lists_from_json,
    reference_multigraph_from_json,
    reference_signed_from_json,
)
from tests.strategies import instances, signed_graphs

FIXTURES = Path(__file__).parent / "fixtures"
FIXTURE_DOCS = [json.loads(p.read_text()) for p in sorted(FIXTURES.glob("*.json"))]

ODD_VALUES = [
    None, True, False, 0, 1, -1, 1.5, 2.0, "", "a", "zz", "1",
    [], [1], [1, 2, 3], [1.0, 1], [1, True], ["a", "b"], {}, {"u": "a"}, {"1": [1, 1]},
]
MUTATIONS = (
    "drop", "swap", "bool", "float", "reverse", "repeat", "short", "long",
    "turn", "loop", "unknown", "duplicate", "stray", "nest",
)
# Vertex names not in any base doc, sorting before, between and after theirs.
UNKNOWN = ("0", "b0", "u10", "zz")


def _paths(x, path=()):
    """The path to every value in ``x``, paired with the value."""
    yield path, x
    if isinstance(x, dict):
        for k, v in x.items():
            yield from _paths(v, (*path, k))
    elif isinstance(x, list):
        for i, v in enumerate(x):
            yield from _paths(v, (*path, i))


def _mutate(draw, doc, path, how):
    """``doc`` with the value at ``path`` changed as ``how`` says; a change
    that does not apply to the value replaces it with an odd value."""
    x = doc
    for k in path:
        x = x[k]
    items = isinstance(x, dict) and "u" in x and "v" in x
    if how == "drop" and path:
        parent = doc
        for k in path[:-1]:
            parent = parent[k]
        del parent[path[-1]]
        return doc
    if how in ("bool", "float") and type(x) is int:
        new = bool(x) if how == "bool" else float(x)
    elif how == "reverse" and isinstance(x, list):
        new = x[::-1]
    elif how == "repeat" and isinstance(x, list) and x:
        new = [*x, x[draw(st.integers(0, len(x) - 1))]]
    elif how == "short" and isinstance(x, list) and x:
        new = x[:1]
    elif how == "long" and isinstance(x, list) and x:
        new = [*x, x[0]]
    elif how == "turn" and items:
        new = {**x, "u": x["v"], "v": x["u"]}
    elif how == "loop" and items:
        new = {**x, "v": x["u"]}
    elif how == "unknown" and (items or isinstance(x, str)):
        name = draw(st.sampled_from(UNKNOWN))
        new = {**x, draw(st.sampled_from("uv")): name} if items else name
    elif how == "duplicate" and isinstance(x, list) and x and isinstance(x[0], dict):
        new = [*x, dict(x[draw(st.integers(0, len(x) - 1))])]
    elif how == "stray" and isinstance(x, list) and x and isinstance(x[0], dict) and "u" in x[0]:
        # an item on a pair that is no edge, or at an unknown vertex
        ends = st.sampled_from([*UNKNOWN, *(y for e in x for y in (e.get("u"), e.get("v")) if isinstance(y, str))])
        new = [*x, {"u": draw(ends), "v": draw(ends), "pairs": draw(st.sampled_from([[], [[1, 1]], [[1, 2]]]))}]
    elif how == "nest":
        new = x
        for _ in range(draw(st.integers(1, 40))):
            new = [new] if draw(st.booleans()) else {"x": new}
    else:
        new = draw(st.sampled_from(ODD_VALUES))
    if not path:
        return new
    parent = doc
    for k in path[:-1]:
        parent = parent[k]
    parent[path[-1]] = new
    return doc


@st.composite
def mutated_docs(draw):
    base = draw(
        st.one_of(
            st.sampled_from(FIXTURE_DOCS),
            instances(max_vertices=4).map(instance_to_json),
            signed_graphs(max_vertices=4).map(signed_to_json),
        )
    )
    doc = base
    for _ in range(draw(st.integers(0, 3))):
        doc = json.loads(json.dumps(doc))  # a fresh tree: no value is shared
        paths = list(_paths(doc))
        every = [p for p, _ in paths]
        inner = [p for p, x in paths if isinstance(x, (dict, list))] or every  # as often as the leaves
        path = draw(st.sampled_from(inner) | st.sampled_from(every))
        doc = _mutate(draw, doc, path, draw(st.sampled_from(MUTATIONS)))
    return json.loads(json.dumps(doc))


def _lists_part(doc):
    return doc["lists"] if isinstance(doc, dict) and "lists" in doc else doc


def _outcome(reader, data):
    try:
        return reader(data), None
    except Exception as exc:  # noqa: BLE001 - the type is compared below
        return None, (type(exc), str(exc))


def _orders(obj) -> tuple:
    """The key orders, and the iteration orders of the frozensets, that
    equality does not see. A loop's pairs are left out: validate refuses
    them, and the public constructor copied them once more."""
    if isinstance(obj, Multigraph):
        return obj.vertices, list(obj.mult)
    if isinstance(obj, DPInstance):
        return (
            _orders(obj.graph), _orders(dict(obj.lists)),
            list(obj.matching), [list(prs) for (u, v), prs in obj.matching.items() if u != v],
        )
    if isinstance(obj, SignedGraph):
        return _orders(obj.graph), list(obj.signs)
    return list(obj), [list(cs) for cs in obj.values()]


# A small instance whose first matching names its pair backwards, and
# edits of it that each trip one reader rule.
SMALL = {
    "vertices": ["a", "b", "c"],
    "edges": [{"u": "a", "v": "b", "mult": 1}, {"u": "c", "v": "b", "mult": 2, "signs": [1, -1]}],
    "lists": {"a": [1, 2], "b": [1, 2, 3], "c": [1, 2]},
    "matchings": [{"u": "b", "v": "a", "pairs": [[1, 2], [2, 1]]}, {"u": "b", "v": "c", "pairs": [[1, 1]]}],
}


def _edited(key, value=None, extra=None):
    doc = json.loads(json.dumps(SMALL))
    if extra is not None:
        doc[key].append(extra)
    elif value is not None:
        doc[key] = value
    return doc


SMALL_EDITS = [
    SMALL,
    _edited("lists", {"a": [True, 2], "b": [1], "c": [1]}),
    _edited("lists", {"a": [1, 2.0], "b": [1], "c": [1]}),
    _edited("edges", extra={"u": "b", "v": "a"}),
    _edited("edges", extra={"u": "a", "v": "a"}),
    _edited("edges", extra={"u": 1, "v": "a"}),
    _edited("matchings", extra={"u": "a", "v": "b", "pairs": []}),
    _edited("matchings", extra={"u": "c", "v": "c", "pairs": [[1, 2]]}),
    _edited("matchings", extra={"u": "c", "v": "a", "pairs": []}),
    _edited("matchings", extra={"u": "c", "v": "a", "pairs": [[2, 1]]}),
    _edited("matchings", extra={"u": "b", "v": "0", "pairs": [[1, 1]]}),
    _edited("matchings", extra={"u": "a", "v": "c", "pairs": [[1, 2, 3]]}),
    _edited("matchings", extra={"u": "a", "v": "c", "pairs": [[1.0, 2]]}) | {"lists": {"a": "12"}},
    _edited("edges", [{"u": "a", "v": "b", "signs": [1, True]}]),
]


READERS = (
    (multigraph_from_json, reference_multigraph_from_json, lambda doc: doc),
    (instance_from_json, reference_instance_from_json, lambda doc: doc),
    (signed_from_json, reference_signed_from_json, lambda doc: doc),
    (lists_from_json, reference_lists_from_json, _lists_part),
)


def _pinned(test):
    for doc in SMALL_EDITS:
        test = example(doc)(test)
    return test


@_pinned
@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(mutated_docs())
def test_readers_match_the_frozen_copies(doc):
    for reader, reference, part in READERS:
        got, got_error = _outcome(reader, part(doc))
        want, want_error = _outcome(reference, part(doc))
        assert got_error == want_error, reader.__name__
        if want_error is None:
            assert got == want, reader.__name__
            assert _orders(got) == _orders(want), reader.__name__
            if isinstance(got, DPInstance):
                assert "_violations" not in got.__dict__


def test_mutations_reach_both_outcomes():
    """The corpus is not all refusals: unmutated docs parse, and each reader
    refuses some mutation."""
    for doc in FIXTURE_DOCS:
        if "edges" in doc:
            assert multigraph_from_json(doc) == reference_multigraph_from_json(doc)
    refused = {reader.__name__: 0 for reader, _, _ in READERS}
    accepted = dict(refused)

    @settings(max_examples=200, deadline=None, database=None)
    @given(mutated_docs())
    def count(doc):
        for reader, _, part in READERS:
            error = _outcome(reader, part(doc))[1]
            (accepted if error is None else refused)[reader.__name__] += 1

    count()
    assert all(refused.values()) and all(accepted.values()), (refused, accepted)


VERBS = (
    ("validate", "{f}", "--json"),
    ("solve", "{f}", "--max-nodes", "500"),
    ("decide", "{f}", "--json"),
    ("cover", "{f}"),
    ("signed", "{f}", "--k", "3", "--max-nodes", "500"),
    ("signed", "{f}", "--lists", "{l}", "--max-nodes", "500"),
    ("gen", "random", "--seed", "1", "{f}"),
)


def _run(argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(mutated_docs())
def test_cli_verbs_match_the_frozen_readers(doc):
    frozen = mock.patch.multiple(
        cli,
        instance_from_json=reference_instance_from_json,
        lists_from_json=reference_lists_from_json,
        signed_from_json=reference_signed_from_json,
    )
    with tempfile.TemporaryDirectory() as tmp:
        f, lists = Path(tmp) / "doc.json", Path(tmp) / "lists.json"
        f.write_text(json.dumps(doc))
        lists.write_text(json.dumps(_lists_part(doc)))
        for verb in VERBS:
            argv = [a.format(f=f, l=lists) for a in verb]
            got = _run(argv)
            with frozen:
                want = _run(argv)
            assert got == want, argv
            code, _, err = got
            if err:
                assert code in (2, 3) and err.startswith("error: "), argv
                assert err.count("\n") == 1 and "Traceback" not in err, argv
