"""Wire-format round trips and DOT export."""

import json
import re
from pathlib import Path

import pytest
from hypothesis import given, settings

from dpcover import (
    BadBlockSpec,
    BlockKind,
    DPInstance,
    Multigraph,
    SignedGraph,
    bad_instance_cnt,
    bad_instance_knt,
    blocks,
    build_cover,
    cycle_graph,
    edge_power,
    find_certificate,
    from_k_coloring,
    glue_bad,
    validate,
)
from dpcover.multigraph import _block_kind
from dpcover.serialize import (
    certificate_from_json,
    certificate_to_json,
    cover_to_dot,
    dumps,
    instance_from_json,
    instance_to_json,
    lists_from_json,
    multigraph_from_json,
    multigraph_to_json,
    signed_from_json,
    signed_to_json,
)
from tests.strategies import instances, multigraphs, signed_graphs

FIXTURES = Path(__file__).parent / "fixtures"


class TestRoundTrips:
    @settings(max_examples=50, deadline=None)
    @given(multigraphs())
    def test_multigraph(self, g):
        assert multigraph_from_json(multigraph_to_json(g)) == g
        # canonical: emitting twice gives identical text
        assert dumps(multigraph_to_json(g)) == dumps(
            multigraph_to_json(multigraph_from_json(multigraph_to_json(g)))
        )

    @settings(max_examples=50, deadline=None)
    @given(instances())
    def test_instance(self, inst):
        assert instance_from_json(instance_to_json(inst)) == inst

    @settings(max_examples=50, deadline=None)
    @given(signed_graphs())
    def test_signed(self, s):
        assert signed_from_json(signed_to_json(s)) == s

    def test_multigraph_refuses_what_its_reader_refuses(self):
        data = {"vertices": ["a", "b"], "edges": [{"u": "a", "v": "b", "mult": True}]}
        with pytest.raises(ValueError):
            multigraph_from_json(data)
        with pytest.raises(ValueError):
            Multigraph(("a", "b"), {("a", "b"): True})

    @pytest.mark.parametrize("vertex", [1, None, ("a",)])
    def test_multigraph_vertex_ids_are_refused_like_the_reader(self, vertex):
        data = {"vertices": ["a", vertex], "edges": []}
        with pytest.raises(ValueError):
            multigraph_from_json(data)
        with pytest.raises(ValueError, match="vertex ids must be strings"):
            Multigraph(("a", vertex), {})
        with pytest.raises(ValueError, match="vertex ids must be strings"):
            Multigraph((1, 2), {(1, 2): 1})

    def test_instance_with_non_int_list_colors_is_invalid(self):
        # What the writer emits for such an instance, the reader refuses.
        g = Multigraph(("a", "b"), {})
        inst = DPInstance(g, {"a": {True, 2}, "b": {1.5}}, {})
        assert [(v.kind, v.subject) for v in validate(inst)] == [
            ("non-int-color", ("a", True)),
            ("non-int-color", ("b", 1.5)),
        ]
        with pytest.raises(ValueError):
            instance_from_json(json.loads(dumps(instance_to_json(inst))))

    @pytest.mark.parametrize("sign", [True, 1.0])
    def test_signed_graph_refuses_what_its_reader_refuses(self, sign):
        data = {"vertices": ["a", "b"], "edges": [{"u": "a", "v": "b", "mult": 1, "signs": [sign]}]}
        with pytest.raises(ValueError):
            signed_from_json(data)
        with pytest.raises(ValueError):
            SignedGraph(Multigraph(("a", "b"), {("a", "b"): 1}), {("a", "b"): (sign,)})

    def test_certificate(self):
        for inst, cert in (bad_instance_knt(4, 2), bad_instance_cnt(5, 2)):
            assert certificate_from_json(certificate_to_json(cert)) == cert

    def test_instance_text_is_canonical(self):
        inst, _ = bad_instance_knt(3, 1)
        text = dumps(instance_to_json(inst))
        again = dumps(instance_to_json(instance_from_json(json.loads(text))))
        assert text == again

    def test_signed_text_is_the_multigraph_text_with_signs(self):
        g = edge_power(cycle_graph(["a", "b", "c", "d"]), 2)
        s = SignedGraph(g, {("a", "b"): (1, -1), ("a", "d"): (-1, -1), ("b", "c"): (1, 1), ("c", "d"): (-1, 1)})
        assert dumps(signed_to_json(s)) == (
            '{"edges":[{"mult":2,"signs":[1,-1],"u":"a","v":"b"},'
            '{"mult":2,"signs":[-1,-1],"u":"a","v":"d"},'
            '{"mult":2,"signs":[1,1],"u":"b","v":"c"},'
            '{"mult":2,"signs":[-1,1],"u":"c","v":"d"}],'
            '"vertices":["a","b","c","d"]}\n'
        )

    def test_matchings_default_empty(self):
        data = {
            "vertices": ["a", "b"],
            "edges": [{"u": "a", "v": "b", "mult": 1}],
            "lists": {"a": [1], "b": [1]},
        }
        inst = instance_from_json(data)
        assert inst.matching[("a", "b")] == frozenset()

    def test_signs_default_positive(self):
        data = {
            "vertices": ["a", "b", "c"],
            "edges": [{"u": "b", "v": "a", "mult": 2}, {"u": "b", "v": "c"}],
        }
        s = signed_from_json(data)
        assert dict(s.signs) == {("a", "b"): (1, 1), ("b", "c"): (1,)}

    def test_null_signs_mean_all_positive(self):
        data = {"vertices": ["a", "b"], "edges": [{"u": "a", "v": "b", "mult": 2, "signs": None}]}
        assert dict(signed_from_json(data).signs) == {("a", "b"): (1, 1)}

    def test_canonical_text_is_one_compact_line(self):
        for data in (
            instance_to_json(bad_instance_knt(3, 2)[0]),
            certificate_to_json(bad_instance_cnt(5, 2)[1]),
            {},
        ):
            text = dumps(data)
            assert text.endswith("\n") and text.count("\n") == 1
            assert text == json.dumps(data, sort_keys=True, separators=(",", ":")) + "\n"
            assert json.loads(text) == data

    def test_cyclic_input_raises_recursion_error(self):
        """dumps skips the scan for circular references: writers hand it fresh trees."""
        loop: list = []
        loop.append(loop)
        with pytest.raises(RecursionError):
            dumps(loop)

    def test_indented_files_still_load(self):
        inst, cert = bad_instance_knt(4, 2)
        for to_json, from_json, obj in (
            (instance_to_json, instance_from_json, inst),
            (certificate_to_json, certificate_from_json, cert),
        ):
            indented = json.dumps(to_json(obj), sort_keys=True, indent=2) + "\n"
            assert indented.count("\n") > 1
            assert from_json(json.loads(indented)) == obj
            assert dumps(to_json(from_json(json.loads(indented)))) == dumps(to_json(obj))

    def test_fixture_files_parse(self):
        for path in sorted(FIXTURES.glob("*.json")):
            data = json.loads(path.read_text())
            if "edges" in data and "lists" in data:
                if any("signs" in e for e in data["edges"]):
                    signed_from_json(data)
                else:
                    instance_from_json(data)


GOOD_INSTANCE = {
    "vertices": ["a", "b"],
    "edges": [{"u": "a", "v": "b", "mult": 1}],
    "lists": {"a": [1, 2], "b": [1, 2]},
    "matchings": [{"u": "a", "v": "b", "pairs": [[1, 1]]}],
}


def with_field(key, value):
    return {**GOOD_INSTANCE, key: value}


GRAPH_READERS = (multigraph_from_json, instance_from_json, signed_from_json)


class TestMalformedJson:
    """Every malformed input is a ValueError, never a TypeError or a
    silently truncated value."""

    @pytest.mark.parametrize(
        "data",
        [
            pytest.param([GOOD_INSTANCE], id="top-level-array"),
            pytest.param("instance", id="top-level-string"),
            pytest.param(with_field("lists", [[1, 2], [1, 2]]), id="lists-not-object"),
            pytest.param(with_field("lists", {"a": 1, "b": [1]}), id="list-not-array"),
            pytest.param(with_field("edges", {"u": "a", "v": "b"}), id="edges-not-array"),
            pytest.param(with_field("matchings", {"u": "a"}), id="matchings-not-array"),
            pytest.param(with_field("vertices", ["a", 1]), id="mixed-vertex-ids"),
            pytest.param(with_field("edges", [{"u": "a", "v": 2}]), id="edge-endpoint-not-string"),
            pytest.param(with_field("lists", {"a": [1.5, 2], "b": [1, 2]}), id="float-color"),
            pytest.param(with_field("lists", {"a": [True, 2], "b": [1, 2]}), id="bool-color"),
            pytest.param(
                with_field("matchings", [{"u": "a", "v": "b", "pairs": [[1.0, 1]]}]),
                id="float-pair-color",
            ),
            pytest.param(
                with_field("matchings", [{"u": "a", "v": "b", "pairs": [[1, False]]}]),
                id="bool-pair-color",
            ),
            pytest.param(
                with_field("matchings", [{"u": "a", "v": "b", "pairs": [1]}]),
                id="pair-not-array",
            ),
            pytest.param(
                with_field("edges", [{"u": "a", "v": "b", "mult": 1.5}]), id="float-mult"
            ),
            pytest.param(
                with_field("edges", [{"u": "a", "v": "b", "mult": True}]), id="bool-mult"
            ),
            pytest.param(with_field("edges", [{"u": "a", "v": "b", "mult": 0}]), id="zero-mult"),
            pytest.param(with_field("vertices", ["a", "b", [1]]), id="array-vertex-id"),
            pytest.param(
                with_field("edges", [{"u": "a", "v": "b", "mult": 1}, {"u": "a", "v": "b", "mult": 2}]),
                id="repeated-edge",
            ),
            pytest.param(
                with_field("edges", [{"u": "a", "v": "b", "mult": 1}, {"u": "b", "v": "a", "mult": 1}]),
                id="repeated-edge-reversed",
            ),
            pytest.param(
                with_field(
                    "matchings",
                    [{"u": "a", "v": "b", "pairs": [[1, 1]]}, {"u": "a", "v": "b", "pairs": [[2, 2]]}],
                ),
                id="repeated-matching",
            ),
            pytest.param(
                with_field(
                    "matchings",
                    [{"u": "a", "v": "b", "pairs": [[1, 1]]}, {"u": "b", "v": "a", "pairs": [[2, 2]]}],
                ),
                id="repeated-matching-reversed",
            ),
        ],
    )
    def test_instance_shapes_raise_value_error(self, data):
        with pytest.raises(ValueError):
            instance_from_json(data)

    def test_well_formed_instance_parses(self):
        assert instance_from_json(GOOD_INSTANCE).lists["a"] == frozenset({1, 2})

    @pytest.mark.parametrize(
        "lists", [{"a": [0.5]}, {"a": [True]}, {"a": "1"}, ["a"]], ids=str
    )
    def test_lists_shapes_raise_value_error(self, lists):
        with pytest.raises(ValueError):
            lists_from_json(lists)

    def test_float_sign_raises_value_error(self):
        data = {"vertices": ["a", "b"], "edges": [{"u": "a", "v": "b", "mult": 1, "signs": [1.0]}]}
        with pytest.raises(ValueError):
            signed_from_json(data)

    @pytest.mark.parametrize("label", [[1.5, 1], [1, True], [1], "11"], ids=str)
    def test_certificate_label_shapes_raise_value_error(self, label):
        _, cert = bad_instance_knt(2, 1)
        data = certificate_to_json(cert)
        block = data["blocks"][0]
        u = next(iter(block["labels"]))
        block["labels"][u] = {c: label for c in block["labels"][u]}
        with pytest.raises(ValueError):
            certificate_from_json(data)

    @pytest.mark.parametrize("key", [" 1", "01", "+1", "1_0"])
    def test_certificate_label_keys_must_be_canonical(self, key):
        _, cert = bad_instance_knt(3, 1)
        data = certificate_to_json(cert)
        labels = data["blocks"][0]["labels"]["u1"]
        assert "1" in labels
        labels[key] = labels.pop("1")
        with pytest.raises(ValueError, match=re.escape(f"got {key!r}")):
            certificate_from_json(data)

    @pytest.mark.parametrize("data", [[], {"blocks": {}}, {"blocks": [[]]}], ids=str)
    def test_certificate_shapes_raise_value_error(self, data):
        with pytest.raises(ValueError):
            certificate_from_json(data)

    @pytest.mark.parametrize(
        "data, key, readers",
        [
            pytest.param({"edges": []}, "vertices", GRAPH_READERS, id="no-vertices"),
            pytest.param(with_field("edges", [{"v": "b"}]), "u", GRAPH_READERS, id="edge-without-u"),
            pytest.param(with_field("edges", [{"u": "a"}]), "v", GRAPH_READERS, id="edge-without-v"),
            pytest.param(
                with_field("matchings", [{"v": "b", "pairs": []}]), "u", (instance_from_json,),
                id="matching-without-u",
            ),
            pytest.param(
                with_field("matchings", [{"u": "a", "pairs": []}]), "v", (instance_from_json,),
                id="matching-without-v",
            ),
        ],
    )
    def test_missing_key_is_named(self, data, key, readers):
        for reader in readers:
            with pytest.raises(ValueError, match=f"has no '{key}' key"):
                reader(data)

    @pytest.mark.parametrize("key", ["kind", "n", "t", "i_map", "labels"])
    def test_missing_certificate_key_is_named(self, key):
        _, cert = bad_instance_knt(3, 1)
        data = certificate_to_json(cert)
        del data["blocks"][0][key]
        with pytest.raises(ValueError, match=f"certificate block has no '{key}' key"):
            certificate_from_json(data)


class TestCertificateWire:
    def test_shape_of_emitted_json(self):
        inst, cert = bad_instance_knt(3, 1)
        data = certificate_to_json(cert)
        assert set(data.keys()) == {"blocks", "partition"}
        (block,) = data["blocks"]
        assert block["kind"] == "Knt"
        assert block["n"] == 3 and block["t"] == 1
        assert set(block["i_map"].values()) == {1, 2, 3}
        some_vertex = next(iter(block["labels"]))
        some_color = next(iter(block["labels"][some_vertex]))
        assert isinstance(some_color, str)
        assert len(block["labels"][some_vertex][some_color]) == 2

    def test_partition_uses_block_indices(self):
        from dpcover import BadBlockSpec, glue_bad

        inst, cert = glue_bad(
            [BadBlockSpec("Knt", 2, 1), BadBlockSpec("Knt", 2, 1, (0, 2))]
        )
        data = certificate_to_json(cert)
        cut = "b0v2"
        assert set(data["partition"][cut].keys()) == {"B0", "B1"}

    def test_negative_colors_round_trip(self):
        from dpcover import all_positive, complete_graph, n_k, signed_to_dp

        s = all_positive(complete_graph(["a", "b", "c"]))
        inst = signed_to_dp(s, {u: n_k(2).colors for u in "abc"}, k=2)
        cert = find_certificate(inst)
        assert cert is not None
        assert certificate_from_json(certificate_to_json(cert)) == cert


class TestKindsAreInterned:
    """blocks(), the generators and the certificate reader hand out one
    BlockKind per (shape, n, t), so certificate_failure's kind test is an
    identity hit after a round trip through JSON."""

    @pytest.mark.parametrize("make", [
        lambda: bad_instance_knt(5, 2),
        lambda: bad_instance_cnt(6, 1),
        lambda: glue_bad([BadBlockSpec("Cnt", 5, 2), BadBlockSpec("Knt", 4, 1, (0, 3)),
                          BadBlockSpec("Knt", 2, 3, (1, 2))]),
    ])
    def test_one_object_per_kind(self, make):
        inst, cert = make()
        fresh = Multigraph(inst.graph.vertices, dict(inst.graph.mult))  # decomposed anew
        kinds = blocks(fresh).kinds
        assert all(bc.kind is kind for bc, kind in zip(cert.blocks, kinds))
        read = certificate_from_json(json.loads(dumps(certificate_to_json(cert))))
        assert all(bc.kind is kind for bc, kind in zip(read.blocks, kinds))
        assert all(bc.kind is kind for bc, kind in zip(find_certificate(inst).blocks, kinds))

    def test_the_reader_s_cache_is_bounded(self):
        """Sizes from the input can name any number of kinds; the cache
        keeps at most its bound, and a kind it has dropped is still equal."""
        bound = _block_kind.cache_info().maxsize
        assert bound is not None
        wire = {"blocks": [{"kind": "Knt", "n": n, "t": 7, "i_map": {}, "labels": {}}
                           for n in range(1, 2 * bound + 2)]}
        read = certificate_from_json(wire)
        assert _block_kind.cache_info().currsize <= bound
        assert read.blocks[0].kind == BlockKind("Knt", 1, 7)
        assert read.blocks[-1].kind is _block_kind("Knt", 2 * bound + 1, 7)


class TestDot:
    def test_node_names_and_edges(self):
        inst = from_k_coloring(Multigraph(("a", "b"), {("a", "b"): 1}), 2)
        dot = cover_to_dot(build_cover(inst))
        assert '"a:1"' in dot and '"b:2"' in dot
        assert '"a:1" -- "a:2";' in dot
        assert '"a:1" -- "b:1";' in dot

    def test_clique_suppression_flag(self):
        inst = from_k_coloring(cycle_graph(["a", "b", "c", "d"]), 2)
        full = cover_to_dot(build_cover(inst))
        cross_only = cover_to_dot(build_cover(inst), include_clique_edges=False)
        assert '"a:1" -- "a:2";' in full
        assert '"a:1" -- "a:2";' not in cross_only
        assert '"a:1" -- "b:1";' in cross_only
        assert len(cross_only) < len(full)

    def test_deterministic(self):
        inst, _ = bad_instance_cnt(4, 1)
        cover = build_cover(inst)
        assert cover_to_dot(cover) == cover_to_dot(cover)
