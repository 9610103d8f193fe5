"""CLI verbs, exit-code contract, and output formats."""

import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

from dpcover import (
    DPInstance,
    Multigraph,
    all_positive,
    bad_instance_knt,
    complete_graph,
    decide,
    is_valid_transversal,
)
from dpcover.cli import run
from dpcover.serialize import (
    certificate_to_json,
    dumps,
    instance_from_json,
    instance_to_json,
    signed_to_json,
)
from dpcover.solver import _search
from tests.test_solver import bad_knt_less_one_color

FIXTURES = Path(__file__).parent / "fixtures"


def fx(name: str) -> str:
    return str(FIXTURES / name)


class TestExitCodes:
    def test_solve_colorable_is_zero(self, capsys):
        assert run(["solve", fx("fig1_left.json")]) == 0
        out = capsys.readouterr().out
        assert out.startswith("COLORABLE {")

    def test_solve_not_colorable_is_one(self, capsys):
        assert run(["solve", fx("fig1_right.json")]) == 1
        assert capsys.readouterr().out.strip() == "NOT_COLORABLE"

    def test_invalid_instance_is_two(self, capsys):
        assert run(["validate", fx("broken.json")]) == 2
        assert "degree" in capsys.readouterr().out

    def test_usage_error_is_sixty_four(self, capsys):
        assert run(["frobnicate"]) == 64
        assert run(["solve"]) == 64
        assert run(["solve", fx("fig1_left.json"), "--bogus-flag"]) == 64

    def test_missing_file_is_two(self):
        assert run(["solve", "/no/such/file.json"]) == 2

    def test_help_is_zero(self, capsys):
        assert run(["--help"]) == 0
        assert "dpcover" in capsys.readouterr().out

    def test_decide_agrees_with_solve_on_all_degree_list_fixtures(self, capsys):
        fixtures = [
            "fig1_left.json",
            "fig1_right.json",
            "p3_bad.json",
            "knt_3_1.json",
            "knt_4_2.json",
            "cnt_4_1.json",
            "cnt_5_1.json",
            "glue_tri_square.json",
            "c5_three_lists.json",
            "diamond_degree_lists.json",
        ]
        for name in fixtures:
            solve_rc = run(["solve", fx(name)])
            decide_rc = run(["decide", fx(name)])
            capsys.readouterr()
            assert solve_rc == decide_rc, name
            # solve consults find_certificate, so check against the bare search too
            inst = instance_from_json(json.loads(Path(fx(name)).read_text()))
            assert _search(inst).colorable == (decide_rc == 0), name


class TestValidate:
    def test_valid_file(self, capsys):
        assert run(["validate", fx("fig1_left.json")]) == 0
        assert capsys.readouterr().out.strip() == "VALID"

    def test_json_output(self, capsys):
        assert run(["validate", fx("broken.json"), "--json"]) == 2
        out = capsys.readouterr().out
        data = json.loads(out)
        assert data["violations"]
        assert out == dumps(data)

    def test_non_int_list_colors_are_invalid_input(self, tmp_path, capsys):
        g = Multigraph(("a", "b"), {})
        inst = DPInstance(g, {"a": {True, 2}, "b": {1.5}}, {})
        p = tmp_path / "colors.json"
        p.write_text(dumps(instance_to_json(inst)))
        assert run(["validate", str(p)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err


class TestSolveOutput:
    def test_transversal_payload_parses(self, capsys):
        run(["solve", fx("fig1_left.json")])
        out = capsys.readouterr().out
        picks = json.loads(out[len("COLORABLE ") :])
        assert picks == {"a": 1, "b": 2, "c": 1, "d": 2}

    def test_json_mode(self, capsys):
        run(["solve", fx("fig1_left.json"), "--json"])
        data = json.loads(capsys.readouterr().out)
        assert data["outcome"] == "colorable"
        assert data["transversal"]["a"] == 1

    def test_node_budget_is_three(self, tmp_path, capsys):
        out = tmp_path / "knt.json"
        out.write_text(dumps(instance_to_json(bad_knt_less_one_color(9))))
        assert run(["solve", str(out), "--max-nodes", "100"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error:") and "max_nodes=100" in err and "Traceback" not in err
        assert run(["solve", fx("fig1_left.json"), "--max-nodes", "4"]) == 0

    def test_json_names_the_empty_list_witness(self, tmp_path, capsys):
        data = {
            "vertices": ["a", "b"],
            "edges": [{"u": "a", "v": "b", "mult": 1}],
            "lists": {"a": [1], "b": []},
        }
        p = tmp_path / "empty_list.json"
        p.write_text(json.dumps(data))
        assert run(["solve", str(p), "--json"]) == 1
        assert json.loads(capsys.readouterr().out) == {"outcome": "not_colorable", "witness_vertex": "b"}

    def test_a_matching_given_twice_is_invalid_input(self, tmp_path, capsys):
        # Keeping only the last entry would answer a=1, b=1, which the first forbids.
        data = {
            "vertices": ["a", "b"],
            "edges": [{"u": "a", "v": "b", "mult": 1}],
            "lists": {"a": [1, 2], "b": [1, 2]},
            "matchings": [
                {"u": "a", "v": "b", "pairs": [[1, 1]]},
                {"u": "a", "v": "b", "pairs": [[2, 2]]},
            ],
        }
        p = tmp_path / "twice.json"
        p.write_text(json.dumps(data))
        assert run(["solve", str(p)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "given twice" in captured.err


class TestOneEncoder:
    def test_gen_and_decide_files_are_canonical_text(self, tmp_path, capsys):
        inst_path, cert_path = tmp_path / "knt.json", tmp_path / "gen-cert.json"
        assert run(["gen", "knt", "4", "2", "-o", str(inst_path), "--certificate", str(cert_path)]) == 0
        inst, cert = bad_instance_knt(4, 2)
        assert inst_path.read_text() == dumps(instance_to_json(inst))
        assert cert_path.read_text() == dumps(certificate_to_json(cert))
        decided = tmp_path / "decide-cert.json"
        assert run(["decide", str(inst_path), "--certificate", str(decided)]) == 1
        assert decided.read_text() == dumps(certificate_to_json(decide(inst).certificate))
        capsys.readouterr()

    def test_json_lines_are_canonical_text(self, capsys):
        for argv in (
            ["solve", fx("fig1_left.json"), "--json"],
            ["solve", fx("fig1_right.json"), "--json"],
            ["decide", fx("p3_bad.json"), "--json"],
            ["decide", fx("fig1_left.json"), "--json"],
        ):
            run(argv)
            out = capsys.readouterr().out
            assert out == dumps(json.loads(out)), argv

    def test_transversal_lines_are_canonical_text(self, capsys):
        for verb in ("solve", "decide"):
            assert run([verb, fx("fig1_left.json")]) == 0
            out = capsys.readouterr().out
            assert out.startswith("COLORABLE ")
            assert out[len("COLORABLE ") :] == dumps(json.loads(out[len("COLORABLE ") :]))


class TestDecide:
    @pytest.mark.parametrize(
        "flags, calls",
        [([], 0), (["--json"], 1), (["--certificate", "CERT"], 1), (["--json", "--certificate", "CERT"], 1)],
    )
    def test_certificate_is_serialized_only_when_written(self, monkeypatch, tmp_path, capsys, flags, calls):
        import dpcover.cli as cli

        seen = []

        def spy(cert):
            seen.append(cert)
            return real(cert)

        real = cli.certificate_to_json
        monkeypatch.setattr(cli, "certificate_to_json", spy)
        args = [str(tmp_path / "cert.json") if f == "CERT" else f for f in flags]
        assert run(["decide", fx("glue_tri_square.json"), *args]) == 1
        assert len(seen) == calls
        assert capsys.readouterr().out.startswith("{" if "--json" in flags else "OBSTRUCTED")

    def test_writes_certificate(self, tmp_path, capsys):
        out = tmp_path / "cert.json"
        assert run(["decide", fx("fig1_right.json"), "--certificate", str(out)]) == 1
        assert "OBSTRUCTED" in capsys.readouterr().out
        data = json.loads(out.read_text())
        assert data["blocks"][0]["kind"] == "Cnt"
        assert data["blocks"][0]["n"] == 4

    def test_json_mode(self, capsys):
        assert run(["decide", fx("p3_bad.json"), "--json"]) == 1
        data = json.loads(capsys.readouterr().out)
        assert data["outcome"] == "obstructed"
        assert len(data["certificate"]["blocks"]) == 2

    def test_non_degree_list_is_invalid_input(self, tmp_path, capsys):
        inst = json.loads(Path(fx("fig1_left.json")).read_text())
        inst["lists"]["a"] = [1]
        for m in inst["matchings"]:
            if "a" in (m["u"], m["v"]):
                side = 0 if m["u"] == "a" else 1
                m["pairs"] = [p for p in m["pairs"] if p[side] == 1]
        p = tmp_path / "short.json"
        p.write_text(json.dumps(inst))
        assert run(["decide", str(p)]) == 2
        assert "degree" in capsys.readouterr().err

    def test_disconnected_handled_per_component(self, tmp_path, capsys):
        data = {
            "vertices": ["a", "b", "c", "d"],
            "edges": [
                {"u": "a", "v": "b", "mult": 1},
                {"u": "c", "v": "d", "mult": 1},
            ],
            "lists": {"a": [1], "b": [1], "c": [1], "d": [2]},
            "matchings": [
                {"u": "a", "v": "b", "pairs": [[1, 1]]},
                {"u": "c", "v": "d", "pairs": []},
            ],
        }
        p = tmp_path / "two_comps.json"
        p.write_text(json.dumps(data))
        assert run(["decide", str(p)]) == 1
        out = capsys.readouterr().out
        assert "OBSTRUCTED" in out and "component" in out

    def test_disconnected_slack_instance_is_colored_per_component(self, tmp_path, capsys):
        # The library's decide refuses this input; the verb splits it first.
        g = Multigraph(("a", "b", "c", "d"), {("a", "b"): 1, ("c", "d"): 1})
        lists = {u: frozenset({1, 2}) for u in g.vertices}
        inst = DPInstance(g, lists, {p: frozenset({(1, 1), (2, 2)}) for p in g.pairs()})
        p = tmp_path / "two_k2.json"
        p.write_text(dumps(instance_to_json(inst)))
        assert run(["decide", str(p), "--json"]) == 0
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err
        assert is_valid_transversal(inst, json.loads(captured.out)["transversal"])

    def test_pairs_on_a_non_edge_across_components_are_invalid(self, tmp_path, capsys):
        # Splitting into components would drop the pairs on the non-edge ac.
        data = {
            "vertices": ["a", "b", "c", "d"],
            "edges": [{"u": "a", "v": "b", "mult": 1}, {"u": "c", "v": "d", "mult": 1}],
            "lists": {"a": [1], "b": [1, 2], "c": [1], "d": [1, 2]},
            "matchings": [
                {"u": u, "v": v, "pairs": [[1, 1]]} for u, v in (("a", "b"), ("c", "d"), ("a", "c"))
            ],
        }
        p = tmp_path / "non_edge.json"
        p.write_text(json.dumps(data))
        for verb in ("validate", "solve", "decide"):
            assert run([verb, str(p)]) == 2, verb
        assert "non-edge" in capsys.readouterr().err

    def test_empty_entry_on_a_non_edge_across_components_is_valid(self, tmp_path, capsys):
        # validate skips a matching entry with no pairs, so the split must too.
        data = {
            "vertices": ["a", "b", "c", "d"],
            "edges": [{"u": "a", "v": "b", "mult": 1}, {"u": "c", "v": "d", "mult": 1}],
            "lists": {"a": [1], "b": [1, 2], "c": [1], "d": [1, 2]},
            "matchings": [
                {"u": "a", "v": "b", "pairs": [[1, 1]]},
                {"u": "c", "v": "d", "pairs": [[1, 1]]},
                {"u": "a", "v": "c", "pairs": []},
            ],
        }
        p = tmp_path / "empty_non_edge.json"
        p.write_text(json.dumps(data))
        for verb in ("validate", "solve", "decide"):
            assert run([verb, str(p)]) == 0, verb
        data["lists"].update(b=[2], d=[2])  # every list has its vertex's degree
        data["matchings"][0]["pairs"] = data["matchings"][1]["pairs"] = []
        p.write_text(json.dumps(data))
        for verb in ("solve", "decide"):
            assert run([verb, str(p)]) == 0, verb
        assert "Traceback" not in capsys.readouterr().err

    def test_empty_entry_at_an_unknown_vertex_is_answered(self, capsys):
        # The path a-b-c plus a matching entry with no pairs on (a, z).
        for verb in ("validate", "decide", "solve"):
            assert run([verb, fx("stray_entry.json")]) == 0, verb
        assert capsys.readouterr().err == ""

    def test_json_names_the_obstructed_component(self, tmp_path, capsys):
        data = {
            "vertices": ["a", "b", "c", "d"],
            "edges": [{"u": "a", "v": "b", "mult": 1}, {"u": "c", "v": "d", "mult": 1}],
            "lists": {"a": [1], "b": [1], "c": [1], "d": [2]},
            "matchings": [{"u": "a", "v": "b", "pairs": [[1, 1]]}],
        }
        p = tmp_path / "two_comps.json"
        p.write_text(json.dumps(data))
        assert run(["decide", str(p), "--json"]) == 1
        out = json.loads(capsys.readouterr().out)
        assert out["outcome"] == "obstructed" and out["component"] == ["a", "b"]
        assert len(out["certificate"]["blocks"]) == 1


class TestSigned:
    def test_with_k(self, capsys):
        assert run(["signed", fx("signed_unbalanced_c4.json"), "--k", "2"]) == 1
        assert run(["signed", fx("signed_balanced_k3.json"), "--k", "3"]) == 0
        capsys.readouterr()

    def test_with_lists(self, capsys):
        assert run(
            ["signed", fx("signed_unbalanced_c4.json"), "--lists", fx("lists_n2.json")]
        ) == 1
        capsys.readouterr()

    def test_signed_brooks_obstruction_is_fast(self, tmp_path, capsys):
        # All-positive K_12 with N_11 lists: the lists are exactly the
        # degrees and the cover is the complete-block pattern.
        p = tmp_path / "k12.json"
        g = complete_graph([f"v{i:02d}" for i in range(12)])
        p.write_text(dumps(signed_to_json(all_positive(g))))
        start = time.perf_counter()
        assert run(["signed", str(p), "--k", "11"]) == 1
        assert time.perf_counter() - start < 1.0
        assert capsys.readouterr().out == "NOT_COLORABLE\n"

    def test_node_budget_is_three(self, tmp_path, capsys):
        balanced = fx("signed_balanced_k3.json")
        lists = tmp_path / "lists.json"
        lists.write_text(json.dumps({u: [-1, 0, 1] for u in "abc"}))
        for argv in (["--k", "3"], ["--lists", str(lists)]):
            assert run(["signed", balanced, *argv, "--max-nodes", "0"]) == 3, argv
            err = capsys.readouterr().err
            assert err.startswith("error:") and "max_nodes=0" in err and "Traceback" not in err
            assert run(["signed", balanced, *argv, "--max-nodes", "3"]) == 0, argv
            capsys.readouterr()
        # The theorem step certifies the unbalanced C_4 with N_2 lists without a search node.
        unbalanced = fx("signed_unbalanced_c4.json")
        assert run(["signed", unbalanced, "--lists", fx("lists_n2.json"), "--max-nodes", "0"]) == 1
        capsys.readouterr()

    def test_requires_k_or_lists(self, capsys):
        assert run(["signed", fx("signed_unbalanced_c4.json")]) == 64
        capsys.readouterr()

    def test_palette_validation(self, tmp_path, capsys):
        bad_lists = tmp_path / "lists.json"
        bad_lists.write_text(json.dumps({u: [0] for u in "abcd"}))
        rc = run(
            [
                "signed",
                fx("signed_unbalanced_c4.json"),
                "--lists",
                str(bad_lists),
                "--k",
                "2",
            ]
        )
        assert rc == 2
        assert "N_2" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "lists",
        [
            {u: [1.5] for u in "abcd"},
            {u: [True] for u in "abcd"},
            [[1]],
            {u: [1, -1] for u in "acd"},
            {u: [1, -1] for u in ("a", "b", "c", "d", "zz")},
        ],
    )
    def test_malformed_lists_are_invalid_input(self, tmp_path, capsys, lists):
        p = tmp_path / "lists.json"
        p.write_text(json.dumps(lists))
        assert run(["signed", fx("signed_unbalanced_c4.json"), "--lists", str(p)]) == 2
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize(
        "data",
        [
            {"vertices": ["a", "b"], "edges": [{"u": "a", "v": "b", "signs": "x"}]},
            {"vertices": ["a", "b"], "edges": [{"u": "a", "v": "b", "signs": [True]}]},
            {"vertices": ["a", "b"], "edges": [{"u": "a", "v": "b", "mult": True}]},
            {"vertices": ["a", "b"], "edges": [{"u": "a", "v": "b", "mult": 0}]},
            {"vertices": ["a", "b", [1]], "edges": []},
        ],
        ids=["string-signs", "bool-sign", "bool-mult", "zero-mult", "array-vertex-id"],
    )
    def test_malformed_signed_graph_is_invalid_input(self, tmp_path, capsys, data):
        p = tmp_path / "signed.json"
        p.write_text(json.dumps(data))
        assert run(["signed", str(p), "--k", "2"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error:") and "Traceback" not in err

    @pytest.mark.parametrize(
        "lists, message",
        [
            ({u: [1, -1] for u in "acd"}, "vertex 'b' has no list entry"),
            ({u: [1, -1] for u in ("a", "b", "c", "d", "zz")}, "list entry for unknown vertex 'zz'"),
        ],
    )
    def test_lists_must_name_exactly_the_vertices(self, tmp_path, capsys, lists, message):
        p = tmp_path / "lists.json"
        p.write_text(json.dumps(lists))
        assert run(["signed", fx("signed_unbalanced_c4.json"), "--lists", str(p), "--json"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error:") and message in err


class TestCover:
    def test_dot_to_stdout(self, capsys):
        assert run(["cover", fx("fig1_left.json")]) == 0
        out = capsys.readouterr().out
        assert out.startswith("graph cover {")
        assert '"a:1" -- "a:2";' in out

    def test_no_cliques_flag(self, capsys):
        assert run(["cover", fx("fig1_left.json"), "--no-cliques"]) == 0
        out = capsys.readouterr().out
        assert '"a:1" -- "a:2";' not in out
        assert '"a:1" -- "b:1";' in out

    def test_dot_to_file(self, tmp_path):
        out = tmp_path / "cover.dot"
        assert run(["cover", fx("fig1_left.json"), "--dot", str(out)]) == 0
        assert out.read_text().startswith("graph cover {")


class TestGen:
    def test_knt_round_trips_and_solves(self, tmp_path, capsys):
        out = tmp_path / "knt.json"
        cert = tmp_path / "cert.json"
        assert run(["gen", "knt", "4", "2", "-o", str(out), "--certificate", str(cert)]) == 0
        inst = instance_from_json(json.loads(out.read_text()))
        assert not _search(inst).colorable
        assert json.loads(cert.read_text())["blocks"][0]["kind"] == "Knt"
        assert run(["solve", str(out)]) == 1
        capsys.readouterr()

    def test_cnt_stdout(self, capsys):
        assert run(["gen", "cnt", "6", "1"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert len(data["vertices"]) == 6

    def test_glue_plan(self, tmp_path, capsys):
        out = tmp_path / "glued.json"
        assert run(["gen", "glue", fx("glue_plan.json"), "-o", str(out)]) == 0
        assert run(["solve", str(out)]) == 1
        capsys.readouterr()

    @pytest.mark.parametrize(
        "plan",
        [
            [],
            {"blocks": {}},
            {"blocks": [1]},
            {"blocks": [{"kind": "Knt", "t": 1}]},
            {"blocks": [{"kind": "Knt", "n": 2.5, "t": 1}]},
            {"blocks": [{"kind": "Knt", "n": 2, "t": True}]},
            {"blocks": [{"kind": "Knt", "n": 2, "t": 1}, {"kind": "Knt", "n": 2, "t": 1, "attach": [0, 1]}]},
            {"blocks": [{"kind": "Knt", "n": 2, "t": 1}, {"kind": "Knt", "n": 2, "t": 1, "attach": {"block": 0}}]},
            {"blocks": [{"kind": "Knt", "n": 2, "t": 1}, {"kind": "Knt", "n": 2, "t": 1, "attach": {"block": 0.0, "vertex": 1}}]},
            {"blocks": [{"kind": "Knt", "n": 2, "t": 1}, {"kind": "Knt", "n": 2, "t": 1, "attach": {"block": 0, "vertex": False}}]},
        ],
    )
    def test_malformed_glue_plan_is_invalid_input(self, tmp_path, capsys, plan):
        p = tmp_path / "plan.json"
        p.write_text(json.dumps(plan))
        assert run(["gen", "glue", str(p)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err

    def test_random_requires_seed(self, capsys):
        assert run(["gen", "random", fx("c4_lists_only.json")]) == 64
        capsys.readouterr()

    def test_random_deterministic(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for target in (a, b):
            assert (
                run(
                    [
                        "gen",
                        "random",
                        fx("c4_lists_only.json"),
                        "--seed",
                        "42",
                        "--density",
                        "0.8",
                        "-o",
                        str(target),
                    ]
                )
                == 0
            )
        assert a.read_text() == b.read_text()
        capsys.readouterr()

    def test_random_rejects_a_list_for_an_unknown_vertex(self, tmp_path, capsys):
        data = json.loads(Path(fx("c4_lists_only.json")).read_text())
        data["lists"]["z"] = [3]
        src, out = tmp_path / "in.json", tmp_path / "out.json"
        src.write_text(json.dumps(data))
        assert run(["gen", "random", str(src), "--seed", "1", "-o", str(out)]) == 2
        err = capsys.readouterr().err
        assert "list entry for unknown vertex 'z'" in err and "Traceback" not in err
        assert not out.exists()

    def test_random_rejects_a_missing_list(self, tmp_path, capsys):
        data = json.loads(Path(fx("c4_lists_only.json")).read_text())
        del data["lists"]["b"]
        src, out = tmp_path / "in.json", tmp_path / "out.json"
        src.write_text(json.dumps(data))
        assert run(["gen", "random", str(src), "--seed", "1", "-o", str(out)]) == 2
        err = capsys.readouterr().err
        assert "vertex 'b' has no list entry" in err and "Traceback" not in err
        assert not out.exists()

    def test_generated_instances_reparse_equal(self, tmp_path, capsys):
        out = tmp_path / "g.json"
        assert run(["gen", "cnt", "5", "2", "-o", str(out)]) == 0
        text = out.read_text()
        inst = instance_from_json(json.loads(text))
        assert dumps(instance_to_json(inst)) == text
        capsys.readouterr()


@pytest.mark.parametrize(
    "text",
    [
        "[]",
        '{"vertices": ["a", 1], "edges": []}',
        '{"vertices": ["a"], "edges": {}}',
        '{"vertices": ["a"], "lists": [1]}',
        '{"vertices": ["a"], "lists": {"a": [1]}, "matchings": {}}',
        '{"vertices": ["a"], "lists": {"a": [1.5]}}',
        '{"vertices": ["a", "b"], "edges": [{"u": "a", "v": "b", "mult": true}]}',
        '{"vertices": ["a", "b"], "edges": [{"u": "a", "v": "b", "mult": 0}]}',
        '{"vertices": ["a", [1]], "edges": []}',
        pytest.param("[" * 100_000 + "]" * 100_000, id="nested-100000-deep"),
    ],
)
def test_malformed_json_is_invalid_input(tmp_path, capsys, text):
    p = tmp_path / "bad.json"
    p.write_text(text)
    for verb in ("validate", "solve", "decide", "cover"):
        assert run([verb, str(p)]) == 2, verb
    assert "Traceback" not in capsys.readouterr().err


INSTANCE_VERBS = tuple(([verb], []) for verb in ("validate", "solve", "decide", "cover"))
KNT_2 = {"kind": "Knt", "n": 2, "t": 1}


@pytest.mark.parametrize(
    "verbs, data, key",
    [
        pytest.param(INSTANCE_VERBS, {"edges": []}, "vertices", id="no-vertices"),
        pytest.param(
            INSTANCE_VERBS, {"vertices": ["a", "b"], "edges": [{"v": "b"}]}, "u", id="edge-without-u"
        ),
        pytest.param(
            INSTANCE_VERBS,
            {"vertices": ["a", "b"], "edges": [{"u": "a", "v": "b"}], "matchings": [{"u": "a"}]},
            "v",
            id="matching-without-v",
        ),
        pytest.param(
            ((["signed"], ["--k", "2"]),), {"vertices": ["a", "b"], "edges": [{"u": "a"}]}, "v",
            id="signed-edge-without-v",
        ),
        pytest.param(((["gen", "glue"], []),), {"blocks": [{"n": 2, "t": 1}]}, "kind", id="plan-without-kind"),
        pytest.param(((["gen", "glue"], []),), {"blocks": [{"kind": "Knt", "n": 2}]}, "t", id="plan-without-t"),
        pytest.param(
            ((["gen", "glue"], []),), {"blocks": [KNT_2, {**KNT_2, "attach": {"vertex": 1}}]}, "block",
            id="attach-without-block",
        ),
    ],
)
def test_missing_key_is_invalid_input_naming_it(tmp_path, capsys, verbs, data, key):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(data))
    for before, after in verbs:
        argv = [*before, str(p), *after]
        assert run(argv) == 2, argv
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error:") and f"has no '{key}' key" in err, argv
        assert "Traceback" not in err


def test_deeply_nested_json_is_invalid_input_for_every_reader(tmp_path, capsys):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000)
    signed = fx("signed_unbalanced_c4.json")
    for argv in (
        ["signed", str(deep), "--k", "3"],
        ["signed", signed, "--lists", str(deep)],
        ["gen", "glue", str(deep)],
    ):
        assert run(argv) == 2, argv
        out, err = capsys.readouterr()
        assert out == "" and err == f"error: {deep}: JSON nested too deeply\n", argv


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "dpcover", "solve", fx("fig1_right.json")],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 1
    assert proc.stdout.strip() == "NOT_COLORABLE"
