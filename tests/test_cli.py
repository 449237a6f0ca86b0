"""Command-line layer: every subcommand in-process, exit codes pinned.

0 success, 1 a well-formed request whose answer is negative (non-MV
pair, absent operator), 2 unusable input, 3 a broken solver invariant.
"""

import io
import json

import pytest

from affmv import cli
from affmv.documents import datum_to_obj, dumps, polytope_to_obj
from affmv.lusztig import datum
from affmv.roots import HIGH, LOW, Algebra
from affmv.transition import NoCompletionError


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_doc(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(dumps(obj), encoding="utf-8")
    return str(path)


class TestComplete:
    def test_right_to_left(self, capsys, tmp_path, reference_right, reference_left):
        path = write_doc(tmp_path, "right.json", datum_to_obj(reference_right))
        code, out, _ = run(capsys, "complete", path, "--side", "right")
        assert code == cli.EXIT_OK
        doc = json.loads(out)
        assert doc["left"] == datum_to_obj(reference_left)
        assert doc["weight"] == [20, 22] and doc["mv"] is True
        assert doc["vertices"]["mu_l"][4] == [12, 7]

    def test_left_to_right_from_stdin(
        self, capsys, monkeypatch, reference_left, reference_right
    ):
        monkeypatch.setattr(
            "sys.stdin", io.StringIO(dumps(datum_to_obj(reference_left)))
        )
        code, out, _ = run(capsys, "complete", "--side", "left")
        assert code == cli.EXIT_OK
        assert json.loads(out)["right"] == datum_to_obj(reference_right)

    def test_oracle_solver_flag(self, capsys, tmp_path):
        path = write_doc(
            tmp_path,
            "d.json",
            datum_to_obj(datum(Algebra.A2_TWISTED, {(LOW, 2): 1})),
        )
        code, out, _ = run(
            capsys, "complete", path, "--side", "right", "--solver", "oracle"
        )
        assert code == cli.EXIT_OK
        assert json.loads(out)["left"]["real"] == [
            {"family": "low", "k": 1, "mult": 4},
            {"family": "high", "k": 1, "mult": 1},
        ]

    def test_large_imaginary_datum_completes(self, capsys, tmp_path):
        doc = {"algebra": "sl2hat", "real": [], "delta": [1000]}
        path = write_doc(tmp_path, "d.json", doc)
        code, out, _ = run(capsys, "complete", path, "--side", "right")
        assert code == cli.EXIT_OK
        assert json.loads(out)["left"]["real"] == [
            {"family": "low", "k": 1, "mult": 1000},
            {"family": "high", "k": 1, "mult": 1000},
        ]

    def test_invalid_json_is_a_usage_error(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{", encoding="utf-8")
        code, _, err = run(capsys, "complete", str(path), "--side", "right")
        assert code == cli.EXIT_USAGE
        assert "error" in err

    def test_missing_file_is_a_usage_error(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "complete", str(tmp_path / "absent.json"), "--side", "right"
        )
        assert code == cli.EXIT_USAGE

    def test_solver_invariant_breaks_are_internal_errors(
        self, capsys, tmp_path, monkeypatch
    ):
        def explode(d, solver="dfs"):
            raise NoCompletionError("forced for the test")

        monkeypatch.setattr(cli, "complete_from_right", explode)
        path = write_doc(
            tmp_path, "d.json", datum_to_obj(datum(Algebra.SL2_HAT))
        )
        code, _, err = run(capsys, "complete", path, "--side", "right")
        assert code == cli.EXIT_INTERNAL
        assert "forced for the test" in err


class TestCheck:
    def test_mv_pair_passes(self, capsys, tmp_path, reference_pair):
        path = write_doc(
            tmp_path, "pair.json", polytope_to_obj(reference_pair)
        )
        code, out, _ = run(capsys, "check", path)
        assert code == cli.EXIT_OK
        assert json.loads(out)["mv"] is True

    def test_non_mv_pair_fails(self, capsys, tmp_path):
        d = datum(Algebra.SL2_HAT, {(LOW, 1): 1, (HIGH, 1): 1})
        obj = {"left": datum_to_obj(d), "right": datum_to_obj(d)}
        path = write_doc(tmp_path, "pair.json", obj)
        code, out, _ = run(capsys, "check", path)
        assert code == cli.EXIT_FAIL
        doc = json.loads(out)
        assert doc["mv"] is False
        assert [v["condition"] for v in doc["violations"]] == [1, 2]


class TestOp:
    def test_round_word_returns_to_the_lowest_element(self, capsys):
        code, out, _ = run(
            capsys, "op", "e0 e1 f1 f0", "--kind", "sl2hat"
        )
        assert code == cli.EXIT_OK
        doc = json.loads(out)
        assert doc["left"]["real"] == [] and doc["left"]["delta"] == []
        assert doc["weight"] == [0, 0]

    def test_starred_word_from_a_start_document(self, capsys, tmp_path):
        path = write_doc(
            tmp_path,
            "start.json",
            datum_to_obj(datum(Algebra.SL2_HAT, {(LOW, 1): 1})),
        )
        code, out, _ = run(
            capsys, "op", "e0* e0*", "--start", path, "--side", "left"
        )
        assert code == cli.EXIT_OK
        doc = json.loads(out)
        assert doc["right"]["real"] == [{"family": "high", "k": 2, "mult": 1}]

    def test_saito_tokens(self, capsys):
        code, out, _ = run(capsys, "op", "e1 s0", "--kind", "a2(2)")
        assert code == cli.EXIT_OK
        assert json.loads(out)["weight"] == [1, 1]

    def test_absent_operator_reports_its_position(self, capsys):
        code, _, err = run(capsys, "op", "e0 f1", "--kind", "sl2hat")
        assert code == cli.EXIT_FAIL
        assert "'f1' at position 1" in err

    def test_domain_violation_reports_its_position(self, capsys):
        # A reflection needs a vanishing string statistic.
        code, _, err = run(capsys, "op", "e0 s0", "--kind", "sl2hat")
        assert code == cli.EXIT_FAIL
        assert "'s0' at position 1" in err

    def test_flip_is_untwisted_only(self, capsys):
        code, _, err = run(capsys, "op", "tau", "--kind", "a2(2)")
        assert code == cli.EXIT_FAIL

    def test_unknown_token_is_a_usage_error(self, capsys):
        code, _, err = run(capsys, "op", "e2", "--kind", "sl2hat")
        assert code == cli.EXIT_USAGE
        assert "e2" in err

    def test_kind_conflict_with_start_is_a_usage_error(self, capsys, tmp_path):
        path = write_doc(
            tmp_path, "start.json", datum_to_obj(datum(Algebra.SL2_HAT))
        )
        code, _, _ = run(
            capsys, "op", "e0", "--start", path, "--kind", "a2(2)"
        )
        assert code == cli.EXIT_USAGE

    def test_star_and_flip_tokens_compose(self, capsys):
        code, out, _ = run(capsys, "op", "e1 e0 star tau", "--kind", "sl2hat")
        assert code == cli.EXIT_OK
        assert json.loads(out)["weight"] == [1, 1]


class TestGraphAndRender:
    def test_graph_dot_output(self, capsys):
        code, out, _ = run(capsys, "graph", "--kind", "sl2hat", "--depth", "1")
        assert code == cli.EXIT_OK
        assert out.startswith("digraph crystal {")
        assert out.count("->") == 4

    def test_graph_output_is_byte_stable(self, capsys):
        _, first, _ = run(capsys, "graph", "--kind", "a2(2)", "--depth", "2")
        _, second, _ = run(capsys, "graph", "--kind", "a2(2)", "--depth", "2")
        assert first == second

    def test_render_svg_from_a_bare_datum(self, capsys, tmp_path):
        path = write_doc(
            tmp_path,
            "d.json",
            datum_to_obj(datum(Algebra.SL2_HAT, delta_parts=(2, 1))),
        )
        code, out, _ = run(capsys, "render", path)
        assert code == cli.EXIT_OK
        assert out.startswith("<svg ")

    def test_render_tikz_from_a_polytope_document(
        self, capsys, tmp_path, reference_pair
    ):
        path = write_doc(
            tmp_path, "pair.json", polytope_to_obj(reference_pair)
        )
        code, out, _ = run(capsys, "render", path, "--format", "tikz")
        assert code == cli.EXIT_OK
        assert "\\begin{tikzpicture}" in out


class TestVerify:
    def test_small_sweep_passes(self, capsys):
        code, out, _ = run(
            capsys,
            "verify", "uniqueness", "--kind", "sl2hat", "--box", "2", "2",
        )
        assert code == cli.EXIT_OK
        assert "uniqueness [sl2hat, box (2,2)]: PASS" in out

    def test_json_reports(self, capsys):
        code, out, _ = run(
            capsys,
            "verify", "crystal", "--kind", "a2(2)", "--depth", "3", "--json",
        )
        assert code == cli.EXIT_OK
        reports = json.loads(out)
        assert [r["name"] for r in reports] == ["crystal-axioms"]
        assert reports[0]["passed"] is True
        assert reports[0]["counts"]["lowest candidates"] == 1

    def test_all_suites_at_tiny_scale(self, capsys):
        code, out, _ = run(
            capsys,
            "verify", "all", "--kind", "sl2hat",
            "--box", "2", "2", "--depth", "3",
        )
        assert code == cli.EXIT_OK
        for name in (
            "uniqueness",
            "axioms",
            "star-negation",
            "saito-formulas",
            "crystal-axioms",
        ):
            assert f"{name} [sl2hat" in out


class TestUsage:
    def test_missing_subcommand_is_rejected_by_argparse(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main([])
        assert exc.value.code == 2

    def test_unknown_choice_is_rejected_by_argparse(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify", "everything", "--kind", "sl2hat"])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["graph", "--kind", "sl2hat", "--depth", "-1"],
            ["verify", "all", "--kind", "sl2hat", "--depth", "-1"],
            ["verify", "uniqueness", "--kind", "sl2hat", "--box", "-1", "3"],
            ["verify", "uniqueness", "--kind", "a2(2)", "--box", "2", "-4"],
            ["verify", "saito", "--kind", "sl2hat", "--slack", "-5"],
        ],
    )
    def test_negative_counts_are_rejected_by_argparse(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        assert "must be >= 0" in capsys.readouterr().err

