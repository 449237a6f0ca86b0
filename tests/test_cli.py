"""Command-line layer: every subcommand in-process, exit codes pinned.

0 success, 1 a well-formed request whose answer is negative (non-MV
pair, absent operator), 2 unusable input, 3 a broken solver invariant.
"""

import hashlib
import io
import json
import os
import resource
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import affmv
from affmv import cli, crystal, verify
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


def _entry(family="low", k=1, mult=1, **extra):
    return {"family": family, "k": k, "mult": mult, **extra}


# One document per raise of the datum parser, with the exact line it
# prints; the last two have faults in two entries, and the first entry's
# fault is the one reported.
MALFORMED_DATA = [
    ("not an object", "datum document must be a JSON object"),
    ({}, "datum document is missing the 'algebra' field"),
    ({"algebra": "e8"}, "unknown algebra 'e8', expected one of ['a2(2)', 'sl2hat']"),
    ({"algebra": "sl2hat", "extra": 1}, "datum document has unknown field 'extra'"),
    ({"algebra": "sl2hat", "real": {}}, "'real' must be a list"),
    ({"algebra": "sl2hat", "real": ["low"]}, "each real entry must be an object"),
    (
        {"algebra": "sl2hat", "real": [{"family": "low", "k": 1}]},
        "real entry is missing the 'mult' field",
    ),
    (
        {"algebra": "sl2hat", "real": [_entry(x=0)]},
        "real entry has unknown field 'x'",
    ),
    ({"algebra": "sl2hat", "real": [_entry("mid")]}, "unknown family 'mid'"),
    ({"algebra": "sl2hat", "real": [_entry(["low"])]}, "unknown family ['low']"),
    (
        {"algebra": "sl2hat", "real": [_entry(k=0)]},
        "ladder index must be an integer >= 1, got 0",
    ),
    (
        {"algebra": "sl2hat", "real": [_entry(k=2.0)]},
        "ladder index must be an integer >= 1, got 2.0",
    ),
    (
        {"algebra": "sl2hat", "real": [_entry(k=True)]},
        "ladder index must be an integer >= 1, got True",
    ),
    (
        {"algebra": "sl2hat", "real": [_entry(k="3")]},
        "ladder index must be an integer >= 1, got '3'",
    ),
    (
        {"algebra": "sl2hat", "real": [_entry(mult=0)]},
        "multiplicity must be an integer >= 1, got 0",
    ),
    (
        {"algebra": "sl2hat", "real": [_entry(mult=1.5)]},
        "multiplicity must be an integer >= 1, got 1.5",
    ),
    (
        {"algebra": "sl2hat", "real": [_entry(mult=True)]},
        "multiplicity must be an integer >= 1, got True",
    ),
    (
        {"algebra": "sl2hat", "real": [_entry("high", 2), _entry("high", 2, 2)]},
        "duplicate real entry for (high, 2)",
    ),
    ({"algebra": "sl2hat", "delta": 3}, "'delta' must be a list"),
    ({"algebra": "sl2hat", "delta": [0]}, "partition parts must be integers >= 1, got 0"),
    (
        {"algebra": "sl2hat", "delta": [2.5]},
        "partition parts must be integers >= 1, got 2.5",
    ),
    (
        {"algebra": "sl2hat", "delta": [True]},
        "partition parts must be integers >= 1, got True",
    ),
    (
        {"algebra": "sl2hat", "delta": [1, 2]},
        "partition must be weakly decreasing, got [1, 2]",
    ),
    (
        {"algebra": "sl2hat", "delta": [1, 2, "x"]},
        "partition must be weakly decreasing, got [1, 2, 'x']",
    ),
    (
        {
            "algebra": "a2(2)",
            "real": [_entry(), _entry(k=-1, mult=0), _entry("up")],
            "delta": [0],
        },
        "ladder index must be an integer >= 1, got -1",
    ),
    (
        {"algebra": "a2(2)", "real": [_entry(mult=2), _entry(mult=1.5)]},
        "multiplicity must be an integer >= 1, got 1.5",
    ),
]


class TestDocumentErrors:
    @pytest.mark.parametrize(
        "doc, line", MALFORMED_DATA, ids=range(len(MALFORMED_DATA))
    )
    def test_malformed_datum_message_and_exit(self, capsys, tmp_path, doc, line):
        path = write_doc(tmp_path, "d.json", doc)
        code, out, err = run(capsys, "complete", path, "--side", "right")
        assert (code, out, err) == (cli.EXIT_USAGE, "", f"error: {line}\n")

    @pytest.mark.parametrize(
        "argv, data, reason",
        [
            (["complete", "--side", "right"], b'\xff{"algebra": "sl2hat"}', "decode byte 0xff"),
            (["complete", "--side", "right"], b"[" * 100_000, "recursion depth"),
            (["complete", "--side", "right", "-"], b"[" * 100_000, "recursion depth"),
            (["check"], b"[" * 100_000, "recursion depth"),
            (
                ["complete", "--side", "right"],
                b'{"algebra": "sl2hat", "delta": [%s]}' % (b"9" * 5000),
                "(4300",
            ),
        ],
        ids=["not-utf-8", "deep-file", "deep-stdin", "deep-check", "long-integer"],
    )
    def test_undecodable_input_is_invalid_json(
        self, capsys, monkeypatch, tmp_path, argv, data, reason
    ):
        """Bytes that are not UTF-8, nesting past the recursion limit and an
        integer literal past the interpreter's digit limit exit 2."""
        if argv[-1] == "-":
            monkeypatch.setattr("sys.stdin", io.StringIO(data.decode()))
            path = "-"
        else:
            path = tmp_path / "d.json"
            path.write_bytes(data)
            argv = [argv[0], str(path), *argv[1:]]
        code, out, err = run(capsys, *argv)
        assert (code, out) == (cli.EXIT_USAGE, "")
        assert err.startswith(f"error: invalid JSON in {path}: ")
        assert reason in err and err.count("\n") == 1

    @pytest.mark.parametrize(
        "data", [b"\xff{", b'{"algebra": "sl2\xffhat"}'], ids=["leading", "in-a-string"]
    )
    def test_stdin_is_decoded_as_utf_8_under_a_c_locale(self, tmp_path, data):
        """Under a C locale stdin's own decoder would escape bytes that are
        not UTF-8; the CLI decodes them as it decodes a file, with one message."""
        path = tmp_path / "d.json"
        path.write_bytes(data)
        src = os.path.dirname(os.path.dirname(affmv.__file__))
        env = dict(os.environ, LC_ALL="C")
        env.pop("PYTHONUTF8", None)
        env.pop("PYTHONIOENCODING", None)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        argv = [sys.executable, "-m", "affmv.cli", "complete", "--side", "right"]
        piped = subprocess.run(argv, input=data, capture_output=True, env=env, timeout=60)
        read = subprocess.run([*argv, str(path)], capture_output=True, env=env, timeout=60)
        assert (piped.returncode, read.returncode) == (cli.EXIT_USAGE, cli.EXIT_USAGE)
        assert piped.stdout == read.stdout == b""
        prefix = f"error: invalid JSON in {path}: ".encode()
        assert read.stderr.startswith(prefix) and b"can't decode byte 0xff" in read.stderr
        assert piped.stderr == b"error: invalid JSON in -: " + read.stderr[len(prefix):]


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

    @pytest.mark.parametrize(
        "word, kind, line",
        [
            (
                "e0* s0*",
                "sl2hat",
                "operator 's0*' at position 1 failed: "
                "starred reflection at 0 needs phi_0* = 0, got 1\n",
            ),
            (
                "e1 s1*",
                "a2(2)",
                "operator 's1*' at position 1 failed: "
                "starred reflection at 1 needs phi_1* = 0, got 1\n",
            ),
        ],
    )
    def test_starred_domain_violation_message(self, capsys, word, kind, line):
        assert run(capsys, "op", word, "--kind", kind) == (cli.EXIT_FAIL, "", line)

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

    @pytest.mark.parametrize(
        "kind, depth, digest",
        [
            ("sl2hat", "10", "da5dddfc04aca768f2b2c308a1198cbdf364dd48377bd0655a168056bff49424"),
            ("a2(2)", "8", "43bfb1e17b2f60d12d62b25ba27deb49aa95c6f5bf83f73ecaf65865620f149e"),
        ],
    )
    def test_graph_output_is_frozen(self, capsys, kind, depth, digest):
        """Frozen sha256 of the DOT output: node order and every edge."""
        code, out, err = run(capsys, "graph", "--kind", kind, "--depth", depth)
        assert (code, err) == (cli.EXIT_OK, "")
        assert hashlib.sha256(out.encode()).hexdigest() == digest

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

    @pytest.mark.parametrize("kind", ["sl2hat", "a2(2)"])
    def test_default_json_reports_are_byte_stable(self, capsys, kind):
        """Frozen sha256 of `verify all --json` at the default scales."""
        digest = {
            "sl2hat": "85d1702492ffbd1eddf9895fdf52533a359b27e3ac4da91eb5be892d2e5a91fe",
            "a2(2)": "21e3ccc4cb888ea44185676178b7982f92a9150d02d222d7fe1f83d848c72ab7",
        }[kind]
        code, out, err = run(capsys, "verify", "all", "--kind", kind, "--json")
        assert (code, err) == (cli.EXIT_OK, "")
        assert hashlib.sha256(out.encode()).hexdigest() == digest

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

    @pytest.mark.parametrize(
        "argv, builds",
        [
            (("--kind", "sl2hat", "--depth", "3"), [3]),
            (("--kind", "a2(2)"), [6]),  # both default depths are 6
            (("--kind", "sl2hat"), [8, 6]),  # the saito sweep runs shallower
        ],
    )
    def test_all_builds_each_graph_depth_once(self, capsys, monkeypatch, argv, builds):
        depths = []
        grow = crystal.crystal_graph

        def counting(kind, depth):
            depths.append(depth)
            return grow(kind, depth)

        monkeypatch.setattr(crystal, "crystal_graph", counting)
        monkeypatch.setattr(verify, "crystal_graph", counting)
        code, _, _ = run(capsys, "verify", "all", "--box", "2", "2", *argv)
        assert code == cli.EXIT_OK
        assert depths == builds


class TestSizeLimit:
    """Valid documents past the size limit exit 2 before taking memory."""

    BIG_LOW = {
        "algebra": "sl2hat",
        "real": [{"family": "low", "k": 10**9, "mult": 1}],
        "delta": [],
    }
    BIG_DELTA = {"algebra": "sl2hat", "real": [], "delta": [10**9]}
    # An address-space cap far below what arrays of 10^9 entries need.
    CAP = 1_500_000_000

    @pytest.mark.parametrize(
        "argv, doc",
        [
            (["complete", "--side", "right"], BIG_LOW),
            (["complete", "--side", "right"], BIG_DELTA),
            (["check"], {"left": BIG_LOW, "right": BIG_LOW}),
        ],
    )
    def test_oversized_documents_exit_2_under_a_memory_cap(self, tmp_path, argv, doc):
        path = write_doc(tmp_path, "big.json", doc)
        src = os.path.dirname(os.path.dirname(affmv.__file__))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "affmv.cli", *argv, path],
            capture_output=True,
            text=True,
            env=env,
            timeout=60,
            preexec_fn=lambda: resource.setrlimit(
                resource.RLIMIT_AS, (self.CAP, self.CAP)
            ),
        )
        assert proc.returncode == cli.EXIT_USAGE, proc.stderr
        assert proc.stderr.startswith("error: ")
        assert "Traceback" not in proc.stderr
        assert proc.stdout == ""

    NINES = "9" * 4300  # the most digits `json.loads` reads as an int

    @staticmethod
    def text(kind, k=None, mult="1", part=None):
        """A datum document as JSON text, its integers written verbatim."""
        real = f'{{"family": "low", "k": {k}, "mult": {mult}}}' if k else ""
        delta = part or ""
        return f'{{"algebra": "{kind}", "real": [{real}], "delta": [{delta}]}}'

    @pytest.mark.parametrize(
        "argv, doc, line",
        [
            (["complete", "--side", "right"], ("sl2hat", None, "1", NINES), "digits"),
            (["complete", "--side", "right"], ("sl2hat", NINES), "index"),
            (["check"], ("sl2hat", NINES), "index"),
            (["check"], ("a2(2)", None, "1", NINES), "digits"),
            (["complete", "--side", "right"], ("a2(2)", 2, NINES), "digits"),
            (["render"], ("sl2hat", NINES), "index"),
            (["render"], ("sl2hat", 2**21 + 1), "index"),
            (["complete", "--side", "right"], ("sl2hat", 1, "1" * 4200), "digits"),
            (["complete", "--side", "right"], ("sl2hat", 1, "1" + "0" * 4000), "digits"),
        ],
        ids=[
            "complete-delta", "complete-k", "check-k", "check-a2-delta",
            "complete-a2-mult", "render-k", "render-k-past-limit",
            "complete-mult-4200-digits", "complete-mult-4001-digits",
        ],
    )
    def test_integers_past_the_document_bounds_exit_2(
        self, capsys, tmp_path, argv, doc, line
    ):
        """A `k` past `MAX_PATH_INDEX`, or a multiplicity or part of more
        than 4,000 digits, is refused with one line, whose message never
        formats the number; a pair document holds the datum on both sides."""
        text = self.text(*doc)
        if argv[0] != "complete":
            text = f'{{"left": {text}, "right": {text}}}'
        path = tmp_path / "d.json"
        path.write_text(text, encoding="utf-8")
        code, out, err = run(capsys, argv[0], str(path), *argv[1:])
        message = {
            "index": "ladder index is past the limit 2097152",
            "digits": "a multiplicity or part has more than 4000 digits",
        }[line]
        assert (code, out, err) == (cli.EXIT_USAGE, "", f"error: {message}\n")

    def test_a_huge_completion_index_is_named_by_its_digits(self, capsys, tmp_path):
        """A datum within the digit bound can complete to a weight far past
        `MAX_PATH_INDEX`; the message gives the index's digit count, not
        its some 4,000 digits."""
        nines = "9" * 4000
        text = (
            f'{{"algebra": "a2(2)", "real": [{{"family": "low", "k": 5, "mult": {nines}}}, '
            f'{{"family": "high", "k": 3, "mult": {nines}}}], "delta": [{nines}, {nines}]}}'
        )
        path = tmp_path / "d.json"
        path.write_text(text, encoding="utf-8")
        code, out, err = run(capsys, "complete", str(path), "--side", "right")
        assert (code, out) == (cli.EXIT_USAGE, "")
        assert err == "error: ladder index of 4002 digits is past the supported limit 2097152\n"
        assert len(err) < 100

    def test_integers_at_the_document_bounds_are_read(self, capsys, tmp_path):
        """A multiplicity of 4,000 digits completes, a pair with a part of
        4,000 digits is checked, and k at `MAX_PATH_INDEX` is read and refused
        only by the path size limit."""
        path = tmp_path / "d.json"
        path.write_text(self.text("sl2hat", 1, "9" * 4000), encoding="utf-8")
        code, out, _ = run(capsys, "complete", str(path), "--side", "right")
        assert code == cli.EXIT_OK and json.loads(out)["mv"] is True
        side = self.text("a2(2)", None, "1", "9" * 4000)
        path.write_text(f'{{"left": {side}, "right": {side}}}', encoding="utf-8")
        code, out, _ = run(capsys, "check", str(path))
        assert code == cli.EXIT_FAIL  # a datum with parts is not its own partner
        assert json.loads(out)["weight"] == [10**4000 - 1, 2 * (10**4000 - 1)]
        path.write_text(self.text("sl2hat", 2**21), encoding="utf-8")
        code, out, err = run(capsys, "complete", str(path), "--side", "right")
        assert (code, out) == (cli.EXIT_USAGE, "")
        assert err == "error: ladder index 2097153 is past the supported limit 2097152\n"


class TestUsage:
    def test_missing_subcommand_is_rejected_by_argparse(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main([])
        assert exc.value.code == 2

    def test_unknown_choice_is_rejected_by_argparse(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify", "everything", "--kind", "sl2hat"])
        assert exc.value.code == 2

    def test_the_parser_is_reused_across_calls(self, capsys):
        """`main` builds its parser once per process: a usage error
        between two runs of one command leaves both runs' bytes equal."""
        argv = ["op", "e1 e0", "--kind", "sl2hat"]
        first = run(capsys, *argv)
        assert first[0] == cli.EXIT_OK and first[1]
        with pytest.raises(SystemExit) as exc:
            cli.main(["op", "e1", "--kind", "bogus"])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err
        assert run(capsys, *argv) == first
        assert cli._parser() is cli._parser()

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


def readme_examples():
    """The `affmv` commands of README's usage block that need no file and
    no other program, as (argv, stdin): an `echo` piped in is the stdin."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text("utf-8")
    blocks = [b.split("```", 1)[0] for b in readme.split("```sh\n")[1:]]
    usage = next(b for b in blocks if "affmv complete" in b)
    examples = []
    for line in usage.replace("\\\n", " ").splitlines():
        if not line or line.startswith("#"):
            continue
        stdin = None
        if line.startswith("echo "):
            echoed, line = line.split("|", 1)
            stdin = shlex.split(echoed)[1]
        words = shlex.split(line)
        if "|" not in words and not any(w.endswith(".json") for w in words):
            examples.append((words[1:], stdin))
    return examples


README_EXAMPLES = readme_examples()
README_COMMANDS = [" ".join(argv[:2]) for argv, _ in README_EXAMPLES]


class TestReadmeExamples:
    def test_the_file_free_examples_are_the_four_expected(self):
        assert README_COMMANDS == [
            "complete --side",
            "op e1 e0* e0* s0",
            "verify all",
            "verify uniqueness",
        ]

    @pytest.mark.parametrize("argv, stdin", README_EXAMPLES, ids=README_COMMANDS)
    def test_each_example_exits_0(self, capsys, monkeypatch, argv, stdin):
        if stdin is not None:
            monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
        code, out, _ = run(capsys, *argv)
        assert code == cli.EXIT_OK and out
