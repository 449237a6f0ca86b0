"""The package surface: the modules each entry point loads, and its names.

Each import case runs in a fresh interpreter and compares the set of
`affmv` modules it leaves in `sys.modules`, not a time, so the result is
the same on every run.  `complete` and `check` never touch `crystal`,
`render` or `verify`, and nothing in the package loads `dataclasses`.
"""

import os
import subprocess
import sys

import pytest

import affmv

# Every name the package exported before `crystal` and `verify` loaded
# on first access.
EXPORTS = (
    "ALPHA0", "ALPHA1", "FAMILIES", "HIGH", "LOW", "ZERO", "Algebra",
    "RootVector", "beta", "cartan_pair", "delta", "ladder_root",
    "length_ratio", "max_real_index", "root_label", "simple_reflection",
    "symmetrized_form",
    "LusztigDatum", "PartAbsent", "PreconditionViolated", "RealEntry",
    "UnsupportedKind", "add_part", "datum", "enumerate_data",
    "is_purely_imaginary", "largest_part", "partitions", "remove_part",
    "trapezoid_datum", "twist_s", "twist_tau",
    "DecoratedPolytope", "MVVerdict", "MVViolation", "VertexFan", "is_mv",
    "truncation_index", "vertices",
    "DFS", "ORACLE", "MultipleCompletionsError", "NoCompletionError",
    "SolverInvariantError", "clear_cache", "complete_from_left",
    "complete_from_right", "transition_l_to_r",
    "CrystalGraph", "crystal_graph", "e", "e_star", "eps", "eps_star", "f",
    "f_star", "lowest", "phi", "phi_star", "saito", "saito_star", "star", "tau",
    "Report", "check_axioms", "check_crystal_axioms", "check_saito_formulas",
    "check_star_negation", "check_uniqueness",
)

CORE = {"affmv", "affmv.roots", "affmv.lusztig", "affmv.polytope", "affmv.transition"}
CLI = CORE | {"affmv.cli", "affmv.documents"}

DATUM = '{"algebra": "sl2hat", "real": [{"family": "low", "k": 1, "mult": 2}], "delta": [1]}'
SIMPLE = '{"algebra": "sl2hat", "real": [{"family": "low", "k": 1, "mult": 1}], "delta": []}'
PAIR = f'{{"left": {SIMPLE}, "right": {SIMPLE}}}'

# Prints the loaded modules of interest.
SHOW = """
import sys
print(*(m for m in sys.modules if m == "dataclasses" or m.startswith("affmv")))
"""
# Runs `affmv.cli.main` on argv[2:] with argv[1] as stdin, shows the
# modules and exits with the command's code.
CLI_PROBE = """
import io, sys
import affmv.cli
sys.stdin, sys.stdout = io.StringIO(sys.argv[1]), io.StringIO()
code = affmv.cli.main(sys.argv[2:])
sys.stdout = sys.__stdout__
""" + SHOW + "sys.exit(code)"


def loaded(code: str, *args: str) -> set[str]:
    """The modules `code` shows when it runs in a fresh interpreter."""
    src = os.path.dirname(os.path.dirname(affmv.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code, *args],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.split())


class TestImportBudget:
    @pytest.mark.parametrize(
        "statement, want",
        [
            ("import affmv", CORE),
            ("import affmv.transition", CORE),
            ("import affmv; affmv.e", CORE | {"affmv.crystal"}),
            ("from affmv import Report", CORE | {"affmv.crystal", "affmv.verify"}),
            ("import affmv.documents", CORE | {"affmv.documents"}),
        ],
    )
    def test_library_imports(self, statement, want):
        assert loaded(statement + SHOW) == want

    @pytest.mark.parametrize(
        "stdin, argv, want",
        [
            (DATUM, ["complete", "--side", "right"], CLI),
            (PAIR, ["check"], CLI),
            ("", ["op", "e0 f0", "--kind", "sl2hat"], CLI | {"affmv.crystal"}),
            ("", ["graph", "--kind", "a2(2)", "--depth", "1"], CLI | {"affmv.crystal"}),
            (DATUM, ["render", "--format", "tikz"], CLI | {"affmv.render"}),
            (
                "",
                ["verify", "uniqueness", "--kind", "sl2hat", "--box", "1", "1"],
                CLI | {"affmv.crystal", "affmv.verify"},
            ),
        ],
        ids=["complete", "check", "op", "graph", "render", "verify"],
    )
    def test_each_command_loads_what_it_runs(self, stdin, argv, want):
        assert loaded(CLI_PROBE, stdin, *argv) == want


class TestPublicNames:
    @pytest.mark.parametrize("name", EXPORTS)
    def test_each_export_is_reachable_and_listed(self, name):
        namespace: dict = {}
        exec(f"from affmv import {name}", namespace)
        assert namespace[name] is getattr(affmv, name)
        assert name in affmv.__all__ and name in dir(affmv)

    def test_all_lists_only_the_exports(self):
        assert sorted(affmv.__all__) == sorted(EXPORTS)
        assert len(set(affmv.__all__)) == len(affmv.__all__)

    def test_lazy_names_are_the_module_objects(self):
        from affmv import crystal, verify

        assert affmv.crystal is crystal and affmv.verify is verify
        assert affmv.CrystalGraph is crystal.CrystalGraph
        assert affmv.check_axioms is verify.check_axioms

    def test_an_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            affmv.no_such_name
