"""Command-line interface.

Subcommands: complete (derive the other Lusztig datum), check (MV
verdict for a pair), op (apply a word of crystal operators), graph
(DOT export), render (SVG or TikZ drawing), verify (the sweep suites).
A subcommand imports `crystal`, `render` and `verify` only if it uses
them, so complete and check start without any of the three.

Exit codes: 0 success or verification pass, 1 verification failure or an
operator that does not apply, 2 usage or document errors or an input
past the size limit of `polytope.MAX_PATH_INDEX`, 3 an internal
invariant breach (the uniqueness promise failing would surface here).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import Sequence

from .documents import (
    DocumentError,
    dumps,
    graph_to_dot,
    parse_datum,
    parse_polytope,
    polytope_to_obj,
)
from .lusztig import LusztigDatum, PreconditionViolated, UnsupportedKind
from .polytope import DecoratedPolytope, PathTooLong, is_mv
from .roots import Algebra, RootVector
from .transition import (
    DFS,
    ORACLE,
    SolverInvariantError,
    complete_from_left,
    complete_from_right,
)

__all__ = ["main"]

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3

_KIND_TAGS = tuple(kind.value for kind in Algebra)

_DEFAULT_BOX = {
    Algebra.SL2_HAT: RootVector(6, 6),
    Algebra.A2_TWISTED: RootVector(4, 8),
}
_DEFAULT_DEPTH = {
    Algebra.SL2_HAT: 8,
    Algebra.A2_TWISTED: 6,
}
_SAITO_DEPTH = 6

# Each operator token: the `crystal` function it applies, looked up when
# `op` runs, and its node (None for the involutions star and tau).
_TOKENS = {
    "e0": ("e", 0),
    "e1": ("e", 1),
    "f0": ("f", 0),
    "f1": ("f", 1),
    "e0*": ("e_star", 0),
    "e1*": ("e_star", 1),
    "f0*": ("f_star", 0),
    "f1*": ("f_star", 1),
    "s0": ("saito", 0),
    "s1": ("saito", 1),
    "s0*": ("saito_star", 0),
    "s1*": ("saito_star", 1),
    "star": ("star", None),
    "tau": ("tau", None),
}


def _read_json(path: str) -> object:
    try:
        if path == "-":
            # Decode the bytes as a file is decoded, whatever the locale's
            # error handler; a text stream without a buffer is read as is.
            buffer = getattr(sys.stdin, "buffer", None)
            text = sys.stdin.read() if buffer is None else buffer.read().decode("utf-8")
        else:
            with open(path, "r", encoding="utf-8") as handle:
                text = handle.read()
        return json.loads(text)
    except OSError as err:
        raise DocumentError(f"cannot read {path}: {err}") from err
    except (ValueError, RecursionError) as err:
        # ValueError covers malformed JSON, bytes that are not UTF-8 and
        # integer literals past the interpreter's digit limit;
        # RecursionError, nesting deeper than the recursion limit.
        raise DocumentError(f"invalid JSON in {path}: {err}") from err


def _count(text: str) -> int:
    """argparse type for depths, box sides and slack: an integer >= 0."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _complete(d: LusztigDatum, side: str, solver: str = DFS) -> DecoratedPolytope:
    """The polytope with d on `side`; the other datum is its completion."""
    complete = complete_from_left if side == "left" else complete_from_right
    return complete(d, solver=solver)


def _cmd_complete(args: argparse.Namespace) -> int:
    P = _complete(parse_datum(_read_json(args.input)), args.side, args.solver)
    sys.stdout.write(dumps(polytope_to_obj(P, with_vertices=True)))
    return EXIT_OK


def _cmd_check(args: argparse.Namespace) -> int:
    P = parse_polytope(_read_json(args.input))
    verdict = is_mv(P)
    sys.stdout.write(dumps(polytope_to_obj(P, verdict=verdict)))
    return EXIT_OK if verdict.ok else EXIT_FAIL


def _cmd_op(args: argparse.Namespace) -> int:
    from . import crystal

    if args.start is not None:
        d = parse_datum(_read_json(args.start))
        if args.kind is not None and d.kind.value != args.kind:
            raise DocumentError("--kind disagrees with the start datum")
        b = _complete(d, args.side)
    else:
        if args.kind is None:
            raise DocumentError("either --start or --kind is required")
        b = crystal.lowest(Algebra(args.kind))
    tokens = args.word.split()
    for pos, token in enumerate(tokens):
        if token not in _TOKENS:
            raise DocumentError(
                f"unknown operator {token!r} at position {pos}; "
                f"expected one of {sorted(_TOKENS)}"
            )
        name, i = _TOKENS[token]
        op = getattr(crystal, name)
        try:
            result = op(b) if i is None else op(i, b)
        except (PreconditionViolated, UnsupportedKind) as err:
            sys.stderr.write(f"operator {token!r} at position {pos} failed: {err}\n")
            return EXIT_FAIL
        if result is None:
            sys.stderr.write(
                f"operator {token!r} at position {pos} is absent here\n"
            )
            return EXIT_FAIL
        b = result
    sys.stdout.write(dumps(polytope_to_obj(b, with_vertices=True)))
    return EXIT_OK


def _cmd_graph(args: argparse.Namespace) -> int:
    from . import crystal

    g = crystal.crystal_graph(Algebra(args.kind), args.depth)
    sys.stdout.write(graph_to_dot(g))
    return EXIT_OK


def _cmd_render(args: argparse.Namespace) -> int:
    from .render import render_svg, render_tikz

    obj = _read_json(args.input)
    if isinstance(obj, dict) and "left" in obj:
        P = parse_polytope(obj)
    else:
        d = parse_datum(obj)
        P = _complete(d, args.side)
    sys.stdout.write(render_svg(P) if args.format == "svg" else render_tikz(P))
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    from . import crystal, verify

    kind = Algebra(args.kind)
    box = (
        RootVector(args.box[0], args.box[1])
        if args.box is not None
        else _DEFAULT_BOX[kind]
    )
    depth = args.depth if args.depth is not None else _DEFAULT_DEPTH[kind]
    saito_depth = args.depth if args.depth is not None else _SAITO_DEPTH
    reports: list[verify.Report] = []
    suite = args.suite
    if suite in ("uniqueness", "all"):
        reports.append(verify.check_uniqueness(kind, box))
    graph = None
    if suite in ("axioms", "star", "crystal", "all"):
        graph = crystal.crystal_graph(kind, depth)
    if suite in ("axioms", "all"):
        reports.append(verify.check_axioms(kind, depth, graph=graph))
    if suite in ("star", "all"):
        reports.append(verify.check_star_negation(kind, depth, graph=graph))
    if suite in ("saito", "all"):
        shared = graph if saito_depth == depth else None
        reports.append(
            verify.check_saito_formulas(
                kind, saito_depth, slack=args.slack, graph=shared
            )
        )
    if suite in ("crystal", "all"):
        reports.append(verify.check_crystal_axioms(kind, depth, graph=graph))
    if args.json:
        payload = [
            {
                "name": r.name,
                "kind": r.kind.value,
                "scope": r.scope,
                "passed": r.passed,
                "counts": {key: value for key, value in r.counts},
                "notes": list(r.notes),
                "failures": list(r.failures),
            }
            for r in reports
        ]
        sys.stdout.write(dumps(payload))
    else:
        for r in reports:
            sys.stdout.write(str(r) + "\n")
    return EXIT_OK if all(r.passed for r in reports) else EXIT_FAIL


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process and reused by `main`.

    Parsing does not change the parser, and in-process callers run `main`
    many times.
    """
    parser = argparse.ArgumentParser(
        prog="affmv",
        description="Exact MV polytope computations for the rank-2 affine algebras.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("complete", help="derive the matching datum for one side")
    p.add_argument("input", nargs="?", default="-", help="datum document ('-' = stdin)")
    p.add_argument("--side", choices=("left", "right"), required=True,
                   help="which side the input datum occupies")
    p.add_argument("--solver", choices=(DFS, ORACLE), default=DFS)
    p.set_defaults(run=_cmd_complete)

    p = sub.add_parser("check", help="MV verdict for a pair of data")
    p.add_argument("input", nargs="?", default="-", help="polytope document")
    p.set_defaults(run=_cmd_check)

    p = sub.add_parser("op", help="apply a word of crystal operators")
    p.add_argument("word", help="whitespace-separated operator tokens, e.g. 'e0 e1 s0*'")
    p.add_argument("--kind", choices=_KIND_TAGS, help="start from the lowest element")
    p.add_argument("--start", help="datum document to start from instead")
    p.add_argument("--side", choices=("left", "right"), default="right",
                   help="which side --start describes")
    p.set_defaults(run=_cmd_op)

    p = sub.add_parser("graph", help="crystal graph below a raising depth")
    p.add_argument("--kind", choices=_KIND_TAGS, required=True)
    p.add_argument("--depth", type=_count, required=True)
    p.add_argument("--format", choices=("dot",), default="dot")
    p.set_defaults(run=_cmd_graph)

    p = sub.add_parser("render", help="draw a polytope")
    p.add_argument("input", nargs="?", default="-",
                   help="datum or polytope document")
    p.add_argument("--side", choices=("left", "right"), default="right",
                   help="side of a bare datum input")
    p.add_argument("--format", choices=("svg", "tikz"), default="svg")
    p.set_defaults(run=_cmd_render)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument(
        "suite",
        choices=("uniqueness", "axioms", "star", "saito", "crystal", "all"),
    )
    p.add_argument("--kind", choices=_KIND_TAGS, required=True)
    p.add_argument("--box", type=_count, nargs=2, metavar=("A", "B"),
                   help="weight box for the uniqueness sweep")
    p.add_argument("--depth", type=_count, help="graph depth for the node sweeps")
    p.add_argument("--slack", type=_count, default=2,
                   help="extra exponents for the reflection formulas")
    p.add_argument("--json", action="store_true", help="machine-readable reports")
    p.set_defaults(run=_cmd_verify)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.run(args)
    except (DocumentError, PathTooLong) as err:
        sys.stderr.write(f"error: {err}\n")
        return EXIT_USAGE
    except SolverInvariantError as err:
        sys.stderr.write(f"internal invariant breach: {err}\n")
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
