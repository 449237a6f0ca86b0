"""The three workloads: their seeded inputs, operations and output checks.

A workload is a list of operations that make one round; a run repeats
whole rounds.  Each operation carries its own check, computed with
`model` rather than with `affmv`, and run after the timed phase.
The build_* functions import `affmv` themselves, so that set-up time
covers the import and the building of the inputs.

Only public names of `affmv` are used, plus `.left`, `.right`, `.weight`
and `.kind` on returned elements; data are read back through the
document form (`affmv.documents.datum_to_obj`).
"""

from __future__ import annotations

import io
import json
import random
import re
import sys
import xml.etree.ElementTree as ET
from typing import Callable, NamedTuple

import model


class Op(NamedTuple):
    label: str
    run: Callable[[], object]
    # Returns a description of what is wrong with the output, or None.
    check: Callable[[object], str | None]
    # Clear the library's caches before the call (outside the timing).
    cold: bool = True
    # Set on an operation that fails every time because of a known fault:
    # the expected failure, as the text its exception must contain.
    known_fault: str | None = None


class Workload(NamedTuple):
    ops: list[Op]
    # Reported tail percentile, and the fewest latency samples a run
    # takes so that at least ten samples lie beyond it.
    tail_pct: int
    min_samples: int
    describe: str


def clear_caches() -> None:
    """Empty every cache a fresh `affmv` process would find empty."""
    import affmv.lusztig
    import affmv.transition

    # Under tracing, call the originals so that clearing is not counted.
    clear = affmv.transition.clear_cache
    getattr(clear, "__traced_original__", clear)()
    enum = affmv.lusztig.enumerate_data
    enum = getattr(enum, "__traced_original__", enum)
    # The lru_cache may go away in a later version of the library.
    if hasattr(enum, "cache_clear"):
        enum.cache_clear()


def _kind(tag: str):
    import affmv

    return affmv.Algebra(tag)


def _to_affmv(d: dict):
    import affmv

    real = {(e["family"], e["k"]): e["mult"] for e in d["real"]}
    return affmv.datum(_kind(d["algebra"]), real, d["delta"])


def _doc(x) -> dict:
    from affmv.documents import datum_to_obj

    return datum_to_obj(x)


def random_datum(rng: random.Random, kind: str, height: int) -> dict:
    """A random datum whose weight has about the given height.

    Three quarters of the height go to real roots of ladder index at most
    6, one at a time, each on the ladder that brings the weight back
    towards the imaginary direction; the rest is a random partition with
    parts of at most a third of its size.  Keeping the weight near the
    imaginary ray and the shape this regular keeps the solver's cost at
    one height within a factor of about two, so that a run's latency
    percentiles depend little on the seed.
    """
    budget = round(height * 0.75)
    mult: dict[tuple[str, int], int] = {}
    used = a = b = 0
    den = model.LENGTH_RATIO[kind]
    for _ in range(400):
        if used >= budget:
            break
        lean = b - den * a
        family = "high" if lean > 0 else "low" if lean < 0 else rng.choice(("low", "high"))
        k = rng.randint(1, 6)
        ra, rb = model.root(kind, family, k)
        if used + ra + rb <= budget:
            mult[(family, k)] = mult.get((family, k), 0) + 1
            used, a, b = used + ra + rb, a + ra, b + rb
    n = (height - used) // model.height(model.DELTA[kind])
    cap = max(1, n // 3)
    parts = []
    while n:
        p = rng.randint(1, min(n, cap))
        parts.append(p)
        n -= p
    real = [
        {"family": f, "k": k, "mult": m}
        for (f, k), m in sorted(mult.items(), key=lambda x: (x[0][0] != "low", x[0][1]))
    ]
    return {"algebra": kind, "real": real, "delta": sorted(parts, reverse=True)}


def _fits(d: dict, cap: tuple[int, int]) -> bool:
    a, b = model.weight(d)
    return a <= cap[0] and b <= cap[1]


def _problem_pair(left: dict, right: dict, known: dict, side: str) -> str | None:
    """What is wrong with a completion (left, right) of `known` on `side`."""
    if (left if side == "left" else right) != known:
        return "the input side changed"
    if model.weight(left) != model.weight(right):
        return f"weights differ: {model.weight(left)} vs {model.weight(right)}"
    bad = model.mv_failures(left, right)
    if bad:
        return f"pair fails MV conditions {bad}"
    return None


# -- complete -------------------------------------------------------------

# Frozen reference pair of weight (20, 22); the right datum is the input.
REFERENCE_RIGHT = {
    "algebra": model.SL2,
    "real": [
        {"family": "low", "k": 1, "mult": 2},
        {"family": "low", "k": 2, "mult": 1},
        {"family": "low", "k": 3, "mult": 1},
        {"family": "high", "k": 1, "mult": 1},
        {"family": "high", "k": 3, "mult": 1},
    ],
    "delta": [9, 2, 1, 1],
}
REFERENCE_LEFT = {
    "algebra": model.SL2,
    "real": [
        {"family": "low", "k": 1, "mult": 5},
        {"family": "low", "k": 2, "mult": 1},
        {"family": "low", "k": 4, "mult": 1},
        {"family": "high", "k": 1, "mult": 1},
        {"family": "high", "k": 2, "mult": 2},
        {"family": "high", "k": 3, "mult": 1},
        {"family": "high", "k": 4, "mult": 1},
    ],
    "delta": [2, 1, 1],
}

# Seeded random data per algebra and side: (height, count).
COMPLETE_TIERS = ((50, 16), (120, 28), (200, 6))
# The weight-500 tier and the imaginary data dominate a round's time, so
# they are the same in every run: drawn from a fixed seed, or fixed.
HEAVY_HEIGHT = 500
HEAVY_SEED = 500
DELTA_N = {model.SL2: (10, 25, 45, 60), model.A22: (5, 15, 25, 30)}
# Oracle inputs stay at weights where enumeration is well under a second.
ORACLE_CAP = {model.SL2: (12, 13), model.A22: (7, 14)}
ORACLE_PER_KIND_SIDE = 3


def _complete_op(known: dict, side: str, solver: str, tier: str,
                 expect: dict | None = None) -> Op:
    import affmv.transition as tr

    d = _to_affmv(known)
    name = "complete_from_left" if side == "left" else "complete_from_right"

    def run():
        return getattr(tr, name)(d, solver=solver)

    def check(P) -> str | None:
        left, right = _doc(P.left), _doc(P.right)
        problem = _problem_pair(left, right, known, side)
        if problem:
            return problem
        partner = right if side == "left" else left
        if expect is not None and partner != expect:
            return f"partner {partner} differs from the closed form {expect}"
        # Completing the partner from the other side returns the input.
        clear_caches()
        back_name = "complete_from_right" if side == "left" else "complete_from_left"
        back = getattr(tr, back_name)(_to_affmv(partner))
        if _doc(back.left if side == "left" else back.right) != known:
            return "completing the partner from the other side does not return the input"
        if solver == "oracle":
            clear_caches()
            dfs = getattr(tr, name)(d, solver="dfs")
            if (_doc(dfs.left), _doc(dfs.right)) != (left, right):
                return "oracle and DFS answers differ"
        return None

    return Op(f"complete/{solver}/{known['algebra']}/{side}/{tier}", run, check)


def build_complete(seed: int) -> Workload:
    rng = random.Random(seed)
    heavy_rng = random.Random(HEAVY_SEED)
    ops: list[Op] = []
    for kind in model.KINDS:
        for side in ("left", "right"):
            for h, count in COMPLETE_TIERS:
                for _ in range(count):
                    ops.append(_complete_op(random_datum(rng, kind, h), side, "dfs", f"h{h}"))
            heavy = random_datum(heavy_rng, kind, HEAVY_HEIGHT)
            ops.append(_complete_op(heavy, side, "dfs", f"h{HEAVY_HEIGHT}"))
            picked = 0
            while picked < ORACLE_PER_KIND_SIDE:
                cap = ORACLE_CAP[kind]
                d = random_datum(rng, kind, rng.randint(sum(cap) // 2, sum(cap) - 3))
                if _fits(d, cap):
                    ops.append(_complete_op(d, side, "oracle", "oracle"))
                    picked += 1
        for n in DELTA_N[kind]:
            imag = {"algebra": kind, "real": [], "delta": [n]}
            side = "left" if n % 2 else "right"
            ops.append(_complete_op(imag, side, "dfs", f"delta{n}", model.trapezoid(kind, n)))
    ops.append(_complete_op(REFERENCE_RIGHT, "right", "dfs", "reference", REFERENCE_LEFT))
    rng.shuffle(ops)
    return Workload(
        ops,
        # The top 2 % of a round are the fixed weight-500 and delta=[60]
        # completions, so this percentile does not move with the seed.
        tail_pct=98,
        min_samples=500,
        describe=(
            f"{len(ops)} completions: per algebra and side "
            + ", ".join(f"{c} at height ~{h}" for h, c in COMPLETE_TIERS)
            + f", 1 at ~{HEAVY_HEIGHT} (fixed seed {HEAVY_SEED}) and "
            f"{ORACLE_PER_KIND_SIDE} oracle; delta=[n] for n in {DELTA_N}; "
            "the reference right datum"
        ),
    )


# -- verify ---------------------------------------------------------------

# The defaults of `affmv verify all`.
VERIFY_SETTINGS = {
    model.SL2: {"box": (6, 6), "depth": 8},
    model.A22: {"box": (4, 8), "depth": 6},
}
SAITO_DEPTH = 6
SAITO_SLACK = 2


def _report_problem(report, expect: dict[str, int]) -> str | None:
    if not report.passed:
        return f"report {report.name} failed: {report.failures[:3]}"
    for label, value in expect.items():
        if report.count(label) != value:
            return f"{report.name}: {label!r} is {report.count(label)}, expected {value}"
    return None


def build_verify(seed: int) -> Workload:
    """One pass per algebra, as `affmv verify all` runs it.

    The inputs are the CLI defaults and do not depend on the seed.
    """
    import affmv.crystal
    import affmv.verify as vf

    del seed
    ops: list[Op] = []
    for kind in model.KINDS:
        cfg = VERIFY_SETTINGS[kind]
        box, depth = cfg["box"], cfg["depth"]
        k = _kind(kind)
        counts = model.data_counts(kind, box)
        flat = [counts[a][b] for a in range(box[0] + 1) for b in range(box[1] + 1)]
        n_data = sum(flat)
        nodes = model.data_below_height(kind, depth)
        inner = model.data_below_height(kind, depth - 1)
        shared: dict = {}

        def uniqueness(k=k, box=box):
            return vf.check_uniqueness(k, affmv.RootVector(*box))

        def axioms(k=k, depth=depth, shared=shared):
            # The node sweeps share one graph, built here as the CLI does.
            shared["graph"] = affmv.crystal.crystal_graph(k, depth)
            return vf.check_axioms(k, depth, graph=shared["graph"])

        def star(k=k, depth=depth, shared=shared):
            return vf.check_star_negation(k, depth, graph=shared["graph"])

        def saito(k=k):
            return vf.check_saito_formulas(k, SAITO_DEPTH, slack=SAITO_SLACK)

        def crystal_axioms(k=k, depth=depth, shared=shared):
            return vf.check_crystal_axioms(k, depth, graph=shared["graph"])

        def saito_problem(r) -> str | None:
            evals = (SAITO_SLACK + 1) * (
                r.count("reflection nodes") + r.count("starred reflection nodes")
            )
            return _report_problem(r, {"formula evaluations": evals})

        expect_uniq = {
            "weights checked": len(flat),
            "data checked": n_data,
            "pair checks": sum(n * n for n in flat),
            "dfs completions": 2 * n_data,
        }
        ops += [
            Op(f"verify/{kind}/uniqueness", uniqueness,
               lambda r, e=expect_uniq: _report_problem(r, e), cold=True),
            Op(f"verify/{kind}/axioms", axioms,
               lambda r, n=nodes: _report_problem(r, {"(W) weights": n}), cold=False),
            Op(f"verify/{kind}/star", star,
               lambda r, n=nodes: _report_problem(r, {"nodes checked": n}), cold=False),
            Op(f"verify/{kind}/saito", saito, saito_problem, cold=False),
            Op(f"verify/{kind}/crystal", crystal_axioms,
               lambda r, n=nodes, m=inner: _report_problem(
                   r, {"lowest candidates": 1, "inverse checks": 2 * n,
                       "edge weight checks": 4 * m, "string length checks": 2 * n}),
               cold=False),
        ]
    return Workload(
        ops,
        # Lands inside the a2(2) uniqueness sweeps, the second costliest.
        tail_pct=85,
        min_samples=70,
        describe="per algebra: uniqueness, axioms (with the shared graph), star, saito, crystal",
    )


# -- cli ------------------------------------------------------------------

def cli_call(argv: list[str], stdin_text: str = "") -> tuple[object, str, str]:
    """Run `affmv.cli.main(argv)` in-process with in-memory stdio."""
    import affmv.cli

    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin, sys.stdout, sys.stderr
    sys.stdin, sys.stdout, sys.stderr = io.StringIO(stdin_text), out, err
    try:
        try:
            code: object = affmv.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    finally:
        sys.stdin, sys.stdout, sys.stderr = saved
    return code, out.getvalue(), err.getvalue()


def _cli_op(label: str, argv: list[str], stdin_text: str, code: int,
            check: Callable[[str, str], str | None] | None = None,
            known_fault: str | None = None) -> Op:
    def run():
        return cli_call(argv, stdin_text)

    def verdict(result) -> str | None:
        got, out, err = result
        if got != code:
            return f"exit {got}, expected {code}: {err.strip()[:200]}"
        return check(out, err) if check else None

    return Op(label, run, verdict, known_fault=known_fault)


def _polytope_problem(out: str, expect_weight: tuple[int, int] | None) -> str | None:
    doc = json.loads(out)
    left, right = doc["left"], doc["right"]
    if model.weight(left) != model.weight(right) or doc["weight"] != list(model.weight(left)):
        return "weights do not match"
    if expect_weight is not None and tuple(doc["weight"]) != expect_weight:
        return f"weight {doc['weight']}, expected {expect_weight}"
    if model.mv_failures(left, right) or doc["mv"] is not True:
        return "output pair is not MV"
    return None


# Operator tokens whose application from a known state is sure to apply.
_RAISE = {"e0": (1, 0), "e1": (0, 1), "e0*": (1, 0), "e1*": (0, 1)}
_LOWER = {"e0": "f0", "e1": "f1", "e0*": "f0*", "e1*": "f1*"}
_REFLECT_AFTER = {"e0": "s0", "e1": "s1", "e0*": "s0*", "e1*": "s1*"}


def _success_word(rng: random.Random, kind: str) -> tuple[str, tuple[int, int]]:
    """A word that applies everywhere, with the weight it ends at.

    A lowering operator right after its raising one always applies; a
    reflection at the lowest element is defined; star keeps the weight
    and tau (sl2hat only) swaps its two coordinates.
    """
    tokens = [rng.choice(("s0", "s1"))] if rng.random() < 0.3 else []
    a = b = 0
    for _ in range(6):
        t = rng.choice(tuple(_RAISE))
        tokens.append(t)
        a, b = a + _RAISE[t][0], b + _RAISE[t][1]
        r = rng.random()
        if r < 0.2:
            tokens += [_LOWER[t], t]
        elif r < 0.3:
            tokens.append("star")
        elif r < 0.4 and kind == model.SL2:
            tokens.append("tau")
            a, b = b, a
    return " ".join(tokens), (a, b)


def _failing_word(rng: random.Random, kind: str, absent: bool) -> str:
    """A word whose last operator does not apply (exit 1).

    After raising only along alpha_i (i = 1 or 0) every datum of the
    weight lives on the first rung of one ladder, so lowering along the
    other node is absent; right after e_i, the reflection s_i is outside
    its domain.
    """
    if absent:
        node = rng.choice((0, 1))
        up = ("e1", "e1*") if node == 0 else ("e0", "e0*")
        last = rng.choice(("f0", "f0*") if node == 0 else ("f1", "f1*"))
        return " ".join([rng.choice(up) for _ in range(rng.randint(1, 6))] + [last])
    t = rng.choice(tuple(_RAISE))
    prefix = [rng.choice(tuple(_RAISE)) for _ in range(rng.randint(1, 5))]
    return " ".join(prefix + [t, _REFLECT_AFTER[t]])


GRAPH_DEPTHS = {model.SL2: range(8, 13), model.A22: range(6, 11)}
# Per round, 20 check, render and failing op calls are cheaper than the
# 10 op words that apply, and 18 complete and graph calls dearer, so the
# median falls inside one kind of command rather than between two.
CLI_COMPLETE = 8
CLI_PAIRS = 4
CLI_WORDS_OK, CLI_WORDS_ABSENT, CLI_WORDS_PRECONDITION = 10, 2, 2
CLI_RENDER = 4


def build_cli(seed: int) -> Workload:
    import affmv.transition as tr

    rng = random.Random(seed)
    ops: list[Op] = []

    for i in range(CLI_COMPLETE):
        kind = model.KINDS[i % 2]
        side = ("left", "right")[(i // 2) % 2]
        d = random_datum(rng, kind, rng.randint(10, 60))

        def ok(out, err, d=d, side=side):
            doc = json.loads(out)
            problem = _polytope_problem(out, model.weight(d))
            return problem or (None if doc[side] == d else "the input side changed")

        ops.append(_cli_op(f"cli/complete/{kind}/{side}", ["complete", "--side", side],
                           json.dumps(d), 0, ok))

    # MV pairs come from the library's own completion, at set-up; a pair
    # (L, L) with L different from its partner R is not MV, since R is the
    # only datum that completes L.
    pairs = []
    while len(pairs) < 2 * CLI_PAIRS:
        kind = model.KINDS[len(pairs) % 2]
        right = random_datum(rng, kind, rng.randint(8, 40))
        clear_caches()
        left = _doc(tr.complete_from_right(_to_affmv(right)).left)
        if left != right:
            pairs.append((left, right))
    for n, (left, right) in enumerate(pairs):
        mv = n < CLI_PAIRS
        doc = {"left": left, "right": right if mv else left}
        ours = not model.mv_failures(doc["left"], doc["right"])

        def verdict(out, err, ours=ours):
            parsed = json.loads(out)
            return None if parsed["mv"] is ours and bool(parsed["violations"]) is not ours \
                else "verdict disagrees with the MV conditions"

        ops.append(_cli_op(f"cli/check/{'mv' if mv else 'non-mv'}", ["check"],
                           json.dumps(doc), 0 if mv else 1, verdict))

    for n in range(CLI_WORDS_OK + CLI_WORDS_ABSENT + CLI_WORDS_PRECONDITION):
        kind = model.KINDS[n % 2]
        if n < CLI_WORDS_OK:
            word, w = _success_word(rng, kind)
            ops.append(_cli_op(f"cli/op/{kind}/applies", ["op", word, "--kind", kind], "", 0,
                               lambda out, err, w=w: _polytope_problem(out, w)))
            continue
        absent = n < CLI_WORDS_OK + CLI_WORDS_ABSENT
        word = _failing_word(rng, kind, absent)
        needle = "is absent here" if absent else "failed:"
        ops.append(_cli_op(f"cli/op/{kind}/{'absent' if absent else 'precondition'}",
                           ["op", word, "--kind", kind], "", 1,
                           lambda out, err, s=needle: None if s in err else f"stderr lacks {s!r}"))

    for n in range(2 * CLI_RENDER):
        left, right = pairs[n % CLI_PAIRS]
        fmt = ("svg", "tikz")[n % 2]
        if n < CLI_RENDER:
            doc, argv = {"left": left, "right": right}, ["render", "--format", fmt]
        else:
            doc, argv = right, ["render", "--side", "right", "--format", fmt]
        w = model.weight(right)

        def drawn(out, err, fmt=fmt, w=w):
            if fmt == "svg":
                title = ET.fromstring(out).find("{http://www.w3.org/2000/svg}title")
                return None if title is not None and f"({w[0]},{w[1]})" in title.text \
                    else "SVG lacks the weight title"
            ok = out.startswith("%") and "\\begin{tikzpicture}" in out and \
                out.rstrip().endswith("\\end{tikzpicture}")
            return None if ok and f"({w[0]},{w[1]})" in out.splitlines()[0] else "bad TikZ"

        ops.append(_cli_op(f"cli/render/{fmt}", argv, json.dumps(doc), 0, drawn))

    for kind, depths in GRAPH_DEPTHS.items():
        for depth in depths:
            nodes = model.data_below_height(kind, depth)
            edges = 4 * model.data_below_height(kind, depth - 1)

            def dot(out, err, nodes=nodes, edges=edges):
                got_nodes = len(re.findall(r"^  n\d+ \[label=", out, re.M))
                got_edges = len(re.findall(r"^  n\d+ -> n\d+ ", out, re.M))
                return None if (got_nodes, got_edges) == (nodes, edges) \
                    else f"{got_nodes} nodes, {got_edges} edges; expected {nodes}, {edges}"

            ops.append(_cli_op(f"cli/graph/{kind}/{depth}",
                               ["graph", "--kind", kind, "--depth", str(depth)], "", 0, dot))

    # Should exit 2; the ValueError from crystal_graph escapes main instead.
    ops.append(_cli_op("cli/graph/negative-depth",
                       ["graph", "--kind", model.SL2, "--depth", "-1"], "", 2,
                       known_fault="depth must be >= 0"))
    rng.shuffle(ops)
    return Workload(
        ops,
        # Lands between the two depth-8 graphs, which cost about the same.
        tail_pct=85,
        min_samples=67,
        describe=(
            f"{CLI_COMPLETE} complete (height 10-60), {CLI_PAIRS} MV and {CLI_PAIRS} non-MV "
            f"check, {CLI_WORDS_OK}+{CLI_WORDS_ABSENT}+{CLI_WORDS_PRECONDITION} op words "
            f"(apply, absent, precondition), {CLI_RENDER} SVG and {CLI_RENDER} TikZ render, "
            "graph sl2hat depth 8-12 and a2(2) depth 6-10, graph --depth -1"
        ),
    )


WORKLOADS = {"complete": build_complete, "verify": build_verify, "cli": build_cli}
