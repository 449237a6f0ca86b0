"""Desk-scale verification sweeps.

Each check scans an exhaustively enumerated family, weights in height
order and data in canonical order, so the first recorded failure is
always a minimal counterexample.  Reports are plain data and render to
deterministic text.
"""

from __future__ import annotations

from typing import NamedTuple

from . import crystal
from .crystal import CrystalGraph, crystal_graph
from .lusztig import (
    _derived,
    _real_parts,
    is_purely_imaginary,
    partitions,
    trapezoid_datum,
    twist_s,
)
from .polytope import DecoratedPolytope, _left_partners, vertices
from .roots import (
    ALPHA0,
    ALPHA1,
    HIGH,
    LOW,
    Algebra,
    RootVector,
    simple_reflection,
)
from .transition import DFS, SolverInvariantError, _dfs_sweep, _record, _settle

__all__ = [
    "Report",
    "check_uniqueness",
    "check_axioms",
    "check_star_negation",
    "check_saito_formulas",
    "check_crystal_axioms",
]

_FAILURE_CAP = 12
# The saito sweep's one-solve strings checked against unit steps: the
# first _STRING_NODES nodes, up to _STRING_LENGTH steps.  Each string costs
# a solve, and the whole check stays under 1 % of the sweep.
_STRING_NODES = 2
_STRING_LENGTH = 3


class Report(NamedTuple):
    """Outcome of one verification sweep."""

    name: str
    kind: Algebra
    scope: str
    counts: tuple[tuple[str, int], ...]
    failures: tuple[str, ...]
    notes: tuple[str, ...] = ()

    @property
    def passed(self) -> bool:
        return not self.failures

    def count(self, label: str) -> int:
        for key, value in self.counts:
            if key == label:
                return value
        return 0

    def lines(self) -> list[str]:
        verdict = "PASS" if self.passed else "FAIL"
        out = [f"{self.name} [{self.kind.value}, {self.scope}]: {verdict}"]
        for key, value in self.counts:
            out.append(f"  {key}: {value}")
        for note in self.notes:
            out.append(f"  note: {note}")
        for failure in self.failures[:_FAILURE_CAP]:
            out.append(f"  FAIL: {failure}")
        if len(self.failures) > _FAILURE_CAP:
            out.append(f"  ... and {len(self.failures) - _FAILURE_CAP} more failures")
        return out

    def __str__(self) -> str:
        return "\n".join(self.lines())


class _Tally:
    """Ordered counters plus capped failure collection."""

    def __init__(self) -> None:
        self.counts: dict[str, int] = {}
        self.failures: list[str] = []
        self.notes: list[str] = []

    def hit(self, label: str, by: int = 1) -> None:
        self.counts[label] = self.counts.get(label, 0) + by

    def fail(self, message: str) -> None:
        self.failures.append(message)

    def done(self, name: str, kind: Algebra, scope: str) -> Report:
        return Report(
            name,
            kind,
            scope,
            tuple(self.counts.items()),
            tuple(self.failures),
            tuple(self.notes),
        )


def _box_weights(box: RootVector) -> list[RootVector]:
    weights = [
        RootVector(a, b) for a in range(box.a + 1) for b in range(box.b + 1)
    ]
    weights.sort(key=lambda v: (v.a + v.b, v.a, v.b))
    return weights


def check_uniqueness(kind: Algebra, box: RootVector) -> Report:
    """Every datum in the box has exactly one completion on either side.

    For each weight every pair of data gets the baseline check's verdict
    from one scan (`polytope._left_partners`, with the data of the weight
    as the rights); each datum must have exactly one passing partner on
    either side, the verdicts must be symmetric under the side swap, and
    the pruned search must return exactly the baseline partner both
    ways: its one answer T(d), searched anew for every datum rather
    than read from the record, is compared with the right and the left
    partner.  The search's two ladder walks are shared per distinct half
    among the weight's data and its join runs per datum
    (`transition._dfs_sweep`); the walks and the half-paths come from the
    weight's record in `transition`, and the scan, which runs after the
    search, reads the half-paths it built there.
    """
    t = _Tally()
    for w in _box_weights(box):
        # The data of `enumerate_data(kind, w)`, from a walk the scan reuses.
        walk = list(_real_parts(kind, w))
        data = [
            _derived(kind, real, parts, w) for real, m in walk for parts in partitions(m)
        ]
        n = len(data)
        t.hit("weights checked")
        t.hit("data checked", n)
        t.hit("pair checks", n * n)
        # The sweep builds both half-paths of every datum for the scan.
        rec = _record(kind, w)
        found = list(_dfs_sweep(rec, data))
        hits, _ = _left_partners(kind, w, data, walk, rec.paths)
        pairs = [(i, j) for i, j, _, _ in hits]
        # partners[side][i]: the passing partners of datum i on that side.
        partners = {"right": [[] for _ in data], "left": [[] for _ in data]}
        for i, j in pairs:
            partners["right"][i].append(j)
            partners["left"][j].append(i)
        for own, side in (("left", "right"), ("right", "left")):
            for i, hits in enumerate(partners[side]):
                if len(hits) != 1:
                    t.hit("completion count failures")
                    t.fail(
                        f"weight {w}: {own} datum #{i} {data[i]} has "
                        f"{len(hits)} {side} completions"
                    )
        passing = set(pairs)
        for i, j in sorted(passing ^ {(j, i) for i, j in passing}):
            t.hit("swap symmetry failures")
            t.fail(f"weight {w}: pair ({i},{j}) verdict differs after side swap")
        t.hit("swap symmetry failures", 0)
        t.hit("completion count failures", 0)
        for i, (d, sols) in enumerate(zip(data, found)):
            t.hit("dfs completions", 2)
            try:
                # searched: the solve of its partner may have held T(d)
                got = _settle(rec, d, DFS, sols)
            except SolverInvariantError as err:
                t.hit("dfs mismatches")
                t.fail(f"weight {w}: pruned solver failed on {d}: {err}")
                continue
            for side in ("right", "left"):
                hits = partners[side][i]
                if len(hits) != 1 or got != data[hits[0]]:
                    t.hit("dfs mismatches")
                    t.fail(
                        f"weight {w}: pruned {side} completion of {d} "
                        f"differs from baseline"
                    )
        t.hit("dfs mismatches", 0)
        t.notes.append(f"weight {w}: {n} data")
    return t.done("uniqueness", kind, f"box {box}")


def _saito_formula(
    i: int, b: DecoratedPolytope, starred: bool, n: int | None = None
) -> DecoratedPolytope:
    """A reflection from operators: raise n times, then lower to the end.

    The plain formula is f_i*^max e_i^n, the starred one f_i^max e_i*^n.
    n defaults to the threshold exponent, max(0, eps_i*) for the plain
    formula and max(0, eps_i) for the starred one.  Each string is one
    `crystal._raise`; the starred formula is the plain one conjugated by
    star, since e_i* = * e_i * and f_i = * f_i* *.
    """
    if starred:
        return crystal.star(_saito_formula(i, crystal.star(b), False, n))
    up = crystal._raise(i, b, max(0, crystal.eps_star(i, b)) if n is None else n)
    top = crystal.star(up)
    return crystal.star(crystal._raise(i, top, -crystal.phi(i, top)))


def check_axioms(
    kind: Algebra, depth: int, graph: CrystalGraph | None = None
) -> Report:
    """The characterizing axioms on every node of a generated graph.

    Weight bookkeeping, the four edge rules, the four reflection twist
    identities (against the operator realization of the reflections), and
    the purely-imaginary completion shape.
    """
    g = graph if graph is not None else crystal_graph(kind, depth)
    t = _Tally()
    for idx, b in enumerate(g.nodes):
        t.hit("(W) weights", 1)
        if g.node_weights[idx] != b.weight:
            t.fail(
                f"(W) node {idx}: operator weight {g.node_weights[idx]} "
                f"vs polytope weight {b.weight}"
            )

    edge_rules = {
        "e0": ("(C1)", lambda b, c: c.right == crystal._bump(b.right, HIGH, 1)),
        "e1": ("(C2)", lambda b, c: c.left == crystal._bump(b.left, LOW, 1)),
        "e0*": ("(C3)", lambda b, c: c.left == crystal._bump(b.left, HIGH, 1)),
        "e1*": ("(C4)", lambda b, c: c.right == crystal._bump(b.right, LOW, 1)),
    }
    for src, label, dst in g.edges:
        name, rule = edge_rules[label]
        t.hit(f"{name} edges")
        if not rule(g.nodes[src], g.nodes[dst]):
            t.fail(f"{name} edge {src}->{dst} does not bump the datum as required")

    # The starred reflections (S3)/(S4) are the plain ones on star(b).
    for idx, b in enumerate(g.nodes):
        sides = ((b, ("(S1)", "(S2)")), (crystal.star(b), ("(S3)", "(S4)")))
        for i in (0, 1):
            for x, names in sides:
                if crystal.phi(i, x) != 0:
                    continue
                name = names[i]
                t.hit(f"{name} nodes")
                ref = crystal.saito(i, x)
                twisted = twist_s(x.right, i) if i == 0 else twist_s(x.left, i)
                datum_of_ref = ref.left if i == 0 else ref.right
                if datum_of_ref != twisted:
                    t.fail(f"{name} node {idx}: twist identity broken")
                if ref.weight != simple_reflection(kind, i, x.weight):
                    t.fail(f"{name} node {idx}: reflected weight wrong")
                if _saito_formula(i, x, starred=False) != ref:
                    t.fail(
                        f"{name} node {idx}: operator formula disagrees "
                        f"with the twist definition"
                    )

    for idx, b in enumerate(g.nodes):
        if is_purely_imaginary(b.left) and b.left.delta:
            t.hit("(I) nodes")
            if b.right != trapezoid_datum(kind, b.left.delta):
                t.fail(f"(I) node {idx}: completion is not the trapezoid shape")
    return t.done("axioms", kind, f"depth {depth}")


def check_star_negation(
    kind: Algebra, depth: int, graph: CrystalGraph | None = None
) -> Report:
    """star negates: its vertex multiset is the weight minus the original.

    Also confirms that the vertical-edge decorations trade sides.
    """
    g = graph if graph is not None else crystal_graph(kind, depth)
    t = _Tally()
    for idx, b in enumerate(g.nodes):
        t.hit("nodes checked")
        sb = crystal.star(b)
        w = b.weight
        original = sorted(sum(vertices(b), ()))
        swapped = sorted(sum(vertices(sb), ()))
        negated = sorted(w - v for v in original)
        if swapped != negated:
            t.fail(f"node {idx}: starred vertex multiset is not the negation")
        if sb.left.delta != b.right.delta or sb.right.delta != b.left.delta:
            t.fail(f"node {idx}: decorations did not swap sides")
    return t.done("star-negation", kind, f"depth {depth}")


def check_saito_formulas(
    kind: Algebra,
    depth: int,
    slack: int = 2,
    graph: CrystalGraph | None = None,
) -> Report:
    """Operator formulas for the reflections, swept over the exponent.

    For every node in the domain of a reflection the formula is applied
    with the threshold exponent and `slack` larger ones; all must return
    the twist-defined reflection.  The opposite hypothesis/formula
    pairing is also applied and its mismatches are reported as notes,
    since the adopted convention predicts it fails.  Past the threshold
    the formula cannot tell how far a string raised, so on the graph's
    first `_STRING_NODES` nodes each string e_i^n, 2 <= n <=
    `_STRING_LENGTH`, taken in one solve (`crystal._raise`), must end
    where the graph's unit e_i edges do; a mismatch is a failure and
    adds no count.
    """
    g = graph if graph is not None else crystal_graph(kind, depth)
    t = _Tally()
    opposite_mismatches = 0
    first_mismatch = None
    for idx, b in enumerate(g.nodes):
        # The starred formulas are the plain ones on star(b).
        sides = (
            (b, "reflection nodes", "formula disagrees with the reflection"),
            (
                crystal.star(b),
                "starred reflection nodes",
                "starred formula disagrees with the starred reflection",
            ),
        )
        for i in (0, 1):
            for x, nodes, what in sides:
                if crystal.phi(i, x) != 0:
                    continue
                t.hit(nodes)
                ref = crystal.saito(i, x)
                n0 = max(0, crystal.eps_star(i, x))
                for n in range(n0, n0 + slack + 1):
                    t.hit("formula evaluations")
                    if _saito_formula(i, x, starred=False, n=n) != ref:
                        t.fail(f"node {idx}, i={i}, exponent {n}: {what}")
                if x is b and _saito_formula(i, b, starred=True) != ref:
                    opposite_mismatches += 1
                    if first_mismatch is None:
                        first_mismatch = f"node {idx} (weight {b.weight}), i={i}"
    # One-solve strings against unit steps.  Node s's e_i edge is
    # edges[4*s + i] (`CrystalGraph`).
    for idx in range(min(_STRING_NODES, len(g.nodes))):
        for i in (0, 1):
            at = idx
            for n in range(1, _STRING_LENGTH + 1):
                if 4 * at + i >= len(g.edges):
                    break
                at = g.edges[4 * at + i][2]
                if n > 1 and crystal._raise(i, g.nodes[idx], n) != g.nodes[at]:
                    t.fail(f"node {idx}: e_{i}^{n} in one solve is not {n} unit steps")
    t.hit("opposite pairing mismatches", opposite_mismatches)
    if first_mismatch is not None:
        t.notes.append(
            f"opposite hypothesis/formula pairing fails, first at {first_mismatch}"
        )
    else:
        t.notes.append("opposite pairing never disagreed (unexpected)")
    return t.done("saito-formulas", kind, f"depth {depth}, slack {slack}")


def check_crystal_axioms(
    kind: Algebra, depth: int, graph: CrystalGraph | None = None
) -> Report:
    """Basic crystal identities on a generated graph.

    One lowest element, lowering inverts raising, weights add up along
    edges, the string statistics agree with operational counts, and the
    interaction of ``e(i)`` with ``e_star(i)`` follows the triangle/tube
    local structure (see the commutation block below).
    """
    g = graph if graph is not None else crystal_graph(kind, depth)
    t = _Tally()
    bottoms = [
        idx
        for idx, b in enumerate(g.nodes)
        if crystal.phi(0, b) == 0 and crystal.phi(1, b) == 0
    ]
    t.hit("lowest candidates", len(bottoms))
    if bottoms != [0]:
        t.fail(f"expected exactly node 0 with no lowering moves, got {bottoms}")

    # The starred operators are checked as the plain ones on star(b).
    for idx, b in enumerate(g.nodes):
        sides = ((b, ""), (crystal.star(b), "*"))
        for i in (0, 1):
            t.hit("inverse checks")
            for x, s in sides:
                if crystal.f(i, crystal.e(i, x)) != x:
                    t.fail(f"node {idx}: f_{i}{s} e_{i}{s} is not the identity")
                down = crystal.f(i, x)
                if down is not None and crystal.e(i, down) != x:
                    t.fail(f"node {idx}: e_{i}{s} f_{i}{s} is not the identity")

    alphas = {"e0": ALPHA0, "e1": ALPHA1, "e0*": ALPHA0, "e1*": ALPHA1}
    for src, label, dst in g.edges:
        t.hit("edge weight checks")
        if g.nodes[dst].weight != g.nodes[src].weight + alphas[label]:
            t.fail(f"edge {src}->{dst} ({label}) does not add the simple root")

    for idx, b in enumerate(g.nodes):
        sides = ((b, ""), (crystal.star(b), "*"))
        for i in (0, 1):
            t.hit("string length checks")
            for x, s in sides:
                steps, y = 0, crystal.f(i, x)
                while y is not None:
                    steps, y = steps + 1, crystal.f(i, y)
                if steps != crystal.phi(i, x):
                    t.fail(
                        f"node {idx}: phi_{i}{s} is {crystal.phi(i, x)} but "
                        f"f_{i}{s} applied {steps} times"
                    )
            # Local structure of the (e_i, e_i*) interaction.  Each
            # component of the graph under these two operators is a
            # triangle (e_i steps one way, e_i* the other) that merges
            # into a single infinite column ("tube") on which both
            # operators coincide.  The merge level of a node is
            # m = eps_i + phi_i* (= eps_i* + phi_i, checked):
            #   m < 0   never: Kashiwara-Saito condition (iii), checked;
            #   m == 0  inside the tube, so e_i == e_i*;
            #   m == 1  last triangle row, the two raising orders land
            #           in different tube columns, so they do NOT
            #           commute even when both phi statistics are
            #           positive;
            #   m >= 2  strictly inside the triangle, they commute.
            merge = crystal.eps(i, b) + crystal.phi_star(i, b)
            if merge != crystal.eps_star(i, b) + crystal.phi(i, b):
                t.fail(f"node {idx}: merge level is side-dependent for i={i}")
            if merge < 0:
                t.fail(f"node {idx}: merge level {merge} is negative for i={i}")
            up = crystal.e(i, b)
            up_star = crystal.e_star(i, b)
            if merge <= 0:
                t.hit("tube nodes")
                if up != up_star:
                    t.fail(f"node {idx}: e_{i} and e_{i}* differ in the tube")
            else:
                commute = crystal.e(i, up_star) == crystal.e_star(i, up)
                if merge == 1:
                    t.hit("merge row nodes")
                    if up == up_star or commute:
                        t.fail(
                            f"node {idx}: merge row should break "
                            f"e_{i}/e_{i}* commutation"
                        )
                else:
                    t.hit("commutation checks")
                    if up == up_star or not commute:
                        t.fail(f"node {idx}: e_{i} and e_{i}* fail to commute")
    return t.done("crystal-axioms", kind, f"depth {depth}")
