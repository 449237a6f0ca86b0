"""Acceptance gate: the eight release criteria, one test and one
printed verdict line each.

Shared sweeps (the full uniqueness boxes and the two deep graphs) are
computed once at module scope and reused across criteria.  Scales:
weight boxes (6,6) for sl2hat and (4,8) for a2(2); graph depths 8 and
6; reflection-formula depth 6; decoration family up to size 6.
"""

import time
from contextlib import contextmanager
from functools import lru_cache

from affmv.crystal import crystal_graph, e, e_star, eps, f, lowest, saito, saito_star
from affmv.lusztig import datum, partitions, trapezoid_datum
from affmv.roots import Algebra, RootVector
from affmv.transition import (
    clear_cache,
    complete_from_left,
    complete_from_right,
    transition_l_to_r,
)
from affmv.verify import (
    check_axioms,
    check_crystal_axioms,
    check_saito_formulas,
    check_star_negation,
    check_uniqueness,
)
from conftest import KINDS

SWEEP_BOX = {
    Algebra.SL2_HAT: RootVector(6, 6),
    Algebra.A2_TWISTED: RootVector(4, 8),
}
SWEEP_DATA = {Algebra.SL2_HAT: 845, Algebra.A2_TWISTED: 556}
GRAPH_DEPTH = {Algebra.SL2_HAT: 8, Algebra.A2_TWISTED: 6}
FORMULA_DEPTH = 6
FAMILY_SIZE = 6


@lru_cache(maxsize=None)
def sweep(kind):
    return check_uniqueness(kind, SWEEP_BOX[kind])


@lru_cache(maxsize=None)
def graph(kind):
    return crystal_graph(kind, GRAPH_DEPTH[kind])


@contextmanager
def criterion(capsys, number, name):
    verdict = "FAIL"
    try:
        yield
        verdict = "PASS"
    finally:
        with capsys.disabled():
            print(f"\nACCEPTANCE {number} {name}: {verdict}")


def test_1_reference_round_trip(capsys, reference_left, reference_right):
    with criterion(capsys, 1, "reference round trip"):
        clear_cache()
        start = time.perf_counter()
        assert transition_l_to_r(reference_right) == reference_left
        clear_cache()  # a solve caches both ways: search this side too
        assert transition_l_to_r(reference_left) == reference_right
        elapsed = time.perf_counter() - start
        P = complete_from_right(reference_right)
        assert P.weight == RootVector(20, 22)
        assert elapsed < 1.0, f"round trip took {elapsed:.3f}s"


def test_2_unique_completion_sweep(capsys):
    with criterion(capsys, 2, "unique completion on the full boxes"):
        for kind in KINDS:
            rep = sweep(kind)
            assert rep.count("data checked") == SWEEP_DATA[kind]
            assert rep.count("completion count failures") == 0
            assert not [m for m in rep.failures if "completion" in m]


def test_3_solver_equivalence(capsys):
    with criterion(capsys, 3, "pruned search equals generate-and-test"):
        for kind in KINDS:
            rep = sweep(kind)
            assert rep.count("dfs mismatches") == 0
            assert rep.count("dfs completions") == 2 * rep.count("data checked")
            assert not [m for m in rep.failures if "dfs" in m]


def test_4_polytope_axiom_suite(capsys):
    with criterion(capsys, 4, "polytope operator axioms"):
        for kind in KINDS:
            rep = check_axioms(kind, GRAPH_DEPTH[kind], graph=graph(kind))
            assert rep.passed, rep.failures[:3]
            nodes = len(graph(kind).nodes)
            assert rep.count("(W) weights") == nodes
            for label in ("(C1)", "(C2)", "(C3)", "(C4)"):
                assert rep.count(f"{label} edges") > 0
            for label in ("(S1)", "(S2)", "(S3)", "(S4)"):
                assert rep.count(f"{label} nodes") > 0
            assert rep.count("(I) nodes") >= 1


def test_5_star_negates_the_vertices(capsys):
    with criterion(capsys, 5, "star negation and side swapping"):
        for kind in KINDS:
            rep = check_star_negation(kind, GRAPH_DEPTH[kind], graph=graph(kind))
            assert rep.passed, rep.failures[:3]
            assert rep.count("nodes checked") == len(graph(kind).nodes)
            assert sweep(kind).count("swap symmetry failures") == 0


def test_6_reflection_formulas(capsys):
    with criterion(capsys, 6, "reflection operator formulas"):
        for kind in KINDS:
            rep = check_saito_formulas(kind, FORMULA_DEPTH)
            assert rep.passed, rep.failures[:3]
            assert rep.count("formula evaluations") == 3 * (
                rep.count("reflection nodes")
                + rep.count("starred reflection nodes")
            )
            assert rep.count("opposite pairing mismatches") > 0

            # The documented counterexample to the opposite pairing: at
            # b with phi_0 = phi_0* = 0 the swapped formula computes the
            # starred reflection, which differs from the plain one.
            b = e(1, lowest(kind))
            opposite = b
            for _ in range(max(0, eps(0, b))):
                opposite = e_star(0, opposite)
            while (down := f(0, opposite)) is not None:
                opposite = down
            assert opposite != saito(0, b)
            assert opposite == saito_star(0, b)


def test_7_crystal_axioms(capsys):
    with criterion(capsys, 7, "crystal axioms on the deep graphs"):
        for kind in KINDS:
            rep = check_crystal_axioms(kind, GRAPH_DEPTH[kind], graph=graph(kind))
            assert rep.passed, rep.failures[:3]
            assert rep.count("lowest candidates") == 1
            assert rep.count("inverse checks") == 2 * len(graph(kind).nodes)
            assert rep.count("string length checks") == 2 * len(graph(kind).nodes)


def test_8_decoration_family(capsys):
    with criterion(capsys, 8, "imaginary data complete to trapezoids"):
        for kind in KINDS:
            checked = 0
            for size in range(FAMILY_SIZE + 1):
                for lam in partitions(size):
                    P = complete_from_left(datum(kind, delta_parts=lam))
                    assert P.right == trapezoid_datum(kind, lam), lam
                    checked += 1
            assert checked == 30
