"""Transition layer: unique completion of one side of a polytope.

Both solvers are compared on exhaustive boxes; small partners are
frozen; completing twice inverts the map on every enumerated datum.
Hypothesis properties carry the involution and the side symmetry of the
MV verdict to random data past those boxes.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affmv.lusztig import datum, enumerate_data, trapezoid_datum, weight
from affmv.polytope import DecoratedPolytope, is_mv
from affmv.roots import FAMILIES, HIGH, LOW, Algebra, RootVector, beta, delta
from affmv.transition import (
    DFS,
    ORACLE,
    clear_cache,
    complete_from_left,
    complete_from_right,
    transition_l_to_r,
    transition_r_to_l,
)
from conftest import KINDS

TINY_BOX = {
    Algebra.SL2_HAT: RootVector(3, 3),
    Algebra.A2_TWISTED: RootVector(2, 4),
}


def tiny_data(kind):
    box = TINY_BOX[kind]
    for a in range(box.a + 1):
        for b in range(box.b + 1):
            yield from enumerate_data(kind, RootVector(a, b))


class TestReferencePair:
    @pytest.mark.parametrize("solver", (DFS, ORACLE))
    def test_round_trip(self, solver, reference_left, reference_right):
        clear_cache()
        assert transition_r_to_l(reference_right, solver=solver) == reference_left
        assert transition_l_to_r(reference_left, solver=solver) == reference_right

    def test_completions_are_mv(self, reference_right):
        P = complete_from_right(reference_right)
        assert P.right == reference_right
        assert is_mv(P).ok


class TestFrozenPartners:
    def test_untwisted_partners(self):
        sl2 = Algebra.SL2_HAT
        assert transition_r_to_l(
            datum(sl2, {(HIGH, 1): 2, (LOW, 1): 1})
        ) == datum(sl2, {(HIGH, 2): 1})
        assert transition_r_to_l(datum(sl2, delta_parts=(2, 1))) == datum(
            sl2, {(LOW, 1): 2, (HIGH, 1): 2}, (1,)
        )
        fixed = datum(sl2, {(LOW, 1): 3})
        assert transition_l_to_r(fixed) == fixed

    def test_twisted_partners(self):
        a22 = Algebra.A2_TWISTED
        assert transition_r_to_l(
            datum(a22, {(HIGH, 1): 2, (LOW, 1): 1})
        ) == datum(a22, {(HIGH, 1): 1, (HIGH, 2): 1})
        assert transition_r_to_l(datum(a22, {(LOW, 2): 1})) == datum(
            a22, {(LOW, 1): 4, (HIGH, 1): 1}
        )
        assert transition_l_to_r(
            datum(a22, {(LOW, 2): 1, (HIGH, 2): 1})
        ) == datum(a22, {(LOW, 1): 2, (LOW, 3): 1, (HIGH, 1): 1})

    @pytest.mark.parametrize("kind", KINDS)
    def test_imaginary_right_data_complete_to_trapezoids(self, kind):
        lam = (2, 1)
        P = complete_from_right(datum(kind, delta_parts=lam))
        assert P.left == trapezoid_datum(kind, lam)


class TestSolverAgreement:
    @pytest.mark.parametrize("kind", KINDS)
    def test_dfs_matches_the_oracle_everywhere(self, kind):
        for d in tiny_data(kind):
            assert transition_r_to_l(d, solver=DFS) == transition_r_to_l(
                d, solver=ORACLE
            )
            assert transition_l_to_r(d, solver=DFS) == transition_l_to_r(
                d, solver=ORACLE
            )

    @pytest.mark.parametrize("kind", KINDS)
    def test_completing_twice_is_the_identity(self, kind):
        for d in tiny_data(kind):
            assert transition_l_to_r(transition_r_to_l(d)) == d
            assert transition_r_to_l(transition_l_to_r(d)) == d

    @pytest.mark.parametrize("kind", KINDS)
    def test_transition_preserves_the_weight_not_the_datum(self, kind):
        moved = 0
        for d in tiny_data(kind):
            partner = transition_r_to_l(d)
            assert weight(partner) == weight(d)
            moved += partner != d
        assert moved > 0


class TestPlumbing:
    def test_unknown_solver_is_rejected(self):
        with pytest.raises(ValueError):
            transition_r_to_l(datum(Algebra.SL2_HAT), solver="guess")

    def test_cache_is_stable_across_clears(self, reference_right):
        first = transition_r_to_l(reference_right)
        again = transition_r_to_l(reference_right)
        clear_cache()
        fresh = transition_r_to_l(reference_right)
        assert first == again == fresh

    def test_zero_datum_completes_to_itself(self):
        for kind in KINDS:
            zero = datum(kind)
            P = complete_from_left(zero)
            assert P.left == P.right == zero


def _height(v):
    return v.a + v.b


@st.composite
def bounded_data(draw, kind, max_height=60):
    """A random datum of height at most max_height.

    Real entries and parts are drawn freely and kept while they fit, so
    shrinking drops them one by one.
    """
    real = {}
    height = 0
    entries = draw(
        st.lists(
            st.tuples(st.sampled_from(FAMILIES), st.integers(1, 6), st.integers(1, 5)),
            max_size=6,
        )
    )
    for family, k, mult in entries:
        cost = mult * _height(beta(kind, family, k))
        if height + cost <= max_height:
            real[(family, k)] = real.get((family, k), 0) + mult
            height += cost
    parts = []
    for part in draw(st.lists(st.integers(1, 8), max_size=4)):
        cost = part * _height(delta(kind))
        if height + cost <= max_height:
            parts.append(part)
            height += cost
    return datum(kind, real, parts)


def padded(d, w):
    """d with alpha0 (high 1) and alpha1 (low 1) steps added up to weight w."""
    gap = w - weight(d)
    d = d.with_mult(HIGH, 1, d.mult(HIGH, 1) + gap.a)
    return d.with_mult(LOW, 1, d.mult(LOW, 1) + gap.b)


class TestInvolutionProperties:
    """T, the one transition map, on random data past the sweep boxes."""

    @pytest.mark.parametrize("kind", KINDS)
    @settings(deadline=None, max_examples=60)
    @given(st.data())
    def test_T_is_a_weight_preserving_involution(self, kind, data):
        d = data.draw(bounded_data(kind))
        partner = transition_l_to_r(d)
        assert transition_l_to_r(partner) == d
        assert weight(partner) == weight(d)
        assert is_mv(DecoratedPolytope(d, partner)).ok
        assert is_mv(DecoratedPolytope(partner, d)).ok

    @pytest.mark.parametrize("kind", KINDS)
    @settings(deadline=None, max_examples=200)
    @given(st.data())
    def test_mv_verdict_is_symmetric_in_the_sides(self, kind, data):
        left = data.draw(bounded_data(kind))
        right = data.draw(bounded_data(kind))
        wl, wr = weight(left), weight(right)
        w = RootVector(max(wl.a, wr.a), max(wl.b, wr.b))
        left, right = padded(left, w), padded(right, w)
        assert is_mv(DecoratedPolytope(left, right)).ok == is_mv(
            DecoratedPolytope(right, left)
        ).ok
