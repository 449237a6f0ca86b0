"""Root lattice layer: exact vectors, ladders, reflections, pairings.

The positive real roots are re-derived here from the norm criterion
alone (independent of the ladder formulas) and compared set-for-set
against the ladder enumeration.
"""

import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from affmv.lusztig import enumerate_data
from affmv.roots import (
    ALPHA0,
    ALPHA1,
    FAMILIES,
    HIGH,
    LOW,
    ZERO,
    Algebra,
    RootVector,
    _run_tops,
    beta,
    cartan_pair,
    delta,
    ladder_root,
    lean,
    length_ratio,
    max_real_index,
    root_label,
    simple_reflection,
    symmetrized_form,
)
from conftest import KINDS, SMALL_BOX
from real_roots import delta_multiple, ladder_table, positive_real_roots

BOX = {
    Algebra.SL2_HAT: RootVector(8, 8),
    Algebra.A2_TWISTED: RootVector(6, 12),
}


def is_positive_real(kind: Algebra, v: RootVector) -> bool:
    """Norm-based membership test, independent of the ladder formulas.

    A nonzero nonnegative vector is a real root when its squared length
    equals that of a simple root; doubled short roots are excluded for
    the twisted algebra because halving them lands back on a root.
    """
    if v.a < 0 or v.b < 0 or not v:
        return False
    if kind is Algebra.SL2_HAT:
        return abs(v.a - v.b) == 1
    gap = 2 * v.a - v.b
    if abs(gap) == 1:
        return True
    return abs(gap) == 2 and v.a % 2 == 1


def reference_rung(kind: Algebra, family: str, k: int) -> RootVector:
    """The ladders as first written, one closed form per family and algebra."""
    if kind is Algebra.SL2_HAT:
        if family == LOW:
            return RootVector(k - 1, k)  # alpha1 + (k-1) delta
        return RootVector(k, k - 1)  # alpha0 + (k-1) delta
    if family == LOW:
        if k % 2:
            j = (k - 1) // 2
            return RootVector(j, 2 * j + 1)  # alpha1 + j delta
        j = k // 2
        return RootVector(2 * j - 1, 4 * j)  # 2 alpha1 + (2j-1) delta
    if k % 2:
        j = (k - 1) // 2
        return RootVector(2 * j + 1, 4 * j)  # alpha0 + 2j delta
    j = k // 2
    return RootVector(j, 2 * j - 1)  # alpha0 + alpha1 + (j-1) delta


def box_vectors(kind: Algebra):
    box = BOX[kind]
    for a in range(box.a + 1):
        for b in range(box.b + 1):
            yield RootVector(a, b)


class TestVectors:
    def test_arithmetic(self):
        v = RootVector(2, 3)
        assert v + ALPHA0 == RootVector(3, 3)
        assert v - ALPHA1 == RootVector(2, 2)
        assert -v == RootVector(-2, -3)
        assert 3 * v == v * 3 == RootVector(6, 9)
        # Vector arithmetic, never tuple concatenation or repetition.
        assert all(type(x) is RootVector for x in (v + v, v - v, -v, 3 * v, v * 3))
        assert not ZERO and bool(v)
        assert str(v) == "(2,3)"

    def test_ordering_and_hash(self):
        assert RootVector(1, 2) < RootVector(2, 0)
        assert len({RootVector(1, 2), RootVector(1, 2)}) == 1


class TestDelta:
    @pytest.mark.parametrize("kind", KINDS)
    def test_delta_is_null(self, kind):
        dv = delta(kind)
        assert symmetrized_form(kind, dv, dv) == 0
        for i in (0, 1):
            assert cartan_pair(kind, i, dv) == 0
            assert simple_reflection(kind, i, dv) == dv

    def test_delta_values(self):
        assert delta(Algebra.SL2_HAT) == RootVector(1, 1)
        assert delta(Algebra.A2_TWISTED) == RootVector(1, 2)

    @pytest.mark.parametrize("kind", KINDS)
    def test_delta_multiple(self, kind):
        dv = delta(kind)
        for n in range(5):
            assert delta_multiple(kind, n * dv) == n
        assert delta_multiple(kind, ALPHA0) is None
        assert delta_multiple(kind, dv + ALPHA1) is None
        # The lean vanishes exactly on the multiples of delta.
        for a in range(6):
            for b in range(12):
                multiple = delta_multiple(kind, RootVector(a, b)) is not None
                assert (lean(kind, a, b) == 0) == multiple


class TestPairings:
    @pytest.mark.parametrize("kind", KINDS)
    def test_cartan_pair_from_gram(self, kind):
        """<alpha_i^v, v> agrees with 2(alpha_i, v)/(alpha_i, alpha_i)."""
        for v in box_vectors(kind):
            for i, alpha in ((0, ALPHA0), (1, ALPHA1)):
                norm = symmetrized_form(kind, alpha, alpha)
                lhs = cartan_pair(kind, i, v) * norm
                assert lhs == 2 * symmetrized_form(kind, alpha, v)

    @pytest.mark.parametrize("kind", KINDS)
    def test_cartan_matrix_rows(self, kind):
        rows = [
            [cartan_pair(kind, i, alpha) for alpha in (ALPHA0, ALPHA1)]
            for i in (0, 1)
        ]
        if kind is Algebra.SL2_HAT:
            assert rows == [[2, -2], [-2, 2]]
        else:
            assert rows == [[2, -1], [-4, 2]]

    @pytest.mark.parametrize("kind", KINDS)
    def test_length_ratio(self, kind):
        ratio = length_ratio(kind)
        assert ratio == (1 if kind is Algebra.SL2_HAT else 2)
        a0 = symmetrized_form(kind, ALPHA0, ALPHA0)
        a1 = symmetrized_form(kind, ALPHA1, ALPHA1)
        assert a0 == ratio * ratio * a1


class TestReflections:
    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("i", (0, 1))
    def test_involution_and_simple_image(self, kind, i):
        alpha = ALPHA0 if i == 0 else ALPHA1
        assert simple_reflection(kind, i, alpha) == -alpha
        for v in box_vectors(kind):
            assert simple_reflection(kind, i, simple_reflection(kind, i, v)) == v

    @given(
        a=st.integers(-30, 30),
        b=st.integers(-30, 30),
        c=st.integers(-30, 30),
        d=st.integers(-30, 30),
    )
    def test_reflection_is_an_isometry(self, a, b, c, d):
        v, w = RootVector(a, b), RootVector(c, d)
        for kind in KINDS:
            for i in (0, 1):
                rv = simple_reflection(kind, i, v)
                rw = simple_reflection(kind, i, w)
                assert symmetrized_form(kind, rv, rw) == symmetrized_form(
                    kind, v, w
                )


class TestLadders:
    @pytest.mark.parametrize("kind", KINDS)
    def test_ladders_enumerate_exactly_the_real_roots(self, kind):
        box = BOX[kind]
        expected = {v for v in box_vectors(kind) if is_positive_real(kind, v)}
        listed = positive_real_roots(kind, box)
        roots = [entry.root for entry in listed]
        assert len(roots) == len(set(roots)), "duplicate ladder entries"
        assert set(roots) == expected

    @pytest.mark.parametrize("kind", KINDS)
    def test_family_split_by_side(self, kind):
        """Low-family roots sit on the alpha1 side of the delta ray."""
        for entry in positive_real_roots(kind, BOX[kind]):
            gap = (
                entry.root.a - entry.root.b
                if kind is Algebra.SL2_HAT
                else 2 * entry.root.a - entry.root.b
            )
            assert (gap < 0) == (entry.family == LOW)
            assert lean(kind, entry.root.a, entry.root.b) == -gap

    @pytest.mark.parametrize("kind", KINDS)
    def test_labels_invert_beta(self, kind):
        for entry in positive_real_roots(kind, BOX[kind]):
            assert beta(kind, entry.family, entry.k) == entry.root
            assert root_label(kind, entry.root) == (entry.family, entry.k)

    @pytest.mark.parametrize("kind", KINDS)
    def test_first_rungs(self, kind):
        assert beta(kind, LOW, 1) == ALPHA1
        assert beta(kind, HIGH, 1) == ALPHA0

    @pytest.mark.parametrize("kind", KINDS)
    def test_non_roots_have_no_label(self, kind):
        assert root_label(kind, delta(kind)) is None
        assert root_label(kind, ZERO) is None
        for v in box_vectors(kind):
            if not is_positive_real(kind, v):
                assert root_label(kind, v) is None

    @pytest.mark.parametrize("kind", KINDS)
    def test_rungs_indexed_from_one(self, kind):
        """Indices are integers >= 1, of type `int` itself as in `lusztig`."""
        for family in FAMILIES:
            with pytest.raises(ValueError, match=r"^ladder index must be >= 1, got 0$"):
                beta(kind, family, 0)
            for k in (2.0, True, "3"):
                msg = rf"^ladder index must be an integer, got {re.escape(repr(k))}$"
                with pytest.raises(ValueError, match=msg):
                    beta(kind, family, k)

    @pytest.mark.parametrize("kind", KINDS)
    def test_unknown_family_is_checked_before_the_index(self, kind):
        for k in (0, 1):
            with pytest.raises(ValueError, match=r"^unknown family 'middle'$"):
                beta(kind, "middle", k)
        with pytest.raises(ValueError, match=r"^unknown family 'middle'$"):
            ladder_table(kind, "middle", 3)

    @pytest.mark.parametrize("kind", KINDS)
    def test_max_real_index_covers_the_box(self, kind):
        box = BOX[kind]
        cap = max_real_index(kind, box)
        ks = [entry.k for entry in positive_real_roots(kind, box)]
        assert max(ks) <= cap
        # Every rung at a larger index leaves the box in some coordinate.
        for family in FAMILIES:
            v = beta(kind, family, cap + 1)
            assert v.a > box.a or v.b > box.b

    @pytest.mark.parametrize("kind", KINDS)
    def test_max_real_index_matches_the_scan(self, kind):
        """The closed form against a scan of every index up to a safe cap.

        Every box up to (60, 120), empty and negative ones included.
        """
        rungs = [
            (k, beta(kind, family, k)) for k in range(1, 243) for family in FAMILIES
        ]

        def scan(box):
            cap = 2 * max(box.a, box.b, 0) + 2
            best = 0
            for k, r in rungs:
                if k <= cap and r.a <= box.a and r.b <= box.b:
                    best = k
            return best

        for a in range(-2, 61):
            for b in range(-2, 121):
                box = RootVector(a, b)
                assert max_real_index(kind, box) == scan(box), box

    @pytest.mark.parametrize("kind", KINDS)
    def test_consecutive_rungs_of_the_two_ladders_share_a_coordinate(self, kind):
        """The rung identity the transition's forced chain reads: low root k
        and high root k+1 have one b, high root k and low root k+1 one a."""
        for k in range(1, 10**5 + 1):
            assert ladder_root(kind, LOW, k)[1] == ladder_root(kind, HIGH, k + 1)[1], k
            assert ladder_root(kind, HIGH, k)[0] == ladder_root(kind, LOW, k + 1)[0], k

    @pytest.mark.parametrize("kind", KINDS)
    def test_run_tops_decide_which_roots_fit(self, kind):
        """k fits under a box exactly when it is at most its run's top.

        Every box up to (20, 40), empty and negative ones included; no
        root past index 41 fits in any of them.
        """
        for family in FAMILIES:
            rungs = [(k, beta(kind, family, k)) for k in range(1, 46)]
            for a in range(-2, 21):
                for b in range(-2, 41):
                    tops = _run_tops(kind, family, a, b)
                    for k, r in rungs:
                        fits = r.a <= a and r.b <= b
                        assert fits == (k <= tops[k % len(tops)]), (family, a, b, k)

    @pytest.mark.parametrize("kind", KINDS)
    def test_ladder_table_lists_beta(self, kind):
        for family in FAMILIES:
            table = ladder_table(kind, family, 40)
            assert table[0] == (0, 0) and len(table) == 41
            for k in range(1, 41):
                r = beta(kind, family, k)
                assert table[k] == (r.a, r.b)
        with pytest.raises(ValueError):
            ladder_table(kind, "middle", 3)

    @pytest.mark.parametrize("kind", KINDS)
    def test_ladder_root_beta_and_table_match_the_closed_forms(self, kind):
        for family in FAMILIES:
            table = ladder_table(kind, family, 300)
            assert table[0] == (0, 0) and len(table) == 301
            for k in range(1, 301):
                r = reference_rung(kind, family, k)
                assert ladder_root(kind, family, k) == (r.a, r.b) == table[k]
                assert beta(kind, family, k) == r

    @pytest.mark.parametrize("kind", KINDS)
    def test_consecutive_roots_form_a_basis_toward_delta(self, kind):
        """In a ladder's own coordinates, (a, b) on the high ladder and
        (b, a) on the low one, the root at k is a positive multiple of
        (k*dx, (k-1)*dy), where (dx, dy) is delta there, and consecutive
        roots have determinant 1, as the transition walk assumes."""
        for family in FAMILIES:

            def own(v):
                return (v[1], v[0]) if family == LOW else (v[0], v[1])

            dx, dy = own((delta(kind).a, delta(kind).b))
            for k in range(1, 301):
                sx, sy = own(ladder_root(kind, family, k))
                ax, ay = own(ladder_root(kind, family, k + 1))
                assert sx > 0 and sx * (k - 1) * dy == sy * k * dx
                assert sx * ay - sy * ax == 1

    @pytest.mark.parametrize("kind", KINDS)
    def test_weight_sums_the_ladder_roots(self, kind):
        box = SMALL_BOX[kind]
        for a in range(box.a + 1):
            for b in range(box.b + 1):
                for d in enumerate_data(kind, RootVector(a, b)):
                    total = sum(d.delta) * delta(kind)
                    for family, k, mult in d.real:
                        total = total + mult * beta(kind, family, k)
                    assert d.weight == total == RootVector(a, b)
