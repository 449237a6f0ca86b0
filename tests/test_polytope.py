"""Polytope layer: prefix paths, vertex fans, and the MV verdict.

The verdict tests pin down one minimal failing pair per condition and
check that truncating the prefix scan at the support bound gives the
same verdict as scanning ten indices deeper.
"""

import hashlib
import random
from itertools import product

import pytest

from affmv.lusztig import datum, enumerate_data
from affmv.polytope import (
    MAX_PATH_INDEX,
    DecoratedPolytope,
    MVViolation,
    PathTooLong,
    is_mv,
    mv_violations,
    part_size_ratio,
    path_prefixes,
    truncation_index,
    vertices,
    weight_truncation_index,
)
from affmv.roots import FAMILIES, HIGH, LOW, Algebra, RootVector, beta, delta
from conftest import KINDS, SMALL_BOX


def box_weights(kind):
    box = SMALL_BOX[kind]
    for a in range(box.a + 1):
        for b in range(box.b + 1):
            yield RootVector(a, b)


def equal_weight_pairs(kind):
    for w in box_weights(kind):
        data = enumerate_data(kind, w)
        yield from product(data, repeat=2)


class TestPrefixes:
    @pytest.mark.parametrize("kind", KINDS)
    def test_prefix_sums_match_direct_sums(self, kind):
        d = datum(kind, {(LOW, 1): 2, (LOW, 3): 1, (HIGH, 2): 4}, (1,))
        pre = path_prefixes(d, 6)
        for k in range(7):
            low = sum(
                (d.mult(LOW, j) * beta(kind, LOW, j) for j in range(1, k + 1)),
                RootVector(0, 0),
            )
            high = sum(
                (d.mult(HIGH, j) * beta(kind, HIGH, j) for j in range(1, k + 1)),
                RootVector(0, 0),
            )
            # Each half in its own coordinates: (b, a) low, (a, b) high.
            assert (pre.low.x[k], pre.low.y[k]) == (low.b, low.a)
            assert (pre.high.x[k], pre.high.y[k]) == (high.a, high.b)

    @pytest.mark.parametrize("kind", KINDS)
    def test_prefixes_stabilize_past_the_support(self, kind):
        d = datum(kind, {(LOW, 2): 1, (HIGH, 1): 3})
        pre = path_prefixes(d, 9)
        for arr in (*pre.low, *pre.high):
            assert len(set(arr[2:])) == 1

    @pytest.mark.parametrize("kind", KINDS)
    def test_size_limit_admits_index_one_million(self, kind):
        # Checking and completing a one-entry datum with k = 10^6, and
        # completing delta = [10^6], all stay within the limit.
        for family in FAMILIES:
            d = datum(kind, {(family, 10**6): 1})
            assert truncation_index(DecoratedPolytope(d, d)) <= MAX_PATH_INDEX
            assert weight_truncation_index(kind, d.weight) <= MAX_PATH_INDEX
        w = 10**6 * delta(kind)
        assert weight_truncation_index(kind, w) <= MAX_PATH_INDEX
        message = f"past the supported limit {MAX_PATH_INDEX}$"
        with pytest.raises(PathTooLong, match=message):
            path_prefixes(datum(kind), MAX_PATH_INDEX + 1)


class TestStructure:
    def test_pair_weights_must_agree(self):
        left = datum(Algebra.SL2_HAT, {(LOW, 1): 1})
        right = datum(Algebra.SL2_HAT, {(HIGH, 1): 1})
        with pytest.raises(ValueError):
            DecoratedPolytope(left, right)

    def test_pair_kinds_must_agree(self):
        with pytest.raises(ValueError):
            DecoratedPolytope(
                datum(Algebra.SL2_HAT), datum(Algebra.A2_TWISTED)
            )

    def test_truncation_index(self, reference_pair):
        assert truncation_index(reference_pair) == 5
        zero = datum(Algebra.SL2_HAT)
        assert truncation_index(DecoratedPolytope(zero, zero)) == 2


class TestVertices:
    def test_reference_fan_is_frozen(self, reference_pair):
        fan = vertices(reference_pair)

        def raw(path):
            return [(v.a, v.b) for v in path]

        assert raw(fan.mu_r) == [(0, 0), (0, 2), (1, 4), (3, 7), (3, 7), (3, 7)]
        assert raw(fan.mu_r_top) == [
            (20, 22), (19, 22), (19, 22), (16, 20), (16, 20), (16, 20),
        ]
        assert raw(fan.mu_l) == [(0, 0), (1, 0), (5, 2), (8, 4), (12, 7), (12, 7)]
        assert raw(fan.mu_l_top) == [
            (20, 22), (20, 17), (19, 15), (19, 15), (16, 11), (16, 11),
        ]
        assert (fan.mu_r[-1].a, fan.mu_r[-1].b) == (3, 7)
        assert (fan.mu_r_top[-1].a, fan.mu_r_top[-1].b) == (16, 20)
        assert (fan.mu_l[-1].a, fan.mu_l[-1].b) == (12, 7)
        assert (fan.mu_l_top[-1].a, fan.mu_l_top[-1].b) == (16, 11)

    @pytest.mark.parametrize("kind", KINDS)
    def test_paths_start_at_the_corners(self, kind):
        for L, R in equal_weight_pairs(kind):
            P = DecoratedPolytope(L, R)
            fan = vertices(P)
            assert fan.mu_r[0] == fan.mu_l[0] == RootVector(0, 0)
            assert fan.mu_r_top[0] == fan.mu_l_top[0] == P.weight

    def test_vertical_edges_carry_the_partitions(self, reference_pair):
        fan = vertices(reference_pair)
        # Right edge: 13 delta steps for the size-13 partition; left: 4.
        assert fan.mu_r_top[-1] - fan.mu_r[-1] == RootVector(13, 13)
        assert fan.mu_l_top[-1] - fan.mu_l[-1] == RootVector(4, 4)


class TestPartSizeRatio:
    def test_untwisted_gap(self):
        assert part_size_ratio(Algebra.SL2_HAT, RootVector(-9, 0)) == (9, 1)
        assert part_size_ratio(Algebra.SL2_HAT, RootVector(2, 3)) == (1, 1)

    def test_twisted_gap_is_halved(self):
        assert part_size_ratio(Algebra.A2_TWISTED, RootVector(-1, 0)) == (2, 2)
        assert part_size_ratio(Algebra.A2_TWISTED, RootVector(1, 3)) == (1, 2)


class TestVerdicts:
    def test_reference_pair_is_mv(self, reference_pair):
        verdict = is_mv(reference_pair)
        assert verdict.ok and bool(verdict)
        assert verdict.violations == ()

    def test_reference_gap_accounts_for_the_partitions(self, reference_pair):
        fan = vertices(reference_pair)
        num, den = part_size_ratio(Algebra.SL2_HAT, fan.mu_r[-1] - fan.mu_l[-1])
        assert (num, den) == (9, 1)
        left, right = reference_pair.left.delta, reference_pair.right.delta
        assert sum(right) - sum(left) == 9
        assert right == (9,) + left

    def test_diagonal_mismatch_is_flagged_both_ways(self):
        d = datum(Algebra.SL2_HAT, {(LOW, 1): 1, (HIGH, 1): 1})
        verdict = is_mv(DecoratedPolytope(d, d))
        assert verdict.violations == (
            MVViolation(1, 2, "max is -1, expected 0"),
            MVViolation(2, 2, "min is 1, expected 0"),
        )
        assert not verdict.ok and not verdict

    def test_partition_step_mismatch_is_flagged(self):
        left = datum(Algebra.SL2_HAT, {(LOW, 1): 1}, (1,))
        right = datum(Algebra.SL2_HAT, {(LOW, 1): 2, (HIGH, 1): 1})
        verdict = is_mv(DecoratedPolytope(left, right))
        assert (
            MVViolation(3, None, "larger partition has no part of size 2 to drop")
            in verdict.violations
        )

    @pytest.mark.parametrize("kind", KINDS)
    def test_parallel_edges_cap_the_parts_at_zero(self, kind):
        d = datum(kind, delta_parts=(1,))
        verdict = is_mv(DecoratedPolytope(d, d))
        conditions = [v.condition for v in verdict.violations]
        assert conditions == [4, 4]

    def test_fractional_gap_is_flagged(self):
        left = datum(Algebra.A2_TWISTED, delta_parts=(1,))
        right = datum(Algebra.A2_TWISTED, {(LOW, 1): 1, (HIGH, 2): 1})
        verdict = is_mv(DecoratedPolytope(left, right))
        notes = [v.note for v in verdict.violations if v.condition == 3]
        assert notes == ["prescribed gap 1/2 is not a positive integer"]

    @pytest.mark.parametrize("kind", KINDS)
    def test_swapping_sides_preserves_the_verdict(self, kind):
        for L, R in equal_weight_pairs(kind):
            assert bool(is_mv(DecoratedPolytope(L, R))) == bool(
                is_mv(DecoratedPolytope(R, L))
            )

    @pytest.mark.parametrize("kind", KINDS)
    def test_deeper_scans_agree_with_the_support_bound(self, kind):
        """The verdict is stable: all conditions freeze past the support."""
        for L, R in equal_weight_pairs(kind):
            P = DecoratedPolytope(L, R)
            K = truncation_index(P)
            shallow = not is_mv(P).violations
            deep = not mv_violations(
                kind,
                path_prefixes(L, K + 10),
                path_prefixes(R, K + 10),
                L.delta,
                R.delta,
            )
            assert shallow == deep

    @pytest.mark.parametrize("kind", KINDS)
    def test_first_only_stops_at_one_violation(self, kind):
        d = datum(kind, delta_parts=(1,))
        P = DecoratedPolytope(d, d)
        K = truncation_index(P)
        found = mv_violations(
            kind,
            path_prefixes(d, K),
            path_prefixes(d, K),
            d.delta,
            d.delta,
            first_only=True,
        )
        assert len(found) == 1


# sha256 of the full violation lists of `violation_corpus()`.
VIOLATION_DIGEST = "f9d113c19b9652bbca73f42bf7960fa33a6dba7dccfc22c169a7c092cbbcd189"


def violation_corpus():
    """600 seeded equal-weight pairs of both algebras, MV or not."""
    rng = random.Random(12092205)
    boxes = {Algebra.SL2_HAT: RootVector(6, 6), Algebra.A2_TWISTED: RootVector(4, 8)}
    for kind, box in boxes.items():
        weights = [RootVector(a, b) for a in range(box.a + 1) for b in range(box.b + 1)]
        for _ in range(300):
            data = enumerate_data(kind, rng.choice(weights))
            if data:
                yield DecoratedPolytope(rng.choice(data), rng.choice(data))


class TestFullVerdictIsPinned:
    def test_violation_lists_match_the_digest(self):
        """Conditions, indices, notes and their order, on 600 pairs."""
        rows = [
            tuple(tuple(v) for v in is_mv(P).violations) for P in violation_corpus()
        ]
        assert len(rows) == 600
        # The corpus mixes MV pairs with pairs breaking several conditions.
        assert sum(not r for r in rows) > 100
        assert {v[0] for r in rows for v in r} == {1, 2, 3, 4}
        assert hashlib.sha256(repr(rows).encode()).hexdigest() == VIOLATION_DIGEST
