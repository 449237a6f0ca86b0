"""Decorated pseudo-Weyl polytopes and the MV conditions.

A decorated polytope is a pair of Lusztig data of equal weight.  Each
datum spans one boundary path of the polygon: the low ladder climbs from
the bottom vertex, the high ladder descends from the top, and the
imaginary partition decorates the vertical edge between them.  The four
conditions checked here cut out exactly the pairs that glue into one
consistent polygon with matching decorations.

All checks are evaluated on integer prefix-sum arrays truncated at an
index just past the support of both data; beyond that index every prefix
is constant, so the truncated scan is equivalent to the infinite one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

from .lusztig import LusztigDatum, Partition, RealEntry, largest_part, remove_part
from .roots import HIGH, LOW, Algebra, RootVector, ladder_root, lean, length_ratio
from .roots import max_real_index

__all__ = [
    "DecoratedPolytope",
    "VertexFan",
    "PathPrefixes",
    "PathTooLong",
    "MAX_PATH_INDEX",
    "MVViolation",
    "MVVerdict",
    "truncation_index",
    "weight_truncation_index",
    "path_prefixes",
    "vertices",
    "mv_violations",
    "is_mv",
    "part_size_ratio",
]


@dataclass(frozen=True)
class DecoratedPolytope:
    """A pair of Lusztig data of equal weight, left and right.

    This is also the crystal element: the operators in `crystal` take
    and return decorated polytopes.
    """

    left: LusztigDatum
    right: LusztigDatum

    def __post_init__(self) -> None:
        if self.left.kind is not self.right.kind:
            raise ValueError("the two data must belong to the same algebra")
        w, right_w = self.left.weight, self.right.weight
        if w != right_w:
            raise ValueError(f"weight mismatch: left {w}, right {right_w}")

    @property
    def kind(self) -> Algebra:
        return self.left.kind

    @property
    def weight(self) -> RootVector:
        """The common weight, read from the left datum's memo."""
        return self.left.weight


def _pair(left: LusztigDatum, right: LusztigDatum) -> DecoratedPolytope:
    """A polytope the library derived, its two data of one kind and weight.

    No check runs: the caller guarantees what `__post_init__` would
    compare.  Inputs from outside go through `DecoratedPolytope(...)`.
    """
    P = object.__new__(DecoratedPolytope)
    object.__setattr__(P, "left", left)  # as in lusztig._derived
    object.__setattr__(P, "right", right)
    return P


class PathPrefixes(NamedTuple):
    """Coordinatewise prefix sums of the two ladders of one datum.

    Index k holds the sum of the first k ladder entries (with
    multiplicity); all four arrays have length upto+1 and are constant
    from the datum's support onward.
    """

    low_a: tuple[int, ...]
    low_b: tuple[int, ...]
    high_a: tuple[int, ...]
    high_b: tuple[int, ...]


# The largest truncation index `path_prefixes` builds arrays for.  Every
# one-entry datum with k <= 10^6 fits, and so does delta = [10^6], whose
# a2(2) weight reaches index 2,000,001; a larger index is refused before
# any memory is taken for it.
MAX_PATH_INDEX = 1 << 21


class PathTooLong(ValueError):
    """A datum or weight needs prefix arrays past `MAX_PATH_INDEX`."""


def _ladder_prefixes(
    kind: Algebra, real: Sequence[RealEntry], family: str, upto: int
) -> tuple[list[int], list[int]]:
    """Prefix sums (xs, ys) of one ladder's entries of `real`, indices 0..upto.

    Index k sums the entries at indices <= k; `real` is in canonical
    order, and entries past `upto` are left out.  Each entry extends the
    lists by one run, so the cost is in the entries, not in `upto`.
    """
    xs: list[int] = []
    ys: list[int] = []
    a = b = 0
    for entry_family, k, mult in real:
        if entry_family != family or k > upto:
            continue
        xs += [a] * (k - len(xs))
        ys += [b] * (k - len(ys))
        ra, rb = ladder_root(kind, family, k)
        a += mult * ra
        b += mult * rb
    xs += [a] * (upto + 1 - len(xs))
    ys += [b] * (upto + 1 - len(ys))
    return xs, ys


def path_prefixes(d: LusztigDatum, upto: int) -> PathPrefixes:
    if upto > MAX_PATH_INDEX:
        raise PathTooLong(
            f"ladder index {upto} is past the supported limit {MAX_PATH_INDEX}"
        )
    la, lb = _ladder_prefixes(d.kind, d.real, LOW, upto)
    ha, hb = _ladder_prefixes(d.kind, d.real, HIGH, upto)
    return PathPrefixes(tuple(la), tuple(lb), tuple(ha), tuple(hb))


def truncation_index(P: DecoratedPolytope) -> int:
    """One past the largest supported ladder index, at least 2."""
    return max(2, 1 + max(P.left.max_support(), P.right.max_support()))


def weight_truncation_index(kind: Algebra, w: RootVector) -> int:
    """A `truncation_index` for every pair of weight w: no later root fits."""
    return max(2, 1 + max_real_index(kind, w))


class VertexFan(NamedTuple):
    """The four vertex paths of a decorated polytope, truncated at K.

    mu_r climbs the right datum's low ladder from the bottom vertex,
    mu_r_top descends its high ladder from the top vertex; mu_l and
    mu_l_top do the same with the ladders of the left datum swapped.
    Each path is constant from its datum's support on, so its last entry
    is its stable endpoint; the two differences mu_r_top[-1] - mu_r[-1]
    and mu_l_top[-1] - mu_l[-1] are the vertical edges carrying the
    partitions.
    """

    mu_r: tuple[RootVector, ...]
    mu_r_top: tuple[RootVector, ...]
    mu_l: tuple[RootVector, ...]
    mu_l_top: tuple[RootVector, ...]


def vertices(P: DecoratedPolytope) -> VertexFan:
    K = truncation_index(P)
    w = P.weight
    L = path_prefixes(P.left, K)
    R = path_prefixes(P.right, K)
    mu_r = tuple(RootVector(R.low_a[k], R.low_b[k]) for k in range(K + 1))
    mu_r_top = tuple(w - RootVector(R.high_a[k], R.high_b[k]) for k in range(K + 1))
    mu_l = tuple(RootVector(L.high_a[k], L.high_b[k]) for k in range(K + 1))
    mu_l_top = tuple(w - RootVector(L.low_a[k], L.low_b[k]) for k in range(K + 1))
    return VertexFan(mu_r, mu_r_top, mu_l, mu_l_top)


class MVViolation(NamedTuple):
    condition: int
    k: int | None
    note: str


@dataclass(frozen=True)
class MVVerdict:
    ok: bool
    violations: tuple[MVViolation, ...]

    def __bool__(self) -> bool:
        return self.ok


def part_size_ratio(kind: Algebra, diff: RootVector) -> tuple[int, int]:
    """The prescribed vertical-edge gap as an exact fraction (num, den).

    For a difference vector (a, b) between the two lower path endpoints
    the decorations may differ by one part of this size.
    """
    return lean(kind, diff.a, diff.b), length_ratio(kind)


def _half_path_defect(
    Ux: Sequence[int],
    Uy: Sequence[int],
    Vx: Sequence[int],
    Vy: Sequence[int],
    start: int,
    stop: int,
) -> tuple[int, int] | None:
    """First k in start..stop-1 where one half-path pairing fails, with its value.

    The pairing holds at k when max(Uy[k] - Vy[k-1], Vx[k] - Ux[k-1])
    is 0.  Condition 1 of `mv_violations` is this pairing of the left
    high ladder (U) with the right low ladder (V) in (a, b) coordinates;
    condition 2 pairs the left low ladder with the right high ladder in
    (b, a) coordinates, and its min is minus this max.  So each condition
    reads one half of each datum: the left datum's high or low prefixes
    and the right datum's low or high ones.  Returns (k, max) or None.
    """
    for k in range(start, stop):
        m = Uy[k] - Vy[k - 1]
        x = Vx[k] - Ux[k - 1]
        if x > m:  # m = max(m, x), without the call on this hot path
            m = x
        if m:
            return k, m
    return None


def mv_violations(
    kind: Algebra,
    L: PathPrefixes,
    R: PathPrefixes,
    left_delta: Partition,
    right_delta: Partition,
    first_only: bool = False,
) -> list[MVViolation]:
    """All MV condition failures for a pair given as prefix arrays.

    Condition 1 ties each left high-ladder prefix to the neighbouring
    right low-ladder prefix (the two lower boundary paths trace one
    polygon), condition 2 does the same for the upper paths, condition 3
    matches the two vertical-edge partitions up to one part of the
    prescribed size, and condition 4 bounds the largest parts by that
    size.  The scan runs to the arrays' last index, so all eight must
    have one length and be constant from both supports on.  Failures
    are listed by index k, condition 1 before 2 at the same k, then 3
    and 4.  With first_only the conditions are tried in order and the
    scan stops at the first failure: the one violation returned is the
    lowest-indexed failure of the lowest-numbered failing condition.
    """
    upto = len(L.low_a) - 1
    bad: list[MVViolation] = []
    # Condition 2's defect is a min, the negative of the max found.
    halves = (
        (1, "max", 1, L.high_a, L.high_b, R.low_a, R.low_b),
        (2, "min", -1, L.low_b, L.low_a, R.high_b, R.high_a),
    )
    for condition, extremum, sign, Ux, Uy, Vx, Vy in halves:
        hit = _half_path_defect(Ux, Uy, Vx, Vy, 2, upto + 1)
        while hit is not None:
            k, m = hit
            note = f"{extremum} is {sign * m}, expected 0"
            bad.append(MVViolation(condition, k, note))
            if first_only:
                return bad
            hit = _half_path_defect(Ux, Uy, Vx, Vy, k + 1, upto + 1)
    bad.sort(key=lambda v: v.k)  # stable: condition 1 first at equal k

    # Stable endpoints of the four paths; d1 spans the two bottom
    # vertical-edge feet, d2 the two top ones.
    d1 = RootVector(R.low_a[upto] - L.high_a[upto], R.low_b[upto] - L.high_b[upto])
    d2 = RootVector(L.low_a[upto] - R.high_a[upto], L.low_b[upto] - R.high_b[upto])
    return bad + _edge_violations(kind, d1, d2, left_delta, right_delta, first_only)


def _edge_violations(
    kind: Algebra,
    d1: RootVector,
    d2: RootVector,
    left_delta: Partition,
    right_delta: Partition,
    first_only: bool,
) -> list[MVViolation]:
    """Conditions 3 and 4 of `mv_violations`, given the vertical edges.

    d1 spans the two bottom vertical-edge feet (right low endpoint minus
    left high endpoint) and d2 the two top ones (left low endpoint minus
    right high endpoint).  These are the only conditions that read the
    partitions.
    """
    bad: list[MVViolation] = []
    num, den = part_size_ratio(kind, d1)

    if d1.a * d2.b - d1.b * d2.a == 0:
        if left_delta != right_delta:
            bad.append(
                MVViolation(3, None, "parallel vertical edges need equal partitions")
            )
            if first_only:
                return bad
    else:
        fail = None
        if num <= 0 or num % den:
            fail = f"prescribed gap {num}/{den} is not a positive integer"
        elif sum(left_delta) == sum(right_delta):
            fail = "partitions of equal size may not differ"
        else:
            s = num // den
            if sum(left_delta) > sum(right_delta):
                big, small = left_delta, right_delta
            else:
                big, small = right_delta, left_delta
            if s not in big:
                fail = f"larger partition has no part of size {s} to drop"
            elif remove_part(big, s) != small:
                fail = f"partitions do not differ by exactly one part of size {s}"
        if fail is not None:
            bad.append(MVViolation(3, None, fail))
            if first_only:
                return bad

    for side, parts in (("left", left_delta), ("right", right_delta)):
        top = largest_part(parts)
        if den * top > num:
            bad.append(
                MVViolation(
                    4, None, f"largest {side} part {top} exceeds the gap {num}/{den}"
                )
            )
            if first_only:
                return bad
    return bad


def is_mv(P: DecoratedPolytope) -> MVVerdict:
    """Full verdict with every violated condition listed."""
    K = truncation_index(P)
    L = path_prefixes(P.left, K)
    R = path_prefixes(P.right, K)
    found = mv_violations(P.kind, L, R, P.left.delta, P.right.delta)
    return MVVerdict(not found, tuple(found))
