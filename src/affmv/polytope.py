"""Decorated pseudo-Weyl polytopes and the MV conditions.

A decorated polytope is a pair of Lusztig data of equal weight.  Each
datum spans one boundary path of the polygon: the low ladder climbs from
the bottom vertex, the high ladder descends from the top, and the
imaginary partition decorates the vertical edge between them.  The four
conditions checked here cut out exactly the pairs that glue into one
consistent polygon with matching decorations.

Each ladder of a datum is a `HalfPath` of prefix sums in its own
coordinates, where conditions 1 and 2 are one pairing and the vertical
edges one difference.  The sums stop just past both supports, beyond
which they are constant, so the truncated scan equals the infinite one.
"""

from __future__ import annotations

from typing import Iterable, Mapping, NamedTuple, Sequence

from .lusztig import LusztigDatum, Partition, RealEntry, largest_part, partitions
from .lusztig import _ladder_runs, remove_part
from .roots import HIGH, LOW, Algebra, RootVector, ladder_root, lean, length_ratio
from .roots import _new, max_real_index

__all__ = [
    "DecoratedPolytope",
    "VertexFan",
    "HalfPath",
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


class _PolytopeFields(NamedTuple):
    left: LusztigDatum
    right: LusztigDatum


class DecoratedPolytope(_PolytopeFields):
    """A pair of Lusztig data of equal weight, left and right.

    This is also the crystal element: the operators in `crystal` take
    and return decorated polytopes.  A tuple of the two data.
    """

    __slots__ = ()

    def __new__(cls, left: LusztigDatum, right: LusztigDatum) -> "DecoratedPolytope":
        if left.kind is not right.kind:
            raise ValueError("the two data must belong to the same algebra")
        w, right_w = left.weight, right.weight
        if w != right_w:
            raise ValueError(f"weight mismatch: left {w}, right {right_w}")
        return _new(cls, (left, right))

    @classmethod
    def _make(cls, fields: Iterable[LusztigDatum]) -> "DecoratedPolytope":
        """Rebuild through the checks; `_replace` comes here too."""
        return cls(*fields)

    @property
    def kind(self) -> Algebra:
        return self.left.kind

    @property
    def weight(self) -> RootVector:
        """The common weight, read from the left datum."""
        return self.left.weight



def _pair(left: LusztigDatum, right: LusztigDatum) -> DecoratedPolytope:
    """A polytope the library derived, its two data of one kind and weight.

    No check runs: the caller guarantees what `DecoratedPolytope(...)`
    would compare, and inputs from outside go through it.
    """
    return _new(DecoratedPolytope, (left, right))


class HalfPath(NamedTuple):
    """One ladder of one datum as prefix sums, in the ladder's own coordinates.

    x[k], y[k] sum the ladder's roots at indices <= k for k = 0..K and
    are constant from the support on.  (x, y) is (a, b) on the high
    ladder and (b, a) on the low one, converted only here; in them
    conditions 1 and 2 are `pairing_defect` and the vertical edges
    `vertical_edge`.  Every root has x >= 1: x rises at each entry.
    """

    x: tuple[int, ...]
    y: tuple[int, ...]

    @property
    def end(self) -> tuple[int, int]:
        """The stable endpoint (x, y), the sum of the whole ladder."""
        return self.x[-1], self.y[-1]


class PathPrefixes(NamedTuple):
    """The two half-paths of one datum, truncated at one index."""

    low: HalfPath
    high: HalfPath


# The largest truncation index `half_path` builds arrays for.  Every
# one-entry datum with k <= 10^6 fits, and so does delta = [10^6], whose
# a2(2) weight reaches index 2,000,001; a larger index is refused before
# any memory is taken for it.
MAX_PATH_INDEX = 1 << 21


class PathTooLong(ValueError):
    """A datum or weight needs prefix arrays past `MAX_PATH_INDEX`."""


def half_path(
    kind: Algebra, run: Sequence[RealEntry], family: str, upto: int
) -> HalfPath:
    """The `family` ladder of a datum, indices 0..upto, from its run of entries.

    `run` is the datum's `family` run (`lusztig._ladder_runs`), ascending
    in k.  Entries past `upto` are left out; the cost is in the entries,
    not `upto`.
    """
    if upto > MAX_PATH_INDEX:
        digits = len(str(upto))  # a huge index is named by its digit count
        index = upto if digits <= 30 else f"of {digits} digits"
        raise PathTooLong(
            f"ladder index {index} is past the supported limit {MAX_PATH_INDEX}"
        )
    xs: list[int] = []
    ys: list[int] = []
    a = b = 0
    for _, k, mult in run:
        if k > upto:
            break
        xs += [a] * (k - len(xs))
        ys += [b] * (k - len(ys))
        ra, rb = ladder_root(kind, family, k)
        a += mult * ra
        b += mult * rb
    xs += [a] * (upto + 1 - len(xs))
    ys += [b] * (upto + 1 - len(ys))
    if family == LOW:
        return HalfPath(tuple(ys), tuple(xs))
    return HalfPath(tuple(xs), tuple(ys))


def path_prefixes(d: LusztigDatum, upto: int) -> PathPrefixes:
    low, high = _ladder_runs(d.real)
    return PathPrefixes(
        half_path(d.kind, low, LOW, upto), half_path(d.kind, high, HIGH, upto)
    )


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
    wa, wb = P.weight
    L = path_prefixes(P.left, K)
    R = path_prefixes(P.right, K)
    mu_r = tuple(_new(RootVector, (a, b)) for b, a in zip(*R.low))
    mu_r_top = tuple(_new(RootVector, (wa - a, wb - b)) for a, b in zip(*R.high))
    mu_l = tuple(_new(RootVector, (a, b)) for a, b in zip(*L.high))
    mu_l_top = tuple(_new(RootVector, (wa - a, wb - b)) for b, a in zip(*L.low))
    return VertexFan(mu_r, mu_r_top, mu_l, mu_l_top)


class MVViolation(NamedTuple):
    condition: int
    k: int | None
    note: str


class MVVerdict(NamedTuple):
    """The MV verdict of a polytope; true exactly when it has no violation."""

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


def pairing_defect(U: HalfPath, V: HalfPath, start: int = 2) -> tuple[int, int] | None:
    """First k >= start where the pairing of U and V fails, as (k, max), or None.

    The pairing holds at k when max(U.y[k] - V.x[k-1], V.y[k] - U.x[k-1])
    is 0; it is symmetric in U and V, which have one length.  Condition 1
    pairs L.high with R.low, condition 2 L.low with R.high.
    """
    Ux, Uy = U
    Vx, Vy = V
    for k in range(start, len(Ux)):
        m = Uy[k] - Vx[k - 1]
        x = Vy[k] - Ux[k - 1]
        if x > m:  # m = max(m, x), without the call on this hot path
            m = x
        if m:
            return k, m
    return None


def vertical_edge(high_end: tuple[int, int], low_end: tuple[int, int]) -> RootVector:
    """The low end minus the high end (`HalfPath.end`s), in (a, b).

    d1 = vertical_edge(L.high.end, R.low.end) spans the bottom feet of the
    vertical edges, d2 = vertical_edge(R.high.end, L.low.end) the top ones.
    """
    (hx, hy), (lx, ly) = high_end, low_end
    return RootVector(ly - hx, lx - hy)


def mv_violations(
    kind: Algebra,
    L: PathPrefixes,
    R: PathPrefixes,
    left_delta: Partition,
    right_delta: Partition,
    first_only: bool = False,
) -> list[MVViolation]:
    """All MV condition failures for a pair given as half-paths.

    Condition 1 ties each left high-ladder prefix to the neighbouring
    right low-ladder prefix (the two lower boundary paths trace one
    polygon), condition 2 does the same for the upper paths, condition 3
    matches the two vertical-edge partitions up to one part of the
    prescribed size, and condition 4 bounds the largest parts by that
    size.  The scan runs to the half-paths' last index, so all four must
    have one length and be constant from both supports on.  Failures
    are listed by index k, condition 1 before 2 at the same k, then 3
    and 4.  With first_only the conditions are tried in order and the
    scan stops at the first failure: the one violation returned is the
    lowest-indexed failure of the lowest-numbered failing condition.

    The two data must be of one weight.  Then d1 - d2, the difference of
    the vertical edges, is (|left_delta| - |right_delta|)*delta, so
    partitions of one size sit between parallel edges.
    """
    bad: list[MVViolation] = []
    # Condition 2's defect is a min, the negative of the max found.
    for condition, extremum, sign, U, V in (
        (1, "max", 1, L.high, R.low),
        (2, "min", -1, L.low, R.high),
    ):
        hit = pairing_defect(U, V)
        while hit is not None:
            k, m = hit
            note = f"{extremum} is {sign * m}, expected 0"
            bad.append(MVViolation(condition, k, note))
            if first_only:
                return bad
            hit = pairing_defect(U, V, k + 1)
    bad.sort(key=lambda v: v.k)  # stable: condition 1 first at equal k

    d1 = vertical_edge(L.high.end, R.low.end)
    d2 = vertical_edge(R.high.end, L.low.end)
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

    d1 and d2 are the bottom and the top `vertical_edge`.  These are the
    only conditions that read the partitions.  The data are of one weight
    (`mv_violations`), so edges that are not parallel bound partitions of
    different sizes.
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


# (i, j, real, parts): the i-th datum of a weight, real part `real` and
# partition `parts`, on the left of the j-th right datum passes.
_Hit = tuple[int, int, tuple[RealEntry, ...], Partition]


def _left_partners(
    kind: Algebra,
    w: RootVector,
    rights: Sequence[LusztigDatum],
    walk: Iterable[tuple[tuple[RealEntry, ...], int]],
    paths: Mapping[tuple[str, tuple[RealEntry, ...]], HalfPath],
) -> tuple[list[_Hit], int]:
    """Every MV pair of a datum of weight w, on the left, with one of `rights`.

    The left data are those of `enumerate_data(kind, w)`, walked in its
    order without building them: each real part of `walk`, which is
    `lusztig._real_parts(kind, w)` or a copy of it, with each partition
    of what it leaves.  The rights have weight w.  `paths` holds half-paths
    of w by (family, half), at `weight_truncation_index(kind, w)`, as
    `half_path` builds them; a half it lacks is built here and not kept:
    holding every left half costs the one-right oracle more than
    building it does.
    Returns the passing pairs as `_Hit`s, ascending in (i, j), and the
    number of left data judged, which is the number of data of w.

    A pair passes exactly when `mv_violations(..., first_only=True)` on
    the prefixes truncated at `weight_truncation_index` finds nothing,
    but that check runs on no pair.  Condition 1 pairs only the left
    high half with the right low half, condition 2 only the left low
    half with the right high half (`pairing_defect`), and neither reads
    the partitions.  So each is scanned once per distinct left half
    against each distinct right half, and many data share a half: at the
    top weight of the sl2hat box (6,6), 134 data have 30 distinct halves
    of each kind.  A half is keyed by its entries.  Condition 2 is
    scanned only for a real part whose high half passes condition 1 with
    some right datum.  A pair failing either scan fails the full check
    there; every other pair passes conditions 1 and 2, so its verdict is
    that of conditions 3 and 4 alone (`_edge_violations` on the two
    `vertical_edge`s), run per partition.
    """
    K = weight_truncation_index(kind, w)

    def path(family, half):
        return paths.get((family, half)) or half_path(kind, half, family, K)

    right_lows: dict[HalfPath, list[int]] = {}
    right_highs: dict[HalfPath, list[int]] = {}
    ends = []  # per right: the ends of its low and its high half
    for j, d in enumerate(rights):
        low, high = _ladder_runs(d.real)
        R_low, R_high = path(LOW, low), path(HIGH, high)
        right_lows.setdefault(R_low, []).append(j)
        right_highs.setdefault(R_high, []).append(j)
        ends.append((R_low.end, R_high.end))

    def scan(memo, half, family, paired):
        """Memoize one left half's end and the rights whose `paired` half it
        pairs with; the pair is never false, so `memo.get(half) or` skips it.
        """
        U = path(family, half)
        memo[half] = hit = U.end, {
            j for V, js in paired.items() if pairing_defect(U, V) is None for j in js
        }
        return hit

    high_memo: dict = {}  # left half -> (its end, the rights it pairs with)
    low_memo: dict = {}
    sizes: dict[int, int] = {}  # number of partitions of n
    hits: list[_Hit] = []
    i = 0
    for real, n in walk:
        low, high = _ladder_runs(real)
        high_end, ok1 = high_memo.get(high) or scan(high_memo, high, HIGH, right_lows)
        both: list[int] = []
        if ok1:
            low_end, ok2 = low_memo.get(low) or scan(low_memo, low, LOW, right_highs)
            both = sorted(ok1 & ok2)
        if not both:
            if n not in sizes:
                sizes[n] = sum(1 for _ in partitions(n))
            i += sizes[n]
            continue
        edges = []
        for j in both:
            d1 = vertical_edge(high_end, ends[j][0])
            d2 = vertical_edge(ends[j][1], low_end)
            edges.append((j, d1, d2, rights[j].delta))
        for parts in partitions(n):
            for j, d1, d2, lam in edges:
                if not _edge_violations(kind, d1, d2, parts, lam, True):
                    hits.append((i, j, real, parts))
            i += 1
    return hits, i


def is_mv(P: DecoratedPolytope) -> MVVerdict:
    """Full verdict with every violated condition listed."""
    K = truncation_index(P)
    L = path_prefixes(P.left, K)
    R = path_prefixes(P.right, K)
    found = mv_violations(P.kind, L, R, P.left.delta, P.right.delta)
    return MVVerdict(not found, tuple(found))
