"""The transition map: the unique MV partner of a Lusztig datum.

Two solvers are shipped.  The oracle judges every datum of the right
weight against the known one and keeps those that pass the MV check;
it is the generate-and-test reference, and its scan
(`polytope._left_partners`) is the one the uniqueness sweep of
`verify` runs against every datum of a weight.  The production solver
solves for the multiplicities instead: at each ladder index the MV
condition settled there is linear in the one multiplicity being chosen,
so it yields no value, one value or an interval directly.  The two ladders of the
unknown datum are searched once each, iteratively, and joined on the
weight they leave over, which must be a multiple of delta.  A choice
is pushed only if it survives the next index too, and a run of zero
choices jumps straight to the first index where a nonzero one survives,
so the walk costs time in the data's support, not in the weight.  The
index-1 multiplicity enters only one term of the condition, so one pass
per ladder follows the chain every later index forces: only the values
where that chain reaches a new threshold are searched, each from there,
and every value past the last threshold is one interval, which the join
solves for, trying only the few values where the vertical-edge condition
can pass.  The leftover closes off with the one partition that
condition can allow, if any.
Both solvers assert that exactly one completion exists and abort loudly
if the search ever contradicts that.

The search is two walks and a join.  The walk of the unknown high
ladder reads only the known low half, and the walk of the low ladder
only the known high half, so data of one weight that share a half share
its walk.  `_dfs_sweep` is the one search: it takes each walk and each
half-path, of the known data and of the candidates alike, from the
record of the weight, which builds it on first use, and runs the join,
with its full MV check of every candidate, once per datum.  `_solve`
sweeps its one datum; the uniqueness sweep of `verify` sweeps every
datum of a weight and settles each answer as `_solve` does.

Completing from the left and completing from the right are one map T,
an involution: the MV relation is symmetric under exchanging the two
data.  Exchanging them exchanges conditions 1 and 2, and the vertical
edges d1 and d2, since `polytope.pairing_defect` is symmetric in its two
half-paths.  Conditions 3 and 4 read d1 and d2 only through
`part_size_ratio`, which agrees on both because d1 - d2 is a multiple of
delta; the rest of them is symmetric in the partitions.  So the partner
of a left datum is the partner of the same datum placed on the right,
and one search (the unknown datum on the left) serves both sides.

One store (`_RECORD`) holds all the solver keeps, one `_Weight` per
(kind, weight), across solves: the truncation index K, the half-paths at
K by (family, half), the high walk's table by known low half, the low
walk's leaves by known high half, and the answers by (solver, datum).
So the many solves of one weight that graph growth and the `verify`
suites make walk each distinct half once and search each datum once.
Since T is an involution, a solve holds its answer both ways, under the
datum and under its partner, which share the weight: the crystal
operators e_i and e_i* reach one polytope from its two sides and solve
it once.  On sl2hat the diagram flip tau maps MV pairs to MV pairs, so
T(tau d) = tau T(d): a datum with no answer held costs one more lookup,
of its flip (`lusztig.twist_tau`, sort-free), when the record of the
swapped weight exists, and a hit is flipped back; a2(2) has no flip.
The store is bounded by `_RECORD_SIZE` over all its weights, the oldest
weight dropped first with its answers; a weight past that bound alone
keeps nothing after its search.  Entries are immutable, so the answers
behave as a pure function table.  `_solve` and the sweep search even
when the answer is held, for checks of the search itself.  `clear_cache`
empties the store.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import chain
from typing import Iterable, Iterator, Sequence

from .lusztig import (
    LusztigDatum,
    Partition,
    RealEntry,
    _derived,
    _ladder_runs,
    _real_parts,
    add_part,
    remove_part,
    twist_tau,
)
from .polytope import (
    DecoratedPolytope,
    HalfPath,
    PathPrefixes,
    _left_partners,
    _pair,
    half_path,
    mv_violations,
    part_size_ratio,
    vertical_edge,
    weight_truncation_index,
)
from .roots import (
    HIGH,
    LOW,
    Algebra,
    RootVector,
    _SL2_HAT,
    delta,
    ladder_root,
    lean,
    length_ratio,
)

__all__ = [
    "ORACLE",
    "DFS",
    "SolverInvariantError",
    "NoCompletionError",
    "MultipleCompletionsError",
    "complete_from_left",
    "complete_from_right",
    "transition_l_to_r",
    "clear_cache",
]

ORACLE = "oracle"
DFS = "dfs"


class SolverInvariantError(RuntimeError):
    """The completion search contradicted the expected uniqueness."""


class NoCompletionError(SolverInvariantError):
    """No datum of matching weight completes the given side."""


class MultipleCompletionsError(SolverInvariantError):
    """More than one completion was found where one was promised."""


class _Weight:
    """All the solver keeps of one weight, built as its searches need it.

    K is the weight's truncation index, `paths` the half-paths at K by
    (family, half), `tables` the high walk's `_HighTable` by the known
    low half it pairs with, `lows` the low walk's leaves by the known
    high half, and `answers` the partner of each datum settled by
    (solver, datum).  `size` counts them in units (`_RECORD_SIZE`).
    """

    __slots__ = ("kind", "w", "K", "paths", "tables", "lows", "answers", "size")

    def __init__(self, kind: Algebra, w: RootVector) -> None:
        self.kind = kind
        self.w = w
        self.K = weight_truncation_index(kind, w)
        self.paths: dict[tuple[str, tuple[RealEntry, ...]], HalfPath] = {}
        self.tables: dict[tuple[RealEntry, ...], _HighTable] = {}
        self.lows: dict[tuple[RealEntry, ...], list[_Leaf]] = {}
        self.answers: dict[tuple[str, LusztigDatum], LusztigDatum] = {}
        self.size = 0


_RECORD: dict[tuple[Algebra, RootVector], _Weight] = {}
# Most units `_RECORD` holds over all its weights; past it the oldest
# weight is dropped.  A half-path index is one unit, a walk leaf one, and
# an answer, one datum held with its partner, eight.  Under tracemalloc an
# index takes 16 bytes at K near 10^5 and about 55 at the K of a graph to
# depth 16, where a leaf with its picks takes about 300 and an answer
# about 360 (its key, and its value's entries when nothing else holds it).
_RECORD_SIZE = 1 << 19
_held = 0  # the total size of the weights in `_RECORD`


def clear_cache() -> None:
    global _held
    _RECORD.clear()
    _held = 0


def _record(kind: Algebra, w: RootVector) -> _Weight:
    """The record of the weight w, new and empty if it holds none."""
    rec = _RECORD.get((kind, w))
    if rec is None:
        rec = _RECORD[kind, w] = _Weight(kind, w)
    return rec


def _hold(rec: _Weight, added: int) -> None:
    """Count `added` more into `rec` and drop the oldest weights while the
    record is past its bound.  That drops `rec` too if it alone is past
    it; the searches running on it keep it until they end."""
    global _held
    rec.size += added
    if _RECORD.get((rec.kind, rec.w)) is not rec:
        return
    _held += added
    while _held > _RECORD_SIZE:
        _held -= _RECORD.pop(next(iter(_RECORD))).size


def _path(rec: _Weight, family: str, half: tuple[RealEntry, ...]) -> HalfPath:
    """The `family` half-path of the run `half` at the weight's K, from `rec`."""
    path = rec.paths.get((family, half))
    if path is None:
        path = rec.paths[family, half] = half_path(rec.kind, half, family, rec.K)
        _hold(rec, rec.K + 1)
    return path


def complete_from_left(left: LusztigDatum, solver: str = DFS) -> DecoratedPolytope:
    """The unique decorated polytope whose left datum is `left`.

    The partner has the kind and weight of `left` by construction, so
    the pair is built without comparing them.
    """
    return _pair(left, _partner(left, solver))


def complete_from_right(right: LusztigDatum, solver: str = DFS) -> DecoratedPolytope:
    """The unique decorated polytope whose right datum is `right`."""
    return _pair(_partner(right, solver), right)


def transition_l_to_r(d: LusztigDatum, solver: str = DFS) -> LusztigDatum:
    """The involution T: the MV partner of `d`, on whichever side it sits."""
    return _partner(d, solver)


def _partner(known: LusztigDatum, solver: str) -> LusztigDatum:
    """The one completion of `known` by `solver`, from its weight's record
    if held there.

    On sl2hat a miss probes the flip of `known` once, T(tau d) = tau T(d),
    when the record of the swapped weight exists.
    """
    kind, _, _, w = known
    rec = _RECORD.get((kind, w))
    hit = rec and rec.answers.get((solver, known))
    if hit:
        return hit
    if kind is _SL2_HAT:
        rec = _RECORD.get((kind, (w.b, w.a)))  # a tuple keys as its RootVector
        hit = rec and rec.answers.get((solver, twist_tau(known)))
        if hit:
            return twist_tau(hit)
    return _solve(known, solver)


def _solve(known: LusztigDatum, solver: str) -> LusztigDatum:
    """Search `known`'s one completion by `solver`, held or not, and hold it
    in the record of its weight."""
    rec = _record(known.kind, known.weight)
    if solver == DFS:
        (found,) = _dfs_sweep(rec, (known,))
    elif solver == ORACLE:
        found = _oracle_completions(known)
    else:
        raise ValueError(f"unknown solver {solver!r}")
    return _settle(rec, known, solver, found)


def _settle(
    rec: _Weight, known: LusztigDatum, solver: str, found: list[LusztigDatum]
) -> LusztigDatum:
    """The one completion `found` for `known` by `solver`, held both ways in
    `rec`, the record of their weight.

    Raises unless the search found exactly one.
    """
    if not found:
        raise NoCompletionError(f"no completion of the datum {known}")
    if len(found) > 1:
        raise MultipleCompletionsError(f"{len(found)} completions of the datum {known}")
    partner = found[0]
    # T is an involution: hold the answer under both data, eight units each
    # (`_RECORD_SIZE`).
    held = len(rec.answers)
    rec.answers[solver, known] = partner
    rec.answers[solver, partner] = known
    _hold(rec, 8 * (len(rec.answers) - held))
    return partner


def _oracle_completions(known: LusztigDatum) -> list[LusztigDatum]:
    """Generate and test: every datum of the same weight gets an MV verdict.

    The candidates, placed on the left, are the data of `enumerate_data`
    in its order, judged against `known` by `polytope._left_partners`
    without being built; only a candidate that passes is built as a
    datum.  The scan builds the half-paths it needs and keeps none, so
    the reference reads nothing of what the DFS search keeps.
    """
    kind = known.kind
    w = known.weight
    hits, _ = _left_partners(kind, w, [known], _real_parts(kind, w), {})
    return [_derived(kind, real, parts, w) for _, _, real, parts in hits]


_Picks = tuple[tuple[int, int], ...]
# (picks, lo, hi, rx, ry): for each index-1 multiplicity m1 in lo..hi, the
# choice of m1 at index 1 and the nonzero (k, m) of picks, ascending in
# k >= 2, which leaves (rx - m1, ry) of the weight.
_Leaf = tuple[_Picks, int, int, int, int]
# The high leaves of one walk as the join reads them: the points by the
# lean of their residual, and the intervals.
_HighTable = tuple[dict[int, list[_Leaf]], list[_Leaf]]


def _ladder_leaves(
    kind: Algebra,
    family: str,
    V: tuple[tuple[int, ...], tuple[int, ...]],
    run: Sequence[RealEntry],
    w: RootVector,
) -> Iterator[_Leaf]:
    """The choices on the unknown datum's `family` ladder that pass its condition.

    V is the known datum's half on the paired ladder, the (x, y) of a
    `polytope.HalfPath`.  A choice U passes
    when `polytope.pairing_defect(U, V)` finds no k and U fits under the
    weight, (wx, wy) in the ladder's own coordinates, as are the roots
    the search reads with `roots.ladder_root` at the indices it visits
    and the rx, ry of the `_Leaf`s it yields: the walked choices as
    points (lo == hi), and at most one interval, the forced tail below.

    Index 1 is (1, 0) on both ladders and has no condition of its own.
    Write (cx, cy) for the weight the picks at 2..k-1 use.  Then
    c = V.y[k] - (m1 + cx) and gap = V.x[k-1] - cy at index k: m1 enters
    c and never gap.  Every pick keeps cy <= V.x[k-1] (a point sets it
    equal, an interval stays below), so the gap is never negative, and
    it is at most ry because V.x[k-1] <= wy: the search tests neither
    gap < 0 nor m*s <= ry.

    The forced chain is the picks every step makes while c < 0, the
    point m = gap/s, and it is the known run on the paired ladder moved up
    one rung.  That rests on the rung identity of `roots.ladder_root`: on
    both algebras and for every k >= 1, low root k and high root k+1 have
    one b, and high root k and low root k+1 one a, so the y of root k+1
    here is the x of root k on the paired ladder.  A point at k sets
    cy = V.x[k-1], so at k+1 the gap is the known step in x at k,
    m*x_paired(k) for a known entry (k, m) and 0 for none: the chain picks
    (s+1, m) for each known entry (s, m) and m = 0 everywhere else, the
    point always exists, and cy = V.x[k-2] before k.  The chain ends with
    cy = V.x[K], which the known datum's own ladder uses, so cy <= wy.
    Write t_k = V.y[k] - cx, cx being the chain's use before k, and T for
    the largest t_k.  The pick at k lowers t_{k+1} - t_k by its x, so t
    rises only where V.y does, at the known entries, and the one pass
    over the known run reads t at k = 2 and at each entry, before any m1
    is tried.

    - The walk for a given m1 follows the chain while t_k < m1, since
      each step is then the chain's point.  At the first k with
      t_k >= m1, c > 0 prunes it unless t_k == m1.  So the only m1 that
      survive up to T are the records of t (values above every earlier
      t_k), and each one's stack starts at its record index, from the
      chain's state and picks there.  The start fits under wx, because
      m1 + cx = V.y[k] <= wx, and the chain's use only grows, so every
      earlier step of the chain fits too.
    - For m1 > T, c < 0 at every index, so the walk is the whole chain,
      and the cap m1 + cx <= wx, with cx the whole chain's use, leaves
      the one interval T+1 .. wx - cx, yielded as one leaf with no walk.
    - A zero gap allows only m = 0.  If the known datum has no entry at
      k on the paired ladder, then at k+1 the gap is still 0 and c is
      unchanged (c moves only with the known entry at k+1), so m = 0
      stays forced until the known datum's next support index j >= k.
      V.x rises exactly at the support, so j is a bisection of V.x, and
      the walks jump there.
    - A walk node with c < 0 is at k+1 after a point at k, after a
      zero-gap jump (the same, with m = 0 on the way), or a lookahead
      child of the residue class below.  In the first two its gap is the
      known step in x at k, a multiple of the y of root k+1 by the rung
      identity, and in the third the class makes it one, so its point
      always exists and the walk tests only that it fits.

    At a walk node with c == 0, let (sx, sy) and (ax, ay) be the roots at
    k and k+1.  A child m reaches k+1 with c' = dvy - m*sx and
    gap' = g - m*sy, where dvy and g - gap are the known datum's steps
    in y at k+1 and in x at k.  The search pushes only the children that
    survive index k+1; the others would be pruned there:

    - Lookahead.  A child survives if c' == 0, that is m = dvy/sx, the
      known multiplicity at k+1 (0 for none; y of the paired root k+1 is
      sx by the rung identity), or if c' < 0 and its point at k+1 exists
      and fits: m*sy + q*ay == g and m*sx + q*ax <= rx for some q >= 0,
      with m*sy <= gap from index k.  Consecutive roots of a ladder have
      sx*ay - sy*ax == 1, so -ax inverts sy mod ay: the point exists
      exactly for m == -g*ax (mod ay), and it fits exactly for
      m <= ay*rx - g*ax, since the x it uses with m is (m + g*ax)/ay.
      So the survivors with c' < 0 are one residue class below a bound
      and above dvy/sx, pushed at O(1) each.
    - Zero path.  If the known datum has no entry at k or k+1, then along
      m = 0 the node's state (c == 0, the gap, rx, ry) stays fixed up to
      j > k, the index before the known datum's next entry, and every
      index i < j has dvy == 0 and g == gap.  A child m > 0 at i
      survives exactly when the x it uses with its point,
      X = m*sx_i + q*sx_{i+1}, is an integer in
      (gap*rho_{i+1}, min(rx, gap*rho_i)] with rho_i = sx_i/sy_i.  Every
      root r_i is a positive multiple of (i*dx, (i-1)*dy), (dx, dy)
      being delta in the ladder's coordinates, so rho_i =
      dx*i / (dy*(i-1)) falls with i and these intervals tile leftwards.
      With X0 = min(rx, floor(gap*rho_k)), the first index with such a
      child is the least i >= k with gap*rho_{i+1} < X0, that is
      i*(X0*dy - gap*dx) > gap*dx, and there is none if
      X0*dy <= gap*dx.  The node moves there, or to j if that comes
      first, and skips the indices between, which push only the m = 0
      child.  This covers every m = 0 run, including those where no root
      fits at all.
    - No root at K fits under the weight (`weight_truncation_index`), so
      a node at K is a leaf with m = 0.

    Each walked record gets its own stack, so memory stays bounded
    however large m1 grows.
    """
    Vx, Vy = V
    K = len(Vx) - 1
    swap = family == LOW
    wx, wy = (w.b, w.a) if swap else (w.a, w.b)
    d = delta(kind)
    dx, dy = (d.b, d.a) if swap else (d.a, d.b)

    def root(k: int) -> tuple[int, int]:
        sx, sy = ladder_root(kind, family, k)
        return (sy, sx) if swap else (sx, sy)

    forced: list[tuple[int, int]] = []
    starts = [(Vy[2], 2, 0, 0, 0)]  # (t, k, cx, cy, len(forced)) at each record
    T, cx, last = Vy[2], 0, 0
    for _, s, m in run:
        # t_s reads the picks before s: all but the last if it lands at s.
        ahead = len(forced) > 0 and forced[-1][0] == s
        ux = cx - last if ahead else cx
        if Vy[s] - ux > T:  # never at s <= 2: no pick before s, and Vy[s] <= T
            T = Vy[s] - ux
            starts.append((T, s, ux, Vx[s - 2], len(forced) - ahead))
        forced.append((s + 1, m))
        last = m * root(s + 1)[0]
        cx += last

    for m1, k, ux, uy, n in starts:
        stack = [(k, wx - m1 - ux, wy - uy, tuple(forced[:n]))]
        while stack:
            k, rx, ry, picks = stack.pop()
            if k > K:
                yield picks, m1, m1, rx + m1, ry
                continue
            c = Vy[k] - (wx - rx)
            if c > 0:
                continue
            gap = Vx[k - 1] - (wy - ry)
            if gap == 0:
                j = bisect_right(Vx, Vx[k - 1], k)
                stack.append((max(k + 1, j), rx, ry, picks))
                continue
            sx, sy = ladder_root(kind, family, k)  # root(k), inlined: once per node
            if swap:
                sx, sy = sy, sx
            if c:
                q = gap // sy
                if q * sx <= rx:
                    stack.append((k + 1, rx - q * sx, ry - gap, picks + ((k, q),)))
                continue
            if k < K and Vx[k + 1] == Vx[k - 1]:
                # Along m = 0 this state holds up to j, the index before the
                # next known entry: go to the first index with a nonzero
                # survivor, or to j.
                j = bisect_right(Vx, Vx[k], k + 2) - 1
                e = min(rx, gap * sx // sy) * dy - gap * dx
                if e > 0:
                    j = min(j, max(k, gap * dx // e + 1))
                if j > k:
                    k = j
                    sx, sy = root(k)
            if k == K:
                yield picks, m1, m1, rx + m1, ry
                continue
            # The children that survive index k+1, in descending m: those
            # with c' < 0 on one residue class mod ay, then the one c' == 0.
            ax, ay = root(k + 1)
            dvy = Vy[k + 1] - Vy[k]
            g = gap + Vx[k] - Vx[k - 1]
            m = min(gap // sy, ay * rx - g * ax)
            m -= (m + g * ax) % ay
            low = dvy // sx
            while m > low:
                stack.append((k + 1, rx - m * sx, ry - m * sy, picks + ((k, m),)))
                m -= ay
            if low * sy <= gap and dvy <= rx:
                if low:
                    picks += ((k, low),)
                stack.append((k + 1, rx - dvy, ry - low * sy, picks))

    if T < wx - cx:
        yield tuple(forced), T + 1, wx - cx, wx - cx, wy - Vx[K]


def _edge_candidates(
    kind: Algebra, lam: Partition, lo: int, hi: int, n: int, d1: RootVector
) -> Iterator[tuple[int, Partition]]:
    """Each (m1, partition) of a join progression m1 = lo..hi that the
    vertical-edge condition could accept, ascending in m1.

    n is the leftover and d1 the bottom vertical edge at m1 = lo.  The
    partition either equals the known one, lam, or is lam with one part
    of the prescribed gap size s >= 1 added or removed; no other shape
    can pass the final check.  Per unit of m1 the leftover falls by 1
    and d1.a by 1, so s = lean(d1) / ratio rises by 1, and lean(d1) keeps
    its residue mod ratio: s is an integer at every m1 or at none.  So
    the leftover is |lam| at one m1 and |lam| + s at most at one, and it
    is |lam| - s at all or none, where only the m1 with s a part of lam
    remain.  The three shapes have distinct sizes at one m1, so each m1
    has at most one partition.
    """
    size = sum(lam)
    found = {n - size: lam}  # m1 - lo -> its partition
    num, den = part_size_ratio(kind, d1)
    if num % den == 0:
        s = num // den  # at m1 = lo
        t, odd = divmod(n - size - s, 2)
        if not odd and s + t >= 1:
            found[t] = add_part(lam, s + t)
        if size - s == n:
            for part in set(lam):
                found[part - s] = remove_part(lam, part)
    for t in sorted(found):
        if 0 <= t <= hi - lo:
            yield lo + t, found[t]


def _assemble(
    kind: Algebra,
    low_m1: int,
    low_picks: _Picks,
    high_m1: int,
    high_picks: _Picks,
    parts: Partition,
    w: RootVector,
) -> tuple[LusztigDatum, tuple[RealEntry, ...], tuple[RealEntry, ...]]:
    """The candidate datum of one join in `_join`, of weight w, and its
    low and high runs.

    Each ladder is its index-1 multiplicity and its picks at k >= 2.
    Its weight is w by construction: the low ladder uses u, the high
    ladder uses w - r, the join makes r - u = n*delta, and the parts sum
    to n, so the total is u + (w - r) + n*delta = w.  The picks are
    nonzero and ascending in k, and the parts a partition, so the datum
    is built with `_derived`.
    """
    low = [RealEntry(LOW, 1, low_m1)] if low_m1 else []
    low += [RealEntry(LOW, k, m) for k, m in low_picks]
    high = [RealEntry(HIGH, 1, high_m1)] if high_m1 else []
    high += [RealEntry(HIGH, k, m) for k, m in high_picks]
    low_run, high_run = tuple(low), tuple(high)
    return _derived(kind, low_run + high_run, parts, w), low_run, high_run


def _dfs_sweep(
    rec: _Weight, data: Sequence[LusztigDatum]
) -> Iterator[list[LusztigDatum]]:
    """Solved search for every partner of each datum of `rec`'s weight, in order.

    Yields one list of partners per datum; `_solve` sweeps its one datum.
    The unknown datum sits on the left.  Condition 1 pairs its high
    half with the known low half, condition 2 its low half with the
    known high half, and at each k >= 2 exactly one term of the pairing
    depends on the multiplicity m being chosen, linearly with the
    positive slope s, the root's y (`polytope.HalfPath`).  Written as
    max(c, s*m - gap) == 0, the condition allows no m when c > 0, every
    m in 0..gap//s when c == 0, and only m = gap/s when c < 0, which the
    rung identity of `_ladder_leaves` makes an integer at every node the
    walk reaches: one division, no filtering.  Index 1 has no condition,
    and its multiplicity m1 enters only c, so the search walks only the
    m1 where the forced chain reaches a new threshold, starting there,
    and yields every m1 past the last threshold as one interval leaf.
    By the same identity the forced chain is the known half moved up one
    rung, so each walk reads the known run as well as its half-path.
    Only the m that survive index k+1 are pushed, and runs of m = 0 are
    jumped to the first index where a nonzero m survives
    (`_ladder_leaves`).

    The low ladder never reads the high choices, so each ladder is
    searched once, both bounded by the weight: the high walk reads only
    the known low half and the low walk only the known high half, and
    `_join` pairs their leaves.  The walks and the known half-paths come
    from `rec`, the weight's record (`_Weight`), so each walk runs, and each
    half-path is built, once per distinct half the weight's searches
    meet while the record holds it, and only the join runs per datum.
    A datum of another weight raises `ValueError`.
    """
    kind, w = rec.kind, rec.w
    for known in data:
        if known.kind is not kind or known.weight != w:
            raise ValueError(f"{known} is not of the weight {w} of the sweep")
        low_half, high_half = _ladder_runs(known.real)
        kp = PathPrefixes(_path(rec, LOW, low_half), _path(rec, HIGH, high_half))
        high = rec.tables.get(low_half)
        if high is None:
            high = rec.tables[low_half] = _high_table(
                kind, _ladder_leaves(kind, HIGH, kp.low, low_half, w)
            )
            _hold(rec, sum(map(len, high[0].values())) + len(high[1]))
        low = rec.lows.get(high_half)
        if low is None:
            low = list(_ladder_leaves(kind, LOW, kp.high, high_half, w))
            rec.lows[high_half] = low
            _hold(rec, len(low))
        yield _join(known, kp, high, low, rec)


def _high_table(kind: Algebra, high: Iterable[_Leaf]) -> _HighTable:
    """The high leaves tabled for `_join`.

    Low-ladder weights lean >= 0, so no high point with a residual of
    negative lean can join; dropping those keeps the table small when
    alpha0 is heavy.
    """
    by_lean: dict[int, list[_Leaf]] = {}
    spans: list[_Leaf] = []
    for leaf in high:
        _, lo, hi, ra, rb = leaf
        r_lean = lean(kind, ra - lo, rb)
        if lo < hi:
            spans.append(leaf)
        elif r_lean >= 0:
            by_lean.setdefault(r_lean, []).append(leaf)
    return by_lean, spans


def _join(
    known: LusztigDatum,
    kp: PathPrefixes,
    high: _HighTable,
    low: Iterable[_Leaf],
    rec: _Weight,
) -> list[LusztigDatum]:
    """Every partner of `known` among the joins of the high and low leaves.

    kp is the known datum's half-paths at the weight's K, `high` and
    `low` are the leaves of the walks against them, and `rec` is the
    weight's record.  A high leaf leaves
    r = (ra - m1, rb), and a low leaf uses u = (ua, ub + m1); they join
    when r - u is n*delta with n >= 0.  Since delta = (1, ratio), with
    ratio = `roots.length_ratio`, that is lean(r) == lean(u), where a
    unit of the high m1 raises lean(r) by ratio and a unit of the low m1
    raises lean(u) by 1, so the low m1 is base + ratio * (high m1), and
    n = ra - m1 - ua >= 0 caps the high m1.  Cut to both leaves' ranges,
    that is a range of the high m1: a divmod and a range test for a
    point against an interval, a progression for two intervals.  High
    points are tabled by lean; a low point joins those with its lean and
    the high interval, and the low interval joins every high leaf.  The
    leftover admits at most one candidate partition.

    Every assembled pair still runs the full MV check, so solving and
    skipping only ever affect speed, not the answer.  The check reads the
    candidate's two half-paths from `rec` by the runs `_assemble` built:
    a partner candidate is often a known datum of the same weight.
    """
    kind = known.kind
    w = known.weight
    ratio = length_ratio(kind)
    low_end = kp.low.end
    by_lean, spans = high
    sols: list[LusztigDatum] = []
    for low_picks, lo, hi, rb, ra in low:
        ua, ub = w.a - ra, w.b - rb
        if lo == hi:
            partners = chain(by_lean.get(lean(kind, ua, ub + lo), ()), spans)
        else:
            partners = chain(*by_lean.values(), spans)
        for high_picks, hlo, hhi, ha, hb in partners:
            # lean(r) == lean(u) makes the low m1 base + ratio * m1 for the
            # high m1; both stay in their leaf's range, and n >= 0.
            base = hb - ub - ratio * (ha - ua)
            first = max(hlo, -((base - lo) // ratio))
            last = min(hhi, ha - ua, (hi - base) // ratio)
            if first > last:
                continue
            # The unknown high half ends at w - r (`HalfPath.end`).
            d1 = vertical_edge((w.a - ha + first, w.b - hb), low_end)
            n = ha - first - ua  # r - u == n*delta, and delta has a == 1
            for m1, parts in _edge_candidates(kind, known.delta, first, last, n, d1):
                cand, cand_low, cand_high = _assemble(
                    kind, base + ratio * m1, low_picks, m1, high_picks, parts, w
                )
                cp = PathPrefixes(
                    _path(rec, LOW, cand_low), _path(rec, HIGH, cand_high)
                )
                if not mv_violations(kind, cp, kp, parts, known.delta, True):
                    sols.append(cand)
    return sols
