"""The transition map: the unique MV partner of a Lusztig datum.

Two solvers are shipped.  The oracle enumerates every datum of the
right weight and keeps those that pass the MV check; it is the
generate-and-test reference.  The production solver solves for the
multiplicities instead: at each ladder index the MV condition settled
there is linear in the one multiplicity being chosen, so it yields no
value, one value or an interval directly.  The two ladders of the
unknown datum are searched once each, iteratively, and joined on the
weight they leave over, which must be a multiple of delta; runs of
indices where the condition forces zero are skipped in one step.  The
index-1 multiplicity enters only one term of the condition, so one pass
per ladder follows the chain every later index forces: only the values
where that chain reaches a new threshold are searched, each from there,
and every value past the last threshold is one interval, which the join
solves for, trying only the few values where the vertical-edge condition
can pass.  The leftover closes off with the handful of partitions that
condition allows.
Both solvers assert that exactly one completion exists and abort loudly
if the search ever contradicts that.

Completing from the left and completing from the right are one map T,
an involution: the MV relation is symmetric under exchanging the two
data.  Exchanging them exchanges conditions 1 and 2, and the vertical
edges d1 and d2, since `polytope.pairing_defect` is symmetric in its two
half-paths.  Conditions 3 and 4 read d1 and d2 only through
`part_size_ratio`, which agrees on both because d1 - d2 is a multiple of
delta; the rest of them is symmetric in the partitions.  So the partner
of a left datum is the partner of the same datum placed on the right,
and one search (the unknown datum on the left) serves both sides.

Results are memoized per (solver, datum), up to `_CACHE_SIZE` entries,
the oldest dropped first; entries are immutable, so the cache behaves as
a pure function table.  Since T is an involution, a solve stores its
answer both ways, under the datum and under its partner: the crystal
operators e_i and e_i* reach one polytope from its two sides and solve
it once.  `_solve` searches even when the answer is cached, for checks
of the search itself.
"""

from __future__ import annotations

from itertools import chain
from typing import Iterable, Iterator

from .lusztig import (
    LusztigDatum,
    Partition,
    RealEntry,
    _derived,
    _real_parts,
    add_part,
    partitions,
    remove_part,
)
from .polytope import (
    DecoratedPolytope,
    HalfPath,
    _edge_violations,
    _pair,
    half_path,
    mv_violations,
    pairing_defect,
    part_size_ratio,
    path_prefixes,
    vertical_edge,
    weight_truncation_index,
)
from .roots import (
    HIGH,
    LOW,
    Algebra,
    RootVector,
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


_CACHE: dict[tuple[str, LusztigDatum], LusztigDatum] = {}
# Most entries `_CACHE` holds; past it the oldest entry is dropped.
_CACHE_SIZE = 1 << 14


def clear_cache() -> None:
    _CACHE.clear()


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
    """The one completion of `known` by `solver`, from `_CACHE` if there."""
    hit = _CACHE.get((solver, known))
    return hit if hit is not None else _solve(known, solver)


def _solve(known: LusztigDatum, solver: str) -> LusztigDatum:
    """Search `known`'s one completion by `solver`, cached or not, and cache it."""
    if solver == ORACLE:
        found, _ = _oracle_completions(known)
    elif solver == DFS:
        found = _dfs_completions(known)
    else:
        raise ValueError(f"unknown solver {solver!r}")
    if not found:
        raise NoCompletionError(f"no completion of the datum {known}")
    if len(found) > 1:
        raise MultipleCompletionsError(f"{len(found)} completions of the datum {known}")
    partner = found[0]
    # T is an involution: store the answer under both data.
    for key, value in (((solver, known), partner), ((solver, partner), known)):
        if key not in _CACHE and len(_CACHE) >= _CACHE_SIZE:
            del _CACHE[next(iter(_CACHE))]
        _CACHE[key] = value
    return partner


def _oracle_completions(known: LusztigDatum) -> tuple[list[LusztigDatum], int]:
    """Generate and test: every datum of the same weight gets an MV verdict.

    The candidates, placed on the left, are the data of `enumerate_data`
    in its order, walked without building them: each real part of
    `lusztig._real_parts` with each partition of what it leaves.
    Conditions 1 and 2 do not read the partition, and each pairs one
    half of the candidate with one of `known` (`polytope.pairing_defect`),
    so, as in `verify._pairing`, each is scanned once per distinct half
    and holds for every candidate with it.  The candidates of a real part
    failing either condition fail with every partition; for a real part
    passing both, conditions 3 and 4 run on each partition.
    Only a candidate passing all four is built as a datum.

    Returns the passing data and the number of candidates judged, which
    is the number of data of the weight.
    """
    kind = known.kind
    w = known.weight
    K = weight_truncation_index(kind, w)
    kp = path_prefixes(known, K)

    def half_end(memo, half, family, V):
        """The end of one half of the candidate if its pairing with V holds."""
        if half not in memo:
            U = half_path(kind, half, family, K)
            memo[half] = U.end if pairing_defect(U, V) is None else None
        return memo[half]

    cond1: dict[tuple[RealEntry, ...], tuple[int, int] | None] = {}
    cond2: dict[tuple[RealEntry, ...], tuple[int, int] | None] = {}
    sizes: dict[int, int] = {}  # number of partitions of n
    found: list[LusztigDatum] = []
    judged = 0
    for real, n in _real_parts(kind, w):
        cut = sum(entry.family == LOW for entry in real)  # low entries lead
        # Condition 1: the candidate's high half against the known low
        # half; condition 2: its low half against the known high half.
        high_end = half_end(cond1, real[cut:], HIGH, kp.low)
        low_end = None
        if high_end is not None:
            low_end = half_end(cond2, real[:cut], LOW, kp.high)
        if low_end is None:
            if n not in sizes:
                sizes[n] = sum(1 for _ in partitions(n))
            judged += sizes[n]
            continue
        d1 = vertical_edge(high_end, kp.low.end)
        d2 = vertical_edge(kp.high.end, low_end)
        for parts in partitions(n):
            judged += 1
            if not _edge_violations(kind, d1, d2, parts, known.delta, True):
                found.append(_derived(kind, real, parts, w))
    return found, judged


_Picks = tuple[tuple[int, int], ...]
# (picks, lo, hi, rx, ry): for each index-1 multiplicity m1 in lo..hi, the
# choice of m1 at index 1 and the nonzero (k, m) of picks, ascending in
# k >= 2, which leaves (rx - m1, ry) of the weight.
_Leaf = tuple[_Picks, int, int, int, int]


def _next_support(V: HalfPath) -> list[int]:
    """nxt[k], 1 <= k <= K+1: the first index j >= k where V's ladder has
    an entry (x rises there), K+1 for none; the list has length K+2."""
    xs = V.x
    K = len(xs) - 1
    nxt = [K + 1] * (K + 2)
    for k in range(K, 0, -1):
        nxt[k] = k if xs[k] != xs[k - 1] else nxt[k + 1]
    return nxt


def _ladder_leaves(
    kind: Algebra, family: str, V: HalfPath, w: RootVector
) -> Iterator[_Leaf]:
    """The choices on the unknown datum's `family` ladder that pass its condition.

    V is the known datum's half on the paired ladder.  A choice U passes
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

    One pass over k = 2..K, before any m1 is tried, follows the forced
    chain, the picks every step makes while c < 0 (the point m = gap/s),
    and records t_k = V.y[k] - cx at each index it visits, cx being the
    chain's use before k.  It stops at the first k where gap % s != 0:
    there the point does not exist.  Let T be the largest t_k.

    - The walk for a given m1 follows the chain while t_k < m1, since
      each step is then the chain's point.  At the first k with
      t_k >= m1, c > 0 prunes it unless t_k == m1.  So the only m1 that
      survive up to T are the records of t (values above every earlier
      t_k), and each one's stack starts at its record index, from the
      chain's state and picks there.  The start fits under wx, because
      m1 + cx = V.y[k] <= wx, and the chain's use only grows, so every
      earlier step of the chain fits too.
    - For m1 > T, c < 0 at every index, so the walk is the whole chain;
      if the chain stopped, no such m1 survives.  Otherwise the cap
      m1 + cx <= wx, with cx the whole chain's use, leaves the one
      interval T+1 .. wx - cx, yielded as one leaf with no walk.  The
      chain ends with cy <= V.x[K], which the known datum's own ladder
      uses, so cy <= wy always.
    - A zero gap allows only m = 0.  If the known datum has no entry at
      k on the paired ladder, then at k+1 the gap is still 0 and c is
      unchanged (c moves only with the known entry at k+1), so m = 0
      stays forced until the known datum's next support index nxt[k]
      (`_next_support`).  The chain and the walks jump there; t makes
      no record on the way.
    - The same holds for a walk node with c == 0 where no root fits
      under (rx, gap): up to nxt[k], c and the gap do not move.  Along
      each run of a ladder (every k for sl2hat, the odd and the even k
      for a2(2)) both coordinates of the root grow, so if neither the
      root at k nor the one at k+1 fits, none up to nxt[k] does, m = 0
      is forced and the node jumps to nxt[k].

    Each walked record gets its own stack, so memory stays bounded
    however large m1 grows.
    """
    Vx, Vy = V
    K = len(Vx) - 1
    nxt = _next_support(V)
    swap = family == LOW
    wx, wy = (w.b, w.a) if swap else (w.a, w.b)

    def root(k: int) -> tuple[int, int]:
        sx, sy = ladder_root(kind, family, k)
        return (sy, sx) if swap else (sx, sy)

    forced: list[tuple[int, int]] = []
    starts: list[tuple[int, int, int, int, int]] = []  # (t, k, cx, cy, len(forced))
    T, cx, cy = -1, 0, 0
    whole = True
    k = 2
    while k <= K:
        t = Vy[k] - cx
        if t > T:
            T = t
            starts.append((t, k, cx, cy, len(forced)))
        gap = Vx[k - 1] - cy
        if gap == 0:
            k = max(k + 1, nxt[k])
            continue
        sx, sy = root(k)
        m, r = divmod(gap, sy)
        if r:
            whole = False
            break
        forced.append((k, m))
        cx += m * sx
        cy += m * sy
        k += 1

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
                stack.append((max(k + 1, nxt[k]), rx, ry, picks))
                continue
            sx, sy = ladder_root(kind, family, k)  # root(k), inlined: once per node
            if swap:
                sx, sy = sy, sx
            if c:
                q, r = divmod(gap, sy)
                if not r and q * sx <= rx:
                    stack.append((k + 1, rx - q * sx, ry - gap, picks + ((k, q),)))
                continue
            top = min(gap // sy, rx // sx)
            if top == 0 and nxt[k] > k + 1:
                ax, ay = root(k + 1)
                if ax > rx or ay > gap:
                    stack.append((nxt[k], rx, ry, picks))
                    continue
            for m in range(top, -1, -1):
                stack.append(
                    (k + 1, rx - m * sx, ry - m * sy, picks + ((k, m),) if m else picks)
                )

    if whole and T < wx - cx:
        yield tuple(forced), T + 1, wx - cx, wx - cx, wy - cy


def _delta_candidates(
    kind: Algebra, lam: Partition, n: int, d1: RootVector
) -> list[Partition]:
    """The partitions of n the vertical-edge condition could accept.

    Either both decorations agree, or the unknown one is the known
    partition lam with one part of the prescribed gap size added or
    removed; no other shape can pass the final check.
    """
    out: list[Partition] = []
    if sum(lam) == n:
        out.append(lam)
    num, den = part_size_ratio(kind, d1)
    if num > 0 and num % den == 0:
        s = num // den
        if s in lam and sum(lam) - s == n:
            cand = remove_part(lam, s)
            if cand not in out:
                out.append(cand)
        if sum(lam) + s == n:
            cand = add_part(lam, s)
            if cand not in out:
                out.append(cand)
    return out


def _edge_points(
    kind: Algebra, lam: Partition, lo: int, hi: int, n: int, d1: RootVector
) -> list[int]:
    """The m1 in lo..hi of a join progression where `_delta_candidates` may
    return a partition, ascending; n and d1 are its arguments at m1 = lo.

    Per unit of m1 the leftover n falls by 1 and d1.a falls by 1, so the
    prescribed part size s = lean(d1) / ratio rises by 1, and lean(d1)
    keeps its residue mod ratio: s is an integer at every m1 or at none.
    So n == |lam| holds at one m1, n == |lam| + s at most at one, and
    n == |lam| - s at all or none, where it can only pass at the m1 with
    s a part of lam.
    """
    size = sum(lam)
    points = {lo + n - size}
    num, den = part_size_ratio(kind, d1)
    if num % den == 0:
        s = num // den
        t, odd = divmod(n - size - s, 2)
        if not odd:
            points.add(lo + t)
        if size - s == n:
            points.update(lo + part - s for part in set(lam))
    return sorted(m1 for m1 in points if lo <= m1 <= hi)


def _assemble(
    kind: Algebra,
    low_m1: int,
    low_picks: _Picks,
    high_m1: int,
    high_picks: _Picks,
    parts: Partition,
    w: RootVector,
) -> LusztigDatum:
    """The candidate datum of one join in `_dfs_completions`, of weight w.

    Each ladder is its index-1 multiplicity and its picks at k >= 2.
    Its weight is w by construction: the low ladder uses u, the high
    ladder uses w - r, the join makes r - u = n*delta, and the parts sum
    to n, so the total is u + (w - r) + n*delta = w.  The picks are
    nonzero and ascending in k, and the parts a partition, so the datum
    is built with `_derived`.
    """
    real = [RealEntry(LOW, 1, low_m1)] if low_m1 else []
    real += [RealEntry(LOW, k, m) for k, m in low_picks]
    if high_m1:
        real.append(RealEntry(HIGH, 1, high_m1))
    real += [RealEntry(HIGH, k, m) for k, m in high_picks]
    return _derived(kind, tuple(real), parts, w)


def _dfs_completions(known: LusztigDatum) -> list[LusztigDatum]:
    """Solved search for every partner of `known`.

    The unknown datum sits on the left.  Condition 1 pairs its high
    half with the known low half, condition 2 its low half with the
    known high half, and at each k >= 2 exactly one term of the pairing
    depends on the multiplicity m being chosen, linearly with the
    positive slope s, the root's y (`polytope.HalfPath`).  Written as
    max(c, s*m - gap) == 0, the condition allows no m when c > 0, every
    m in 0..gap//s when c == 0, and only m = gap/s when c < 0: one
    divmod, no filtering.  Index 1 has no condition, and its
    multiplicity m1 enters only c, so the search walks only the m1 where
    the forced chain reaches a new threshold, starting there, and yields
    every m1 past the last threshold as one interval leaf; runs of
    indices where m = 0 is forced are jumped (`_ladder_leaves`).

    The low ladder never reads the high choices, so each ladder is
    searched once, both bounded by the weight.  A high leaf leaves
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
    low leaves are streamed, so a heavy alpha1 costs no memory.  The
    leftover admits at most three candidate partitions.

    Every assembled pair still runs the full MV check, so solving and
    skipping only ever affect speed, not the answer.
    """
    kind = known.kind
    w = known.weight
    ratio = length_ratio(kind)
    K = weight_truncation_index(kind, w)
    kp = path_prefixes(known, K)
    low_end = kp.low.end
    high = _ladder_leaves(kind, HIGH, kp.low, w)
    low = _ladder_leaves(kind, LOW, kp.high, w)
    # Low-ladder weights lean >= 0, so no high point with a residual of
    # negative lean can join; dropping those keeps the table small when
    # alpha0 is heavy.
    by_lean: dict[int, list[_Leaf]] = {}
    spans: list[_Leaf] = []
    for leaf in high:
        _, lo, hi, ra, rb = leaf
        r_lean = lean(kind, ra - lo, rb)
        if lo < hi:
            spans.append(leaf)
        elif r_lean >= 0:
            by_lean.setdefault(r_lean, []).append(leaf)

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
            # The unknown high half ends at w - r (`HalfPath.end`).
            m1s: Iterable[int] = range(first, last + 1)
            if first < last:
                d1 = vertical_edge((w.a - ha + first, w.b - hb), low_end)
                m1s = _edge_points(kind, known.delta, first, last, ha - first - ua, d1)
            for m1 in m1s:
                n = ha - m1 - ua  # r - u == n*delta, and delta has a == 1
                d1 = vertical_edge((w.a - ha + m1, w.b - hb), low_end)
                for parts in _delta_candidates(kind, known.delta, n, d1):
                    cand = _assemble(
                        kind, base + ratio * m1, low_picks, m1, high_picks, parts, w
                    )
                    cp = path_prefixes(cand, K)
                    if not mv_violations(kind, cp, kp, parts, known.delta, True):
                        sols.append(cand)
    return sols
