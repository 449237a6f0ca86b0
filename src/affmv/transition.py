"""The transition map: the unique MV partner of a Lusztig datum.

Two solvers are shipped.  The oracle enumerates every datum of the
right weight and keeps those that pass the MV check; it is the
generate-and-test reference.  The production solver solves for the
multiplicities instead: at each ladder index the MV condition settled
there is linear in the one multiplicity being chosen, so it yields no
value, one value or an interval directly.  The two ladders of the
unknown datum are searched once each, iteratively, and joined on the
weight they leave over, which must be a multiple of delta; runs of
indices where the condition forces zero are skipped in one step, and
the index-1 multiplicities past the point where every later index is
forced share one chain, computed once per ladder.  The leftover closes
off with the handful of partitions the vertical-edge condition allows.
Both solvers assert that exactly one completion exists and abort loudly
if the search ever contradicts that.

Completing from the left and completing from the right are one map T,
an involution: the MV relation is symmetric under exchanging the two
data.  Condition 1 of `mv_violations` for (L, R) is condition 2 for
(R, L), since min(-x, -y) = -max(x, y).  Exchanging the data also
exchanges the two vertical-edge differences d1 and d2, and conditions 3
and 4 read them only through `part_size_ratio`, which agrees on both
because d1 - d2 is a multiple of delta; the rest of those two
conditions is symmetric in the partitions.  So the partner of a left
datum is the partner of the same datum placed on the right, and one
search (the unknown datum on the left) serves both sides.

Results are memoized per (solver, datum); entries are immutable, so the
cache behaves as a pure function table.
"""

from __future__ import annotations

from typing import Iterator, Sequence

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
    _edge_violations,
    _half_path_defect,
    _ladder_prefixes,
    _pair,
    mv_violations,
    part_size_ratio,
    path_prefixes,
    weight_truncation_index,
)
from .roots import (
    HIGH,
    LOW,
    Algebra,
    RootVector,
    ladder_table,
    lean,
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
    key = (solver, known)
    hit = _CACHE.get(key)
    if hit is not None:
        return hit
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
    _CACHE[key] = found[0]
    return found[0]


def _oracle_completions(known: LusztigDatum) -> tuple[list[LusztigDatum], int]:
    """Generate and test: every datum of the same weight gets an MV verdict.

    The candidates, placed on the left, are the data of `enumerate_data`
    in its order, walked without building them: each real part of
    `lusztig._real_parts` with each partition of what it leaves.
    Conditions 1 and 2 do not read the partition, and each reads one
    half of the candidate (`polytope._half_path_defect`), so, as in
    `verify._pairing`, each is scanned once per distinct half, and its
    verdict holds for every candidate with that half.  The candidates of
    a real part failing either condition fail with every partition; for
    a real part passing both, conditions 3 and 4 run on each partition.
    Only a candidate passing all four is built as a datum.

    Returns the passing data and the number of candidates judged, which
    is the number of data of the weight.
    """
    kind = known.kind
    w = known.weight
    K = weight_truncation_index(kind, w)
    kp = path_prefixes(known, K)

    def half_end(memo, half, family, swap, Vx, Vy):
        """The endpoint of one half of the candidate if its condition holds."""
        if half not in memo:
            xs, ys = _ladder_prefixes(kind, half, family, K)
            Ux, Uy = (ys, xs) if swap else (xs, ys)
            ok = _half_path_defect(Ux, Uy, Vx, Vy, 2, K + 1) is None
            memo[half] = (xs[K], ys[K]) if ok else None
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
        high_end = half_end(cond1, real[cut:], HIGH, False, kp.low_a, kp.low_b)
        low_end = None
        if high_end is not None:
            low_end = half_end(cond2, real[:cut], LOW, True, kp.high_b, kp.high_a)
        if low_end is None:
            if n not in sizes:
                sizes[n] = sum(1 for _ in partitions(n))
            judged += sizes[n]
            continue
        d1 = RootVector(kp.low_a[K] - high_end[0], kp.low_b[K] - high_end[1])
        d2 = RootVector(low_end[0] - kp.high_a[K], low_end[1] - kp.high_b[K])
        for parts in partitions(n):
            judged += 1
            if not _edge_violations(kind, d1, d2, parts, known.delta, True):
                found.append(_derived(kind, real, parts, w))
    return found, judged


_Picks = tuple[tuple[int, int], ...]


def _next_support(d: LusztigDatum, family: str, K: int) -> list[int]:
    """nxt[k]: the smallest index j >= k where d has an entry on `family`.

    K+1 stands for "none"; the list has length K+2.
    """
    nxt = [K + 1] * (K + 2)
    support = {e.k for e in d.real if e.family == family}
    for k in range(K, 0, -1):
        nxt[k] = k if k in support else nxt[k + 1]
    return nxt


def _ladder_leaves(
    table: Sequence[tuple[int, int]],
    X: tuple[int, ...],
    Y: tuple[int, ...],
    nxt: list[int],
    wx: int,
    wy: int,
) -> Iterator[tuple[_Picks, int, int]]:
    """The choices on one ladder of the unknown datum that pass its MV condition.

    A choice passes when it meets the condition at every index 2..K and
    fits under the weight (wx, wy).  Coordinates are (x, y): (a, b) for
    the high ladder, (b, a) for the low one, so that both conditions read
    max(Uy[k] - Y[k-1], X[k] - Ux[k-1]) == 0, where U are the prefix sums
    of the unknown ladder, table[k] its k-th root, and X, Y the prefix
    sums of the known datum on the paired ladder: the half-path pairing
    that `mv_violations` checks with `polytope._half_path_defect`.
    Yields (picks, rx, ry): the nonzero multiplicities as (k, m) pairs in
    ascending k, and the weight left over.

    Index 1 is (1, 0) in both coordinate systems and has no condition of
    its own; the c term at index 2 is X[2] - m1, so m1 starts at X[2].
    Write (cx, cy) for the weight the picks at 2..k-1 use.  Then
    c = X[k] - (m1 + cx) and gap = Y[k-1] - cy at index k: m1 enters c
    and never gap.  So one pass over k = 2..K, before any m1 is tried,
    follows the forced chain, the picks every step makes while c < 0,
    and finds the threshold T = max over its indices of X[k] - cx:

    - For m1 > T, c < 0 at every index, by induction along the chain:
      the picks before k are the chain's, so cx is the chain's, and
      X[k] - (m1 + cx) < X[k] - cx - T <= 0.  Each step is then the
      point m = gap/s, the same for every such m1.  When gap % s != 0
      at some k the point does not exist, the pass stops there, and no
      m1 > T survives.  The gap is never negative on the chain: it is
      the known datum's y step at k-1, the chain having matched Y[k-2].
    - A zero gap gives m = 0 in the chain and is skipped to nxt[k],
      exactly as the per-m1 walk below skips it; c and the gap do not
      move across the skipped indices, so T gains nothing there.
    - The weight used grows along the chain, so every step fits exactly
      when the last does.  The chain ends with cy <= Y[K], which the
      known datum's own ladder uses, so cy <= wy always; the cap
      m1 + cx <= wx tightens as m1 grows, so the surviving m1 > T are
      the one interval T+1 .. wx - cx, each yielded with no walk at all.

    Only m1 in X[2]..min(T, wx) is walked.  Each such m1 gets its own
    stack, so memory stays bounded however many values it takes.
    """
    K = len(table) - 1
    T, cx, cy = X[2], 0, 0
    chain: list[tuple[int, int]] | None = []
    k = 2
    while k <= K:
        T = max(T, X[k] - cx)
        gap = Y[k - 1] - cy
        if gap == 0:
            k = max(k + 1, nxt[k])
            continue
        sx, sy = table[k]
        m, r = divmod(gap, sy)
        if r:
            chain = None
            break
        chain.append((k, m))
        cx += m * sx
        cy += m * sy
        k += 1

    for m1 in range(X[2], min(T, wx) + 1):
        stack = [(2, wx - m1, wy, ((1, m1),) if m1 else ())]
        while stack:
            k, rx, ry, picks = stack.pop()
            if k > K:
                yield picks, rx, ry
                continue
            c = X[k] - (wx - rx)
            gap = Y[k - 1] - (wy - ry)
            if c > 0 or gap < 0:
                continue
            if gap == 0:
                # m = 0 is forced, and stays forced until the known datum
                # has an entry again: see _dfs_completions.
                stack.append((max(k + 1, nxt[k]), rx, ry, picks))
                continue
            sx, sy = table[k]
            q, r = divmod(gap, sy)
            top = min(q, rx // sx, ry // sy)
            if c < 0 and (r or q != top):
                continue
            for m in range(top, -1, -1) if c == 0 else (top,):
                stack.append(
                    (k + 1, rx - m * sx, ry - m * sy, picks + ((k, m),) if m else picks)
                )

    if chain is not None:
        tail = tuple(chain)
        for m1 in range(T + 1, wx - cx + 1):
            yield ((1, m1),) + tail, wx - m1 - cx, wy - cy


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


def _assemble(
    kind: Algebra,
    low_picks: _Picks,
    high_picks: _Picks,
    parts: Partition,
    w: RootVector,
) -> LusztigDatum:
    """The candidate datum of one join in `_dfs_completions`, of weight w.

    Its weight is w by construction: the low picks use u, the high picks
    use w - r, the join makes r - u = n*delta, and the parts sum to n,
    so the total is u + (w - r) + n*delta = w.  The picks are nonzero
    and ascending in k, and the parts a partition, so the datum is built
    with `_derived`.
    """
    real = [RealEntry(LOW, k, m) for k, m in low_picks]
    real += [RealEntry(HIGH, k, m) for k, m in high_picks]
    return _derived(kind, tuple(real), parts, w)


def _dfs_completions(known: LusztigDatum) -> list[LusztigDatum]:
    """Solved search for every partner of `known`.

    The unknown datum sits on the left.  Condition 1 at index k reads
    its high ladder against the known low prefixes, condition 2 its low
    ladder against the known high prefixes, and at each k >= 2 exactly
    one term depends on the multiplicity m being chosen, linearly with
    the positive slope s (root.b on the high ladder, root.a on the low
    one).  Written as max(c, s*m - gap) == 0, the condition allows no m
    when c > 0 or gap < 0, every m in 0..gap//s when c == 0, and only
    m = gap/s when c < 0: one divmod, no filtering.  Index 1 has no
    condition, and its multiplicity enters only c, so past a threshold
    every later index is a point: those index-1 values share one forced
    chain, found in one pass, and only the values up to the threshold
    are walked (`_ladder_leaves`).

    The low ladder never reads the high choices, so each ladder is
    searched once, both bounded by the weight.  The high leaves are
    tabled by the lean of their residual r, and each low leaf, whose
    used weight is u, joins those with the lean of u; then r - u is
    n*delta, and n >= 0 is the last requirement.  The low leaves are
    streamed, so a heavy alpha1 costs time but no memory.  The leftover
    admits at most three candidate partitions.

    When gap == 0 only m = 0 is allowed.  If the known datum has no
    entry at k on the paired ladder, then at k+1 the gap is still 0 and
    c is unchanged (c moves only with the known entry at k+1), so m = 0
    stays forced until the known datum's next support index, where the
    search resumes; with none left the choice is complete.

    Every assembled pair still runs the full MV check, so solving and
    skipping only ever affect speed, not the answer.
    """
    kind = known.kind
    w = known.weight
    K = weight_truncation_index(kind, w)
    kp = path_prefixes(known, K)
    high = _ladder_leaves(
        ladder_table(kind, HIGH, K),
        kp.low_a,
        kp.low_b,
        _next_support(known, LOW, K),
        w.a,
        w.b,
    )
    low = _ladder_leaves(
        [(b, a) for a, b in ladder_table(kind, LOW, K)],
        kp.high_b,
        kp.high_a,
        _next_support(known, HIGH, K),
        w.b,
        w.a,
    )
    # Low-ladder weights lean >= 0, so no other high residual can join;
    # dropping those keeps the table small when alpha0 is heavy.
    by_lean: dict[int, list[tuple[_Picks, int, int]]] = {}
    for picks, ra, rb in high:
        r_lean = lean(kind, ra, rb)
        if r_lean >= 0:
            by_lean.setdefault(r_lean, []).append((picks, ra, rb))

    sols: list[LusztigDatum] = []
    for low_picks, rb, ra in low:
        ua, ub = w.a - ra, w.b - rb
        for high_picks, ha, hb in by_lean.get(lean(kind, ua, ub), ()):
            n = ha - ua  # r - u == n*delta, and delta has a == 1
            if n < 0:
                continue
            d1 = RootVector(kp.low_a[K] - (w.a - ha), kp.low_b[K] - (w.b - hb))
            for parts in _delta_candidates(kind, known.delta, n, d1):
                cand = _assemble(kind, low_picks, high_picks, parts, w)
                cp = path_prefixes(cand, K)
                if not mv_violations(kind, cp, kp, parts, known.delta, True):
                    sols.append(cand)
    return sols
