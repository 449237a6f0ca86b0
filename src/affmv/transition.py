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
leftover closes off with the handful of partitions the vertical-edge
condition allows.  Both solvers assert that exactly one completion
exists and abort loudly if the search ever contradicts that.

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
    add_part,
    enumerate_data,
    remove_part,
    weight,
)
from .polytope import (
    DecoratedPolytope,
    mv_violations,
    part_size_ratio,
    path_prefixes,
)
from .roots import (
    HIGH,
    LOW,
    Algebra,
    RootVector,
    ladder_table,
    max_real_index,
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
    "transition_r_to_l",
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
    """The unique decorated polytope whose left datum is `left`."""
    return DecoratedPolytope(left, _partner(left, solver))


def complete_from_right(right: LusztigDatum, solver: str = DFS) -> DecoratedPolytope:
    """The unique decorated polytope whose right datum is `right`."""
    return DecoratedPolytope(_partner(right, solver), right)


def transition_l_to_r(d: LusztigDatum, solver: str = DFS) -> LusztigDatum:
    """The involution T: the MV partner of `d`, on whichever side it sits."""
    return _partner(d, solver)


transition_r_to_l = transition_l_to_r


def _partner(known: LusztigDatum, solver: str) -> LusztigDatum:
    key = (solver, known)
    hit = _CACHE.get(key)
    if hit is not None:
        return hit
    if solver == ORACLE:
        found = _oracle_completions(known)
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


def _oracle_completions(known: LusztigDatum) -> list[LusztigDatum]:
    """Generate and test: every datum of the same weight, MV-checked."""
    kind = known.kind
    w = weight(known)
    K = max(2, 1 + max_real_index(kind, w))
    kp = path_prefixes(known, K)
    out = []
    for cand in enumerate_data(kind, w):
        cp = path_prefixes(cand, K)
        if not mv_violations(kind, w, cp, kp, cand.delta, known.delta, K, True):
            out.append(cand)
    return out


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
    sums of the known datum on the paired ladder.  Yields (picks, rx,
    ry): the nonzero multiplicities as (k, m) pairs in ascending k, and
    the weight left over.
    """
    K = len(table) - 1
    # Index 1 is (1, 0) in these coordinates and has no condition of its
    # own; the c term at index 2 is X[2] - m, so m starts at X[2].  Each
    # such m gets its own stack, so memory stays bounded however many
    # values it takes.
    for m1 in range(X[2], wx + 1):
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


def _ladder_defect(kind: Algebra, a: int, b: int) -> int:
    """How far (a, b) leans to the alpha1 side of the imaginary direction.

    Low-ladder roots have positive defect, high-ladder roots negative,
    delta has zero, so two vectors differ by a multiple of delta exactly
    when their defects agree.
    """
    if kind is Algebra.SL2_HAT:
        return b - a
    return b - 2 * a


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
    kind: Algebra, low_picks: _Picks, high_picks: _Picks, parts: Partition
) -> LusztigDatum:
    real = [RealEntry(LOW, k, m) for k, m in low_picks]
    real += [RealEntry(HIGH, k, m) for k, m in high_picks]
    return LusztigDatum(kind, tuple(real), parts)


def _dfs_completions(known: LusztigDatum) -> list[LusztigDatum]:
    """Solved search for every partner of `known`.

    The unknown datum sits on the left.  Condition 1 at index k reads
    its high ladder against the known low prefixes, condition 2 its low
    ladder against the known high prefixes, and at each k >= 2 exactly
    one term depends on the multiplicity m being chosen, linearly with
    the positive slope s (root.b on the high ladder, root.a on the low
    one).  Written as max(c, s*m - gap) == 0, the condition allows no m
    when c > 0 or gap < 0, every m in 0..gap//s when c == 0, and only
    m = gap/s when c < 0: one divmod, no filtering.

    The low ladder never reads the high choices, so each ladder is
    searched once, both bounded by the weight.  The high leaves are
    tabled by the defect of their residual r, and each low leaf, whose
    used weight is u, joins those with the defect of u; then r - u is
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
    w = weight(known)
    K = max(2, 1 + max_real_index(kind, w))
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
    # Low-ladder weights have defect >= 0, so no other high residual can
    # join; dropping those keeps the table small when alpha0 is heavy.
    by_defect: dict[int, list[tuple[_Picks, int, int]]] = {}
    for picks, ra, rb in high:
        defect = _ladder_defect(kind, ra, rb)
        if defect >= 0:
            by_defect.setdefault(defect, []).append((picks, ra, rb))

    sols: list[LusztigDatum] = []
    for low_picks, rb, ra in low:
        ua, ub = w.a - ra, w.b - rb
        for high_picks, ha, hb in by_defect.get(_ladder_defect(kind, ua, ub), ()):
            n = ha - ua  # r - u == n*delta, and delta has a == 1
            if n < 0:
                continue
            d1 = RootVector(kp.low_a[K] - (w.a - ha), kp.low_b[K] - (w.b - hb))
            for parts in _delta_candidates(kind, known.delta, n, d1):
                cand = _assemble(kind, low_picks, high_picks, parts)
                cp = path_prefixes(cand, K)
                if not mv_violations(kind, w, cp, kp, parts, known.delta, K, True):
                    sols.append(cand)
    return sols
