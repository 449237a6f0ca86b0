"""The transition map: the unique MV partner of a Lusztig datum.

Two solvers are shipped.  The baseline enumerates every datum of the
right weight and keeps those that pass the MV check; the production
solver searches multiplicities ladder by ladder, pruning with the
condition that becomes settled as soon as an index is chosen, and closes
off with the handful of partitions the vertical-edge condition allows.
Both assert that exactly one completion exists and abort loudly if the
search ever contradicts that.

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

from typing import Callable, Iterator

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
    PathPrefixes,
    mv_violations,
    part_size_ratio,
    path_prefixes,
)
from .roots import (
    HIGH,
    LOW,
    Algebra,
    RootVector,
    beta,
    delta_multiple,
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


def _family_choices(
    kind: Algebra,
    family: str,
    start: RootVector,
    K: int,
    settled_ok: Callable[[int, list[int], list[int]], bool],
) -> Iterator[tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...], RootVector]]:
    """All prefix assignments of one ladder that fit under `start`.

    Yields (mults, prefix_a, prefix_b, residual) with arrays of length
    K+1.  settled_ok(k, pa, pb) is consulted once index k is fixed; a
    False verdict prunes the whole subtree below that choice, which is
    sound because later indices cannot change an already settled prefix.
    """
    pa = [0] * (K + 1)
    pb = [0] * (K + 1)
    mults = [0] * (K + 1)
    ladder = [beta(kind, family, k) for k in range(1, K + 1)]

    def rec(k: int, ra: int, rb: int) -> Iterator[
        tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...], RootVector]
    ]:
        if k > K:
            yield tuple(mults), tuple(pa), tuple(pb), RootVector(ra, rb)
            return
        root = ladder[k - 1]
        top = min(
            ra // root.a if root.a else ra + rb,
            rb // root.b if root.b else ra + rb,
        )
        for m in range(top + 1):
            pa[k] = pa[k - 1] + m * root.a
            pb[k] = pb[k - 1] + m * root.b
            mults[k] = m
            if k >= 2 and not settled_ok(k, pa, pb):
                continue
            yield from rec(k + 1, ra - m * root.a, rb - m * root.b)

    yield from rec(1, start.a, start.b)


def _ladder_defect(kind: Algebra, v: RootVector) -> int:
    """How far v leans to the alpha1 side of the imaginary direction.

    Low-ladder roots have positive defect, high-ladder roots negative,
    delta has zero, so the sign decides which ladder can absorb v.
    """
    if kind is Algebra.SL2_HAT:
        return v.b - v.a
    return v.b - 2 * v.a


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
    low_mults: tuple[int, ...],
    high_mults: tuple[int, ...],
    parts: Partition,
) -> LusztigDatum:
    real = [
        RealEntry(LOW, k, m) for k, m in enumerate(low_mults) if k >= 1 and m
    ] + [RealEntry(HIGH, k, m) for k, m in enumerate(high_mults) if k >= 1 and m]
    return LusztigDatum(kind, tuple(real), parts)


def _dfs_completions(known: LusztigDatum) -> list[LusztigDatum]:
    """Pruned search for every partner of `known`.

    The unknown datum sits on the left.  Its high ladder pairs with the
    known low prefixes in condition 1 and is assigned first, pruning
    index by index; its low ladder follows the same way against the
    known high prefixes in condition 2; the leftover weight must be
    imaginary and admits at most three candidate partitions.  Every
    assembled pair still runs the full MV check, so pruning only ever
    affects speed, not the answer.

    Either ladder could go first.  High first is the faster order in
    total: on the 426 DFS inputs of the benchmark's `complete` workload
    (seeds 1-2, Python 3.11, one Xeon core) it took 13.3 s against 18.1 s
    for low first, with identical answers, although the ratio per input
    ranges from 0.15 to 4.5.
    """
    kind = known.kind
    w = weight(known)
    K = max(2, 1 + max_real_index(kind, w))
    kp = path_prefixes(known, K)
    sols: list[LusztigDatum] = []

    def cond1(k: int, pa: list[int], pb: list[int]) -> bool:
        return max(pb[k] - kp.low_b[k - 1], kp.low_a[k] - pa[k - 1]) == 0

    def cond2(k: int, qa: list[int], qb: list[int]) -> bool:
        return min(kp.high_a[k - 1] - qa[k], qb[k - 1] - kp.high_b[k]) == 0

    for high_m, pa1, pb1, res1 in _family_choices(kind, HIGH, w, K, cond1):
        if _ladder_defect(kind, res1) < 0:
            continue
        for low_m, pa2, pb2, res2 in _family_choices(kind, LOW, res1, K, cond2):
            n = delta_multiple(kind, res2)
            if n is None:
                continue
            d1 = RootVector(kp.low_a[K] - pa1[K], kp.low_b[K] - pb1[K])
            cp = PathPrefixes(pa2, pb2, pa1, pb1)
            for parts in _delta_candidates(kind, known.delta, n, d1):
                if not mv_violations(kind, w, cp, kp, parts, known.delta, K, True):
                    sols.append(_assemble(kind, low_m, high_m, parts))
    return sols
