"""Lusztig data and their combinatorics.

A Lusztig datum is a finitely supported multiplicity map on the positive
real roots together with a partition recording the imaginary block.  This
module provides construction, the weight map, the two diagram twists, and
exhaustive enumeration of all data at a fixed weight.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

from .roots import (
    FAMILIES,
    HIGH,
    LOW,
    Algebra,
    RootVector,
    _check_node,
    beta,
    delta,
    delta_multiple,
    ladder_root,
    length_ratio,
    positive_real_roots,
    root_label,
    simple_reflection,
)

__all__ = [
    "PreconditionViolated",
    "UnsupportedKind",
    "PartAbsent",
    "RealEntry",
    "LusztigDatum",
    "datum",
    "is_purely_imaginary",
    "largest_part",
    "remove_part",
    "add_part",
    "partitions",
    "twist_s",
    "twist_tau",
    "trapezoid_datum",
    "enumerate_data",
]


class PreconditionViolated(ValueError):
    """An operation was applied outside its stated domain."""


class UnsupportedKind(ValueError):
    """The operation only exists for the other algebra."""


class PartAbsent(ValueError):
    """remove_part was asked for a part the partition does not contain."""


# -- partitions ---------------------------------------------------------

Partition = tuple[int, ...]


def _check_partition(parts: Sequence[int]) -> None:
    """The rule for a stored partition, checked part by part in order.

    Parts are exact integers: of type `int` itself, so not a `bool`.
    """
    for i, part in enumerate(parts):
        if type(part) is not int or part < 1:
            raise ValueError(f"partition parts must be integers >= 1, got {part!r}")
        if i and parts[i - 1] < part:
            raise ValueError(f"partition must be weakly decreasing, got {parts!r}")


def largest_part(p: Partition) -> int:
    """First part of a partition, 0 for the empty one."""
    return p[0] if p else 0


def remove_part(p: Partition, s: int) -> Partition:
    """Drop one part equal to s; raises PartAbsent if there is none."""
    if s not in p:
        raise PartAbsent(f"no part of size {s} in {p!r}")
    i = p.index(s)
    return p[:i] + p[i + 1 :]


def add_part(p: Partition, s: int) -> Partition:
    """Insert a part of size s >= 1, keeping parts weakly decreasing."""
    _check_partition((s,))
    i = 0
    while i < len(p) and p[i] >= s:
        i += 1
    return p[:i] + (s,) + p[i:]


def partitions(n: int, max_part: int | None = None) -> Iterator[Partition]:
    """All partitions of n, largest part first, reverse lexicographic.

    Iterative: each step strips the trailing 1s, lowers the last larger
    part v by one, and refills what it freed greedily with parts of size
    v - 1, which gives the next partition in reverse lexicographic order.
    """
    if n == 0:
        yield ()
        return
    top = n if max_part is None or max_part > n else max_part
    if top < 1:
        return
    p = [top] * (n // top)
    if n % top:
        p.append(n % top)
    while True:
        yield tuple(p)
        freed = 0
        while p and p[-1] == 1:
            p.pop()
            freed += 1
        if not p:
            return
        v = p.pop() - 1
        q, r = divmod(freed + v + 1, v)
        p += [v] * q
        if r:
            p.append(r)


# -- Lusztig data -------------------------------------------------------


class RealEntry(NamedTuple):
    family: str
    k: int
    mult: int


def _family_rank(family: str) -> int:
    return 0 if family == LOW else 1


def _check_entry(family: object, k: object, mult: object, least: int = 1) -> None:
    """The rule for a stored real entry: a known ladder, exact integers >= 1.

    `least` lowers the multiplicity floor for inputs such as `datum()`'s
    mapping, where a 0 is accepted and dropped.
    """
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    if type(k) is not int or k < 1:
        raise ValueError(f"ladder index must be an integer >= 1, got {k!r}")
    if type(mult) is not int or mult < least:
        raise ValueError(f"multiplicity must be an integer >= {least}, got {mult!r}")


@dataclass(frozen=True)
class LusztigDatum:
    """Multiplicities on the real roots plus the imaginary partition.

    `real` is kept in canonical order: low ladder first, ascending k,
    every multiplicity >= 1.  Two data are equal iff their canonical
    forms agree, so instances are hashable and safe as cache keys.
    """

    kind: Algebra
    real: tuple[RealEntry, ...] = ()
    delta: Partition = ()

    def __post_init__(self) -> None:
        prev = None
        for family, k, mult in self.real:
            _check_entry(family, k, mult)
            key = (_family_rank(family), k)
            if prev is not None and key <= prev:
                raise ValueError(f"real entries out of canonical order: {self.real!r}")
            prev = key
        _check_partition(self.delta)

    def mult(self, family: str, k: int) -> int:
        for entry in self.real:
            if entry.family == family and entry.k == k:
                return entry.mult
        return 0

    def max_support(self) -> int:
        """Largest ladder index carrying a real multiplicity, 0 if none."""
        return max((entry.k for entry in self.real), default=0)

    def with_mult(self, family: str, k: int, mult: int) -> "LusztigDatum":
        """Copy of this datum with one real multiplicity set to `mult`."""
        kept = [e for e in self.real if (e.family, e.k) != (family, k)]
        if mult != 0 or type(mult) is not int:  # only an exact 0 drops it
            kept.append(RealEntry(family, k, mult))
        kept.sort(key=lambda e: (_family_rank(e.family), e.k))
        return LusztigDatum(self.kind, tuple(kept), self.delta)

    @property
    def is_zero(self) -> bool:
        return not self.real and not self.delta

    @cached_property
    def weight(self) -> RootVector:
        """Sum of all roots of the datum, counted with multiplicity.

        Computed on first use and kept in the instance dict, outside the
        fields, so equality, hashing and repr do not see it.  Data built
        by `_derived` carry it from construction.
        """
        n = sum(self.delta)
        dv = delta(self.kind)
        a, b = n * dv.a, n * dv.b
        for family, k, mult in self.real:
            ra, rb = ladder_root(self.kind, family, k)
            a += mult * ra
            b += mult * rb
        return RootVector(a, b)


def _derived(
    kind: Algebra, real: tuple[RealEntry, ...], delta: Partition, weight: RootVector
) -> LusztigDatum:
    """A datum the library derived from valid data, with its known weight.

    No check runs: the caller guarantees that `real` holds RealEntry
    triples in canonical order with multiplicities >= 1, that `delta` is
    a partition and that `weight` is the datum's weight.  The weight is
    stored as an instance attribute, where the `weight` memo would keep
    it, so the memo is never entered.  Attributes are set one by one, as
    the dataclass `__init__` does, rather than through `__dict__`: that
    keeps CPython's compact per-instance layout, where a materialized
    dict would more than double each datum's size.  Inputs from outside
    go through `LusztigDatum(...)` or `datum()` instead.
    """
    d = object.__new__(LusztigDatum)
    object.__setattr__(d, "kind", kind)
    object.__setattr__(d, "real", real)
    object.__setattr__(d, "delta", delta)
    object.__setattr__(d, "weight", weight)
    return d


def datum(
    kind: Algebra,
    real: Mapping[tuple[str, int] | RootVector, int] | None = None,
    delta_parts: Iterable[int] = (),
) -> LusztigDatum:
    """Build a datum from a {root: mult} mapping.

    Keys may be (family, k) pairs or positive real roots as RootVectors;
    zero multiplicities are dropped, the partition is sorted for you.
    Ladder indices, multiplicities and parts must be exact integers.
    """
    entries: dict[tuple[str, int], int] = {}
    for key, mult in (real or {}).items():
        if isinstance(key, RootVector):
            label = root_label(kind, key)
            if label is None:
                raise ValueError(f"{key} is not a positive real root for {kind.value}")
        else:
            label = key
        family, k = label
        # A zero multiplicity is dropped, but its root is still checked.
        _check_entry(family, k, mult, least=0)
        if mult:
            entries[label] = entries.get(label, 0) + mult
    ordered = tuple(
        RealEntry(family, k, entries[(family, k)])
        for family, k in sorted(entries, key=lambda lab: (_family_rank(lab[0]), lab[1]))
    )
    parts = tuple(delta_parts)
    for part in parts:  # one at a time, since they are not sorted yet
        _check_partition((part,))
    return LusztigDatum(kind, ordered, tuple(sorted(parts, reverse=True)))


def is_purely_imaginary(d: LusztigDatum) -> bool:
    """True when no real root carries a multiplicity."""
    return not d.real


def twist_s(d: LusztigDatum, i: int) -> LusztigDatum:
    """Push the real multiplicities through the simple reflection s_i.

    Defined only when the multiplicity at alpha_i vanishes, so that s_i
    permutes the support; the imaginary partition is untouched.
    """
    _check_node(i)
    pivot = (HIGH, 1) if i == 0 else (LOW, 1)
    if d.mult(*pivot):
        raise PreconditionViolated(
            f"twist by s_{i} needs multiplicity 0 at alpha_{i}, got {d.mult(*pivot)}"
        )
    moved: dict[tuple[str, int] | RootVector, int] = {}
    for family, k, mult in d.real:
        image = simple_reflection(d.kind, i, beta(d.kind, family, k))
        label = root_label(d.kind, image)
        assert label is not None, (d, i, family, k)
        moved[label] = mult
    return datum(d.kind, moved, d.delta)


def twist_tau(d: LusztigDatum) -> LusztigDatum:
    """Diagram flip: swap the two ladders at equal index.

    Only the untwisted algebra has the symmetry; the partition is fixed.
    """
    if d.kind is not Algebra.SL2_HAT:
        raise UnsupportedKind(f"no diagram flip for {d.kind.value}")
    flipped = {
        (LOW if family == HIGH else HIGH, k): mult for family, k, mult in d.real
    }
    return datum(d.kind, flipped, d.delta)


def trapezoid_datum(kind: Algebra, lam: Iterable[int]) -> LusztigDatum:
    """Companion datum of a purely imaginary one.

    The largest part lam_1 peels off onto the two extreme real roots,
    weighted by the root-length ratio on the alpha1 side, and the rest of
    the partition stays imaginary.
    """
    parts = tuple(lam)
    _check_partition(parts)
    if not parts:
        return datum(kind)
    top = parts[0]
    return datum(
        kind,
        {(LOW, 1): length_ratio(kind) * top, (HIGH, 1): top},
        parts[1:],
    )


def _max_mult(ra: int, rb: int, root: RootVector) -> int:
    top = None
    if root.a:
        top = ra // root.a
    if root.b:
        cap = rb // root.b
        top = cap if top is None else min(top, cap)
    assert top is not None
    return top


@lru_cache(maxsize=None)
def enumerate_data(kind: Algebra, w: RootVector) -> tuple[LusztigDatum, ...]:
    """Every Lusztig datum of weight w, in canonical deterministic order.

    Multiplicities are chosen along the fixed root order (low ladder
    ascending, then high ladder ascending), smallest first, and whatever
    residual is a multiple of delta closes off with each partition of it.
    Each datum so built has weight w by construction and is made with
    `_derived`.  The search keeps its own stack, so no closure cycle holds
    the result list after the call.
    """
    if w.a < 0 or w.b < 0:
        return ()
    roots = positive_real_roots(kind, w)
    out: list[LusztigDatum] = []
    # (next root, residual a, residual b, entries picked so far); children
    # are pushed largest multiplicity first so they pop smallest first.
    stack: list[tuple[int, int, int, tuple[RealEntry, ...]]] = [(0, w.a, w.b, ())]
    while stack:
        idx, ra, rb, picked = stack.pop()
        if idx == len(roots):
            n = delta_multiple(kind, RootVector(ra, rb))
            if n is not None:
                out.extend(_derived(kind, picked, parts, w) for parts in partitions(n))
            continue
        root, family, k = roots[idx]
        for m in range(_max_mult(ra, rb, root), -1, -1):
            stack.append(
                (
                    idx + 1,
                    ra - m * root.a,
                    rb - m * root.b,
                    picked + (RealEntry(family, k, m),) if m else picked,
                )
            )
    return tuple(out)
