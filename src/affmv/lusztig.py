"""Lusztig data and their combinatorics.

A Lusztig datum is a finitely supported multiplicity map on the positive
real roots together with a partition recording the imaginary block.  This
module provides construction, the weight map, the two diagram twists, and
exhaustive enumeration of all data at a fixed weight.
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator, Mapping, NamedTuple, Sequence

from .roots import (
    FAMILIES,
    HIGH,
    LOW,
    Algebra,
    RootVector,
    _SL2_HAT,
    _check_node,
    _new,
    _run_tops,
    delta as _delta_root,
    ladder_root,
    length_ratio,
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


def _canonical(entry: tuple[str, int, int] | tuple[str, int]) -> tuple[int, int]:
    """Sort key of a real entry or a (family, k) label: low ladder first, k up."""
    return (0 if entry[0] == LOW else 1), entry[1]


def _ladder_runs(real: tuple[RealEntry, ...]) -> tuple[tuple[RealEntry, ...], ...]:
    """The low run and the high run of the canonical-order entries `real`.

    Canonical order puts every low entry first, each run ascending in k,
    so the two runs are one cut of `real` at its first high entry.
    """
    for at, entry in enumerate(real):
        if entry.family != LOW:
            return real[:at], real[at:]
    return real, ()


class _DatumFields(NamedTuple):
    kind: Algebra
    real: tuple[RealEntry, ...]
    delta: Partition
    weight: RootVector


class LusztigDatum(_DatumFields):
    """Multiplicities on the real roots plus the imaginary partition.

    `real` is kept in canonical order: low ladder first, ascending k,
    every multiplicity >= 1.  Two data are equal iff their canonical
    forms agree, so instances are hashable and safe as cache keys.

    A tuple whose fourth field is the weight, the sum of all roots of
    the datum counted with multiplicity, computed once on construction.
    It follows from the other three, so it changes no comparison, and
    `repr` and the pickled arguments leave it out.
    """

    __slots__ = ()

    def __new__(
        cls, kind: Algebra, real: tuple[RealEntry, ...] = (), delta: Partition = ()
    ) -> "LusztigDatum":
        prev = None
        for family, k, mult in real:
            _check_entry(family, k, mult)
            key = _canonical((family, k))
            if prev is not None and key <= prev:
                raise ValueError(f"real entries out of canonical order: {real!r}")
            prev = key
        _check_partition(delta)
        n = sum(delta)
        a, b = _delta_root(kind)
        a, b = n * a, n * b
        for family, k, mult in real:
            ra, rb = ladder_root(kind, family, k)
            a += mult * ra
            b += mult * rb
        return _new(cls, (kind, real, delta, RootVector(a, b)))

    def __getnewargs__(self) -> tuple[Algebra, tuple[RealEntry, ...], Partition]:
        return self[:3]

    @classmethod
    def _make(cls, fields: Iterable[Any]) -> "LusztigDatum":
        """Rebuild through the checks; `_replace` comes here too.

        The weight is recomputed from the other three fields, so a stored
        weight that no longer fits them is not carried over.
        """
        kind, real, delta, _weight = fields
        return cls(kind, real, delta)

    def __repr__(self) -> str:
        return (
            f"LusztigDatum(kind={self.kind!r}, real={self.real!r}, "
            f"delta={self.delta!r})"
        )

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
        kept.sort(key=_canonical)
        return LusztigDatum(self.kind, tuple(kept), self.delta)


def _derived(
    kind: Algebra, real: tuple[RealEntry, ...], delta: Partition, weight: RootVector
) -> LusztigDatum:
    """A datum the library derived from valid data, with its known weight.

    No check runs: the caller guarantees that `real` holds RealEntry
    triples in canonical order with multiplicities >= 1, that `delta` is
    a partition and that `weight` is the datum's weight.  Inputs from
    outside go through `LusztigDatum(...)` or `datum()` instead.
    """
    return _new(LusztigDatum, (kind, real, delta, weight))


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
        for family, k in sorted(entries, key=_canonical)
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
    kind = d.kind
    moved = []
    for family, k, mult in d.real:
        image = simple_reflection(kind, i, RootVector(*ladder_root(kind, family, k)))
        label = root_label(kind, image)
        assert label is not None, (d, i, family, k)
        moved.append(RealEntry(*label, mult))
    moved.sort(key=_canonical)
    return _derived(kind, tuple(moved), d.delta, simple_reflection(kind, i, d.weight))


def twist_tau(d: LusztigDatum) -> LusztigDatum:
    """Diagram flip: swap the two ladders at equal index.

    Only the untwisted algebra has the symmetry; the partition is fixed,
    and the weight's two coordinates swap.  Canonical order puts the low
    run first, each run ascending in k, so the flip swaps the two runs
    and needs no sort.
    """
    kind, real, parts, (a, b) = d
    if kind is not _SL2_HAT:
        raise UnsupportedKind(f"no diagram flip for {kind.value}")
    low, high = [], []  # the two runs of the flip
    for family, k, mult in real:
        if family == LOW:
            high.append(_new(RealEntry, (HIGH, k, mult)))
        else:
            low.append(_new(RealEntry, (LOW, k, mult)))
    weight = _new(RootVector, (b, a))
    return _new(LusztigDatum, (kind, tuple(low + high), parts, weight))


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


def _ladder_choices(
    kind: Algebra, family: str, ra: int, rb: int
) -> Iterator[tuple[tuple[RealEntry, ...], int, int]]:
    """The choices of multiplicities on one ladder that fit under (ra, rb).

    Yields (entries, ra, rb), the residual being what the choice leaves:
    every choice on the low ladder, and on the high ladder, the last one,
    only those that leave a multiple of delta.  Multiplicities are chosen
    along the ladder, k ascending, smallest first, so choices come in
    lexicographic order.

    A root that does not fit the residual can only take multiplicity 0,
    and neither can any later root of its run (`roots._run_tops`), since
    the residual only shrinks.  So the next root that fits is k or k + 1,
    or none is left, and the walk moves there with no stack frame for the
    roots in between.  Multiplicity 0 continues in the current frame;
    each larger one is pushed.

    On the high ladder the residual must end on the delta ray, where its
    lean b - r*a (`roots.lean`) is 0.  High roots lean to alpha0: each
    unit at the root (a, b) of index k raises the residual's lean by
    r*a - b > 0 and takes a from its a, which is k/r per unit of lean on
    both algebras.  So with a lean L still to make up, the multiplicity
    at k is at most L/(r*a - b), and a choice can only end on the ray if
    L*k/r is at most the residual's a; as that cost grows with k, the
    frame stops once it fails, or once L is 0.
    """
    ratio = length_ratio(kind)
    # (next k, residual a, residual b, entries so far); frames are pushed
    # largest multiplicity first, so they pop smallest first.
    stack: list[tuple[int, int, int, tuple[RealEntry, ...]]] = [(1, ra, rb, ())]
    while stack:
        k, ra, rb, picked = stack.pop()
        tops = _run_tops(kind, family, ra, rb)
        while True:
            if k > tops[k % len(tops)]:
                k += 1
                if k > tops[k % len(tops)]:
                    break
            sa, sb = ladder_root(kind, family, k)
            top = min(ra // sa if sa else rb, rb // sb if sb else ra)
            if family == HIGH:
                lack = ratio * ra - rb
                if lack == 0 or lack * k > ratio * ra:
                    break
                top = min(top, lack // (ratio * sa - sb))
            for m in range(top, 0, -1):
                entry = RealEntry(family, k, m)
                stack.append((k + 1, ra - m * sa, rb - m * sb, picked + (entry,)))
            k += 1
        if family == LOW or rb == ratio * ra:
            yield picked, ra, rb


def _real_parts(
    kind: Algebra, w: RootVector
) -> Iterator[tuple[tuple[RealEntry, ...], int]]:
    """Each real part of a datum of weight w, with the n it leaves.

    Yields (entries, n) for every choice of multiplicities on the
    positive real roots whose residual w - (their sum) is n*delta, n >= 0;
    the data of weight w are these entries with each partition of n.
    The roots are taken in canonical order (low ladder ascending, then
    high ladder ascending), so the entries are in canonical order and
    the real parts in lexicographic order of their multiplicities, which
    is `enumerate_data`'s order.

    Each low-ladder choice (`_ladder_choices`) is followed by each
    high-ladder choice that leaves n*delta.  Those depend only on the
    residual the low choice leaves, so they are walked once per residual
    and kept for the call.
    """
    if w.a < 0 or w.b < 0:
        return
    closings: dict[tuple[int, int], list[tuple[tuple[RealEntry, ...], int]]] = {}
    for low, ra, rb in _ladder_choices(kind, LOW, w.a, w.b):
        ends = closings.get((ra, rb))
        if ends is None:
            # The residual left is n*delta, and delta has a == 1.
            ends = closings[ra, rb] = [
                (high, n)
                for high, n, _ in _ladder_choices(kind, HIGH, ra, rb)
            ]
        for high, n in ends:
            yield low + high, n


def enumerate_data(kind: Algebra, w: RootVector) -> tuple[LusztigDatum, ...]:
    """Every Lusztig datum of weight w, in canonical deterministic order.

    Each real part of `_real_parts`, in its order, closes off with each
    partition of what it leaves.  Each datum so built has weight w by
    construction and is made with `_derived`.  Nothing is cached: a
    caller that reuses a weight keeps its own copy.
    """
    return tuple(
        _derived(kind, real, parts, w)
        for real, n in _real_parts(kind, w)
        for parts in partitions(n)
    )
