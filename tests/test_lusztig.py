"""Datum layer: partitions, canonical data, twists, enumeration.

Enumeration is checked against an independent counting oracle: the
number of data of weight w must equal the number of ways to write w as
a multiset of positive real roots plus n copies of delta, summed with
the partition-count factor p(n).
"""

import gc
import hashlib
import tracemalloc
from functools import lru_cache

import pytest
from hypothesis import given
from hypothesis import strategies as st

from affmv.documents import datum_to_obj
from affmv.lusztig import (
    LusztigDatum,
    PartAbsent,
    PreconditionViolated,
    RealEntry,
    UnsupportedKind,
    _derived,
    add_part,
    datum,
    enumerate_data,
    is_purely_imaginary,
    largest_part,
    partitions,
    remove_part,
    trapezoid_datum,
    twist_s,
    twist_tau,
)
from affmv.roots import (
    ALPHA0,
    ALPHA1,
    HIGH,
    LOW,
    Algebra,
    RootVector,
    delta,
    length_ratio,
    simple_reflection,
)
from conftest import KINDS, SMALL_BOX, reference_left_datum, reference_right_datum
from real_roots import positive_real_roots


@lru_cache(maxsize=None)
def p_of(n: int) -> int:
    """Partition numbers via Euler's pentagonal recurrence."""
    if n < 0:
        return 0
    if n == 0:
        return 1
    total, j = 0, 1
    while True:
        g1 = j * (3 * j - 1) // 2
        g2 = j * (3 * j + 1) // 2
        if g1 > n and g2 > n:
            return total
        sign = -1 if j % 2 == 0 else 1
        total += sign * (p_of(n - g1) + p_of(n - g2))
        j += 1


def count_data(kind: Algebra, w: RootVector) -> int:
    """Independent Kostant-style count of the data of weight w."""
    roots = sorted(
        {entry.root for entry in positive_real_roots(kind, w)},
        key=lambda v: (v.a, v.b),
    )
    dv = delta(kind)

    @lru_cache(maxsize=None)
    def real_ways(idx: int, a: int, b: int) -> int:
        if a == 0 and b == 0:
            return 1
        if idx == len(roots):
            return 0
        total, step = 0, roots[idx]
        m = 0
        while m * step.a <= a and m * step.b <= b:
            total += real_ways(idx + 1, a - m * step.a, b - m * step.b)
            m += 1
        return total

    total = 0
    n = 0
    while n * dv.a <= w.a and n * dv.b <= w.b:
        rest = w - n * dv
        total += p_of(n) * real_ways(0, rest.a, rest.b)
        n += 1
    return total


class TestPartitions:
    def test_counts_match_pentagonal_recurrence(self):
        for n in range(11):
            assert sum(1 for _ in partitions(n)) == p_of(n)

    def test_reverse_lexicographic_order(self):
        assert list(partitions(4)) == [
            (4,),
            (3, 1),
            (2, 2),
            (2, 1, 1),
            (1, 1, 1, 1),
        ]

    def test_max_part_bound(self):
        assert list(partitions(4, max_part=2)) == [(2, 2), (2, 1, 1), (1, 1, 1, 1)]

    def test_order_matches_the_recursive_definition(self):
        def reference(n, top):
            if n == 0:
                yield ()
                return
            for first in range(min(n, top), 0, -1):
                for rest in reference(n - first, first):
                    yield (first,) + rest

        for n in range(13):
            assert list(partitions(n)) == list(reference(n, n))
            for top in range(n + 2):
                assert list(partitions(n, max_part=top)) == list(reference(n, top))

    def test_many_parts_need_no_recursion(self):
        assert list(partitions(1200, max_part=1)) == [(1,) * 1200]

    def test_part_edits(self):
        assert largest_part(()) == 0
        assert largest_part((4, 2)) == 4
        assert add_part((3, 1), 2) == (3, 2, 1)
        assert remove_part((3, 2, 1), 2) == (3, 1)
        with pytest.raises(PartAbsent):
            remove_part((3, 1), 2)
        for s in (0, 1.5, True):
            with pytest.raises(ValueError):
                add_part((3, 1), s)

    @given(st.lists(st.integers(1, 9), min_size=0, max_size=8), st.integers(1, 9))
    def test_add_then_remove_round_trips(self, parts, s):
        p = tuple(sorted(parts, reverse=True))
        assert remove_part(add_part(p, s), s) == p


class TestDatumConstruction:
    @pytest.mark.parametrize("kind", KINDS)
    def test_vector_keys_match_label_keys(self, kind):
        by_label = datum(kind, {(LOW, 1): 2, (HIGH, 1): 1}, (3,))
        by_vector = datum(kind, {ALPHA1: 2, ALPHA0: 1}, (3,))
        assert by_label == by_vector

    def test_canonical_entry_order(self):
        d = reference_right_datum()
        assert d.real == (
            RealEntry(LOW, 1, 2),
            RealEntry(LOW, 2, 1),
            RealEntry(LOW, 3, 1),
            RealEntry(HIGH, 1, 1),
            RealEntry(HIGH, 3, 1),
        )

    def test_accessors(self):
        d = reference_right_datum()
        assert d.mult(LOW, 1) == 2 and d.mult(HIGH, 2) == 0
        assert d.max_support() == 3
        assert d != datum(Algebra.SL2_HAT)
        assert d.with_mult(LOW, 1, 0).mult(LOW, 1) == 0
        zero = datum(Algebra.SL2_HAT)
        assert zero.max_support() == 0

    def test_invalid_real_entries_rejected(self):
        for real in (
            {(LOW, 0): 1},
            {(LOW, 1): -1},
            {("mid", 1): 1},
            {("mid", 1): 0},
            {(LOW, 1): 1.5},
            {(LOW, 1): 0.0},
            {(LOW, 1): True},
            {(LOW, 2.0): 1},
            {(LOW, True): 1},
            {(LOW, "3"): 1},
        ):
            with pytest.raises(ValueError):
                datum(Algebra.SL2_HAT, real)
        for entry in (RealEntry(LOW, 2.0, 1), RealEntry(HIGH, 1, 1.5)):
            with pytest.raises(ValueError):
                LusztigDatum(Algebra.SL2_HAT, (entry,))

    def test_negative_multiplicity_message_names_the_zero_floor(self):
        # datum() drops a zero multiplicity, so its floor is 0; the
        # strict constructor stores none, so its floor stays 1.
        for mult in (-1, 1.5):
            message = rf"^multiplicity must be an integer >= 0, got {mult!r}$"
            with pytest.raises(ValueError, match=message):
                datum(Algebra.SL2_HAT, {(LOW, 1): mult})
        with pytest.raises(ValueError, match=r">= 1, got -1$"):
            LusztigDatum(Algebra.SL2_HAT, (RealEntry(LOW, 1, -1),))

    def test_partition_handling(self):
        # The factory sorts loose part lists; the strict constructor
        # rejects anything out of canonical form.
        assert datum(Algebra.SL2_HAT, delta_parts=(1, 2)).delta == (2, 1)
        for parts in ((0,), (2.5,), (2, 1.0), (True,), ("3",)):
            with pytest.raises(ValueError):
                datum(Algebra.SL2_HAT, delta_parts=parts)
        with pytest.raises(ValueError):
            LusztigDatum(Algebra.SL2_HAT, (), (1, 2))

    def test_non_root_vector_key_rejected(self):
        with pytest.raises(ValueError):
            datum(Algebra.SL2_HAT, {delta(Algebra.SL2_HAT): 1})


class TestWeight:
    def test_reference_pair_weights(self):
        assert reference_right_datum().weight == RootVector(20, 22)
        assert reference_left_datum().weight == RootVector(20, 22)

    @pytest.mark.parametrize("kind", KINDS)
    def test_purely_imaginary(self, kind):
        d = datum(kind, delta_parts=(2, 1))
        assert is_purely_imaginary(d)
        assert d.weight == 3 * delta(kind)
        assert not is_purely_imaginary(datum(kind, {(LOW, 1): 1}))
        assert is_purely_imaginary(datum(kind))

    def test_stored_weight_is_invisible(self):
        """The weight is a field that follows from the other three: equality,
        hash, repr and documents agree however it was obtained."""
        built = reference_right_datum()
        assert built.weight == RootVector(20, 22)
        kind, real, parts = built.kind, built.real, built.delta
        derived = _derived(kind, real, parts, RootVector(20, 22))
        assert built == derived and derived == built
        assert hash(built) == hash(derived)
        assert repr(built) == repr(derived)
        assert "weight" not in repr(built) and "(20, 22)" not in repr(built)
        assert datum_to_obj(built) == datum_to_obj(derived)
        assert "weight" not in datum_to_obj(built)
        assert LusztigDatum(kind, real=real, delta=parts) == built

    def test_datum_keeps_the_compact_layout(self):
        """A datum is a bare tuple of its fields and its weight.

        One from the public constructor, which computes its weight, takes
        no more memory than one from `_derived`, which is handed it.  Both
        share their fields; each holds its own weight vector.
        """
        d = reference_right_datum()
        kind, real, parts = d.kind, d.real, d.delta

        def public():
            return LusztigDatum(kind, real, parts)

        def derived():
            return _derived(kind, real, parts, RootVector(20, 22))

        def footprint(build):
            build()  # any one-off allocation happens outside the count
            gc.disable()  # nor may a collection allocate inside it
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                kept = [build() for _ in range(2000)]
                used = tracemalloc.get_traced_memory()[0] - base
            finally:
                tracemalloc.stop()
                gc.enable()
            assert all(x == d and not hasattr(x, "__dict__") for x in kept)
            return used

        footprint(derived)  # the first traced run pays one-off costs
        assert footprint(public) <= footprint(derived)


class TestTwists:
    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("i", (0, 1))
    def test_twist_reflects_the_real_weight(self, kind, i):
        d = datum(kind, {(LOW, 2): 1, (HIGH, 2): 2}, (4, 1))
        t = twist_s(d, i)
        real_wt = d.weight - 5 * delta(kind)
        assert t.weight - 5 * delta(kind) == simple_reflection(kind, i, real_wt)
        assert t.delta == d.delta

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("i", (0, 1))
    def test_twist_is_an_involution_off_the_pivot(self, kind, i):
        d = datum(kind, {(LOW, 2): 3, (HIGH, 3): 1}, (2,))
        assert twist_s(twist_s(d, i), i) == d

    @pytest.mark.parametrize("i", (0, 1))
    def test_twist_rejects_the_pivot_rung(self, i):
        pivot = (HIGH, 1) if i == 0 else (LOW, 1)
        d = datum(Algebra.SL2_HAT, {pivot: 1})
        with pytest.raises(PreconditionViolated):
            twist_s(d, i)

    def test_tau_swaps_the_ladders(self):
        d = datum(Algebra.SL2_HAT, {(LOW, 2): 3, (HIGH, 5): 1}, (2, 1))
        t = twist_tau(d)
        assert t.mult(HIGH, 2) == 3 and t.mult(LOW, 5) == 1
        assert t.delta == d.delta
        assert twist_tau(t) == d

    def test_tau_requires_the_symmetric_diagram(self):
        with pytest.raises(UnsupportedKind):
            twist_tau(datum(Algebra.A2_TWISTED))

    @given(
        st.dictionaries(
            st.tuples(st.sampled_from((LOW, HIGH)), st.integers(1, 30)),
            st.integers(1, 9),
            max_size=8,
        ),
        st.lists(st.integers(1, 9), max_size=4),
    )
    def test_tau_is_the_sorted_flip_and_an_involution(self, real, parts):
        d = datum(Algebra.SL2_HAT, real, parts)
        t = twist_tau(d)
        assert t == sorted_flip(d)
        assert type(t.weight) is RootVector
        assert all(type(entry) is RealEntry for entry in t.real)
        assert twist_tau(t) == d
        with pytest.raises(UnsupportedKind):
            twist_tau(datum(Algebra.A2_TWISTED, real, parts))


def sorted_flip(d):
    """Reference diagram flip: relabel each entry's ladder, sort, rebuild
    through the validating constructor, which recomputes the weight."""
    other = {LOW: HIGH, HIGH: LOW}
    real = sorted(
        (RealEntry(other[family], k, mult) for family, k, mult in d.real),
        key=lambda entry: (entry.family == HIGH, entry.k),
    )
    return LusztigDatum(d.kind, tuple(real), d.delta)


class TestTrapezoid:
    @pytest.mark.parametrize("kind", KINDS)
    def test_shape(self, kind):
        lam = (3, 1)
        t = trapezoid_datum(kind, lam)
        ratio = length_ratio(kind)
        assert t.mult(LOW, 1) == ratio * 3
        assert t.mult(HIGH, 1) == 3
        assert t.delta == (1,)
        assert t.weight == 4 * delta(kind)

    @pytest.mark.parametrize("kind", KINDS)
    def test_empty_partition_gives_zero_datum(self, kind):
        assert trapezoid_datum(kind, ()) == datum(kind)


class TestEnumeration:
    @pytest.mark.parametrize("kind", KINDS)
    def test_counts_match_independent_oracle(self, kind):
        box = SMALL_BOX[kind]
        for a in range(box.a + 1):
            for b in range(box.b + 1):
                w = RootVector(a, b)
                assert len(enumerate_data(kind, w)) == count_data(kind, w)

    def test_frozen_counts(self):
        sl2, a22 = Algebra.SL2_HAT, Algebra.A2_TWISTED
        assert len(enumerate_data(sl2, delta(sl2))) == 2
        assert len(enumerate_data(sl2, 2 * delta(sl2))) == 6
        assert len(enumerate_data(sl2, RootVector(3, 3))) == 14
        assert len(enumerate_data(sl2, RootVector(6, 6))) == 134
        assert len(enumerate_data(a22, RootVector(2, 4))) == 11
        assert len(enumerate_data(a22, RootVector(4, 8))) == 86

    @pytest.mark.parametrize("kind", KINDS)
    def test_enumerated_data_are_distinct_and_on_weight(self, kind):
        w = 2 * delta(kind)
        data = enumerate_data(kind, w)
        assert len(set(data)) == len(data)
        for d in data:
            assert isinstance(d, LusztigDatum)
            assert d.weight == w

    @pytest.mark.parametrize(
        "kind, w, digest",
        (
            (
                Algebra.SL2_HAT,
                RootVector(8, 8),
                "1aa1a160fc6a8e551747631f74f47c02ae9f619f5b92b734fce9ac5d30906b14",
            ),
            (
                Algebra.A2_TWISTED,
                RootVector(5, 10),
                "b584fc678d61ed0cf346672585f750c98bacdb023ade6b1c535a87f0f7b854b3",
            ),
        ),
    )
    def test_order_is_pinned(self, kind, w, digest):
        """Sweeps name data by their position, so the order is fixed."""
        data = enumerate_data(kind, w)
        assert hashlib.sha256(repr(data).encode()).hexdigest() == digest

    @pytest.mark.parametrize("kind", KINDS)
    def test_negative_weight_has_no_data(self, kind):
        assert enumerate_data(kind, RootVector(-1, 0)) == ()
        assert enumerate_data(kind, RootVector(0, 0)) == (datum(kind),)
