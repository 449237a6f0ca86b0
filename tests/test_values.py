"""Value types: RootVector, LusztigDatum, DecoratedPolytope, MVVerdict,
CrystalGraph and Report are tuples.

Each is an immutable tuple with no instance dict, so it builds, hashes
and compares in C.  These tests pin what that must not change: repr and
str byte for byte, no instance dict, and copy, deepcopy and pickle round
trips.  The vector arithmetic is tested in `test_roots`, data built in
different ways and the weight staying out of repr and documents in
`test_lusztig`, and the checks of `DecoratedPolytope(...)` in
`test_polytope`.
"""

import copy
import pickle

import pytest

from affmv.crystal import crystal_graph
from affmv.lusztig import LusztigDatum, RealEntry, _derived, datum
from affmv.polytope import DecoratedPolytope, is_mv
from affmv.roots import HIGH, LOW, ZERO, Algebra, RootVector
from affmv.transition import complete_from_right
from affmv.verify import Report

SL2 = Algebra.SL2_HAT
A2 = Algebra.A2_TWISTED

SMALL = datum(SL2, {(LOW, 1): 2, (HIGH, 3): 1}, (2, 1))
SMALL_REPR = (
    "LusztigDatum(kind=<Algebra.SL2_HAT: 'sl2hat'>, real=(RealEntry(family='low', "
    "k=1, mult=2), RealEntry(family='high', k=3, mult=1)), delta=(2, 1))"
)
ZERO_A2_REPR = "LusztigDatum(kind=<Algebra.A2_TWISTED: 'a2(2)'>, real=(), delta=())"


def samples():
    zero = datum(A2)
    return [
        RootVector(3, -4),
        SMALL,
        zero,
        DecoratedPolytope(zero, zero),
        complete_from_right(SMALL),
        is_mv(DecoratedPolytope(SMALL, SMALL)),
        crystal_graph(SL2, 1),
        Report("demo", A2, "scope", (("hits", 7),), ("broken",), ("a note",)),
    ]


class TestText:
    def test_root_vector(self):
        v = RootVector(3, -4)
        assert repr(v) == "RootVector(a=3, b=-4)"
        assert str(v) == f"{v}" == "(3,-4)"

    def test_datum(self):
        assert repr(SMALL) == str(SMALL) == f"{SMALL}" == SMALL_REPR
        assert repr(datum(A2)) == ZERO_A2_REPR

    def test_polytope(self):
        zero = datum(A2)
        P = DecoratedPolytope(zero, zero)
        want = f"DecoratedPolytope(left={ZERO_A2_REPR}, right={ZERO_A2_REPR})"
        assert repr(P) == str(P) == want


class TestLayout:
    def test_no_instance_dict(self):
        for value in samples():
            assert isinstance(value, tuple)
            assert not hasattr(value, "__dict__"), type(value)
            with pytest.raises(AttributeError):
                value.extra = 1

    def test_fields_are_read_only(self):
        for value in samples():
            for field in value._fields:
                with pytest.raises(AttributeError):
                    setattr(value, field, getattr(value, field))


class TestCopies:
    @pytest.mark.parametrize("how", ("copy", "deepcopy", "pickle"))
    def test_round_trips(self, how):
        for value in samples():
            if how == "copy":
                back = copy.copy(value)
            elif how == "deepcopy":
                back = copy.deepcopy(value)
            else:
                back = pickle.loads(pickle.dumps(value))
            assert type(back) is type(value)
            assert back == value and hash(back) == hash(value)
            assert repr(back) == repr(value)

    def test_pickled_datum_is_checked_again(self):
        """A datum pickles as its three defining fields; the weight is
        recomputed, and the constructor's checks run on the way back."""
        assert SMALL.__getnewargs__() == (SL2, SMALL.real, SMALL.delta)
        assert pickle.loads(pickle.dumps(SMALL)).weight == SMALL.weight
        forged = _derived(SL2, (RealEntry(LOW, 1, 0),), (), ZERO)
        with pytest.raises(ValueError, match="multiplicity"):
            pickle.loads(pickle.dumps(forged))



class TestRebuilds:
    """`_replace` and `_make`, inherited from NamedTuple, go through the
    validating constructors: a datum's weight is recomputed and a
    polytope's two data are compared again."""

    def test_datum_replace_recomputes_the_weight(self):
        d = datum(SL2, delta_parts=(1,))._replace(delta=(5,))
        assert d == datum(SL2, delta_parts=(5,))
        assert d.weight == RootVector(5, 5)
        moved = SMALL._replace(real=(RealEntry(HIGH, 2, 1),))
        assert moved.weight == datum(SL2, {(HIGH, 2): 1}, (2, 1)).weight

    def test_datum_make_ignores_a_stale_weight(self):
        d = LusztigDatum._make((SL2, (), (5,), ZERO))
        assert type(d) is LusztigDatum and d.weight == RootVector(5, 5)
        assert LusztigDatum._make(SMALL) == SMALL

    def test_datum_rebuilds_are_checked(self):
        with pytest.raises(ValueError, match="weakly decreasing"):
            SMALL._replace(delta=(1, 2))
        with pytest.raises(ValueError, match="canonical order"):
            SMALL._replace(real=(RealEntry(HIGH, 1, 1), RealEntry(LOW, 1, 1)))
        with pytest.raises(ValueError, match="multiplicity"):
            SMALL._replace(real=(RealEntry(LOW, 1, 0),))
        with pytest.raises(ValueError, match="unexpected field"):
            SMALL._replace(colour=1)

    def test_polytope_rebuilds_are_checked(self):
        P = complete_from_right(SMALL)
        assert P._replace(right=SMALL) == P
        assert DecoratedPolytope._make(P) == P
        with pytest.raises(ValueError, match="weight mismatch"):
            P._replace(left=datum(SL2))
        with pytest.raises(ValueError, match="same algebra"):
            DecoratedPolytope._make((datum(A2), datum(SL2)))
