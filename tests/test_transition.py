"""Transition layer: unique completion of one side of a polytope.

Both solvers are compared on exhaustive boxes and on seeded random data
of a larger box; small partners are frozen; completing twice inverts
the map on every enumerated datum.  Hypothesis properties carry the
involution and the side symmetry of the MV verdict to random data past
those boxes, and a few data with a ladder index or a part in the
thousands pin the search's independence from the recursion limit.
The index-1 solve is checked leaf for leaf against one walk per
multiplicity, DFS partners of seeded data up to height 300 are pinned
by a digest, and single roots far up a ladder and delta=[20000] complete
to their closed forms, and the trapezoid of delta=[20000] back to it;
the interval join of delta=[10^5] tries only the few values that can
pass.  The one store of walks, half-paths and answers stays within its
size bound, holds each solve both ways in the record of its weight and
drops the answers with the weight, holds fresh half-paths, and on sl2hat
a miss is read from the held flip with nothing stored.  Tests of the
search clear it or call `_solve`, so that T of a partner or of a flip is
searched, not read back.
"""

import hashlib
import json
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affmv.crystal import _bump, crystal_graph, e, eps, eps_star, f, phi, phi_star
from affmv.documents import datum_to_obj
from affmv.lusztig import (
    LusztigDatum,
    RealEntry,
    _ladder_runs,
    _real_parts,
    datum,
    enumerate_data,
    partitions,
    trapezoid_datum,
    twist_tau,
)
from affmv.polytope import (
    DecoratedPolytope,
    _left_partners,
    half_path,
    is_mv,
    path_prefixes,
    weight_truncation_index,
)
from affmv.roots import (
    FAMILIES,
    HIGH,
    LOW,
    Algebra,
    RootVector,
    beta,
    delta,
    ladder_root,
)
from affmv import transition
from affmv.transition import (
    DFS,
    ORACLE,
    _dfs_sweep,
    _edge_candidates,
    _ladder_leaves,
    _oracle_completions,
    _record,
    _solve,
    clear_cache,
    complete_from_left,
    complete_from_right,
    transition_l_to_r,
)
from conftest import KINDS, REFERENCE_WEIGHT
from real_roots import ladder_table
from test_lusztig import count_data

TINY_BOX = {
    Algebra.SL2_HAT: RootVector(3, 3),
    Algebra.A2_TWISTED: RootVector(2, 4),
}


def tiny_data(kind):
    box = TINY_BOX[kind]
    for a in range(box.a + 1):
        for b in range(box.b + 1):
            yield from enumerate_data(kind, RootVector(a, b))


class TestReferencePair:
    @pytest.mark.parametrize("solver", (DFS, ORACLE))
    def test_round_trip(self, solver, reference_left, reference_right):
        clear_cache()
        assert transition_l_to_r(reference_right, solver=solver) == reference_left
        clear_cache()  # a solve caches both ways: search this side too
        assert transition_l_to_r(reference_left, solver=solver) == reference_right

    def test_completions_are_mv(self, reference_right):
        P = complete_from_right(reference_right)
        assert P.right == reference_right
        assert is_mv(P).ok


class TestFrozenPartners:
    def test_untwisted_partners(self):
        sl2 = Algebra.SL2_HAT
        assert transition_l_to_r(
            datum(sl2, {(HIGH, 1): 2, (LOW, 1): 1})
        ) == datum(sl2, {(HIGH, 2): 1})
        assert transition_l_to_r(datum(sl2, delta_parts=(2, 1))) == datum(
            sl2, {(LOW, 1): 2, (HIGH, 1): 2}, (1,)
        )
        fixed = datum(sl2, {(LOW, 1): 3})
        assert transition_l_to_r(fixed) == fixed

    def test_twisted_partners(self):
        a22 = Algebra.A2_TWISTED
        assert transition_l_to_r(
            datum(a22, {(HIGH, 1): 2, (LOW, 1): 1})
        ) == datum(a22, {(HIGH, 1): 1, (HIGH, 2): 1})
        assert transition_l_to_r(datum(a22, {(LOW, 2): 1})) == datum(
            a22, {(LOW, 1): 4, (HIGH, 1): 1}
        )
        assert transition_l_to_r(
            datum(a22, {(LOW, 2): 1, (HIGH, 2): 1})
        ) == datum(a22, {(LOW, 1): 2, (LOW, 3): 1, (HIGH, 1): 1})

    @pytest.mark.parametrize("kind", KINDS)
    def test_imaginary_right_data_complete_to_trapezoids(self, kind):
        lam = (2, 1)
        P = complete_from_right(datum(kind, delta_parts=lam))
        assert P.left == trapezoid_datum(kind, lam)


class TestSolverAgreement:
    @pytest.mark.parametrize("kind", KINDS)
    def test_dfs_matches_the_oracle_everywhere(self, kind):
        for d in tiny_data(kind):
            clear_cache()  # a solve caches T of its partner too: search each d
            assert transition_l_to_r(d, solver=DFS) == transition_l_to_r(
                d, solver=ORACLE
            )
            assert transition_l_to_r(d, solver=DFS) == transition_l_to_r(
                d, solver=ORACLE
            )

    @pytest.mark.parametrize("kind", KINDS)
    def test_dfs_matches_the_oracle_on_random_data(self, kind):
        """Random data of every weight up to (10, 10), seeded."""
        rng = random.Random(1209)
        for _ in range(150):
            w = RootVector(rng.randint(0, 10), rng.randint(0, 10))
            d = rng.choice(enumerate_data(kind, w))
            clear_cache()
            assert transition_l_to_r(d, solver=DFS) == transition_l_to_r(
                d, solver=ORACLE
            )

    @pytest.mark.parametrize("kind", KINDS)
    def test_dfs_matches_the_oracle_past_the_tiny_box(self, kind):
        """30 random data per algebra at weights (11..16, 11..16), seeded.

        A random real part of the weight closes off with a random
        partition of what it leaves, so no datum list is built.
        """
        rng = random.Random(1305)
        for _ in range(30):
            w = RootVector(rng.randint(11, 16), rng.randint(11, 16))
            real, n = rng.choice(list(_real_parts(kind, w)))
            d = LusztigDatum(kind, real, rng.choice(list(partitions(n))))
            clear_cache()
            assert transition_l_to_r(d, solver=DFS) == transition_l_to_r(
                d, solver=ORACLE
            )

    @pytest.mark.parametrize("kind", KINDS)
    def test_completing_twice_is_the_identity(self, kind):
        for d in tiny_data(kind):
            partner = transition_l_to_r(d)
            clear_cache()  # so that T(partner) is searched, not read back
            assert transition_l_to_r(partner) == d

    @pytest.mark.parametrize("kind", KINDS)
    def test_transition_preserves_the_weight_not_the_datum(self, kind):
        moved = 0
        for d in tiny_data(kind):
            partner = transition_l_to_r(d)
            assert partner.weight == d.weight
            moved += partner != d
        assert moved > 0


class TestSharedWalks:
    """`_dfs_sweep` over many data of a weight, which walks each distinct
    half once, against `_solve`, which sweeps one datum at a time."""

    BOXES = {
        Algebra.SL2_HAT: RootVector(6, 6),
        Algebra.A2_TWISTED: RootVector(4, 8),
    }

    @pytest.mark.parametrize("kind", KINDS)
    def test_sweep_equals_one_search_per_datum(self, kind):
        rng = random.Random(23)
        box = self.BOXES[kind]
        for a in range(box.a + 1):
            for b in range(box.b + 1):
                data = enumerate_data(kind, RootVector(a, b))
                # Each search starts from an empty record, so that no walk
                # of the sweep is compared against itself.
                solved = {}
                for d in data:
                    clear_cache()
                    solved[d] = [_solve(d, DFS)]
                # In canonical order, shuffled, and shuffled with repeats.
                shuffled = rng.sample(data, len(data))
                repeated = shuffled + rng.choices(data, k=len(data) // 2 + 1)
                rng.shuffle(repeated)
                for batch in (data, shuffled, repeated):
                    clear_cache()
                    rec = _record(kind, RootVector(a, b))
                    assert list(_dfs_sweep(rec, batch)) == [solved[d] for d in batch]

    def test_a_sweep_takes_one_weight(self):
        sl2 = Algebra.SL2_HAT
        data = [datum(sl2, {(LOW, 1): 1}), datum(sl2, {(HIGH, 1): 1})]
        with pytest.raises(ValueError, match="not of the weight"):
            list(_dfs_sweep(_record(sl2, data[0].weight), data))


class TestOracle:
    """The oracle judges every datum of the weight, one verdict each."""

    @pytest.mark.parametrize("kind", KINDS)
    def test_every_datum_of_a_tiny_weight_is_judged(self, kind):
        for d in tiny_data(kind):
            w = d.weight
            _, judged = _left_partners(kind, w, [d], _real_parts(kind, w), {})
            assert judged == count_data(kind, w)
            assert _oracle_completions(d) == [transition_l_to_r(d, solver=DFS)]

    def test_every_datum_of_the_reference_weight_is_judged(
        self, reference_left, reference_right
    ):
        sl2, w = Algebra.SL2_HAT, REFERENCE_WEIGHT
        hits, judged = _left_partners(
            sl2, w, [reference_right], _real_parts(sl2, w), {}
        )
        assert judged == count_data(sl2, w) == 263175
        (hit,) = hits
        assert hit[2:] == (reference_left.real, reference_left.delta)


LARGE_DATA = {
    "sl2hat delta=[1000]": datum(Algebra.SL2_HAT, delta_parts=(1000,)),
    "sl2hat low 5000": datum(Algebra.SL2_HAT, {(LOW, 5000): 1}),
    "a2(2) high 3000": datum(Algebra.A2_TWISTED, {(HIGH, 3000): 1}),
}


class TestLargeData:
    """Data whose ladder index or partition runs into the thousands."""

    @pytest.mark.parametrize("d", LARGE_DATA.values(), ids=LARGE_DATA.keys())
    def test_T_is_a_weight_preserving_involution(self, d):
        partner = transition_l_to_r(d)
        clear_cache()  # so that T(partner) is searched, not read back
        assert transition_l_to_r(partner) == d
        assert partner.weight == d.weight
        assert is_mv(DecoratedPolytope(partner, d)).ok

    @pytest.mark.parametrize("family", FAMILIES)
    def test_a_heavy_simple_root_completes_in_bounded_memory(self, family):
        """20,000 choices at ladder index 1 are searched one at a time."""
        d = datum(Algebra.SL2_HAT, {(family, 1): 20000})
        clear_cache()
        tracemalloc.start()
        try:
            partner = transition_l_to_r(d)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert partner == d
        assert peak < 2**20

    def test_imaginary_datum_completes_to_its_trapezoid(self):
        sl2 = Algebra.SL2_HAT
        P = complete_from_right(datum(sl2, delta_parts=(1000,)))
        assert P.left == trapezoid_datum(sl2, (1000,))

    @pytest.mark.parametrize("lam", ((20000,), (20000, 3, 1)), ids=("n", "n-3-1"))
    @pytest.mark.parametrize("kind", KINDS)
    def test_large_imaginary_data_complete_to_trapezoids(self, kind, lam):
        """Both ladders' forced tails are intervals, joined as two."""
        assert transition_l_to_r(datum(kind, delta_parts=lam)) == trapezoid_datum(
            kind, lam
        )

    @pytest.mark.parametrize("lam", ((20000,), (20000, 3, 1)), ids=("n", "n-3-1"))
    @pytest.mark.parametrize("kind", KINDS)
    def test_large_trapezoids_complete_to_imaginary_data(self, kind, lam):
        """The other direction: each ladder's walk jumps its zero path of
        about 20,000 indices in one step."""
        clear_cache()  # so that the trapezoid is searched, not read back
        assert transition_l_to_r(trapezoid_datum(kind, lam)) == datum(
            kind, delta_parts=lam
        )

    @pytest.mark.parametrize("kind", KINDS)
    def test_the_interval_join_tries_a_few_points(self, kind, monkeypatch):
        """delta=[10^5] joins two forced-tail intervals along a progression
        of 10^5 + 1 values of m1; only the few where the vertical-edge
        condition can pass come out of `_edge_candidates`."""
        tried = []
        counted = transition._edge_candidates

        def counting(*args):
            for point in counted(*args):
                tried.append(point)
                yield point

        monkeypatch.setattr(transition, "_edge_candidates", counting)
        clear_cache()
        lam = (10**5,)
        assert transition_l_to_r(datum(kind, delta_parts=lam)) == trapezoid_datum(
            kind, lam
        )
        assert len(tried) < 10

    @pytest.mark.parametrize("kind", KINDS)
    def test_edge_points_keep_every_passing_m1(self, kind):
        """On seeded progressions, `_edge_candidates` yields exactly the m1
        where one m1 at a time admits a partition shape, with that shape."""
        rng = random.Random(16)
        for _ in range(300):
            parts = (rng.randint(1, 6) for _ in range(rng.randint(0, 4)))
            lam = tuple(sorted(parts, reverse=True))
            lo = rng.randint(0, 5)
            hi = lo + rng.randint(1, 30)
            n = rng.randint(hi - lo, hi - lo + 20)  # n >= 0 over lo..hi
            d1 = RootVector(rng.randint(-10, 30), rng.randint(-10, 30))

            def at(m1):
                t = m1 - lo
                return shapes_at(kind, lam, n - t, RootVector(d1.a - t, d1.b))

            every = [(m1, found) for m1 in range(lo, hi + 1) for found in at(m1)]
            assert list(_edge_candidates(kind, lam, lo, hi, n, d1)) == every
            # A one-point range keeps its m1 wherever that passes.
            for m1 in range(lo, hi + 1):
                t = m1 - lo
                d1_here = RootVector(d1.a - t, d1.b)
                one = list(_edge_candidates(kind, lam, m1, m1, n - t, d1_here))
                assert one == [(m1, found) for found in at(m1)], m1


def shapes_at(kind, lam, n, d1):
    """Brute force at one m1: the partitions of n among lam and lam with one
    part of the prescribed size s >= 1 added or removed (at most one)."""
    a, b = d1
    num, den = (b - a, 1) if kind is Algebra.SL2_HAT else (b - 2 * a, 2)
    shapes = [lam]
    if num > 0 and num % den == 0:
        s = num // den
        shapes.append(tuple(sorted(lam + (s,), reverse=True)))
        if s in lam:
            i = lam.index(s)
            shapes.append(lam[:i] + lam[i + 1 :])
    found = [p for p in shapes if sum(p) == n]
    assert len(found) <= 1
    return found


class TestPlumbing:
    def test_unknown_solver_is_rejected(self):
        with pytest.raises(ValueError):
            transition_l_to_r(datum(Algebra.SL2_HAT), solver="guess")

    def test_cache_is_stable_across_clears(self, reference_right):
        first = transition_l_to_r(reference_right)
        again = transition_l_to_r(reference_right)
        clear_cache()
        fresh = transition_l_to_r(reference_right)
        assert first == again == fresh

    def test_answers_are_held_and_dropped_with_their_weight(self, monkeypatch):
        """Each answer is held both ways in the record of its weight and
        drops with it, oldest weight first; a weight past the bound alone
        keeps nothing, its answer included, and `clear_cache` empties all."""
        record = transition._RECORD
        searches = []
        solve = transition._solve

        def counting(known, solver):
            searches.append(known)
            return solve(known, solver)

        def answers():
            return {
                known: value
                for rec in record.values()
                for (_, known), value in rec.answers.items()
            }

        sl2 = Algebra.SL2_HAT
        data = [datum(sl2, {(LOW, 1): m, (HIGH, 2): 1}) for m in range(12)]
        keys = [(sl2, d.weight) for d in data]
        clear_cache()
        partners = [transition_l_to_r(d) for d in data]
        sizes = dict(zip(keys, (record[key].size for key in keys)))
        clear_cache()
        assert not record and transition._held == 0
        monkeypatch.setattr(transition, "_RECORD_SIZE", sum(sorted(sizes.values())[:5]))
        monkeypatch.setattr(transition, "_solve", counting)
        held = []  # the weights the record should hold, oldest first
        misses = 0
        # Forwards, then backwards: the newest weights answer without a search.
        for order in (range(12), range(11, -1, -1)):
            for i in order:
                d, partner, key = data[i], partners[i], keys[i]
                assert transition_l_to_r(d) == partner
                if key not in held:
                    misses += 1
                    held.append(key)
                    while sum(map(sizes.get, held)) > transition._RECORD_SIZE:
                        del held[0]
                assert len(searches) == misses
                assert list(record) == held
                assert transition._held == sum(map(sizes.get, held))
                # The answers of a weight are held in its record, and only there.
                for (kind, w), rec in record.items():
                    for (solver, known), value in rec.answers.items():
                        assert solver == DFS and known.weight == value.weight == w
                assert answers() == {
                    x: y
                    for d, partner, key in zip(data, partners, keys)
                    if key in held
                    for x, y in ((d, partner), (partner, d))
                }
        assert 12 < misses < 24

        # A weight past the bound alone is searched and keeps nothing, not
        # even its answer, which would fit the bound alone.
        assert data[0] != partners[0] and sizes[keys[0]] > 16
        monkeypatch.setattr(transition, "_RECORD_SIZE", 16)
        clear_cache()
        searches.clear()
        for _ in range(2):
            assert transition_l_to_r(data[0]) == partners[0]
            assert not record and not answers() and transition._held == 0
        assert searches == [data[0], data[0]]

    def test_the_walk_record_is_bounded_by_size_and_holds_fresh_paths(
        self, monkeypatch
    ):
        """The record of each weight's walks, half-paths and answers empties
        with `clear_cache`, holds at most `_RECORD_SIZE` units, the oldest
        weight dropped first, keeps no weight larger than that alone, and
        holds the half-paths a fresh build gives."""
        record = transition._RECORD

        def held():
            return sum(rec.size for rec in record.values())

        sl2 = Algebra.SL2_HAT
        clear_cache()
        transition_l_to_r(datum(sl2, {(LOW, 3): 1}))
        assert record and transition._held == held() > 0
        clear_cache()
        assert not record and transition._held == 0

        # Six data of six weights, then a bound that holds the last three.
        data = [datum(sl2, {(LOW, 1): m, (HIGH, 2): 1}) for m in range(6)]
        keys = [(sl2, d.weight) for d in data]
        partners = [_solve(d, DFS) for d in data]
        assert list(record) == keys
        sizes = [record[key].size for key in keys]
        monkeypatch.setattr(transition, "_RECORD_SIZE", sum(sizes[-3:]))
        clear_cache()
        for n, d in enumerate(data, 1):
            _solve(d, DFS)
            assert transition._held == held() <= transition._RECORD_SIZE
            assert list(record) == keys[n - len(record) : n]
        assert list(record) == keys[-3:]
        # A weight past the bound alone is searched and not kept.
        monkeypatch.setattr(transition, "_RECORD_SIZE", min(sizes) - 1)
        clear_cache()
        assert _solve(data[0], DFS) == partners[0]
        assert not record and transition._held == 0
        monkeypatch.undo()

        for kind in KINDS:
            rng = random.Random(26)
            clear_cache()
            for _ in range(40):
                complete_from_left(seeded_datum(rng, kind))
            for w in (RootVector(3, 3), RootVector(2, 4)):
                data = enumerate_data(kind, w)
                list(_dfs_sweep(_record(kind, w), data))
                _oracle_completions(data[0])
            assert transition._held == held()
            for (rec_kind, w), rec in record.items():
                assert rec_kind is kind and rec.K == weight_truncation_index(kind, w)
                for (family, half), path in rec.paths.items():
                    assert path == half_path(kind, half, family, rec.K)
                leaves = sum(map(len, rec.lows.values()))
                for by_lean, spans in rec.tables.values():
                    leaves += sum(map(len, by_lean.values())) + len(spans)
                answers = 8 * len(rec.answers)  # eight units each
                assert rec.size == leaves + (rec.K + 1) * len(rec.paths) + answers

    @pytest.mark.parametrize("solver", [DFS, ORACLE])
    def test_a_miss_reads_the_flip_of_a_cached_answer(self, monkeypatch, solver):
        """T(tau d) = tau T(d): on sl2hat a miss is answered from the held
        flip, with no search and nothing stored."""
        record = transition._RECORD

        def held():
            return {w: dict(rec.answers) for w, rec in record.items()}

        d = datum(Algebra.SL2_HAT, {(LOW, 2): 1, (HIGH, 1): 3}, (2,))
        clear_cache()
        partner = transition_l_to_r(d, solver)
        cached = held()
        monkeypatch.setattr(transition, "_solve", None)  # any search would fail
        assert transition_l_to_r(twist_tau(d), solver) == twist_tau(partner)
        assert transition_l_to_r(twist_tau(partner), solver) == twist_tau(d)
        assert held() == cached

    def test_a2_misses_take_no_flip_probe(self, monkeypatch):
        def no_flip(d):
            raise AssertionError("a2(2) has no diagram flip")

        monkeypatch.setattr(transition, "twist_tau", no_flip)
        clear_cache()
        d = datum(Algebra.A2_TWISTED, {(LOW, 2): 1, (HIGH, 1): 3}, (2,))
        assert transition_l_to_r(transition_l_to_r(d)) == d

    def test_a_cold_solve_takes_no_flip_probe(self, monkeypatch):
        """With no record of the swapped weight the probe cannot hit, so it
        is not made."""
        def no_flip(d):
            raise AssertionError("an empty record holds no flip")

        monkeypatch.setattr(transition, "twist_tau", no_flip)
        clear_cache()
        d = datum(Algebra.SL2_HAT, {(LOW, 2): 1, (HIGH, 1): 3}, (2,))
        P = complete_from_left(d)
        assert P.left == d and is_mv(P).ok

    def test_zero_datum_completes_to_itself(self):
        for kind in KINDS:
            zero = datum(kind)
            P = complete_from_left(zero)
            assert P.left == P.right == zero


def _height(v):
    return v.a + v.b


@st.composite
def bounded_data(draw, kind, max_height=60):
    """A random datum of height at most max_height.

    Real entries and parts are drawn freely and kept while they fit, so
    shrinking drops them one by one.
    """
    real = {}
    height = 0
    entries = draw(
        st.lists(
            st.tuples(st.sampled_from(FAMILIES), st.integers(1, 6), st.integers(1, 5)),
            max_size=6,
        )
    )
    for family, k, mult in entries:
        cost = mult * _height(beta(kind, family, k))
        if height + cost <= max_height:
            real[(family, k)] = real.get((family, k), 0) + mult
            height += cost
    parts = []
    for part in draw(st.lists(st.integers(1, 8), max_size=4)):
        cost = part * _height(delta(kind))
        if height + cost <= max_height:
            parts.append(part)
            height += cost
    return datum(kind, real, parts)


@st.composite
def heavy_data(draw, kind, max_height=600):
    """A datum with up to two entries at ladder indices 2..12 and the
    rest of a height from max_height/3 to max_height on the two simple
    roots, as in a trapezoid: a small support under a heavy weight."""
    height = draw(st.integers(max_height // 3, max_height))
    real = {}
    used = 0
    entries = draw(
        st.lists(
            st.tuples(st.sampled_from(FAMILIES), st.integers(2, 12), st.integers(1, 3)),
            max_size=2,
        )
    )
    for family, k, mult in entries:
        cost = mult * _height(beta(kind, family, k))
        if used + cost <= height:
            real[(family, k)] = real.get((family, k), 0) + mult
            used += cost
    low = draw(st.integers(0, height - used))
    for family, mult in ((LOW, low), (HIGH, height - used - low)):
        if mult:
            real[(family, 1)] = mult
    return datum(kind, real)


def padded(d, w):
    """d with alpha0 (high 1) and alpha1 (low 1) steps added up to weight w."""
    gap = w - d.weight
    d = d.with_mult(HIGH, 1, d.mult(HIGH, 1) + gap.a)
    return d.with_mult(LOW, 1, d.mult(LOW, 1) + gap.b)


class TestInvolutionProperties:
    """T, the one transition map, on random data past the sweep boxes."""

    @pytest.mark.parametrize("kind", KINDS)
    @settings(deadline=None, max_examples=60)
    @given(st.data())
    def test_T_is_a_weight_preserving_involution(self, kind, data):
        d = data.draw(bounded_data(kind, max_height=200))
        partner = transition_l_to_r(d)
        clear_cache()  # so that T(partner) is searched, not read back
        assert transition_l_to_r(partner) == d
        assert partner.weight == d.weight
        assert is_mv(DecoratedPolytope(d, partner)).ok
        assert is_mv(DecoratedPolytope(partner, d)).ok

    @pytest.mark.parametrize("kind", KINDS)
    @settings(deadline=None, max_examples=200)
    @given(st.data())
    def test_mv_verdict_is_symmetric_in_the_sides(self, kind, data):
        left = data.draw(bounded_data(kind))
        right = data.draw(bounded_data(kind))
        wl, wr = left.weight, right.weight
        w = RootVector(max(wl.a, wr.a), max(wl.b, wr.b))
        left, right = padded(left, w), padded(right, w)
        assert is_mv(DecoratedPolytope(left, right)).ok == is_mv(
            DecoratedPolytope(right, left)
        ).ok

    @settings(deadline=None, max_examples=100)
    @given(st.data())
    def test_T_commutes_with_the_diagram_flip(self, data):
        # Both sides are searched: `_partner` would read one from the
        # cached flip of the other.
        d = data.draw(bounded_data(Algebra.SL2_HAT, max_height=200))
        assert _solve(twist_tau(d), DFS) == twist_tau(_solve(d, DFS))

    @pytest.mark.parametrize("kind", KINDS)
    @settings(deadline=None, max_examples=100)
    @given(st.data())
    def test_crystal_identities_hold_on_completions(self, kind, data):
        b = complete_from_right(data.draw(bounded_data(kind, max_height=200)))
        for i in (0, 1):
            assert f(i, e(i, b)) == b
            # Kashiwara-Saito condition (iii): the merge level is one
            # number, read from either side, and never negative.
            assert eps(i, b) + phi_star(i, b) == eps_star(i, b) + phi(i, b) >= 0


def _reference_leaves(table, X, Y, nxt, wx, wy):
    """`_ladder_leaves` as one stack walk per index-1 multiplicity m1.

    Every m1 in X[2]..wx is walked through indices 2..K, including those
    past the threshold T that `_ladder_leaves` yields from its forced
    chain without a walk.
    """
    K = len(table) - 1
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


def ladder_inputs(known, family):
    """The arguments `_dfs_sweep` gives `_ladder_leaves` for the unknown
    datum's `family` ladder when it sweeps `known`: the known half it
    pairs with, as a half-path and as its run of entries."""
    kind, w = known.kind, known.weight
    kp = path_prefixes(known, weight_truncation_index(kind, w))
    low_run, high_run = _ladder_runs(known.real)
    if family == HIGH:
        return kind, family, kp.low, low_run, w
    return kind, family, kp.high, high_run, w


def reference_inputs(known, family):
    """The same ladder as `_reference_leaves` reads it, in (x, y)
    coordinates, (b, a) on the low ladder: a table of its roots, the
    paired known prefixes X and Y, the next index nxt[k] >= k of the
    known datum's support on the paired ladder (K+1 for none), and the
    weight."""
    kind, w = known.kind, known.weight
    K = weight_truncation_index(kind, w)
    kp = path_prefixes(known, K)
    table = ladder_table(kind, family, K)
    paired = LOW if family == HIGH else HIGH
    support = {e.k for e in known.real if e.family == paired}
    nxt = [min([j for j in support if j >= k] + [K + 1]) for k in range(K + 2)]
    if family == HIGH:
        return table, kp.low.y, kp.low.x, nxt, w.a, w.b
    table = [(b, a) for a, b in table]
    return table, kp.high.y, kp.high.x, nxt, w.b, w.a


def expanded(leaves):
    """Every choice of `_ladder_leaves`' leaves as (picks, rx, ry), index 1
    included, as `_reference_leaves` yields them."""
    for picks, lo, hi, rx, ry in leaves:
        for m1 in range(lo, hi + 1):
            yield ((1, m1),) + picks if m1 else picks, rx - m1, ry


def seeded_datum(rng, kind):
    """A datum of height 5..300: a few entries at ladder indices 2..12
    and parts, the rest of the height on the two simple roots."""
    height = rng.randint(5, 300)
    real = {}
    used = 0
    for _ in range(rng.randint(0, 5)):
        family, k, mult = rng.choice(FAMILIES), rng.randint(2, 12), rng.randint(1, 4)
        cost = mult * _height(beta(kind, family, k))
        if used + cost <= height:
            real[(family, k)] = real.get((family, k), 0) + mult
            used += cost
    parts = []
    for _ in range(rng.randint(0, 3)):
        part = rng.randint(1, 12)
        cost = part * _height(delta(kind))
        if used + cost <= height:
            parts.append(part)
            used += cost
    low = rng.randint(0, height - used)
    for family, mult in ((LOW, low), (HIGH, height - used - low)):
        if mult:
            real[(family, 1)] = mult
    return datum(kind, real, parts)


class TestForcedChain:
    """The one-pass index-1 solve of `_ladder_leaves`."""

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("kind", KINDS)
    @settings(deadline=None, max_examples=25)
    @given(st.data())
    def test_leaves_equal_the_per_m1_walk(self, kind, family, data):
        known = data.draw(
            st.one_of(bounded_data(kind, max_height=300), heavy_data(kind))
        )
        leaves = _ladder_leaves(*ladder_inputs(known, family))
        assert sorted(expanded(leaves)) == sorted(
            _reference_leaves(*reference_inputs(known, family))
        )

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("kind", KINDS)
    def test_interval_picks_are_the_paired_run_one_rung_up(self, kind, family):
        """The interval leaf, yielded last, picks (s+1, m) for each entry
        (s, m) of the known run it pairs with, and no other leaf spans."""
        rng = random.Random(2205)
        spans = 0
        for _ in range(200):
            args = ladder_inputs(seeded_datum(rng, kind), family)
            leaves = list(_ladder_leaves(*args))
            assert all(lo == hi for _, lo, hi, _, _ in leaves[:-1])
            picks, lo, hi, _, _ = leaves[-1]
            if lo < hi:
                spans += 1
                assert picks == tuple((s + 1, m) for _, s, m in args[3])
        assert spans >= 50  # the case is met, not vacuous

    def test_partners_are_pinned(self):
        """DFS partners of 100 seeded data per algebra, from both sides,
        recorded with the per-m1 walk."""
        digest = hashlib.sha256()
        for kind in KINDS:
            rng = random.Random(1414)
            for _ in range(100):
                d = seeded_datum(rng, kind)
                clear_cache()
                partners = (complete_from_left(d).right, complete_from_right(d).left)
                for partner in partners:
                    digest.update(json.dumps(datum_to_obj(partner)).encode())
        assert (
            digest.hexdigest()
            == "c70086a7e2ff90647cf1196b3ba8d50403bd39149e91f45e6ccc033bbc542216"
        )

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("kind", KINDS)
    def test_single_root_closed_form(self, kind, family):
        """T({(f, k): m}) puts m*b on alpha1 and m*a on alpha0, where
        (a, b) is the root at k."""
        for k in (2, 3, 7, 50, 301, 2000):
            a, b = ladder_root(kind, family, k)
            for m in (1, 3):
                assert transition_l_to_r(datum(kind, {(family, k): m})) == datum(
                    kind, {(LOW, 1): m * b, (HIGH, 1): m * a}
                )


def assert_matches_validated(d):
    """d equals its rebuild through the public constructor, weight memo included."""
    rebuilt = LusztigDatum(d.kind, d.real, d.delta)
    assert all(type(entry) is RealEntry for entry in d.real)
    assert d == rebuilt and hash(d) == hash(rebuilt)
    assert d.weight == rebuilt.weight


def assert_bumps_match_with_mult(d):
    """Every exponent `crystal._raise` passes: unit steps, a power, and
    -held, which removes the entry."""
    for family in FAMILIES:
        held = d.mult(family, 1)
        for by in (1, -1, 3, -held):
            if held + by < 0:
                with pytest.raises(ValueError):
                    _bump(d, family, by)
                continue
            bumped = _bump(d, family, by)
            assert_matches_validated(bumped)
            assert bumped == d.with_mult(family, 1, held + by)


class TestTrustedPath:
    """Data and polytopes the library derives skip the public checks;
    each must equal what the validated constructors build from it."""

    @pytest.mark.parametrize("kind", KINDS)
    @settings(deadline=None, max_examples=60)
    @given(st.data())
    def test_graph_nodes_and_their_bumps(self, kind, data):
        b = data.draw(st.sampled_from(crystal_graph(kind, 6).nodes))
        assert DecoratedPolytope(b.left, b.right) == b
        for d in (b.left, b.right):
            assert_matches_validated(d)
            assert_bumps_match_with_mult(d)

    @pytest.mark.parametrize("kind", KINDS)
    @settings(deadline=None, max_examples=60)
    @given(st.data())
    def test_completions_and_their_bumps(self, kind, data):
        d = data.draw(bounded_data(kind, max_height=200))
        for P in (complete_from_left(d), complete_from_right(d)):
            assert DecoratedPolytope(P.left, P.right) == P
            for side in (P.left, P.right):
                assert_matches_validated(side)
                assert_bumps_match_with_mult(side)

    @pytest.mark.parametrize("kind", KINDS)
    def test_bumps_from_and_to_zero(self, kind):
        zero = datum(kind)
        for family in FAMILIES:
            up = _bump(zero, family, 1)
            assert up == datum(kind, {(family, 1): 1})
            assert up.weight == beta(kind, family, 1)
            down = _bump(up, family, -1)
            assert down == zero and down.weight == zero.weight
            with pytest.raises(ValueError, match=r">= 1, got -1$"):
                _bump(zero, family, -1)
        # Splicing at index 1 of one ladder keeps the other ladder and
        # the later indices in place.
        d = datum(kind, {(LOW, 2): 1, (HIGH, 1): 1, (HIGH, 3): 2}, (2,))
        assert_bumps_match_with_mult(d)
        assert_bumps_match_with_mult(_bump(d, LOW, 1))

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize(
        "real, delta",
        [
            ({(HIGH, 1): 2, (HIGH, 4): 1}, ()),  # no low run
            ({(HIGH, 2): 1, (HIGH, 3): 2}, (1,)),  # no low run, no high rung
            ({(LOW, 1): 1, (LOW, 3): 2}, (1,)),  # no high run
            ({(LOW, 2): 3, (LOW, 5): 1}, ()),  # no high run, no low rung
            ({(LOW, 2): 1, (LOW, 5): 1, (HIGH, 2): 3}, (2, 1)),  # neither rung
            ({(LOW, 1): 2, (HIGH, 3): 1, (HIGH, 6): 1}, ()),  # no high rung
            ({}, (3, 1)),  # no real entries
        ],
    )
    def test_bumps_splice_at_the_head_of_each_run(self, kind, real, delta):
        assert_bumps_match_with_mult(datum(kind, real, delta))

    @pytest.mark.parametrize("kind", KINDS)
    def test_enumerated_data(self, kind):
        for d in tiny_data(kind):
            assert_matches_validated(d)
