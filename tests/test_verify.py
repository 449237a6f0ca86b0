"""Verification layer: report structure and small-scale suite runs.

The full-scale sweeps live in the acceptance tests; here every suite is
exercised at a reduced box/depth so failures localize quickly, and the
report type itself is pinned down.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affmv import crystal, transition
from affmv.crystal import crystal_graph
from affmv.lusztig import _real_parts, enumerate_data
from affmv.polytope import (
    _left_partners,
    mv_violations,
    path_prefixes,
    weight_truncation_index,
)
from affmv.roots import Algebra, RootVector
from affmv.verify import (
    Report,
    _box_weights,
    _saito_formula,
    check_axioms,
    check_crystal_axioms,
    check_saito_formulas,
    check_star_negation,
    check_uniqueness,
)
from conftest import KINDS
from test_lusztig import count_data
from test_transition import bounded_data

SMALL_DEPTH = 4
SMALL_BOXES = {
    Algebra.SL2_HAT: RootVector(3, 3),
    Algebra.A2_TWISTED: RootVector(2, 4),
}


def unit_step_formula(i, b, starred, n=None):
    """The reflection formula one operator step at a time: the reference
    for `verify._saito_formula`, which takes each string in one solve."""
    if starred:
        raise_, lower, threshold = crystal.e_star, crystal.f, crystal.eps
    else:
        raise_, lower, threshold = crystal.e, crystal.f_star, crystal.eps_star
    for _ in range(max(0, threshold(i, b)) if n is None else n):
        b = raise_(i, b)
    while (down := lower(i, b)) is not None:
        b = down
    return b


class TestReport:
    def test_passed_tracks_failures(self):
        ok = Report("demo", Algebra.SL2_HAT, "scope", (("n", 1),), (), ())
        assert ok.passed and "PASS" in str(ok)
        bad = Report("demo", Algebra.SL2_HAT, "scope", (), ("broken",), ())
        assert not bad.passed and "FAIL" in str(bad)
        assert "broken" in str(bad)

    def test_count_defaults_to_zero(self):
        r = Report("demo", Algebra.SL2_HAT, "scope", (("hits", 7),), (), ())
        assert r.count("hits") == 7
        assert r.count("absent") == 0

    def test_lines_include_counts_and_notes(self):
        r = Report(
            "demo",
            Algebra.SL2_HAT,
            "scope",
            (("hits", 7),),
            (),
            ("something to know",),
        )
        text = "\n".join(r.lines())
        assert "hits: 7" in text
        assert "note: something to know" in text


class TestUniqueness:
    @pytest.mark.parametrize("kind", KINDS)
    def test_small_box_passes(self, kind):
        rep = check_uniqueness(kind, SMALL_BOXES[kind])
        assert rep.passed
        assert rep.count("completion count failures") == 0
        assert rep.count("swap symmetry failures") == 0
        assert rep.count("dfs mismatches") == 0
        # Every datum is completed by the solver once per side.
        assert rep.count("dfs completions") == 2 * rep.count("data checked")

    def test_the_search_runs_on_every_datum(self, monkeypatch):
        """A solve caches its partner's answer too; the check searches
        each datum afresh all the same.  The walks are shared per half,
        so the per-datum join is what is counted."""
        searched = []
        join = transition._join

        def counting(known, *args):
            searched.append(known)
            return join(known, *args)

        monkeypatch.setattr(transition, "_join", counting)
        transition.clear_cache()
        rep = check_uniqueness(Algebra.SL2_HAT, RootVector(3, 3))
        assert rep.passed
        assert len(searched) == len(set(searched)) == rep.count("data checked")

    def test_weight_notes_partition_the_box(self):
        rep = check_uniqueness(Algebra.SL2_HAT, RootVector(2, 2))
        noted = sum(int(n.rsplit(" ", 2)[1]) for n in rep.notes)
        assert noted == rep.count("data checked")


class TestPairing:
    """The shared half-path scan against the n^2 brute-force matrix."""

    BOXES = {
        Algebra.SL2_HAT: RootVector(6, 6),
        Algebra.A2_TWISTED: RootVector(4, 8),
    }

    @pytest.mark.parametrize("kind", KINDS)
    def test_rows_equal_the_brute_force_matrix(self, kind):
        for w in _box_weights(self.BOXES[kind]):
            data = enumerate_data(kind, w)
            K = weight_truncation_index(kind, w)
            pre = [path_prefixes(d, K) for d in data]
            brute = [
                [
                    j
                    for j, dr in enumerate(data)
                    if not mv_violations(kind, pre[i], pre[j], dl.delta, dr.delta, True)
                ]
                for i, dl in enumerate(data)
            ]
            hits, judged = _left_partners(kind, w, data, _real_parts(kind, w), {})
            assert judged == len(data), w
            rows = [[] for _ in data]
            for i, j, real, parts in hits:
                assert (real, parts) == (data[i].real, data[i].delta), w
                rows[i].append(j)
            assert rows == brute, w
            # The paper's uniqueness: one partner per row and per column,
            # so a fault shared by both sides still shows.
            partners = [row[0] for row in brute if len(row) == 1]
            assert sorted(partners) == list(range(len(data))), w


class TestUniquenessPastDeskScale:
    """Larger boxes than the CLI defaults; data counted independently."""

    @pytest.mark.parametrize(
        "kind, box",
        [(Algebra.SL2_HAT, RootVector(8, 8)), (Algebra.A2_TWISTED, RootVector(5, 10))],
    )
    def test_uniqueness_holds(self, kind, box):
        rep = check_uniqueness(kind, box)
        assert rep.passed, rep.failures[:3]
        expected = sum(count_data(kind, w) for w in _box_weights(box))
        assert rep.count("data checked") == expected
        assert expected == {Algebra.SL2_HAT: 3735, Algebra.A2_TWISTED: 1603}[kind]
        assert rep.count("dfs completions") == 2 * expected


class TestNodeSweeps:
    @pytest.mark.parametrize("kind", KINDS)
    def test_axioms_pass_at_small_depth(self, kind):
        rep = check_axioms(kind, SMALL_DEPTH)
        assert rep.passed
        assert rep.count("(W) weights") == len(
            crystal_graph(kind, SMALL_DEPTH).nodes
        )
        assert rep.count("(I) nodes") >= 1

    @pytest.mark.parametrize("kind", KINDS)
    def test_star_negation_passes_at_small_depth(self, kind):
        rep = check_star_negation(kind, SMALL_DEPTH)
        assert rep.passed
        assert rep.count("nodes checked") == len(
            crystal_graph(kind, SMALL_DEPTH).nodes
        )

    @pytest.mark.parametrize("kind", KINDS)
    def test_saito_formulas_pass_at_small_depth(self, kind):
        rep = check_saito_formulas(kind, SMALL_DEPTH)
        assert rep.passed
        assert rep.count("reflection nodes") > 0
        # Three exponents are tried per eligible node and side.
        assert rep.count("formula evaluations") == 3 * (
            rep.count("reflection nodes") + rep.count("starred reflection nodes")
        )
        assert rep.count("opposite pairing mismatches") > 0

    @pytest.mark.parametrize("kind", KINDS)
    def test_saito_sweep_sees_a_string_that_raises_too_far(self, kind, monkeypatch):
        """Past the threshold the formulas cannot tell how far a string
        went; the sweep's unit-step comparison can, with no count added."""
        passing = check_saito_formulas(kind, SMALL_DEPTH)
        raise_ = crystal._raise

        def too_far(i, b, by):
            return raise_(i, b, by + 1 if by > 1 else by)

        monkeypatch.setattr(crystal, "_raise", too_far)
        rep = check_saito_formulas(kind, SMALL_DEPTH)
        assert not rep.passed
        assert "node 0: e_0^2 in one solve is not 2 unit steps" in rep.failures
        assert rep.counts == passing.counts

    @pytest.mark.parametrize("kind", KINDS)
    @settings(deadline=None, max_examples=50)
    @given(st.data())
    def test_saito_formula_on_random_completions(self, kind, data):
        """The operator formula equals the twist-defined reflection off
        the graphs: on b = complete_from_right(d) for a random datum d
        and on star(b), wherever the reflection is defined."""
        d = data.draw(bounded_data(kind, max_height=60))
        b = transition.complete_from_right(d)
        for x in (b, crystal.star(b)):
            for i in (0, 1):
                if crystal.phi(i, x) == 0:
                    assert _saito_formula(i, x, starred=False) == crystal.saito(i, x)

    @pytest.mark.parametrize("kind", KINDS)
    @settings(deadline=None, max_examples=40)
    @given(st.data())
    def test_one_solve_strings_equal_the_unit_steps(self, kind, data):
        """`_saito_formula` against `unit_step_formula`, both formulas,
        from the threshold exponent to two past it, on a random
        completion and its star, inside the reflections' domain or not."""
        d = data.draw(bounded_data(kind, max_height=60))
        b = transition.complete_from_right(d)
        thresholds = {False: crystal.eps_star, True: crystal.eps}
        for x in (b, crystal.star(b)):
            for i in (0, 1):
                for starred, threshold in thresholds.items():
                    n0 = max(0, threshold(i, x))
                    assert _saito_formula(i, x, starred) == unit_step_formula(
                        i, x, starred
                    )
                    for n in range(n0, n0 + 3):
                        assert _saito_formula(i, x, starred, n) == unit_step_formula(
                            i, x, starred, n
                        )

    @pytest.mark.parametrize("kind", KINDS)
    def test_crystal_axioms_pass_at_small_depth(self, kind):
        rep = check_crystal_axioms(kind, SMALL_DEPTH)
        assert rep.passed
        assert rep.count("lowest candidates") == 1
        nodes = len(crystal_graph(kind, SMALL_DEPTH).nodes)
        classified = (
            rep.count("tube nodes")
            + rep.count("merge row nodes")
            + rep.count("commutation checks")
        )
        # Each node is classified once per node index i.
        assert classified == 2 * nodes

    def test_negative_merge_level_is_a_failure(self, monkeypatch):
        # Shifting eps (and with it eps*) keeps the two readings of the
        # merge level equal, so only condition (iii) can catch it.
        eps = crystal.eps
        monkeypatch.setattr(crystal, "eps", lambda i, b: eps(i, b) - 3)
        rep = check_crystal_axioms(Algebra.SL2_HAT, SMALL_DEPTH)
        assert "node 0: merge level -3 is negative for i=0" in rep.failures
        assert "node 0: merge level is side-dependent for i=0" not in rep.failures

    @pytest.mark.parametrize("kind", KINDS)
    def test_shared_graph_gives_identical_reports(self, kind):
        g = crystal_graph(kind, SMALL_DEPTH)
        assert check_axioms(kind, SMALL_DEPTH, graph=g) == check_axioms(
            kind, SMALL_DEPTH
        )
