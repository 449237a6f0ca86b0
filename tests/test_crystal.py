"""Crystal layer: raising/lowering operators, statistics, involutions,
reflections, and graph generation.

Small operator words are frozen; structural identities (inverses, the
star intertwiner, reflection weights, the triangle/tube interaction of
the two raising families) are swept over small graphs for both kinds.
Hypothesis carries the string power `_raise` and the triangle/tube law
to random completions.  A cold graph searches each polytope once, from
whichever side it is reached first, and on sl2hat each {id, *, tau}
orbit once: a miss probes the cache once more for its diagram flip and
stores nothing extra.  Graph growth completes only its new nodes and
equals a reference growth that applies every operator.  The flip tests clear the cache between their two
sides, so neither is read from the other.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affmv import transition
from affmv.crystal import (
    CrystalGraph,
    _raise,
    crystal_graph,
    e,
    e_star,
    eps,
    eps_star,
    f,
    f_star,
    lowest,
    phi,
    phi_star,
    saito,
    saito_star,
    star,
    tau,
)
from affmv.lusztig import (
    PreconditionViolated,
    UnsupportedKind,
    datum,
    twist_s,
    twist_tau,
)
from affmv.polytope import is_mv
from affmv.roots import ALPHA0, ALPHA1, HIGH, LOW, ZERO, Algebra, simple_reflection
from affmv.transition import (
    DFS,
    _solve,
    clear_cache,
    complete_from_right,
    transition_l_to_r,
)
from conftest import KINDS
from test_transition import bounded_data

SWEEP_DEPTH = 5


def small_graph(kind):
    return crystal_graph(kind, SWEEP_DEPTH)


class TestFirstSteps:
    @pytest.mark.parametrize("kind", KINDS)
    def test_lowest_is_the_zero_polytope(self, kind):
        b = lowest(kind)
        assert b.left == b.right == datum(kind)
        assert not b.weight

    @pytest.mark.parametrize("kind", KINDS)
    def test_single_raises(self, kind):
        b = lowest(kind)
        up0 = e(0, b)
        assert up0.weight == ALPHA0
        assert up0.right == datum(kind, {(HIGH, 1): 1})
        up1 = e(1, b)
        assert up1.weight == ALPHA1
        assert up1.left == datum(kind, {(LOW, 1): 1})

    @pytest.mark.parametrize("node", (2, -1, "0"))
    def test_node_index_is_checked(self, node):
        b = e(0, lowest(Algebra.SL2_HAT))
        message = rf"^node index must be 0 or 1, got {node!r}$"
        for op in (e, f, e_star, f_star, phi, eps, phi_star, eps_star, saito):
            with pytest.raises(ValueError, match=message):
                op(node, b)
        with pytest.raises(ValueError, match=message):
            twist_s(b.left, node)

    @pytest.mark.parametrize("kind", KINDS)
    def test_lowering_at_the_wall_is_absent(self, kind):
        b = lowest(kind)
        for i in (0, 1):
            assert f(i, b) is None
            assert f_star(i, b) is None

    def test_starred_raises_split_the_sides(self):
        # Two starred alpha0-raises on top of one alpha1-raise: the left
        # datum keeps collecting high-ladder steps while the right one
        # re-completes through the imaginary decoration.
        sl2 = Algebra.SL2_HAT
        b = e_star(0, e_star(0, e(1, lowest(sl2))))
        assert b.left == datum(sl2, {(LOW, 1): 1, (HIGH, 1): 2})
        assert b.right == datum(sl2, {(HIGH, 2): 1})

        a22 = Algebra.A2_TWISTED
        b = e_star(0, e_star(0, e(1, lowest(a22))))
        assert b.left == datum(a22, {(LOW, 1): 1, (HIGH, 1): 2})
        assert b.right == datum(a22, {(HIGH, 1): 1, (HIGH, 2): 1})

    @pytest.mark.parametrize("kind", KINDS)
    def test_statistics_at_an_alpha1_step(self, kind):
        b = e(1, lowest(kind))
        assert phi(0, b) == 0 and phi_star(0, b) == 0
        # eps = phi - <alpha0^v, wt>: negative pairing makes it positive.
        assert eps(0, b) == (2 if kind is Algebra.SL2_HAT else 1)
        assert eps_star(0, b) == eps(0, b)
        assert phi(1, b) == 1 and eps(1, b) == -1


class TestInverses:
    @pytest.mark.parametrize("kind", KINDS)
    def test_lowering_inverts_raising_everywhere(self, kind):
        for b in small_graph(kind).nodes:
            for i in (0, 1):
                assert f(i, e(i, b)) == b
                assert f_star(i, e_star(i, b)) == b
                down = f(i, b)
                if down is not None:
                    assert e(i, down) == b
                down = f_star(i, b)
                if down is not None:
                    assert e_star(i, down) == b

    @pytest.mark.parametrize("kind", KINDS)
    def test_phi_counts_lowering_steps(self, kind):
        for b in small_graph(kind).nodes:
            for i in (0, 1):
                steps = 0
                cur = b
                while (down := f(i, cur)) is not None:
                    cur = down
                    steps += 1
                assert steps == phi(i, b)


class TestStar:
    @pytest.mark.parametrize("kind", KINDS)
    def test_star_swaps_the_sides(self, kind):
        for b in small_graph(kind).nodes:
            s = star(b)
            assert s.left == b.right and s.right == b.left
            assert star(s) == b
            assert s.weight == b.weight

    @pytest.mark.parametrize("kind", KINDS)
    def test_star_intertwines_the_two_operator_families(self, kind):
        for b in small_graph(kind).nodes:
            for i in (0, 1):
                assert star(e(i, star(b))) == e_star(i, b)
                assert phi(i, star(b)) == phi_star(i, b)
                assert eps(i, star(b)) == eps_star(i, b)


class TestTau:
    def test_flip_conjugates_the_node_labels(self):
        g = small_graph(Algebra.SL2_HAT)
        for b in g.nodes:
            t = tau(b)
            assert tau(t) == b
            for i in (0, 1):
                assert phi(i, t) == phi(1 - i, b)
                flipped = tau(e(1 - i, b))
                clear_cache()  # so that e(i, t) is searched, not read from a flip
                assert e(i, t) == flipped

    def test_flip_needs_the_symmetric_diagram(self):
        with pytest.raises(UnsupportedKind):
            tau(lowest(Algebra.A2_TWISTED))


class TestSaito:
    @pytest.mark.parametrize("kind", KINDS)
    def test_reflections_fix_the_lowest_element(self, kind):
        b = lowest(kind)
        for i in (0, 1):
            assert saito(i, b) == b
            assert saito_star(i, b) == b

    def test_frozen_alpha1_string_reflection(self):
        sl2 = Algebra.SL2_HAT
        s = saito(0, e(1, lowest(sl2)))
        assert s.left == datum(sl2, {(HIGH, 2): 1})
        assert s.right == datum(sl2, {(LOW, 1): 1, (HIGH, 1): 2})
        a22 = Algebra.A2_TWISTED
        s = saito(0, e(1, lowest(a22)))
        assert s.left == datum(a22, {(HIGH, 2): 1})
        assert s.right == datum(a22, {(LOW, 1): 1, (HIGH, 1): 1})

    @pytest.mark.parametrize("kind", KINDS)
    def test_reflections_mirror_under_star(self, kind):
        for b in small_graph(kind).nodes:
            for i in (0, 1):
                if phi(i, b) == 0:
                    assert star(saito(i, b)) == saito_star(i, star(b))

    @pytest.mark.parametrize("kind", KINDS)
    def test_reflection_weights(self, kind):
        for b in small_graph(kind).nodes:
            for i in (0, 1):
                if phi(i, b) == 0:
                    assert saito(i, b).weight == simple_reflection(
                        kind, i, b.weight
                    )
                if phi_star(i, b) == 0:
                    assert saito_star(i, b).weight == simple_reflection(
                        kind, i, b.weight
                    )

    @pytest.mark.parametrize("kind", KINDS)
    def test_domain_is_enforced(self, kind):
        b = e(0, lowest(kind))  # phi_0 = phi_0* = 1
        with pytest.raises(PreconditionViolated):
            saito(0, b)
        with pytest.raises(PreconditionViolated):
            saito_star(0, b)


class TestStrings:
    """One solve per string: `_raise(i, b, by)` against the unit steps
    of e and f, on b = complete_from_right(d) for a random datum d and
    on star(b)."""

    @pytest.mark.parametrize("kind", KINDS)
    @settings(deadline=None, max_examples=40)
    @given(st.data())
    def test_a_power_is_the_unit_steps(self, kind, data):
        b = complete_from_right(data.draw(bounded_data(kind, max_height=60)))
        for x in (b, star(b)):
            for i in (0, 1):
                powers = [_raise(i, x, n) for n in range(5)]
                steps = [x]
                for _ in range(4):
                    steps.append(e(i, steps[-1]))
                assert powers == steps
                down = x
                while (step := f(i, down)) is not None:
                    down = step
                assert _raise(i, x, -phi(i, x)) == down


def merge_level(i, b):
    return eps(i, b) + phi_star(i, b)


def assert_triangle_tube_law(i, b):
    """m = eps_i + phi_i* locates b in its triangle/tube block:
    nonpositive in the tube (both raises coincide), one on the merge
    row (they land in different columns), larger inside the triangle
    (they commute)."""
    m = merge_level(i, b)
    assert m == eps_star(i, b) + phi(i, b)
    same = e(i, b) == e_star(i, b)
    commute = e(i, e_star(i, b)) == e_star(i, e(i, b))
    if m <= 0:
        assert same and commute
    elif m == 1:
        assert not same and not commute
    else:
        assert not same and commute


class TestTriangleTubeStructure:
    @pytest.mark.parametrize("kind", KINDS)
    def test_merge_level_classifies_the_interaction(self, kind):
        for b in small_graph(kind).nodes:
            for i in (0, 1):
                assert_triangle_tube_law(i, b)

    @pytest.mark.parametrize("kind", KINDS)
    @settings(deadline=None, max_examples=40)
    @given(st.data())
    def test_the_law_holds_on_completions(self, kind, data):
        """Off the graphs, on b = complete_from_right(d) for a random
        datum d.  Above the tube each e_i* lowers the merge level by
        one, so e_i*^(m - k) b sits at level k: the law is checked there
        for k = 2, 1, 0 as well, so every b with m >= 2 reaches all three
        cases."""
        b = complete_from_right(data.draw(bounded_data(kind, max_height=60)))
        for i in (0, 1):
            assert_triangle_tube_law(i, b)
            m = merge_level(i, b)
            assert m >= 0
            for k in range(min(m, 2), -1, -1):
                x = star(_raise(i, star(b), m - k))
                assert merge_level(i, x) == k
                assert_triangle_tube_law(i, x)


# Graphs of the frozen sweep sizes (257 and 78 nodes).
KS_DEPTH = {Algebra.SL2_HAT: 8, Algebra.A2_TWISTED: 6}


class TestKashiwaraSaito:
    """Conditions (ii) and (v) of Kashiwara-Saito's characterization of
    B(-infinity), on every node of the frozen sweep graphs; `verify`
    checks (iii), (iv) and (vi)."""

    @pytest.mark.parametrize("kind", KINDS)
    def test_e_i_commutes_with_the_other_starred_raise(self, kind):
        # (ii): e_i e_j* == e_j* e_i for i != j.
        for b in crystal_graph(kind, KS_DEPTH[kind]).nodes:
            for i, j in ((0, 1), (1, 0)):
                assert e(i, e_star(j, b)) == e_star(j, e(i, b))

    @pytest.mark.parametrize("kind", KINDS)
    def test_off_the_tube_a_raise_keeps_the_other_string_length(self, kind):
        # (v): merge >= 1 implies phi_i*(e_i b) == phi_i*(b) and
        # phi_i(e_i* b) == phi_i(b).
        merged = 0
        for b in crystal_graph(kind, KS_DEPTH[kind]).nodes:
            for i in (0, 1):
                if eps(i, b) + phi_star(i, b) >= 1:
                    merged += 1
                    assert phi_star(i, e(i, b)) == phi_star(i, b)
                    assert phi(i, e_star(i, b)) == phi(i, b)
        assert merged  # the condition was exercised


def operator_graph(kind, depth):
    """Reference growth: every raising operator on every inner node, each
    target looked up by its polytope."""
    ops = (
        ("e0", e, 0, ALPHA0),
        ("e1", e, 1, ALPHA1),
        ("e0*", e_star, 0, ALPHA0),
        ("e1*", e_star, 1, ALPHA1),
    )
    nodes = [lowest(kind)]
    index = {nodes[0]: 0}
    node_depths, node_weights, edges = [0], [ZERO], []
    frontier = [0]
    for level in range(depth):
        new_frontier = []
        for src in frontier:
            for label, op, i, alpha in ops:
                target = op(i, nodes[src])
                if target not in index:
                    index[target] = len(nodes)
                    nodes.append(target)
                    node_depths.append(level + 1)
                    node_weights.append(node_weights[src] + alpha)
                    new_frontier.append(index[target])
                edges.append((src, label, index[target]))
        frontier = new_frontier
    return CrystalGraph(
        kind, depth, tuple(nodes), tuple(node_depths), tuple(node_weights), tuple(edges)
    )


class TestGraphs:
    def test_first_shell(self):
        g = crystal_graph(Algebra.SL2_HAT, 1)
        assert g._fields == (
            "kind", "depth", "nodes", "node_depths", "node_weights", "edges"
        )
        assert (g.kind, g.depth, g.node_depths) == (Algebra.SL2_HAT, 1, (0, 1, 1))
        assert len(g.nodes) == 3 and len(g.edges) == 4
        labels = sorted(label for _, label, _ in g.edges)
        assert labels == ["e0", "e0*", "e1", "e1*"]

    @pytest.mark.parametrize("kind", KINDS)
    def test_second_shell(self, kind):
        g = crystal_graph(kind, 2)
        assert len(g.nodes) == 7 and len(g.edges) == 12

    def test_frozen_sweep_sizes(self):
        g = crystal_graph(Algebra.SL2_HAT, 8)
        assert (len(g.nodes), len(g.edges)) == (257, 628)
        g = crystal_graph(Algebra.A2_TWISTED, 6)
        assert (len(g.nodes), len(g.edges)) == (78, 184)

    @pytest.mark.parametrize("kind", KINDS)
    def test_nodes_are_unique_and_indexed(self, kind):
        g = small_graph(kind)
        assert len(set(g.nodes)) == len(g.nodes)
        for idx, b in enumerate(g.nodes):
            assert g.nodes.index(b) == idx
            assert g.node_weights[idx] == b.weight

    @pytest.mark.parametrize("kind", KINDS)
    def test_edges_match_the_operators(self, kind):
        g = small_graph(kind)
        ops = {"e0": (e, 0), "e1": (e, 1), "e0*": (e_star, 0), "e1*": (e_star, 1)}
        for src, label, dst in g.edges:
            op, i = ops[label]
            assert op(i, g.nodes[src]) == g.nodes[dst]

    @pytest.mark.parametrize("kind", KINDS)
    def test_every_node_is_a_valid_polytope(self, kind):
        for b in small_graph(kind).nodes:
            assert is_mv(b).ok
            assert b.left.weight == b.right.weight == b.weight
            clear_cache()  # so that b.right is searched, not read back
            assert complete_from_right(b.right).left == b.left

    @pytest.mark.parametrize("kind", KINDS)
    def test_a_cold_graph_searches_each_polytope_once(self, kind, monkeypatch):
        """A solve caches T both ways, so e_i and e_i* reaching one
        polytope from its two sides search it once; on sl2hat a miss also
        reads the cached flip, so no two searched data lie in one
        {id, *, tau} orbit."""
        searched = []
        join = transition._join

        def counting(known, *args):
            searched.append(known)
            return join(known, *args)

        monkeypatch.setattr(transition, "_join", counting)
        clear_cache()
        crystal_graph(kind, 8)
        orbits = set()
        for d in searched:
            pair = (d, transition_l_to_r(d))
            if kind is Algebra.SL2_HAT:
                pair += tuple(twist_tau(x) for x in pair)
            orbits.add(frozenset(pair))
        assert len(orbits) == len(searched)
        assert len(searched) == {Algebra.SL2_HAT: 89, Algebra.A2_TWISTED: 126}[kind]

    @pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
    @pytest.mark.parametrize(
        "kind, depth", [(Algebra.SL2_HAT, 10), (Algebra.A2_TWISTED, 8)]
    )
    def test_growth_equals_the_operator_breadth_first_search(self, kind, depth, warm):
        """Finding each target by the datum its raiser fixes grows the
        graph that applying every operator and matching polytopes grows."""
        clear_cache()
        if warm:
            want = operator_graph(kind, depth)
        got = crystal_graph(kind, depth)
        if not warm:
            want = operator_graph(kind, depth)
        for field in ("nodes", "node_depths", "node_weights", "edges"):
            assert getattr(got, field) == getattr(want, field), field

    @pytest.mark.parametrize(
        "kind, depth", [(Algebra.SL2_HAT, 8), (Algebra.A2_TWISTED, 6)]
    )
    def test_a_cold_graph_completes_only_new_nodes(self, kind, depth, monkeypatch):
        """An edge to a node already held completes nothing: each node
        but the lowest is completed once, from the datum that found it."""
        completed = []
        partner = transition._partner

        def counting(known, solver):
            completed.append(known)
            return partner(known, solver)

        monkeypatch.setattr(transition, "_partner", counting)
        clear_cache()
        g = crystal_graph(kind, depth)
        assert len(completed) == len(g.nodes) - 1
        for d, b in zip(completed, g.nodes[1:]):
            assert d in (b.left, b.right)

    def test_a_cold_graph_completes_every_node_by_search(self):
        """Nodes whose polytope came from a cached flip agree with a search."""
        clear_cache()
        for b in crystal_graph(Algebra.SL2_HAT, 10).nodes:
            assert b.right == _solve(b.left, DFS)
