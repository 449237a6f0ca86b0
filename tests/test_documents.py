"""JSON document layer: strict parsing, canonical serialization, DOT.

Round trips must be identity maps; every malformed input family gets a
DocumentError with the field named; serialization is deterministic.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affmv import cli
from affmv.crystal import crystal_graph
from affmv.documents import (
    DocumentError,
    datum_to_obj,
    dumps,
    graph_to_dot,
    parse_datum,
    parse_polytope,
    polytope_to_obj,
    short_form,
)
from affmv.lusztig import datum
from affmv.polytope import DecoratedPolytope, is_mv
from affmv.roots import HIGH, LOW, Algebra
from conftest import (
    KINDS,
    reference_left_datum,
    reference_right_datum,
)


class TestDatumDocuments:
    @pytest.mark.parametrize("kind", KINDS)
    def test_round_trip(self, kind):
        d = datum(kind, {(LOW, 1): 2, (HIGH, 3): 1}, (4, 1, 1))
        assert parse_datum(json.loads(dumps(datum_to_obj(d)))) == d

    def test_zero_datum_document(self):
        obj = datum_to_obj(datum(Algebra.SL2_HAT))
        assert obj == {"algebra": "sl2hat", "real": [], "delta": []}
        assert parse_datum(obj) == datum(Algebra.SL2_HAT)

    def test_optional_fields_may_be_omitted(self):
        d = parse_datum({"algebra": "a2(2)"})
        assert d == datum(Algebra.A2_TWISTED)

    @pytest.mark.parametrize(
        "broken",
        [
            "not an object",
            {},
            {"algebra": "e8"},
            {"algebra": ["sl2hat"]},
            {"algebra": "sl2hat", "extra": 1},
            {"algebra": "sl2hat", "real": {}},
            {"algebra": "sl2hat", "real": ["low"]},
            {"algebra": "sl2hat", "real": [{"family": "low", "k": 1}]},
            {"algebra": "sl2hat", "real": [{"family": "mid", "k": 1, "mult": 1}]},
            {"algebra": "sl2hat", "real": [{"family": "low", "k": 0, "mult": 1}]},
            {"algebra": "sl2hat", "real": [{"family": "low", "k": 1, "mult": 0}]},
            {"algebra": "sl2hat", "real": [{"family": "low", "k": 1, "mult": True}]},
            {
                "algebra": "sl2hat",
                "real": [
                    {"family": "low", "k": 1, "mult": 1},
                    {"family": "low", "k": 1, "mult": 2},
                ],
            },
            {"algebra": "sl2hat", "delta": 3},
            {"algebra": "sl2hat", "delta": [0]},
            {"algebra": "sl2hat", "delta": [1, 2]},
            {"algebra": "sl2hat", "delta": [True]},
        ],
    )
    def test_malformed_documents_are_rejected(self, broken):
        with pytest.raises(DocumentError):
            parse_datum(broken)


class TestPolytopeDocuments:
    def test_round_trip_with_verdict_and_vertices(self, reference_pair):
        obj = polytope_to_obj(reference_pair, with_vertices=True)
        assert obj["weight"] == [20, 22]
        assert obj["mv"] is True and obj["violations"] == []
        assert obj["vertices"]["mu_r"][3] == [3, 7]
        back = parse_polytope(json.loads(dumps(obj)))
        assert back == reference_pair

    def test_verdict_is_recomputed_by_default(self):
        d = datum(Algebra.SL2_HAT, {(LOW, 1): 1, (HIGH, 1): 1})
        obj = polytope_to_obj(DecoratedPolytope(d, d))
        assert obj["mv"] is False
        assert [v["condition"] for v in obj["violations"]] == [1, 2]

    def test_supplied_verdict_is_reused(self, reference_pair):
        verdict = is_mv(reference_pair)
        obj = polytope_to_obj(reference_pair, verdict=verdict)
        assert obj["mv"] is True

    def test_weight_mismatch_is_rejected(self):
        left = datum_to_obj(datum(Algebra.SL2_HAT, {(LOW, 1): 1}))
        right = datum_to_obj(datum(Algebra.SL2_HAT, {(HIGH, 1): 1}))
        with pytest.raises(DocumentError):
            parse_polytope({"left": left, "right": right})

    def test_mixed_algebras_are_rejected(self):
        with pytest.raises(DocumentError):
            parse_polytope(
                {
                    "left": datum_to_obj(datum(Algebra.SL2_HAT)),
                    "right": datum_to_obj(datum(Algebra.A2_TWISTED)),
                }
            )

    def test_declared_weight_must_match(self):
        obj = {
            "left": datum_to_obj(datum(Algebra.SL2_HAT)),
            "right": datum_to_obj(datum(Algebra.SL2_HAT)),
            "weight": [1, 0],
        }
        with pytest.raises(DocumentError):
            parse_polytope(obj)

    def test_missing_side_is_rejected(self):
        with pytest.raises(DocumentError):
            parse_polytope({"left": datum_to_obj(datum(Algebra.SL2_HAT))})


def indented(obj):
    """The reference bytes `dumps` must reproduce."""
    return json.dumps(obj, indent=2) + "\n"


_INTS = st.integers() | st.integers(-(10**4000 - 1), 10**4000 - 1)
_SCALARS = (
    st.none()
    | st.booleans()
    | st.floats()  # NaN and both infinities included
    | _INTS
    | st.text()
    | st.text(st.characters(max_codepoint=0x1F))  # control characters
    | st.text(st.characters(min_codepoint=0x80))  # non-ASCII
    # the writer's two joined shapes, and near misses of them
    | st.lists(_INTS)
    | st.lists(st.lists(_INTS, min_size=2, max_size=2))
    | st.lists(st.lists(_INTS | st.booleans() | st.floats(), min_size=1, max_size=3))
)
_VALUES = st.recursive(
    _SCALARS,
    lambda inner: st.lists(inner) | st.dictionaries(st.text(), inner),
    max_leaves=25,
)


class TestWriter:
    @settings(deadline=None, max_examples=200)
    @given(_VALUES)
    def test_dumps_is_indented_json(self, obj):
        assert dumps(obj) == indented(obj)

    @pytest.mark.parametrize(
        "obj", [{}, [], [{}], [[]], {"": []}, [[1, 2]], [[1, True]], [1, 2.0], "\x00\u00e9"]
    )
    def test_edge_shapes(self, obj):
        assert dumps(obj) == indented(obj)

    def test_datum_document(self, reference_right):
        obj = datum_to_obj(reference_right)
        assert dumps(obj) == indented(obj)
        zero = datum_to_obj(datum(Algebra.A2_TWISTED))
        assert dumps(zero) == indented(zero)

    @pytest.mark.parametrize("with_vertices", [False, True])
    def test_polytope_document(self, reference_pair, with_vertices):
        obj = polytope_to_obj(reference_pair, with_vertices=with_vertices)
        assert dumps(obj) == indented(obj)

    def test_violations_document(self):
        d = datum(Algebra.SL2_HAT, {(LOW, 1): 1, (HIGH, 1): 1})
        obj = polytope_to_obj(DecoratedPolytope(d, d), with_vertices=True)
        assert obj["violations"] and dumps(obj) == indented(obj)
        assert dumps(obj["violations"]) == indented(obj["violations"])

    @pytest.mark.parametrize("kind", ["sl2hat", "a2(2)"])
    def test_verify_all_report(self, capsys, kind):
        code = cli.main(["verify", "all", "--kind", kind, "--json"])
        out = capsys.readouterr().out
        assert code == cli.EXIT_OK
        assert out == indented(json.loads(out))


class TestShortForm:
    def test_reference_pair(self):
        assert short_form(reference_right_datum()) == "l1x2 l2x1 l3x1 h1x1 h3x1 (9,2,1,1)"
        assert (
            short_form(reference_left_datum())
            == "l1x5 l2x1 l4x1 h1x1 h2x2 h3x1 h4x1 (2,1,1)"
        )

    def test_zero(self):
        assert short_form(datum(Algebra.SL2_HAT)) == "0"


class TestDot:
    @pytest.mark.parametrize("kind", KINDS)
    def test_graph_export_shape(self, kind):
        g = crystal_graph(kind, 2)
        dot = graph_to_dot(g)
        assert dot.startswith("digraph crystal {")
        assert dot.rstrip().endswith("}")
        assert dot.count(" [label=") == len(g.nodes) + len(g.edges) + 1
        assert graph_to_dot(g) == dot

    def test_first_shell_is_byte_stable(self):
        dot = graph_to_dot(crystal_graph(Algebra.SL2_HAT, 1))
        assert dot == (
            "digraph crystal {\n"
            '  graph [label="sl2hat depth 1", rankdir=BT];\n'
            "  node [shape=box];\n"
            '  n0 [label="0 wt=(0,0)"];\n'
            '  n1 [label="h1x1 wt=(1,0)"];\n'
            '  n2 [label="l1x1 wt=(0,1)"];\n'
            '  n0 -> n1 [label="e0"];\n'
            '  n0 -> n2 [label="e1"];\n'
            '  n0 -> n1 [label="e0*"];\n'
            '  n0 -> n2 [label="e1*"];\n'
            "}\n"
        )
