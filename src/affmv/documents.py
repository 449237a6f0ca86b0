"""JSON documents, canonical short forms, and DOT export.

The datum document is the single interchange format: algebra tag, a list
of real-root multiplicities, and the imaginary partition.  A polytope
document wraps two datum documents with the derived weight and verdict.
Parsing is strict: unknown fields, zero multiplicities, duplicate roots
and unsorted partitions are all rejected, so parse and serialize are
mutually inverse on everything the tool emits.
"""

from __future__ import annotations

import json
from itertools import chain
from typing import TYPE_CHECKING, Any, Callable

from .lusztig import LusztigDatum, _check_entry, _check_partition, datum
from .polytope import MAX_PATH_INDEX, DecoratedPolytope, MVVerdict, is_mv, vertices
from .roots import LOW, Algebra

if TYPE_CHECKING:
    from .crystal import CrystalGraph

__all__ = [
    "DocumentError",
    "parse_datum",
    "datum_to_obj",
    "parse_polytope",
    "polytope_to_obj",
    "short_form",
    "graph_to_dot",
    "dumps",
]

# Multiplicities and parts have at most 4,000 digits.  Every integer a
# command prints is at most a sum of them, one term per entry or part,
# each times a root coordinate of at most 2^22 (k is at most
# `MAX_PATH_INDEX`) and a small constant, so it stays some 290 digits
# under the interpreter's 4,300-digit limit on converting an int to a
# string.  No message formats a number past these bounds.
_TOO_LONG = 10**4000


class DocumentError(ValueError):
    """The input does not conform to the document schema."""


def dumps(obj: Any) -> str:
    """Deterministic JSON rendering used by every command.

    The bytes are those of `json.dumps(obj, indent=2) + "\\n"` for every
    value with string keys; with an indent, `json` runs its pure-Python
    encoder, so this writes dicts and lists itself.  Strings go through
    the C escaper `json` uses, ints through `int.__repr__`, and other
    scalars through `json.dumps`.  A list of ints and a list of int pairs
    (the vertex paths) are one join each.
    """
    out: list[str] = []
    _write(obj, "\n", out)
    out.append("\n")
    return "".join(out)


_escape = json.encoder.encode_basestring_ascii


def _write(obj: Any, nl: str, out: list[str]) -> None:
    """Append obj's indented JSON to out; nl is a newline and its indent."""
    if isinstance(obj, str):
        out.append(_escape(obj))
    elif type(obj) is int:
        out.append(int.__repr__(obj))
    elif isinstance(obj, (list, tuple)) and obj:
        inner = nl + "  "
        types = set(map(type, obj))
        if types == {int}:
            out.append(f"[{inner}{(',' + inner).join(map(int.__repr__, obj))}{nl}]")
            return
        if types == {list} and set(map(len, obj)) == {2}:
            flat = list(chain.from_iterable(obj))
            if set(map(type, flat)) == {int}:
                deeper = inner + "  "
                pair = f"[{deeper}{{}},{deeper}{{}}{inner}]".format
                rows = (',' + inner).join(map(pair, flat[::2], flat[1::2]))
                out.append(f"[{inner}{rows}{nl}]")
                return
        sep = "[" + inner
        for item in obj:
            out.append(sep)
            _write(item, inner, out)
            sep = "," + inner
        out.append(nl + "]")
    elif isinstance(obj, dict) and obj:
        inner = nl + "  "
        sep = "{" + inner
        for key, value in obj.items():
            out.append(f"{sep}{_escape(key)}: ")
            _write(value, inner, out)
            sep = "," + inner
        out.append(nl + "}")
    else:  # None, bools, floats, ints of other types, empty dicts and lists
        out.append(json.dumps(obj))


def _require_keys(obj: dict, required: tuple[str, ...], optional: tuple[str, ...], what: str) -> None:
    for key in required:
        if key not in obj:
            raise DocumentError(f"{what} is missing the {key!r} field")
    for key in obj:
        if key not in required and key not in optional:
            raise DocumentError(f"{what} has unknown field {key!r}")


def parse_datum(obj: Any) -> LusztigDatum:
    """Datum document -> LusztigDatum, validating every field."""
    if not isinstance(obj, dict):
        raise DocumentError("datum document must be a JSON object")
    _require_keys(obj, ("algebra",), ("real", "delta"), "datum document")
    tag = obj["algebra"]
    try:
        kind = Algebra(tag)
    except ValueError:
        raise DocumentError(
            f"unknown algebra {tag!r}, "
            f"expected one of {sorted(a.value for a in Algebra)}"
        ) from None
    entries: dict[tuple[str, int], int] = {}
    real = obj.get("real", [])
    if not isinstance(real, list):
        raise DocumentError("'real' must be a list")
    for item in real:
        if not isinstance(item, dict):
            raise DocumentError("each real entry must be an object")
        _require_keys(item, ("family", "k", "mult"), (), "real entry")
        family, k, mult = item["family"], item["k"], item["mult"]
        _datum_rule(_check_entry, family, k, mult)
        if k > MAX_PATH_INDEX:
            raise DocumentError(f"ladder index is past the limit {MAX_PATH_INDEX}")
        if (family, k) in entries:
            raise DocumentError(f"duplicate real entry for ({family}, {k})")
        entries[(family, k)] = mult
    parts = obj.get("delta", [])
    if not isinstance(parts, list):
        raise DocumentError("'delta' must be a list")
    _datum_rule(_check_partition, parts)
    if max([*entries.values(), *parts], default=0) >= _TOO_LONG:
        raise DocumentError("a multiplicity or part has more than 4000 digits")
    return datum(kind, entries, parts)


def _datum_rule(check: Callable[..., None], *args: Any) -> None:
    """Apply a validity rule of `lusztig`; a failure is a document error."""
    try:
        check(*args)
    except ValueError as err:
        raise DocumentError(str(err)) from None


def datum_to_obj(d: LusztigDatum) -> dict:
    """LusztigDatum -> datum document in canonical order."""
    return {
        "algebra": d.kind.value,
        "real": [
            {"family": family, "k": k, "mult": mult} for family, k, mult in d.real
        ],
        "delta": list(d.delta),
    }


def parse_polytope(obj: Any) -> DecoratedPolytope:
    """Polytope document -> DecoratedPolytope.

    The derived fields (weight, mv, violations, vertices) are accepted
    and ignored apart from a consistency check on the weight; mismatched
    data weights are a document error.
    """
    if not isinstance(obj, dict):
        raise DocumentError("polytope document must be a JSON object")
    _require_keys(
        obj,
        ("left", "right"),
        ("weight", "mv", "violations", "vertices"),
        "polytope document",
    )
    left = parse_datum(obj["left"])
    right = parse_datum(obj["right"])
    if left.kind is not right.kind:
        raise DocumentError("left and right data use different algebras")
    try:
        P = DecoratedPolytope(left, right)
    except ValueError:  # the kinds agree, so only the weights can differ
        raise DocumentError(
            f"left weight {left.weight} differs from right weight {right.weight}"
        ) from None
    if "weight" in obj and obj["weight"] != [P.weight.a, P.weight.b]:
        raise DocumentError(
            f"declared weight {obj['weight']!r} does not match the data"
        )
    return P


def polytope_to_obj(
    P: DecoratedPolytope,
    verdict: MVVerdict | None = None,
    with_vertices: bool = False,
) -> dict:
    """DecoratedPolytope -> polytope document with the computed verdict."""
    v = verdict if verdict is not None else is_mv(P)
    w = P.weight
    obj = {
        "left": datum_to_obj(P.left),
        "right": datum_to_obj(P.right),
        "weight": [w.a, w.b],
        "mv": v.ok,
        "violations": [
            {"condition": c, "k": k, "note": note} for c, k, note in v.violations
        ],
    }
    if with_vertices:
        obj["vertices"] = {
            name: list(map(list, path)) for name, path in vertices(P)._asdict().items()
        }
    return obj


def short_form(d: LusztigDatum) -> str:
    """Compact one-line canonical form, used for node labels and logs."""
    bits = []
    for family, k, mult in d.real:
        bits.append(f"{'l' if family == LOW else 'h'}{k}x{mult}")
    if d.delta:
        bits.append("(" + ",".join(str(p) for p in d.delta) + ")")
    return " ".join(bits) if bits else "0"


def graph_to_dot(g: CrystalGraph) -> str:
    """DOT digraph; node labels show the right datum and the weight."""
    lines = [
        "digraph crystal {",
        f'  graph [label="{g.kind.value} depth {g.depth}", rankdir=BT];',
        "  node [shape=box];",
    ]
    for idx, b in enumerate(g.nodes):
        w = b.weight
        lines.append(f'  n{idx} [label="{short_form(b.right)} wt=({w.a},{w.b})"];')
    for src, label, dst in g.edges:
        lines.append(f'  n{src} -> n{dst} [label="{label}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
