"""Tables and box listings of the positive real roots, and delta multiples.

The library walks the ladders through `ladder_root` and
`max_real_index`; these listings serve the tests only.
"""

from typing import NamedTuple

from affmv.roots import (
    FAMILIES,
    Algebra,
    RootVector,
    beta,
    delta,
    ladder_root,
    max_real_index,
)


class LabeledRoot(NamedTuple):
    root: RootVector
    family: str
    k: int


def ladder_table(kind: Algebra, family: str, upto: int) -> tuple[tuple[int, int], ...]:
    """`ladder_root` for k = 0..upto, with (0, 0) at k = 0.

    Entry 0 matches the indexing of the prefix arrays in `polytope`.
    """
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    return ((0, 0), *(ladder_root(kind, family, k) for k in range(1, upto + 1)))


def positive_real_roots(kind: Algebra, box: RootVector) -> list[LabeledRoot]:
    """All positive real roots under box, low ladder first, ascending k."""
    top = max_real_index(kind, box)
    out = []
    for family in FAMILIES:
        for k in range(1, top + 1):
            r = beta(kind, family, k)
            if r.a <= box.a and r.b <= box.b:
                out.append(LabeledRoot(r, family, k))
    return out


def delta_multiple(kind: Algebra, v: RootVector) -> int | None:
    """n >= 0 with v == n*delta, or None if v is not such a multiple."""
    if v.a >= 0 and v == v.a * delta(kind):
        return v.a
    return None
