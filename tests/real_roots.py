"""Box listings of the positive real roots, and delta multiples.

The library walks the ladders through `ladder_table` and
`max_real_index`; these listings serve the tests only.
"""

from typing import NamedTuple

from affmv.roots import FAMILIES, Algebra, RootVector, beta, delta, max_real_index


class LabeledRoot(NamedTuple):
    root: RootVector
    family: str
    k: int


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
