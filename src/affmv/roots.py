"""Exact root-lattice arithmetic for the two rank-2 affine algebras.

Vectors live in the span of the two simple roots and are stored as integer
coefficient pairs (a, b) meaning a*alpha0 + b*alpha1, so every form,
pairing and reflection below is exact.  The table-driven pieces (Gram
matrices, Cartan rows, the two labeled ladders of positive real roots)
are the only places where the algebras differ; everything else in the
package is generic over `Algebra`.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

__all__ = [
    "Algebra",
    "RootVector",
    "ZERO",
    "ALPHA0",
    "ALPHA1",
    "LOW",
    "HIGH",
    "FAMILIES",
    "LabeledRoot",
    "delta",
    "delta_multiple",
    "symmetrized_form",
    "cartan_pair",
    "simple_reflection",
    "coweight_pair",
    "length_ratio",
    "beta_low",
    "beta_high",
    "beta",
    "root_label",
    "ladder_table",
    "max_real_index",
    "positive_real_roots",
]


class Algebra(Enum):
    """The two rank-2 affine types handled by this package."""

    SL2_HAT = "sl2hat"
    A2_TWISTED = "a2(2)"


@dataclass(frozen=True, order=True)
class RootVector:
    """Integer vector a*alpha0 + b*alpha1 in the root lattice."""

    a: int
    b: int

    def __add__(self, other: "RootVector") -> "RootVector":
        return RootVector(self.a + other.a, self.b + other.b)

    def __sub__(self, other: "RootVector") -> "RootVector":
        return RootVector(self.a - other.a, self.b - other.b)

    def __neg__(self) -> "RootVector":
        return RootVector(-self.a, -self.b)

    def __mul__(self, n: int) -> "RootVector":
        return RootVector(n * self.a, n * self.b)

    __rmul__ = __mul__

    def __bool__(self) -> bool:
        return self.a != 0 or self.b != 0

    def __str__(self) -> str:
        return f"({self.a},{self.b})"


ZERO = RootVector(0, 0)
ALPHA0 = RootVector(1, 0)
ALPHA1 = RootVector(0, 1)

# Names for the two ladders of positive real roots.  The "low" ladder
# starts at alpha1, the "high" ladder at alpha0; interleaved they sweep
# the real roots below and above the imaginary direction respectively.
LOW = "low"
HIGH = "high"
FAMILIES = (LOW, HIGH)

_DELTA = {
    Algebra.SL2_HAT: RootVector(1, 1),
    Algebra.A2_TWISTED: RootVector(1, 2),
}

# Symmetrized Cartan matrices ((alpha_i, alpha_j)); alpha0 is the long
# root in the twisted case.
_GRAM = {
    Algebra.SL2_HAT: ((2, -2), (-2, 2)),
    Algebra.A2_TWISTED: ((8, -4), (-4, 2)),
}

# Rows of the Cartan matrix: <alpha_i^vee, -> as a linear form on (a, b).
_CARTAN_ROWS = {
    Algebra.SL2_HAT: ((2, -2), (-2, 2)),
    Algebra.A2_TWISTED: ((2, -1), (-4, 2)),
}

# |alpha0| / |alpha1| as an exact integer (1 untwisted, 2 twisted).
_LENGTH_RATIO = {
    Algebra.SL2_HAT: 1,
    Algebra.A2_TWISTED: 2,
}


def _check_node(i: int) -> None:
    if i not in (0, 1):
        raise ValueError(f"node index must be 0 or 1, got {i!r}")


def delta(kind: Algebra) -> RootVector:
    """The minimal positive imaginary root."""
    return _DELTA[kind]


def delta_multiple(kind: Algebra, v: RootVector) -> int | None:
    """n >= 0 with v == n*delta, or None if v is not such a multiple."""
    if v.a >= 0 and v == v.a * _DELTA[kind]:
        return v.a
    return None


def symmetrized_form(kind: Algebra, v: RootVector, w: RootVector) -> int:
    """Invariant bilinear form, normalized by the symmetrized Cartan matrix."""
    g = _GRAM[kind]
    return v.a * (g[0][0] * w.a + g[0][1] * w.b) + v.b * (g[1][0] * w.a + g[1][1] * w.b)


def cartan_pair(kind: Algebra, i: int, v: RootVector) -> int:
    """Pairing <alpha_i^vee, v>, exact on the root lattice."""
    _check_node(i)
    r0, r1 = _CARTAN_ROWS[kind][i]
    return r0 * v.a + r1 * v.b


def simple_reflection(kind: Algebra, i: int, v: RootVector) -> RootVector:
    """s_i(v) = v - <alpha_i^vee, v> alpha_i."""
    n = cartan_pair(kind, i, v)
    if i == 0:
        return RootVector(v.a - n, v.b)
    return RootVector(v.a, v.b - n)


def coweight_pair(v: RootVector, i: int) -> int:
    """(v, omega_i): the alpha_i coefficient of v.  Algebra independent."""
    _check_node(i)
    return v.a if i == 0 else v.b


def length_ratio(kind: Algebra) -> int:
    """|alpha0| / |alpha1| as an exact integer."""
    return _LENGTH_RATIO[kind]


def beta_low(kind: Algebra, k: int) -> RootVector:
    """k-th root of the low ladder (the one through alpha1)."""
    if k < 1:
        raise ValueError(f"ladder index must be >= 1, got {k!r}")
    if kind is Algebra.SL2_HAT:
        return RootVector(k - 1, k)  # alpha1 + (k-1) delta
    if k % 2:
        j = (k - 1) // 2
        return RootVector(j, 2 * j + 1)  # alpha1 + j delta
    j = k // 2
    return RootVector(2 * j - 1, 4 * j)  # 2 alpha1 + (2j-1) delta


def beta_high(kind: Algebra, k: int) -> RootVector:
    """k-th root of the high ladder (the one through alpha0)."""
    if k < 1:
        raise ValueError(f"ladder index must be >= 1, got {k!r}")
    if kind is Algebra.SL2_HAT:
        return RootVector(k, k - 1)  # alpha0 + (k-1) delta
    if k % 2:
        j = (k - 1) // 2
        return RootVector(2 * j + 1, 4 * j)  # alpha0 + 2j delta
    j = k // 2
    return RootVector(j, 2 * j - 1)  # alpha0 + alpha1 + (j-1) delta


def beta(kind: Algebra, family: str, k: int) -> RootVector:
    """Ladder lookup by family name."""
    if family == LOW:
        return beta_low(kind, k)
    if family == HIGH:
        return beta_high(kind, k)
    raise ValueError(f"unknown family {family!r}")


def root_label(kind: Algebra, v: RootVector) -> tuple[str, int] | None:
    """Inverse of `beta`: (family, k) if v is a positive real root, else None."""
    a, b = v.a, v.b
    if kind is Algebra.SL2_HAT:
        if a >= 0 and b == a + 1:
            return (LOW, b)
        if b >= 0 and a == b + 1:
            return (HIGH, a)
        return None
    if a >= 0 and b == 2 * a + 1:
        return (LOW, 2 * a + 1)
    if a >= 1 and a % 2 == 1 and b == 2 * (a + 1):
        return (LOW, a + 1)
    if a >= 1 and a % 2 == 1 and b == 2 * (a - 1):
        return (HIGH, a)
    if a >= 1 and b == 2 * a - 1:
        return (HIGH, 2 * a)
    return None


def ladder_table(kind: Algebra, family: str, upto: int) -> tuple[tuple[int, int], ...]:
    """The coordinates (a, b) of beta(kind, family, k) for k = 0..upto.

    Entry k is the k-th root of the ladder and entry 0 is (0, 0), the
    indexing of the prefix arrays in `polytope`.  Built from the closed
    forms of `beta_low` and `beta_high` without constructing vectors.
    """
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    low = family == LOW
    if kind is Algebra.SL2_HAT:
        rows = [(k - 1, k) if low else (k, k - 1) for k in range(1, upto + 1)]
    elif low:
        rows = [
            (k // 2, k) if k % 2 else (k - 1, 2 * k) for k in range(1, upto + 1)
        ]
    else:
        rows = [
            (k, 2 * k - 2) if k % 2 else (k // 2, k - 1) for k in range(1, upto + 1)
        ]
    return ((0, 0), *rows)


def max_real_index(kind: Algebra, box: RootVector) -> int:
    """Largest k whose beta_low(k) or beta_high(k) fits under box, else 0.

    Ladder coordinates are not monotone in k for the twisted algebra, but
    each ladder splits into runs (every k for sl2hat, odd and even k for
    a2(2)) along which both coordinates grow linearly in a parameter j.
    The roots of a run that fit under box are an initial segment, so its
    last fitting j is the smaller of two floor quotients; a run with no
    fitting root gives a k <= 0.
    """
    A, B = box.a, box.b
    if kind is Algebra.SL2_HAT:
        # low (k-1, k), high (k, k-1)
        return max(0, min(A + 1, B), min(A, B + 1))
    return max(
        0,
        2 * min(A, (B - 1) // 2) + 1,  # low 2j+1: (j, 2j+1)
        2 * min((A + 1) // 2, B // 4),  # low 2j: (2j-1, 4j)
        2 * min((A - 1) // 2, B // 4) + 1,  # high 2j+1: (2j+1, 4j)
        2 * min(A, (B + 1) // 2),  # high 2j: (j, 2j-1)
    )


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
