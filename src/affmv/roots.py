"""Exact root-lattice arithmetic for the two rank-2 affine algebras.

Vectors live in the span of the two simple roots and are stored as integer
coefficient pairs (a, b) meaning a*alpha0 + b*alpha1, so every form,
pairing and reflection below is exact.  The table-driven pieces (Gram
matrices, Cartan rows, the two labeled ladders of positive real roots)
are the only places where the algebras differ; everything else in the
package is generic over `Algebra`.
"""

from __future__ import annotations

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
    "delta",
    "symmetrized_form",
    "cartan_pair",
    "simple_reflection",
    "length_ratio",
    "lean",
    "ladder_root",
    "beta",
    "root_label",
    "max_real_index",
]


# Builds a tuple-backed value from its fields with no Python frame, about
# half the cost of calling the class; callers pass valid fields.
_new = tuple.__new__


class Algebra(Enum):
    """The two rank-2 affine types handled by this package."""

    SL2_HAT = "sl2hat"
    A2_TWISTED = "a2(2)"

    # Members are singletons compared by identity; Enum's hash of the name
    # runs in Python on every lookup of a datum or polytope key.
    __hash__ = object.__hash__


class RootVector(NamedTuple):
    """Integer vector a*alpha0 + b*alpha1 in the root lattice.

    A tuple, so building, comparing, hashing and ordering one run in C.
    The arithmetic is the vector's: no tuple concatenation or repetition.
    """

    a: int
    b: int

    def __add__(self, other: "RootVector") -> "RootVector":
        return _new(RootVector, (self.a + other.a, self.b + other.b))

    def __sub__(self, other: "RootVector") -> "RootVector":
        return _new(RootVector, (self.a - other.a, self.b - other.b))

    def __neg__(self) -> "RootVector":
        return _new(RootVector, (-self.a, -self.b))

    def __mul__(self, n: int) -> "RootVector":
        return _new(RootVector, (n * self.a, n * self.b))

    __rmul__ = __mul__

    def __bool__(self) -> bool:
        return self.a != 0 or self.b != 0

    def __str__(self) -> str:
        return f"({self.a},{self.b})"


# Reading an `Algebra` member through the class costs about 150 ns on
# Python 3.10 and 3.11, over half of a `ladder_root` call; the ladder
# formulas below, called once per ladder index visited, compare with this.
_SL2_HAT = Algebra.SL2_HAT

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


def length_ratio(kind: Algebra) -> int:
    """|alpha0| / |alpha1| as an exact integer."""
    return _LENGTH_RATIO[kind]


def lean(kind: Algebra, a: int, b: int) -> int:
    """b - r*a with r = length_ratio(kind): how far (a, b) leans to alpha1.

    Zero exactly on the multiples of delta, positive on the low ladder and
    negative on the high one.
    """
    return b - _LENGTH_RATIO[kind] * a


def ladder_root(kind: Algebra, family: str, k: int) -> tuple[int, int]:
    """Coordinates (a, b) of the k-th root of a ladder, k >= 1, unchecked.

    The one closed form for both ladders; `root_label` and
    `max_real_index` invert it.  sl2hat: alpha1 + (k-1) delta on the low
    ladder, alpha0 + (k-1) delta on the high one.  a2(2), with j = k // 2:
    low alternates alpha1 + j delta (odd k) and 2 alpha1 + (2j-1) delta
    (even k); high alternates alpha0 + 2j delta (odd k) and
    alpha0 + alpha1 + (j-1) delta (even k).  Any family other than LOW
    reads as HIGH, so callers pass validated labels.
    """
    if kind is _SL2_HAT:
        return (k - 1, k) if family == LOW else (k, k - 1)
    if family == LOW:
        return (k // 2, k) if k % 2 else (k - 1, 2 * k)
    return (k, 2 * k - 2) if k % 2 else (k // 2, k - 1)


def beta(kind: Algebra, family: str, k: int) -> RootVector:
    """k-th root of the low ladder (through alpha1) or the high one (alpha0).

    k must be of type `int` itself, so not a `bool`, a float or a string.
    """
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    if type(k) is not int:
        raise ValueError(f"ladder index must be an integer, got {k!r}")
    if k < 1:
        raise ValueError(f"ladder index must be >= 1, got {k!r}")
    return RootVector(*ladder_root(kind, family, k))


def root_label(kind: Algebra, v: RootVector) -> tuple[str, int] | None:
    """Inverse of `beta`: (family, k) if v is a positive real root, else None."""
    a, b = v.a, v.b
    if kind is _SL2_HAT:
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


def _run_tops(kind: Algebra, family: str, A: int, B: int) -> tuple[int, ...]:
    """Per run of one ladder, the largest k whose root fits under (A, B).

    Ladder coordinates are not monotone in k for the twisted algebra, but
    each ladder splits into runs (every k for sl2hat, odd and even k for
    a2(2)) along which both coordinates grow linearly in a parameter j.
    The roots of a run that fit under (A, B) are an initial segment, so
    its last fitting j is the smaller of two floor quotients.  Entry
    k % len(result) is the top of k's run, so k fits exactly when it is
    at most that entry; a run with no fitting root gives a top below 1.
    """
    if kind is _SL2_HAT:
        # low (k-1, k), high (k, k-1)
        return (min(A + 1, B),) if family == LOW else (min(A, B + 1),)
    if family == LOW:
        return (
            2 * min((A + 1) // 2, B // 4),  # low 2j: (2j-1, 4j)
            2 * min(A, (B - 1) // 2) + 1,  # low 2j+1: (j, 2j+1)
        )
    return (
        2 * min(A, (B + 1) // 2),  # high 2j: (j, 2j-1)
        2 * min((A - 1) // 2, B // 4) + 1,  # high 2j+1: (2j+1, 4j)
    )


def max_real_index(kind: Algebra, box: RootVector) -> int:
    """Largest k whose root on either ladder fits under box, else 0.

    The largest run top of the two ladders (`_run_tops`).
    """
    A, B = box.a, box.b
    return max(
        0, *_run_tops(kind, LOW, A, B), *_run_tops(kind, HIGH, A, B)
    )
