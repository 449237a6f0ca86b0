"""Closed forms the benchmark checks the program's outputs against.

Everything here is written apart from `affmv`: the two root ladders, the
weight of a datum, the four MV conditions, the trapezoid partner of a
purely imaginary datum, and the Kostant count of Lusztig data per weight.
A datum is the library's document form, a dict with the keys "algebra",
"real" (a list of {"family", "k", "mult"}) and "delta" (a partition).
Vectors are (a, b) pairs meaning a*alpha0 + b*alpha1.
"""

from __future__ import annotations

SL2 = "sl2hat"
A22 = "a2(2)"
KINDS = (SL2, A22)

DELTA = {SL2: (1, 1), A22: (1, 2)}
# |alpha0| / |alpha1|: the weight of the alpha1 side of a trapezoid.
LENGTH_RATIO = {SL2: 1, A22: 2}


def root(kind: str, family: str, k: int) -> tuple[int, int]:
    """k-th root of a ladder: "low" starts at alpha1, "high" at alpha0."""
    if kind == SL2:
        return (k - 1, k) if family == "low" else (k, k - 1)
    j, odd = divmod(k, 2)
    if family == "low":
        # alpha1 + j*delta at odd k, 2*alpha1 + (2j-1)*delta at even k
        return (j, 2 * j + 1) if odd else (2 * j - 1, 4 * j)
    # alpha0 + 2j*delta at odd k, alpha0 + alpha1 + (j-1)*delta at even k
    return (2 * j + 1, 4 * j) if odd else (j, 2 * j - 1)


def height(v: tuple[int, int]) -> int:
    return v[0] + v[1]


def weight(d: dict) -> tuple[int, int]:
    n = sum(d["delta"])
    da, db = DELTA[d["algebra"]]
    a, b = n * da, n * db
    for e in d["real"]:
        ra, rb = root(d["algebra"], e["family"], e["k"])
        a += e["mult"] * ra
        b += e["mult"] * rb
    return (a, b)


def _prefixes(d: dict, family: str, upto: int) -> list[tuple[int, int]]:
    mult = {e["k"]: e["mult"] for e in d["real"] if e["family"] == family}
    out = [(0, 0)]
    for k in range(1, upto + 1):
        ra, rb = root(d["algebra"], family, k)
        m = mult.get(k, 0)
        out.append((out[-1][0] + m * ra, out[-1][1] + m * rb))
    return out


def mv_failures(left: dict, right: dict) -> list[int]:
    """Numbers of the MV conditions the pair (left, right) violates.

    1: the two lower boundary paths interleave; 2: the two upper paths
    interleave; 3: the vertical-edge partitions agree, or differ by one
    part of the gap the lower path ends prescribe; 4: no part exceeds
    that gap.
    """
    kind = left["algebra"]
    support = [e["k"] for e in left["real"] + right["real"]]
    upto = max(2, 1 + max(support, default=0))
    l_low = _prefixes(left, "low", upto)
    l_high = _prefixes(left, "high", upto)
    r_low = _prefixes(right, "low", upto)
    r_high = _prefixes(right, "high", upto)
    failed = []
    if any(
        max(l_high[k][1] - r_low[k - 1][1], r_low[k][0] - l_high[k - 1][0]) != 0
        for k in range(2, upto + 1)
    ):
        failed.append(1)
    if any(
        min(r_high[k - 1][0] - l_low[k][0], l_low[k - 1][1] - r_high[k][1]) != 0
        for k in range(2, upto + 1)
    ):
        failed.append(2)

    d1 = (r_low[upto][0] - l_high[upto][0], r_low[upto][1] - l_high[upto][1])
    d2 = (l_low[upto][0] - r_high[upto][0], l_low[upto][1] - r_high[upto][1])
    den = LENGTH_RATIO[kind]
    num = d1[1] - den * d1[0]
    lp, rp = list(left["delta"]), list(right["delta"])
    if d1[0] * d2[1] == d1[1] * d2[0]:
        ok3 = lp == rp
    elif num <= 0 or num % den or sum(lp) == sum(rp):
        ok3 = False
    else:
        big, small = (lp, rp) if sum(lp) > sum(rp) else (rp, lp)
        s = num // den
        ok3 = s in big and big[: big.index(s)] + big[big.index(s) + 1 :] == small
    if not ok3:
        failed.append(3)
    if any(den * (parts[0] if parts else 0) > num for parts in (lp, rp)):
        failed.append(4)
    return failed


def trapezoid(kind: str, n: int) -> dict:
    """The partner of the purely imaginary datum delta=[n]."""
    return {
        "algebra": kind,
        "real": [
            {"family": "low", "k": 1, "mult": LENGTH_RATIO[kind] * n},
            {"family": "high", "k": 1, "mult": n},
        ],
        "delta": [],
    }


def data_counts(kind: str, box: tuple[int, int]) -> list[list[int]]:
    """counts[a][b]: the number of Lusztig data of weight (a, b) in the box.

    The Kostant partition function with one imaginary part per multiple
    of delta: the generating function is the product of 1/(1 - x^r) over
    the positive real roots r and 1/(1 - x^(n*delta)) over n >= 1.
    """
    top_a, top_b = box
    parts = []
    for k in range(1, 2 * (top_a + top_b) + 3):
        for family in ("low", "high"):
            r = root(kind, family, k)
            if r[0] <= top_a and r[1] <= top_b:
                parts.append(r)
    da, db = DELTA[kind]
    n = 1
    while n * da <= top_a and n * db <= top_b:
        parts.append((n * da, n * db))
        n += 1
    counts = [[0] * (top_b + 1) for _ in range(top_a + 1)]
    counts[0][0] = 1
    for ra, rb in parts:
        for a in range(ra, top_a + 1):
            for b in range(rb, top_b + 1):
                counts[a][b] += counts[a - ra][b - rb]
    return counts


def data_below_height(kind: str, depth: int) -> int:
    """Number of Lusztig data whose weight has height at most depth."""
    counts = data_counts(kind, (depth, depth))
    return sum(
        counts[a][b] for a in range(depth + 1) for b in range(depth + 1 - a)
    )
