"""Crystal operators on decorated polytopes.

An element is a decorated polytope; its two Lusztig data stay
synchronized through the transition map.  Raising and lowering
operators touch the multiplicity of one extreme root on one side and
re-complete the other side; each starred operator is its plain one
conjugated by the Kashiwara involution `star`, which exchanges the sides.
The transition layer caches each solve both ways, so e_i and e_i*
reaching one polytope from its two sides solve it once, and on sl2hat
answers a miss from the cached diagram flip, so e_i and e_{1-i} reaching
flipped polytopes solve the pair once.
A string is one solve too: e_i^n b is one bump by n and f_i^max b one
bump by -phi_i(b), each followed by one re-completion (`_raise`), so
the strings of the reflection formulas never build their middle
elements.
Reflections are realized by twisting the datum whose extreme
multiplicity vanishes and re-completing.
Graph growth records every raiser as an edge, and finds each target by
the one datum that raiser fixes (edge rules (C1)-(C4)): nodes are
indexed by both data, so only a new node is completed.
"""

from __future__ import annotations

from typing import NamedTuple

from .lusztig import (
    LusztigDatum,
    PreconditionViolated,
    RealEntry,
    _derived,
    datum,
    twist_s,
    twist_tau,
)
from .polytope import DecoratedPolytope, _pair
from .roots import ALPHA0, ALPHA1, HIGH, LOW, ZERO, Algebra, RootVector, cartan_pair
from .roots import _check_node, _new
from .transition import complete_from_left, complete_from_right

__all__ = [
    "CrystalGraph",
    "lowest",
    "e",
    "f",
    "e_star",
    "f_star",
    "phi",
    "eps",
    "phi_star",
    "eps_star",
    "star",
    "tau",
    "saito",
    "saito_star",
    "crystal_graph",
]


def lowest(kind: Algebra) -> DecoratedPolytope:
    """The element of weight zero every other one is raised from."""
    zero = datum(kind)
    return DecoratedPolytope(zero, zero)


def _bump(d: LusztigDatum, family: str, by: int) -> LusztigDatum:
    """d with its index-1 multiplicity on `family` moved by `by`.

    Equal to `d.with_mult(family, 1, d.mult(family, 1) + by)`, without
    the rebuild and re-validation: in canonical order (family, 1) heads
    its run, at the start of `real` for the low ladder and at the first
    high entry for the high one, so one splice there keeps the order,
    and the weight moves by `by` times alpha_i.
    """
    kind, real, delta, (a, b) = d
    n = len(real)
    at = 0
    if family == HIGH:
        while at < n and real[at][0] == LOW:
            at += 1
        weight = (a + by, b)
    else:
        weight = (a, b + by)
    held = real[at][2] if at < n and real[at][1] == 1 and real[at][0] == family else 0
    mult = held + by
    if mult < 0:
        raise ValueError(f"multiplicity must be an integer >= 1, got {mult!r}")
    entry = (_new(RealEntry, (family, 1, mult)),) if mult else ()
    real = real[:at] + entry + real[at + 1 if held else at :]
    return _derived(kind, real, delta, _new(RootVector, weight))


def _raise(i: int, b: DecoratedPolytope, by: int) -> DecoratedPolytope:
    """e_i^by b in one solve, or f_i^-by b when `by` is negative.

    e_i changes one index-1 multiplicity of one datum of b and
    re-completes the other datum, so a whole string is one bump by `by`
    and one re-completion.  `by` must not be below -phi_i(b); the node
    index is not checked here.
    """
    if by == 0:
        return b
    if i == 0:
        return complete_from_right(_bump(b.right, HIGH, by))
    return complete_from_left(_bump(b.left, LOW, by))


def e(i: int, b: DecoratedPolytope) -> DecoratedPolytope:
    """Raise along alpha_i: bump one extreme multiplicity, re-complete."""
    _check_node(i)
    return _raise(i, b, 1)


def f(i: int, b: DecoratedPolytope) -> DecoratedPolytope | None:
    """Lower along alpha_i, or None at the bottom of the string."""
    if phi(i, b) == 0:  # phi checks the node index
        return None
    return _raise(i, b, -1)


def e_star(i: int, b: DecoratedPolytope) -> DecoratedPolytope:
    """Raising operator conjugated by star: e_i* = * e_i *."""
    return star(e(i, star(b)))


def f_star(i: int, b: DecoratedPolytope) -> DecoratedPolytope | None:
    """Lowering operator conjugated by star, or None at the string's bottom."""
    down = f(i, star(b))
    return None if down is None else star(down)


def phi(i: int, b: DecoratedPolytope) -> int:
    """Number of times f_i applies, read off one extreme multiplicity."""
    _check_node(i)
    return b.right.mult(HIGH, 1) if i == 0 else b.left.mult(LOW, 1)


def eps(i: int, b: DecoratedPolytope) -> int:
    """phi_i minus the coroot pairing with the weight; may be negative."""
    return phi(i, b) - cartan_pair(b.kind, i, b.weight)


def phi_star(i: int, b: DecoratedPolytope) -> int:
    return phi(i, star(b))


def eps_star(i: int, b: DecoratedPolytope) -> int:
    return eps(i, star(b))


def star(b: DecoratedPolytope) -> DecoratedPolytope:
    """Kashiwara involution: exchange the two Lusztig data."""
    return _pair(b.right, b.left)


def tau(b: DecoratedPolytope) -> DecoratedPolytope:
    """Diagram flip, untwisted algebra only: flip both data, swap sides.

    Both data flip to the flipped weight, so the pair needs no check.
    """
    return _pair(twist_tau(b.right), twist_tau(b.left))


def saito(i: int, b: DecoratedPolytope) -> DecoratedPolytope:
    """Reflection at node i, defined when phi_i(b) = 0.

    The right datum twists through s_i and becomes the new left datum;
    the new right datum is whatever completes it.
    """
    if phi(i, b) != 0:
        raise PreconditionViolated(f"reflection at {i} needs phi_{i} = 0, got {phi(i, b)}")
    if i == 0:
        return complete_from_left(twist_s(b.right, 0))
    return complete_from_right(twist_s(b.left, 1))


def saito_star(i: int, b: DecoratedPolytope) -> DecoratedPolytope:
    """Reflection conjugated by star, defined when phi_i*(b) = 0."""
    sb = star(b)
    if phi(i, sb) != 0:
        raise PreconditionViolated(
            f"starred reflection at {i} needs phi_{i}* = 0, got {phi(i, sb)}"
        )
    return star(saito(i, sb))


class CrystalGraph(NamedTuple):
    """Breadth-first slice of the crystal below a raising depth.

    Nodes are unique elements in discovery order; edges record every
    raising-operator application from nodes strictly inside the depth
    bound, so both endpoints always lie in `nodes`.  Those nodes are
    expanded in index order, so node s's edges are edges[4*s : 4*s + 4],
    in `_RAISERS` order: e0, e1, e0*, e1*.  Each edge's target is the
    one element holding the datum its raiser fixes.  node_weights tracks
    the sum of the simple roots applied along the discovery path,
    independently of the polytope weights.
    """

    kind: Algebra
    depth: int
    nodes: tuple[DecoratedPolytope, ...]
    node_depths: tuple[int, ...]
    node_weights: tuple[RootVector, ...]
    edges: tuple[tuple[int, str, int], ...]


# Each raiser bumps by one the index-1 multiplicity of one family in one
# datum, side 0 the left and 1 the right, and re-completes the other.
_RAISERS: tuple[tuple[str, int, str, RootVector], ...] = (
    ("e0", 1, HIGH, ALPHA0),
    ("e1", 0, LOW, ALPHA1),
    ("e0*", 0, HIGH, ALPHA0),
    ("e1*", 1, LOW, ALPHA1),
)


def crystal_graph(kind: Algebra, depth: int) -> CrystalGraph:
    """All elements within `depth` raising steps of the lowest element.

    A raiser's target is the one element holding its bumped datum on
    that side, since T is a bijection.  Nodes are indexed by their left
    and by their right datum, so only a datum no node holds yet is
    completed, once per new node.
    """
    if depth < 0:
        raise ValueError(f"depth must be >= 0, got {depth!r}")
    start = lowest(kind)
    nodes = [start]
    held = ({start.left: 0}, {start.right: 0})
    node_depths = [0]
    node_weights = [ZERO]
    edges: list[tuple[int, str, int]] = []
    frontier = [0]
    for level in range(depth):
        new_frontier: list[int] = []
        for src in frontier:
            b = nodes[src]
            for label, side, family, alpha in _RAISERS:
                d = _bump(b[side], family, 1)
                at = held[side].get(d)
                if at is None:
                    target = complete_from_right(d) if side else complete_from_left(d)
                    at = len(nodes)
                    held[0][target.left] = held[1][target.right] = at
                    nodes.append(target)
                    node_depths.append(level + 1)
                    node_weights.append(node_weights[src] + alpha)
                    new_frontier.append(at)
                edges.append((src, label, at))
        frontier = new_frontier
    return CrystalGraph(
        kind,
        depth,
        tuple(nodes),
        tuple(node_depths),
        tuple(node_weights),
        tuple(edges),
    )
