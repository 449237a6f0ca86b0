"""Rank-2 affine MV polytopes over exact integer arithmetic.

The package models elements of the big crystal for the two rank-2 affine
algebras as pairs of Lusztig data of equal weight, computes the unique
completion of either datum from the other, and verifies the polytope
axioms exhaustively at desk scale.

The names of `crystal` (the operators and graph growth) and of `verify`
(the sweeps) load on first access, as do those two modules, so that a
program that only completes or checks data never imports them.
"""

from types import ModuleType as _ModuleType

from .roots import (
    ALPHA0,
    ALPHA1,
    FAMILIES,
    HIGH,
    LOW,
    ZERO,
    Algebra,
    RootVector,
    beta,
    cartan_pair,
    delta,
    ladder_root,
    length_ratio,
    max_real_index,
    root_label,
    simple_reflection,
    symmetrized_form,
)
from .lusztig import (
    LusztigDatum,
    PartAbsent,
    PreconditionViolated,
    RealEntry,
    UnsupportedKind,
    add_part,
    datum,
    enumerate_data,
    is_purely_imaginary,
    largest_part,
    partitions,
    remove_part,
    trapezoid_datum,
    twist_s,
    twist_tau,
)
from .polytope import (
    DecoratedPolytope,
    MVVerdict,
    MVViolation,
    VertexFan,
    is_mv,
    truncation_index,
    vertices,
)
from .transition import (
    DFS,
    ORACLE,
    MultipleCompletionsError,
    NoCompletionError,
    SolverInvariantError,
    clear_cache,
    complete_from_left,
    complete_from_right,
    transition_l_to_r,
)

# Read on first access (PEP 562): each name to the module that defines it.
# The two module names map to themselves.
_LAZY = {
    **dict.fromkeys(
        (
            "crystal",
            "CrystalGraph",
            "crystal_graph",
            "e",
            "e_star",
            "eps",
            "eps_star",
            "f",
            "f_star",
            "lowest",
            "phi",
            "phi_star",
            "saito",
            "saito_star",
            "star",
            "tau",
        ),
        "crystal",
    ),
    **dict.fromkeys(
        (
            "verify",
            "Report",
            "check_axioms",
            "check_crystal_axioms",
            "check_saito_formulas",
            "check_star_negation",
            "check_uniqueness",
        ),
        "verify",
    ),
}

# Every public name once: those imported above and those read on first access.
__all__ = [
    name
    for name, value in tuple(globals().items())
    if not name.startswith("_") and not isinstance(value, _ModuleType)
] + [name for name, module in _LAZY.items() if name != module]


def __getattr__(name: str) -> object:
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    module = import_module(f".{_LAZY[name]}", __name__)
    value = module if name == _LAZY[name] else getattr(module, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(globals().keys() | _LAZY.keys())


__version__ = "0.1.0"
