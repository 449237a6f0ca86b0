"""Rank-2 affine MV polytopes over exact integer arithmetic.

The package models elements of the big crystal for the two rank-2 affine
algebras as pairs of Lusztig data of equal weight, computes the unique
completion of either datum from the other, and verifies the polytope
axioms exhaustively at desk scale.
"""

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
from .crystal import (
    CrystalGraph,
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
from .verify import (
    Report,
    check_axioms,
    check_crystal_axioms,
    check_saito_formulas,
    check_star_negation,
    check_uniqueness,
)

__version__ = "0.1.0"
