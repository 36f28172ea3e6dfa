"""Exact computation of modular local polynomial spaces.

Given a positive discriminant D, the geodesics of integral binary quadratic
forms of discriminant D cut the modular curve into finitely many faces; this
package computes, in exact rational arithmetic, the dimension and an explicit
basis of the space of weight-k piecewise polynomials attached to that
decomposition, for even k <= 0.
"""

__version__ = "0.1.0"

from .arrangement import FaceComplex, OutOfRegion, build_arrangement
from .geometry import (
    IDENTITY,
    S,
    T,
    AlgebraicPoint,
    ExactComplex,
    InvalidDiscriminant,
    Mat2,
    QuadForm,
    apply_mobius,
    enumerate_forms,
    eval_form,
    form_action,
    reduce_point,
)
from .gluing import GluingEdge, GluingGraph, Orbit, Orbits, build_gluing_graph, orbits_and_cycles
from .polyspace import (
    InvalidWeight,
    LocalPolySpace,
    check_laws,
    compute_space,
    cusp_law,
    dim_laws,
    evaluate,
    fixed_space,
    slash_matrix,
    solve_space,
)
from .record import ResultRecord, render_poly

__all__ = [
    "__version__",
    "IDENTITY",
    "S",
    "T",
    "AlgebraicPoint",
    "ExactComplex",
    "FaceComplex",
    "GluingEdge",
    "GluingGraph",
    "InvalidDiscriminant",
    "InvalidWeight",
    "LocalPolySpace",
    "Mat2",
    "Orbit",
    "Orbits",
    "OutOfRegion",
    "QuadForm",
    "ResultRecord",
    "apply_mobius",
    "build_arrangement",
    "build_gluing_graph",
    "check_laws",
    "compute_space",
    "cusp_law",
    "dim_laws",
    "enumerate_forms",
    "eval_form",
    "evaluate",
    "fixed_space",
    "form_action",
    "orbits_and_cycles",
    "reduce_point",
    "render_poly",
    "slash_matrix",
    "solve_space",
]
