"""Exact decision procedures for toric contact/Sasaki geometry plus a
numerical layer for extremal symplectic potentials.

Importing the package loads only the exact layer. The float layer
(`toriccontact.potential`, which needs numpy, and sympy for expressions) loads
on first access to one of its names (PEP 562), so the exact decision
procedures start without it.
"""

import importlib as _importlib

from .cone import (
    CharacteristicSlice,
    Cone,
    GoodnessResult,
    ReebVector,
    characteristic_polytope,
    is_good,
    is_quasi_regular,
    is_strictly_convex,
    sasaki_cone_contains,
)
from .errors import ToricError
from .join import (
    JoinParams,
    ReverseJoinProblem,
    ReverseJoinSolution,
    easy_reverse,
    harder_reverse_guarantee,
    join_generators,
    join_is_smooth,
    join_polytope,
    reverse_join,
    s1_join_cover,
)
from .polytope import (
    AffineFunction,
    CharacteristicResult,
    LabelledPolytope,
    product,
    segment,
    standard_simplex,
    unit_box,
)
from .reduction import (
    SimplexProductPartition,
    SplittingCertificate,
    decompose_as_join,
    find_simplex_product_partition,
    find_splitting_reeb,
    reduce_cone,
)

__version__ = "0.1.0"

__all__ = [
    "AffineFunction",
    "CharacteristicResult",
    "CharacteristicSlice",
    "Cone",
    "ExtremalAffine",
    "ExtremalReport",
    "GoodnessResult",
    "Grid",
    "JoinParams",
    "LabelledPolytope",
    "ReebVector",
    "RelativePotential",
    "ReverseJoinProblem",
    "ReverseJoinSolution",
    "SimplexProductPartition",
    "SplittingCertificate",
    "SymplecticPotential",
    "ToricError",
    "abreu_scalar_curvature",
    "average_split",
    "characteristic_polytope",
    "decompose_as_join",
    "donaldson_identity_check",
    "easy_reverse",
    "extremal_affine_function",
    "extremality_residual",
    "find_simplex_product_partition",
    "find_splitting_reeb",
    "guillemin_eval",
    "harder_reverse_guarantee",
    "is_good",
    "is_quasi_regular",
    "is_strictly_convex",
    "join_generators",
    "join_is_smooth",
    "join_polytope",
    "product",
    "reduce_cone",
    "reverse_join",
    "s1_join_cover",
    "sasaki_cone_contains",
    "segment",
    "split_defect",
    "standard_simplex",
    "unit_box",
]

_POTENTIAL_NAMES = frozenset({
    "ExtremalAffine",
    "ExtremalReport",
    "Grid",
    "RelativePotential",
    "SymplecticPotential",
    "abreu_scalar_curvature",
    "average_split",
    "donaldson_identity_check",
    "extremal_affine_function",
    "extremality_residual",
    "guillemin_eval",
    "split_defect",
})
# Submodules that were package attributes while the float layer loaded eagerly.
_SUBMODULES = frozenset({"moments", "potential"})


def __getattr__(name):
    if name in _POTENTIAL_NAMES:
        return getattr(_importlib.import_module(".potential", __name__), name)
    if name in _SUBMODULES:
        return _importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    hidden = {"_importlib", "_POTENTIAL_NAMES", "_SUBMODULES", "__getattr__", "__dir__"}
    return sorted((set(globals()) - hidden) | _POTENTIAL_NAMES | _SUBMODULES)
