"""Linearization toolkit for rational matrices in realization form.

A rational matrix given as R(lambda) = D(lambda) + C(lambda) A(lambda)^{-1}
B(lambda) with polynomial blocks is turned into a structured matrix pencil
built from dual minimal basis pairs.  The pencil carries the finite pole and
zero structure of R wherever the realization is minimal, the structure at
infinity under a matching reversal condition, and its null vectors map back
to eigenvectors and minimal bases of R by block slicing.
"""

from .config import DEFAULT_SEED
from .dualbases import DualBasisPair
from .errors import (BasisError, BreakdownError, DimensionError, PoleError,
                     PreconditionError, RatlinError)
from .eigsolve import (MinimalBasisResult, PencilEig, SpectralReport,
                       classify, invariant_orders_at_infinity,
                       partial_multiplicities_at, pencil_eigs,
                       polynomial_nullspace)
from .linbuild import (MinimalityReport, Realization, StructuredLinearization,
                       build, check_finite_minimality,
                       check_infinity_minimality, hat_transfer_eval,
                       minimality_report, row_pencil, transfer_eval)
from .polymat import Basis, PolyMatrix, generic_rank, hstack, vstack
from .recover import (EigenpairR, RecoveredNullspace, eigenpair,
                      factorization_residuals, lift_left_eigvec,
                      lift_right_eigvec, recover_left_eigvec,
                      recover_minimal_basis, recover_right_eigvec)
from .scalareq import RootReport, ScalarEquation, solve_scalar
from .verify import CheckReport, FixtureSpec, gen_fixture, preset_cross_coupled, run_all

__all__ = [
    "Basis", "BasisError", "BreakdownError", "CheckReport", "DEFAULT_SEED",
    "DimensionError", "DualBasisPair", "EigenpairR", "FixtureSpec",
    "MinimalBasisResult", "MinimalityReport", "PencilEig", "PoleError", "PolyMatrix",
    "PreconditionError", "RatlinError", "Realization", "RecoveredNullspace",
    "RootReport", "ScalarEquation", "SpectralReport",
    "StructuredLinearization", "build",
    "check_finite_minimality", "check_infinity_minimality", "classify",
    "eigenpair", "factorization_residuals", "gen_fixture",
    "generic_rank", "hat_transfer_eval", "hstack", "invariant_orders_at_infinity",
    "lift_left_eigvec", "lift_right_eigvec",
    "minimality_report", "partial_multiplicities_at", "pencil_eigs",
    "polynomial_nullspace", "preset_cross_coupled", "recover_left_eigvec",
    "recover_minimal_basis", "recover_right_eigvec", "row_pencil", "run_all",
    "solve_scalar",
    "transfer_eval", "vstack",
]

__version__ = "0.1.0"
