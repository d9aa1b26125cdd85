"""Centralized numerical tolerances, and `claim`, the one comparison of a
measured value with a threshold: every library verdict is the conjunction
of its claims.

All tolerances are relative unless stated otherwise; the dense double-precision
decompositions used throughout are reliable at these levels for matrices up to
dimension 256: there the synthesis, resolution and coefficient residuals
of unitary partition families under scalar controls stay below 1e-14
(at most 8.1e-15 in the lib-dense benchmark).  Library code reads them at
call time; `override` sets them.  Input gates, which raise, compare with
their tolerances directly.
"""

import math
import operator
from contextlib import contextmanager
from typing import NamedTuple

from .errors import InvalidParameters

# Hermitian symmetry check: ||a - a*|| <= TOL_HERM * ||a||
TOL_HERM = 1e-9

# Eigenvalue floor for positive semidefiniteness: eigenvalues in
# [-TOL_PSD * ||a||, 0) are roundoff dust and get clamped to zero;
# anything more negative is genuine indefiniteness.
TOL_PSD = 1e-9

# Factorization residual: ||v w - s|| <= TOL_FACTOR * ||s|| certifies
# range inclusion.
TOL_FACTOR = 1e-8

# Singular values below TOL_RANK * sigma_max count as zero.
TOL_RANK = 1e-12

# Orthonormality of subspace bases: max-abs deviation of the Gram matrix
# from the identity (absolute).
TOL_ORTH = 1e-10

# Condition-number threshold for invertibility (membership in the class of
# operators with bounded inverse).
COND_MAX = 1e12

# Residual threshold for a family of operators summing to the identity.
TOL_RESOLUTION = 1e-8

OVERRIDABLE = ("tol_herm", "tol_psd", "tol_factor", "tol_rank", "tol_orth", "cond_max",
               "tol_resolution")

TOL_SAME_SUBSPACE = 1e-9  # sum transform: ||P_L - P_G||_2 of the shared subspaces
TOL_CONSTRUCT = 1e-6  # measured lower bound below predicted, relative to max(upper, 1)
TOL_ADJOINT = 1e-12  # pair operator against the adjoint of its swapped form
TOL_DIRECT_SUM = 1e-10  # direct-sum frame operator against S_H (+) S_X
TOL_CONJUGATED = 1e-9  # conjugated frame operator against its prediction
TOL_PERTURB = 1e-12  # absolute: perturbation inequality, spectral and sampled
TOL_SANDWICH = 1e-9  # absolute: Fourier sandwich, optimal bounds and samples
TOL_UNIT_PRODUCT = 1e-12  # absolute: Fourier parameters' alpha * beta <= 1


@contextmanager
def override(**values):
    """Set OVERRIDABLE tolerances (finite numbers >= 0, or strings of them) in a
    `with` block; all are restored on leaving it, also when it raises."""
    saved = {name.upper(): globals()[name.upper()] for name in OVERRIDABLE}
    try:
        for name, value in values.items():
            if name not in OVERRIDABLE:
                raise InvalidParameters(f"unknown tolerance {name!r}")
            try:
                x = float(value)
            except (TypeError, ValueError):
                x = math.nan
            if not (math.isfinite(x) and x >= 0):
                raise InvalidParameters(
                    f"tolerance {name} must be a finite number >= 0, got {value!r}"
                )
            globals()[name.upper()] = x
        yield
    finally:
        globals().update(saved)


_SENSES = {"<=": operator.le, ">=": operator.ge, ">": operator.gt}


class Claim(NamedTuple):
    """`value sense threshold`, named: one comparison behind a verdict."""

    name: str
    value: float
    sense: str  # "<=", ">=" or ">"
    threshold: float

    @property
    def holds(self) -> bool:
        return bool(_SENSES[self.sense](self.value, self.threshold))


def claim(name, value, sense, tolerance=None, base=0.0, scale=1.0) -> Claim:
    """`value sense threshold`, the threshold `base -+ tol * scale` (minus for
    ">="), `tol` the named tolerance's value now, so an `override` applies."""
    if tolerance is not None:
        slack = globals()[tolerance] * scale
        base = base - slack if sense == ">=" else base + slack
    return Claim(name, value, sense, base)


def all_hold(claims) -> bool:
    """The verdict of `claims`: every one holds."""
    return all(c.holds for c in claims)
