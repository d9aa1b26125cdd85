"""Worked example on a truncated Fourier coefficient space.

The ambient space is C^(2*n_max + 1) with coordinates indexed by
n in [-n_max, n_max]; the abstract exponential basis is realized as the
standard coordinate basis (unitarily equivalent, so every verified quantity
is unchanged).  The single nonzero family operator is the partial-sum
projector onto indices 1..m; every other item carries the zero operator
C^d -> C^1 (a 1 x d zero matrix), which gives the same frame quantities as
a d x d zero matrix at a fraction of the report size.  The tied operator k
projects onto indices {1, 2}, and the controls are the positive scalars
(alpha, beta).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import tolerances as tol
from .errors import InvalidParameters
from .frames import ControlPair, FrameFamily, frame_sum, kgf_bounds
from .linalg import Subspace, frozen, random_unit_columns, require_finite_positive


@dataclass(frozen=True)
class FourierParams:
    n_max: int
    m: int
    alpha: float
    beta: float

    def __post_init__(self):
        if self.n_max < 1:
            raise InvalidParameters("n_max must be a positive integer")
        if not (1 <= self.m <= self.n_max):
            raise InvalidParameters(f"m must lie in [1, n_max], got {self.m}")
        require_finite_positive("alpha", self.alpha)
        require_finite_positive("beta", self.beta)
        if self.alpha * self.beta > 1 + tol.TOL_UNIT_PRODUCT:
            raise InvalidParameters(
                "alpha * beta must be <= 1 for the unit upper bound to hold"
            )

    @property
    def dim(self) -> int:
        return 2 * self.n_max + 1


def coord_index(p: FourierParams, n: int) -> int:
    """Position of basis index n in [-n_max, n_max] within the coordinate array."""
    if not (-p.n_max <= n <= p.n_max):
        raise InvalidParameters(f"index {n} outside [-{p.n_max}, {p.n_max}]")
    return n + p.n_max


def build_fourier_example(p: FourierParams):
    """Returns (family, control pair, k) for the truncated example."""
    d = p.dim
    items = []
    for n in range(-p.n_max, p.n_max + 1):
        if n == 1:
            # The index-1 subspace spans coordinates 1..m so that composing
            # the partial-sum operator with its projector keeps all m
            # coefficients; the sampled sum is then alpha*beta*sum_{k<=m}
            # |x'(k)|^2 as computed in the worked example.
            basis = np.zeros((d, p.m), dtype=complex)
            for col, idx in enumerate(range(1, p.m + 1)):
                basis[coord_index(p, idx), col] = 1.0
            lam = np.zeros((d, d), dtype=complex)
            for idx in range(1, p.m + 1):
                lam[coord_index(p, idx), coord_index(p, idx)] = 1.0
        else:
            basis = np.zeros((d, 1), dtype=complex)
            basis[coord_index(p, n), 0] = 1.0
            lam = np.zeros((1, d), dtype=complex)
        items.append((Subspace(d, frozen(basis)), frozen(lam), 1.0))
    fam = FrameFamily(d, items)
    cp = ControlPair.scalars(d, p.alpha, p.beta)
    k = np.zeros((d, d), dtype=complex)
    k[coord_index(p, 1), coord_index(p, 1)] = 1.0
    k[coord_index(p, 2), coord_index(p, 2)] = 1.0
    return fam, cp, k


@dataclass(frozen=True)
class FourierReport:
    a_opt: float
    upper: float
    is_kgf: bool
    sandwich_ok: bool
    trials: int
    worst_lower_slack: float
    worst_upper_slack: float
    # the example that was verified, as built by build_fourier_example
    family: FrameFamily = field(repr=False, compare=False)
    control: ControlPair = field(repr=False, compare=False)
    k: np.ndarray = field(repr=False, compare=False)
    # the claims behind `sandwich_ok`; for library callers only
    claims: tuple = field(repr=False, compare=False, metadata={"report": False})


def verify_fourier(p: FourierParams, trials: int = 100, seed: int = 0) -> FourierReport:
    """Optimal-bound verification plus pointwise sampling of the sandwich

        alpha*beta*||k* x||^2  <=  frame sum  <=  ||x||^2.
    """
    fam, cp, k = build_fourier_example(p)
    a_opt, upper, is_kgf = kgf_bounds(fam, cp, k)
    ab = p.alpha * p.beta

    worst_lo = math.inf
    worst_hi = math.inf
    for x in random_unit_columns(seed, p.dim, trials):
        fs = frame_sum(fam, cp, x).real
        kx = k.conj().T @ x
        lo_slack = fs - ab * np.vecdot(kx, kx, axis=0).real
        hi_slack = np.vecdot(x, x, axis=0).real - fs
        worst_lo = min(worst_lo, float(lo_slack.min()))
        worst_hi = min(worst_hi, float(hi_slack.min()))
    claims = (
        tol.claim("optimal_lower", a_opt, ">=", "TOL_SANDWICH", base=ab),
        tol.claim("optimal_upper", upper, "<=", "TOL_SANDWICH", base=1.0),
        tol.claim("sampled_lower_slack", worst_lo, ">=", "TOL_SANDWICH"),
        tol.claim("sampled_upper_slack", worst_hi, ">=", "TOL_SANDWICH"),
    )
    return FourierReport(
        a_opt,
        upper,
        is_kgf,
        tol.all_hold(claims),
        trials,
        worst_lo,
        worst_hi,
        fam,
        cp,
        k,
        claims,
    )
