"""Pair frame operators, resolutions of the identity, and the associated
bound and perturbation checks.

The pair operator for two controlled Bessel families (L under (t,t), G under
(u,u)) is

    S_pair = sum_j v_j w_j  t* P_j L_j* G_j Q_j u

with P_j, Q_j the projectors of the two subspace families, applied through
the per-item factors of both families (`frames.cross_terms`).  Its adjoint
is the swapped construction; coercivity (S_swapped >= m I with m > 0) or
proximity to the identity force frame properties on the inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import tolerances as tol
from .errors import (
    CodomainMismatch,
    DimensionMismatch,
    HypothesisFailed,
    InvalidParameters,
    ItemCountMismatch,
)
from .frames import ControlPair, FrameEvaluation, FrameFamily, cross_terms, item_factors
from .linalg import (
    as_operator,
    commutator_residual,
    hermitian_spectrum,
    opnorm,
    random_unit_columns,
    require_finite_positive,
    singular_extremes,
)


@dataclass(frozen=True, eq=False)
class PairOperator:
    matrix: np.ndarray
    left_family: FrameFamily
    right_family: FrameFamily
    # (t, t) and (u, u): each family's own control pair, checked once
    left_control: ControlPair
    right_control: ControlPair


@dataclass(frozen=True)
class ResolutionReport:
    residual: float | None
    term_count: int
    converged: bool


NO_TERMS = ResolutionReport(None, 0, False)  # a non-frame's: no S^-1, no terms


def pair_frame_operator(
    famL: FrameFamily, t, famG: FrameFamily, u
) -> PairOperator:
    """Mixed frame operator for a pair of controlled Bessel families."""
    if len(famL) != len(famG):
        raise ItemCountMismatch(f"{len(famL)} vs {len(famG)} items")
    if famL.ambient_dim != famG.ambient_dim:
        raise DimensionMismatch("families live on different ambient spaces")
    left, right = ControlPair(t, t), ControlPair(u, u)
    for j, (dL, dG) in enumerate(zip(famL.block_dims(), famG.block_dims())):
        if dL != dG:
            raise CodomainMismatch(f"item {j}: codomain dims {dL} != {dG}")
    return _pair_operator(famL, left, famG, right)


def _pair_operator(
    famL: FrameFamily, left: ControlPair, famG: FrameFamily, right: ControlPair
) -> PairOperator:
    terms = cross_terms(left.t, item_factors(famL), item_factors(famG), right.u)
    s = sum(wL * wG * g for wL, wG, g in zip(famL.weights, famG.weights, terms))
    return PairOperator(as_operator(s), famL, famG, left, right)  # rejects an overflow


def swapped(pair: PairOperator) -> PairOperator:
    """The pair operator with the two families (and controls) exchanged."""
    return _pair_operator(
        pair.right_family, pair.right_control, pair.left_family, pair.left_control
    )


@dataclass(frozen=True, eq=False)
class AdjointReport:
    matrix: np.ndarray
    adjoint_residual: float
    # adjoint_residual <= TOL_ADJOINT
    is_adjoint: bool = field(metadata={"report": False})


def adjoint_check(pair: PairOperator) -> AdjointReport:
    """The pair operator with the certificate that its adjoint is the swapped
    construction: ||S_pair* - S_swapped||_2 / ||S_pair||_2."""
    s = pair.matrix
    residual = opnorm(s.conj().T - swapped(pair).matrix) / max(opnorm(s), 1e-300)
    return AdjointReport(s, residual, residual <= tol.TOL_ADJOINT)


def _resolution_report(terms: np.ndarray) -> ResolutionReport:
    """Spectral residual ||sum_j terms_j - I||_2 of a stack of n x n terms."""
    residual = opnorm(terms.sum(axis=0) - np.eye(terms.shape[-1]))
    return ResolutionReport(residual, len(terms), residual <= tol.TOL_RESOLUTION)


class CanonicalResolutions(NamedTuple):
    terms_right: list
    terms_left: list
    right_multiplied: ResolutionReport
    left_multiplied: ResolutionReport

    @property
    def converged(self) -> bool:
        """Both term families sum to the identity."""
        return self.right_multiplied.converged and self.left_multiplied.converged


def canonical_resolutions(fam: FrameFamily, cp: ControlPair) -> CanonicalResolutions:
    """The two canonical identity resolutions of a controlled frame.

    Term families {v_j^2 G_j S^{-1}} and {v_j^2 S^{-1} G_j} with G_j the
    per-item cross operators; both must sum to the identity.  A non-frame
    has neither: both lists are empty and both reports are NO_TERMS.
    """
    ev = FrameEvaluation(fam, cp)
    if not ev.is_frame:
        return CanonicalResolutions([], [], NO_TERMS, NO_TERMS)
    s_inv = ev.inverse
    right_terms = ev.weighted(ev.terms @ s_inv)
    left_terms = ev.weighted(s_inv @ ev.terms)
    return CanonicalResolutions(
        list(right_terms),
        list(left_terms),
        _resolution_report(right_terms),
        _resolution_report(left_terms),
    )


@dataclass(frozen=True)
class ResolutionBoundsReport:
    resolution: ResolutionReport = field(metadata={"report": False})
    lower: float | None
    upper: float | None
    predicted_lower: float | None
    predicted_upper: float | None
    certified: bool
    commutation_residual: float | None
    resolution_residual: float | None = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "resolution_residual", self.resolution.residual)


def inverse_commutation_check(fam: FrameFamily, cp: ControlPair) -> ResolutionBoundsReport:
    """Resolution built from the inverse frame operator, with its sandwich.

    Requires S^{-1} to commute with both controls; the modified frame sum
    sum_j v_j^2 <L_j P_j S^{-1} u f, L_j P_j S^{-1} t f> then has spectral
    extremes inside [A/B^2, B/A^2] for measured frame bounds (A, B).
    `certified` also needs the commutation residual within TOL_FACTOR.  A
    non-frame (no S^{-1}, no A > 0) is not certified; its other fields are None.
    """
    ev = FrameEvaluation(fam, cp)
    if not ev.is_frame:
        return ResolutionBoundsReport(NO_TERMS, None, None, None, None, False, None)
    s_inv = ev.inverse
    # ||S^-1|| is measured once; ||t|| and ||u|| are the pair's sigma_max
    norm_s_inv = opnorm(s_inv)
    comm = max(
        commutator_residual(s_inv, cp.t, norm_s_inv, cp.t_sigma.sigma_max),
        commutator_residual(s_inv, cp.u, norm_s_inv, cp.u_sigma.sigma_max),
    )
    # terms v_j^2 t* P_j L_j* L_j P_j S^{-1} u, and the modified frame sum
    # as the frame operator under the controls (S^{-1} t, S^{-1} u)
    resolution = _resolution_report(ev.weighted(ev.cross_terms(cp.t, s_inv @ cp.u)))
    m = ev.weighted_sum(ev.cross_terms(s_inv @ cp.t, s_inv @ cp.u))
    a, b = ev.bounds.lambda_min, ev.bounds.lambda_max
    spectrum = hermitian_spectrum(m)
    lower, upper = spectrum.lambda_min, spectrum.lambda_max
    predicted_lower = a / (b * b)
    predicted_upper = b / (a * a)
    certified = (
        comm <= tol.TOL_FACTOR
        and resolution.converged
        and lower >= predicted_lower - tol.TOL_FACTOR
        and upper <= predicted_upper + tol.TOL_FACTOR
    )
    return ResolutionBoundsReport(
        resolution, lower, upper, predicted_lower, predicted_upper, certified, comm
    )


@dataclass(frozen=True)
class BesselResolutionReport:
    lower: float
    upper: float
    is_frame: bool
    predicted_lower: float
    predicted_upper: float
    resolution_residual: float


def bessel_resolution_frame_check(fam: FrameFamily, t, u) -> BesselResolutionReport:
    """A (t,t)-controlled Bessel family whose mixed terms resolve the identity
    is a (u,u)-controlled frame with lower bound at least 1/B; `is_frame`
    needs both hypotheses, and every field is measured either way."""
    tt, uu = ControlPair(t, t), ControlPair(u, u)
    bessel, out = FrameEvaluation(fam, tt), FrameEvaluation(fam, uu)
    b = bessel.bounds.lambda_max
    resolution = _resolution_report(bessel.weighted(bessel.cross_terms(tt.t, uu.u)))
    lower, upper = out.bounds.lambda_min, out.bounds.lambda_max
    predicted_lower = 1.0 / b if b > 0 else math.inf  # B = 0: zero operators
    # b ||t^-1||^2 ||u||^2
    predicted_upper = b / tt.t_sigma.sigma_min**2 * uu.u_sigma.sigma_max**2
    ok = (
        bessel.is_bessel
        and resolution.converged
        and out.is_frame
        and lower >= predicted_lower - tol.TOL_FACTOR
        and upper <= predicted_upper + tol.TOL_FACTOR
    )
    return BesselResolutionReport(
        lower, upper, ok, predicted_lower, predicted_upper, resolution.residual
    )


@dataclass(frozen=True)
class CoercivityReport:
    m: float
    predicted_lower: float | None
    measured_lower: float
    is_frame: bool
    gamma_bessel_bound: float


def coercive_pair_check(
    pair: PairOperator, gamma_bessel_bound: float | None = None
) -> CoercivityReport:
    """If the swapped pair operator is coercive (>= m I, m > 0), the left
    family is a frame under its own control with lower bound >= m^2 / D,
    where D is the Bessel bound of the right family; D defaults to the
    optimal one, under (u, u).  With m <= 0 nothing is predicted:
    `predicted_lower` is None and `is_frame` is false."""
    if gamma_bessel_bound is not None:  # a divisor
        require_finite_positive("gamma_bessel_bound", gamma_bessel_bound)
    # S_swapped = S_pair*, and both have the same Hermitian part
    m = hermitian_spectrum(pair.matrix).lambda_min
    if gamma_bessel_bound is None:
        gamma_bessel_bound = FrameEvaluation(
            pair.right_family, pair.right_control
        ).bounds.lambda_max
    predicted_lower = m * m / gamma_bessel_bound if m > 0 else None
    left = FrameEvaluation(pair.left_family, pair.left_control)
    measured_lower = left.bounds.lambda_min
    ok = m > 0 and left.is_frame and measured_lower >= predicted_lower - tol.TOL_FACTOR
    return CoercivityReport(m, predicted_lower, measured_lower, ok, gamma_bessel_bound)


@dataclass(frozen=True)
class PerturbationReport:
    hyp_certified: bool
    lower_gamma: float
    lower_gamma_predicted: float
    lower_lambda: float | None
    lower_lambda_predicted: float | None
    worst_sample_slack: float
    # hyp_certified, and each measured lower bound reaches its prediction
    # within TOL_FACTOR
    verified: bool = field(metadata={"report": False})


def perturbation_check(
    pair: PairOperator,
    lambda1: float,
    lambda2: float,
    d1: float | None = None,
    d2: float | None = None,
    trials: int = 200,
    seed: int = 0,
) -> PerturbationReport:
    """Near-identity perturbation criterion for the pair operator.

    Certifies ||f - S f|| <= lambda1 ||f|| + lambda2 ||S f|| via the
    sufficient spectral bound sigma_max(I - S) <= lambda1 + lambda2 *
    sigma_min(S), plus sampled verification on random unit vectors.  When
    certified, the right family is a frame under (u, u) with lower bound at
    least ((1 - lambda1) / (1 + lambda2))^2 / d1; with lambda2 == 0 the left
    family additionally gets lower bound (1 - lambda1)^2 / d2.  d1 and d2
    default to the optimal Bessel bounds of the left family under (t, t) and
    the right family under (u, u).
    """
    if not (lambda1 < 1):
        raise InvalidParameters(f"lambda1 must be < 1, got {lambda1}")
    if not (lambda2 > -1):
        raise InvalidParameters(f"lambda2 must be > -1, got {lambda2}")
    if lambda2 == 0 and not (0 <= lambda1 < 1):
        raise InvalidParameters(
            f"one-parameter path requires lambda1 in [0, 1), got {lambda1}"
        )
    for name, bound in (("d1", d1), ("d2", d2)):
        if bound is not None:  # a divisor
            require_finite_positive(name, bound)
    s = pair.matrix
    n = s.shape[0]
    sigma_min = singular_extremes(s).sigma_min
    gap = opnorm(np.eye(n) - s)
    spectral_ok = gap <= lambda1 + lambda2 * sigma_min + tol.TOL_PERTURB

    worst = math.inf
    for f in random_unit_columns(seed, n, trials):
        sf = s @ f
        slack = (
            lambda1
            + lambda2 * np.linalg.norm(sf, axis=0)
            - np.linalg.norm(f - sf, axis=0)
        )
        worst = min(worst, float(slack.min()))
    sampled_ok = worst >= -tol.TOL_PERTURB
    if not sampled_ok:
        raise HypothesisFailed(
            f"a sampled vector violates the perturbation inequality "
            f"(slack {worst:.3e})"
        )
    certified = spectral_ok

    gamma_bounds = FrameEvaluation(pair.right_family, pair.right_control).bounds
    lam_bounds = FrameEvaluation(pair.left_family, pair.left_control).bounds
    d1 = lam_bounds.lambda_max if d1 is None else d1
    d2 = gamma_bounds.lambda_max if d2 is None else d2
    lower_gamma = gamma_bounds.lambda_min
    lower_gamma_predicted = ((1.0 - lambda1) / (1.0 + lambda2)) ** 2 / d1

    lower_lambda = None
    lower_lambda_predicted = None
    if lambda2 == 0:
        lower_lambda = lam_bounds.lambda_min
        lower_lambda_predicted = (1.0 - lambda1) ** 2 / d2

    verified = certified and lower_gamma >= lower_gamma_predicted - tol.TOL_FACTOR
    if lower_lambda is not None:
        verified = verified and lower_lambda >= lower_lambda_predicted - tol.TOL_FACTOR
    return PerturbationReport(
        certified,
        lower_gamma,
        lower_gamma_predicted,
        lower_lambda,
        lower_lambda_predicted,
        worst,
        verified,
    )
