"""Pair frame operators, resolutions of the identity, and the associated
bound and perturbation checks.

The pair operator for two controlled Bessel families (L under (t,t), G under
(u,u)) is

    S_pair = sum_j v_j w_j  t* P_j L_j* G_j Q_j u

with P_j, Q_j the projectors of the two subspace families: t* F_pair u, with
F_pair = sum_j v_j w_j P_j L_j* G_j Q_j formed from the per-item factors of
both families (`frames.factor_sum`).  Its adjoint
is the swapped construction; coercivity (S_swapped >= m I with m > 0) or
proximity to the identity force frame properties on the inputs.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field, replace
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
from .frames import ControlPair, FrameEvaluation, FrameFamily, factor_sum
from .linalg import (
    Spectrum,
    adjoint,
    as_operator,
    commutator_residual,
    opnorm,
    product,
    random_draws,
    require_finite_positive,
    singular_extremes,
    square_over,
    times_square,
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
    claims: tuple = field(default=(), metadata={"report": False}, compare=False)


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
    weights = [wL * wG for wL, wG in zip(famL.weights, famG.weights)]
    s = product(product(adjoint(left.t_side), factor_sum(famL, famG, weights)), right.u_side)
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
    is_adjoint: bool = field(metadata={"report": False})
    claims: tuple = field(metadata={"report": False})


def adjoint_check(pair: PairOperator) -> AdjointReport:
    """The pair operator with the certificate that its adjoint is the swapped
    construction: ||S_pair* - S_swapped||_2 / ||S_pair||_2."""
    s = pair.matrix
    residual = opnorm(s.conj().T - swapped(pair).matrix) / max(opnorm(s), 1e-300)
    adjoint = tol.claim("adjoint", residual, "<=", "TOL_ADJOINT")
    return AdjointReport(s, residual, adjoint.holds, (adjoint,))


def _reaches(name: str, measured: float, predicted: float) -> tol.Claim:
    """A measured lower bound reaches its prediction within TOL_FACTOR."""
    return tol.claim(name, measured, ">=", "TOL_FACTOR", base=predicted)


def _resolution_report(total: np.ndarray, term_count: int) -> ResolutionReport:
    """Spectral residual ||total - I||_2 of the sum `total` of `term_count` terms."""
    residual = opnorm(total - np.eye(total.shape[-1]))
    resolves = tol.claim("resolves_identity", residual, "<=", "TOL_RESOLUTION")
    return ResolutionReport(residual, term_count, resolves.holds, (resolves,))


class CanonicalResolutions(NamedTuple):
    terms_right: list
    terms_left: list
    right_multiplied: ResolutionReport
    left_multiplied: ResolutionReport

    @property
    def converged(self) -> bool:
        """Both term families sum to the identity."""
        return self.right_multiplied.converged and self.left_multiplied.converged

    @property
    def claims(self) -> tuple:
        """The claims of both reports, each once."""
        return tuple(dict.fromkeys(self.right_multiplied.claims + self.left_multiplied.claims))


def _self_adjoint(ev: FrameEvaluation, cp: ControlPair) -> bool:
    """S^-1 and each G_j are Hermitian: a positive scalar pair, or t = u."""
    return ev.scale is not None or cp.u_side is cp.t_side


def canonical_resolutions(fam: FrameFamily, cp: ControlPair) -> CanonicalResolutions:
    """The two canonical identity resolutions of a controlled frame.

    Term families {v_j^2 G_j S^{-1}} and {v_j^2 S^{-1} G_j} with G_j the
    per-item cross operators; both must sum to the identity.  A non-frame
    has neither: both lists are empty and both reports are NO_TERMS, with
    the frame claims that failed.  The terms are `FrameEvaluation.terms`, from
    the items' thin factors.  Under a self-adjoint pair (positive scalar, or
    t = u) S^-1 and each G_j are Hermitian: the left terms are the right
    terms' adjoints, with the same residual, and are read so.
    """
    ev = FrameEvaluation(fam, cp)
    if not ev.is_frame:
        no_terms = replace(NO_TERMS, claims=ev.frame_claims)
        return CanonicalResolutions([], [], no_terms, no_terms)
    s_inv, t, u = ev.inverse, cp.t_side, cp.u_side
    right_terms = ev.weighted(ev.terms(t, product(u, s_inv)))
    right = _resolution_report(right_terms.sum(axis=0), len(fam))
    if _self_adjoint(ev, cp):
        return CanonicalResolutions(
            list(right_terms), list(right_terms.conj().swapaxes(1, 2)), right, right)
    left_terms = ev.weighted(ev.terms(product(t, adjoint(s_inv)), u))
    left = _resolution_report(left_terms.sum(axis=0), len(fam))
    return CanonicalResolutions(list(right_terms), list(left_terms), right, left)


@dataclass(frozen=True)
class ResolutionBoundsReport:
    resolution: ResolutionReport = field(metadata={"report": False})
    lower: float | None
    upper: float | None
    predicted_lower: float | None
    predicted_upper: float | None
    certified: bool
    commutation_residual: float | None
    claims: tuple = field(default=(), metadata={"report": False}, compare=False)
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
        return ResolutionBoundsReport(
            NO_TERMS, None, None, None, None, False, None, ev.frame_claims
        )
    s_inv = ev.inverse
    # ||S^-1|| is measured once, and only when a control side is an
    # operator; ||t|| and ||u|| are the pair's sigma_max; a control c I
    # commutes with S^-1 and needs neither
    t, u = cp.t_side, cp.u_side
    norm_s_inv = None if cp.number_sides else opnorm(s_inv)
    comm = max(
        commutator_residual(s_inv, t, norm_s_inv, cp.t_sigma.sigma_max),
        commutator_residual(s_inv, u, norm_s_inv, cp.u_sigma.sigma_max),
    )
    # the sum of the terms v_j^2 t* P_j L_j* L_j P_j S^{-1} u, and the
    # modified frame sum as the frame operator under (S^{-1} t, S^{-1} u);
    # under a positive scalar pair that operator is c S^-1 F S^-1 = S^-1,
    # whose extremes are 1 / lambda_max(S) and 1 / lambda_min(S)
    s_inv_u = product(s_inv, u)
    resolution = _resolution_report(fam.controlled(t, s_inv_u), len(fam))
    a, b = ev.bounds.lambda_min, ev.bounds.lambda_max
    if ev.scale is None:
        spectrum = Spectrum(fam.controlled(product(s_inv, t), s_inv_u)).extremes
        lower, upper = spectrum.lambda_min, spectrum.lambda_max
    else:
        lower, upper = 1.0 / b, 1.0 / a
    predicted_lower = times_square(a, b, operator.truediv)
    predicted_upper = times_square(b, a, operator.truediv)
    claims = (
        *ev.frame_claims,
        tol.claim("inverse_commutes", comm, "<=", "TOL_FACTOR"),
        *resolution.claims,
        _reaches("lower_bound", lower, predicted_lower),
        tol.claim("upper_bound", upper, "<=", "TOL_FACTOR", base=predicted_upper),
    )
    return ResolutionBoundsReport(
        resolution, lower, upper, predicted_lower, predicted_upper, tol.all_hold(claims), comm,
        claims,
    )


@dataclass(frozen=True)
class BesselResolutionReport:
    lower: float
    upper: float
    is_frame: bool
    predicted_lower: float
    predicted_upper: float
    resolution_residual: float
    claims: tuple = field(metadata={"report": False}, compare=False)


def bessel_resolution_frame_check(fam: FrameFamily, t, u) -> BesselResolutionReport:
    """A (t,t)-controlled Bessel family whose mixed terms resolve the identity
    is a (u,u)-controlled frame with lower bound at least 1/B; `is_frame`
    needs both hypotheses, and every field is measured either way."""
    tt, uu = ControlPair(t, t), ControlPair(u, u)
    bessel, out = FrameEvaluation(fam, tt), FrameEvaluation(fam, uu)
    b = bessel.bounds.lambda_max
    resolution = _resolution_report(fam.controlled(tt.t_side, uu.u_side), len(fam))
    lower, upper = out.bounds.lambda_min, out.bounds.lambda_max
    predicted_lower = 1.0 / b if b > 0 else math.inf  # B = 0: zero operators
    # b ||t^-1||^2 ||u||^2
    predicted_upper = times_square(
        times_square(b, tt.t_sigma.sigma_min, operator.truediv), uu.u_sigma.sigma_max)
    # one Bessel claim per control pair, each named after it
    claims = (bessel.bessel._replace(name="bessel_tt"), *resolution.claims)
    if tol.all_hold(claims):  # the (u, u) claims rest on both hypotheses
        out_bessel, out_positive = out.frame_claims
        claims += (
            out_bessel._replace(name="bessel_uu"),
            out_positive,
            _reaches("lower_bound", lower, predicted_lower),
            tol.claim("upper_bound", upper, "<=", "TOL_FACTOR", base=predicted_upper),
        )
    return BesselResolutionReport(
        lower, upper, tol.all_hold(claims), predicted_lower, predicted_upper,
        resolution.residual, claims,
    )


@dataclass(frozen=True)
class CoercivityReport:
    m: float
    predicted_lower: float | None
    measured_lower: float
    is_frame: bool
    gamma_bessel_bound: float
    claims: tuple = field(metadata={"report": False}, compare=False)


def coercive_pair_check(
    pair: PairOperator, gamma_bessel_bound: float | None = None
) -> CoercivityReport:
    """If the swapped pair operator is coercive (>= m I, m > 0), the left
    family is a frame under its own control with lower bound >= m^2 / D,
    where D is the Bessel bound of the right family; D defaults to the
    optimal one, under (u, u).  Coercivity needs m above TOL_PSD times the
    largest |eigenvalue| of the Hermitian part of S_pair, the floor of the
    frame claim `positive_lower`; below it nothing is predicted:
    `predicted_lower` is None and `is_frame` is false."""
    if gamma_bessel_bound is not None:  # a divisor
        require_finite_positive("gamma_bessel_bound", gamma_bessel_bound)
    # S_swapped = S_pair*, and both have the same Hermitian part
    spectrum = Spectrum(pair.matrix).extremes
    m = spectrum.lambda_min
    if gamma_bessel_bound is None:
        gamma_bessel_bound = FrameEvaluation(
            pair.right_family, pair.right_control
        ).bounds.lambda_max
    # m above the PSD floor of its own spectrum, as for `positive_lower`, so
    # roundoff dust around zero does not decide coercivity
    coercive = tol.claim("coercive", m, ">", "TOL_PSD",
                         scale=max(abs(m), abs(spectrum.lambda_max)))
    predicted_lower = None if not coercive.holds else (  # D may underflow to 0
        square_over(m, gamma_bessel_bound) if gamma_bessel_bound else math.inf)
    left = FrameEvaluation(pair.left_family, pair.left_control)
    measured_lower = left.bounds.lambda_min
    claims = (coercive,)
    if coercive.holds:  # the left family's claims rest on coercivity
        claims += (*left.frame_claims, _reaches("lower_bound", measured_lower, predicted_lower))
    return CoercivityReport(
        m, predicted_lower, measured_lower, tol.all_hold(claims), gamma_bessel_bound, claims
    )


@dataclass(frozen=True)
class PerturbationReport:
    hyp_certified: bool
    lower_gamma: float
    lower_gamma_predicted: float
    lower_lambda: float | None
    lower_lambda_predicted: float | None
    worst_sample_slack: float
    verified: bool = field(metadata={"report": False})
    claims: tuple = field(metadata={"report": False}, compare=False)


def _real_form(a) -> np.ndarray:
    """[[Re a^T, Im a^T], [-Im a^T, Re a^T]] for the n x n operator a: a row
    [Re x, Im x] times it is [Re (a x), Im (a x)]."""
    return np.block([[a.real.T, a.imag.T], [-a.imag.T, a.real.T]])


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
    a = np.eye(n) - s
    # for lambda2 = 0, lambda2 sigma_min(S) is the signed zero lambda2 for
    # any finite sigma_min, and so is lambda2 ||S f|| below: S's SVD is
    # taken, and S f formed, only for lambda2 != 0
    term = lambda2 * singular_extremes(s).sigma_min if lambda2 else lambda2
    spectral = tol.claim("spectral_gap", opnorm(a), "<=", "TOL_PERTURB", base=lambda1 + term)

    # Each chunk of draws, rows [Re x, Im x] (`random_draws`), takes one real
    # product: for the unit vector f = x / ||x|| of `random_unit_columns`,
    # ||f - S f|| = ||(I - S) x|| / ||x|| and ||S f|| = ||S x|| / ||x||.
    # Where ||S f|| is read, the product gives S x and (I - S) x = x - S x.
    real = _real_form(s if lambda2 else a)
    worst = math.inf
    for z in random_draws(seed, n, trials):
        y = z @ real
        size = np.vecdot(z, z)
        if lambda2:
            base = lambda1 + lambda2 * np.sqrt(np.vecdot(y, y) / size)
            np.subtract(z, y, out=y)
        else:
            base = lambda1 + lambda2
        slack = base - np.sqrt(np.vecdot(y, y) / size)
        worst = min(worst, float(slack.min()))
    sampled = tol.claim("sampled_slack", worst, ">=", "TOL_PERTURB")
    if not sampled.holds:
        raise HypothesisFailed(
            f"a sampled vector violates the perturbation inequality "
            f"(slack {worst:.3e})"
        )

    gamma_bounds = FrameEvaluation(pair.right_family, pair.right_control).bounds
    lam_bounds = FrameEvaluation(pair.left_family, pair.left_control).bounds
    d1 = lam_bounds.lambda_max if d1 is None else d1
    d2 = gamma_bounds.lambda_max if d2 is None else d2
    lower_gamma = gamma_bounds.lambda_min
    lower_gamma_predicted = ((1.0 - lambda1) / (1.0 + lambda2)) ** 2 / d1

    claims = (spectral, sampled, _reaches("lower_gamma", lower_gamma, lower_gamma_predicted))
    lower_lambda = None
    lower_lambda_predicted = None
    if lambda2 == 0:
        lower_lambda = lam_bounds.lambda_min
        lower_lambda_predicted = (1.0 - lambda1) ** 2 / d2
        claims += (_reaches("lower_lambda", lower_lambda, lower_lambda_predicted),)
    return PerturbationReport(
        spectral.holds,
        lower_gamma,
        lower_gamma_predicted,
        lower_lambda,
        lower_lambda_predicted,
        worst,
        tol.all_hold(claims),
        claims,
    )
