"""Frame-building transforms with predicted-bound verification.

Each construction emits the transformed family plus a report pairing the
predicted bounds (from the hypotheses) with measured spectral bounds; when a
hypothesis certificate fails the construction is still emitted, flagged, and
no bound claim is asserted.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import tolerances as tol
from .errors import DimensionMismatch, ItemCountMismatch, WeightMismatch
from .frames import (
    ControlPair,
    FrameEvaluation,
    FrameFamily,
    cross_terms,
    item_factors,
    kgf_bounds,
)
from .linalg import (
    SpectralInterval,
    as_operator,
    commutator_residual,
    dsum_op,
    dsum_subspace,
    opnorm,
    require_invertible,
    subspace_image,
)


class Certificate(NamedTuple):
    """A named hypothesis residual; the hypothesis holds when it is small."""

    name: str
    residual: float


@dataclass(frozen=True)
class TransformReport:
    family_out: FrameFamily
    control_out: ControlPair
    k_out: np.ndarray
    predicted_lower: float
    predicted_upper: float
    measured: SpectralInterval
    hypothesis_certificates: tuple[Certificate, ...]
    all_hypotheses_pass: bool
    # the construction's verdict: the hypotheses hold and the measured lower
    # bound reaches the predicted one within TOL_CONSTRUCT * max(upper, 1)
    verified: bool = field(metadata={"report": False})


def _transform_report(
    fam_out, cp_out, k_out, predicted_lower, predicted_upper, measured, certs, ok
) -> TransformReport:
    verified = ok and measured.lambda_min >= (
        predicted_lower - tol.TOL_CONSTRUCT * max(predicted_upper, 1.0)
    )
    return TransformReport(
        fam_out, cp_out, k_out, predicted_lower, predicted_upper, measured,
        tuple(certs), ok, verified,
    )


def _bounds_and_operator(fam: FrameFamily, cp: ControlPair, k):
    """(a_opt, b, S) from one evaluation, released on return."""
    ev = FrameEvaluation(fam, cp)
    a_opt, b, _ = ev.kgf(k)
    return a_opt, b, ev.s


def _paired(famH, cpH, kH, famX, cpX, kX, **conjugators):
    """Prologue of the H (+) X constructions.

    Checks item counts and weights, then that each named conjugator is
    invertible, and only then evaluates each family under its control pair.
    Returns each checked conjugator with its singular extremes (in the order
    given), the direct-sum control pair and k, and (a_opt, b, S) of each
    family.
    """
    if len(famH) != len(famX):
        raise ItemCountMismatch(f"{len(famH)} vs {len(famX)} items")
    for j, (wH, wX) in enumerate(zip(famH.weights, famX.weights)):
        if abs(wH - wX) > 0:
            raise WeightMismatch(f"item {j}: weights {wH} != {wX}")
    checked = []
    for name, c in conjugators.items():
        c = as_operator(c)
        checked.append((c, require_invertible(c, name)))
    kH = as_operator(kH)
    kX = as_operator(kX)
    cp_out = ControlPair(dsum_op(cpH.t, cpX.t), dsum_op(cpH.u, cpX.u))
    return (
        checked,
        cp_out,
        dsum_op(kH, kX),
        _bounds_and_operator(famH, cpH, kH),
        _bounds_and_operator(famX, cpX, kX),
    )


def _measure(ev: FrameEvaluation, k) -> SpectralInterval:
    a_opt, b, _ = ev.kgf(k)
    return SpectralInterval(min(a_opt, b), b)


def sum_transform(
    famL: FrameFamily, famG: FrameFamily, v, w, cp: ControlPair, k
) -> TransformReport:
    """Transform two families sharing subspaces and weights through the sum
    operator r = v + w: subspaces become r W_j, operators (L_j + G_j) P_j r*.

    Certifies the commutation hypotheses k r == r k, r* t == t r*, r* u == u r*
    and the two per-item cross-orthogonality conditions; predicted bounds
    follow the lower chain of the left family only.
    """
    if len(famL) != len(famG):
        raise ItemCountMismatch(f"{len(famL)} vs {len(famG)} items")
    if famL.ambient_dim != famG.ambient_dim:
        raise DimensionMismatch("families live on different ambient spaces")
    for j, ((subL, _, wL), (subG, _, wG)) in enumerate(zip(famL.items, famG.items)):
        if abs(wL - wG) > 0:
            raise WeightMismatch(f"item {j}: weights {wL} != {wG}")
        # ||P_L - P_G||_2 is 1 for unequal dimensions and ||B_G - P_L B_G||_2
        # for equal ones; ||d||_2 <= ||d||_F, so a small Frobenius norm passes
        # without an SVD
        d = subG.basis - subL.basis @ (subL.basis.conj().T @ subG.basis)
        if subL.dim != subG.dim or (
            np.linalg.norm(d) > tol.TOL_SAME_SUBSPACE
            and opnorm(d) > tol.TOL_SAME_SUBSPACE
        ):
            raise ItemCountMismatch(f"item {j}: subspaces differ")
    v = as_operator(v)
    w = as_operator(w)
    k = as_operator(k)
    r = v + w
    r_sigma = require_invertible(r, "v + w")
    rstar = r.conj().T
    certs = [
        Certificate("k_commutes_with_sum", commutator_residual(k, r)),
        Certificate("sum_adjoint_commutes_with_t", commutator_residual(rstar, cp.t)),
        Certificate("sum_adjoint_commutes_with_u", commutator_residual(rstar, cp.u)),
    ]
    # Both families are applied through famL's bases: A_j = C_j B_j*, and the
    # output operators (L_j + G_j) P_j r* are (C_Lj + C_Gj)(B_j* r*).
    fL = item_factors(famL)
    fG = [(b, lamG @ b) for (b, _), (_, lamG, _) in zip(fL, famG.items)]
    # Cross-orthogonality: both sesquilinear forms vanish for all f iff the
    # assembled matrices (A_L r* t)* (A_G r* u) and (A_G r* t)* (A_L r* u)
    # vanish (complex polarization).
    rt, ru = rstar @ cp.t, rstar @ cp.u
    terms1 = cross_terms(rt, fL, fG, ru)
    terms2 = cross_terms(rt, fG, fL, ru)
    cross1 = 0.0
    cross2 = 0.0
    control_scale = cp.t_sigma.sigma_max * cp.u_sigma.sigma_max
    items_out = []
    for (b, cL), (_, cG), (sub, _, wt), g1, g2 in zip(
        fL, fG, famL.items, terms1, terms2
    ):
        br = b.conj().T @ rstar
        scale = max(opnorm(cL @ br) * opnorm(cG @ br) * control_scale, 1e-300)
        cross1 = max(cross1, opnorm(g1) / scale)
        cross2 = max(cross2, opnorm(g2) / scale)
        items_out.append((subspace_image(r, sub), (cL + cG) @ br, wt))
    certs.append(Certificate("cross_terms_gamma_lambda", cross1))
    certs.append(Certificate("cross_terms_lambda_gamma", cross2))
    fam_out = FrameFamily(famL.ambient_dim, items_out)

    a_l, b_l, _ = kgf_bounds(famL, cp, k)
    _, b_g, _ = kgf_bounds(famG, cp, k)
    # ||r^-1||^-2 = sigma_min(r)^2 and ||r||^2 = sigma_max(r)^2
    predicted_lower = a_l * r_sigma.sigma_min**2
    predicted_upper = (b_l + b_g) * r_sigma.sigma_max**2
    measured = _measure(FrameEvaluation(fam_out, cp), k)
    ok = all(res <= tol.TOL_FACTOR for _, res in certs)
    return _transform_report(
        fam_out, cp, k, predicted_lower, predicted_upper, measured, certs, ok
    )


def direct_sum_frame(
    famH: FrameFamily,
    cpH: ControlPair,
    kH,
    famX: FrameFamily,
    cpX: ControlPair,
    kX,
) -> TransformReport:
    """Join two families item-by-item on the direct sum of their spaces.

    Output frame operator is the block-diagonal sum of the two input frame
    operators; bounds combine as (min of lowers, max of uppers).
    """
    _, cp_out, k_out, (a_h, b_h, s_h), (a_x, b_x, s_x) = _paired(
        famH, cpH, kH, famX, cpX, kX
    )
    items_out = []
    for (subH, lamH, wt), (subX, lamX, _) in zip(famH.items, famX.items):
        items_out.append((dsum_subspace(subH, subX), dsum_op(lamH, lamX), wt))
    fam_out = FrameFamily(famH.ambient_dim + famX.ambient_dim, items_out)
    predicted_lower = min(a_h, a_x)
    predicted_upper = max(b_h, b_x)
    s_blocks = dsum_op(s_h, s_x)
    evO = FrameEvaluation(fam_out, cp_out)
    block_residual = opnorm(evO.s - s_blocks) / max(opnorm(s_blocks), 1e-300)
    certs = (Certificate("frame_operator_block_diagonal", block_residual),)
    measured = _measure(evO, k_out)
    return _transform_report(
        fam_out, cp_out, k_out, predicted_lower, predicted_upper, measured, certs,
        block_residual <= tol.TOL_DIRECT_SUM,
    )


def conjugate_transform(
    famH: FrameFamily,
    cpH: ControlPair,
    kH,
    famX: FrameFamily,
    cpX: ControlPair,
    kX,
    w,
    v,
) -> TransformReport:
    """Direct-sum construction conjugated by the invertible block pair (w, v).

    Output frame operator equals (w (+) v) (S_H (+) S_X) (w (+) v)* whenever
    the commutation hypotheses hold.
    """
    conjugators, cp_out, k_out, (a_h, b_h, s_h), (a_x, b_x, s_x) = _paired(
        famH, cpH, kH, famX, cpX, kX, w=w, v=v
    )
    (w, w_sigma), (v, v_sigma) = conjugators
    w_adj, v_adj = w.conj().T, v.conj().T
    certs = [
        Certificate("w_adjoint_commutes_with_t", commutator_residual(w_adj, cpH.t)),
        Certificate("w_adjoint_commutes_with_t1", commutator_residual(w_adj, cpH.u)),
        Certificate("v_adjoint_commutes_with_u", commutator_residual(v_adj, cpX.t)),
        Certificate("v_adjoint_commutes_with_u1", commutator_residual(v_adj, cpX.u)),
        Certificate("k_h_commutes_with_w", commutator_residual(as_operator(kH), w)),
        Certificate("k_x_commutes_with_v", commutator_residual(as_operator(kX), v)),
    ]
    wv = dsum_op(w, v)
    items_out = []
    for (subH, lamH, wt), (subX, lamX, _) in zip(famH.items, famX.items):
        sub_in = dsum_subspace(subH, subX)
        b = sub_in.basis
        lam_out = (dsum_op(lamH, lamX) @ b) @ (b.conj().T @ wv.conj().T)
        items_out.append((subspace_image(wv, sub_in), lam_out, wt))
    fam_out = FrameFamily(famH.ambient_dim + famX.ambient_dim, items_out)
    s_expected = wv @ dsum_op(s_h, s_x) @ wv.conj().T
    evO = FrameEvaluation(fam_out, cp_out)
    conj_residual = opnorm(evO.s - s_expected) / max(opnorm(s_expected), 1e-300)
    certs.append(Certificate("frame_operator_conjugated", conj_residual))

    predicted_lower = min(a_h * w_sigma.sigma_min**2, a_x * v_sigma.sigma_min**2)
    predicted_upper = max(b_h * w_sigma.sigma_max**2, b_x * v_sigma.sigma_max**2)
    measured = _measure(evO, k_out)
    hypotheses_ok = all(res <= tol.TOL_FACTOR for _, res in certs[:-1])
    return _transform_report(
        fam_out, cp_out, k_out, predicted_lower, predicted_upper, measured, certs,
        hypotheses_ok and conj_residual <= tol.TOL_CONJUGATED,
    )
