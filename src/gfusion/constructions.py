"""Frame-building transforms with predicted-bound verification.

Each construction emits the transformed family plus a report pairing the
predicted bounds (from the hypotheses) with measured spectral bounds; when a
hypothesis (a claim on its residual) fails the construction is still
emitted, flagged, and not verified.  An operator that the predictions
divide by (a conjugator, the sum operator) is claimed invertible; when it
is not, nothing is predicted.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import repeat
from numbers import Number
from typing import NamedTuple

import numpy as np

from . import tolerances as tol
from .errors import DimensionMismatch, InvalidParameters, ItemCountMismatch, WeightMismatch
from .frames import ControlPair, FrameEvaluation, FrameFamily
from .linalg import (
    SpectralInterval,
    adjoint,
    as_operator,
    commutator_residual,
    dsum_op,
    dsum_subspace,
    frozen,
    opnorm,
    product,
    scalar_multiple,
    singular_extremes,
    subspace_image,
    times_square,
)


class Certificate(NamedTuple):
    """The reported (name, residual) of a hypothesis claim."""

    name: str
    residual: float


@dataclass(frozen=True, eq=False)
class TransformReport:
    family_out: FrameFamily
    control_out: ControlPair
    k_out: np.ndarray
    predicted_lower: float | None
    predicted_upper: float | None
    measured: SpectralInterval
    hypothesis_certificates: tuple[Certificate, ...]
    all_hypotheses_pass: bool
    verified: bool = field(metadata={"report": False})
    claims: tuple = field(metadata={"report": False})


def _transform_report(
    fam_out, cp_out, k_out, predicted_lower, predicted_upper, measured, hypotheses,
    invertible=(),
) -> TransformReport:
    """The report; `verified` also claims that the measured lower bound reaches the predicted.

    `invertible` are the claims that the operators the predictions divide by
    are invertible: they join `all_hypotheses_pass` but not the
    certificates, and when one fails both predictions are None.
    """
    certificates = tuple(Certificate(h.name, h.value) for h in hypotheses)
    hypotheses = (*invertible, *hypotheses)
    claims = hypotheses
    if tol.all_hold(invertible):
        claims += (tol.claim("measured_lower_bound", measured.lambda_min, ">=", "TOL_CONSTRUCT",
                             base=predicted_lower, scale=max(predicted_upper, 1.0)),)
    else:
        predicted_lower = predicted_upper = None
    return TransformReport(
        fam_out, cp_out, k_out, predicted_lower, predicted_upper, measured, certificates,
        tol.all_hold(hypotheses), tol.all_hold(claims), claims,
    )


def _hypothesis(name: str, residual: float) -> tol.Claim:
    """The hypothesis `name`: its residual is at most TOL_FACTOR."""
    return tol.claim(name, residual, "<=", "TOL_FACTOR")


def _bessel(name: str, ev: FrameEvaluation) -> tol.Claim:
    """The hypothesis that a family is Bessel: its Hermitian residual."""
    return _hypothesis(f"{name}_family_bessel", ev.herm_residual)


def _square(name: str, a, n: int) -> np.ndarray:
    """`a` as an operator; DimensionMismatch unless it is n x n."""
    a = as_operator(a)
    if a.shape != (n, n):
        raise DimensionMismatch(f"{name} must be {n} x {n}, got {a.shape[0]} x {a.shape[1]}")
    return a


def _invertible(name: str, a):
    """The singular extremes of `a`, and the claim `{name}_invertible` that
    cond(a) <= COND_MAX; a number c standing for c I has extremes
    (|c|, |c|) and takes no SVD."""
    sigma = singular_extremes(a)
    return sigma, tol.claim(f"{name}_invertible", sigma.condition, "<=", "COND_MAX")


def _paired(famH, cpH, kH, famX, cpX, kX, conjugators=()):
    """Prologue of the H (+) X constructions.

    Checks item counts and weights, then the shape of each conjugator
    (name, operator, family it acts on), and only then evaluates each
    family under its control pair.  Returns each conjugator with its
    singular extremes and invertibility claim (`_invertible`, in the order
    given), the direct-sum family (items W_j (+) X_j, L_j (+) G_j), control
    pair and k, the Bessel hypotheses of the two families, and
    (a_opt, b, evaluation) of each family.
    """
    if len(famH) != len(famX):
        raise ItemCountMismatch(f"{len(famH)} vs {len(famX)} items")
    for j, (wH, wX) in enumerate(zip(famH.weights, famX.weights)):
        if abs(wH - wX) > 0:
            raise WeightMismatch(f"item {j}: weights {wH} != {wX}")
    checked = []
    for name, c, fam in conjugators:
        c = _square(name, c, fam.ambient_dim)
        checked.append((c, *_invertible(name, c)))
    kH = as_operator(kH)
    kX = as_operator(kX)
    cp_out = ControlPair.direct_sum(cpH, cpX)
    evaluated, bessel = [], []
    for name, fam, cp, k in (("h", famH, cpH, kH), ("x", famX, cpX, kX)):
        ev = FrameEvaluation(fam, cp)
        a_opt, b, _ = ev.kgf(k)
        evaluated.append((a_opt, b, ev))
        bessel.append(_bessel(name, ev))
    fam_sum = FrameFamily(famH.ambient_dim + famX.ambient_dim, [
        (dsum_subspace(subH, subX), dsum_op(lamH, lamX), wt)
        for (subH, lamH, wt), (subX, lamX, _) in zip(famH.items, famX.items)
    ])
    return checked, fam_sum, cp_out, dsum_op(kH, kX), bessel, *evaluated


def _measure(ev: FrameEvaluation, k) -> SpectralInterval:
    a_opt, b, _ = ev.kgf(k)
    return SpectralInterval(min(a_opt, b), b)


def sum_transform(
    famL: FrameFamily, famG: FrameFamily, v, w, cp: ControlPair, k
) -> TransformReport:
    """Transform two families sharing subspaces and weights through the sum
    operator r = v + w: subspaces become r W_j, operators (L_j + G_j) P_j r*.

    Certifies the commutation hypotheses k r == r k, r* t == t r*, r* u == u r*,
    the two per-item cross-orthogonality conditions and that both families are
    Bessel; predicted bounds follow the lower chain of the left family only.
    """
    if len(famL) != len(famG):
        raise ItemCountMismatch(f"{len(famL)} vs {len(famG)} items")
    if famL.ambient_dim != famG.ambient_dim:
        raise DimensionMismatch("families live on different ambient spaces")
    same_bases = []
    for j, ((subL, _, wL), (subG, _, wG)) in enumerate(zip(famL.items, famG.items)):
        if abs(wL - wG) > 0:
            raise WeightMismatch(f"item {j}: weights {wL} != {wG}")
        # equal bases span one subspace.  Else ||P_L - P_G||_2 is 1 for
        # unequal dimensions and ||B_G - P_L B_G||_2 for equal ones
        same_bases.append(np.array_equal(subL.basis, subG.basis))
        if same_bases[-1]:
            continue
        d = subG.basis - subL.basis @ (subL.basis.conj().T @ subG.basis)
        if subL.dim != subG.dim or opnorm(d) > tol.TOL_SAME_SUBSPACE:
            raise InvalidParameters(f"item {j}: subspaces differ")
    n = famL.ambient_dim
    r = _square("v", v, n) + _square("w", w, n)
    k = as_operator(k)
    # r = c I with c != 0 is applied as the number c, as a control is
    # (`ControlPair.t_side`): it commutes with k and the controls, r B_j is
    # c B_j with R factor |c| (up to a unitary diagonal, which no norm below
    # sees), and r W_j is W_j itself
    r = scalar_multiple(r) or r
    r_sigma, r_invertible = _invertible("sum", r)
    rstar = adjoint(r)
    # ||r*|| = ||r|| and the controls' norms are the sigma_max their gates kept
    evL, evG = FrameEvaluation(famL, cp), FrameEvaluation(famG, cp)
    hypotheses = [
        _hypothesis("k_commutes_with_sum", commutator_residual(k, r, None, r_sigma.sigma_max)),
        _hypothesis(
            "sum_adjoint_commutes_with_t",
            commutator_residual(rstar, cp.t_side, r_sigma.sigma_max, cp.t_sigma.sigma_max),
        ),
        _hypothesis(
            "sum_adjoint_commutes_with_u",
            commutator_residual(rstar, cp.u_side, r_sigma.sigma_max, cp.u_sigma.sigma_max),
        ),
    ]
    # Both families are applied through famL's bases: A_j = C_j B_j*, and the
    # output operators (L_j + G_j) P_j r* are (C_Lj + C_Gj)(r B_j)*.  famGL
    # is famG on famL's bases: famG itself where its bases are famL's, bit
    # for bit, so that its own factors and norms serve.
    famGL = famG
    if not all(same_bases):
        famGL = FrameFamily(famL.ambient_dim, [
            (sub, lamG, wt) for (sub, _, wt), (_, lamG, _) in zip(famL.items, famG.items)])
    # Cross-orthogonality: both sesquilinear forms vanish for all f iff
    # (A_L r* t)* (A_G r* u) = X_j (C_Lj* C_Gj) Y_j* and its L <-> G
    # exchange vanish (complex polarization), X_j = (r* t)* B_j and
    # Y_j = (r* u)* B_j.  With X_j = Q R_x and Y_j = Q' R_y (QR), the norm
    # ||X_j M Y_j*||_2 is ||R_x M R_y*||_2, and ||C B_j* r*||_2 is
    # ||C R_z*||_2 for r B_j = Q'' R_z: d_j x d_j problems.  Under a control
    # c I, X_j is conj(c) r B_j, so R_x is conj(c) R_z: that side stays the
    # number conj(c), with no n x n x d_j product and no QR; so does R_z
    # for a scalar r.
    xy_ops = [
        adjoint(c) if isinstance(c, Number) else adjoint(product(rstar, c))
        for c in (cp.t_side, cp.u_side)
    ]
    # Under two number sides rx and ry are multiples of one R_z, so
    # rx m* ry* and rx m ry* are multiples of R_z m* R_z* and of its
    # adjoint by numbers of one modulus: one norm serves both
    cross1 = 0.0
    cross2 = 0.0
    control_scale = cp.t_sigma.sigma_max * cp.u_sigma.sigma_max
    items_out = []
    # under r = c I, ||C_j R_z*||_2 is |c| ||C_j||_2, from each family's own norms
    norms = zip(famL.factor_norms, famGL.factor_norms) if isinstance(r, Number) else repeat(None)
    for (b, cL), (_, cG), (sub, _, wt), held in zip(famL.factors, famGL.factors, famL.items, norms):
        r_b = product(r, b)
        rz = abs(r) if isinstance(r, Number) else np.linalg.qr(r_b, mode="r")
        rx, ry = (
            a * rz if isinstance(a, Number) else np.linalg.qr(a @ b, mode="r") for a in xy_ops
        )
        m = cL.conj().T @ cG
        rz_adj, ry_adj = adjoint(rz), adjoint(ry)
        size_l, size_g = ((rz * held[0], rz * held[1]) if held else
                          (opnorm(product(cL, rz_adj)), opnorm(product(cG, rz_adj))))
        scale = max(size_l * size_g * control_scale, 1e-300)
        norm1 = opnorm(product(product(rx, m), ry_adj))
        norm2 = norm1 if cp.number_sides else opnorm(product(product(rx, m.conj().T), ry_adj))
        cross1 = max(cross1, norm1 / scale)
        cross2 = max(cross2, norm2 / scale)
        items_out.append((subspace_image(r, sub), frozen((cL + cG) @ r_b.conj().T), wt))
    hypotheses.append(_hypothesis("cross_terms_gamma_lambda", cross1))
    hypotheses.append(_hypothesis("cross_terms_lambda_gamma", cross2))
    fam_out = FrameFamily(famL.ambient_dim, items_out)

    hypotheses += [_bessel("lambda", evL), _bessel("gamma", evG)]
    a_l, b_l, _ = evL.kgf(k)
    _, b_g, _ = evG.kgf(k)
    # ||r^-1||^-2 = sigma_min(r)^2 and ||r||^2 = sigma_max(r)^2
    predicted_lower = times_square(a_l, r_sigma.sigma_min)
    predicted_upper = times_square(b_l + b_g, r_sigma.sigma_max)
    measured = _measure(FrameEvaluation(fam_out, cp), k)
    return _transform_report(
        fam_out, cp, k, predicted_lower, predicted_upper, measured, hypotheses, (r_invertible,)
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
    _, fam_out, cp_out, k_out, bessel, (a_h, b_h, evH), (a_x, b_x, evX) = _paired(
        famH, cpH, kH, famX, cpX, kX
    )
    predicted_lower = min(a_h, a_x)
    predicted_upper = max(b_h, b_x)
    evO = FrameEvaluation(fam_out, cp_out)
    # ||S_H (+) S_X|| = max(||S_H||, ||S_X||)
    block_residual = opnorm(evO.s - dsum_op(evH.s, evX.s)) / max(evH.norm, evX.norm, 1e-300)
    block = _hypothesis("frame_operator_block_diagonal", block_residual)
    measured = _measure(evO, k_out)
    return _transform_report(
        fam_out, cp_out, k_out, predicted_lower, predicted_upper, measured, (*bessel, block)
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
    the commutation hypotheses hold and both families are Bessel.
    """
    conjugators, fam_sum, cp_out, k_out, bessel, (a_h, b_h, evH), (a_x, b_x, evX) = _paired(
        famH, cpH, kH, famX, cpX, kX, (("w", w, famH), ("v", v, famX))
    )
    (w, w_sigma, w_invertible), (v, v_sigma, v_invertible) = conjugators
    w_adj, v_adj = w.conj().T, v.conj().T
    # ||w*|| = ||w||, ||v*|| = ||v|| and the controls' norms are the
    # sigma_max their gates kept
    norm_w, norm_v = w_sigma.sigma_max, v_sigma.sigma_max

    def commutes(name, a, b, norm_a, norm_b):
        return _hypothesis(name, commutator_residual(a, b, norm_a, norm_b))

    hypotheses = [
        commutes("w_adjoint_commutes_with_t", w_adj, cpH.t_side, norm_w,
                 cpH.t_sigma.sigma_max),
        commutes("w_adjoint_commutes_with_t1", w_adj, cpH.u_side, norm_w,
                 cpH.u_sigma.sigma_max),
        commutes("v_adjoint_commutes_with_u", v_adj, cpX.t_side, norm_v,
                 cpX.t_sigma.sigma_max),
        commutes("v_adjoint_commutes_with_u1", v_adj, cpX.u_side, norm_v,
                 cpX.u_sigma.sigma_max),
        commutes("k_h_commutes_with_w", as_operator(kH), w, None, norm_w),
        commutes("k_x_commutes_with_v", as_operator(kX), v, None, norm_v),
        *bessel,
    ]
    wv = dsum_op(w, v)
    items_out = []
    for (sub, _, wt), (b, c) in zip(fam_sum.items, fam_sum.factors):
        lam_out = frozen(c @ (b.conj().T @ wv.conj().T))
        items_out.append((subspace_image(wv, sub), lam_out, wt))
    fam_out = FrameFamily(fam_sum.ambient_dim, items_out)
    s_expected = wv @ dsum_op(evH.s, evX.s) @ wv.conj().T
    evO = FrameEvaluation(fam_out, cp_out)
    conj_residual = opnorm(evO.s - s_expected) / max(opnorm(s_expected), 1e-300)
    hypotheses.append(_hypothesis("frame_operator_conjugated", conj_residual))

    predicted_lower = min(times_square(a_h, w_sigma.sigma_min),
                          times_square(a_x, v_sigma.sigma_min))
    predicted_upper = max(times_square(b_h, w_sigma.sigma_max),
                          times_square(b_x, v_sigma.sigma_max))
    measured = _measure(evO, k_out)
    return _transform_report(
        fam_out, cp_out, k_out, predicted_lower, predicted_upper, measured, hypotheses,
        (w_invertible, v_invertible),
    )
