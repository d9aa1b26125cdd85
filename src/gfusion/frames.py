"""Controlled g-fusion frame families and their operators.

A family is a finite list of triples (subspace W_j, operator L_j : H -> H_j,
weight v_j > 0) together with a control pair (t, u) of invertible operators
on H.  The central object is the frame operator

    S = sum_j v_j^2  t* P_j L_j* L_j P_j u

whose spectral extremes are the optimal frame bounds, and the synthesis
operator T_C = [v_1 R_1*, ..., v_m R_m*] with R_j = (t* P_j L_j* L_j P_j u)^{1/2},
whose adjoint is the analysis map.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import tolerances as tol
from .errors import (
    DimensionMismatch,
    GFusionError,
    InvalidParameters,
    NotAFrame,
    NotPositive,
    ZeroDenominator,
)
from .linalg import (
    SingularExtremes,
    SpectralInterval,
    Subspace,
    antihermitian_norm,
    as_operator,
    as_vector,
    dsum_extremes,
    dsum_op,
    gen_rayleigh_min,
    hermitian_spectrum,
    opnorm,
    pinv,
    positive_sqrt,
    require_conditioned,
    require_finite_positive,
    require_invertible,
    within_frobenius,
)


@dataclass(frozen=True, eq=False)
class FrameFamily:
    """Indexed triples (subspace, operator into the component space, weight)."""

    ambient_dim: int
    items: tuple

    def __init__(self, ambient_dim: int, items):
        items = tuple(
            (sub, as_operator(lam), float(w)) for sub, lam, w in items
        )
        if not items:
            raise InvalidParameters("family must have at least one item")
        for i, (sub, lam, w) in enumerate(items):
            if sub.ambient_dim != ambient_dim:
                raise DimensionMismatch(
                    f"item {i}: subspace ambient dim {sub.ambient_dim} != {ambient_dim}"
                )
            if lam.shape[1] != ambient_dim:
                raise DimensionMismatch(
                    f"item {i}: operator cols {lam.shape[1]} != {ambient_dim}"
                )
            require_finite_positive(f"item {i}: weight", w)
        object.__setattr__(self, "ambient_dim", int(ambient_dim))
        object.__setattr__(self, "items", items)

    def __len__(self) -> int:
        return len(self.items)

    @property
    def weights(self):
        return tuple(w for _, _, w in self.items)

    def block_dims(self):
        return tuple(lam.shape[0] for _, lam, _ in self.items)


@dataclass(frozen=True, eq=False)
class ControlPair:
    """Ordered pair (t, u) of invertible operators on the ambient space.

    Keeps the singular extremes of t and u from its invertibility check, so
    ||t||, ||t^-1||, ||u|| and ||u^-1|| need no further SVD.  In
    ControlPair(c, c) the one operator c is checked once.
    """

    t: np.ndarray
    u: np.ndarray
    t_sigma: SingularExtremes = field(init=False, repr=False)
    u_sigma: SingularExtremes = field(init=False, repr=False)

    def __init__(self, t, u):
        t, u = as_operator(t), as_operator(u)
        if t.shape != u.shape or t.shape[0] != t.shape[1]:
            raise DimensionMismatch("controls must be square of equal size")
        if np.array_equal(t, u):
            t_sigma = u_sigma = require_invertible(t, "control t = u")
        else:
            t_sigma = require_invertible(t, "control t")
            u_sigma = require_invertible(u, "control u")
        self._store(t, u, t_sigma, u_sigma)

    def _store(self, t, u, t_sigma, u_sigma):
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "t_sigma", t_sigma)
        object.__setattr__(self, "u_sigma", u_sigma)

    @staticmethod
    def direct_sum(h: "ControlPair", x: "ControlPair") -> "ControlPair":
        """(t_H (+) t_X, u_H (+) u_X) on the direct sum of the two spaces.

        The singular values of a block-diagonal operator are its blocks', so
        the pair is gated on the blocks' extremes (the min of the minima, the
        max of the maxima) with no SVD of the block-diagonal controls.
        """
        t, u = dsum_op(h.t, x.t), dsum_op(h.u, x.u)
        same = np.array_equal(t, u)
        t_sigma = require_conditioned(
            dsum_extremes(h.t_sigma, x.t_sigma), "control t = u" if same else "control t"
        )
        u_sigma = t_sigma if same else require_conditioned(
            dsum_extremes(h.u_sigma, x.u_sigma), "control u"
        )
        pair = object.__new__(ControlPair)
        pair._store(t, u, t_sigma, u_sigma)
        return pair

    @staticmethod
    def identity(n: int) -> "ControlPair":
        eye = np.eye(n, dtype=complex)
        return ControlPair(eye, eye)

    @staticmethod
    def scalars(n: int, alpha: complex, beta: complex) -> "ControlPair":
        eye = np.eye(n, dtype=complex)
        return ControlPair(alpha * eye, beta * eye)


@dataclass(frozen=True, eq=False)
class BlockVector:
    """One coefficient vector per family index; element of the l^2 sum space."""

    blocks: tuple

    def __init__(self, blocks):
        object.__setattr__(self, "blocks", tuple(as_vector(b) for b in blocks))

    def norm_sq(self) -> float:
        return float(sum(np.vdot(b, b).real for b in self.blocks))

    def norm(self) -> float:
        return math.sqrt(self.norm_sq())

    @staticmethod
    def zeros(dims) -> "BlockVector":
        return BlockVector([np.zeros(d, dtype=complex) for d in dims])


@dataclass(frozen=True, eq=False)
class FrameReport:
    is_bessel: bool
    is_frame: bool
    bounds: SpectralInterval
    s_c: np.ndarray
    herm_residual: float


@dataclass(frozen=True, eq=False)
class AtomicReport:
    is_atomic: bool
    bessel_bound: float
    coefficient_norm_bound: float
    lower_bound: float
    # fields marked "report": False are for library callers only; the CLI
    # report (serialize.to_json) skips them
    coefficient_map: np.ndarray | None = field(default=None, metadata={"report": False})
    coefficient_residual: float | None = None
    literal_residual: float | None = field(default=None)


def _check_dims(fam: FrameFamily, cp: ControlPair):
    if cp.t.shape[0] != fam.ambient_dim:
        raise DimensionMismatch(
            f"control dim {cp.t.shape[0]} != family ambient dim {fam.ambient_dim}"
        )


def item_factors(fam: FrameFamily) -> list:
    """Per-item factors (B_j, C_j = L_j B_j), B_j the orthonormal basis of W_j.

    The item operator L_j P_j equals C_j B_j*, so no n x n projector is formed.
    """
    return [(sub.basis, lam @ sub.basis) for sub, lam, _ in fam.items]


def cross_terms(t, left, right, u) -> np.ndarray:
    """Stack of (t* B_j)(C_j* C'_j)(B'_j* u) over the factor lists `left`
    (B_j, C_j) and `right` (B'_j, C'_j): slice j is (A_j t)* (A'_j u) with
    A_j = C_j B_j*.  O(n^2 dim W_j) per item, where projectors cost O(n^3).
    """
    out = np.empty((len(left), t.shape[1], u.shape[1]), dtype=complex)
    t_adj = t.conj().T
    for j, ((b_l, c_l), (b_r, c_r)) in enumerate(zip(left, right)):
        out[j] = (t_adj @ b_l) @ ((c_l.conj().T @ c_r) @ (b_r.conj().T @ u))
    return out


def item_cross_operator(sub: Subspace, lam, cp: ControlPair) -> np.ndarray:
    """Single term t* P L* L P u (weight excluded)."""
    factors = [(sub.basis, as_operator(lam) @ sub.basis)]
    return cross_terms(cp.t, factors, factors, cp.u)[0]


class FrameEvaluation:
    """A family under a control pair, evaluated once for one public call.

    Holds the per-item factors (B_j, C_j) of A_j = L_j P_j = C_j B_j*, the
    cross operators G_j = (A_j t)* (A_j u) stacked as `terms`, and
    S = sum_j v_j^2 G_j.  The norms, the Hermitian residual, the spectrum,
    S^-1, the bounds report and the synthesis operator T_C (the only holder
    of the per-item square roots) are computed on first use.  Nothing
    outlives the call that built it: families hold mutable arrays.
    """

    def __init__(self, fam: FrameFamily, cp: ControlPair):
        _check_dims(fam, cp)
        self.fam = fam
        self.weights_sq = np.array([w * w for w in fam.weights])
        self.factors = item_factors(fam)
        self.terms = self.cross_terms(cp.t, cp.u)
        self.s = as_operator(self.weighted_sum(self.terms))  # rejects an overflow

    def cross_terms(self, t, u) -> np.ndarray:
        """Stack of (A_j t)* (A_j u), one n x n slice per item."""
        return cross_terms(t, self.factors, self.factors, u)

    def weighted(self, stack) -> np.ndarray:
        """Scale slice j of `stack` by v_j^2 in place; returns `stack`."""
        stack *= self.weights_sq[:, None, None]
        return stack

    def weighted_sum(self, stack) -> np.ndarray:
        """sum_j v_j^2 stack_j."""
        return np.tensordot(self.weights_sq, stack, axes=1)

    @cached_property
    def norm(self) -> float:
        return opnorm(self.s)

    @cached_property
    def asymmetry(self) -> float:
        """||S - S*||_2."""
        return antihermitian_norm(self.s - self.s.conj().T)

    @property
    def herm_residual(self) -> float:
        """||S - S*||_2 / ||S||_2."""
        return self.asymmetry / max(self.norm, 1e-300)

    @cached_property
    def is_bessel(self) -> bool:
        """herm_residual <= TOL_FACTOR, passed by the Frobenius bracket when it can."""
        return within_frobenius(
            self.s - self.s.conj().T, self.s, tol.TOL_FACTOR
        ) or self.herm_residual <= tol.TOL_FACTOR

    @cached_property
    def hermitian(self) -> np.ndarray:
        return 0.5 * (self.s + self.s.conj().T)

    @cached_property
    def bounds(self) -> SpectralInterval:
        return hermitian_spectrum(self.s)

    @property
    def is_frame(self) -> bool:
        b = self.bounds
        return self.is_bessel and b.lambda_min > tol.TOL_PSD * b.lambda_max

    @cached_property
    def inverse(self) -> np.ndarray:
        """S^-1; raises NotAFrame unless `is_frame`."""
        if not self.is_frame:
            raise NotAFrame("frame operator is not invertible at threshold")
        return np.linalg.inv(self.s)

    def report(self) -> FrameReport:
        return FrameReport(
            self.is_bessel, self.is_frame, self.bounds, self.s, self.herm_residual
        )

    @cached_property
    def synthesis_matrix(self) -> np.ndarray:
        """T_C = [v_1 R_1*, ..., v_m R_m*], R_j the positive square root of
        the j-th cross operator: the one form of the per-item roots."""
        blocks = []
        for j, (w, g) in enumerate(zip(self.fam.weights, self.terms)):
            try:
                blocks.append(w * positive_sqrt(g).conj().T)
            except GFusionError as exc:
                raise NotPositive(
                    f"item {j}: cross operator is not Hermitian PSD ({exc})"
                ) from exc
        return np.hstack(blocks)

    def analysis(self, f) -> BlockVector:
        """T_C* f, split into one block per item."""
        f = as_vector(f)
        if f.shape[0] != self.fam.ambient_dim:
            raise DimensionMismatch(f"vector dim {f.shape[0]} != {self.fam.ambient_dim}")
        return BlockVector(np.split(self.synthesis_matrix.conj().T @ f, len(self.fam)))

    def _check_k(self, k) -> np.ndarray:
        k = as_operator(k)
        if k.shape != (self.fam.ambient_dim, self.fam.ambient_dim):
            raise DimensionMismatch("k must be square on the ambient space")
        return k

    def kgf(self, k):
        """(a_opt, b, is_kgf) of `kgf_bounds`: (-inf, b, False) unless Bessel."""
        k = self._check_k(k)
        b = self.bounds.lambda_max
        if not self.is_bessel:
            return -math.inf, b, False
        try:
            a_opt = gen_rayleigh_min(self.hermitian, k @ k.conj().T)
        except ZeroDenominator:
            return math.inf, b, True
        # positivity at the same relative floor used for the frame flag, so
        # roundoff dust around zero does not flip the verdict
        return a_opt, b, bool(a_opt > tol.TOL_PSD * max(b, 0.0))

    def atomic(self, k) -> AtomicReport:
        """The report of `atomic_check`."""
        k = self._check_k(k)
        a_opt, b, is_kgf = self.kgf(k)
        scale_k = max(opnorm(k), 1e-300)
        literal_residual = opnorm(k - self.s) / scale_k
        # Minimum-norm solution of T_C L = k through the n x n Gram T_C T_C*:
        # the square roots leave ~sqrt(eps) noise singular values in T_C that
        # a pseudoinverse of T_C itself would invert.
        t_c = self.synthesis_matrix
        coeff_map = t_c.conj().T @ (pinv(t_c @ t_c.conj().T) @ k)
        coeff_residual = opnorm(t_c @ coeff_map - k) / scale_k
        # finite only with the verdict: a roundoff-level a_opt below the
        # positivity floor would give a huge, meaningless bound
        c = math.sqrt(1.0 / a_opt) if (is_kgf and math.isfinite(a_opt)) else math.inf
        return AtomicReport(
            is_atomic=is_kgf,
            bessel_bound=b,
            coefficient_norm_bound=c,
            lower_bound=a_opt,
            coefficient_map=coeff_map,
            coefficient_residual=coeff_residual,
            literal_residual=literal_residual,
        )


def frame_sum(fam: FrameFamily, cp: ControlPair, f):
    """Literal sum  sum_j v_j^2 <L_j P_j u f, L_j P_j t f>.

    `f` is one vector of shape (n,), giving a complex number, or a block of
    k column vectors of shape (n, k), giving the k sums as an array.  Each
    L_j P_j is applied through the basis B_j of W_j, in the association with
    fewer flops: as C_j B_j* with C_j = L_j B_j when dim W_j < 2k,
    otherwise as L_j (B_j (B_j* .)).
    """
    _check_dims(fam, cp)
    f = np.asarray(f, dtype=complex)
    if f.ndim not in (1, 2):
        raise DimensionMismatch(f"vector must be 1-D or 2-D, got shape {f.shape}")
    if f.shape[0] != fam.ambient_dim:
        raise DimensionMismatch(f"vector dim {f.shape[0]} != {fam.ambient_dim}")
    block = f.reshape(fam.ambient_dim, -1)
    k = block.shape[1]
    # rows: the k vectors t f, then the k vectors u f; each per-item sum
    # then runs along contiguous memory
    rows = np.concatenate((cp.t @ block, cp.u @ block), axis=1).T
    total = np.zeros(k, dtype=complex)
    for sub, lam, w in fam.items:
        b = sub.basis
        coords = rows @ b.conj()
        if b.shape[1] < 2 * k:
            a = coords @ (lam @ b).T
        else:
            a = (coords @ b.T) @ lam.T
        total += w * w * np.vecdot(a[:k], a[k:])
    return complex(total[0]) if f.ndim == 1 else total


def frame_operator(fam: FrameFamily, cp: ControlPair) -> np.ndarray:
    """Matrix  sum_j v_j^2 t* P_j L_j* L_j P_j u."""
    return FrameEvaluation(fam, cp).s


def analysis(fam: FrameFamily, cp: ControlPair, f) -> BlockVector:
    """Coefficient map f -> { v_j (t* P_j L_j* L_j P_j u)^{1/2} f }."""
    return FrameEvaluation(fam, cp).analysis(f)


def synthesis_matrix(fam: FrameFamily, cp: ControlPair) -> np.ndarray:
    """Stacked synthesis map  [v_1 R_1*, ..., v_m R_m*]  from the l^2 sum
    space (blocks concatenated) back to H, with R_j the per-item square root."""
    return FrameEvaluation(fam, cp).synthesis_matrix


def synthesis(fam: FrameFamily, cp: ControlPair, g: BlockVector, f_hint=None):
    """Apply the synthesis map to a block vector.

    The map is defined on the coefficient range of the analysis map; when
    `f_hint` is supplied, membership is certified by comparing `g` against
    analysis(f_hint).  Returns (vector, range_certified).
    """
    ev = FrameEvaluation(fam, cp)
    if len(g.blocks) != len(fam):
        raise DimensionMismatch(
            f"block count {len(g.blocks)} != item count {len(fam)}"
        )
    if any(b.shape[0] != fam.ambient_dim for b in g.blocks):
        raise DimensionMismatch("block dimension mismatch with square-root operator")
    coeffs = np.concatenate(g.blocks)
    out = ev.synthesis_matrix @ coeffs
    certified = False
    if f_hint is not None:
        ref = np.concatenate(ev.analysis(f_hint).blocks)
        scale = max(np.linalg.norm(ref), np.linalg.norm(coeffs), 1e-300)
        certified = bool(np.linalg.norm(coeffs - ref) <= tol.TOL_FACTOR * scale)
    return out, certified


def controlled_frame_bounds(fam: FrameFamily, cp: ControlPair) -> FrameReport:
    """Optimal frame bounds as spectral extremes of the frame operator."""
    return FrameEvaluation(fam, cp).report()


def kgf_bounds(fam: FrameFamily, cp: ControlPair, k):
    """Optimal bounds for the frame inequality measured against ||k* f||^2.

    Returns (a_opt, b, is_kgf), b the top eigenvalue of the Hermitian part
    of S.  A zero k yields the vacuous case with the +inf sentinel for a_opt.
    An S that fails the Hermitian gate at TOL_FACTOR (not Bessel) gives
    (-inf, b, False): -inf is the supremum of an empty set of lower bounds.
    """
    return FrameEvaluation(fam, cp).kgf(k)


def atomic_check(fam: FrameFamily, cp: ControlPair, k) -> AtomicReport:
    """Atomic-subspace verdict for k: equivalent to the k-tied frame property.

    Also produces the minimum-norm coefficient map L with the certificate
    ||T_C L - k|| <= tol * ||k||, and the residual of the literal reading
    k == S (which the display equation of the definition forces).  Raises
    NotPositive when T_C does not exist, as for a generic non-Bessel family.
    """
    return FrameEvaluation(fam, cp).atomic(k)


def atomic_wrt_frame_operator(fam: FrameFamily, cp: ControlPair) -> AtomicReport:
    """Atomicity with respect to the family's own frame operator."""
    ev = FrameEvaluation(fam, cp)
    return ev.atomic(ev.s)


def linear_combination_atomic(fam: FrameFamily, cp: ControlPair, k1, k2, alpha, beta):
    """Atomicity with respect to alpha*k1 + beta*k2 and to k1 k2.

    Returns the pair of reports (combination, product)."""
    k1 = as_operator(k1)
    k2 = as_operator(k2)
    ev = FrameEvaluation(fam, cp)
    combo = ev.atomic(alpha * k1 + beta * k2)
    prod = ev.atomic(k1 @ k2)
    return combo, prod
