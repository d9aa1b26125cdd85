"""Dense complex linear-algebra substrate.

Operators are plain 2-D complex numpy arrays.  Everything here is a pure
function; inputs are never mutated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import tolerances as tol
from .errors import (
    DimensionMismatch,
    InvalidParameters,
    NotHermitian,
    NotInvertible,
    NotPSD,
    RangeNotContained,
    ZeroDenominator,
)


def as_operator(a) -> np.ndarray:
    """Coerce to a 2-D complex array and reject non-finite entries."""
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2:
        raise DimensionMismatch(f"operator must be 2-D, got shape {m.shape}")
    if not np.all(np.isfinite(m.real)) or not np.all(np.isfinite(m.imag)):
        raise InvalidParameters("operator entries must be finite")
    return m


def require_finite_positive(name: str, value):
    """Raise InvalidParameters unless `value` is a finite number > 0."""
    if not 0 < float(value) < math.inf:
        raise InvalidParameters(f"{name} must be finite and > 0, got {value}")


def as_vector(f) -> np.ndarray:
    v = np.asarray(f, dtype=complex)
    if v.ndim != 1:
        raise DimensionMismatch(f"vector must be 1-D, got shape {v.shape}")
    return v


# Sampled checks draw and test their random unit vectors this many at a
# time, which bounds their memory for any trial count.
SAMPLE_CHUNK = 1024


def seeded_rng(seed: int) -> np.random.Generator:
    """The PCG64 stream of a seed in [0, 2**64); InvalidParameters otherwise."""
    if not 0 <= seed < 2**64:
        raise InvalidParameters(f"seed must be in [0, 2**64), got {seed}")
    return np.random.default_rng(seed)


def random_unit_columns(seed: int, n: int, trials: int):
    """Yield `trials` random complex unit vectors of C^n as (n, c) blocks,
    drawn from the stream of `seed`.  Before the first, checks trials >= 1
    and the seed (`seeded_rng`).

    Each vector takes n standard normals for its real part, then n for its
    imaginary part: the stream of drawing the vectors one at a time.
    """
    if trials < 1:
        raise InvalidParameters(f"trials must be >= 1, got {trials}")
    rng = seeded_rng(seed)
    for start in range(0, trials, SAMPLE_CHUNK):
        z = rng.standard_normal((min(SAMPLE_CHUNK, trials - start), 2, n))
        x = (z[:, 0] + 1j * z[:, 1]).T
        yield x / np.linalg.norm(x, axis=0)


def opnorm(a) -> float:
    """Spectral norm; zero-size matrices have norm 0."""
    a = np.asarray(a)
    if a.size == 0:
        return 0.0
    return float(np.linalg.norm(a, 2))


@dataclass(frozen=True, eq=False)
class Subspace:
    """Closed subspace of C^n given by an orthonormal basis (columns).

    An empty basis (shape (n, 0)) is the zero subspace.
    """

    ambient_dim: int
    basis: np.ndarray

    def __post_init__(self):
        b = as_operator(self.basis)
        if b.shape[0] != self.ambient_dim or b.shape[1] > self.ambient_dim:
            raise DimensionMismatch(
                f"basis shape {b.shape} inconsistent with ambient dim {self.ambient_dim}"
            )
        if b.shape[1] > 0:
            gram = b.conj().T @ b
            dev = np.max(np.abs(gram - np.eye(b.shape[1])))
            if dev > tol.TOL_ORTH:
                raise InvalidParameters(f"basis not orthonormal (Gram deviation {dev:.3e})")
        object.__setattr__(self, "basis", b)

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    @staticmethod
    def full(n: int) -> "Subspace":
        return Subspace(n, np.eye(n, dtype=complex))

    @staticmethod
    def zero(n: int) -> "Subspace":
        return Subspace(n, np.zeros((n, 0), dtype=complex))


@dataclass(frozen=True)
class SpectralInterval:
    lambda_min: float
    lambda_max: float

    def __post_init__(self):
        if self.lambda_min > self.lambda_max:
            raise InvalidParameters("lambda_min exceeds lambda_max")


def orth(a) -> np.ndarray:
    """Orthonormal basis for the column space of `a` (SVD with relative cutoff TOL_RANK)."""
    a = as_operator(a)
    if a.shape[1] == 0 or not np.any(a):
        return np.zeros((a.shape[0], 0), dtype=complex)
    u, s, _ = np.linalg.svd(a, full_matrices=False)
    if s.size == 0 or s[0] == 0.0:
        return np.zeros((a.shape[0], 0), dtype=complex)
    rank = int(np.sum(s > tol.TOL_RANK * s[0]))
    return u[:, :rank]


def within_frobenius(d, a, rtol: float) -> bool:
    """Sufficient test for ||d||_2 <= rtol * ||a||_2 from Frobenius norms.

    ||d||_2 <= ||d||_F and ||a||_F <= sqrt(n) ||a||_2 for n = min(a.shape), so
    ||d||_F <= rtol * ||a||_F / sqrt(n) implies the spectral inequality.  A
    False result decides nothing: the caller computes the spectral norms.
    """
    n = max(min(a.shape), 1)
    return float(np.linalg.norm(d)) <= rtol * float(np.linalg.norm(a)) / math.sqrt(n)


def _largest_abs(vals) -> float:
    """max |lambda| over ascending eigenvalues: a Hermitian matrix's spectral norm."""
    return float(max(abs(vals[0]), abs(vals[-1]))) if vals.size else 0.0


def antihermitian_norm(d) -> float:
    """Spectral norm of an anti-Hermitian matrix such as a - a*.

    a - a* is anti-Hermitian exactly in floating point, so i(a - a*) is
    Hermitian and its largest absolute eigenvalue is the spectral norm.
    """
    d = np.asarray(d)
    return _largest_abs(np.linalg.eigvalsh(1j * d)) if d.size else 0.0


def require_hermitian(a) -> np.ndarray:
    """Gate ||a - a*||_2 <= TOL_HERM * ||a||_2 and return the Hermitian part (a + a*)/2.

    The Frobenius bracket passes most inputs without an SVD; otherwise the
    two spectral norms decide (||a - a*||_2 by `antihermitian_norm`), and
    the error quotes them.
    """
    a = as_operator(a)
    if a.shape[0] != a.shape[1]:
        raise NotHermitian(f"matrix is not square: {a.shape}")
    d = a - a.conj().T
    if not within_frobenius(d, a, tol.TOL_HERM):
        scale = opnorm(a)
        dev = antihermitian_norm(d)
        if dev > tol.TOL_HERM * max(scale, 1e-300):
            raise NotHermitian(
                f"asymmetry {dev:.3e} exceeds {tol.TOL_HERM:.1e} * norm {scale:.3e}"
            )
    return 0.5 * (a + a.conj().T)


def _psd_eigh(h):
    """Ascending eigenpairs of the Hermitian matrix h, gated as PSD.

    Eigenvalue dust in [-TOL_PSD * max|lambda|, 0) passes; anything more
    negative raises NotPSD.
    """
    vals, vecs = np.linalg.eigh(h)
    floor = -tol.TOL_PSD * max(_largest_abs(vals), 1e-300)
    if np.any(vals < floor):
        raise NotPSD(f"eigenvalue {vals.min():.3e} below floor {floor:.3e}")
    return vals, vecs


def positive_sqrt(a) -> np.ndarray:
    """Unique positive square root of a Hermitian PSD matrix.

    Eigenvalue dust below zero is clamped to zero; the gates are those of
    `require_hermitian` and `_psd_eigh`.
    """
    vals, vecs = _psd_eigh(require_hermitian(a))
    vals = np.clip(vals, 0.0, None)
    return (vecs * np.sqrt(vals)) @ vecs.conj().T


def pinv(a) -> np.ndarray:
    """Moore-Penrose pseudoinverse with relative cutoff TOL_RANK."""
    a = as_operator(a)
    if a.size == 0:
        return np.zeros((a.shape[1], a.shape[0]), dtype=complex)
    u, s, vh = np.linalg.svd(a, full_matrices=False)
    if s.size and s[0] > 0:
        inv = np.where(s > tol.TOL_RANK * s[0], 1.0 / np.where(s > 0, s, 1.0), 0.0)
    else:
        inv = np.zeros_like(s)
    return vh.conj().T @ (inv[:, None] * u.conj().T)


def projector(m: Subspace) -> np.ndarray:
    """Orthogonal projector onto the subspace (zero matrix for the zero subspace)."""
    b = m.basis
    if b.shape[1] == 0:
        return np.zeros((m.ambient_dim, m.ambient_dim), dtype=complex)
    return b @ b.conj().T


def subspace_image(r, m: Subspace) -> Subspace:
    """Image subspace { r x : x in span(m) } with an orthonormal basis."""
    r = as_operator(r)
    if r.shape[1] != m.ambient_dim:
        raise DimensionMismatch(
            f"operator cols {r.shape[1]} != ambient dim {m.ambient_dim}"
        )
    if m.dim == 0:
        return Subspace.zero(r.shape[0])
    return Subspace(r.shape[0], orth(r @ m.basis))


class SingularExtremes(NamedTuple):
    """Extreme singular values: ||a||_2 = sigma_max, ||a^-1||_2 = 1 / sigma_min."""

    sigma_min: float
    sigma_max: float


def singular_extremes(a) -> SingularExtremes:
    """Smallest and largest singular value of `a` from one SVD; (0, 0) when empty."""
    s = np.linalg.svd(as_operator(a), compute_uv=False)
    if s.size == 0:
        return SingularExtremes(0.0, 0.0)
    return SingularExtremes(float(s[-1]), float(s[0]))


def _condition(sigma: SingularExtremes) -> float:
    return sigma.sigma_max / sigma.sigma_min if sigma.sigma_min > 0 else math.inf


def condition_number(a) -> float:
    a = as_operator(a)
    if a.shape[0] != a.shape[1]:
        return math.inf
    return _condition(singular_extremes(a))


def dsum_extremes(a: SingularExtremes, b: SingularExtremes) -> SingularExtremes:
    """Singular extremes of the direct sum of two operators, from theirs.

    The singular values of a block-diagonal matrix are those of its blocks.
    """
    return SingularExtremes(min(a.sigma_min, b.sigma_min), max(a.sigma_max, b.sigma_max))


def require_conditioned(sigma: SingularExtremes, what: str = "operator") -> SingularExtremes:
    """Gate cond = sigma_max / sigma_min <= COND_MAX on measured extremes."""
    c = _condition(sigma)
    if c > tol.COND_MAX:
        raise NotInvertible(f"{what}: condition number {c:.3e} exceeds {tol.COND_MAX:.1e}")
    return sigma


def require_invertible(a, what: str = "operator") -> SingularExtremes:
    """Gate cond(a) <= COND_MAX and return the singular extremes of that SVD.

    A non-square `a` counts as singular.  Callers read ||a|| and ||a^-1||
    from the result instead of measuring `a` again.
    """
    a = as_operator(a)
    square = a.shape[0] == a.shape[1]
    sigma = singular_extremes(a) if square else SingularExtremes(0.0, 0.0)
    return require_conditioned(sigma, what)


def hermitian_spectrum(a) -> SpectralInterval:
    """Extreme eigenvalues of the Hermitian part (a + a*)/2, with no gate."""
    vals = np.linalg.eigvalsh(0.5 * (a + a.conj().T))
    return SpectralInterval(float(vals[0]), float(vals[-1]))


def hermitian_extremes(a) -> SpectralInterval:
    """Extreme eigenvalues of the Hermitian part of a (nearly) Hermitian matrix."""
    return hermitian_spectrum(require_hermitian(a))


def commutator_residual(a, b, norm_a: float | None = None, norm_b: float | None = None) -> float:
    """||a b - b a||_2 / (||a||_2 ||b||_2).

    A caller that already holds ||a||_2 or ||b||_2 passes it in, and that
    norm is not measured again.
    """
    if norm_a is None:
        norm_a = opnorm(a)
    if norm_b is None:
        norm_b = opnorm(b)
    scale = max(norm_a * norm_b, 1e-300)
    return opnorm(a @ b - b @ a) / scale


def gen_rayleigh_extremes(a, b) -> SpectralInterval:
    """Extremes of <a f, f> / <b f, f> over the range of b.

    Both matrices must be Hermitian PSD; the quotient is reduced to an
    ordinary eigenproblem on an orthonormal basis of range(b).
    """
    ah = require_hermitian(a)
    bh = require_hermitian(b)
    if ah.shape != bh.shape:
        raise DimensionMismatch("operands must have equal shapes")
    vals, vecs = _psd_eigh(bh)
    vmax = vals[-1] if vals.size else 0.0
    keep = vals > tol.TOL_RANK * max(vmax, 0.0)
    if not np.any(keep):
        raise ZeroDenominator("denominator operator is numerically zero")
    # q* b q = diag(vals[keep]) on the kept eigenvectors q of b: whiten with
    # q diag(vals[keep])^{-1/2} and take ordinary extremes
    w = vecs[:, keep] / np.sqrt(vals[keep])
    return hermitian_spectrum(w.conj().T @ ah @ w)


def gen_rayleigh_min(a, b) -> float:
    """Minimum of the generalized Rayleigh quotient of (a, b) on range(b)."""
    return gen_rayleigh_extremes(a, b).lambda_min


def douglas_factor(s, v):
    """Solve s = v w (minimum-norm) and certify range inclusion.

    Returns (w, lam) where lam is the smallest lam >= 0 with
    s s* <= lam^2 v v*.  Raises RangeNotContained when the residual of the
    factorization exceeds tolerance.
    """
    s = as_operator(s)
    v = as_operator(v)
    if s.shape[0] != v.shape[0]:
        raise DimensionMismatch("row counts must agree")
    w = pinv(v) @ s
    scale = max(opnorm(s), 1e-300)
    residual = opnorm(v @ w - s)
    if residual > tol.TOL_FACTOR * scale:
        raise RangeNotContained(
            f"factorization residual {residual:.3e} exceeds {tol.TOL_FACTOR:.1e} * ||s||"
        )
    ss = s @ s.conj().T
    vv = v @ v.conj().T
    if not np.any(np.abs(ss) > 0):
        return w, 0.0
    lam_sq = gen_rayleigh_extremes(ss, vv).lambda_max
    return w, float(np.sqrt(max(lam_sq, 0.0)))


def dsum_op(r, v) -> np.ndarray:
    """Block-diagonal direct sum of two operators."""
    r = as_operator(r)
    v = as_operator(v)
    out = np.zeros((r.shape[0] + v.shape[0], r.shape[1] + v.shape[1]), dtype=complex)
    out[: r.shape[0], : r.shape[1]] = r
    out[r.shape[0] :, r.shape[1] :] = v
    return out


def dsum_subspace(m: Subspace, n: Subspace) -> Subspace:
    """Direct sum of two subspaces inside the direct sum of their ambients."""
    nm, nn = m.ambient_dim, n.ambient_dim
    top = np.vstack([m.basis, np.zeros((nn, m.dim), dtype=complex)])
    bot = np.vstack([np.zeros((nm, n.dim), dtype=complex), n.basis])
    return Subspace(nm + nn, np.hstack([top, bot]))
