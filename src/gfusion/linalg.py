"""Dense complex linear-algebra substrate.

Operators are plain 2-D complex numpy arrays.  Everything here is a pure
function; inputs are never mutated.  The arrays a `Subspace` or a family
holds are read-only (`read_only`, `frozen`).
"""

from __future__ import annotations

import math
import operator
import sys
from dataclasses import dataclass
from numbers import Number
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
    if not np.isfinite(m).all():
        raise InvalidParameters("operator entries must be finite")
    return m


def frozen(m: np.ndarray) -> np.ndarray:
    """Mark an array this library made, and each array its memory comes
    from, read-only in place; returns `m`."""
    a = m
    while isinstance(a, np.ndarray):
        a.flags.writeable = False
        a = a.base
    return m


def _unwritable(m: np.ndarray) -> bool:
    """Nothing can write m: it and each array its memory comes from are
    read-only, down to the one that owns the memory."""
    while isinstance(m, np.ndarray):
        if m.flags.writeable:
            return False
        m = m.base
    return m is None


def read_only(a) -> np.ndarray:
    """`as_operator(a)` as an array that nothing can write.

    An array converted here (from a list or a real array) and an array
    already unwritable are frozen in place; any other may share memory with
    the caller's and is copied once.
    """
    m = as_operator(a)
    fresh = m is not a and m.base is None
    return frozen(m if fresh or _unwritable(m) else m.copy())


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


def random_draws(seed: int, n: int, trials: int):
    """Yield the draws of `trials` random vectors x of C^n from the stream
    of `seed`, as (c, 2n) real blocks of rows [Re x, Im x].  Before the
    first, checks trials >= 1 and the seed (`seeded_rng`).

    Each vector takes n standard normals for its real part, then n for its
    imaginary part: the stream of drawing the vectors one at a time.
    """
    if trials < 1:
        raise InvalidParameters(f"trials must be >= 1, got {trials}")
    rng = seeded_rng(seed)
    for start in range(0, trials, SAMPLE_CHUNK):
        yield rng.standard_normal((min(SAMPLE_CHUNK, trials - start), 2 * n))


def random_unit_columns(seed: int, n: int, trials: int):
    """Yield the vectors of `random_draws`, each scaled to unit length, as
    (n, c) complex blocks."""
    for z in random_draws(seed, n, trials):
        x = np.empty((z.shape[0], n), dtype=complex)
        x.real, x.imag = z[:, :n], z[:, n:]
        x = x.T
        x /= np.linalg.norm(x, axis=0)
        yield x


def scalar_multiple(a) -> complex | None:
    """c when the square operator `a` is exactly c I (every entry off the
    diagonal zero, every diagonal entry c), else None."""
    if a.shape[0] != a.shape[1] or a.size == 0:
        return None
    d = a.diagonal()
    if (d == d[0]).all() and np.count_nonzero(a) == (d.size if d[0] else 0):
        return complex(d[0])
    return None


def adjoint(a):
    """a*: the conjugate transpose of an operator, or the conjugate of a
    number c standing for c I."""
    return a.conjugate() if isinstance(a, Number) else np.asarray(a).conj().T


def product(a, b, out=None):
    """a b, where a number c in either place stands for c I: then the other
    factor scaled by c, with no matrix product.  With `out`, the result is
    written there."""
    if isinstance(a, Number) or isinstance(b, Number):
        return a * b if out is None else np.multiply(a, b, out=out)
    return a @ b if out is None else np.matmul(a, b, out=out)


def diagonal_blocks(a) -> tuple:
    """The finest split of the square matrix `a` into contiguous diagonal
    blocks whose off-diagonal blocks are exactly zero, as the offsets
    (0, o_1, ..., n) of its blocks; (0, n) at once, in O(1), when a corner
    entry a[0, -1] or a[-1, 0] is nonzero.

    A boundary p splits `a` when a[:p, p:] and a[p:, :p] are zero: when no
    index i < p is linked (a[i, j] or a[j, i] nonzero) to an index j >= p.
    """
    n = a.shape[0]
    if n < 2 or a[0, -1] != 0 or a[-1, 0] != 0:
        return (0, n)
    linked = a != 0
    linked = linked | linked.T
    np.fill_diagonal(linked, True)
    last = n - 1 - np.argmax(linked[:, ::-1], axis=1)  # the last index i is linked to
    ends = np.flatnonzero(np.maximum.accumulate(last) == np.arange(n)) + 1
    return (0, *ends.tolist())


def _blocks(a):
    """The blocks of `diagonal_blocks(a)`: the spans (lo, hi) of those larger
    than 1 x 1, each decomposed by one LAPACK call, and the indices of the
    1 x 1 ones (a 1 x 1 `a` too), read off the diagonal with none."""
    offsets = diagonal_blocks(a)
    spans = list(zip(offsets, offsets[1:]))
    return [(lo, hi) for lo, hi in spans if hi - lo > 1], [lo for lo, hi in spans if hi - lo == 1]


# `top_eigenvalue` on a Gram block above LANCZOS_GATE (from side 104-112 Lanczos
# and its Cholesky beat a full eigvalsh on one BLAS thread): at most LANCZOS_CAP
# steps, until the top Ritz value grows by at most LANCZOS_STOP relative (above the
# few-eps jitter of a converged value with no kept basis); tau = CERTIFY_SLACK * side * eps.
LANCZOS_GATE = 112
LANCZOS_CAP = 96
LANCZOS_STOP = 16 * np.finfo(float).eps
CERTIFY_SLACK = 8


def lanczos_start(n: int) -> np.ndarray:
    """Lanczos's fixed start on C^n: a unit vector of a stream seeded by n."""
    x = np.random.default_rng(n).standard_normal(n)
    return x / np.linalg.norm(x)


def _ritz_top(g) -> float | None:
    """The top Ritz value of the Hermitian g by the Lanczos three-term recurrence
    from `lanczos_start`, with no kept basis, read by eigvalsh of the tridiagonal
    every third step, at the last, and wherever beta is within LANCZOS_STOP of
    the tridiagonal's Gershgorin radius (which bounds the Ritz values): once it
    stagnates between reads or the Krylov space closes; None if neither within
    LANCZOS_CAP steps."""
    n, steps = g.shape[0], min(LANCZOS_CAP, g.shape[0])
    tri = np.zeros((steps + 1, steps))
    x, prev, top, radius, beta = lanczos_start(n), 0.0, -math.inf, 0.0, 0.0
    for j in range(steps):
        w = g @ x - beta * prev
        tri[j, j] = np.vdot(x, w).real
        w -= tri[j, j] * x
        last, beta = beta, np.linalg.norm(w)
        radius = max(radius, abs(tri[j, j]) + last + beta)
        if j % 3 == 0 or j + 1 == steps or beta <= LANCZOS_STOP * radius:
            ritz = np.linalg.eigvalsh(tri[: j + 1, : j + 1])[-1]
            if min(ritz - top, beta) <= LANCZOS_STOP * abs(ritz):
                return ritz
            top = ritz
        tri[j + 1, j], prev, x = beta, x, w / beta
    return None


def certifies(g, theta: float) -> bool:
    """lambda_max(g) <= theta (1 + tau) for the Hermitian n x n g, tau = CERTIFY_SLACK
    * n * eps, proved up to its backward error by the package's one Cholesky, of
    theta (1 + tau) I - g: what bounds a Ritz value, whose Krylov basis is not kept."""
    h = np.negative(g)
    h.flat[:: g.shape[0] + 1] += theta * (1.0 + CERTIFY_SLACK * g.shape[0] * np.finfo(float).eps)
    try:
        return np.linalg.cholesky(h) is not None
    except np.linalg.LinAlgError:
        return False


def top_eigenvalue(g) -> float:
    """lambda_max of the Hermitian g: above LANCZOS_GATE the Ritz value theta of
    `_ritz_top` (within rounding of lambda_max, Paige 1980) where `certifies` it;
    else, and where either fails, the top eigvalsh."""
    theta = _ritz_top(g) if g.shape[0] > LANCZOS_GATE else None
    return theta if theta is not None and certifies(g, theta) else np.linalg.eigvalsh(g)[-1]


def range_scaled(a) -> tuple:
    """(a / c, c): c = 1.0 and a itself where ||a||_F^2 lies in [2^-900,
    2^900], else c the largest power of two at most the largest |entry| of
    a (a itself for c = 0), so that no square of an entry leaves the float
    range.  The division scales the real and imaginary parts by a power of
    two (`np.ldexp`): it is exact, where a complex division by a subnormal
    c overflows.  A non-finite entry is rejected as `as_operator` does."""
    with np.errstate(over="ignore", invalid="ignore"):
        frobenius_sq = float(np.vdot(a, a).real)
    if 2.0**-900 <= frobenius_sq <= 2.0**900:
        return a, 1.0
    top = float(np.abs(a).max(initial=0.0))
    if not math.isfinite(top):
        raise InvalidParameters("operator entries must be finite")
    if not top:
        return a, top
    shift = 1 - math.frexp(top)[1]  # 2^-shift <= top < 2^(1 - shift)
    if np.iscomplexobj(a):
        scaled = np.empty(a.shape, a.dtype)
        scaled.real, scaled.imag = np.ldexp(a.real, shift), np.ldexp(a.imag, shift)
    else:
        scaled = np.ldexp(a, shift)
    return scaled, math.ldexp(1.0, -shift)


def opnorm(a) -> float:
    """||a||_2, of any shape, as the root of the top eigenvalue of a Gram
    matrix (`top_eigenvalue`), in place of an SVD; it keeps its relative
    accuracy.  A square `a` is split first (`diagonal_blocks`): b b* per
    block b, |a_ii|^2 for a 1 x 1 block.  Any other `a` is measured by its
    smaller Gram matrix (a a* or a* a), split the same way.  Zero-size
    matrices have norm 0.  a is measured as `range_scaled` gives it, so
    that no Gram matrix overflows or underflows."""
    a, top = range_scaled(np.asarray(a))
    if top == 0:
        return 0.0
    gram = a.shape[0] != a.shape[1]
    if gram:
        a = a @ a.conj().T if a.shape[0] < a.shape[1] else a.conj().T @ a
    big, ones = _blocks(a)
    tops = [top_eigenvalue(b if gram else b @ b.conj().T)
            for b in (a[lo:hi, lo:hi] for lo, hi in big)]
    diag = np.abs(a.diagonal()[ones])
    return top * math.sqrt(max(0.0, *tops, (diag if gram else diag * diag).max(initial=0.0)))


@dataclass(frozen=True, eq=False)
class Subspace:
    """Closed subspace of C^n given by an orthonormal basis (columns),
    held read-only (`read_only`).

    An empty basis (shape (n, 0)) is the zero subspace.
    """

    ambient_dim: int
    basis: np.ndarray

    def __post_init__(self):
        b = read_only(self.basis)
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
        return Subspace(n, frozen(np.eye(n, dtype=complex)))

    @staticmethod
    def zero(n: int) -> "Subspace":
        return Subspace(n, frozen(np.zeros((n, 0), dtype=complex)))


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
    rank = int(np.sum(s > tol.TOL_RANK * s[0]))
    return u[:, :rank]


def _largest_abs(vals) -> float:
    """max |lambda| over ascending eigenvalues: a Hermitian matrix's spectral norm."""
    return float(max(abs(vals[0]), abs(vals[-1]))) if vals.size else 0.0


def require_hermitian(a) -> np.ndarray:
    """Gate ||a - a*||_2 <= TOL_HERM * ||a||_2 and return the Hermitian part
    (a + a*)/2, which is `a` itself when a is exactly Hermitian.

    Both spectral norms are `opnorm`'s, which measures entries near either
    end of the float range as well, and the error quotes them.
    """
    a = as_operator(a)
    if a.shape[0] != a.shape[1]:
        raise NotHermitian(f"matrix is not square: {a.shape}")
    d = a - a.conj().T
    if not d.any():  # exactly Hermitian: a is its own Hermitian part
        return a
    scale, dev = opnorm(a), opnorm(d)
    if dev > tol.TOL_HERM * max(scale, 1e-300):
        raise NotHermitian(f"asymmetry {dev:.3e} exceeds {tol.TOL_HERM:.1e} * norm {scale:.3e}")
    return 0.5 * (a + a.conj().T)


def _eigenpairs(h, psd=True):
    """Ascending eigenpairs of the Hermitian matrix h; with `psd`, gated as PSD.

    Eigenvalue dust in [-TOL_PSD * max|lambda|, 0) passes; anything more
    negative raises NotPSD.
    """
    vals, vecs = np.linalg.eigh(h)
    floor = -tol.TOL_PSD * max(_largest_abs(vals), 1e-300)
    if psd and np.any(vals < floor):
        raise NotPSD(f"eigenvalue {vals.min():.3e} below floor {floor:.3e}")
    return vals, vecs


def positive_sqrt(a) -> np.ndarray:
    """Unique positive square root of a Hermitian PSD matrix.

    Eigenvalue dust below zero is clamped to zero; the gates are those of
    `require_hermitian` and `_eigenpairs`.
    """
    vals, vecs = _eigenpairs(require_hermitian(a))
    vals = np.clip(vals, 0.0, None)
    return (vecs * np.sqrt(vals)) @ vecs.conj().T


def factored_sqrt(x, m, y):
    """Positive square root of g = x m y* from its factors, as (q, s) with
    g^{1/2} = q s q*: q has orthonormal columns and s is Hermitian PSD.

    x and y are n x d, x of full column rank, and m is d x d.  With
    x = q rx (QR), range(g) lies in range(q), so in the basis [q, q_perp]
    g is [[k, e], [0, 0]] and g - g* is [[k - k*, e], [-e*, 0]], where
    k = q* g q and e = q* g (I - q q*).  The gates of `positive_sqrt` are
    bracketed on these d x d and d x n blocks, and s is the positive square
    root of (k + k*)/2:
    - Hermitian: sqrt(n) ||g - g*||_F / ||g||_F <= TOL_HERM, from
      ||k - k*||_F and ||e||_F, which bounds ||g - g*||_2 / ||g||_2;
    - PSD: the Hermitian part of g differs from (k + k*)/2 (+) 0 by a
      block of norm ||e||_2 / 2, so each of its eigenvalues, and its
      largest |eigenvalue|, lie within ||e||_F / 2 of theirs (Weyl); the
      gate passes when it passes for every spectrum within that distance.
    Both are taken on g / c, c the scale of rx m in `range_scaled`, and s
    is sqrt(c) times the root of g / c.  Where they decide nothing,
    `positive_sqrt` decides on g itself (and may reject it), and q is the
    n x n identity.
    """
    q, rx = np.linalg.qr(x)
    p = q.conj().T @ y
    core, scale = range_scaled(rx @ m)
    e_fro = float(np.linalg.norm(core @ (y - q @ p).conj().T))  # ||e||_F
    n, d = q.shape
    k = core @ p.conj().T
    skew = math.sqrt(float(np.linalg.norm(k - k.conj().T)) ** 2 + 2.0 * e_fro**2)
    size = math.sqrt(float(np.linalg.norm(k)) ** 2 + e_fro**2)
    if skew * math.sqrt(n) / max(size, 1e-300) <= tol.TOL_HERM:
        vals, vecs = _eigenpairs(0.5 * (k + k.conj().T), psd=False)
        low = vals.min(initial=0.0)  # the n - d zeros of (+) 0; for d = n, stricter
        if low - e_fro / 2 >= -tol.TOL_PSD * max(_largest_abs(vals) - e_fro / 2, 1e-300):
            # s = c I + V (sqrt(vals) - c) V*: c at the middle of the roots'
            # range keeps the error of V's orthonormality off the mean of a
            # clustered spectrum
            roots = np.sqrt(np.clip(vals, 0.0, None))
            c = 0.5 * (roots[0] + roots[-1]) if d else 0.0
            return q, math.sqrt(scale) * ((vecs * (roots - c)) @ vecs.conj().T + c * np.eye(d))
    return np.eye(n, dtype=complex), positive_sqrt(x @ (m @ y.conj().T))


class Spectrum:
    """The spectrum of the Hermitian part h = (a + a*)/2 of a square matrix
    a (a itself when a is Hermitian), or of c h for a copy made by
    `scaled(c)`.  h is formed for each decomposition and not kept.

    Two decompositions of h, each made on first need, kept read-only and
    shared by every scaled copy: one eigvalsh gives `extremes` (and so
    `psd` and the floors), and one eigh, made only when a caller asks for
    eigenvectors, serves `eigenpairs`, `inverse`, `pinv` and `whiten`.  The
    extremes thus do not depend on which was asked first; the eigh's own
    end eigenvalues may differ from them at rounding level.  Beside the
    eigenvectors a spectrum keeps one n x n array, the pseudoinverse of h.

    Each decomposition is made block by block over `diagonal_blocks(h)`,
    a 1 x 1 block read off the diagonal, and `whiten`, `pinv` and `inverse`
    multiply block by block: the direct sum of two frame operators is
    decomposed and applied as its two blocks, and a diagonal h by no
    LAPACK call.
    """

    def __init__(self, a, c: float = 1.0, _shared: dict | None = None):
        self.a = a
        self.c = c
        self._shared = {} if _shared is None else _shared

    def scaled(self, c: float) -> "Spectrum":
        """The spectrum of c h for a real c > 0: this one's decompositions,
        with every eigenvalue times c; it decomposes nothing itself."""
        return Spectrum(self.a, self.c * c, self._shared)

    def _hermitian(self) -> np.ndarray:
        return 0.5 * (self.a + self.a.conj().T)

    def _pairs(self):
        """Eigenvalues and eigenvectors of h, one eigh per block of
        `diagonal_blocks(h)`, kept in block order: ascending within each
        block, and the eigenvectors block-diagonal."""
        if "pairs" not in self._shared:
            h = self._hermitian()
            n = h.shape[0]
            big, ones = _blocks(h)
            if big == [(0, n)]:  # one block: eigh's own arrays, with no copy
                vals, vecs = _eigenpairs(h, psd=False)
            else:
                vals, vecs = np.empty(n), np.zeros((n, n), dtype=complex)
                for lo, hi in big:
                    vals[lo:hi], vecs[lo:hi, lo:hi] = _eigenpairs(h[lo:hi, lo:hi], psd=False)
                vals[ones], vecs[ones, ones] = h.diagonal()[ones].real, 1.0
            self._shared["pairs"] = (frozen(vals), frozen(vecs))
            self._shared["blocks"] = (big, ones)
        return self._shared["pairs"]

    @property
    def extremes(self) -> SpectralInterval:
        """The least and the largest eigenvalue, from the one eigvalsh (one
        per block of `diagonal_blocks(h)`)."""
        if "extremes" not in self._shared:
            h = self._hermitian()
            big, ones = _blocks(h)
            vals = np.concatenate(
                [np.linalg.eigvalsh(h[lo:hi, lo:hi]) for lo, hi in big] + [h.diagonal()[ones].real])
            self._shared["extremes"] = SpectralInterval(float(vals.min()), float(vals.max()))
        e, c = self._shared["extremes"], self.c
        return e if c == 1 else SpectralInterval(c * e.lambda_min, c * e.lambda_max)

    @property
    def eigenpairs(self):
        """(values, vectors): c times h's eigenvalues, ascending within each
        block of `diagonal_blocks(h)` and in block order, and h's
        eigenvectors."""
        vals, vecs = self._pairs()
        return (vals if self.c == 1 else self.c * vals), vecs

    @property
    def psd(self) -> bool:
        """No eigenvalue below -TOL_PSD max|lambda|, the dust floor of the
        PSD gate (`_eigenpairs`)."""
        e = self.extremes
        return e.lambda_min >= -tol.TOL_PSD * max(abs(e.lambda_min), abs(e.lambda_max))

    def _pinv_of_h(self):
        """(every eigenvalue kept, h^+), made once per TOL_RANK and kept."""
        made = self._shared.get("pinv")
        if made is None or made[0] != tol.TOL_RANK:
            vals = self._pairs()[0]
            keep = np.abs(vals) > tol.TOL_RANK * np.abs(vals).max(initial=0.0)
            pinv_h = frozen(self._inverse_on(keep, vals))
            made = self._shared["pinv"] = (tol.TOL_RANK, bool(keep.all()), pinv_h)
        return made[1:]

    def _inverse_on(self, keep, vals) -> np.ndarray:
        """V_k diag(1 / vals_k) V_k* over the eigenvectors V_k of h where
        `keep` holds, one product per block of `diagonal_blocks(h)`."""
        vecs = self._pairs()[1]
        spans, ones = self._shared["blocks"]

        def part(lo, hi):
            v, k = vecs[lo:hi, lo:hi], keep[lo:hi]
            v = v if k.all() else v[:, k]
            return np.matmul(v / vals[lo:hi][k], v.conj().T)

        if spans == [(0, len(vals))]:  # one block, with no copy
            return part(0, len(vals))
        out = np.zeros(vecs.shape, dtype=complex)
        for lo, hi in spans:
            out[lo:hi, lo:hi] = part(lo, hi)
        ones = [i for i in ones if keep[i]]  # eigenvector 1
        out[ones, ones] = 1.0 / vals[ones]
        return out

    @property
    def pinv(self) -> np.ndarray:
        """The Moore-Penrose pseudoinverse: the eigenvalues with |lambda| at
        most TOL_RANK max|lambda| count as zero, the cutoff of `pinv` (the
        singular values of h are its |eigenvalues|).  h^+ is kept and
        shared by the scaled copies, which divide it by c."""
        pinv_h = self._pinv_of_h()[1]
        return pinv_h if self.c == 1 else pinv_h / self.c

    @property
    def inverse(self) -> np.ndarray:
        """The inverse of c h for an invertible h: `pinv` where no eigenvalue
        is cut, as for a frame under the default tolerances, else
        V diag(1/(c lambda)) V* over all of them."""
        if self._pinv_of_h()[0]:
            return self.pinv
        vals = self.eigenpairs[0]
        return self._inverse_on(np.ones(vals.shape, dtype=bool), vals)

    def whiten(self, k) -> np.ndarray | None:
        """W = diag(lambda^-1/2) V* k over the eigenvalues above the PSD
        floor TOL_PSD * max(lambda_max, 0), so that W* W = k* h^+ k there;
        None when k reaches the eigenvectors at or below the floor.

        Those eigenvectors are accurate only to about eps lambda_max /
        lambda_r, lambda_r the least eigenvalue kept (Davis-Kahan), so a k
        that lies in the kept range shows a component of about that
        relative size on them.  k reaches them when its component on them
        (in Frobenius norm) exceeds TOL_RANK max(1, lambda_max / lambda_r)
        relative.
        """
        vals, vecs = self.eigenpairs
        spans, ones = self._shared["blocks"]
        y = np.empty(k.shape, dtype=complex)
        for lo, hi in spans:  # V* k one block at a time; V is 1 on a 1 x 1 block
            np.matmul(vecs[lo:hi, lo:hi].conj().T, k[lo:hi], out=y[lo:hi])
        y[ones] = k[ones]
        top = max(self.extremes.lambda_max, 0.0)
        low = vals <= tol.TOL_PSD * top
        if low.any():
            kept = vals[~low]
            spread = top / kept.min() if kept.size else 1.0
            if np.linalg.norm(y[low]) > tol.TOL_RANK * max(1.0, spread) * np.linalg.norm(k):
                return None
            y, vals = y[~low], kept
        y /= np.sqrt(vals)[:, None]
        return y


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
    """Image subspace { r x : x in span(m) } with an orthonormal basis.  A
    number c standing for c I maps m to itself, or to the zero subspace
    for c = 0, with no SVD."""
    if isinstance(r, Number):
        return m if r else Subspace.zero(m.ambient_dim)
    r = as_operator(r)
    if r.shape[1] != m.ambient_dim:
        raise DimensionMismatch(
            f"operator cols {r.shape[1]} != ambient dim {m.ambient_dim}"
        )
    if m.dim == 0:
        return Subspace.zero(r.shape[0])
    return Subspace(r.shape[0], frozen(orth(r @ m.basis)))


class SingularExtremes(NamedTuple):
    """Extreme singular values: ||a||_2 = sigma_max, ||a^-1||_2 = 1 / sigma_min."""

    sigma_min: float
    sigma_max: float

    @property
    def condition(self) -> float:
        """sigma_max / sigma_min; inf for a singular operator."""
        return self.sigma_max / self.sigma_min if self.sigma_min > 0 else math.inf


def singular_extremes(a) -> SingularExtremes:
    """Smallest and largest singular value of `a` from one SVD; (0, 0) when
    empty.  A number c standing for c I has (|c|, |c|) and takes no SVD."""
    if isinstance(a, Number):
        return SingularExtremes(abs(a), abs(a))
    s = np.linalg.svd(as_operator(a), compute_uv=False)
    if s.size == 0:
        return SingularExtremes(0.0, 0.0)
    return SingularExtremes(float(s[-1]), float(s[0]))


def condition_number(a) -> float:
    a = as_operator(a)
    if a.shape[0] != a.shape[1]:
        return math.inf
    return singular_extremes(a).condition


def times_square(c: float, x: float, op=operator.mul) -> float:
    """op(c, x^2) for `op` * or /: op(c, x * x) where x * x is a normal float,
    else op(op(c, x), x), which forms no square that overflows or that is
    subnormal, keeping only a few digits.  The square is a product, which
    is correctly rounded where a C `pow` may not be."""
    x = float(x)
    sq = x * x
    return op(c, sq) if sys.float_info.min <= sq < math.inf else op(op(c, x), x)


def square_over(x: float, d: float) -> float:
    """x^2 / d for d != 0: x * x / d where x * x is a normal float, else
    x / d * x, which forms no such square (`times_square`)."""
    sq = x * x
    return sq / d if sys.float_info.min <= sq < math.inf else x / d * x


def dsum_extremes(a: SingularExtremes, b: SingularExtremes) -> SingularExtremes:
    """Singular extremes of the direct sum of two operators, from theirs.

    The singular values of a block-diagonal matrix are those of its blocks.
    """
    return SingularExtremes(min(a.sigma_min, b.sigma_min), max(a.sigma_max, b.sigma_max))


def require_conditioned(sigma: SingularExtremes, what: str = "operator") -> SingularExtremes:
    """Gate cond = sigma_max / sigma_min <= COND_MAX on measured extremes;
    a NaN condition (inf / inf) fails."""
    c = sigma.condition
    if not c <= tol.COND_MAX:
        raise NotInvertible(f"{what}: condition number {c:.3e} exceeds {tol.COND_MAX:.1e}")
    return sigma


def require_invertible(a, what: str = "operator") -> SingularExtremes:
    """Gate cond(a) <= COND_MAX and return the singular extremes of that SVD.

    A non-square `a` counts as singular, and a number c standing for c I
    has extremes (|c|, |c|) with no SVD.  Callers read ||a|| and ||a^-1||
    from the result instead of measuring `a` again.
    """
    if not isinstance(a, Number):
        a = as_operator(a)
        if a.shape[0] != a.shape[1]:
            return require_conditioned(SingularExtremes(0.0, 0.0), what)
    return require_conditioned(singular_extremes(a), what)


def hermitian_extremes(a) -> SpectralInterval:
    """Extreme eigenvalues of the Hermitian part of a (nearly) Hermitian matrix."""
    return Spectrum(require_hermitian(a)).extremes


def commutator_residual(a, b, norm_a: float | None = None, norm_b: float | None = None) -> float:
    """||a b - b a||_2 / (||a||_2 ||b||_2).

    A caller that already holds ||a||_2 or ||b||_2 passes it in, and that
    norm is not measured again.  A number c in either place stands for c I,
    which commutes with every operator: the residual is 0.
    """
    if isinstance(a, Number) or isinstance(b, Number):
        return 0.0
    if norm_a is None:
        norm_a = opnorm(a)
    if norm_b is None:
        norm_b = opnorm(b)
    scale = max(norm_a * norm_b, 1e-300)
    return opnorm(a @ b - b @ a) / scale


def gen_rayleigh_extremes(a, b) -> SpectralInterval:
    """Extremes of <a f, f> / <b f, f> over the range of b.

    Both matrices must be Hermitian PSD; the quotient is reduced to an
    ordinary eigenproblem on an orthonormal basis of range(b), from one
    eigendecomposition of b.
    """
    ah = require_hermitian(a)
    bh = require_hermitian(b)
    if ah.shape != bh.shape:
        raise DimensionMismatch("operands must have equal shapes")
    vals, vecs = _eigenpairs(bh)
    del bh  # released before the whitening products, the peak of the call
    vmax = vals[-1] if vals.size else 0.0
    keep = vals > tol.TOL_RANK * max(vmax, 0.0)
    if not np.any(keep):
        raise ZeroDenominator("denominator operator is numerically zero")
    # q* b q = diag(vals[keep]) on the kept eigenvectors q of b: whiten with
    # q diag(vals[keep])^{-1/2} (in place) and take ordinary extremes
    w = vecs if keep.all() else vecs[:, keep]
    w /= np.sqrt(vals[keep])
    whitened = w.conj().T @ ah @ w
    del vecs, w  # released before the eigensolver
    return Spectrum(whitened).extremes


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
    """Block-diagonal direct sum of two operators, read-only."""
    r = as_operator(r)
    v = as_operator(v)
    out = np.zeros((r.shape[0] + v.shape[0], r.shape[1] + v.shape[1]), dtype=complex)
    out[: r.shape[0], : r.shape[1]] = r
    out[r.shape[0] :, r.shape[1] :] = v
    return frozen(out)


def dsum_subspace(m: Subspace, n: Subspace) -> Subspace:
    """Direct sum of two subspaces inside the direct sum of their ambients."""
    nm, nn = m.ambient_dim, n.ambient_dim
    top = np.vstack([m.basis, np.zeros((nn, m.dim), dtype=complex)])
    bot = np.vstack([np.zeros((nm, n.dim), dtype=complex), n.basis])
    return Subspace(nm + nn, frozen(np.hstack([top, bot])))
