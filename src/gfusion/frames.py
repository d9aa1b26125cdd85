"""Controlled g-fusion frame families and their operators.

A family is a finite list of triples (subspace W_j, operator L_j : H -> H_j,
weight v_j > 0) together with a control pair (t, u) of invertible operators
on H.  The central object is the frame operator

    S = sum_j v_j^2  t* P_j L_j* L_j P_j u

whose spectral extremes are the optimal frame bounds.  It is t* F u, F the
family's own frame operator under the identity controls (`FrameFamily.operator`),
which does not depend on the controls.  The synthesis operator is
T_C = [v_1 R_1*, ..., v_m R_m*] with R_j = (t* P_j L_j* L_j P_j u)^{1/2},
whose adjoint is the analysis map; R_j has rank at most d_j = dim W_j, and
the library holds it in thin form (`thin_roots`).  `FrameEvaluation` is the
one evaluated form of a family under a control pair.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import cached_property, partial
from numbers import Number

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
    Spectrum,
    Subspace,
    adjoint,
    antihermitian_norm,
    as_operator,
    as_vector,
    dsum_extremes,
    dsum_op,
    factored_sqrt,
    frobenius_bound,
    frozen,
    gen_rayleigh_extremes,
    opnorm,
    product,
    read_only,
    require_conditioned,
    require_finite_positive,
    scalar_multiple,
    singular_extremes,
)


@dataclass(frozen=True, eq=False)
class FrameFamily:
    """Indexed triples (subspace, operator into the component space, weight).

    Immutable: each operator is held read-only (`linalg.read_only`), as is
    each subspace's basis, so the control-independent algebra (`factors`,
    `frame_sum`'s `sum_plan`, F as `operator`, and F's
    `spectrum` and `roots`, which every positive scalar pair reads) is
    computed on first use and kept.  Only arrays (with their offsets) and
    a `Spectrum` of F are kept, never an evaluation or a control pair, so a
    family is freed by reference counting alone.
    """

    ambient_dim: int
    items: tuple

    def __init__(self, ambient_dim: int, items):
        items = tuple(
            (sub, read_only(lam), float(w)) for sub, lam, w in items
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

    @cached_property
    def factors(self) -> tuple:
        """Per-item factors (B_j, C_j = L_j B_j), read-only, B_j the
        orthonormal basis of W_j and C_j a view into its run's stack
        (`factor_runs`).

        The item operator L_j P_j equals C_j B_j*, so no n x n projector is
        formed.
        """
        stacks, _ = self.factor_runs
        cs = (c for stack in stacks for c in stack)
        return tuple((sub.basis, c) for (sub, _, _), c in zip(self.items, cs))

    @cached_property
    def factor_runs(self) -> tuple:
        """(stacks, starts): the C_j = L_j B_j of each run of consecutive
        items whose C_j have one shape, items starts[i]:starts[i + 1], as
        one read-only (items, rows, d) stack.  This is the one place C_j is
        formed."""
        shapes = [(lam.shape[0], sub.basis.shape[1]) for sub, lam, _ in self.items]
        starts = [0] + [j for j in range(1, len(shapes)) if shapes[j] != shapes[j - 1]]
        starts.append(len(shapes))
        stacks = []
        for lo, hi in zip(starts, starts[1:]):
            stack = np.empty((hi - lo, *shapes[lo]), dtype=complex)
            for c, (sub, lam, _) in zip(stack, self.items[lo:hi]):
                np.matmul(lam, sub.basis, out=c)
            stacks.append(frozen(stack))
        return tuple(stacks), tuple(starts)

    @cached_property
    def sum_plan(self) -> tuple:
        """(stacked, conj_basis, runs, weights), read-only: how `frame_sum`
        applies each L_j P_j = C_j B_j*.  Where two or more runs of
        `factor_runs` are one item each, `stacked` is their C_j B_j* (r_j x n
        each), one below the next, and their rows come first; a lone one
        stays factored, where stacked it would save no product and cost
        r_j n in place of r_j d_j.  Each other run is (stack, the columns of
        its coordinates in x^T conj_basis, its rows).  `weights` is v_j^2
        for each row."""
        stacks, starts = self.factor_runs
        spans = list(zip(stacks, starts, starts[1:]))
        alone = [lo for stack, lo, _ in spans if len(stack) == 1]
        alone = alone if len(alone) > 1 else []
        spans = [span for span in spans if span[1] not in alone]
        order = alone + [j for _, lo, hi in spans for j in range(lo, hi)]
        m, n = len(alone), self.ambient_dim
        rows = np.cumsum([0] + [self.items[j][1].shape[0] for j in order]).tolist()
        stacked = np.empty((rows[m], n), dtype=complex)
        for (b, c), lo, hi in zip((self.factors[j] for j in alone), rows, rows[1:]):
            np.matmul(c, b.conj().T, out=stacked[lo:hi])
        bases = [self.items[j][0].basis for j in order[m:]]
        cols = np.cumsum([0] + [b.shape[1] for b in bases]).tolist()
        conj_basis = np.conjugate(np.hstack([np.empty((n, 0), dtype=complex), *bases]))
        ends = np.cumsum([0] + [hi - lo for _, lo, hi in spans]).tolist()
        runs = tuple((stack, cols[i], cols[j], rows[m + i], rows[m + j])
                     for (stack, _, _), i, j in zip(spans, ends, ends[1:]))
        weights = np.repeat([self.items[j][2] * self.items[j][2] for j in order], np.diff(rows))
        return frozen(stacked), frozen(conj_basis), runs, frozen(weights)

    @cached_property
    def operator(self) -> np.ndarray:
        """F = sum_j v_j^2 P_j L_j* L_j P_j, read-only: the frame operator
        under the identity controls, Hermitian by construction."""
        f = factor_sum(self, self, [w * w for w in self.weights])
        return frozen(0.5 * (f + f.conj().T))

    def controlled(self, t, u) -> np.ndarray:
        """t* F u = sum_j v_j^2 t* P_j L_j* L_j P_j u: two products, each a
        scaling where its control is a number c standing for c I
        (`ControlPair.t_side`)."""
        return product(product(adjoint(t), self.operator), u)

    @cached_property
    def spectrum(self) -> Spectrum:
        """The family's own `Spectrum` of F: its one eigh, made on first
        need, serves every positive scalar pair."""
        return Spectrum(self.operator)

    @property
    def roots(self) -> tuple:
        """`thin_roots` under the identity controls: under a positive scalar
        pair T is sqrt(c) times this T, on the same bases.  Made once per
        (TOL_HERM, TOL_PSD), the gates of its roots, and kept."""
        key = (tol.TOL_HERM, tol.TOL_PSD)
        made = self.__dict__.get("roots")
        if made is None or made[0] != key:
            made = self.__dict__["roots"] = (key, thin_roots(self, 1.0, 1.0))
        return made[1]


def _dense(side, n: int) -> np.ndarray:
    """A side as its n x n operator: an operator side itself, and for a
    number c a new read-only array, c on the diagonal and 0.0 elsewhere."""
    if not isinstance(side, Number):
        return side
    a = np.zeros((n, n), dtype=complex)
    np.fill_diagonal(a, side)
    return frozen(a)


@dataclass(frozen=True, eq=False)
class ControlPair:
    """Ordered pair (t, u) of invertible operators on C^dim.

    Each control is held once, as its side: the number c when it is exactly
    c I, else the read-only operator itself (`linalg.read_only`);
    `linalg.product` and `linalg.adjoint` take either.  With each side the
    pair keeps the singular extremes of its COND_MAX gate, so ||t||,
    ||t^-1||, ||u|| and ||u^-1|| need no further SVD; a number c has
    extremes (|c|, |c|) and takes none.  When t = u the two share one side
    and one gate.  `t` and `u` are the n x n operators, formed when first
    read (`_dense`) and kept; `u` is `t` when the two share a side.
    """

    dim: int
    t_side: np.ndarray | complex
    u_side: np.ndarray | complex
    t_sigma: SingularExtremes = field(repr=False)
    u_sigma: SingularExtremes = field(repr=False)

    def __init__(self, t, u):
        t, u = read_only(t), read_only(u)
        if t.shape != u.shape or t.shape[0] != t.shape[1]:
            raise DimensionMismatch("controls must be square of equal size")
        sides = [a if (c := scalar_multiple(a)) is None else c
                 for a in ((t,) if np.array_equal(t, u) else (t, u))]
        self._hold(t.shape[0], sides, map(singular_extremes, sides))

    def _hold(self, dim: int, sides, extremes) -> "ControlPair":
        """The one builder: keep `dim` and the sides (one, shared, when
        t = u), each gated at COND_MAX on the next of `extremes`."""
        whats = ("control t = u",) if len(sides) == 1 else ("control t", "control u")
        sigmas = [require_conditioned(e, what) for e, what in zip(extremes, whats)]
        for name, value in zip(("dim", "t_side", "u_side", "t_sigma", "u_sigma"),
                               (dim, sides[0], sides[-1], sigmas[0], sigmas[-1])):
            object.__setattr__(self, name, value)
        return self

    @cached_property
    def t(self) -> np.ndarray:
        return _dense(self.t_side, self.dim)

    @cached_property
    def u(self) -> np.ndarray:
        return self.t if self.u_side is self.t_side else _dense(self.u_side, self.dim)

    @staticmethod
    def direct_sum(h: "ControlPair", x: "ControlPair") -> "ControlPair":
        """(t_H (+) t_X, u_H (+) u_X) on the direct sum of the two spaces,
        read from the two pairs with no SVD and no scan of the sums.

        The singular values of a block-diagonal operator are its blocks', so
        each side is gated on the min of the blocks' minima and the max of
        their maxima.  The sum has t = u exactly when each pair has.  A side
        of the sum is the number c when both blocks are that number, else
        the block-diagonal operator.
        """
        blocks = [(h.t_side, x.t_side, h.t_sigma, x.t_sigma)]
        if h.u_side is not h.t_side or x.u_side is not x.t_side:
            blocks.append((h.u_side, x.u_side, h.u_sigma, x.u_sigma))
        sides = [a if isinstance(a, Number) and isinstance(b, Number) and a == b
                 else dsum_op(_dense(a, h.dim), _dense(b, x.dim)) for a, b, _, _ in blocks]
        extremes = (dsum_extremes(sa, sb) for _, _, sa, sb in blocks)
        return ControlPair.__new__(ControlPair)._hold(h.dim + x.dim, sides, extremes)

    @property
    def scale(self) -> float | None:
        """c = conj(c_t) c_u when t = c_t I and u = c_u I and c is a real
        number > 0, so that S = t* F u = c F; else None."""
        t, u = self.t_side, self.u_side
        if isinstance(t, np.ndarray) or isinstance(u, np.ndarray):
            return None
        c = t.conjugate() * u
        return c.real if c.imag == 0 and c.real > 0 else None

    @staticmethod
    def identity(n: int) -> "ControlPair":
        return ControlPair.scalars(n, 1.0, 1.0)

    @staticmethod
    def scalars(n: int, alpha: complex, beta: complex) -> "ControlPair":
        """(alpha I, beta I) on C^n, held as the two numbers, gated as
        ControlPair(alpha I, beta I) is: a non-finite number is a non-finite
        entry, and for n = 0 t = u has extremes (0, 0), as the number 0."""
        sides = as_operator([[alpha, beta]] if n > 0 else [[0]])[0].tolist()
        sides = sides[:1] if sides[0] == sides[-1] else sides
        return ControlPair.__new__(ControlPair)._hold(n, sides, map(singular_extremes, sides))


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
    # fields marked "report": False are for library callers only; the CLI
    # report (serialize.to_json) skips them
    claims: tuple = field(metadata={"report": False})


@dataclass(frozen=True, eq=False)
class AtomicReport:
    is_atomic: bool
    bessel_bound: float
    coefficient_norm_bound: float
    lower_bound: float
    # the function that forms the coefficient map (`coefficient_map`)
    coefficient_map_source: Callable[[], np.ndarray] = field(repr=False, metadata={"report": False})
    coefficient_residual: float | None = None
    literal_residual: float | None = field(default=None)
    claims: tuple = field(default=(), metadata={"report": False})

    @cached_property
    def coefficient_map(self) -> np.ndarray:
        """The minimum-norm coefficient map L with T_C L = k (library only),
        formed when first read."""
        return self.coefficient_map_source()


def _check_dims(fam: FrameFamily, cp: ControlPair):
    if cp.dim != fam.ambient_dim:
        raise DimensionMismatch(
            f"control dim {cp.dim} != family ambient dim {fam.ambient_dim}"
        )


def cross_terms(t, left, right, u) -> np.ndarray:
    """Stack of (t* B_j)(C_j* C'_j)(B'_j* u) over the factor lists `left`
    (B_j, C_j) and `right` (B'_j, C'_j): slice j is (A_j t)* (A'_j u) with
    A_j = C_j B_j*.  O(n^2 dim W_j) per item, where projectors cost O(n^3).
    t and u are control sides (`ControlPair.t_side`).
    """
    n = left[0][0].shape[0]
    out = np.empty((len(left), n, n), dtype=complex)
    t_adj = adjoint(t)
    for j, ((b_l, c_l), (b_r, c_r)) in enumerate(zip(left, right)):
        out[j] = product(t_adj, b_l) @ ((c_l.conj().T @ c_r) @ product(b_r.conj().T, u))
    return out


def factor_sum(left: FrameFamily, right: FrameFamily, weights) -> np.ndarray:
    """sum_j w_j B_j (C_j* C'_j) B'_j* over the factors (B_j, C_j) of `left`
    and (B'_j, C'_j) of `right`: the cross operators summed before the
    controls are applied.

    The items are taken in runs of at most n columns of B'_j.  Each item
    writes w_j B_j (C_j* C'_j) into its rows of one run buffer, transposed,
    and conj(B'_j) into the same rows of a second, so that each item's
    block is contiguous; a run then adds one n x n product of the two.  A
    thin family (rank-one items) pays one product per n items in place of
    one rank-d_j update per item.
    """
    n = left.ambient_dim
    run = np.empty((2, n, n), dtype=complex)
    out, used = None, 0
    for (b, c), (b_r, c_r), w in zip(left.factors, right.factors, weights):
        d = b_r.shape[1]
        if used + d > n:
            out = _add_run(out, run, used)
            used = 0
        left_rows = run[0, used:used + d]
        np.matmul(b, c.conj().T @ c_r, out=left_rows.T)
        left_rows *= w
        np.conjugate(b_r.T, out=run[1, used:used + d])
        used += d
    return _add_run(out, run, used)


def _add_run(out, run, used: int) -> np.ndarray:
    """out + L^T R for the first `used` rows L of run[0] and R of run[1]
    (`factor_sum`), added in place; the product alone where out is None."""
    part = np.matmul(run[0, :used].T, run[1, :used])
    if out is None:
        return part
    out += part
    return out


def thin_roots(fam: FrameFamily, t, u) -> tuple:
    """(T, bases), read-only: the thin synthesis operator T = [T_1 ... T_m]
    of `fam` under the control sides t and u (`ControlPair.t_side`), and
    each item's Q_j, with R_j = T_j Q_j* / v_j the positive square root of
    G_j = (A_j t)* (A_j u).

    Q_j has orthonormal columns and T_j = v_j Q_j S_j, S_j Hermitian PSD,
    so T_C = [T_1 Q_1*, ..., T_m Q_m*] and T_C T_C* = T T*.  Each root is
    a d_j x d_j problem on the factors t* B_j, C_j* C_j, u* B_j of G_j
    (`linalg.factored_sqrt`), a scalar side scaling B_j, so T is
    n x sum_j d_j.  This is the one builder of the per-item roots.
    """
    t_adj, u_adj = adjoint(t), adjoint(u)
    blocks, bases = [], []
    for j, ((b, c), w) in enumerate(zip(fam.factors, fam.weights)):
        try:
            basis, root = factored_sqrt(product(t_adj, b), c.conj().T @ c, product(u_adj, b))
        except GFusionError as exc:
            raise NotPositive(f"item {j}: cross operator is not Hermitian PSD ({exc})") from exc
        blocks.append(w * (basis @ root))
        bases.append(frozen(basis))
    return frozen(np.hstack(blocks)), tuple(bases)


def item_cross_operator(sub: Subspace, lam, cp: ControlPair) -> np.ndarray:
    """Single term t* P L* L P u (weight excluded)."""
    factors = FrameFamily(sub.ambient_dim, [(sub, lam, 1.0)]).factors
    return cross_terms(cp.t_side, factors, factors, cp.u_side)[0]


class FrameEvaluation:
    """A family under a control pair, evaluated once for one public call.

    Holds S = t* F u, F the family's own `operator`.  The norms, the
    Hermitian residual, the spectrum, the frame claims, S^-1, the bounds
    report, the thin synthesis operator (the only holder of the per-item
    square roots) and the (m, n, n) stack `terms` of the per-item cross
    operators G_j = (A_j t)* (A_j u), which only a report that lists them
    reads, are computed on first use.

    One `spectrum` serves the bounds, S^-1, atomic's S^+ and `kgf`.  Under
    a positive scalar pair (`ControlPair.scale`: t = c_t I, u = c_u I,
    c = conj(c_t) c_u > 0) S is c F: the spectrum is the family's own
    spectrum of F scaled by c, and the roots are the family's own times
    sqrt(c) (`FrameFamily.spectrum` and `FrameFamily.roots`, each made once
    per family, the roots once per gate tolerances).  Under any other pair
    both are S's own.  S itself is always formed by its two products.  What
    depends on the control pair is not kept: an evaluation lives as long as
    the call that built it.
    """

    def __init__(self, fam: FrameFamily, cp: ControlPair):
        _check_dims(fam, cp)
        self.fam = fam
        self.cp = cp
        # c when S = c F and the decompositions are the family's own, else None
        self.scale = cp.scale
        self.s = as_operator(fam.controlled(cp.t_side, cp.u_side))  # rejects an overflow

    @cached_property
    def terms(self) -> np.ndarray:
        """The (m, n, n) stack of G_j = (A_j t)* (A_j u), one slice per item."""
        return cross_terms(self.cp.t_side, self.fam.factors, self.fam.factors, self.cp.u_side)

    def weighted(self, stack) -> np.ndarray:
        """Scale slice j of the stack `stack` by v_j^2 in place; returns it."""
        stack *= np.array([w * w for w in self.fam.weights])[:, None, None]
        return stack

    @cached_property
    def norm(self) -> float:
        """||S||_2: for an S that is exactly Hermitian, max(|lambda_min|,
        |lambda_max|) of `bounds`, with no SVD; else `opnorm`."""
        if self.skew.any():
            return opnorm(self.s)
        b = self.bounds
        return max(abs(b.lambda_min), abs(b.lambda_max))

    @property
    def skew(self) -> np.ndarray:
        """S - S*, formed when read and not kept: the Bessel claim, the
        asymmetry, the Hermitian part and `inverse` each read it once."""
        return self.s - self.s.conj().T

    @cached_property
    def asymmetry(self) -> float:
        """||S - S*||_2: 0.0 with no eigensolver when S is exactly Hermitian."""
        skew = self.skew
        return antihermitian_norm(skew) if skew.any() else 0.0

    @property
    def herm_residual(self) -> float:
        """||S - S*||_2 / ||S||_2, with ||S||_2 measured only when S - S* is
        not zero."""
        asym = self.asymmetry
        return asym / max(self.norm, 1e-300) if asym else 0.0

    @cached_property
    def bessel(self) -> tol.Claim:
        """herm_residual <= TOL_FACTOR, valued by the Frobenius bound on
        herm_residual when that passes (no eigensolver), else by herm_residual."""
        c = tol.claim("bessel", frobenius_bound(self.skew, self.s), "<=", "TOL_FACTOR")
        return c if c.holds else c._replace(value=self.herm_residual)

    @property
    def hermitian(self) -> np.ndarray:
        """(S + S*)/2, formed when read and not kept: S itself when S is
        exactly Hermitian."""
        return 0.5 * (self.s + self.s.conj().T) if self.skew.any() else self.s

    @cached_property
    def spectrum(self) -> Spectrum:
        """The spectrum of the Hermitian part of S; under a positive scalar
        pair, the family's own spectrum of F scaled by c."""
        if self.scale is None:
            return Spectrum(self.s)
        return self.fam.spectrum.scaled(self.scale)

    @cached_property
    def bounds(self) -> SpectralInterval:
        """Extreme eigenvalues of the Hermitian part of S."""
        return self.spectrum.extremes

    @cached_property
    def frame_claims(self) -> tuple:
        """Bessel, and lambda_min(S) above the PSD floor TOL_PSD * lambda_max(S)."""
        b = self.bounds
        positive = tol.claim("positive_lower", b.lambda_min, ">", "TOL_PSD", scale=b.lambda_max)
        return self.bessel, positive

    @property
    def is_frame(self) -> bool:
        return tol.all_hold(self.frame_claims)

    @cached_property
    def inverse(self) -> np.ndarray:
        """S^-1; raises NotAFrame unless `is_frame`.  From the eigenpairs of
        `spectrum` where that is the spectrum of S itself (S = c F under a
        positive scalar pair, or S exactly Hermitian); else by
        np.linalg.inv, as S is then Hermitian only to TOL_FACTOR."""
        if not self.is_frame:
            raise NotAFrame("frame operator is not invertible at threshold")
        if self.scale is None and self.skew.any():
            return np.linalg.inv(self.s)
        return self.spectrum.inverse

    def report(self) -> FrameReport:
        return FrameReport(
            self.bessel.holds, self.is_frame, self.bounds, self.s, self.herm_residual,
            self.frame_claims,
        )

    @cached_property
    def thin_synthesis(self) -> tuple:
        """(T, bases) of `thin_roots` under this pair; under a positive
        scalar pair, sqrt(c) times the family's own `roots`."""
        c = self.scale
        if c is None:
            return thin_roots(self.fam, self.cp.t_side, self.cp.u_side)
        t, bases = self.fam.roots
        return (t if c == 1 else math.sqrt(c) * t), bases

    @cached_property
    def synthesis_matrix(self) -> np.ndarray:
        """T_C = [v_1 R_1*, ..., v_m R_m*], expanded from the thin form."""
        t, bases = self.thin_synthesis
        return _expand(bases, t.conj().T).conj().T

    def analysis(self, f) -> BlockVector:
        """T_C* f, split into one block per item."""
        f = as_vector(f)
        if f.shape[0] != self.fam.ambient_dim:
            raise DimensionMismatch(f"vector dim {f.shape[0]} != {self.fam.ambient_dim}")
        t, bases = self.thin_synthesis
        return BlockVector(np.split(_expand(bases, t.conj().T @ f), len(self.fam)))

    def synthesis(self, g: BlockVector) -> np.ndarray:
        """T_C g for one n-vector block per item."""
        if len(g.blocks) != len(self.fam):
            raise DimensionMismatch(
                f"block count {len(g.blocks)} != item count {len(self.fam)}"
            )
        if any(b.shape[0] != self.fam.ambient_dim for b in g.blocks):
            raise DimensionMismatch("block dimension mismatch with square-root operator")
        t, bases = self.thin_synthesis
        return t @ np.concatenate([q.conj().T @ b for q, b in zip(bases, g.blocks)])

    def _check_k(self, k) -> np.ndarray:
        k = as_operator(k)
        if k.shape != (self.fam.ambient_dim, self.fam.ambient_dim):
            raise DimensionMismatch("k must be square on the ambient space")
        return k

    def kgf(self, k):
        """(a_opt, b, claims) of `kgf_bounds`, is_kgf the claims' conjunction.

        a_opt is the largest A with A ||k* f||^2 <= <S f, f> for every f.
        For a PSD S (Douglas): with W = `spectrum.whiten(k)`, W* W =
        k* S^+ k, so a_opt = 1 / lambda_max(W W*), and +inf for a zero W
        (k = 0); when k reaches the eigenvectors of S at or below the PSD
        floor, no A > 0 holds there and a_opt is 0.0.  An S with an
        eigenvalue below the floor's dust admits no A > 0 (<S f, f> < 0 at
        its eigenvector): a_opt is the minimum of the quotient
        <S f, f> / ||k* f||^2 over range(k k*), exact for a full-rank k,
        capped at 0.0, an upper bound for a rank-deficient one.
        """
        k = self._check_k(k)
        if not self.bessel.holds:
            return -math.inf, self.bounds.lambda_max, (self.bessel,)
        spectrum = self.spectrum
        if not spectrum.psd:
            try:
                a_opt = min(gen_rayleigh_extremes(self.hermitian, k @ k.conj().T).lambda_min, 0.0)
            except ZeroDenominator:
                a_opt = 0.0
        elif (w := spectrum.whiten(k)) is None:
            a_opt = 0.0
        else:
            w_norm = opnorm(w)
            a_opt = 1.0 / (w_norm * w_norm) if w_norm > 0 else math.inf
        b = self.bounds.lambda_max
        # positivity at the same relative floor used for the frame flag, so
        # roundoff dust around zero does not flip the verdict
        positive = tol.claim("k_positive_lower", a_opt, ">", "TOL_PSD", scale=max(b, 0.0))
        return a_opt, b, (self.bessel, positive)

    def atomic(self, k) -> AtomicReport:
        """The report of `atomic_check`.  Each norm is `opnorm`'s: one
        product and one eigvalsh, no SVD."""
        k = self._check_k(k)
        a_opt, b, claims = self.kgf(k)
        is_kgf = tol.all_hold(claims)
        t, bases = self.thin_synthesis
        scale_k = max(opnorm(k), 1e-300)
        literal_residual = opnorm(k - self.s) / scale_k
        # Minimum-norm solution L = T_C* S^+ k of T_C L = k, S^+ the
        # pseudoinverse of `spectrum` (T T* = T_C T_C* = S), with one step of
        # iterative refinement against the thin Gram T T*; T_C L = T T* S^+ k.
        # L is kept as its thin coordinates T* S^+ k and expanded only when
        # read.
        gram = t @ t.conj().T
        s_pinv = self.spectrum.pinv
        x = s_pinv @ k
        coords = t.conj().T @ (x + s_pinv @ (k - gram @ x))
        del gram, s_pinv, x  # released before the residual's Gram matrix, the peak of the call
        coeff_residual = opnorm(t @ coords - k) / scale_k
        # finite only with the verdict: a roundoff-level a_opt below the
        # positivity floor would give a huge, meaningless bound
        c = math.sqrt(1.0 / a_opt) if (is_kgf and math.isfinite(a_opt)) else math.inf
        return AtomicReport(
            is_atomic=is_kgf,
            bessel_bound=b,
            coefficient_norm_bound=c,
            lower_bound=a_opt,
            coefficient_map_source=partial(_expand, bases, coords),
            coefficient_residual=coeff_residual,
            literal_residual=literal_residual,
            claims=claims,
        )


def _expand(bases, coords) -> np.ndarray:
    """[Q_1 c_1; ...; Q_m c_m] for the bases Q_j of the thin synthesis
    operator and the row blocks c_j of `coords` that belong to item j:
    thin coordinates as n-vectors per item."""
    n = bases[0].shape[0]
    out = np.empty((n * len(bases),) + coords.shape[1:], dtype=complex)
    lo = 0
    for j, q in enumerate(bases):
        np.matmul(q, coords[lo:lo + q.shape[1]], out=out[j * n:(j + 1) * n])
        lo += q.shape[1]
    return out


def frame_sum(fam: FrameFamily, cp: ControlPair, f):
    """Literal sum  sum_j v_j^2 <L_j P_j u f, L_j P_j t f>.

    `f` is one vector of shape (n,), giving a complex number, or a block of
    k column vectors of shape (n, k), giving the k sums as an array.  The
    items run as `FrameFamily.sum_plan` sets out, into their rows of one
    buffer: those that stand alone in `FrameFamily.factor_runs` (where two
    or more do) in one product with their stacked operators; the others
    as C_j B_j*, with the family's C_j = L_j B_j, from one product for
    their coordinates B_j* t f and B_j* u f and one batched product per
    run of items of one shape.  One vecdot, each row weighted by its
    item's v_j^2, sums them all.
    """
    _check_dims(fam, cp)
    f = np.asarray(f, dtype=complex)
    if f.ndim not in (1, 2):
        raise DimensionMismatch(f"vector must be 1-D or 2-D, got shape {f.shape}")
    if f.shape[0] != fam.ambient_dim:
        raise DimensionMismatch(f"vector dim {f.shape[0]} != {fam.ambient_dim}")
    n = fam.ambient_dim
    block = f.reshape(n, -1)
    k = block.shape[1]
    stacked, conj_basis, runs, weights = fam.sum_plan
    d = conj_basis.shape[1]
    # one buffer, 2k columns: the k vectors t f beside the k vectors u f,
    # then their coordinates B_j* t f and B_j* u f, then the rows
    # C_j B_j* t f and C_j B_j* u f of each item, the stacked items' first
    work = np.empty((n + d + weights.shape[0], 2 * k), dtype=complex)
    both, coords, out = work[:n], work[n:n + d], work[n + d:]
    product(cp.t_side, block, out=both[:, :k])
    product(cp.u_side, block, out=both[:, k:])
    if len(stacked):
        np.matmul(stacked, both, out=out[:len(stacked)])
    if runs:
        np.matmul(conj_basis.T, both, out=coords)
    for stack, lo, hi, r_lo, r_hi in runs:
        x, y = coords[lo:hi], out[r_lo:r_hi]
        if len(stack) == 1:
            np.matmul(stack[0], x, out=y)
        else:  # a run of items of one shape: one batched product
            m, r, d = stack.shape
            np.matmul(stack, x.reshape(m, d, 2 * k), out=y.reshape(m, r, 2 * k))
    out[:, k:] *= weights[:, None]
    total = np.vecdot(out[:, :k], out[:, k:], axis=0)
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
    out = ev.synthesis(g)
    coeffs = np.concatenate(g.blocks)
    certified = False
    if f_hint is not None:
        ref = np.concatenate(ev.analysis(f_hint).blocks)
        scale = max(np.linalg.norm(ref), np.linalg.norm(coeffs), 1e-300)
        residual = np.linalg.norm(coeffs - ref)
        certified = tol.claim("in_range", residual, "<=", "TOL_FACTOR", scale=scale).holds
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
    a_opt, b, claims = FrameEvaluation(fam, cp).kgf(k)
    return a_opt, b, tol.all_hold(claims)


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
