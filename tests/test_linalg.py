import math
import tracemalloc
import warnings

import numpy as np
import pytest

from gfusion import linalg, tolerances
from gfusion.errors import (
    InvalidParameters,
    NotHermitian,
    NotInvertible,
    NotPSD,
    RangeNotContained,
    ZeroDenominator,
)
from gfusion.linalg import (
    SpectralInterval,
    Spectrum,
    Subspace,
    adjoint,
    commutator_residual,
    condition_number,
    douglas_factor,
    dsum_extremes,
    dsum_op,
    dsum_subspace,
    gen_rayleigh_min,
    hermitian_extremes,
    opnorm,
    orth,
    pinv,
    positive_sqrt,
    product,
    projector,
    require_conditioned,
    require_hermitian,
    require_invertible,
    scalar_multiple,
    singular_extremes,
    subspace_image,
    top_eigenvalue,
)

from conftest import complex_gaussian, random_subspace, recorded


class TestPositiveSqrt:
    def test_diagonal(self):
        np.testing.assert_allclose(positive_sqrt(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]))

    def test_identity(self):
        np.testing.assert_allclose(positive_sqrt(np.eye(5)), np.eye(5))

    def test_random_psd_roundtrip(self, rng):
        # oracle: any PSD matrix built as B* B has positive_sqrt squaring back
        for _ in range(10):
            b = complex_gaussian(rng, 5, 5)
            a = b.conj().T @ b
            r = positive_sqrt(a)
            assert np.linalg.norm(r @ r - a, 2) <= 1e-8 * np.linalg.norm(a, 2)
            # result is Hermitian PSD
            assert np.linalg.norm(r - r.conj().T, 2) <= 1e-10 * np.linalg.norm(r, 2)
            assert np.linalg.eigvalsh(0.5 * (r + r.conj().T)).min() >= -1e-10

    def test_idempotent_consistency(self, rng):
        b = complex_gaussian(rng, 4, 4)
        p = positive_sqrt(b.conj().T @ b)
        np.testing.assert_allclose(
            positive_sqrt(p @ p), p, atol=1e-8 * np.linalg.norm(p, 2)
        )

    def test_commutes_with_commutant(self, rng):
        # anything commuting with a commutes with its square root
        d = np.diag([1.0, 1.0, 4.0])
        c = np.zeros((3, 3), dtype=complex)
        c[:2, :2] = complex_gaussian(rng, 2, 2)  # commutes with d (block structure)
        c[2, 2] = rng.standard_normal()
        r = positive_sqrt(d)
        assert np.linalg.norm(r @ c - c @ r, 2) < 1e-12

    def test_not_hermitian(self, rng):
        with pytest.raises(NotHermitian):
            positive_sqrt([[0.0, 1.0], [0.0, 0.0]])

    def test_not_psd(self):
        with pytest.raises(NotPSD):
            positive_sqrt(np.diag([1.0, -1.0]))

    def test_dust_clamped(self):
        a = np.diag([1.0, -1e-12])
        r = positive_sqrt(a)
        assert r[1, 1] == 0.0


class TestPinv:
    def test_invertible(self, rng):
        a = complex_gaussian(rng, 4, 4) + 3 * np.eye(4)
        np.testing.assert_allclose(pinv(a), np.linalg.inv(a), atol=1e-9)

    def test_zero(self):
        np.testing.assert_array_equal(pinv(np.zeros((2, 3))), np.zeros((3, 2)))

    def test_rank_one_closed_form(self, rng):
        u = complex_gaussian(rng, 4)
        v = complex_gaussian(rng, 3)
        a = np.outer(u, v.conj())
        expected = np.outer(v, u.conj()) / (
            np.linalg.norm(u) ** 2 * np.linalg.norm(v) ** 2
        )
        np.testing.assert_allclose(pinv(a), expected, atol=1e-12)

    def test_moore_penrose_axioms(self, rng):
        a = complex_gaussian(rng, 5, 3)
        ap = pinv(a)
        scale = np.linalg.norm(a, 2)
        assert np.linalg.norm(a @ ap @ a - a, 2) <= 1e-9 * scale
        assert np.linalg.norm(ap @ a @ ap - ap, 2) <= 1e-9 * scale
        for prod in (a @ ap, ap @ a):
            assert np.linalg.norm(prod - prod.conj().T, 2) <= 1e-9


class TestProjector:
    def test_full_space(self):
        np.testing.assert_allclose(projector(Subspace.full(3)), np.eye(3))

    def test_coordinate_axis(self):
        m = Subspace(2, np.array([[1.0], [0.0]], dtype=complex))
        np.testing.assert_allclose(projector(m), np.diag([1.0, 0.0]))

    def test_zero_subspace(self):
        np.testing.assert_array_equal(projector(Subspace.zero(3)), np.zeros((3, 3)))

    def test_random_subspace(self, rng):
        # Gram-Schmidt oracle: fixes basis vectors, kills the complement
        m = random_subspace(rng, 6, 3)
        p = projector(m)
        assert np.linalg.norm(p @ p - p, 2) <= 1e-10
        assert np.linalg.norm(p - p.conj().T, 2) <= 1e-12
        for i in range(3):
            np.testing.assert_allclose(p @ m.basis[:, i], m.basis[:, i], atol=1e-10)
        # manual complement via Gram-Schmidt against the basis
        v = complex_gaussian(rng, 6)
        for i in range(3):
            v -= np.vdot(m.basis[:, i], v) * m.basis[:, i]
        np.testing.assert_allclose(p @ v, np.zeros(6), atol=1e-10)


class TestSubspaceImage:
    def test_identity_preserves(self, rng):
        m = random_subspace(rng, 4, 2)
        img = subspace_image(np.eye(4), m)
        np.testing.assert_allclose(projector(img), projector(m), atol=1e-10)

    def test_zero_operator(self, rng):
        m = random_subspace(rng, 4, 2)
        assert subspace_image(np.zeros((4, 4)), m).dim == 0

    def test_invertible_image(self, rng):
        m = random_subspace(rng, 4, 2)
        r = complex_gaussian(rng, 4, 4) + 3 * np.eye(4)
        img = subspace_image(r, m)
        assert img.dim == 2
        p = projector(img)
        for i in range(2):
            w = r @ m.basis[:, i]
            np.testing.assert_allclose(p @ w, w, atol=1e-9 * np.linalg.norm(w))


class TestDouglas:
    def test_self_factor(self, rng):
        s = complex_gaussian(rng, 3, 3)
        w, lam = douglas_factor(s, s)
        np.testing.assert_allclose(w, np.eye(3), atol=1e-9)
        assert abs(lam - 1.0) < 1e-9

    def test_invertible_v(self, rng):
        s = complex_gaussian(rng, 3, 3)
        v = complex_gaussian(rng, 3, 3) + 3 * np.eye(3)
        w, _ = douglas_factor(s, v)
        np.testing.assert_allclose(v @ w, s, atol=1e-10 * np.linalg.norm(s, 2))

    def test_orthogonal_ranges(self):
        e1 = np.zeros((2, 2))
        e1[0, 0] = 1.0
        e2 = np.zeros((2, 2))
        e2[1, 1] = 1.0
        with pytest.raises(RangeNotContained):
            douglas_factor(e1, e2)

    def test_lambda_certificate(self, rng):
        # lam^2 v v* - s s* must be PSD up to tolerance
        for _ in range(10):
            v = complex_gaussian(rng, 4, 4)
            s = v @ complex_gaussian(rng, 4, 4)
            w, lam = douglas_factor(s, v)
            gap = lam**2 * (v @ v.conj().T) - s @ s.conj().T
            ext = hermitian_extremes(gap)
            assert ext.lambda_min >= -1e-8 * np.linalg.norm(s @ s.conj().T, 2)


class TestHermitianExtremes:
    def test_identity(self):
        ext = hermitian_extremes(np.eye(4))
        assert (ext.lambda_min, ext.lambda_max) == (1.0, 1.0)

    def test_diagonal(self):
        ext = hermitian_extremes(np.diag([2.0, 5.0, 3.0]))
        assert (ext.lambda_min, ext.lambda_max) == (2.0, 5.0)

    def test_random_hermitian(self, rng):
        b = complex_gaussian(rng, 6, 6)
        h = 0.5 * (b + b.conj().T)
        vals = np.linalg.eigvalsh(h)
        ext = hermitian_extremes(h)
        assert abs(ext.lambda_min - vals[0]) < 1e-10
        assert abs(ext.lambda_max - vals[-1]) < 1e-10

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitian):
            hermitian_extremes([[0.0, 1.0], [0.0, 0.0]])


class TestHermitianSpectrum:
    """`Spectrum(a).extremes`: the extremes of the Hermitian part, with no gate."""

    def test_no_gate(self):
        # the Hermitian part of [[0, 1], [0, 0]] has eigenvalues -1/2, 1/2
        ext = Spectrum(np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)).extremes
        assert (ext.lambda_min, ext.lambda_max) == (-0.5, 0.5)

    def test_matches_gated_extremes(self, rng):
        b = complex_gaussian(rng, 6, 6)
        h = 0.5 * (b + b.conj().T)
        assert Spectrum(h).extremes == hermitian_extremes(h)


def test_zero_spectrum_norm_is_positive_zero(rng):
    # a - a* of a Hermitian a is exactly zero; its norm is +0.0, which a
    # report prints as 0.0 (an all-zero spectrum once gave -0.0)
    b = complex_gaussian(rng, 4, 4)
    h = b + b.conj().T
    for d in (np.zeros((3, 3)), h - h.conj().T):
        norm = opnorm(d)
        assert norm == 0.0 and math.copysign(1.0, norm) == 1.0


def random_hermitian(rng, n, vals):
    q, _ = np.linalg.qr(complex_gaussian(rng, n, n))
    h = (q * np.asarray(vals, dtype=float)) @ q.conj().T
    return 0.5 * (h + h.conj().T)


class TestSpectrum:
    """One eigvalsh gives the extremes and one eigh serves every other
    reading, in either order (budgets.py counts them)."""

    def test_extremes_do_not_depend_on_what_is_asked_first(self, rng):
        # the extremes are the same bits whichever is asked first
        h = random_hermitian(rng, 5, [1.0, 2.0, 3.0, 4.0, 9.0])
        vals = np.linalg.eigvalsh(h)
        ref = SpectralInterval(float(vals[0]), float(vals[-1]))
        first = Spectrum(h)
        assert first.extremes == ref
        first.inverse, first.pinv, first.whiten(np.eye(5)), first.psd
        assert first.extremes == ref
        second = Spectrum(h)
        second.inverse, second.whiten(np.eye(5))
        assert second.extremes == ref

    def test_one_eigh_serves_every_reading(self, rng):
        h = random_hermitian(rng, 5, [0.5, 2.0, 3.0, 4.0, 8.0])
        spec = Spectrum(h)
        k = complex_gaussian(rng, 5, 5)
        w = spec.whiten(k)
        extremes, inverse, pinv_h, psd = spec.extremes, spec.inverse, spec.pinv, spec.psd
        assert extremes.lambda_min == pytest.approx(0.5, rel=1e-13)
        assert extremes.lambda_max == pytest.approx(8.0, rel=1e-13)
        assert psd
        np.testing.assert_allclose(inverse, np.linalg.inv(h), atol=1e-13)
        np.testing.assert_allclose(pinv_h, np.linalg.inv(h), atol=1e-13)
        np.testing.assert_allclose(w.conj().T @ w, k.conj().T @ np.linalg.inv(h) @ k, atol=1e-12)

    def test_scaled_shares_the_decomposition(self, rng):
        h = random_hermitian(rng, 4, [1.0, 2.0, 3.0, 5.0])
        spec = Spectrum(h)
        spec.inverse, spec.extremes
        scaled = spec.scaled(2.5)
        vals, vecs = scaled.eigenpairs
        assert vecs is spec.eigenpairs[1]
        np.testing.assert_array_equal(vals, 2.5 * spec.eigenpairs[0])
        assert scaled.extremes.lambda_max == 2.5 * spec.extremes.lambda_max
        assert scaled.scaled(2.0).extremes.lambda_min == 5.0 * spec.extremes.lambda_min
        np.testing.assert_allclose(scaled.inverse, spec.inverse / 2.5, atol=1e-15)
        assert scaled.extremes.lambda_min == 2.5 * spec.extremes.lambda_min
        assert not vecs.flags.writeable

    def test_pinv_cuts_at_tol_rank(self, rng):
        h = random_hermitian(rng, 4, [0.0, 1e-14, 2.0, 4.0])
        np.testing.assert_allclose(Spectrum(h).pinv, pinv(h), atol=1e-12)

    def test_whiten_keeps_the_range_and_refuses_the_null_space(self, rng):
        h = random_hermitian(rng, 4, [0.0, 1.0, 2.0, 4.0])
        spec = Spectrum(h)
        in_range = h @ complex_gaussian(rng, 4, 4)
        w = spec.whiten(in_range)
        assert w.shape == (3, 4)
        np.testing.assert_allclose(
            w.conj().T @ w, in_range.conj().T @ np.linalg.pinv(h) @ in_range, atol=1e-12)
        assert spec.whiten(complex_gaussian(rng, 4, 4)) is None
        assert spec.whiten(np.zeros((4, 4))).shape == (3, 4)

    def test_null_reach_is_measured_against_the_eigenvector_accuracy(self):
        # h = Q diag(1, 1e-5, 0) Q*: its computed null vector is accurate to
        # about eps 1e5, so the projector onto range(h) does not reach it,
        # while a component 1e-6 on the null vector does
        q = np.linalg.qr(complex_gaussian(np.random.default_rng(1), 3, 3))[0]
        spec = Spectrum(q @ np.diag([1.0, 1e-5, 0.0]) @ q.conj().T)
        k = q @ np.diag([1.0, 1.0, 0.0]) @ q.conj().T
        w = spec.whiten(k)
        assert w.shape == (2, 3)
        assert np.linalg.norm(w, 2) ** 2 == pytest.approx(1e5, rel=1e-6)
        assert spec.whiten(k + 1e-6 * q[:, 2:] @ q[:, 2:].conj().T) is None


class TestGramNorm:
    """`opnorm` takes the Gram route: the root of the top eigenvalue of a
    Gram matrix (a square r's blocks' b b*, else the smaller of r r* and
    r* r), one eigvalsh per block and no SVD."""

    def test_matches_the_spectral_norm(self, rng):
        for shape in ((5, 5), (3, 7), (7, 3), (1, 6), (6, 1), (1, 1)):
            r = complex_gaussian(rng, *shape)
            assert opnorm(r) == pytest.approx(np.linalg.norm(r, 2), rel=1e-14)

    def test_square_blocks_are_split_before_any_product(self, rng):
        """A square `a` is measured block by block, each block's own Gram
        matrix, and a diagonal `a` by |a_ii| with no eigvalsh at all (the
        eigvalsh calls: budgets.py)."""
        d = np.array([0.5, -3.0 + 4.0j, 2.0])
        assert opnorm(np.diag(d)) == 5.0
        big = np.diag(np.linspace(1.0, 2.0, 256) + 0j)
        tracemalloc.start()
        try:
            assert opnorm(big) == 2.0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < big.nbytes / 4  # no n x n product
        b1, b2 = complex_gaussian(rng, 3, 3), complex_gaussian(rng, 2, 2)
        a = np.zeros((6, 6), dtype=complex)
        a[:3, :3], a[3, 3], a[4:, 4:] = b1, 0.25, b2
        want = max(np.linalg.norm(b1, 2), np.linalg.norm(b2, 2))
        assert opnorm(a) == pytest.approx(want, rel=1e-14)

    @pytest.mark.parametrize("scale", [1e-170, 1e170])
    def test_scaled_out_of_overflow_and_underflow(self, rng, scale):
        r = complex_gaussian(rng, 4, 4)
        assert opnorm(scale * r) == pytest.approx(scale * np.linalg.norm(r, 2), rel=1e-14)

    def test_subnormal_largest_entry(self):
        """A subnormal largest |entry| is scaled out by a power of two: a
        complex division by it overflows."""
        a = np.array([[3e-310 + 1e-310j, 0], [0, 1e-311j]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = opnorm(a)
        assert abs(got - np.linalg.norm(a, 2)) <= 1e-15 * np.linalg.norm(a, 2)

    def test_empty_and_zero(self):
        assert opnorm(np.zeros((3, 3))) == 0.0
        assert opnorm(np.zeros((3, 0))) == 0.0
        assert opnorm(np.zeros((0, 3))) == 0.0
        assert opnorm(np.zeros((0, 0))) == 0.0

    def test_non_finite_entries_are_bad_input(self):
        with pytest.raises(InvalidParameters, match="must be finite"):
            opnorm(np.array([[np.inf, 1.0]]))


# One side above LANCZOS_GATE, where `top_eigenvalue` takes Lanczos.
N_ABOVE = 256


def unitary(rng, n):
    return np.linalg.qr(complex_gaussian(rng, n, n))[0]


def orthogonal_to_start(rng, n):
    """A Gram matrix whose top eigenvector v is orthogonal to
    `lanczos_start(n)` x, and whose other eigenvectors lie in v's
    complement: in exact arithmetic the Krylov space of x never meets v."""
    x = linalg.lanczos_start(n)
    v = complex_gaussian(rng, n)
    v -= x * np.vdot(x, v)
    v /= np.linalg.norm(v)
    p = np.eye(n) - np.outer(v, v.conj())
    b = complex_gaussian(rng, n, n)
    h = p @ (b @ b.conj().T) @ p
    return h + 1.5 * np.linalg.eigvalsh(h)[-1] * np.outer(v, v.conj())


def gram(a):
    return a @ a.conj().T


# name -> (the Gram matrix from a seeded rng, the route: True for the
# certified Ritz value, False for the fallback, None for either)
TOP_CASES = {
    "random dense": (lambda rng: gram(complex_gaussian(rng, N_ABOVE, N_ABOVE)), True),
    # Q Q* - I for a unitary Q: rounding noise, its top eigenvalues clustered
    "noise-level residual": (lambda rng: gram(
        (q := unitary(rng, N_ABOVE)) @ q.conj().T - np.eye(N_ABOVE)), True),
    "repeated top eigenvalue": (lambda rng: (
        (u := unitary(rng, N_ABOVE)) * np.r_[5.0, 5.0, 5.0, rng.uniform(0.0, 4.0, N_ABOVE - 3)]
    ) @ u.conj().T, True),
    "top eigenvector orthogonal to the start": (lambda rng: orthogonal_to_start(rng, N_ABOVE),
                                                None),
    "rank one": (lambda rng: gram(complex_gaussian(rng, N_ABOVE, 1)), True),
    # the Krylov space closes at step 3 and at step 5, between two Ritz reads
    "rank two": (lambda rng: gram(complex_gaussian(rng, N_ABOVE, 2)), True),
    "rank four": (lambda rng: gram(complex_gaussian(rng, N_ABOVE, 4)), True),
    "2 I": (lambda rng: 2.0 * np.eye(N_ABOVE), True),  # beta = 0 at step one
    "zero": (lambda rng: np.zeros((N_ABOVE, N_ABOVE)), False),
}


class TestCertifiedTopEigenvalue:
    """Above LANCZOS_GATE `top_eigenvalue` returns the Lanczos top Ritz value
    theta where one Cholesky factorization of theta (1 + tau) I - g
    succeeds, else the top eigvalsh; either way within 1e-13 relative of
    eigvalsh."""

    def test_the_gate_lies_between_128_and_256(self):
        assert 128 <= linalg.LANCZOS_GATE < N_ABOVE

    @pytest.mark.parametrize("name", TOP_CASES)
    def test_matches_eigvalsh(self, rng, name):
        build, certified = TOP_CASES[name]
        g = build(rng)
        want = np.linalg.eigvalsh(g)[-1]
        # no step divides by a zero beta, nor overflows or underflows
        with recorded("numpy.linalg.cholesky") as calls, np.errstate(all="raise"):
            got = top_eigenvalue(g)
        assert abs(got - want) <= 1e-13 * abs(want)
        full = [c for c in calls if c.routine == "eigvalsh" and c.shape == g.shape]
        assert [c.routine for c in calls].count("cholesky") == 1
        if certified is not None:
            assert len(full) == (0 if certified else 1)

    @pytest.mark.parametrize("exponent", [-900, 900])
    def test_rescaled_entries(self, rng, exponent):
        """Entries near 2^+-900: opnorm scales the largest |entry| into [1, 2)
        before forming the Gram matrix, and the rescaled Gram takes Lanczos."""
        r = complex_gaussian(rng, N_ABOVE, N_ABOVE)
        top = np.abs(r).max()
        want = math.sqrt(np.linalg.eigvalsh(gram(r / top))[-1]) * top * 2.0**exponent
        with recorded("numpy.linalg.cholesky") as calls:
            got = opnorm(2.0**exponent * r)
        assert abs(got - want) <= 1e-13 * want
        assert [c.routine for c in calls].count("cholesky") == 1
        assert max(c.shape[0] for c in calls if c.routine == "eigvalsh") <= linalg.LANCZOS_CAP

    def test_a_value_below_the_top_fails_the_certificate(self, rng, monkeypatch):
        """theta below lambda_max fails the Cholesky, and the fallback's
        eigvalsh gives the value."""
        g = TOP_CASES["random dense"][0](rng)
        want = np.linalg.eigvalsh(g)[-1]
        assert linalg.certifies(g, want)
        assert not linalg.certifies(g, (1.0 - 1e-6) * want)
        monkeypatch.setattr(linalg, "_ritz_top", lambda g: (1.0 - 1e-6) * want)
        with recorded() as calls:
            assert top_eigenvalue(g) == want
        assert [c.shape for c in calls if c.routine == "eigvalsh"] == [g.shape]


class TestSingularExtremes:
    def test_diagonal(self):
        sigma = singular_extremes(np.diag([3.0, -0.5, 2.0]))
        assert sigma == pytest.approx((0.5, 3.0), rel=1e-15)

    def test_rectangular_and_empty(self, rng):
        a = complex_gaussian(rng, 3, 5)
        s = np.linalg.svd(a, compute_uv=False)
        assert tuple(singular_extremes(a)) == (s[-1], s[0])
        assert tuple(singular_extremes(np.zeros((0, 0)))) == (0.0, 0.0)

    def test_norms_of_operator_and_inverse(self, rng):
        a = np.eye(5) + 0.4 * complex_gaussian(rng, 5, 5)
        sigma = require_invertible(a, "a")
        assert sigma.sigma_max == np.linalg.norm(a, 2)
        inv_norm = np.linalg.norm(np.linalg.inv(a), 2)
        assert 1.0 / sigma.sigma_min == pytest.approx(inv_norm, rel=1e-12)
        assert condition_number(a) == sigma.sigma_max / sigma.sigma_min

    @pytest.mark.parametrize("a", [np.zeros((3, 3)), np.ones((2, 3)), np.zeros((0, 0))])
    def test_singular_or_non_square_rejected(self, a):
        assert condition_number(a) == np.inf
        with pytest.raises(NotInvertible, match="condition number inf"):
            require_invertible(a, "a")

    @pytest.mark.parametrize("c", [math.inf, complex(math.inf, 0.0)])
    def test_infinite_number_rejected(self, c):
        # extremes (inf, inf): the condition inf / inf is NaN, which fails
        with pytest.raises(NotInvertible, match="condition number nan"):
            require_invertible(c)


class TestScalarMultiple:
    """An operator that is exactly c I is applied as the number c."""

    @pytest.mark.parametrize("a, c", [
        (np.eye(3), 1.0),
        ((0.5 - 2.0j) * np.eye(4), 0.5 - 2.0j),
        (np.zeros((3, 3)), 0.0),
        (np.array([[-2.0, -0.0], [0.0, -2.0]]), -2.0),  # -0.0 is zero
        (np.array([[7.0 + 1.0j]]), 7.0 + 1.0j),  # every 1 x 1 operator
    ])
    def test_multiples_of_identity(self, a, c):
        got = scalar_multiple(np.asarray(a, dtype=complex))
        assert type(got) is complex and got == c

    @pytest.mark.parametrize("a", [
        np.diag([1.0, 1.0, np.nextafter(1.0, 2.0)]),
        np.eye(3) + np.diag([5e-324, 0.0], 1),  # one subnormal off the diagonal
        np.zeros((0, 0)),
        np.ones((2, 3)),
        np.eye(3, 4),
    ])
    def test_others(self, a):
        assert scalar_multiple(np.asarray(a, dtype=complex)) is None

    def test_product_and_adjoint_of_a_number(self, rng):
        a = complex_gaussian(rng, 3, 3)
        c = 2.0 - 1.0j
        np.testing.assert_array_equal(product(c, a), c * a)
        np.testing.assert_array_equal(product(a, c), a * c)
        np.testing.assert_array_equal(product(a, a), a @ a)
        assert adjoint(c) == 2.0 + 1.0j
        np.testing.assert_array_equal(adjoint(a), a.conj().T)
        assert commutator_residual(a, c, 1.0, abs(c)) == 0.0
        assert commutator_residual(c, a) == 0.0

    def test_array_likes_are_operators(self, rng):
        # only a number stands for c I: a nested list is measured as the
        # operator it spells
        a = np.array([[0.0, 1.0], [0.0, 0.0]])
        assert commutator_residual(a.T.tolist(), a) == pytest.approx(1.0, rel=1e-15)
        assert commutator_residual(a, a.T.tolist()) == pytest.approx(1.0, rel=1e-15)
        np.testing.assert_array_equal(product(a.tolist(), a.T), a @ a.T)
        np.testing.assert_array_equal(adjoint((1j * a).tolist()), -1j * a.T)
        assert commutator_residual(np.float64(2.0), a) == 0.0


class TestCommutatorResidual:
    def test_commuting(self):
        assert commutator_residual(np.diag([1.0, 2.0]), np.diag([3.0, -1.0])) == 0.0

    def test_relative_to_norms(self):
        # [e12, e21] = diag(1, -1), of norm 1; both factors have norm 1
        a = np.array([[0.0, 1.0], [0.0, 0.0]])
        assert commutator_residual(a, a.T) == pytest.approx(1.0, rel=1e-15)
        assert commutator_residual(2.0 * a, a.T) == pytest.approx(1.0, rel=1e-15)

    def test_held_norms_replace_measured_ones(self, rng):
        # a held norm is not measured again (budgets.py)
        a = complex_gaussian(rng, 4, 4)
        b = complex_gaussian(rng, 4, 4)
        na, nb = opnorm(a), opnorm(b)
        ref = commutator_residual(a, b)
        assert commutator_residual(a, b, na, nb) == ref
        assert commutator_residual(a, b, na, None) == ref
        assert commutator_residual(a, b, None, nb) == ref
        assert commutator_residual(a, b, 2.0 * na, nb) == pytest.approx(ref / 2.0, rel=1e-15)


class TestDirectSumExtremes:
    def test_blocks_give_the_sum(self, rng):
        a = np.eye(3) + 0.4 * complex_gaussian(rng, 3, 3)
        b = 5.0 * np.eye(2) + complex_gaussian(rng, 2, 2)
        got = dsum_extremes(singular_extremes(a), singular_extremes(b))
        assert tuple(got) == pytest.approx(tuple(singular_extremes(dsum_op(a, b))), rel=1e-13)

    def test_combined_condition_gated(self):
        # each block has condition 1; the direct sum has 1e14 > COND_MAX
        big = singular_extremes(1e7 * np.eye(2))
        small = singular_extremes(1e-7 * np.eye(3))
        assert require_conditioned(big, "x") == big
        with pytest.raises(NotInvertible, match="x: condition number 1.000e\\+14"):
            require_conditioned(dsum_extremes(big, small), "x")


class TestGenRayleighMin:
    def test_both_identity(self):
        assert abs(gen_rayleigh_min(np.eye(3), np.eye(3)) - 1.0) < 1e-12

    def test_diag_over_identity(self):
        assert abs(gen_rayleigh_min(np.diag([2.0, 8.0]), np.eye(2)) - 2.0) < 1e-12

    def test_rank_deficient_restriction(self):
        val = gen_rayleigh_min(np.diag([1.0, 5.0]), np.diag([1.0, 0.0]))
        assert abs(val - 1.0) < 1e-12

    def test_brute_force_on_range(self, rng):
        # dense sampling of unit vectors in range(b) can only see larger quotients
        a = np.diag([1.0, 5.0, 2.0])
        b = np.diag([1.0, 1.0, 0.0])
        val = gen_rayleigh_min(a, b)
        worst = np.inf
        for _ in range(2000):
            f = np.zeros(3, dtype=complex)
            f[:2] = complex_gaussian(rng, 2)
            q = np.vdot(f, a @ f).real / np.vdot(f, b @ f).real
            worst = min(worst, q)
        assert val <= worst + 1e-9
        assert abs(val - 1.0) < 1e-12

    def test_matches_lambda_min_against_identity(self, rng):
        b = complex_gaussian(rng, 5, 5)
        h = b.conj().T @ b
        assert abs(
            gen_rayleigh_min(h, np.eye(5)) - hermitian_extremes(h).lambda_min
        ) < 1e-9 * np.linalg.norm(h, 2)

    def test_zero_denominator(self):
        with pytest.raises(ZeroDenominator):
            gen_rayleigh_min(np.eye(2), np.zeros((2, 2)))


class TestDirectSum:
    def test_identity_blocks(self):
        np.testing.assert_array_equal(dsum_op(np.eye(2), np.eye(3)), np.eye(5))

    def test_adjoint(self, rng):
        a = complex_gaussian(rng, 3, 3)
        b = complex_gaussian(rng, 2, 2)
        np.testing.assert_array_equal(
            dsum_op(a, b).conj().T, dsum_op(a.conj().T, b.conj().T)
        )

    def test_composition(self, rng):
        a, a2 = complex_gaussian(rng, 3, 3), complex_gaussian(rng, 3, 3)
        b, b2 = complex_gaussian(rng, 2, 2), complex_gaussian(rng, 2, 2)
        np.testing.assert_allclose(
            dsum_op(a, b) @ dsum_op(a2, b2), dsum_op(a @ a2, b @ b2), atol=1e-12
        )

    def test_inverse(self, rng):
        a = complex_gaussian(rng, 3, 3) + 3 * np.eye(3)
        b = complex_gaussian(rng, 2, 2) + 3 * np.eye(2)
        np.testing.assert_allclose(
            np.linalg.inv(dsum_op(a, b)),
            dsum_op(np.linalg.inv(a), np.linalg.inv(b)),
            atol=1e-10,
        )

    def test_projector_block(self, rng):
        m = random_subspace(rng, 3, 2)
        n = random_subspace(rng, 2, 1)
        np.testing.assert_allclose(
            projector(dsum_subspace(m, n)),
            dsum_op(projector(m), projector(n)),
            atol=1e-12,
        )


def test_projection_commutation_identity(rng):
    # P_M T* == P_M T* P_{image(T, M)} for random pairs
    for _ in range(20):
        m = random_subspace(rng, 5, int(rng.integers(1, 5)))
        t = complex_gaussian(rng, 5, 5)
        p = projector(m)
        q = projector(subspace_image(t, m))
        lhs = p @ t.conj().T
        rhs = p @ t.conj().T @ q
        assert np.linalg.norm(lhs - rhs, 2) <= 1e-9 * np.linalg.norm(t, 2)


class TestToleranceOverrides:
    """Defaults are read from `tolerances` at call time, so overrides apply."""

    def test_tol_herm_override(self, monkeypatch):
        a = np.array([[1.0, 0.5], [0.0, 1.0]])
        with pytest.raises(NotHermitian):
            require_hermitian(a)
        monkeypatch.setattr(tolerances, "TOL_HERM", 1.0)
        np.testing.assert_allclose(require_hermitian(a), [[1.0, 0.25], [0.25, 1.0]])
        np.testing.assert_allclose(positive_sqrt(a) @ positive_sqrt(a), [[1.0, 0.25], [0.25, 1.0]])

    def test_tol_rank_override(self, monkeypatch):
        a = np.diag([1.0, 0.1])
        np.testing.assert_allclose(pinv(a), np.diag([1.0, 10.0]))
        assert orth(a).shape == (2, 2)
        monkeypatch.setattr(tolerances, "TOL_RANK", 0.5)
        np.testing.assert_allclose(pinv(a), np.diag([1.0, 0.0]))
        assert orth(a).shape == (2, 1)
