import numpy as np
import pytest

from gfusion import tolerances
from gfusion.errors import (
    NotHermitian,
    NotInvertible,
    NotPSD,
    RangeNotContained,
    ZeroDenominator,
)
from gfusion.linalg import (
    Subspace,
    commutator_residual,
    condition_number,
    douglas_factor,
    dsum_op,
    dsum_subspace,
    gen_rayleigh_min,
    hermitian_extremes,
    hermitian_spectrum,
    orth,
    pinv,
    positive_sqrt,
    projector,
    require_hermitian,
    require_invertible,
    singular_extremes,
    subspace_image,
)

from conftest import complex_gaussian, random_subspace, random_unit


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
    def test_no_gate(self):
        # the Hermitian part of [[0, 1], [0, 0]] has eigenvalues -1/2, 1/2
        ext = hermitian_spectrum(np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex))
        assert (ext.lambda_min, ext.lambda_max) == (-0.5, 0.5)

    def test_matches_gated_extremes(self, rng):
        b = complex_gaussian(rng, 6, 6)
        h = 0.5 * (b + b.conj().T)
        assert hermitian_spectrum(h) == hermitian_extremes(h)


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


class TestCommutatorResidual:
    def test_commuting(self):
        assert commutator_residual(np.diag([1.0, 2.0]), np.diag([3.0, -1.0])) == 0.0

    def test_relative_to_norms(self):
        # [e12, e21] = diag(1, -1), of norm 1; both factors have norm 1
        a = np.array([[0.0, 1.0], [0.0, 0.0]])
        assert commutator_residual(a, a.T) == pytest.approx(1.0, rel=1e-15)
        assert commutator_residual(2.0 * a, a.T) == pytest.approx(1.0, rel=1e-15)


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
