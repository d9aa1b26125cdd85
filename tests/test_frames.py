import math

import numpy as np
import pytest

from gfusion import generate
from gfusion.errors import DimensionMismatch, NotPositive
from gfusion.frames import (
    BlockVector,
    ControlPair,
    FrameFamily,
    analysis,
    atomic_check,
    atomic_wrt_frame_operator,
    controlled_frame_bounds,
    frame_operator,
    frame_sum,
    item_cross_operator,
    kgf_bounds,
    linear_combination_atomic,
    synthesis,
    synthesis_matrix,
)
from gfusion.linalg import Subspace, gen_rayleigh_min, orth, projector

from conftest import (
    complex_gaussian,
    random_family,
    random_subspace,
    random_unit,
    record_svd_inputs,
    scalar_controls,
    scaled_partition_family,
)


class TestFrameSum:
    def test_matches_quadratic_form(self, rng):
        # oracle: the literal per-item sum equals <S_C f, f>
        fam = random_family(rng, 6, 4)
        cp = ControlPair(
            complex_gaussian(rng, 6, 6) + 3 * np.eye(6),
            complex_gaussian(rng, 6, 6) + 3 * np.eye(6),
        )
        s = frame_operator(fam, cp)
        for _ in range(10):
            f = complex_gaussian(rng, 6)
            lhs = frame_sum(fam, cp, f)
            rhs = np.vdot(f, s @ f)
            assert abs(lhs - rhs) < 1e-9 * (1 + abs(rhs))

    def test_identity_controls_partition(self):
        # projectors onto a coordinate partition resolve the identity
        fam = scaled_partition_family(6, (1.0, 1.0, 1.0))
        cp = ControlPair.identity(6)
        f = np.arange(1, 7, dtype=complex)
        val = frame_sum(fam, cp, f)
        assert abs(val - np.vdot(f, f)) < 1e-12

    def test_scalar_controls_scale(self, rng):
        fam = random_family(rng, 5, 3)
        f = complex_gaussian(rng, 5)
        base = frame_sum(fam, ControlPair.identity(5), f)
        scaled = frame_sum(fam, ControlPair.scalars(5, 0.5, 3.0), f)
        assert abs(scaled - 1.5 * base) < 1e-9 * (1 + abs(base))

    def test_dimension_mismatch(self, rng):
        fam = random_family(rng, 4, 2)
        with pytest.raises(DimensionMismatch):
            frame_sum(fam, ControlPair.identity(4), np.ones(5))


class TestFrameOperator:
    def test_sum_of_items(self, rng):
        fam = random_family(rng, 5, 3)
        cp = scalar_controls(rng, 5)
        manual = sum(
            w**2 * item_cross_operator(sub, lam, cp) for sub, lam, w in fam.items
        )
        np.testing.assert_allclose(frame_operator(fam, cp), manual, atol=1e-12)

    def test_partition_is_diagonal(self):
        fam = scaled_partition_family(6, (2.0, 3.0, 5.0))
        s = frame_operator(fam, ControlPair.identity(6))
        np.testing.assert_allclose(s, np.diag([2.0, 3.0, 5.0] * 2), atol=1e-12)


class TestBounds:
    def test_partition_exact(self):
        rep = controlled_frame_bounds(
            scaled_partition_family(8, (2.0, 5.0)), ControlPair.identity(8)
        )
        assert rep.is_bessel and rep.is_frame
        assert abs(rep.bounds.lambda_min - 2.0) < 1e-12
        assert abs(rep.bounds.lambda_max - 5.0) < 1e-12

    def test_bounds_bracket_samples(self, rng):
        fam = random_family(rng, 6, 4)
        cp = scalar_controls(rng, 6)
        rep = controlled_frame_bounds(fam, cp)
        assert rep.is_bessel
        for _ in range(100):
            f = random_unit(rng, 6)
            val = frame_sum(fam, cp, f).real
            assert rep.bounds.lambda_min - 1e-9 <= val <= rep.bounds.lambda_max + 1e-9

    def test_deficient_family_not_frame(self):
        # single rank-deficient item: Bessel but no lower bound
        sub = Subspace(4, np.eye(4, 1, dtype=complex))
        fam = FrameFamily(4, [(sub, projector(sub), 1.0)])
        rep = controlled_frame_bounds(fam, ControlPair.identity(4))
        assert rep.is_bessel and not rep.is_frame

    def test_weight_scaling(self):
        fam1 = scaled_partition_family(4, (1.0, 1.0))
        items2 = [(s, l, 2.0 * w) for s, l, w in fam1.items]
        rep2 = controlled_frame_bounds(FrameFamily(4, items2), ControlPair.identity(4))
        assert abs(rep2.bounds.lambda_min - 4.0) < 1e-12

    def test_non_hermitian_cross_not_bessel_flagged(self, rng):
        # wildly asymmetric controls break the Hermitian structure
        fam = random_family(rng, 4, 2)
        t = complex_gaussian(rng, 4, 4) + 3 * np.eye(4)
        u = complex_gaussian(rng, 4, 4) + 3 * np.eye(4)
        rep = controlled_frame_bounds(fam, ControlPair(t, u))
        if rep.herm_residual > 1e-8:
            assert not rep.is_bessel


class TestAnalysisSynthesis:
    def test_norm_matches_frame_sum(self, rng):
        fam = random_family(rng, 5, 3)
        cp = scalar_controls(rng, 5)
        for _ in range(10):
            f = complex_gaussian(rng, 5)
            g = analysis(fam, cp, f)
            assert abs(g.norm_sq() - frame_sum(fam, cp, f).real) < 1e-9

    def test_synthesis_adjoint_to_analysis(self, rng):
        fam = random_family(rng, 5, 3)
        cp = scalar_controls(rng, 5)
        s = frame_operator(fam, cp)
        f = complex_gaussian(rng, 5)
        out, certified = synthesis(fam, cp, analysis(fam, cp, f), f_hint=f)
        assert certified
        np.testing.assert_allclose(out, s @ f, atol=1e-9 * np.linalg.norm(f))

    def test_synthesis_matrix_consistent(self, rng):
        fam = random_family(rng, 4, 3)
        cp = scalar_controls(rng, 4)
        tmat = synthesis_matrix(fam, cp)
        f = complex_gaussian(rng, 4)
        g = analysis(fam, cp, f)
        stacked = np.concatenate(g.blocks)
        np.testing.assert_allclose(
            tmat @ stacked, frame_operator(fam, cp) @ f, atol=1e-9
        )

    def test_non_positive_item_rejected(self, rng):
        # controls with opposite signs make an item term negative definite
        fam = scaled_partition_family(4, (1.0, 2.0))
        cp = ControlPair.scalars(4, 1.0, -1.0)
        with pytest.raises(NotPositive):
            analysis(fam, cp, np.ones(4))


class TestBlockVector:
    def test_norms(self):
        g = BlockVector([np.array([3.0, 0.0]), np.array([4.0])])
        assert g.norm_sq() == 25.0
        assert g.norm() == 5.0

    def test_zeros(self):
        g = BlockVector.zeros((2, 3))
        assert g.norm() == 0.0
        assert tuple(b.shape[0] for b in g.blocks) == (2, 3)


class TestKgfBounds:
    def test_identity_k_matches_frame_bounds(self, rng):
        fam = random_family(rng, 5, 3)
        cp = scalar_controls(rng, 5)
        rep = controlled_frame_bounds(fam, cp)
        a, b, ok = kgf_bounds(fam, cp, np.eye(5))
        assert ok
        assert abs(a - rep.bounds.lambda_min) < 1e-8 * (1 + b)
        assert abs(b - rep.bounds.lambda_max) < 1e-8 * (1 + b)

    def test_projector_k_partition(self):
        # K projecting onto the first block: only that block's scale matters
        fam = scaled_partition_family(6, (2.0, 7.0))
        k = np.diag([1.0, 0.0] * 3).astype(complex)
        a, b, ok = kgf_bounds(fam, ControlPair.identity(6), k)
        assert ok
        assert abs(a - 2.0) < 1e-9
        assert abs(b - 7.0) < 1e-9

    def test_zero_k(self, rng):
        fam = random_family(rng, 4, 2)
        a, b, ok = kgf_bounds(fam, ControlPair.identity(4), np.zeros((4, 4)))
        assert math.isinf(a)

    def test_sampled_lower_bound_holds(self, rng):
        fam = random_family(rng, 5, 3)
        cp = scalar_controls(rng, 5)
        k = complex_gaussian(rng, 5, 5)
        a, b, ok = kgf_bounds(fam, cp, k)
        assert ok
        for _ in range(200):
            f = random_unit(rng, 5)
            lhs = a * np.linalg.norm(k.conj().T @ f) ** 2
            assert lhs <= frame_sum(fam, cp, f).real + 1e-8


class TestAtomic:
    def test_atomic_for_identity_k(self, rng):
        fam = random_family(rng, 5, 3)
        cp = scalar_controls(rng, 5)
        rep = atomic_check(fam, cp, np.eye(5))
        assert rep.is_atomic
        assert rep.coefficient_residual <= 1e-8
        assert rep.literal_residual >= 0.0
        assert rep.lower_bound > 0

    def test_literal_residual_zero_for_own_frame_operator(self, rng):
        fam = random_family(rng, 4, 3)
        cp = scalar_controls(rng, 4)
        rep = atomic_wrt_frame_operator(fam, cp)
        assert rep.literal_residual <= 1e-10

    def test_coefficient_map_factors_k(self, rng):
        fam = random_family(rng, 4, 3)
        cp = scalar_controls(rng, 4)
        k = complex_gaussian(rng, 4, 4)
        rep = atomic_check(fam, cp, k)
        tmat = synthesis_matrix(fam, cp)
        resid = np.linalg.norm(tmat @ rep.coefficient_map - k, 2)
        assert resid <= 1e-8 * np.linalg.norm(k, 2)

    def test_coefficient_norm_bound_certified(self, rng):
        # the map's coefficient vectors obey ||L f||^2 <= C^2 ||f||^2
        fam = random_family(rng, 4, 3)
        cp = scalar_controls(rng, 4)
        k = complex_gaussian(rng, 4, 4)
        rep = atomic_check(fam, cp, k)
        c = rep.coefficient_norm_bound
        for _ in range(100):
            f = random_unit(rng, 4)
            assert np.linalg.norm(rep.coefficient_map @ f) <= c + 1e-8

    def test_frame_operator_is_atomic(self, rng):
        fam = random_family(rng, 5, 3)
        cp = scalar_controls(rng, 5)
        rep = atomic_wrt_frame_operator(fam, cp)
        assert rep.is_atomic
        assert rep.alpha_opt is not None and rep.alpha_opt > 0
        s = frame_operator(fam, cp)
        h = 0.5 * (s + s.conj().T)
        assert rep.alpha_opt == pytest.approx(gen_rayleigh_min(h, s @ s.conj().T), rel=1e-12)

    def test_coefficient_norm_bound_only_with_verdict(self):
        # a_opt is roundoff (~1e-15) below the positivity floor: the verdict
        # is false, and 1/sqrt(a_opt) would read ~3e7
        inst = generate.random_instance(3002, 4, 2, "scalar-controls")
        rep = atomic_check(inst.family, inst.control, inst.k)
        assert not rep.is_atomic
        assert 0 < rep.lower_bound < 1e-12
        assert rep.coefficient_norm_bound == math.inf

    def test_not_atomic_when_range_escapes(self):
        # K maps onto a direction the family cannot see
        sub = Subspace(3, np.eye(3, 1, dtype=complex))
        fam = FrameFamily(3, [(sub, projector(sub), 1.0)])
        k = np.diag([0.0, 1.0, 0.0]).astype(complex)
        rep = atomic_check(fam, ControlPair.identity(3), k)
        assert not rep.is_atomic

    def test_linear_combination(self, rng):
        fam = random_family(rng, 4, 3)
        cp = scalar_controls(rng, 4)
        k1 = complex_gaussian(rng, 4, 4)
        k2 = complex_gaussian(rng, 4, 4)
        combo, prod = linear_combination_atomic(fam, cp, k1, k2, 1.5, -2j)
        assert combo.is_atomic and prod.is_atomic


def deficient_family(rng, dim, items, rank, zero_item=False):
    """Family whose subspaces all lie in one random rank-`rank` subspace V,
    so that S has range V under scalar controls.  Returns (family, basis of V)."""
    q = orth(complex_gaussian(rng, dim, rank))
    out = []
    for i in range(items):
        sub_dim = rank if i == 0 else int(rng.integers(1, rank + 1))
        rows = dim if i == 0 else int(rng.integers(1, dim + 1))
        sub = Subspace(dim, orth(q @ complex_gaussian(rng, rank, sub_dim)))
        lam = complex_gaussian(rng, rows, dim) / np.sqrt(dim)
        out.append((sub, lam, float(rng.uniform(0.5, 2.0))))
    if zero_item:
        out.append((Subspace.zero(dim), complex_gaussian(rng, 3, dim), 1.0))
    return FrameFamily(dim, out), q


class TestCoefficientMapRankDeficient:
    @pytest.mark.parametrize(
        "dim, items, rank, zero_item",
        [(16, 4, 15, False), (64, 32, 44, False), (12, 3, 11, True)],
        ids=["rank-n-1", "64x32-rank-n-20", "zero-subspace-item"],
    )
    def test_minimum_norm_map(self, rng, dim, items, rank, zero_item):
        fam, q = deficient_family(rng, dim, items, rank, zero_item)
        cp = scalar_controls(rng, dim)
        s = frame_operator(fam, cp)
        tmat = synthesis_matrix(fam, cp)
        sv = np.linalg.svd(tmat, compute_uv=False)
        # singular values of T_C below 1e-6 sigma_max are the square roots of
        # eigenvalue roundoff, not part of its range
        assert int(np.sum(sv > 1e-6 * sv[0])) == rank
        for k in (q @ q.conj().T @ complex_gaussian(rng, dim, dim), s):
            rep = atomic_check(fam, cp, k)
            assert rep.is_atomic
            assert rep.coefficient_residual <= 1e-12
            ref = np.linalg.lstsq(tmat, k, rcond=1e-6)[0]
            dev = np.linalg.norm(rep.coefficient_map - ref, 2)
            assert dev <= 1e-10 * np.linalg.norm(ref, 2)


class TestValidation:
    def test_item_dim_mismatch(self):
        sub = Subspace(3, np.eye(3, 1, dtype=complex))
        with pytest.raises(DimensionMismatch):
            FrameFamily(3, [(sub, np.ones((2, 4)), 1.0)])

    def test_weight_positive(self):
        sub = Subspace(2, np.eye(2, 1, dtype=complex))
        with pytest.raises(ValueError):
            FrameFamily(2, [(sub, np.eye(2), -1.0)])

    def test_control_must_be_square(self):
        # shapes are checked before invertibility: a 2 x 3 control is bad
        # input, not a singular operator
        with pytest.raises(DimensionMismatch):
            ControlPair(np.ones((2, 3)), np.eye(3))
        with pytest.raises(DimensionMismatch):
            ControlPair(np.ones((2, 3)), np.ones((2, 3)))


class TestControlPairExtremes:
    def test_keeps_singular_extremes_of_its_check(self, rng):
        t = np.eye(4) + 0.3 * complex_gaussian(rng, 4, 4)
        u = np.diag([0.5, 1.0, 2.0, 4.0]).astype(complex)
        cp = ControlPair(t, u)
        for c, sigma in ((t, cp.t_sigma), (u, cp.u_sigma)):
            assert sigma.sigma_max == np.linalg.norm(c, 2)
            inv_norm = np.linalg.norm(np.linalg.inv(c), 2)
            assert 1.0 / sigma.sigma_min == pytest.approx(inv_norm, rel=1e-12)
        assert tuple(cp.u_sigma) == pytest.approx((0.5, 4.0), rel=1e-15)

    def test_same_operator_is_checked_once(self, rng, monkeypatch):
        c = np.eye(4) + 0.3 * complex_gaussian(rng, 4, 4)
        seen = record_svd_inputs(monkeypatch)
        cp = ControlPair(c, c.copy())
        assert len(seen) == 1 and np.array_equal(seen[0], c)
        assert cp.t_sigma == cp.u_sigma
        ControlPair(c, 2.0 * c)
        assert len(seen) == 3
