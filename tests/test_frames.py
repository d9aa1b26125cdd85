import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gfusion import generate, serialize
from gfusion import tolerances as tol
from gfusion.constructions import direct_sum_frame
from gfusion.errors import DimensionMismatch, InvalidParameters, NotInvertible, NotPositive
from gfusion.frames import (
    BlockVector,
    ControlPair,
    FrameEvaluation,
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
from gfusion.linalg import (
    Subspace,
    dsum_op,
    gen_rayleigh_min,
    opnorm,
    orth,
    projector,
    singular_extremes,
)
from gfusion.resolution import adjoint_check, pair_frame_operator

from conftest import (
    complex_gaussian,
    random_family,
    random_unit,
    scalar_controls,
    scaled_partition_family,
    well_conditioned,
)


def non_bessel_instance(rng, dim=4):
    """A random family under two distinct random controls: S is not Hermitian."""
    fam = random_family(rng, dim, 3)
    cp = ControlPair(well_conditioned(rng, dim), well_conditioned(rng, dim))
    assert controlled_frame_bounds(fam, cp).herm_residual > 1e-3
    return fam, cp


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

    def test_exactly_hermitian_s_takes_no_hermitian_measurement(self, rng):
        # under scalar controls S - S* has no nonzero entry: the residual is
        # +0.0 with no eigvalsh of the zero skew and no ||S||_2, and the one
        # eigvalsh is the bounds' (budgets.py)
        fam = random_family(rng, 6, 4)
        cp = scalar_controls(rng, 6)
        s = FrameEvaluation(fam, cp).s
        assert not (s - s.conj().T).any()
        rep = controlled_frame_bounds(fam, cp)
        assert rep.herm_residual == 0.0 and math.copysign(1.0, rep.herm_residual) == 1.0

    def test_non_hermitian_s_measures_both_norms(self, rng):
        # ||S - S*|| and ||S|| once each (budgets.py)
        fam, cp = non_bessel_instance(rng)
        s = FrameEvaluation(fam, cp).s
        rep = controlled_frame_bounds(fam, cp)
        assert rep.herm_residual == opnorm(s - s.conj().T) / opnorm(s)

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

    def test_not_bessel_is_not_kgf(self, rng):
        # -inf: no lower bound holds; b is still the top eigenvalue of the
        # Hermitian part of S
        fam, cp = non_bessel_instance(rng)
        s = frame_operator(fam, cp)
        a, b, ok = kgf_bounds(fam, cp, complex_gaussian(rng, 4, 4))
        assert (a, ok) == (-math.inf, False)
        assert b == pytest.approx(np.linalg.eigvalsh(0.5 * (s + s.conj().T))[-1], rel=1e-12)

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
    def test_not_bessel_raises(self, rng):
        # a generic non-Bessel family has no T_C: its cross operators are
        # not Hermitian
        fam, cp = non_bessel_instance(rng)
        with pytest.raises(NotPositive, match="not Hermitian PSD"):
            atomic_check(fam, cp, np.eye(4))

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

    def test_coefficient_map_is_formed_when_read(self, rng):
        # the report keeps the thin coordinates T* S^+ k; the (m n) x n map
        # is expanded from them on the first read (budgets.py), and kept
        fam = random_family(rng, 4, 3)
        cp = scalar_controls(rng, 4)
        rep = atomic_check(fam, cp, complex_gaussian(rng, 4, 4))
        assert "coefficient_map" not in rep.__dict__
        first = rep.coefficient_map
        assert first.shape == (4 * len(fam), 4)
        assert rep.coefficient_map is first

    def test_atomic_norms_take_no_svd(self, rng):
        # ||k||_2, ||k - S||_2 and ||T_C L - k||_2 are each `opnorm`'s, the
        # root of the top eigenvalue of R R*, with no SVD (budgets.py)
        fam = random_family(rng, 5, 3)
        cp = scalar_controls(rng, 5)
        k = complex_gaussian(rng, 5, 5)
        s = frame_operator(fam, cp)
        rep = atomic_check(fam, cp, k)
        ref = np.linalg.norm(k - s, 2) / np.linalg.norm(k, 2)
        assert rep.literal_residual == pytest.approx(ref, rel=1e-13)
        resid = np.linalg.norm(synthesis_matrix(fam, cp) @ rep.coefficient_map - k, 2)
        assert rep.coefficient_residual <= 1e-13
        assert rep.coefficient_residual == pytest.approx(
            resid / np.linalg.norm(k, 2), rel=1e-6, abs=1e-15)

    def test_zero_k(self, rng):
        # a_opt = inf, and ||k|| floored at 1e-300
        fam = random_family(rng, 4, 2)
        cp = scalar_controls(rng, 4)
        rep = atomic_check(fam, cp, np.zeros((4, 4)))
        assert rep.lower_bound == math.inf and rep.is_atomic
        s = frame_operator(fam, cp)
        assert rep.literal_residual == pytest.approx(np.linalg.norm(s, 2) / 1e-300, rel=1e-13)
        assert rep.coefficient_residual == 0.0

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
        assert rep.lower_bound > 0
        s = frame_operator(fam, cp)
        h = 0.5 * (s + s.conj().T)
        assert rep.lower_bound == pytest.approx(gen_rayleigh_min(h, s @ s.conj().T), rel=1e-12)

    def test_coefficient_norm_bound_only_with_verdict(self):
        # S = diag(2, 7, ...) and k = 1e5 I: a_opt = 2e-10 is positive but
        # below the positivity floor 7e-9, so the verdict is false, and
        # 1/sqrt(a_opt) would read ~7e4
        fam = scaled_partition_family(6, (2.0, 7.0))
        rep = atomic_check(fam, ControlPair.identity(6), 1e5 * np.eye(6))
        assert not rep.is_atomic
        assert rep.lower_bound == pytest.approx(2e-10, rel=1e-12)
        assert rep.coefficient_norm_bound == math.inf

    def test_k_reaching_the_null_space_reads_zero(self):
        # S is singular (lambda_min ~ 2e-16 of 46) and k is full rank: the
        # frame sum vanishes on null(S) while ||k* f|| does not, so no A > 0
        # holds and a_opt is exactly 0.0
        inst = generate.random_instance(3038, 4, 2, "scalar-controls")
        rep = atomic_check(inst.family, inst.control, inst.k)
        assert not rep.is_atomic
        assert rep.lower_bound == 0.0
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


def two_by_two_family(s):
    """A family on C^2 whose frame operator under the identity controls is
    the integer matrix s = [[a + b, b], [b, b]] exactly: item 0 on W = C^2
    with Lambda = [sqrt(b), sqrt(b)], item 1 on span(e_1) with Lambda = sqrt(a) e_1*."""
    b, a = s[1][1], s[0][0] - s[1][1]
    assert s[0][1] == s[1][0] == b
    e1 = Subspace(2, np.eye(2, 1, dtype=complex))
    return FrameFamily(2, [
        (Subspace.full(2), np.sqrt(b) * np.ones((1, 2), dtype=complex), 1.0),
        (e1, np.sqrt(a) * np.eye(1, 2, dtype=complex), 1.0),
    ][: 2 if a else 1])


class TestDouglasKgf:
    """a_opt is the largest A with A ||k* f||^2 <= <S f, f> for every f."""

    E1 = np.diag([1.0, 0.0]).astype(complex)

    def test_frame_example_reads_the_douglas_value(self):
        # S = [[2, 1], [1, 1]], k = e_1 e_1*: at f = (1, -1) the frame sum
        # is 1 and ||k* f||^2 = 1, so a_opt = 1 / (S^-1)_11 = 1, below the
        # quotient <S e_1, e_1> = 2 on range(k k*)
        fam = two_by_two_family([[2, 1], [1, 1]])
        cp = ControlPair.identity(2)
        f = np.array([1.0, -1.0])
        assert frame_sum(fam, cp, f) == 1.0
        a, b, ok = kgf_bounds(fam, cp, self.E1)
        assert ok and a == pytest.approx(1.0, rel=1e-12)
        assert b == pytest.approx((3 + math.sqrt(5)) / 2, rel=1e-12)
        rep = atomic_check(fam, cp, self.E1)
        assert rep.is_atomic and rep.lower_bound == a

    def test_rank_one_example_is_neither_kgf_nor_atomic(self):
        # S = [[1, 1], [1, 1]]: the frame sum vanishes at f = (1, -1), where
        # ||k* f||^2 = 1, so no A > 0 holds
        fam = two_by_two_family([[1, 1], [1, 1]])
        cp = ControlPair.identity(2)
        assert frame_sum(fam, cp, np.array([1.0, -1.0])) == 0.0
        a, _, ok = kgf_bounds(fam, cp, self.E1)
        assert (a, ok) == (0.0, False)
        assert not atomic_check(fam, cp, self.E1).is_atomic

    def test_non_frame_reads_the_douglas_value_on_the_range_of_s(self):
        # S = [[2, 1], [1, 1]] (+) 0 is not a frame, and k = e_1 e_1* lies
        # in its range: a_opt = 1 / (S^+)_11 = 1 as in the frame example
        fam2 = two_by_two_family([[2, 1], [1, 1]])
        items = [(Subspace(3, np.vstack([sub.basis, np.zeros((1, sub.dim))])),
                  np.hstack([lam, np.zeros((lam.shape[0], 1))]), w)
                 for sub, lam, w in fam2.items]
        fam = FrameFamily(3, items)
        cp = ControlPair.identity(3)
        assert not controlled_frame_bounds(fam, cp).is_frame
        k = np.diag([1.0, 0.0, 0.0]).astype(complex)
        a, _, ok = kgf_bounds(fam, cp, k)
        assert ok and a == pytest.approx(1.0, rel=1e-12)
        assert frame_sum(fam, cp, np.array([1.0, -1.0, 5.0])) == 1.0

    @pytest.mark.parametrize("seed", range(8))
    def test_non_frame_with_a_small_kept_eigenvalue_is_kgf(self, seed):
        # S = Q diag(1, 1e-5, 0) Q* and k = Q diag(1, 1, 0) Q*, the projector
        # onto range(S), not formed as S g: the computed null vector of S
        # is off by about eps / 1e-5 in range(S), and k does not reach it;
        # a_opt = 1 / lambda_max(k S^+ k) = 1e-5
        q = np.linalg.qr(complex_gaussian(np.random.default_rng(seed), 3, 3))[0]
        lam = np.diag([1.0, math.sqrt(1e-5), 0.0]) @ q.conj().T
        fam = FrameFamily(3, [(Subspace.full(3), lam, 1.0)])
        cp = ControlPair.identity(3)
        k = q @ np.diag([1.0, 1.0, 0.0]) @ q.conj().T
        assert not controlled_frame_bounds(fam, cp).is_frame
        a, _, ok = kgf_bounds(fam, cp, k)
        assert ok and a == pytest.approx(1e-5, rel=1e-6)
        assert atomic_check(fam, cp, k).is_atomic

    def test_indefinite_s_with_a_rank_deficient_k_is_not_kgf(self):
        # S = diag(1, -1): <S e_2, e_2> = -1 while k* e_2 = 0, so no A
        # holds, though the quotient on range(k k*) = span(e_1) reads 1
        fam = FrameFamily(2, [(Subspace.full(2), np.eye(2, dtype=complex), 1.0)])
        cp = ControlPair(np.eye(2), np.diag([1.0, -1.0]))
        assert np.array_equal(frame_operator(fam, cp), np.diag([1.0, -1.0]))
        a, _, ok = kgf_bounds(fam, cp, self.E1)
        assert (a, ok) == (0.0, False)
        with pytest.raises(NotPositive):  # no T_C: the cross operator is indefinite
            atomic_check(fam, cp, self.E1)

    def test_indefinite_s_keeps_the_quotient_minimum(self, rng):
        # under scalars(n, -1, 1), S = -F: every A with A ||k* f||^2 <=
        # <S f, f> is negative, and for a full-rank k the largest is the
        # minimum of the quotient <S f, f> / ||k* f||^2
        fam = random_family(rng, 4, 3)
        cp = ControlPair.scalars(4, -1.0, 1.0)
        k = complex_gaussian(rng, 4, 4)
        s = frame_operator(fam, cp)
        a, _, ok = kgf_bounds(fam, cp, k)
        assert not ok and a < 0
        assert a == gen_rayleigh_min(0.5 * (s + s.conj().T), k @ k.conj().T)

    def test_indefinite_s_with_a_zero_k_has_no_lower_bound(self, rng):
        # under scalars(n, -1, 1), S = -F is not PSD, and a zero k leaves the
        # quotient no denominator: a_opt is 0.0, not the +inf of a PSD S
        fam = random_family(rng, 4, 3)
        cp = ControlPair.scalars(4, -1.0, 1.0)
        s = frame_operator(fam, cp)
        a, b, ok = kgf_bounds(fam, cp, np.zeros((4, 4)))
        assert (a, ok) == (0.0, False)
        assert b == pytest.approx(np.linalg.eigvalsh(0.5 * (s + s.conj().T))[-1], rel=1e-12)
        assert kgf_bounds(fam, ControlPair.identity(4), np.zeros((4, 4)))[0] == math.inf


class TestInverseBeyondTheRankCutoff:
    """Under TOL_RANK = 1e-6, a frame of condition 2e7 has an eigenvalue
    that the pseudoinverse cuts; S^-1 keeps every eigenvalue."""

    VALS = np.array([1e-7, 0.5, 1.0, 2.0])

    @pytest.mark.parametrize("rotated", [False, True])
    def test_inverse_keeps_what_pinv_cuts(self, rng, rotated):
        q = np.linalg.qr(complex_gaussian(rng, 4, 4))[0] if rotated else np.eye(4)
        lam = np.sqrt(self.VALS)[:, None] * q.conj().T  # F = q diag(VALS) q*
        fam = FrameFamily(4, [(Subspace.full(4), lam, 1.0)])
        with tol.override(tol_rank=1e-6):
            ev = FrameEvaluation(fam, ControlPair.identity(4))
            assert ev.is_frame
            inverse, pinv = ev.inverse, ev.spectrum.pinv
        s = ev.s
        np.testing.assert_allclose(inverse @ s, np.eye(4), atol=1e-8)
        # the pseudoinverse drops the least eigenvalue: it inverts S only on
        # the other three eigenvectors
        low = q[:, :1]
        np.testing.assert_allclose(pinv @ s, np.eye(4) - low @ low.conj().T, atol=1e-8)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 8),
    items=st.integers(1, 4),
    rank=st.integers(1, 8),
    k_rank=st.integers(1, 8),
    dense=st.booleans(),
)
def test_a_opt_is_attained(seed, n, items, rank, k_rank, dense):
    # the vector f = V diag(lambda^-1/2) z, z the top eigenvector of W W*
    # for W = whiten(k), attains a_opt: the literal frame sum at f equals
    # a_opt ||k* f||^2, so no larger A holds.  k = H g has its range in
    # range(S), so it takes the Douglas form also where S is not a frame
    # (rank < n); g of rank k_rank < rank(S) puts range(k) strictly inside.
    rng = np.random.default_rng(seed)
    fam = random_family(rng, n, items) if rank >= n else deficient_family(rng, n, items, rank)[0]
    if dense:
        t = well_conditioned(rng, n)
        cp = ControlPair(t, t)
    else:
        cp = ControlPair.scalars(n, *rng.uniform(0.1, 10.0, 2))
    ev = FrameEvaluation(fam, cp)
    q = min(k_rank, n)
    k = ev.hermitian @ complex_gaussian(rng, n, q) @ complex_gaussian(rng, q, n)
    a_opt, _, claims = ev.kgf(k)
    assert tol.all_hold(claims)
    vals, vecs = ev.spectrum.eigenpairs
    keep = vals > tol.TOL_PSD * max(vals[-1], 0.0)
    w = ev.spectrum.whiten(k)
    top, z = np.linalg.eigh(w @ w.conj().T)
    assert a_opt == pytest.approx(1 / top[-1], rel=1e-15)
    f = vecs[:, keep] @ (z[:, -1] / np.sqrt(vals[keep]))
    literal = frame_sum(fam, cp, f).real
    assert abs(literal - a_opt * np.linalg.norm(k.conj().T @ f) ** 2) <= tol.TOL_FACTOR * literal


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


class TestImmutableFamily:
    """A family and its subspaces hold read-only arrays that nothing outside
    the family can write, so its cached factors stay valid."""

    def family(self, rng):
        n = 5
        basis = orth(complex_gaussian(rng, n, 2))
        lam = complex_gaussian(rng, 3, n)
        items = [(Subspace(n, basis), lam, 1.2), (Subspace.full(n), np.eye(n), 0.7)]
        return FrameFamily(n, items), basis, lam

    def test_arrays_are_read_only(self, rng):
        fam, _, _ = self.family(rng)
        b, c = fam.factors[0]
        stacked = fam.sum_plan[0]  # both items stand alone: frame_sum stacks them
        for array in (fam.items[0][1], fam.items[0][0].basis, b, c, stacked):
            with pytest.raises(ValueError):
                array[0, 0] = 7.0

    def test_caller_arrays_are_not_shared(self, rng):
        fam, basis, lam = self.family(rng)
        cp = ControlPair(well_conditioned(rng, 5), well_conditioned(rng, 5))
        f = complex_gaussian(rng, 5)
        s, value = frame_operator(fam, cp), frame_sum(fam, cp, f)
        basis[:] = 0.0
        lam[:] = 1e3
        assert np.array_equal(frame_operator(fam, cp), s)
        assert frame_sum(fam, cp, f) == value

    def test_factors_formed_once(self, rng):
        fam, _, lam = self.family(rng)
        assert fam.factors is fam.factors
        assert fam.sum_plan is fam.sum_plan
        b, c = fam.factors[0]
        assert b is fam.items[0][0].basis
        assert np.array_equal(c, lam @ b)

    def test_converted_and_frozen_inputs_are_not_copied(self):
        real = np.eye(3, 2)
        sub = Subspace(3, real)
        assert not sub.basis.flags.writeable and real.flags.writeable
        fam = generate.random_instance(3, 4, 2, "generic").family
        again = FrameFamily(4, fam.items)
        for (sub, lam, _), (sub2, lam2, _) in zip(fam.items, again.items):
            assert lam2 is lam and sub2.basis is sub.basis


class TestThinAlgebra:
    """S = t* F u from the family's own operator F, each per-item root a
    d_j x d_j problem, and a stack of per-item cross operators only where a
    report lists the terms."""

    def test_operator_is_read_only_hermitian_and_formed_once(self, rng):
        fam = random_family(rng, 5, 3)
        assert fam.operator is fam.operator
        assert np.array_equal(fam.operator, fam.operator.conj().T)
        with pytest.raises(ValueError):
            fam.operator[0, 0] = 7.0

    def test_second_scalar_evaluation_takes_no_qr(self):
        # a 32/8 partition in a random unitary basis: under positive scalar
        # pairs the roots are the family's own, one QR per item taken once
        # (budgets.py); here, the bounds the second pair reads
        rng = np.random.default_rng(3)
        q, _ = np.linalg.qr(complex_gaussian(rng, 32, 32))
        fam = FrameFamily(32, [
            (Subspace(32, q[:, j::8]), q[:, j::8].conj().T, 1.0) for j in range(8)
        ])
        k = complex_gaussian(rng, 32, 32)
        f = complex_gaussian(rng, 32)
        atomic_check(fam, ControlPair.scalars(32, 0.5, 1.5), k)
        cp = ControlPair.scalars(32, 2.0 - 1.0j, 0.25 * (2.0 - 1.0j))
        rep = atomic_check(fam, cp, k)
        # S = conj(a) b I = 1.25 I
        assert rep.is_atomic and rep.bessel_bound == pytest.approx(1.25, rel=1e-13)
        assert analysis(fam, cp, f).norm_sq() == pytest.approx(1.25 * np.vdot(f, f).real,
                                                               rel=1e-12)

    @pytest.mark.parametrize("scalar_first", [True, False])
    def test_mixed_controls_take_the_dense_root(self, rng, scalar_first):
        # one control c I beside a dense one: t* B_j and u* B_j are formed as
        # n x d_j factors (c B_j on the scalar side) and each root takes its
        # own QR (budgets.py), not the family's.  Items L_j = M_j Q_j* on an orthonormal
        # partition Q_j and u = sum_j beta_j Q_j Q_j* keep every G_j Hermitian
        # PSD, and T T* = S
        n, dims = 6, (1, 2, 3)
        q, _ = np.linalg.qr(complex_gaussian(rng, n, n))
        blocks = np.split(q, np.cumsum(dims)[:-1], axis=1)
        fam = FrameFamily(n, [
            (Subspace(n, qj), complex_gaussian(rng, d, d) @ qj.conj().T, rng.uniform(0.5, 2.0))
            for qj, d in zip(blocks, dims)
        ])
        dense = sum(rng.uniform(0.5, 2.0) * qj @ qj.conj().T for qj in blocks)
        c = rng.uniform(0.5, 2.0)
        t, u = (c * np.eye(n), dense) if scalar_first else (dense, c * np.eye(n))
        cp = ControlPair(t, u)
        assert (cp.t_side if scalar_first else cp.u_side) == c
        s_ref = sum(
            w * w * t.conj().T @ projector(sub) @ lam.conj().T @ lam @ projector(sub) @ u
            for sub, lam, w in fam.items
        )
        ev = FrameEvaluation(fam, cp)
        t_thin, bases = ev.thin_synthesis
        assert not {"spectrum", "roots"} & fam.__dict__.keys()
        assert [b.shape[1] for b in bases] == list(dims)
        scale = np.linalg.norm(s_ref, 2)
        assert np.linalg.norm(ev.s - s_ref, 2) <= 1e-12 * scale
        assert np.linalg.norm(t_thin @ t_thin.conj().T - s_ref, 2) <= 1e-12 * scale


class TestImmutableControlPair:
    """A control pair holds read-only t and u that nothing outside it can
    write, so the singular extremes it keeps stay true."""

    def test_arrays_are_read_only(self, rng):
        cp = ControlPair(well_conditioned(rng, 3), well_conditioned(rng, 3))
        for array in (cp.t, cp.u):
            with pytest.raises(ValueError):
                array[0, 0] = 7.0

    def test_caller_arrays_are_not_shared(self):
        fam = scaled_partition_family(4, (1.0, 1.0))
        t = np.eye(4, dtype=complex)
        cp = ControlPair(t, t)
        s = frame_operator(fam, cp)
        t[:] = 0.0
        assert np.array_equal(frame_operator(fam, cp), s) and np.any(s)
        assert tuple(cp.t_sigma) == (1.0, 1.0)

    def test_library_controls_are_not_copied(self):
        # each control is held once, as its side: a number side holds no
        # array until t or u is read, and an operator side is the operator
        # itself, shared by a pair rebuilt from it
        h = ControlPair.scalars(2, 2.0, 0.5)
        made = [
            ControlPair.identity(3),
            h,
            ControlPair.direct_sum(h, ControlPair.scalars(3, 2.0, 0.5)),
            ControlPair.direct_sum(h, ControlPair.scalars(3, 1.0, 0.5)),
            generate.random_instance(5, 4, 2, "generic").control,
            generate.random_instance(5, 4, 2, "near-identity-pair").control2,
        ]
        for cp in made:
            held = [v for v in vars(cp).values() if isinstance(v, np.ndarray)]
            assert all(v is cp.t_side or v is cp.u_side for v in held)
            assert cp.t is cp.t and cp.u is cp.u
            assert (cp.u is cp.t) == (cp.u_side is cp.t_side)
            with pytest.raises(ValueError):
                cp.t[0, 0] = 7.0
            with pytest.raises(AttributeError):
                cp.t = cp.u
            again = ControlPair(cp.t, cp.u)
            for side, ref in ((again.t_side, cp.t_side), (again.u_side, cp.u_side)):
                assert type(side) is type(ref) and np.array_equal(side, ref)
                assert isinstance(side, complex) or side is ref
            for sigma, ref in ((again.t_sigma, cp.t_sigma), (again.u_sigma, cp.u_sigma)):
                assert sigma == pytest.approx(ref, rel=1e-15)

    def test_scalar_pairs_allocate_no_dense_control(self):
        # a 1024-dim c I is 16 MB
        for make in (lambda: ControlPair.scalars(1024, 2, 0.5),
                     lambda: ControlPair.direct_sum(ControlPair.scalars(512, 2, 0.5),
                                                    ControlPair.scalars(512, 2, 0.5))):
            tracemalloc.start()
            try:
                cp = make()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 2**20 and cp.dim == 1024

    def test_a_number_side_reads_plus_zero_off_the_diagonal(self):
        # c I for c = -1 or -i: (-1) * 0.0 would be -0.0, a byte of the
        # control_out that a construction report writes
        cp = ControlPair.scalars(3, -1.0, -1j)
        for dense in (cp.t, cp.u):
            off = dense[~np.eye(3, dtype=bool)]
            assert not np.signbit(off.real).any() and not np.signbit(off.imag).any()

    @pytest.mark.parametrize("make", [lambda: ControlPair.scalars(0, 1, 1),
                                      lambda: ControlPair.identity(0)])
    def test_scalar_pair_on_no_space_is_not_invertible(self, make):
        with pytest.raises(NotInvertible,
                           match=r"^control t = u: condition number inf exceeds 1\.0e\+12$"):
            make()

    @pytest.mark.parametrize("c", [math.inf, math.nan])
    def test_non_finite_scalar_is_bad_input(self, c):
        with pytest.raises(InvalidParameters, match="operator entries must be finite"):
            ControlPair.scalars(3, c, 1)


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

    def test_same_operator_is_checked_once(self, rng):
        # one SVD for t = u (budgets.py), whose extremes serve both
        c = np.eye(4) + 0.3 * complex_gaussian(rng, 4, 4)
        cp = ControlPair(c, c.copy())
        assert cp.t_sigma is cp.u_sigma
        assert cp.t_sigma == singular_extremes(c)

    def test_multiple_of_identity_takes_no_svd(self, rng):
        # a control exactly c I is gated on (|c|, |c|) and kept as the number
        # c; c = 0 still fails COND_MAX, and a dense control takes its SVD
        # (budgets.py)
        cp = ControlPair.scalars(5, 3.0 - 4.0j, 2.0)
        assert (cp.t_side, cp.u_side) == (3.0 - 4.0j, 2.0)
        assert tuple(cp.t_sigma) == (5.0, 5.0) and tuple(cp.u_sigma) == (2.0, 2.0)
        with pytest.raises(NotInvertible, match="control t: condition number inf"):
            ControlPair(np.zeros((2, 2)), np.eye(2))
        c = well_conditioned(rng, 5)
        mixed = ControlPair(2.0 * np.eye(5), c)
        assert mixed.u_sigma == singular_extremes(c)
        assert mixed.t_side == 2.0 and mixed.u_side is mixed.u

    def test_direct_sum_takes_the_blocks_extremes(self, rng):
        # with no SVD of the sums (budgets.py)
        h = ControlPair(np.eye(3) + 0.3 * complex_gaussian(rng, 3, 3), np.diag([1.0, 2.0, 3.0]))
        x = ControlPair(np.diag([0.25, 1.0]), np.eye(2) + 0.3 * complex_gaussian(rng, 2, 2))
        cp = ControlPair.direct_sum(h, x)
        np.testing.assert_array_equal(cp.t, dsum_op(h.t, x.t))
        np.testing.assert_array_equal(cp.u, dsum_op(h.u, x.u))
        assert tuple(cp.t_sigma) == (0.25, h.t_sigma.sigma_max)
        assert tuple(cp.u_sigma) == (x.u_sigma.sigma_min, 3.0)
        ref = ControlPair(cp.t, cp.u)
        assert tuple(cp.t_sigma) == pytest.approx(tuple(ref.t_sigma), rel=1e-13)
        assert tuple(cp.u_sigma) == pytest.approx(tuple(ref.u_sigma), rel=1e-13)

    def test_direct_sum_of_equal_controls_keeps_one_extremes(self):
        cp = ControlPair.direct_sum(ControlPair.identity(2), ControlPair.scalars(3, 2.0, 2.0))
        assert cp.t_sigma is cp.u_sigma
        assert tuple(cp.t_sigma) == (1.0, 2.0)

    @pytest.mark.parametrize("c_t, c_u", [(1.0, 1.0), (0.5, 1.5), (-1.0, 2.0), (1j, 1.0)])
    def test_direct_sum_of_one_scalar_pair_is_that_pair(self, c_t, c_u):
        # (c_t I, c_u I) (+) (c_t I, c_u I) is (c_t I, c_u I) on the sum
        # space: its sides are the two numbers, as for the dense
        # construction, and a report that writes its controls writes the
        # block sums' bytes
        h, x = ControlPair.scalars(2, c_t, c_u), ControlPair.scalars(3, c_t, c_u)
        cp = ControlPair.direct_sum(h, x)
        assert (cp.t_side, cp.u_side) == (c_t, c_u)
        assert (cp.t_sigma is cp.u_sigma) == (c_t == c_u)
        dense = ControlPair(dsum_op(h.t, x.t), dsum_op(h.u, x.u))
        assert (cp.t_side, cp.u_side, cp.scale) == (dense.t_side, dense.u_side, dense.scale)
        assert serialize.dumps(serialize.control_pair_to_dict(cp)) == serialize.dumps(
            serialize.control_pair_to_dict(dense))

    @pytest.mark.parametrize("u_scale", [1.0, 2.0])
    def test_direct_sum_gates_combined_condition(self, u_scale):
        # blocks 1e7 I and 1e-7 I are each of condition 1, their sum 1e14
        h = ControlPair.scalars(2, 1e7, u_scale * 1e7)
        x = ControlPair.scalars(3, 1e-7, u_scale * 1e-7)
        what = "control t = u" if u_scale == 1.0 else "control t"
        with pytest.raises(NotInvertible, match=f"{what}: condition number 1.000e\\+14"):
            ControlPair.direct_sum(h, x)
        with pytest.raises(NotInvertible):
            ControlPair(dsum_op(h.t, x.t), dsum_op(h.u, x.u))


PARTITION = (scaled_partition_family(4, (1.0, 2.0)), ControlPair.identity(4))
EYE4 = np.eye(4)


@pytest.mark.parametrize("make", [
    lambda: ControlPair.identity(2),
    lambda: scaled_partition_family(4, (1.0, 2.0)),
    lambda: Subspace.full(3),
    lambda: BlockVector([np.ones(2)] * 2),
    lambda: controlled_frame_bounds(*PARTITION),
    lambda: atomic_check(*PARTITION, EYE4),
    lambda: direct_sum_frame(*PARTITION, EYE4, *PARTITION, EYE4),
    lambda: pair_frame_operator(PARTITION[0], EYE4, PARTITION[0], EYE4),
    lambda: adjoint_check(pair_frame_operator(PARTITION[0], EYE4, PARTITION[0], EYE4)),
], ids=["ControlPair", "FrameFamily", "Subspace", "BlockVector", "FrameReport", "AtomicReport",
        "TransformReport", "PairOperator", "AdjointReport"])
def test_equality_is_identity(make):
    # array fields give no truth value, so == compares identity and never raises
    a, b = make(), make()
    assert (a == b) is False
    assert (a == a) is True
    assert (a != b) is True

