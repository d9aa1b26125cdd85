"""Operators measured at the cost of their structure.

A square matrix whose off-diagonal blocks are exactly zero is decomposed
block by block (`linalg.diagonal_blocks`), its 1 x 1 blocks read off the
diagonal: `Spectrum` and `opnorm` agree with numpy's
whole-matrix computations, and the direct sum of two families is never
decomposed whole.  An exactly Hermitian S takes its norm from its spectrum,
a sum operator r = c I in `sum_transform` is applied as the number c, and a
direct sum of scalar control pairs reads its sides from the numbers.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gfusion import linalg
from gfusion import tolerances as tol
from gfusion.constructions import direct_sum_frame, sum_transform
from gfusion.frames import ControlPair, FrameEvaluation, FrameFamily
from gfusion.linalg import Spectrum, Subspace, diagonal_blocks, dsum_op, opnorm
from gfusion.resolution import coercive_pair_check, pair_frame_operator

from conftest import (
    KIND_SUMS,
    SCALAR_SUMS,
    complex_gaussian,
    control_pair,
    new_operators,
    partition,
    random_family,
    well_conditioned,
)

RTOL = 1e-13
def close(x, y, scale):
    """Every entry of x within RTOL * scale of y's."""
    return np.abs(np.asarray(x) - np.asarray(y)).max(initial=0.0) <= RTOL * scale


def block_diagonal(seed, sizes, zero, hermitian, psd=False):
    """A block-diagonal matrix with blocks of `sizes`: block i is zero where
    zero[i], else Q diag(lambda) Q* with |lambda| in [0.5, 2] (positive
    with `psd`, else of random sign), plus (unless `hermitian`) an
    anti-Hermitian part, so that its Hermitian part is well conditioned on
    each nonzero block."""
    rng = np.random.default_rng(seed)
    n = sum(sizes)
    a = np.zeros((n, n), dtype=complex)
    lo = 0
    for size, is_zero in zip(sizes, zero):
        if not is_zero:
            q, _ = np.linalg.qr(complex_gaussian(rng, size, size))
            vals = rng.uniform(0.5, 2.0, size) * (1.0 if psd else rng.choice([-1.0, 1.0], size))
            block = (q * vals) @ q.conj().T
            block = 0.5 * (block + block.conj().T)
            if not hermitian:
                g = complex_gaussian(rng, size, size)
                block = block + 0.5 * (g - g.conj().T)
            a[lo:lo + size, lo:lo + size] = block
        lo += size
    return a


BLOCKS = dict(
    seed=st.integers(0, 2**32 - 1),
    sizes=st.lists(st.integers(1, 5), min_size=1, max_size=5),
    zero=st.lists(st.booleans(), min_size=5, max_size=5),
    hermitian=st.booleans(),
    psd=st.booleans(),
)


class TestDiagonalBlocks:
    def test_finest_split(self):
        a = np.zeros((7, 7), dtype=complex)
        a[0:2, 0:2] = 1.0
        a[3, 5] = 2.0  # links 3 and 5, so 3..5 is one block, 4 inside it
        a[6, 6] = 1.0
        assert diagonal_blocks(a) == (0, 2, 3, 6, 7)
        assert diagonal_blocks(a.T) == (0, 2, 3, 6, 7)

    def test_zero_and_diagonal_matrices_split_into_1x1_blocks(self):
        assert diagonal_blocks(np.zeros((4, 4))) == (0, 1, 2, 3, 4)
        assert diagonal_blocks(np.diag([1.0, 0.0, 3.0])) == (0, 1, 2, 3)

    def test_a_nonzero_corner_is_one_block(self):
        a = np.eye(5, dtype=complex)
        a[-1, 0] = 1e-300
        assert diagonal_blocks(a) == (0, 5)
        assert diagonal_blocks(a.T) == (0, 5)
        assert diagonal_blocks(np.ones((1, 1))) == (0, 1)

    def test_a_nonzero_corner_reads_nothing_else(self):
        # the corner decides at once: no comparison of the whole matrix
        class Corners(np.ndarray):
            def __ne__(self, other):
                raise AssertionError("scanned the whole matrix")

        a = np.ones((6, 6), dtype=complex).view(Corners)
        assert diagonal_blocks(a) == (0, 6)

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(**BLOCKS)
    def test_split_is_the_blocks_drawn_or_finer(self, seed, sizes, zero, hermitian, psd):
        a = block_diagonal(seed, sizes, zero, hermitian, psd)
        offsets = diagonal_blocks(a)
        drawn = np.cumsum([0] + sizes).tolist()
        assert set(drawn) <= set(offsets)
        for lo, hi in zip(offsets, offsets[1:]):
            assert not a[lo:hi, hi:].any() and not a[hi:, lo:hi].any()


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(**BLOCKS)
@example(seed=1, sizes=[4, 3], zero=[True] * 5, hermitian=True, psd=True)  # all zero
@example(seed=2, sizes=[5], zero=[False] * 5, hermitian=False, psd=False)  # one block
@example(seed=3, sizes=[1, 1, 1], zero=[False, True, False, False, False], hermitian=False,
         psd=True)  # 1 x 1 blocks only, one of them zero
@example(seed=4, sizes=[1, 3, 1, 2], zero=[False, False, True, False, False], hermitian=True,
         psd=False)
def test_block_readings_match_whole_matrix_numpy(seed, sizes, zero, hermitian, psd):
    # random block sizes (1 x 1 blocks among them), zero blocks, the
    # all-zero matrix and a single block, Hermitian or not: every reading
    # agrees with numpy's computation on the whole matrix
    a = block_diagonal(seed, sizes, zero, hermitian, psd)
    n = a.shape[0]
    h = 0.5 * (a + a.conj().T)
    vals = np.linalg.eigvalsh(h)
    top = max(abs(vals[0]), abs(vals[-1]))
    spec = Spectrum(a)
    assert close(spec.extremes.lambda_min, vals[0], top)
    assert close(spec.extremes.lambda_max, vals[-1], top)

    norm = np.linalg.norm(a, 2)
    assert close(opnorm(a), norm, norm)
    assert close(opnorm(a[:, 1:]), np.linalg.norm(a[:, 1:], 2), norm)

    pinv = np.linalg.pinv(h, rcond=tol.TOL_RANK, hermitian=True)
    scale = max(np.abs(pinv).max(), 1e-300)
    assert close(spec.pinv, pinv, scale)
    if np.abs(vals).min() > 0.1:
        assert close(spec.inverse, np.linalg.inv(h), scale)

    ev, vecs = spec.eigenpairs
    assert close(vecs.conj().T @ vecs, np.eye(n), 1.0)
    assert close(h @ vecs, vecs * ev, max(top, 1e-300))

    k = complex_gaussian(np.random.default_rng(seed), n, n)
    if vals[0] >= 0:  # PSD: whiten over the eigenvalues above the floor
        in_range = h @ k
        w = spec.whiten(in_range)
        ref = in_range.conj().T @ pinv @ in_range
        assert close(w.conj().T @ w, ref, max(np.abs(ref).max(), 1e-300))
        if any(zero[:len(sizes)]):
            assert spec.whiten(k) is None  # k reaches the zero blocks


class TestBlockOrder:
    """Eigenvalues are kept in block order, ascending only within a block:
    the readings that need the largest or least of them take it over all."""

    def test_pinv_cutoff_is_relative_to_the_largest_in_any_block(self):
        # blocks 5.5e-12, 6 and 5: the cutoff is TOL_RANK * 6 = 6e-12, so the
        # first is cut, though 5.5e-12 > TOL_RANK * 5 (the last's)
        h = np.diag([5.5e-12, 6.0, 5.0]).astype(complex)
        ref = np.linalg.pinv(h, rcond=tol.TOL_RANK, hermitian=True)
        assert ref[0, 0] == 0
        np.testing.assert_allclose(Spectrum(h).pinv, ref, rtol=1e-15, atol=0)

    def test_whiten_reads_the_least_kept_eigenvalue_in_any_block(self):
        # blocks 4, 1e-3 and 0: lambda_max / lambda_r is 4000, so a
        # component 7e-11 (relative) on the null vector is eigenvector
        # error, not reach, though it exceeds TOL_RANK * 4 / 4
        h = np.diag([4.0, 1e-3, 0.0]).astype(complex)
        k = np.array([[1.0], [1.0], [1e-10]], dtype=complex)
        w = Spectrum(h).whiten(k)
        np.testing.assert_allclose(w.ravel(), [0.5, 1.0 / np.sqrt(1e-3)], rtol=1e-15)
        assert Spectrum(h).whiten(np.array([[1.0], [1.0], [1e-8]], dtype=complex)) is None


def test_direct_sum_of_two_128_dim_partitions_decomposes_no_larger_matrix():
    # the sides it decomposes are a row of budgets.py; here, its bounds
    rng = np.random.default_rng(24)
    n = 128
    fam, k = partition(rng, n, 4), complex_gaussian(rng, n, n) / np.sqrt(n)
    cp = ControlPair.scalars(n, 0.75, 1.5)
    rep = direct_sum_frame(fam, cp, k, fam, cp, k)
    assert rep.all_hypotheses_pass and rep.verified
    assert rep.measured.lambda_min == pytest.approx(rep.predicted_lower, rel=1e-12)
    assert rep.measured.lambda_max == pytest.approx(rep.predicted_upper, rel=1e-12)


def test_direct_sum_whitens_and_inverts_block_by_block():
    # F of the direct sum is two dense 16 x 16 blocks: whiten's V* k and
    # F^+ take one product per block (budgets.py), none on the 32 x 32 whole
    rng = np.random.default_rng(27)
    n = 16
    fam, k = partition(rng, n, 4), complex_gaussian(rng, n, n)
    cp = ControlPair.scalars(n, 0.75, 1.5)
    spec = direct_sum_frame(fam, cp, k, fam, cp, k).family_out.spectrum
    assert diagonal_blocks(spec.a) == (0, n, 2 * n)
    vals, vecs = spec.eigenpairs
    x = complex_gaussian(rng, 2 * n, 3)
    w, pinv = spec.whiten(x), spec.pinv
    np.testing.assert_allclose(w, (vecs.conj().T @ x) / np.sqrt(vals)[:, None], rtol=1e-13)
    np.testing.assert_allclose(pinv, (vecs / vals) @ vecs.conj().T, rtol=1e-13, atol=1e-15)


def sum_pair(rng, n=6, items=3):
    famL = random_family(rng, n, items)
    return famL, new_operators(famL, rng)


class TestScalarSumOperator:
    def test_half_plus_half_runs_no_qr_and_no_orth(self, rng):
        # r = I keeps each subspace (its QR and orth counts: budgets.py)
        famL, famG = sum_pair(rng)
        half = np.eye(6) / 2
        for cp in (ControlPair.scalars(6, 0.5, 1.5), ControlPair(*[well_conditioned(rng, 6)] * 2)):
            rep = sum_transform(famL, famG, half, half, cp, np.eye(6))
            for (sub, _, _), (out, _, _) in zip(famL.items, rep.family_out.items):
                assert out is sub

    def test_dense_sum_keeps_one_qr_and_one_orth_per_item(self, rng):
        # each item's image r W_j (its QR and orth counts: budgets.py)
        famL, famG = sum_pair(rng)
        cp = ControlPair.scalars(6, 0.5, 1.5)
        v = well_conditioned(rng, 6)
        rep = sum_transform(famL, famG, v, np.eye(6) / 2, cp, np.eye(6))
        r = v + np.eye(6) / 2
        for (sub, _, _), (out, _, _) in zip(famL.items, rep.family_out.items):
            ref = linalg.projector(linalg.subspace_image(r, sub))
            np.testing.assert_allclose(linalg.projector(out), ref, atol=1e-13)


class TestNormFromSpectrum:
    def test_exactly_hermitian_s_takes_no_svd(self, rng):
        # ||S|| from the bounds' one eigvalsh (budgets.py): S = c F read from
        # the family's spectrum, and S = -2 F from its own
        fam = random_family(rng, 5, 3)
        for cp in (ControlPair.scalars(5, 0.5, 1.5), ControlPair.scalars(5, -1.0, 2.0)):
            ev = FrameEvaluation(fam, cp)
            assert not ev.skew.any()
            norm = ev.norm
            b = ev.bounds
            assert norm == max(abs(b.lambda_min), abs(b.lambda_max))
            assert norm == pytest.approx(np.linalg.norm(ev.s, 2), rel=1e-13)

    def test_non_hermitian_s_is_measured(self, rng):
        fam = random_family(rng, 5, 3)
        ev = FrameEvaluation(fam, ControlPair(well_conditioned(rng, 5), well_conditioned(rng, 5)))
        assert ev.skew.any() and ev.norm == opnorm(ev.s)


class TestScalarDirectSum:
    @pytest.mark.parametrize("h_sides, x_sides", SCALAR_SUMS)
    def test_sides_come_from_the_numbers(self, h_sides, x_sides):
        # with no scan or comparison of the sums (budgets.py)
        h, x = ControlPair.scalars(2, *h_sides), ControlPair.scalars(3, *x_sides)
        cp = ControlPair.direct_sum(h, x)
        dense = ControlPair(dsum_op(h.t, x.t), dsum_op(h.u, x.u))
        for side, ref in ((cp.t_side, dense.t_side), (cp.u_side, dense.u_side)):
            assert type(side) is type(ref)
            assert np.array_equal(side, ref)
        assert (cp.t_sigma is cp.u_sigma) == np.array_equal(dense.t, dense.u)
        assert cp.scale == dense.scale
        assert np.array_equal(cp.t, dense.t) and np.array_equal(cp.u, dense.u)

    @pytest.mark.parametrize("kinds", KIND_SUMS)
    def test_dense_sides_read_no_sum(self, rng, kinds):
        # any mix of dense and scalar pairs: the sum's t = u test and sides
        # come from the two pairs, with no scan or comparison of the sums
        # (budgets.py)
        h, x = control_pair(kinds[0], 2, rng), control_pair(kinds[1], 3, rng)
        cp = ControlPair.direct_sum(h, x)
        dense = ControlPair(dsum_op(h.t, x.t), dsum_op(h.u, x.u))
        for side, ref in ((cp.t_side, dense.t_side), (cp.u_side, dense.u_side)):
            assert type(side) is type(ref) and np.array_equal(side, ref)
        assert (cp.t_sigma is cp.u_sigma) == (dense.t_sigma is dense.u_sigma)
        assert (cp.u_side is cp.t_side) == (dense.u_side is dense.t_side)


def test_coercivity_needs_m_above_the_psd_floor():
    # S_pair = diag(1, m): coercive only for m above TOL_PSD * 1
    sub = Subspace.full(2)
    for m, coercive in ((1e-8, True), (1e-10, False), (1e-17, False), (0.0, False)):
        fam = FrameFamily(2, [(sub, np.diag([1.0, np.sqrt(m)]), 1.0)])
        rep = coercive_pair_check(pair_frame_operator(fam, np.eye(2), fam, np.eye(2)))
        claims = {c.name: c for c in rep.claims}
        assert claims["coercive"].threshold == tol.TOL_PSD
        assert claims["coercive"].holds == coercive
        assert (rep.predicted_lower is not None) == coercive
        assert rep.is_frame == coercive
