from dataclasses import replace
from unittest import mock

import numpy as np
import pytest

from gfusion import resolution, serialize, tolerances
from gfusion.errors import (
    DimensionMismatch,
    HypothesisFailed,
    InvalidParameters,
    ItemCountMismatch,
    NotAFrame,
)
from gfusion.frames import (
    ControlPair,
    FrameEvaluation,
    FrameFamily,
    cross_terms,
    frame_operator,
    item_cross_operator,
)
from gfusion.linalg import Subspace, commutator_residual, opnorm, projector
from gfusion.resolution import (
    NO_TERMS,
    CanonicalResolutions,
    ResolutionReport,
    _resolution_report,
    bessel_resolution_frame_check,
    canonical_resolutions,
    coercive_pair_check,
    inverse_commutation_check,
    pair_frame_operator,
    perturbation_check,
    swapped,
)

import report_diff
from conftest import (
    complex_gaussian,
    near_identity_pair,
    random_family,
    random_subspace,
    scalar_controls,
    scaled_parseval,
    scaled_partition_family,
    well_conditioned,
)


def rank_one_family():
    """One item, the projector onto e_1 of C^3: Bessel, not a frame."""
    sub = Subspace(3, np.eye(3, 1, dtype=complex))
    return FrameFamily(3, [(sub, projector(sub), 1.0)])


class TestPairOperator:
    def test_same_family_matches_frame_operator(self, rng):
        fam = random_family(rng, 4, 3, codomain=3)
        cp = scalar_controls(rng, 4)
        pair = pair_frame_operator(fam, cp.t, fam, cp.u)
        np.testing.assert_allclose(
            pair.matrix, frame_operator(fam, cp), atol=1e-10
        )

    def test_adjoint_is_swapped(self, rng):
        famL = random_family(rng, 4, 3, codomain=2)
        famG = random_family(rng, 4, 3, codomain=2)
        t = np.diag([1.0, 2.0, 3.0, 4.0]).astype(complex)
        u = np.diag([2.0, 2.0, 1.0, 1.0]).astype(complex)
        pair = pair_frame_operator(famL, t, famG, u)
        sw = swapped(pair)
        np.testing.assert_allclose(pair.matrix.conj().T, sw.matrix, atol=1e-10)

    def test_codomain_mismatch(self, rng):
        famL = random_family(rng, 4, 2, codomain=2)
        famG = random_family(rng, 4, 2, codomain=3)
        from gfusion.errors import CodomainMismatch

        with pytest.raises(CodomainMismatch):
            pair_frame_operator(famL, np.eye(4), famG, np.eye(4))

    def test_item_count_mismatch(self, rng):
        famL = random_family(rng, 4, 2, codomain=2)
        famG = random_family(rng, 4, 3, codomain=2)
        with pytest.raises(ItemCountMismatch):
            pair_frame_operator(famL, np.eye(4), famG, np.eye(4))

    def test_ambient_dim_mismatch(self):
        famL = scaled_partition_family(4, (1.0, 2.0))
        famG = scaled_partition_family(6, (1.0, 2.0))
        with pytest.raises(DimensionMismatch, match="different ambient spaces"):
            pair_frame_operator(famL, np.eye(4), famG, np.eye(4))

    def test_keeps_each_family_control_pair(self, rng):
        # (t, t) and (u, u) are checked once, by pair_frame_operator; the
        # swapped operator reuses both pairs, with no SVD (budgets.py)
        fam = random_family(rng, 4, 3, codomain=2)
        t = np.diag([1.0, 2.0, 3.0, 4.0]).astype(complex)
        u = np.eye(4) + 0.2 * complex_gaussian(rng, 4, 4)
        pair = pair_frame_operator(fam, t, fam, u)
        assert isinstance(pair.left_control, ControlPair)
        np.testing.assert_array_equal(pair.left_control.u, t)
        np.testing.assert_array_equal(pair.right_control.t, u)
        assert tuple(pair.left_control.t_sigma) == pytest.approx((1.0, 4.0), rel=1e-15)
        sw = swapped(pair)
        assert sw.left_control is pair.right_control
        assert sw.right_control is pair.left_control


def mixed_dft_partition():
    """report_diff.py's `mixed` frame on C^6: a DFT partition under (2 I, D)."""
    fam, _, cp = report_diff.mixed(6)
    return serialize.family_from_dict(fam), serialize.control_pair_from_dict(cp)


def dense_draw():
    """A frame on C^5 with a full item, a zero subspace and two rank-one
    items, under dense t and u = (t* F)^-1 (H + 1e-9 N), H positive and N
    a draw: S = t* F u is Hermitian only to about 1e-9 (within TOL_FACTOR),
    so S^-1 and S^-* differ far above the terms' rounding."""
    rng = np.random.default_rng(3838)
    n = 5
    fam = FrameFamily(n, [
        (Subspace.full(n), complex_gaussian(rng, n, n), 1.2),
        (Subspace.zero(n), complex_gaussian(rng, 3, n), 0.7),
        (random_subspace(rng, n, 1), complex_gaussian(rng, 1, n), 1.5),
        (random_subspace(rng, n, 1), complex_gaussian(rng, 2, n), 0.9),
    ])
    t, h = well_conditioned(rng, n), well_conditioned(rng, n)
    s = h @ h.conj().T + 1e-9 * complex_gaussian(rng, n, n)
    return fam, ControlPair(t, np.linalg.solve(t.conj().T @ fam.operator, s))


@pytest.mark.parametrize("make", [mixed_dft_partition, dense_draw], ids=["mixed DFT", "dense"])
def test_terms_are_weighted_cross_operators_times_the_inverse(make):
    """Each right term is v_j^2 G_j S^-1 and each left term v_j^2 S^-1 G_j,
    G_j the item's cross operator, to 1e-13 of the term's norm, under a
    pair that is not self-adjoint."""
    fam, cp = make()
    ev = FrameEvaluation(fam, cp)
    assert ev.scale is None and cp.u_side is not cp.t_side and ev.is_frame
    s_inv = ev.inverse
    right, left, rep_r, rep_l = canonical_resolutions(fam, cp)
    assert rep_r.converged and rep_l.converged
    for (sub, lam, w), r_term, l_term in zip(fam.items, right, left, strict=True):
        g = item_cross_operator(sub, lam, cp)
        for got, want in ((r_term, w * w * g @ s_inv), (l_term, w * w * s_inv @ g)):
            assert np.linalg.norm(got - want, 2) <= 1e-13 * np.linalg.norm(want, 2)


class TestCanonicalResolutions:
    def test_partition_family_exact(self):
        fam = scaled_partition_family(6, (2.0, 5.0))
        right, left, rep_r, rep_l = canonical_resolutions(fam, ControlPair.identity(6))
        assert rep_r.converged and rep_l.converged
        assert rep_r.residual <= 1e-12 and rep_l.residual <= 1e-12
        total = sum(right)
        np.testing.assert_allclose(total, np.eye(6), atol=1e-12)

    def test_random_frame_converges(self, rng):
        fam = random_family(rng, 5, 3)
        cp = scalar_controls(rng, 5)
        res = canonical_resolutions(fam, cp)
        right, left, rep_r, rep_l = res
        assert rep_r.converged and rep_l.converged and res.converged
        assert rep_r.term_count == len(fam)
        assert res.right_multiplied is rep_r and res.terms_left is left

    def test_verdict_needs_both(self):
        ok, bad = ResolutionReport(0.0, 1, True), ResolutionReport(1.0, 1, False)
        assert CanonicalResolutions([], [], ok, ok).converged
        assert not CanonicalResolutions([], [], ok, bad).converged
        assert not CanonicalResolutions([], [], bad, ok).converged

    def test_terms_conjugate_of_each_other(self, rng):
        # S^{-1} G_j and G_j S^{-1} are similar via S
        fam = random_family(rng, 4, 2)
        cp = scalar_controls(rng, 4)
        s = frame_operator(fam, cp)
        right, left, _, _ = canonical_resolutions(fam, cp)
        for r_term, l_term in zip(right, left):
            np.testing.assert_allclose(
                np.linalg.inv(s) @ r_term @ s, l_term, atol=1e-8
            )

    def test_not_a_frame_raises(self):
        # S^-1 raises; the resolutions report that there are no terms
        fam = rank_one_family()
        with pytest.raises(NotAFrame, match="not invertible at threshold"):
            FrameEvaluation(fam, ControlPair.identity(3)).inverse
        res = canonical_resolutions(fam, ControlPair.identity(3))
        assert res == ([], [], NO_TERMS, NO_TERMS)
        assert NO_TERMS == ResolutionReport(None, 0, False)
        assert not res.converged

    def test_inverse_of_a_frame(self):
        ev = FrameEvaluation(scaled_partition_family(4, (2.0, 5.0)), ControlPair.identity(4))
        np.testing.assert_allclose(ev.inverse, np.diag([0.5, 0.2, 0.5, 0.2]), atol=1e-15)
        assert ev.inverse is ev.inverse


class TestInverseCommutation:
    def test_partition_sandwich(self):
        # diagonal frame operator with blocks (2, 4): modified extremes are
        # (1/4, 1/2), inside [A/B^2, B/A^2] = [2/16, 4/4]
        fam = scaled_partition_family(4, (2.0, 4.0))
        rep = inverse_commutation_check(fam, ControlPair.identity(4))
        assert rep.certified
        assert abs(rep.lower - 0.25) < 1e-9
        assert abs(rep.upper - 0.5) < 1e-9
        assert abs(rep.predicted_lower - 2.0 / 16.0) < 1e-12
        assert abs(rep.predicted_upper - 4.0 / 4.0) < 1e-12

    def test_scalar_controls_certified(self, rng):
        fam = random_family(rng, 5, 3)
        cp = scalar_controls(rng, 5)
        rep = inverse_commutation_check(fam, cp)
        assert rep.resolution.converged
        assert rep.certified
        assert rep.predicted_lower - 1e-9 <= rep.lower
        assert rep.upper <= rep.predicted_upper + 1e-9

    def test_each_norm_measured_once(self, rng):
        # operator controls: ||S^-1|| once for both commutators; ||t||, ||u||
        # from the pair (budgets.py)
        fam = random_family(rng, 5, 3)
        t = well_conditioned(rng, 5)
        cp = ControlPair(t, t)
        s_inv = FrameEvaluation(fam, cp).inverse
        rep = inverse_commutation_check(fam, cp)
        norm_s_inv, norm_t = opnorm(s_inv), cp.t_sigma.sigma_max  # t = u
        assert rep.commutation_residual == commutator_residual(s_inv, cp.t, norm_s_inv, norm_t)

    def test_scalar_controls_take_no_norm_of_the_inverse(self, rng):
        # c I commutes with S^-1, so ||S^-1|| is never read (budgets.py)
        fam = random_family(rng, 5, 3)
        cp = scalar_controls(rng, 5)
        rep = inverse_commutation_check(fam, cp)
        assert rep.commutation_residual == 0.0 and rep.certified

    def test_noncommuting_controls_rejected(self, rng):
        # not certified, and every field is measured
        fam = random_family(rng, 4, 3)
        d = np.diag([1.0, 1.0, 2.0, 2.0]).astype(complex)
        cp = ControlPair(d, d)
        ev = FrameEvaluation(fam, cp)
        s_inv = ev.inverse
        comm = commutator_residual(s_inv, d)
        assert comm > 1e-6  # generic family: no accidental commutation
        rep = inverse_commutation_check(fam, cp)
        assert not rep.certified
        assert rep.commutation_residual == comm
        a, b = ev.bounds.lambda_min, ev.bounds.lambda_max
        assert rep.predicted_lower == a / b**2 and rep.predicted_upper == b / a**2
        # the literal sum of the per-item terms under (S^-1 d, S^-1 d)
        terms = cross_terms(s_inv @ d, fam.factors, fam.factors, s_inv @ d)
        m = np.tensordot([w * w for w in fam.weights], terms, axes=1)
        ext = np.linalg.eigvalsh(0.5 * (m + m.conj().T))
        assert rep.lower == pytest.approx(ext[0], rel=1e-12)
        assert rep.upper == pytest.approx(ext[-1], rel=1e-12)
        assert rep.resolution.term_count == 3 and rep.resolution_residual >= 0

    def test_not_a_frame(self):
        # no S^-1 and no lower bound A > 0: nothing of the sandwich
        rep = inverse_commutation_check(rank_one_family(), ControlPair.identity(3))
        assert not rep.certified
        assert rep.resolution is NO_TERMS
        assert (rep.lower, rep.upper, rep.predicted_lower, rep.predicted_upper) == (None,) * 4
        assert rep.commutation_residual is None and rep.resolution_residual is None


class TestBesselResolution:
    def test_engineered_resolution(self):
        # S under (I, I) has blocks (2, 1.5); with t = I, u = S^{-1} the mixed
        # terms sum exactly to the identity, B = 2, so lower >= 0.5
        fam = scaled_partition_family(4, (2.0, 1.5))
        s = frame_operator(fam, ControlPair.identity(4))
        u = np.linalg.inv(s)
        rep = bessel_resolution_frame_check(fam, np.eye(4), u)
        assert rep.resolution_residual <= 1e-10
        assert rep.is_frame
        assert abs(rep.predicted_lower - 0.5) < 1e-12
        assert rep.lower >= rep.predicted_lower - 1e-9
        assert rep.upper <= rep.predicted_upper + 1e-9

    def test_resolution_failure_is_not_a_frame(self):
        # the terms sum to S = diag(2, 1.5, 2, 1.5): residual 1; the family
        # is a frame, but not because of the theorem
        fam = scaled_partition_family(4, (2.0, 1.5))
        rep = bessel_resolution_frame_check(fam, np.eye(4), np.eye(4))
        assert not rep.is_frame
        assert rep.resolution_residual == pytest.approx(1.0, rel=1e-12)
        assert (rep.lower, rep.upper) == pytest.approx((1.5, 2.0), rel=1e-12)
        assert (rep.predicted_lower, rep.predicted_upper) == pytest.approx((0.5, 2.0), rel=1e-12)

    def test_zero_operators_not_a_frame(self):
        # B = 0: the predicted lower bound 1/B is inf, and no verdict holds
        fam = FrameFamily(2, [(Subspace.full(2), np.zeros((2, 2)), 1.0)])
        rep = bessel_resolution_frame_check(fam, np.eye(2), np.eye(2))
        assert not rep.is_frame
        assert rep.resolution_residual == 1.0 and rep.predicted_lower == np.inf
        assert (rep.lower, rep.upper, rep.predicted_upper) == (0.0, 0.0, 0.0)

    def test_random_frame_with_inverse_control(self, rng):
        fam = random_family(rng, 4, 3)
        s = frame_operator(fam, ControlPair.identity(4))
        rep = bessel_resolution_frame_check(fam, np.eye(4), np.linalg.inv(s))
        assert rep.resolution_residual <= 1e-8


class TestResolutionResidual:
    # an identity resolution off by 5e-8 in spectral norm at n = 64 exceeds
    # TOL_FACTOR = 1e-8; the residual is not rescaled by the dimension
    def test_perturbed_identity_not_converged(self, rng):
        n = 64
        terms = np.stack([np.eye(n, dtype=complex) / 4] * 4)
        e = complex_gaussian(rng, n, n)
        terms[2] += 5e-8 * e / np.linalg.norm(e, 2)
        rep = _resolution_report(terms.sum(axis=0), len(terms))
        assert abs(rep.residual - 5e-8) <= 1e-12
        assert not rep.converged

    def test_bessel_resolution_rejects_perturbed_identity(self):
        fam = scaled_partition_family(64, (1.0, 1.0 + 5e-8))
        rep = bessel_resolution_frame_check(fam, np.eye(64), np.eye(64))
        assert not rep.is_frame
        assert rep.resolution_residual == pytest.approx(5e-8, rel=1e-6)
        assert rep.lower == pytest.approx(1.0, rel=1e-12)
        assert rep.upper == pytest.approx(1.0 + 5e-8, rel=1e-12)


class TestAtTolFactor:
    """Identity residuals decided at TOL_FACTOR's documented value, 1e-8: a
    residual three times it fails its claim and one a third of it passes."""

    @pytest.mark.parametrize("delta, holds", [(3e-8, False), (3e-9, True)])
    def test_resolves_identity(self, delta, holds):
        # blocks scaled (1, 1 + delta): the terms sum to I off by delta
        fam = scaled_partition_family(64, (1.0, 1.0 + delta))
        rep = bessel_resolution_frame_check(fam, np.eye(64), np.eye(64))
        resolves = {c.name: c for c in rep.claims}["resolves_identity"]
        assert resolves.value == pytest.approx(delta, rel=1e-6)
        assert (resolves.holds, rep.is_frame) == (holds, holds)
        with tolerances.override(tol_factor=1e-7):
            rep = bessel_resolution_frame_check(fam, np.eye(64), np.eye(64))
        assert {c.name: c.holds for c in rep.claims}["resolves_identity"] and rep.is_frame

    @pytest.mark.parametrize("move, holds", [(3.0, False), (1 / 3, True)],
                             ids=["three-times", "a-third"])
    def test_adjoint(self, move, holds):
        # No valid input moves this residual off rounding level: under
        # controls of condition 1e2 to 1e11 at dims 6 and 16 it stayed at or
        # below 1.0e-15.  So a test double moves the swapped pair operator by
        # move * 1e-8 * ||S|| in one entry.
        fam = scaled_partition_family(4, (0.5, 2.0))
        pair = pair_frame_operator(fam, np.eye(4), fam, np.eye(4))
        shift = np.zeros((4, 4))
        shift[0, 0] = move * 1e-8 * opnorm(pair.matrix)

        def moved(p):
            sw = swapped(p)
            return replace(sw, matrix=sw.matrix + shift)

        with mock.patch.object(resolution, "swapped", moved):
            rep = resolution.adjoint_check(pair)
        (adjoint,) = rep.claims
        assert adjoint.name == "adjoint"
        assert adjoint.value == pytest.approx(move * 1e-8, rel=1e-6)
        assert (adjoint.holds, rep.is_adjoint) == (holds, holds)


class TestCoercivity:
    def test_diagonal_prediction(self):
        # diagonal S with blocks (0.5, 2): m = 0.5, Bessel bound D = 2,
        # predicted lower 0.125 <= measured 0.5
        fam = scaled_partition_family(4, (0.5, 2.0))
        pair = pair_frame_operator(fam, np.eye(4), fam, np.eye(4))
        rep = coercive_pair_check(pair, gamma_bessel_bound=2.0)
        assert abs(rep.m - 0.5) < 1e-9
        assert abs(rep.predicted_lower - 0.125) < 1e-9
        assert rep.is_frame
        assert rep.measured_lower >= rep.predicted_lower

    def test_default_bessel_bound_is_right_family_optimal(self):
        # m = sqrt(0.5 * 1) from the pair's Hermitian part; D defaults to the
        # right family's optimal Bessel bound 3 (not the left family's 2),
        # with no pair operator rebuilt (budgets.py)
        left = scaled_partition_family(4, (0.5, 2.0))
        right = scaled_partition_family(4, (1.0, 3.0))
        pair = pair_frame_operator(left, np.eye(4), right, np.eye(4))
        rep = coercive_pair_check(pair)
        assert rep.gamma_bessel_bound == pytest.approx(3.0, rel=1e-12)
        assert rep.m == pytest.approx(np.sqrt(0.5), rel=1e-12)
        assert rep.predicted_lower == pytest.approx(0.5 / 3.0, rel=1e-12)
        assert coercive_pair_check(pair, rep.gamma_bessel_bound) == rep

    @pytest.mark.parametrize("bound", [0.0, -2.0, float("nan"), float("inf")])
    def test_invalid_explicit_bessel_bound(self, bound):
        # D is a divisor: it is checked before the pair is measured
        fam = scaled_partition_family(4, (0.5, 2.0))
        pair = pair_frame_operator(fam, np.eye(4), fam, np.eye(4))
        with pytest.raises(InvalidParameters, match="gamma_bessel_bound"):
            coercive_pair_check(pair, bound)

    def test_non_coercive_is_not_a_frame(self):
        # S_pair = diag(1, 0, 0): m = 0, so nothing is predicted
        fam = rank_one_family()
        pair = pair_frame_operator(fam, np.eye(3), fam, np.eye(3))
        rep = coercive_pair_check(pair, 2.0)
        assert not rep.is_frame
        assert rep.predicted_lower is None
        assert rep.m == pytest.approx(0.0, abs=1e-15)
        assert rep.measured_lower == pytest.approx(0.0, abs=1e-15)
        assert rep.gamma_bessel_bound == 2.0
        assert coercive_pair_check(pair).gamma_bessel_bound == pytest.approx(1.0, rel=1e-12)


class TestPerturbation:
    def test_exact_identity_zero_lambdas(self):
        fam = scaled_partition_family(4, (1.0, 1.0))
        pair = pair_frame_operator(fam, np.eye(4), fam, np.eye(4))
        rep = perturbation_check(pair, 0.0, 0.0, 1.0, 1.0)
        assert rep.hyp_certified
        assert rep.worst_sample_slack >= -1e-12
        assert rep.lower_lambda is not None
        assert rep.lower_lambda >= rep.lower_lambda_predicted - 1e-9

    def test_near_identity_certified(self):
        pair = near_identity_pair(4)
        rep = perturbation_check(pair, 0.05, 0.0, 2.0, 2.0)
        assert rep.hyp_certified
        assert rep.lower_gamma >= rep.lower_gamma_predicted - 1e-9

    def test_two_parameter_path(self):
        pair = near_identity_pair(4)
        rep = perturbation_check(pair, 0.01, 0.05, 2.0, 2.0)
        assert rep.hyp_certified
        assert rep.lower_lambda is None

    def test_sampled_violation_raises(self):
        # S far from the identity with tiny lambdas must trip the sampler
        fam = scaled_partition_family(4, (5.0, 5.0))
        pair = pair_frame_operator(fam, np.eye(4), fam, np.eye(4))
        with pytest.raises(HypothesisFailed):
            perturbation_check(pair, 0.01, 0.0, 1.0, 1.0)

    def test_invalid_lambda1(self):
        pair = near_identity_pair(4)
        with pytest.raises(InvalidParameters):
            perturbation_check(pair, 1.5, 0.0, 1.0, 1.0)
        # checked before sampling: every sampled slack -0.5 - ||f - S f|| is
        # negative, and would report a violated inequality instead
        with pytest.raises(InvalidParameters, match=r"lambda1 in \[0, 1\)"):
            perturbation_check(pair, -0.5, 0.0, 1.0, 1.0)

    @pytest.mark.parametrize("name", ["d1", "d2"])
    @pytest.mark.parametrize("bound", [0.0, -1.0, float("nan"), float("inf")])
    def test_invalid_bessel_bounds(self, name, bound):
        # checked before sampling: S = 5 I would fail the sampled inequality
        fam = scaled_partition_family(4, (5.0, 5.0))
        pair = pair_frame_operator(fam, np.eye(4), fam, np.eye(4))
        with pytest.raises(InvalidParameters, match=f"{name} must be finite and > 0"):
            perturbation_check(pair, 0.1, 0.0, **{"d1": 1.0, "d2": 1.0, name: bound})

    def test_invalid_lambda2(self):
        pair = near_identity_pair(4)
        with pytest.raises(InvalidParameters):
            perturbation_check(pair, 0.0, -1.5, 1.0, 1.0)

    def test_not_bessel_raises(self):
        # a family whose frame operator fails Hermitian closure under (t, t)
        # cannot happen with a single control; use non-Bessel detection via
        # bessel_resolution_frame_check on a family with wildly mismatched
        # controls instead
        fam = scaled_partition_family(4, (1.0, 1.0))
        t = np.eye(4)
        rep = bessel_resolution_frame_check(fam, t, np.eye(4))
        assert rep.is_frame


def test_thm44_prediction_past_an_overflowing_square():
    # m = D = 1e160 (Lambda_j = 1e80 P_j): m^2 overflows, m^2 / D = m
    fam = scaled_parseval(1e80)
    rep = coercive_pair_check(pair_frame_operator(fam, np.eye(4), fam, np.eye(4)))
    assert rep.predicted_lower == rep.measured_lower
    assert rep.is_frame


@pytest.mark.parametrize("scale", [1e80, 1e-80])
def test_thm41_predictions_past_a_square_out_of_range(scale):
    # A = B = scale^2: B^2 overflows at 1e80 and is subnormal at 1e-80, while
    # A / B^2 = B / A^2 = scale^-2, the measured extremes
    rep = inverse_commutation_check(scaled_parseval(scale), ControlPair.identity(4))
    assert rep.predicted_lower == pytest.approx(rep.lower, rel=1e-15, abs=0)
    assert rep.predicted_upper == pytest.approx(rep.upper, rel=1e-15, abs=0)
    assert rep.certified
