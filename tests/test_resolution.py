import numpy as np
import pytest

from gfusion.errors import (
    DimensionMismatch,
    HypothesisFailed,
    InvalidParameters,
    ItemCountMismatch,
    NotAFrame,
    NotBessel,
    NotPositive,
    ResolutionFailed,
)
from gfusion.frames import ControlPair, FrameEvaluation, FrameFamily, frame_operator
from gfusion.resolution import (
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

from conftest import (
    complex_gaussian,
    random_family,
    record_svd_inputs,
    scalar_controls,
    scaled_partition_family,
)


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

    def test_keeps_each_family_control_pair(self, rng, monkeypatch):
        # (t, t) and (u, u) are checked once, by pair_frame_operator; the
        # swapped operator reuses both pairs
        fam = random_family(rng, 4, 3, codomain=2)
        t = np.diag([1.0, 2.0, 3.0, 4.0]).astype(complex)
        u = np.eye(4) + 0.2 * complex_gaussian(rng, 4, 4)
        pair = pair_frame_operator(fam, t, fam, u)
        assert isinstance(pair.left_control, ControlPair)
        np.testing.assert_array_equal(pair.left_control.u, t)
        np.testing.assert_array_equal(pair.right_control.t, u)
        assert tuple(pair.left_control.t_sigma) == pytest.approx((1.0, 4.0), rel=1e-15)
        seen = record_svd_inputs(monkeypatch)
        sw = swapped(pair)
        assert seen == []
        assert sw.left_control is pair.right_control
        assert sw.right_control is pair.left_control


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
        from gfusion.linalg import Subspace, projector

        sub = Subspace(3, np.eye(3, 1, dtype=complex))
        fam = FrameFamily(3, [(sub, projector(sub), 1.0)])
        with pytest.raises(NotAFrame):
            canonical_resolutions(fam, ControlPair.identity(3))
        with pytest.raises(NotAFrame, match="not invertible at threshold"):
            FrameEvaluation(fam, ControlPair.identity(3)).inverse

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

    def test_noncommuting_controls_rejected(self, rng):
        fam = random_family(rng, 4, 3)
        d = np.diag([1.0, 1.0, 2.0, 2.0]).astype(complex)
        cp = ControlPair(d, d)
        s_inv = np.linalg.inv(frame_operator(fam, cp))
        comm = np.linalg.norm(s_inv @ d - d @ s_inv, 2)
        assert comm > 1e-6  # generic family: no accidental commutation
        with pytest.raises(HypothesisFailed):
            inverse_commutation_check(fam, cp)

    def test_not_a_frame(self):
        from gfusion.linalg import Subspace, projector

        sub = Subspace(3, np.eye(3, 1, dtype=complex))
        fam = FrameFamily(3, [(sub, projector(sub), 1.0)])
        with pytest.raises(NotAFrame):
            inverse_commutation_check(fam, ControlPair.identity(3))


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

    def test_resolution_failure_raises(self):
        fam = scaled_partition_family(4, (2.0, 1.5))
        with pytest.raises(ResolutionFailed):
            bessel_resolution_frame_check(fam, np.eye(4), np.eye(4))

    def test_random_frame_with_inverse_control(self, rng):
        fam = random_family(rng, 4, 3)
        s = frame_operator(fam, ControlPair.identity(4))
        rep = bessel_resolution_frame_check(fam, np.eye(4), np.linalg.inv(s))
        assert rep.resolution_residual <= 1e-8


class TestResolutionResidual:
    # an identity resolution off by 5e-8 in spectral norm at n = 64 exceeds
    # TOL_RESOLUTION = 1e-8; the residual is not rescaled by the dimension
    def test_perturbed_identity_not_converged(self, rng):
        n = 64
        terms = np.stack([np.eye(n, dtype=complex) / 4] * 4)
        e = complex_gaussian(rng, n, n)
        terms[2] += 5e-8 * e / np.linalg.norm(e, 2)
        rep = _resolution_report(terms)
        assert abs(rep.residual - 5e-8) <= 1e-12
        assert not rep.converged

    def test_bessel_resolution_rejects_perturbed_identity(self):
        fam = scaled_partition_family(64, (1.0, 1.0 + 5e-8))
        with pytest.raises(ResolutionFailed):
            bessel_resolution_frame_check(fam, np.eye(64), np.eye(64))


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

    def test_default_bessel_bound_is_right_family_optimal(self, monkeypatch):
        # m = sqrt(0.5 * 1) from the pair's Hermitian part; D defaults to the
        # right family's optimal Bessel bound 3 (not the left family's 2)
        from gfusion import resolution

        left = scaled_partition_family(4, (0.5, 2.0))
        right = scaled_partition_family(4, (1.0, 3.0))
        pair = pair_frame_operator(left, np.eye(4), right, np.eye(4))
        calls = []
        monkeypatch.setattr(resolution, "pair_frame_operator", lambda *a: calls.append(a))
        rep = coercive_pair_check(pair)
        assert calls == []  # the swapped operator is not rebuilt
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

    def test_non_coercive_raises(self):
        from gfusion.linalg import Subspace, projector

        sub = Subspace(3, np.eye(3, 1, dtype=complex))
        fam = FrameFamily(3, [(sub, projector(sub), 1.0)])
        pair = pair_frame_operator(fam, np.eye(3), fam, np.eye(3))
        with pytest.raises(NotPositive):
            coercive_pair_check(pair, 1.0)


class TestPerturbation:
    def make_near_identity_pair(self, eps=0.02, dim=4):
        fam = scaled_partition_family(dim, tuple([1.0] * dim))
        rng = np.random.default_rng(3)
        e = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        e /= np.linalg.norm(e, 2)
        u = np.eye(dim) + eps * e
        return pair_frame_operator(fam, np.eye(dim), fam, u)

    def test_exact_identity_zero_lambdas(self):
        fam = scaled_partition_family(4, (1.0, 1.0))
        pair = pair_frame_operator(fam, np.eye(4), fam, np.eye(4))
        rep = perturbation_check(pair, 0.0, 0.0, 1.0, 1.0)
        assert rep.hyp_certified
        assert rep.worst_sample_slack >= -1e-12
        assert rep.lower_lambda is not None
        assert rep.lower_lambda >= rep.lower_lambda_predicted - 1e-9

    def test_near_identity_certified(self):
        pair = self.make_near_identity_pair()
        rep = perturbation_check(pair, 0.05, 0.0, 2.0, 2.0)
        assert rep.hyp_certified
        assert rep.lower_gamma >= rep.lower_gamma_predicted - 1e-9

    def test_two_parameter_path(self):
        pair = self.make_near_identity_pair()
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
        pair = self.make_near_identity_pair()
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
        pair = self.make_near_identity_pair()
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
