from unittest import mock

import numpy as np
import pytest

from gfusion import constructions, tolerances
from gfusion.constructions import (
    conjugate_transform,
    direct_sum_frame,
    sum_transform,
)
from gfusion.errors import (
    DimensionMismatch,
    InvalidParameters,
    ItemCountMismatch,
    NotInvertible,
    WeightMismatch,
)
from gfusion.frames import ControlPair, FrameEvaluation, FrameFamily, frame_operator
from gfusion.linalg import (
    Subspace,
    commutator_residual,
    dsum_op,
    opnorm,
    projector,
    singular_extremes,
)

from conftest import (
    complex_gaussian,
    new_operators,
    random_family,
    scaled_partition_family,
    well_conditioned,
)


def assert_singular(rep, name):
    """The verdict on a singular operator that a construction's predictions
    divide by: its claim `name` fails at COND_MAX with value inf, nothing
    is predicted, and the certificates list no invertibility."""
    claims = {c.name: c for c in rep.claims}
    assert claims[name].value == np.inf and not claims[name].holds
    assert not rep.all_hypotheses_pass and not rep.verified
    assert rep.predicted_lower is None and rep.predicted_upper is None
    assert "measured_lower_bound" not in claims
    assert not any(cert.name.endswith("_invertible") for cert in rep.hypothesis_certificates)


def orthogonal_codomain_pair(dim=4, items=3, seed=7):
    """Two families on shared full-space subspaces whose operators land in
    orthogonal coordinate blocks of C^4, so every cross term vanishes."""
    rng = np.random.default_rng(seed)
    e12 = np.zeros((4, dim))
    e34 = np.zeros((4, dim))
    itemsL, itemsG = [], []
    sub = Subspace.full(dim)
    for _ in range(items):
        a = np.zeros((4, dim), dtype=complex)
        a[:2] = complex_gaussian(rng, 2, dim)
        b = np.zeros((4, dim), dtype=complex)
        b[2:] = complex_gaussian(rng, 2, dim)
        itemsL.append((sub, a, 1.0))
        itemsG.append((sub, b, 1.0))
    return FrameFamily(dim, itemsL), FrameFamily(dim, itemsG)


class TestSumTransform:
    def test_orthogonal_codomains_pass_and_bracket(self):
        famL, famG = orthogonal_codomain_pair()
        cp = ControlPair.scalars(4, 0.7, 1.3)
        v = 0.5 * np.eye(4)
        w = 1.5 * np.eye(4)
        rep = sum_transform(famL, famG, v, w, cp, np.eye(4))
        assert rep.all_hypotheses_pass
        assert rep.predicted_lower <= rep.measured.lambda_min + 1e-9
        assert rep.measured.lambda_max <= rep.predicted_upper + 1e-9

    def test_output_operator_is_conjugated_sum(self):
        # with zero cross terms S_out == r (S_L + S_G) r* for scalar r
        famL, famG = orthogonal_codomain_pair()
        cp = ControlPair.identity(4)
        v = 0.5 * np.eye(4)
        w = np.eye(4)
        rep = sum_transform(famL, famG, v, w, cp, np.eye(4))
        r = v + w
        expected = r @ (frame_operator(famL, cp) + frame_operator(famG, cp)) @ r.conj().T
        s_out = frame_operator(rep.family_out, cp)
        assert np.linalg.norm(s_out - expected, 2) <= 1e-9 * np.linalg.norm(expected, 2)

    def test_cross_terms_flagged(self, rng):
        # identical families have maximal cross terms; certificates must fail
        famL = random_family(rng, 4, 2)
        rep = sum_transform(
            famL, famL, 0.5 * np.eye(4), np.eye(4), ControlPair.identity(4), np.eye(4)
        )
        assert not rep.all_hypotheses_pass
        residuals = dict(rep.hypothesis_certificates)
        assert residuals["cross_terms_gamma_lambda"] > 1e-8

    def test_scalar_controls_take_one_qr_per_item(self, rng):
        # under t = a I and u = b I the cross-term factors are conj(a) r B_j
        # and conj(b) r B_j: both R factors are read off the QR of r B_j
        # (budgets.py), and the certificates are those of the dense forms
        famL = random_family(rng, 5, 3)
        famG = new_operators(famL, rng)
        a, b = 0.7, 1.3j
        r = well_conditioned(rng, 5)
        cp = ControlPair.scalars(5, a, b)
        rep = sum_transform(famL, famG, r, np.zeros((5, 5)), cp, np.eye(5))
        t, u = a * np.eye(5), b * np.eye(5)
        cross = {"cross_terms_gamma_lambda": 0.0, "cross_terms_lambda_gamma": 0.0}
        for (sub, lamL, _), (_, lamG, _) in zip(famL.items, famG.items):
            p = projector(sub)
            aL, aG = lamL @ p @ r.conj().T, lamG @ p @ r.conj().T
            scale = np.linalg.norm(aL, 2) * np.linalg.norm(aG, 2) * abs(a) * abs(b)
            for name, x, y in (("cross_terms_gamma_lambda", aL, aG),
                               ("cross_terms_lambda_gamma", aG, aL)):
                value = np.linalg.norm((x @ t).conj().T @ (y @ u), 2) / scale
                cross[name] = max(cross[name], value)
        residuals = dict(rep.hypothesis_certificates)
        for name, value in cross.items():
            assert residuals[name] == pytest.approx(value, rel=1e-10)

    def test_noncommuting_k_flagged(self):
        famL, famG = orthogonal_codomain_pair()
        k = np.diag([1.0, 2.0, 3.0, 4.0]).astype(complex)
        v = np.zeros((4, 4), dtype=complex)
        v[0, 1] = v[1, 0] = v[2, 3] = v[3, 2] = 1.0
        v += 2 * np.eye(4)
        rep = sum_transform(famL, famG, v, np.eye(4), ControlPair.identity(4), k)
        residuals = dict(rep.hypothesis_certificates)
        assert residuals["k_commutes_with_sum"] > 1e-8
        assert not rep.all_hypotheses_pass

    def test_singular_sum_rejected(self):
        # v + w = 0: a failed invertibility claim, no prediction, every
        # certificate still measured
        famL, famG = orthogonal_codomain_pair()
        rep = sum_transform(
            famL, famG, np.eye(4), -np.eye(4), ControlPair.identity(4), np.eye(4)
        )
        assert_singular(rep, "sum_invertible")
        assert [name for name, _ in rep.hypothesis_certificates] == [
            "k_commutes_with_sum", "sum_adjoint_commutes_with_t", "sum_adjoint_commutes_with_u",
            "cross_terms_gamma_lambda", "cross_terms_lambda_gamma", "lambda_family_bessel",
            "gamma_family_bessel",
        ]

    @pytest.mark.parametrize("v_shape, w_shape", [((3, 3), (4, 4)), ((4, 4), (1, 1))])
    def test_wrong_size_summand_rejected(self, v_shape, w_shape):
        famL, famG = orthogonal_codomain_pair()
        with pytest.raises(DimensionMismatch):
            sum_transform(famL, famG, np.eye(*v_shape), np.eye(*w_shape),
                          ControlPair.identity(4), np.eye(4))

    def test_item_count_mismatch(self, rng):
        famL, famG = orthogonal_codomain_pair()
        short = FrameFamily(4, list(famG.items[:2]))
        with pytest.raises(ItemCountMismatch):
            sum_transform(
                famL, short, np.eye(4), np.eye(4), ControlPair.identity(4), np.eye(4)
            )

    @pytest.mark.parametrize("dense_controls, norms", [(False, 3), (True, 4)])
    def test_norms_per_item(self, rng, dense_controls, norms):
        # under scalar controls rx and ry are multiples of one R_z, so
        # ||rx m* ry*|| = ||rx m ry*||: three norms per item (budgets.py),
        # the cross norm read once for both cross certificates, for a scalar
        # and a dense r alike; dense controls keep the fourth, which equals
        # it in exact arithmetic
        famL, _ = orthogonal_codomain_pair(items=5)
        famG = FrameFamily(4, [(sub, complex_gaussian(rng, 4, 4), w) for sub, _, w in famL.items])
        c = well_conditioned(rng, 4)
        cp = ControlPair(c, c.copy()) if dense_controls else ControlPair.scalars(4, 0.7, 1.3)
        for v in (0.5 * np.eye(4), well_conditioned(rng, 4)):
            rep = sum_transform(famL, famG, v, 2.0 * np.eye(4), cp, complex_gaussian(rng, 4, 4))
            certs = dict(rep.hypothesis_certificates)
            cross = certs["cross_terms_lambda_gamma"], certs["cross_terms_gamma_lambda"]
            assert min(cross) > 0
            assert cross[0] == (cross[1] if norms == 3 else pytest.approx(cross[1], rel=1e-12))

    def test_ambient_dim_mismatch(self):
        # equal item counts on C^4 and C^6: a shape error, not a count error
        famL = scaled_partition_family(4, (1.0, 2.0))
        famG = scaled_partition_family(6, (1.0, 2.0))
        with pytest.raises(DimensionMismatch, match="different ambient spaces"):
            sum_transform(
                famL, famG, np.eye(4), np.eye(4), ControlPair.identity(4), np.eye(4)
            )

    def test_subspace_mismatch(self):
        famL, famG = orthogonal_codomain_pair()
        items = list(famG.items)
        _, lam, wt = items[1]
        items[1] = (Subspace(4, np.eye(4, 3, dtype=complex)), lam, wt)
        with pytest.raises(InvalidParameters, match="subspaces differ") as info:
            sum_transform(
                famL, FrameFamily(4, items), np.eye(4), np.eye(4),
                ControlPair.identity(4), np.eye(4),
            )
        assert not isinstance(info.value, ItemCountMismatch)

    def test_weight_mismatch(self):
        famL, famG = orthogonal_codomain_pair()
        reweighted = FrameFamily(
            4, [(s, l, 2.0) for s, l, _ in famG.items]
        )
        with pytest.raises(WeightMismatch):
            sum_transform(
                famL, reweighted, np.eye(4), np.eye(4), ControlPair.identity(4), np.eye(4)
            )


class TestDirectSum:
    def test_partition_blocks_exact(self):
        famH = scaled_partition_family(4, (2.0, 3.0))
        famX = scaled_partition_family(6, (1.0, 5.0))
        rep = direct_sum_frame(
            famH,
            ControlPair.identity(4),
            np.eye(4),
            famX,
            ControlPair.identity(6),
            np.eye(6),
        )
        assert rep.all_hypotheses_pass
        assert abs(rep.predicted_lower - 1.0) < 1e-12
        assert abs(rep.predicted_upper - 5.0) < 1e-12
        assert abs(rep.measured.lambda_min - 1.0) < 1e-9
        assert abs(rep.measured.lambda_max - 5.0) < 1e-9

    def test_block_diagonal_identity(self, rng):
        famH = random_family(rng, 3, 2)
        famX = random_family(rng, 4, 2)
        famX = FrameFamily(4, [(s, l, wH) for (s, l, _), wH in zip(famX.items, famH.weights)])
        cpH = ControlPair.scalars(3, 0.5, 0.5)
        cpX = ControlPair.scalars(4, 2.0, 2.0)
        rep = direct_sum_frame(famH, cpH, np.eye(3), famX, cpX, np.eye(4))
        assert rep.all_hypotheses_pass
        s_out = frame_operator(rep.family_out, rep.control_out)
        top = frame_operator(famH, cpH)
        bot = frame_operator(famX, cpX)
        np.testing.assert_allclose(s_out[:3, :3], top, atol=1e-9)
        np.testing.assert_allclose(s_out[3:, 3:], bot, atol=1e-9)
        np.testing.assert_allclose(s_out[:3, 3:], 0, atol=1e-9)

    def test_measured_within_predictions(self, rng):
        famH = random_family(rng, 3, 2)
        famX = FrameFamily(
            3,
            [
                (s, l, wH)
                for (s, l, _), wH in zip(random_family(rng, 3, 2).items, famH.weights)
            ],
        )
        rep = direct_sum_frame(
            famH, ControlPair.identity(3), np.eye(3),
            famX, ControlPair.identity(3), np.eye(3),
        )
        assert rep.predicted_lower <= rep.measured.lambda_min + 1e-8
        assert rep.measured.lambda_max <= rep.predicted_upper + 1e-8


class TestConjugate:
    def test_scalar_conjugation(self):
        famH = scaled_partition_family(4, (1.0, 2.0))
        famX = scaled_partition_family(4, (3.0, 4.0))
        w = 2.0 * np.eye(4)
        v = 0.5 * np.eye(4)
        rep = conjugate_transform(
            famH, ControlPair.identity(4), np.eye(4),
            famX, ControlPair.identity(4), np.eye(4),
            w, v,
        )
        assert rep.all_hypotheses_pass
        s_out = frame_operator(rep.family_out, rep.control_out)
        # top block scaled by |2|^2, bottom by |0.5|^2
        np.testing.assert_allclose(
            s_out[:4, :4], 4.0 * frame_operator(famH, ControlPair.identity(4)), atol=1e-9
        )
        np.testing.assert_allclose(
            s_out[4:, 4:], 0.25 * frame_operator(famX, ControlPair.identity(4)), atol=1e-9
        )
        assert rep.predicted_lower <= rep.measured.lambda_min + 1e-9
        assert rep.measured.lambda_max <= rep.predicted_upper + 1e-9

    def test_noncommuting_conjugators_flagged(self, rng):
        famH = scaled_partition_family(4, (1.0, 2.0))
        famX = scaled_partition_family(4, (3.0, 4.0))
        cp = ControlPair(
            np.diag([1.0, 2.0, 3.0, 4.0]).astype(complex),
            np.diag([1.0, 2.0, 3.0, 4.0]).astype(complex),
        )
        w = complex_gaussian(rng, 4, 4) + 3 * np.eye(4)
        rep = conjugate_transform(
            famH, cp, np.eye(4), famX, cp, np.eye(4), w, np.eye(4)
        )
        assert not rep.all_hypotheses_pass

    def test_singular_conjugator_rejected(self):
        famH = scaled_partition_family(2, (1.0, 2.0))
        rep = conjugate_transform(
            famH, ControlPair.identity(2), np.eye(2),
            famH, ControlPair.identity(2), np.eye(2),
            np.zeros((2, 2)), np.eye(2),
        )
        assert_singular(rep, "w_invertible")
        assert dict(c[:2] for c in rep.claims)["v_invertible"] == 1.0

    @pytest.mark.parametrize("w_shape, v_shape", [((3, 3), (2, 2)), ((2, 2), (2, 3))])
    def test_wrong_size_conjugator_rejected(self, w_shape, v_shape):
        famH = scaled_partition_family(2, (1.0, 2.0))
        with pytest.raises(DimensionMismatch):
            conjugate_transform(
                famH, ControlPair.identity(2), np.eye(2),
                famH, ControlPair.identity(2), np.eye(2),
                np.eye(*w_shape), np.eye(*v_shape),
            )


class TestAtTolFactor:
    """The constructions' frame-operator identities decided at TOL_FACTOR's
    documented value, 1e-8: a residual three times it fails its claim and
    one a third of it passes."""

    @pytest.mark.parametrize("eps, holds", [(3e-7, False), (3e-8, True)])
    def test_frame_operator_conjugated(self, eps, holds):
        # w = I + eps (E_01 + E_10) nearly commutes with t = u = diag(1, 2,
        # 3, 4): each commutation residual is at most 0.25 eps and the
        # conjugated frame operator's is 0.09375 eps
        fam = scaled_partition_family(4, (1.0, 2.0))
        d = np.diag([1.0, 2.0, 3.0, 4.0]).astype(complex)
        cp = ControlPair(d, d)
        w = np.eye(4, dtype=complex)
        w[0, 1] = w[1, 0] = eps
        args = (fam, cp, np.eye(4), fam, cp, np.eye(4), w, np.eye(4))
        rep = conjugate_transform(*args)
        conjugated = {c.name: c for c in rep.claims}["frame_operator_conjugated"]
        assert conjugated.value == pytest.approx(0.09375 * eps, rel=1e-6)
        assert (conjugated.holds, rep.verified) == (holds, holds)
        with tolerances.override(tol_factor=1e-7):
            rep = conjugate_transform(*args)
        assert {c.name: c.holds for c in rep.claims}["frame_operator_conjugated"]
        assert rep.verified

    @pytest.mark.parametrize("move, holds", [(3.0, False), (1 / 3, True)],
                             ids=["three-times", "a-third"])
    def test_frame_operator_block_diagonal(self, move, holds):
        # No valid input moves this residual off rounding level: under
        # controls of condition 1e2 to 1e11 at dims 6 and 16 it stayed at or
        # below 1.0e-15.  So a test double moves the output frame operator,
        # on C^10 = C^4 (+) C^6, by move * 1e-8 * ||S_H (+) S_X|| in one entry.
        famH = scaled_partition_family(4, (2.0, 3.0))
        famX = scaled_partition_family(6, (1.0, 5.0))
        shift = np.zeros((10, 10))
        shift[0, 0] = move * 1e-8 * 5.0  # ||S_H (+) S_X|| = 5

        def evaluate(fam, cp):
            ev = FrameEvaluation(fam, cp)
            if fam.ambient_dim == 10:
                ev.s = ev.s + shift
            return ev

        with mock.patch.object(constructions, "FrameEvaluation", evaluate):
            rep = direct_sum_frame(famH, ControlPair.identity(4), np.eye(4),
                                   famX, ControlPair.identity(6), np.eye(6))
        block = {c.name: c for c in rep.claims}["frame_operator_block_diagonal"]
        assert block.value == pytest.approx(move * 1e-8, rel=1e-6)
        assert (block.holds, rep.verified) == (holds, holds)


class TestHeldNorms:
    """The commutation certificates read ||t||, ||u|| and each gated
    operator's norm from the singular extremes its gate kept, the norm of
    its adjoint too (||a*|| = ||a||), and measure every other norm once
    (budgets.py); the residuals are those of measuring each norm of a gated
    operator, not of its adjoint."""

    def test_sum_transform(self, rng):
        famL, famG = orthogonal_codomain_pair()
        c = well_conditioned(rng, 4)
        cp = ControlPair(c, c)  # (c, c) keeps the frame operators Hermitian
        v, w, k = well_conditioned(rng, 4), 0.5 * np.eye(4), complex_gaussian(rng, 4, 4)
        r = v + w
        rep = sum_transform(famL, famG, v, w, cp, k)
        certs = dict(rep.hypothesis_certificates)
        # each certificate is the residual of the held norms
        norm_r, norm_t, norm_u = (singular_extremes(x).sigma_max for x in (r, cp.t, cp.u))
        assert (norm_t, norm_u) == (cp.t_sigma.sigma_max, cp.u_sigma.sigma_max)
        assert certs["k_commutes_with_sum"] == commutator_residual(k, r, None, norm_r)
        assert certs["sum_adjoint_commutes_with_t"] == commutator_residual(
            r.conj().T, cp.t, norm_r, norm_t)
        assert certs["sum_adjoint_commutes_with_u"] == commutator_residual(
            r.conj().T, cp.u, norm_r, norm_u)

    def test_conjugate_transform(self, rng):
        famH = random_family(rng, 3, 2)
        famX = FrameFamily(3, [
            (s, l, wt) for (s, l, _), wt in zip(random_family(rng, 3, 2).items, famH.weights)
        ])
        cH, cX = well_conditioned(rng, 3), well_conditioned(rng, 3)
        cpH, cpX = ControlPair(cH, cH), ControlPair(cX, cX)
        kH, kX = complex_gaussian(rng, 3, 3), complex_gaussian(rng, 3, 3)
        w, v = well_conditioned(rng, 3), well_conditioned(rng, 3)
        rep = conjugate_transform(famH, cpH, kH, famX, cpX, kX, w, v)
        certs = dict(rep.hypothesis_certificates)
        # each certificate is the residual of the held norms
        w_adj, v_adj = w.conj().T, v.conj().T
        norm_w, norm_v = singular_extremes(w).sigma_max, singular_extremes(v).sigma_max
        norm_h, norm_x = cpH.t_sigma.sigma_max, cpX.t_sigma.sigma_max  # t = u in both pairs
        assert certs["w_adjoint_commutes_with_t"] == commutator_residual(
            w_adj, cpH.t, norm_w, norm_h)
        assert certs["w_adjoint_commutes_with_t1"] == commutator_residual(
            w_adj, cpH.u, norm_w, norm_h)
        assert certs["v_adjoint_commutes_with_u"] == commutator_residual(
            v_adj, cpX.t, norm_v, norm_x)
        assert certs["v_adjoint_commutes_with_u1"] == commutator_residual(
            v_adj, cpX.u, norm_v, norm_x)
        assert certs["k_h_commutes_with_w"] == commutator_residual(kH, w, None, norm_w)
        assert certs["k_x_commutes_with_v"] == commutator_residual(kX, v, None, norm_v)


class TestNotBessel:
    """A family that is not Bessel fails its Bessel certificate, placed after
    the other hypothesis certificates, instead of raising."""

    def families(self, rng):
        fam = random_family(rng, 3, 2)
        t, u = well_conditioned(rng, 3), well_conditioned(rng, 3)
        return fam, ControlPair(t, u), ControlPair(t, t)

    def check(self, rep, names, failing):
        certs = dict(rep.hypothesis_certificates)
        assert [n for n, _ in rep.hypothesis_certificates] == names
        assert {n for n, r in certs.items() if r > 1e-8} >= failing
        assert not rep.all_hypotheses_pass and not rep.verified

    def test_direct_sum(self, rng):
        fam, bad, good = self.families(rng)
        rep = direct_sum_frame(fam, good, np.eye(3), fam, bad, np.eye(3))
        names = ["h_family_bessel", "x_family_bessel", "frame_operator_block_diagonal"]
        self.check(rep, names, {"x_family_bessel"})
        assert dict(rep.hypothesis_certificates)["h_family_bessel"] <= 1e-8
        assert rep.predicted_lower == -np.inf and rep.measured.lambda_min == -np.inf

    def test_conjugate(self, rng):
        fam, bad, _ = self.families(rng)
        rep = conjugate_transform(fam, bad, np.eye(3), fam, bad, np.eye(3), np.eye(3), np.eye(3))
        names = [
            "w_adjoint_commutes_with_t", "w_adjoint_commutes_with_t1",
            "v_adjoint_commutes_with_u", "v_adjoint_commutes_with_u1",
            "k_h_commutes_with_w", "k_x_commutes_with_v",
            "h_family_bessel", "x_family_bessel", "frame_operator_conjugated",
        ]
        self.check(rep, names, {"h_family_bessel", "x_family_bessel"})

    def test_sum_transform(self, rng):
        famL, famG = orthogonal_codomain_pair(dim=3)
        _, bad, _ = self.families(rng)
        rep = sum_transform(famL, famG, 0.5 * np.eye(3), np.eye(3), bad, np.eye(3))
        names = [
            "k_commutes_with_sum", "sum_adjoint_commutes_with_t",
            "sum_adjoint_commutes_with_u", "cross_terms_gamma_lambda",
            "cross_terms_lambda_gamma", "lambda_family_bessel", "gamma_family_bessel",
        ]
        self.check(rep, names, {"lambda_family_bessel", "gamma_family_bessel"})


class TestDirectSumControl:
    def test_residual_scale_is_the_larger_block_norm(self, rng):
        # ||S_H (+) S_X|| = max(||S_H||, ||S_X||), each S exactly Hermitian
        # and so measured by its own spectrum, with no SVD; the residual
        # S_out - S_H (+) S_X is block-diagonal and measured block by block:
        # neither it nor the block-diagonal sum is decomposed whole
        # (budgets.py)
        famH = random_family(rng, 3, 2)
        famX = FrameFamily(4, [
            (s, l, wt) for (s, l, _), wt in zip(random_family(rng, 4, 2).items, famH.weights)
        ])
        cpH, cpX = ControlPair.scalars(3, 0.5, 0.5), ControlPair.scalars(4, 2.0, 2.0)
        s_h, s_x = frame_operator(famH, cpH), frame_operator(famX, cpX)
        rep = direct_sum_frame(famH, cpH, np.eye(3), famX, cpX, np.eye(4))
        s_out = frame_operator(rep.family_out, rep.control_out)
        d = s_out - dsum_op(s_h, s_x)
        norms = [FrameEvaluation(fam, cp).norm for fam, cp in ((famH, cpH), (famX, cpX))]
        for norm, s in zip(norms, (s_h, s_x)):
            assert norm == pytest.approx(np.linalg.norm(s, 2), rel=1e-13)
        residual = max(opnorm(d[:3, :3]), opnorm(d[3:, 3:])) / max(norms)
        assert dict(rep.hypothesis_certificates)["frame_operator_block_diagonal"] == residual
        whole = np.linalg.norm(d, 2) / max(np.linalg.norm(s_h, 2), np.linalg.norm(s_x, 2))
        assert residual == pytest.approx(whole, rel=1e-12, abs=1e-300)

    def test_combined_condition_rejected(self):
        # controls 1e7 I and 1e-7 I: each of condition 1, their sum 1e14
        famH = scaled_partition_family(2, (1.0, 2.0))
        famX = scaled_partition_family(3, (1.0, 2.0))
        with pytest.raises(NotInvertible, match="condition number 1.000e\\+14"):
            direct_sum_frame(
                famH, ControlPair.scalars(2, 1e7, 1e7), np.eye(2),
                famX, ControlPair.scalars(3, 1e-7, 1e-7), np.eye(3),
            )
