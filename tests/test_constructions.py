import numpy as np
import pytest

from gfusion.constructions import (
    conjugate_transform,
    direct_sum_frame,
    sum_transform,
)
from gfusion.errors import (
    DimensionMismatch,
    ItemCountMismatch,
    NotInvertible,
    WeightMismatch,
)
from gfusion.frames import ControlPair, FrameFamily, frame_operator, kgf_bounds
from gfusion.linalg import Subspace

from conftest import complex_gaussian, random_family, scaled_partition_family


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
        famL, famG = orthogonal_codomain_pair()
        with pytest.raises(NotInvertible):
            sum_transform(
                famL, famG, np.eye(4), -np.eye(4), ControlPair.identity(4), np.eye(4)
            )

    def test_item_count_mismatch(self, rng):
        famL, famG = orthogonal_codomain_pair()
        short = FrameFamily(4, list(famG.items[:2]))
        with pytest.raises(ItemCountMismatch):
            sum_transform(
                famL, short, np.eye(4), np.eye(4), ControlPair.identity(4), np.eye(4)
            )

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
        with pytest.raises(ItemCountMismatch):
            sum_transform(
                famL, FrameFamily(4, items), np.eye(4), np.eye(4),
                ControlPair.identity(4), np.eye(4),
            )

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
        with pytest.raises(NotInvertible):
            conjugate_transform(
                famH, ControlPair.identity(2), np.eye(2),
                famH, ControlPair.identity(2), np.eye(2),
                np.zeros((2, 2)), np.eye(2),
            )
