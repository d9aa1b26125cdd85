import numpy as np
import pytest

from gfusion.errors import InvalidParameters
from gfusion.fourier import (
    FourierParams,
    build_fourier_example,
    coord_index,
    verify_fourier,
)
from gfusion.frames import (
    FrameFamily,
    controlled_frame_bounds,
    frame_operator,
    frame_sum,
    kgf_bounds,
)


class TestParams:
    def test_dim(self):
        assert FourierParams(8, 3, 0.5, 0.5).dim == 17

    def test_m_out_of_range(self):
        with pytest.raises(InvalidParameters):
            FourierParams(4, 5, 0.5, 0.5)
        with pytest.raises(InvalidParameters):
            FourierParams(4, 0, 0.5, 0.5)

    def test_nonpositive_scalars(self):
        with pytest.raises(InvalidParameters):
            FourierParams(4, 2, -0.5, 0.5)
        with pytest.raises(InvalidParameters):
            FourierParams(4, 2, 0.5, 0.0)

    @pytest.mark.parametrize("alpha, beta", [(float("nan"), 0.5), (0.5, float("nan")),
                                             (float("inf"), 0.5), (0.5, float("inf"))])
    def test_non_finite_scalars(self, alpha, beta):
        with pytest.raises(InvalidParameters, match="finite"):
            FourierParams(4, 2, alpha, beta)

    def test_product_above_one(self):
        with pytest.raises(InvalidParameters):
            FourierParams(4, 2, 2.0, 0.6)

    def test_coord_index(self):
        p = FourierParams(4, 2, 0.5, 0.5)
        assert coord_index(p, -4) == 0
        assert coord_index(p, 0) == 4
        assert coord_index(p, 4) == 8
        with pytest.raises(InvalidParameters):
            coord_index(p, 5)


class TestBuild:
    def test_frame_operator_is_diagonal_partial_sum(self):
        # only indices 1..m survive, each scaled by alpha*beta
        p = FourierParams(4, 3, 0.5, 0.8)
        fam, cp, k = build_fourier_example(p)
        s = frame_operator(fam, cp)
        expected = np.zeros((9, 9))
        for idx in range(1, 4):
            expected[coord_index(p, idx), coord_index(p, idx)] = 0.4
        np.testing.assert_allclose(s, expected, atol=1e-12)

    def test_k_projects_on_two_coordinates(self):
        p = FourierParams(4, 2, 0.5, 0.5)
        _, _, k = build_fourier_example(p)
        assert np.trace(k).real == 2.0
        np.testing.assert_allclose(k @ k, k, atol=1e-12)

    def test_frame_sum_closed_form(self):
        # hand evaluation: sum = alpha*beta * sum_{1<=idx<=m} |x(idx)|^2
        p = FourierParams(5, 3, 0.6, 0.7)
        fam, cp, _ = build_fourier_example(p)
        rng = np.random.default_rng(11)
        for _ in range(20):
            x = rng.standard_normal(p.dim) + 1j * rng.standard_normal(p.dim)
            expected = 0.42 * sum(
                abs(x[coord_index(p, idx)]) ** 2 for idx in range(1, 4)
            )
            assert abs(frame_sum(fam, cp, x).real - expected) < 1e-9 * (1 + expected)

    def test_zero_items_map_to_one_dimension(self):
        # every item but index 1 carries the 1 x d zero operator; d x d
        # zeros give the same frame operator and bounds
        p = FourierParams(5, 3, 0.6, 0.7)
        fam, cp, k = build_fourier_example(p)
        for n, (_, lam, _) in zip(range(-p.n_max, p.n_max + 1), fam.items):
            assert lam.shape == ((p.dim, p.dim) if n == 1 else (1, p.dim))
            assert n == 1 or not lam.any()
        square = FrameFamily(p.dim, [
            (sub, lam if lam.shape[0] == p.dim else np.zeros((p.dim, p.dim)), w)
            for sub, lam, w in fam.items
        ])
        np.testing.assert_array_equal(frame_operator(fam, cp), frame_operator(square, cp))
        assert kgf_bounds(fam, cp, k) == kgf_bounds(square, cp, k)

    def test_not_a_plain_frame(self):
        # the family is Bessel but rank deficient on the whole space
        p = FourierParams(4, 2, 0.5, 0.5)
        fam, cp, _ = build_fourier_example(p)
        rep = controlled_frame_bounds(fam, cp)
        assert rep.is_bessel and not rep.is_frame


class TestVerify:
    def test_reference_case(self):
        rep = verify_fourier(FourierParams(8, 3, 0.5, 0.5), trials=200, seed=2)
        assert rep.is_kgf
        assert rep.sandwich_ok
        assert abs(rep.a_opt - 0.25) < 1e-9
        assert abs(rep.upper - 0.25) < 1e-9

    def test_unit_product(self):
        rep = verify_fourier(FourierParams(8, 3, 0.5, 2.0), trials=100)
        assert rep.sandwich_ok
        assert abs(rep.a_opt - 1.0) < 1e-9
        assert abs(rep.upper - 1.0) < 1e-9

    def test_sandwich_slacks_nonnegative(self):
        rep = verify_fourier(FourierParams(6, 4, 0.3, 0.9), trials=150, seed=5)
        assert rep.worst_lower_slack >= -1e-9
        assert rep.worst_upper_slack >= -1e-9

    def test_m_below_k_support_not_kgf(self):
        # with m = 1 the frame sum misses index 2, which k still sees
        rep = verify_fourier(FourierParams(4, 1, 0.5, 0.5), trials=50)
        assert not rep.is_kgf

    def test_bad_trials(self):
        with pytest.raises(InvalidParameters):
            verify_fourier(FourierParams(4, 2, 0.5, 0.5), trials=0)
