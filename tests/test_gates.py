"""The Hermitian, PSD and same-subspace gates decide exactly as their
spectral-norm definition, at any magnitude of the entries.

`require_hermitian` and `positive_sqrt` take their norms from eigenvalues
(`opnorm`) instead of an SVD, `factored_sqrt` brackets both gates by
Frobenius norms on a d x d compression of a cross operator before it falls
back to the dense gates, and `sum_transform` compares subspaces through
their bases instead of their projectors.  The reference implementations
below are the plain definitions with `np.linalg.norm(., 2)`; every drawn
input, scaled by a drawn power of two from near the bottom of the float
range to near its top, must get the same verdict and the same output from
both.  The verdicts on a family scaled toward either end of the range are
the spectral ones too, and so is the synthesis map's range certificate.
"""

from functools import partial

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gfusion import tolerances as tol
from gfusion.constructions import sum_transform
from gfusion.errors import InvalidParameters, ItemCountMismatch, NotHermitian, NotPositive, NotPSD
from gfusion.frames import (
    BlockVector,
    ControlPair,
    FrameFamily,
    analysis,
    atomic_check,
    controlled_frame_bounds,
    synthesis,
)
from gfusion.linalg import (
    Subspace,
    factored_sqrt,
    positive_sqrt,
    projector,
    require_hermitian,
)
from gfusion.resolution import coercive_pair_check, pair_frame_operator

from conftest import complex_gaussian, control_pair, scaled_parseval

GATE_SETTINGS = settings(max_examples=150, deadline=None, derandomize=True, database=None)
# the exponent e of a magnitude 2^e that keeps every entry a finite normal float
MAGNITUDES = st.integers(-700, 500)


def reference_require_hermitian(a, rtol):
    scale = np.linalg.norm(a, 2)
    dev = np.linalg.norm(a - a.conj().T, 2)
    if dev > rtol * max(scale, 1e-300):
        raise NotHermitian("reference")
    return 0.5 * (a + a.conj().T)


def reference_positive_sqrt(a):
    h = reference_require_hermitian(a, tol.TOL_HERM)
    scale = np.linalg.norm(h, 2)
    vals, vecs = np.linalg.eigh(h)
    if np.any(vals < -tol.TOL_PSD * max(scale, 1e-300)):
        raise NotPSD("reference")
    vals = np.clip(vals, 0.0, None)
    return (vecs * np.sqrt(vals)) @ vecs.conj().T


def unitary(rng, n):
    q, _ = np.linalg.qr(complex_gaussian(rng, n, n))
    return q


def perturbed(rng, n, eigenvalues, eps):
    """h + eps K: h Hermitian with the given eigenvalues, K anti-Hermitian
    with ||K||_2 = 1/2, so ||a - a*||_2 = eps."""
    q = unitary(rng, n)
    h = (q * eigenvalues) @ q.conj().T
    k = complex_gaussian(rng, n, n)
    k = k - k.conj().T
    k /= 2 * np.linalg.norm(k, 2)
    return h + eps * k


def same_outcome(fn, ref, *args):
    """Both raise the same error type, or both return arrays equal to 1e-12
    (compared after division by the largest |entry|, so that no Frobenius
    norm underflows)."""
    try:
        expected = ref(*args)
    except (NotHermitian, NotPSD) as exc:
        with pytest.raises(type(exc)):
            fn(*args)
        return
    got = fn(*args)
    top = np.abs(expected).max(initial=0.0) or 1.0
    scale = max(np.linalg.norm(expected / top), 1e-300)
    assert np.linalg.norm((got - expected) / top) <= 1e-12 * scale


@GATE_SETTINGS
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 12),
    rtol=st.sampled_from([tol.TOL_HERM, tol.TOL_FACTOR, 1e-6, 1e-3]),
    log_ratio=st.floats(-2.0, 2.0),
    magnitude=MAGNITUDES,
)
def test_require_hermitian_matches_spectral_definition(seed, n, rtol, log_ratio, magnitude):
    rng = np.random.default_rng(seed)
    a = 2.0**magnitude * perturbed(rng, n, rng.uniform(-1.0, 1.0, n), rtol * 10.0**log_ratio)
    with tol.override(tol_herm=rtol):
        same_outcome(require_hermitian, partial(reference_require_hermitian, rtol=rtol), a)


@GATE_SETTINGS
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 12),
    log_ratio=st.floats(-2.0, 2.0),
    log_dip=st.floats(-2.0, 2.0),
)
def test_positive_sqrt_matches_spectral_definition(seed, n, log_ratio, log_dip):
    # asymmetry eps around TOL_HERM, and a smallest eigenvalue dipping below
    # zero by a multiple of the PSD floor
    rng = np.random.default_rng(seed)
    vals = rng.uniform(0.0, 1.0, n)
    vals[0] = -tol.TOL_PSD * 10.0**log_dip
    a = perturbed(rng, n, vals, tol.TOL_HERM * 10.0**log_ratio)
    same_outcome(positive_sqrt, reference_positive_sqrt, a)


def dipped(rng, m, dip):
    """m with its smallest eigenvalue moved to -dip * ||m||_2."""
    vals, vecs = np.linalg.eigh(m)
    vals[0] = -dip * max(abs(vals[-1]), 1.0)
    return (vecs * vals) @ vecs.conj().T


@GATE_SETTINGS
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 8),
    controls=st.sampled_from(["equal", "edge", "far", "off-range", "scalar-positive",
                              "scalar-negative", "scalar-complex"]),
    rtol=st.sampled_from([tol.TOL_HERM, 1e-6]),
    log_ratio=st.floats(-2.0, 2.0),
    log_dip=st.floats(-2.0, 2.0),
    magnitude=MAGNITUDES,
)
def test_factored_sqrt_matches_dense_gates(seed, n, controls, rtol, log_ratio, log_dip,
                                           magnitude):
    # g = (t* B) m (u* B)* = t* B L* L B* u on W = span(B), zero and full
    # ones among them, L rank-deficient when it has fewer rows than dim W;
    # non-normal t, and u = t, u an asymmetry about TOL_HERM from t (spread
    # over g, or all off the range of g), or an unrelated u; m with or
    # without an eigenvalue dipping below zero by a multiple of the PSD floor;
    # a Hermitian tolerance far above the PSD floor lets an off-range block
    # pass the bracket and still move the eigenvalues across that floor.
    # Scalar controls (a I, b I) pass t* B and u* B as the scaled bases
    # conj(a) B and conj(b) B, with conj(a) b real positive, negative, or
    # complex with g's asymmetry about TOL_HERM.  m, and so g, is scaled by
    # 2^magnitude
    with tol.override(tol_herm=rtol):
        check_factored_sqrt(seed, n, controls, log_ratio, log_dip, magnitude)


def check_factored_sqrt(seed, n, controls, log_ratio, log_dip, magnitude):
    rng = np.random.default_rng(seed)
    d = int(rng.integers(0, n + 1))
    b = unitary(rng, n)[:, :d]
    lam = complex_gaussian(rng, int(rng.integers(1, n + 1)), d)
    m = lam.conj().T @ lam
    if d and rng.uniform() < 0.5:
        m = dipped(rng, m, tol.TOL_PSD * 10.0**log_dip)
    m *= 2.0**magnitude
    t = np.eye(n) + np.triu(complex_gaussian(rng, n, n), 1) / n
    asymmetry = tol.TOL_HERM * 10.0**log_ratio
    if controls.startswith("scalar"):
        # z = conj(alpha) beta = |z| e^{i angle}, and g = z h with h Hermitian
        # PSD (or dipped): ||g - g*||_2 / ||g||_2 = 2 |sin(angle)|.  The basis
        # is orthonormal only to TOL_ORTH, as a Subspace accepts it
        angle = {"scalar-positive": 0.0, "scalar-negative": np.pi,
                 "scalar-complex": np.arcsin(asymmetry / 2)}[controls]
        alpha = rng.uniform(0.5, 2.0) * np.exp(1j * rng.uniform(0.0, 2 * np.pi))
        beta = rng.uniform(0.5, 2.0) * np.exp(1j * angle) * alpha / abs(alpha)
        b = b + tol.TOL_ORTH / 10 * complex_gaussian(rng, n, d) / max(d, 1)
        check_root(n, np.conj(alpha) * b, m, np.conj(beta) * b)
        return
    if controls == "off-range" and 0 < d < n:
        # u* B = t* B + eps v a* with v orthogonal to range(t* B): q* g q
        # stays Hermitian, and all of g - g* lies in the off-range block
        v = np.linalg.svd(t.conj().T @ b)[0][:, -1]
        a = complex_gaussian(rng, d)
        eps = asymmetry * np.linalg.norm(t, 2) / np.linalg.norm(a)
        u = t + b @ np.outer(a, v.conj()) * eps
    else:
        u = {
            "equal": t,
            "edge": t + asymmetry * complex_gaussian(rng, n, n) / n,
            "far": np.eye(n) + complex_gaussian(rng, n, n) / n,
            "off-range": t,
        }[controls]
    check_root(n, t.conj().T @ b, m, u.conj().T @ b)


def check_root(n, x, m, y):
    """`factored_sqrt(x, m, y)` decides as the dense reference on
    g = x m y*, and returns a root of g."""
    g = x @ m @ y.conj().T
    # within roundoff of a threshold neither computation decides
    scale = max(np.linalg.norm(g, 2), 1e-300)
    skew = np.linalg.norm(g - g.conj().T, 2)
    assume(abs(skew - tol.TOL_HERM * scale) > 1e-6 * tol.TOL_HERM * scale)
    vals = np.linalg.eigvalsh(0.5 * (g + g.conj().T))
    floor = -tol.TOL_PSD * max(abs(vals[0]), abs(vals[-1]), 1e-300)
    assume(abs(vals[0] - floor) > 1e-6 * abs(floor))
    try:
        ref = reference_positive_sqrt(g)
    except (NotHermitian, NotPSD) as exc:
        with pytest.raises(type(exc)):
            factored_sqrt(x, m, y)
        return
    q, s = factored_sqrt(x, m, y)
    assert np.linalg.norm(q.conj().T @ q - np.eye(q.shape[1])) <= 1e-12 * n
    root_scale = max(np.linalg.norm(s, 2), 1e-300)
    assert np.linalg.norm(s - s.conj().T, 2) <= 1e-12 * root_scale
    assert np.all(np.linalg.eigvalsh(0.5 * (s + s.conj().T)) >= -1e-12 * root_scale)
    # both squares are the clipped Hermitian part of g, up to the off-range
    # block of g (at most ||g - g*||_2) and the two clipped dips
    got = q @ s @ s @ q.conj().T
    bound = 1e-12 * scale + skew + 2 * max(-vals[0], 0.0)
    assert np.linalg.norm(got - ref @ ref, 2) <= bound


def test_factored_sqrt_bracket_keeps_sqrt_n():
    # g = [[I_6, e], [0, 0]] on C^8 with a rank-one off-range block e of norm
    # 1.5 TOL_HERM: ||g - g*||_2 / ||g||_2 = 1.5 TOL_HERM, but without the
    # bracket's sqrt(n) its Frobenius ratio sqrt(2) * 1.5 TOL_HERM / sqrt(6)
    # would pass
    n, d = 8, 6
    x = np.eye(n, d, dtype=complex)
    y = x.copy()
    y[d, 0] = 1.5 * tol.TOL_HERM
    with pytest.raises(NotHermitian):
        factored_sqrt(x, np.eye(d), y)
    with pytest.raises(NotHermitian):
        reference_positive_sqrt(x @ y.conj().T)


def test_factored_sqrt_psd_gate_sees_the_off_range_block():
    # q* g q = diag(1, -0.9 TOL_PSD) passes the PSD floor, but the off-range
    # block couples its dip to the null space of g at first order (through
    # an ill-conditioned q* y), and the Hermitian part of g has an eigenvalue
    # below the floor; a Hermitian tolerance of 1e-6 lets the bracket pass
    mu, c, rho = -0.9 * tol.TOL_PSD, tol.TOL_PSD, 1e-3
    x = np.eye(3, 2, dtype=complex)
    m = np.diag([1.0, mu / rho]).astype(complex)
    y = np.array([[1.0, 0.0], [0.0, rho], [0.0, c * rho / mu]], dtype=complex)
    with tol.override(tol_herm=1e-6):
        with pytest.raises(NotPSD):
            reference_positive_sqrt(x @ m @ y.conj().T)
        with pytest.raises(NotPSD):
            factored_sqrt(x, m, y)


def rotated_pair(rng, n, dim_l, dim_g, angle):
    """Orthonormal bases of W_L and W_G.  With equal dimensions
    0 < dim < n, W_G is W_L with min(dim, n - dim) directions turned out of
    it, the first by `angle` and the others by less, given in a random
    basis; otherwise W_G is a random subspace, nested in W_L when it is the
    smaller one."""
    q = unitary(rng, n)
    b_l = q[:, :dim_l]
    if dim_g != dim_l:
        b_g = b_l[:, :dim_g] if dim_g < dim_l else unitary(rng, n)[:, :dim_g]
        return b_l, b_g
    turned = min(dim_l, n - dim_l)
    angles = angle * np.concatenate(([1.0], rng.uniform(0.0, 1.0, turned - 1)))
    b_g = b_l.copy()
    for i, a in enumerate(angles):
        b_g[:, i] = np.cos(a) * b_l[:, i] + np.sin(a) * q[:, dim_l + i]
    return b_l, b_g @ unitary(rng, dim_l)


@GATE_SETTINGS
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 8),
    data=st.data(),
    log_ratio=st.floats(-2.0, 2.0),
)
def test_same_subspace_gate_matches_projector_distance(seed, n, data, log_ratio):
    # principal angles two decades either side of TOL_SAME_SUBSPACE, and
    # subspaces of unequal dimension (||P_L - P_G||_2 = 1), zero and full
    # ones among them
    rng = np.random.default_rng(seed)
    dim_l = data.draw(st.integers(1, n - 1))
    dim_g = data.draw(st.one_of(st.just(dim_l), st.integers(0, n)))
    b_l, b_g = rotated_pair(rng, n, dim_l, dim_g, tol.TOL_SAME_SUBSPACE * 10.0**log_ratio)
    sub_l, sub_g = Subspace(n, b_l), Subspace(n, b_g)
    distance = np.linalg.norm(projector(sub_l) - projector(sub_g), 2)
    # within roundoff of the threshold neither computation decides
    assume(abs(distance - tol.TOL_SAME_SUBSPACE) > 1e-6 * tol.TOL_SAME_SUBSPACE)
    eye = np.eye(n)
    args = (FrameFamily(n, [(sub_l, eye, 1.0)]), FrameFamily(n, [(sub_g, eye, 1.0)]),
            eye, eye, ControlPair.identity(n), eye)
    if distance > tol.TOL_SAME_SUBSPACE:
        with pytest.raises(InvalidParameters, match="subspaces differ") as info:
            sum_transform(*args)
        assert not isinstance(info.value, ItemCountMismatch)
    else:
        sum_transform(*args)


@pytest.mark.parametrize("exponent", [-80, -77, 0, 77, 80])
def test_verdicts_near_the_float_range_are_spectral(exponent):
    # Lambda_j times 10^exponent puts the entries of S and of each G_j near
    # 10^(2 exponent), where a square of an entry leaves the float range.
    # Under (I, I + E), ||E||_2 = 0.02, S and each G_j are about 2 %
    # asymmetric: not Bessel, and no roots.  Under (I, I) the family is a
    # Parseval frame times 10^(2 exponent), and thm 4.4 proves it
    fam = scaled_parseval(10.0**exponent)
    skewed = control_pair("I, I + E", 4, np.random.default_rng(0))
    assert not controlled_frame_bounds(fam, skewed).is_bessel
    with pytest.raises(NotPositive, match="asymmetry"):
        atomic_check(fam, skewed, np.eye(4))
    assert controlled_frame_bounds(fam, ControlPair.identity(4)).is_frame
    assert coercive_pair_check(pair_frame_operator(fam, np.eye(4), fam, np.eye(4))).is_frame


@pytest.mark.parametrize("scale", [1e-170, 1.0, 1e150])
def test_range_certificate_at_any_scale(scale):
    # Lambda_j times `scale` makes the coefficients of f that scale: their
    # squares, and those of C_j's entries in the roots' Gram, leave the float
    # range at 1e-170.  g = analysis(f) is in the range against f_hint = f,
    # and 2 g is not
    fam, cp = scaled_parseval(scale), ControlPair.identity(4)
    f = np.array([1.0, 2j, -0.5, 3.0])
    g = analysis(fam, cp, f)
    assert np.abs(np.concatenate(g.blocks)).max() == pytest.approx(3 * scale, rel=1e-12)
    assert synthesis(fam, cp, g, f_hint=f)[1]
    assert not synthesis(fam, cp, BlockVector([2 * b for b in g.blocks]), f_hint=f)[1]
