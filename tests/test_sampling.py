"""Batched sampling and basis-factored item operators against literal forms.

`frame_sum` on an (n, k) block, `factor_sum`, the chunked samplers of
`verify_fourier` and `perturbation_check`, and the cross operators, pair
operator and construction outputs built through the subspace bases must
agree with the one-vector loops and the n x n projector forms they replace; predicted
bounds read from singular extremes must agree with the inverse-norm
formulas they replace; the frame operator t* F u must agree with the literal
sum of the per-item cross operators, and the synthesis operator T_C must
hold roots of those cross operators.  The rules on where these are formed are
in `test_architecture`.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gfusion import generate, linalg
from gfusion import tolerances as tol
from gfusion.constructions import conjugate_transform, sum_transform
from gfusion.errors import DimensionMismatch, InvalidParameters
from gfusion.fourier import FourierParams, build_fourier_example, verify_fourier
from gfusion.frames import (
    BlockVector,
    ControlPair,
    FrameEvaluation,
    FrameFamily,
    analysis,
    atomic_check,
    controlled_frame_bounds,
    factor_sum,
    frame_operator,
    frame_sum,
    item_cross_operator,
    kgf_bounds,
    synthesis,
    synthesis_matrix,
)
from gfusion.linalg import (
    SAMPLE_CHUNK,
    Subspace,
    dsum_op,
    dsum_subspace,
    opnorm,
    projector,
    random_unit_columns,
)
from gfusion.resolution import (
    bessel_resolution_frame_check,
    canonical_resolutions,
    pair_frame_operator,
    perturbation_check,
)

from conftest import (
    complex_gaussian,
    random_family,
    random_subspace,
    scaled_partition_family,
    well_conditioned,
)

SAMPLING_SETTINGS = settings(max_examples=25, deadline=None, derandomize=True, database=None)


def rel_err(a, b):
    return np.max(np.abs(np.asarray(a) - np.asarray(b))) / max(np.max(np.abs(b)), 1e-300)


def projector_cross(sub, lam, t, u):
    """(L P t)* (L P u) through the n x n projector."""
    lp = lam @ projector(sub)
    return (lp @ t).conj().T @ (lp @ u)


@st.composite
def block_cases(draw, structure):
    """A generated family of the given structure, with a zero-subspace item
    and a rectangular operator appended, its control pair and an (n, k) block."""
    dim = draw(st.integers(1, 12))
    items = draw(st.integers(1, dim if structure in ("parseval", "near-identity-pair") else 6))
    seed = draw(st.integers(0, 2**32 - 1))
    k = draw(st.sampled_from((1, 2, 3, 7, 25)))
    inst = generate.random_instance(seed, dim, items, structure)
    rng = np.random.default_rng(seed)
    rows = int(rng.integers(1, 2 * dim + 1))
    extra = [
        (Subspace.zero(dim), complex_gaussian(rng, 3, dim), 1.5),
        (random_subspace(rng, dim, int(rng.integers(1, dim + 1))),
         complex_gaussian(rng, rows, dim), 0.7),
    ]
    fam = FrameFamily(dim, list(inst.family.items) + extra)
    return fam, inst.control, complex_gaussian(rng, dim, k)


@pytest.mark.parametrize("structure", generate.STRUCTURES)
@SAMPLING_SETTINGS
@given(data=st.data())
def test_block_frame_sum_matches_columns_and_quadratic_form(structure, data):
    fam, cp, block = data.draw(block_cases(structure))
    s = frame_operator(fam, cp)
    sums = frame_sum(fam, cp, block)
    assert sums.shape == (block.shape[1],)
    for col, value in zip(block.T, sums):
        scale = max(np.linalg.norm(s, 2) * np.vdot(col, col).real, 1e-300)
        single = frame_sum(fam, cp, col)
        assert isinstance(single, complex)
        assert abs(value - single) <= 1e-12 * scale
        assert abs(value - np.vdot(col, s @ col)) <= 1e-12 * scale


def test_frame_sum_rejects_three_dimensional_input():
    fam = scaled_partition_family(4, (1.0, 2.0))
    with pytest.raises(DimensionMismatch):
        frame_sum(fam, ControlPair.identity(4), np.ones((4, 2, 2)))


def projector_frame_sums(fam, cp, block):
    """sum_j v_j^2 <L_j P_j u f, L_j P_j t f> per column f, through the
    n x n projectors."""
    total = np.zeros(block.shape[1], dtype=complex)
    for sub, lam, w in fam.items:
        a = lam @ projector(sub)
        total += w * w * np.einsum("ik,ik->k", (a @ cp.t @ block).conj(), a @ cp.u @ block)
    return total


def frame_sum_families():
    """Families with zero subspaces, full subspaces and 1 x d zero
    operators, each under non-normal controls."""
    rng = np.random.default_rng(4242)
    n = 6
    cp = ControlPair(np.eye(n) + np.triu(complex_gaussian(rng, n, n), 1), well_conditioned(rng, n))
    mixed = FrameFamily(n, [
        (Subspace.zero(n), complex_gaussian(rng, 3, n), 1.5),
        (Subspace.full(n), complex_gaussian(rng, n, n), 0.8),
        (random_subspace(rng, n, 2), np.zeros((1, n)), 1.0),
        (random_subspace(rng, n, 4), complex_gaussian(rng, 2, n), 0.6),
    ])
    zeros = FrameFamily(n, [(Subspace.zero(n), complex_gaussian(rng, 2, n), 1.0)] * 2)
    fourier, scalars, _ = build_fourier_example(FourierParams(3, 2, 0.5, 0.9))
    return [(mixed, cp), (zeros, cp), (fourier, scalars)]


@pytest.mark.parametrize("fam, cp", frame_sum_families(), ids=["mixed", "zero", "fourier"])
@pytest.mark.parametrize("k", [None, 1, 5])
def test_frame_sum_matches_projector_form(fam, cp, k):
    rng = np.random.default_rng(7)
    n = fam.ambient_dim
    f = complex_gaussian(rng, n) if k is None else complex_gaussian(rng, n, k)
    got = frame_sum(fam, cp, f)
    ref = projector_frame_sums(fam, cp, f.reshape(n, -1))
    scale = max(opnorm(frame_operator(fam, cp)) * np.linalg.norm(f) ** 2, 1e-300)
    assert np.max(np.abs(got - (ref[0] if k is None else ref))) <= 1e-12 * scale
    assert isinstance(got, complex) if k is None else got.shape == (k,)


def reference_fourier_slacks(p, trials, seed):
    """The one-vector-per-trial loop, with each item applied as L P."""
    fam, cp, k = build_fourier_example(p)
    ab = p.alpha * p.beta
    rng = np.random.default_rng(seed)
    worst_lo = worst_hi = math.inf
    for _ in range(trials):
        x = rng.standard_normal(p.dim) + 1j * rng.standard_normal(p.dim)
        x /= np.linalg.norm(x)
        fs = sum(
            w * w * np.vdot(lam @ projector(sub) @ cp.t @ x,
                            lam @ projector(sub) @ cp.u @ x)
            for sub, lam, w in fam.items
        ).real
        kx = k.conj().T @ x
        worst_lo = min(worst_lo, fs - ab * np.vdot(kx, kx).real)
        worst_hi = min(worst_hi, np.vdot(x, x).real - fs)
    return worst_lo, worst_hi


@pytest.mark.parametrize(
    "params, trials, seed",
    [
        (FourierParams(4, 2, 0.5, 0.9), 37, 3),
        (FourierParams(3, 3, 0.3, 0.8), SAMPLE_CHUNK + 301, 11),
    ],
)
def test_verify_fourier_samples_match_reference_loop(params, trials, seed):
    rep = verify_fourier(params, trials=trials, seed=seed)
    lo, hi = reference_fourier_slacks(params, trials, seed)
    assert rep.trials == trials
    assert abs(rep.worst_lower_slack - lo) <= 1e-12
    assert abs(rep.worst_upper_slack - hi) <= 1e-12


def test_verify_fourier_report_carries_its_example():
    p = FourierParams(4, 2, 0.5, 0.9)
    rep = verify_fourier(p, trials=5)
    fam, cp, k = build_fourier_example(p)
    np.testing.assert_array_equal(rep.k, k)
    np.testing.assert_array_equal(rep.control.t, cp.t)
    assert len(rep.family) == len(fam)
    assert (rep.a_opt, rep.upper, rep.is_kgf) == kgf_bounds(fam, cp, k)


def near_identity_pair(dim, eps=0.02, seed=3):
    fam = scaled_partition_family(dim, tuple([1.0] * dim))
    rng = np.random.default_rng(seed)
    e = complex_gaussian(rng, dim, dim)
    e /= np.linalg.norm(e, 2)
    return pair_frame_operator(fam, np.eye(dim), fam, np.eye(dim) + eps * e)


def reference_perturbation_slack(s, lambda1, lambda2, trials, seed):
    rng = np.random.default_rng(seed)
    worst = math.inf
    for _ in range(trials):
        f = rng.standard_normal(s.shape[0]) + 1j * rng.standard_normal(s.shape[0])
        f /= np.linalg.norm(f)
        sf = s @ f
        worst = min(worst, lambda1 + lambda2 * np.linalg.norm(sf) - np.linalg.norm(f - sf))
    return worst


@pytest.mark.parametrize(
    "dim, lambda2, trials",
    [(4, 0.0, 200), (5, 0.05, SAMPLE_CHUNK), (6, 0.02, 2 * SAMPLE_CHUNK + 17)],
)
def test_perturbation_samples_match_reference_loop(dim, lambda2, trials):
    pair = near_identity_pair(dim)
    rep = perturbation_check(pair, 0.05, lambda2, 2.0, 2.0, trials=trials, seed=9)
    ref = reference_perturbation_slack(pair.matrix, 0.05, lambda2, trials, 9)
    assert abs(rep.worst_sample_slack - ref) <= 1e-12


@pytest.mark.parametrize("trials", [0, -3])
def test_perturbation_rejects_nonpositive_trials(trials):
    with pytest.raises(InvalidParameters):
        perturbation_check(near_identity_pair(4), 0.05, 0.0, 2.0, 2.0, trials=trials)


def cross_cases():
    """(subspace, operator, control pair): zero and full subspaces, a
    rectangular operator, and non-normal controls."""
    rng = np.random.default_rng(2718)
    n = 6
    shear = np.eye(n) + np.triu(complex_gaussian(rng, n, n), 1)
    non_normal = ControlPair(shear, np.eye(n) + 0.4 * complex_gaussian(rng, n, n))
    assert np.linalg.norm(shear @ shear.conj().T - shear.conj().T @ shear) > 1e-3
    lam = complex_gaussian(rng, n, n)
    rect = complex_gaussian(rng, 3, n)
    return [
        (Subspace.zero(n), lam, non_normal),
        (Subspace.full(n), lam, non_normal),
        (Subspace.full(n), rect, ControlPair.identity(n)),
        (random_subspace(rng, n, 2), rect, non_normal),
        (random_subspace(rng, n, 4), lam, ControlPair.scalars(n, 0.5, 2.0)),
    ]


@pytest.mark.parametrize("sub, lam, cp", cross_cases())
def test_factored_cross_terms_match_projector_form(sub, lam, cp):
    ref = projector_cross(sub, lam, cp.t, cp.u)
    scale = np.linalg.norm(ref, 2)  # 0 for the zero subspace: exact zeros
    got = item_cross_operator(sub, lam, cp)
    assert np.max(np.abs(got - ref)) <= 1e-12 * scale
    fam = FrameFamily(sub.ambient_dim, [(sub, lam, 1.3), (Subspace.full(sub.ambient_dim), lam, 0.5)])
    terms = FrameEvaluation(fam, cp).terms
    assert np.max(np.abs(terms[0] - ref)) <= 1e-12 * scale


@SAMPLING_SETTINGS
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 6), items=st.integers(1, 4))
def test_frame_operator_matches_literal_sum(seed, n, items):
    # S = t* F u, F the family's own operator, against sum_j v_j^2 G_j with
    # each G_j through its projector, under non-normal controls
    rng = np.random.default_rng(seed)
    fam = random_family(rng, n, items)
    t = np.eye(n) + np.triu(complex_gaussian(rng, n, n), 1)
    for cp in (ControlPair(t, well_conditioned(rng, n)), ControlPair(t, t)):
        ref = sum(w * w * projector_cross(sub, lam, cp.t, cp.u) for sub, lam, w in fam.items)
        got = frame_operator(fam, cp)
        assert np.linalg.norm(got - ref, 2) <= 1e-12 * np.linalg.norm(ref, 2)


@pytest.mark.parametrize("fam, cp", frame_sum_families(), ids=["mixed", "zero", "fourier"])
def test_frame_operator_matches_literal_sum_on_degenerate_items(fam, cp):
    ref = sum(w * w * projector_cross(sub, lam, cp.t, cp.u) for sub, lam, w in fam.items)
    got = frame_operator(fam, cp)
    assert np.linalg.norm(got - ref, 2) <= 1e-12 * np.linalg.norm(ref, 2)


def test_pair_operator_matches_projector_form():
    rng = np.random.default_rng(161)
    n = 5
    left = FrameFamily(n, [
        (Subspace.zero(n), complex_gaussian(rng, 3, n), 1.0),
        (random_subspace(rng, n, 2), complex_gaussian(rng, 4, n), 0.8),
        (Subspace.full(n), complex_gaussian(rng, 2, n), 1.4),
    ])
    right = FrameFamily(n, [
        (Subspace.full(n), complex_gaussian(rng, 3, n), 1.2),
        (random_subspace(rng, n, 3), complex_gaussian(rng, 4, n), 0.6),
        (random_subspace(rng, n, 1), complex_gaussian(rng, 2, n), 0.9),
    ])
    t = np.eye(n) + np.triu(complex_gaussian(rng, n, n), 1)
    u = np.eye(n) + 0.3 * complex_gaussian(rng, n, n)
    ref = sum(
        wl * wr * t.conj().T @ projector(sl) @ ll.conj().T @ lr @ projector(sr) @ u
        for (sl, ll, wl), (sr, lr, wr) in zip(left.items, right.items)
    )
    got = pair_frame_operator(left, t, right, u).matrix
    assert rel_err(got, ref) <= 1e-12


def construction_cases():
    """Families on zero, full and random subspaces with rectangular operators,
    (G_j) on the same subspaces as (L_j), and a non-normal control pair."""
    rng = np.random.default_rng(577)
    n = 5
    subs = [Subspace.zero(n), Subspace.full(n), random_subspace(rng, n, 2),
            random_subspace(rng, n, 4)]
    rows = [3, n, 2, 4]
    weights = [1.0, 0.8, 1.3, 0.6]

    def family():
        return FrameFamily(n, [
            (sub, complex_gaussian(rng, d, n), wt) for sub, d, wt in zip(subs, rows, weights)
        ])

    t = np.eye(n) + np.triu(complex_gaussian(rng, n, n), 1)
    u = np.eye(n) + 0.3 * complex_gaussian(rng, n, n)
    return rng, family(), family(), ControlPair(t, u)


def opened_bessel_gate():
    """Non-normal (t, u) make S non-Hermitian, which the Bessel gate rejects;
    opening it lets the constructions reach their item algebra."""
    return tol.override(tol_factor=10.0)


def test_sum_transform_matches_projector_form():
    rng, famL, famG, cp = construction_cases()
    n = famL.ambient_dim
    v = complex_gaussian(rng, n, n)
    w = 2.0 * np.eye(n)
    with opened_bessel_gate():
        rep = sum_transform(famL, famG, v, w, cp, np.eye(n))
    rstar = (v + w).conj().T
    control_scale = np.linalg.norm(cp.t, 2) * np.linalg.norm(cp.u, 2)
    cross1 = cross2 = 0.0
    for (sub, lamL, _), (_, lamG, _), (_, lam_out, _) in zip(
        famL.items, famG.items, rep.family_out.items
    ):
        a = lamL @ projector(sub) @ rstar
        b = lamG @ projector(sub) @ rstar
        scale = max(np.linalg.norm(a, 2) * np.linalg.norm(b, 2) * control_scale, 1e-300)
        cross1 = max(cross1, np.linalg.norm((a @ cp.t).conj().T @ (b @ cp.u), 2) / scale)
        cross2 = max(cross2, np.linalg.norm((b @ cp.t).conj().T @ (a @ cp.u), 2) / scale)
        ref = (lamL + lamG) @ projector(sub) @ rstar
        assert np.max(np.abs(lam_out - ref)) <= 1e-12 * np.max(np.abs(ref), initial=0.0)
    certs = dict(rep.hypothesis_certificates)
    # the certificates are already relative to ||A_L r*|| ||A_G r*|| ||t|| ||u||
    assert abs(certs["cross_terms_gamma_lambda"] - cross1) <= 1e-12
    assert abs(certs["cross_terms_lambda_gamma"] - cross2) <= 1e-12
    assert abs(cross1 - cross2) > 1e-3  # (t, u) tell the two certificates apart


def test_conjugate_transform_matches_projector_form():
    rng, famH, famX, cp = construction_cases()
    n = famH.ambient_dim
    w = np.eye(n) + np.triu(complex_gaussian(rng, n, n), 1)
    v = 2.0 * np.eye(n) + 0.3 * complex_gaussian(rng, n, n)
    with opened_bessel_gate():
        rep = conjugate_transform(famH, cp, np.eye(n), famX, cp, np.eye(n), w, v)
    wv_adj = dsum_op(w, v).conj().T
    for (subH, lamH, _), (subX, lamX, _), (_, lam_out, _) in zip(
        famH.items, famX.items, rep.family_out.items
    ):
        ref = dsum_op(lamH, lamX) @ projector(dsum_subspace(subH, subX)) @ wv_adj
        assert np.max(np.abs(lam_out - ref)) <= 1e-12 * np.max(np.abs(ref), initial=0.0)


def same_weights(fam, like):
    return FrameFamily(fam.ambient_dim, [
        (sub, lam, w) for (sub, lam, _), w in zip(fam.items, like.weights)
    ])


def inv_norm(x):
    """The inverse norm as formed before singular extremes replaced it."""
    return opnorm(np.linalg.inv(x))


def assert_rel(got, ref):
    assert abs(got - ref) <= 1e-12 * abs(ref)


@SAMPLING_SETTINGS
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 6), items=st.integers(1, 4))
def test_predicted_bounds_match_inverse_norm_formulas(seed, n, items):
    rng = np.random.default_rng(seed)
    # (c, c) controls keep every frame operator Hermitian
    c = well_conditioned(rng, n)
    cp = ControlPair(c, c)
    k = complex_gaussian(rng, n, n)
    famL = random_family(rng, n, items)
    famG = FrameFamily(n, [
        (sub, complex_gaussian(rng, lam.shape[0], n), w) for sub, lam, w in famL.items
    ])
    v, w = well_conditioned(rng, n), 0.5 * np.eye(n)
    rep = sum_transform(famL, famG, v, w, cp, k)
    a_l, b_l, _ = kgf_bounds(famL, cp, k)
    _, b_g, _ = kgf_bounds(famG, cp, k)
    assert_rel(rep.predicted_lower, a_l / inv_norm(v + w) ** 2)
    assert_rel(rep.predicted_upper, (b_l + b_g) * opnorm(v + w) ** 2)

    m = n + 1
    famX = same_weights(random_family(rng, m, items), famL)
    cx = well_conditioned(rng, m)
    cpX, kX = ControlPair(cx, cx), complex_gaussian(rng, m, m)
    wc, vc = well_conditioned(rng, n), 2.0 * well_conditioned(rng, m)
    rep = conjugate_transform(famL, cp, k, famX, cpX, kX, wc, vc)
    a_h, b_h, _ = kgf_bounds(famL, cp, k)
    a_x, b_x, _ = kgf_bounds(famX, cpX, kX)
    assert_rel(rep.predicted_lower, min(a_h / inv_norm(wc) ** 2, a_x / inv_norm(vc) ** 2))
    assert_rel(rep.predicted_upper, max(b_h * opnorm(wc) ** 2, b_x * opnorm(vc) ** 2))

    # u = (t* S)^-1 makes the mixed terms sum_j (A_j t)* (A_j u) = t* S u = I
    t = well_conditioned(rng, n)
    u = np.linalg.inv(t.conj().T @ frame_operator(famL, ControlPair.identity(n)))
    rep = bessel_resolution_frame_check(famL, t, u)
    b = controlled_frame_bounds(famL, ControlPair(t, t)).bounds.lambda_max
    assert_rel(rep.predicted_lower, 1.0 / b)
    assert_rel(rep.predicted_upper, b * inv_norm(t) ** 2 * opnorm(u) ** 2)


def family_with_subspace_dims(rng, n, dims):
    """Items on random subspaces of the given dimensions (0 and n among them)."""
    return FrameFamily(n, [
        (random_subspace(rng, n, d) if d else Subspace.zero(n),
         complex_gaussian(rng, int(rng.integers(1, n + 1)), n), float(rng.uniform(0.5, 2.0)))
        for d in dims
    ])


@SAMPLING_SETTINGS
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 6),
    data=st.data(),
    scalar=st.booleans(),
)
def test_synthesis_operator_matches_per_item_roots(seed, n, data, scalar):
    # T_C = [v_1 R_1*, ..., v_m R_m*] with each R_j the positive square root
    # of the literal cross operator G_j, by its defining properties: R_j is
    # Hermitian PSD, R_j R_j* = G_j and T_C T_C* = S (a dense root carries
    # sqrt(eps) noise on the null space of G_j, so roots are not compared)
    rng = np.random.default_rng(seed)
    dims = data.draw(st.lists(st.integers(0, n), min_size=1, max_size=4))
    fam = family_with_subspace_dims(rng, n, dims)
    # (c, c) and positive scalar controls keep each cross operator PSD
    if scalar:
        cp = ControlPair.scalars(n, rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0))
    else:
        c = well_conditioned(rng, n)
        cp = ControlPair(c, c)
    f = complex_gaussian(rng, n)
    g = BlockVector([complex_gaussian(rng, n) for _ in dims])

    t_c = synthesis_matrix(fam, cp)
    assert t_c.shape == (n, n * len(dims))
    for j, (sub, lam, w) in enumerate(fam.items):
        r = t_c[:, j * n:(j + 1) * n].conj().T / w
        scale = np.linalg.norm(r, 2)
        assert np.linalg.norm(r - r.conj().T, 2) <= 1e-12 * scale
        assert np.linalg.eigvalsh(0.5 * (r + r.conj().T))[0] >= -1e-12 * scale
        g_j = projector_cross(sub, lam, cp.t, cp.u)
        assert np.linalg.norm(r @ r.conj().T - g_j, 2) <= 1e-12 * np.linalg.norm(g_j, 2)
    s = frame_operator(fam, cp)
    assert np.linalg.norm(t_c @ t_c.conj().T - s, 2) <= 1e-12 * np.linalg.norm(s, 2)
    got = np.concatenate(analysis(fam, cp, f).blocks)
    assert rel_err(got, t_c.conj().T @ f) <= 1e-12
    out, _ = synthesis(fam, cp, g)
    assert rel_err(out, t_c @ np.concatenate(g.blocks)) <= 1e-12
    _, certified = synthesis(fam, cp, analysis(fam, cp, f), f_hint=f)
    assert certified


@SAMPLING_SETTINGS
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 8), data=st.data())
def test_scalar_controls_match_projector_form(seed, n, data):
    # controls exactly (a I, b I) are applied as the numbers a and b: S, the
    # bounds, T T* = S, analysis and synthesis, atomic's residuals and both
    # canonical resolution sums agree with the projector forms under the
    # dense controls a I and b I.  conj(a) b > 0 keeps each cross operator
    # PSD; a zero subspace and a full-space item with an invertible operator
    # (so S is invertible) join the drawn items
    rng = np.random.default_rng(seed)
    dims = data.draw(st.lists(st.integers(0, n), min_size=1, max_size=4))
    drawn = family_with_subspace_dims(rng, n, [0, *dims])
    fam = FrameFamily(n, [*drawn.items, (Subspace.full(n), well_conditioned(rng, n), 1.0)])
    phase = np.exp(1j * rng.uniform(0.0, 2 * np.pi))
    a, b = rng.uniform(0.5, 2.0) * phase, rng.uniform(0.5, 2.0) * phase
    cp = ControlPair.scalars(n, a, b)
    assert (cp.t_side, cp.u_side) == (a, b)
    t, u = a * np.eye(n), b * np.eye(n)
    terms = [w * w * projector_cross(sub, lam, t, u) for sub, lam, w in fam.items]
    s_ref = sum(terms)
    scale = np.linalg.norm(s_ref, 2)
    ev = FrameEvaluation(fam, cp)
    assert np.linalg.norm(ev.s - s_ref, 2) <= 1e-12 * scale
    vals = np.linalg.eigvalsh(0.5 * (s_ref + s_ref.conj().T))
    assert abs(ev.bounds.lambda_min - vals[0]) <= 1e-12 * scale
    assert abs(ev.bounds.lambda_max - vals[-1]) <= 1e-12 * scale
    t_thin, _ = ev.thin_synthesis
    assert np.linalg.norm(t_thin @ t_thin.conj().T - s_ref, 2) <= 1e-12 * scale

    # analysis block j has squared norm v_j^2 <G_j f, f>; synthesis of the
    # analysis is S f
    f = complex_gaussian(rng, n)
    blocks = analysis(fam, cp, f).blocks
    f_sq = np.vdot(f, f).real
    for block, term in zip(blocks, terms):
        assert abs(np.vdot(block, block) - np.vdot(f, term @ f)) <= 1e-12 * scale * f_sq
    out, certified = synthesis(fam, cp, BlockVector(blocks), f_hint=f)
    assert certified
    assert np.linalg.norm(out - s_ref @ f) <= 1e-12 * scale * np.linalg.norm(f)

    k = complex_gaussian(rng, n, n)
    rep = atomic_check(fam, cp, k)
    k_norm = np.linalg.norm(k, 2)
    assert rep.coefficient_residual <= 1e-12
    assert abs(rep.literal_residual - np.linalg.norm(k - s_ref, 2) / k_norm) <= (
        1e-12 * (1.0 + rep.literal_residual))
    t_c = synthesis_matrix(fam, cp)
    assert np.linalg.norm(t_c @ rep.coefficient_map - k, 2) <= 1e-12 * k_norm

    # the resolution sums against sum_j v_j^2 G_j S^-1 and sum_j v_j^2 S^-1 G_j
    s_inv = np.linalg.inv(s_ref)
    bound = 1e-12 * scale * np.linalg.norm(s_inv, 2)
    res = canonical_resolutions(fam, cp)
    assert np.linalg.norm(sum(res.terms_right) - s_ref @ s_inv, 2) <= bound
    assert np.linalg.norm(sum(res.terms_left) - s_inv @ s_ref, 2) <= bound
    assert res.converged


def with_degenerate_items(fam, rng):
    """`fam` with a zero subspace, a 1 x n zero operator and a full subspace
    (d_j = n) appended, at weights other than 1."""
    n = fam.ambient_dim
    return FrameFamily(n, list(fam.items) + [
        (Subspace.zero(n), complex_gaussian(rng, 2, n), 1.7),
        (random_subspace(rng, n, int(rng.integers(1, n + 1))), np.zeros((1, n)), 0.6),
        (Subspace.full(n), complex_gaussian(rng, n, n), 0.45),
    ])


def projector_factor_sum(left, right, weights):
    """sum_j w_j P_j L_j* G_j P'_j through the n x n projectors."""
    return sum(
        w * (ll @ projector(sl)).conj().T @ (lr @ projector(sr))
        for (sl, ll, _), (sr, lr, _), w in zip(left.items, right.items, weights)
    )


@pytest.mark.parametrize("dim", [1, 2, 6, 16])
@pytest.mark.parametrize("structure", generate.STRUCTURES)
@SAMPLING_SETTINGS
@given(seed=st.integers(0, 2**32 - 1), k=st.sampled_from((1, 3, 40)))
def test_kernels_match_projector_forms(structure, dim, seed, k):
    # frame_sum on one vector and on a block, and factor_sum of a family
    # with itself and with a second family of the same codomains, on every
    # structure with the degenerate items appended
    items = min(dim, 4) if structure in ("parseval", "near-identity-pair") else 4
    inst = generate.random_instance(seed, dim, items, structure)
    rng = np.random.default_rng(seed)
    fam = with_degenerate_items(inst.family, rng)
    cp = inst.control
    s = frame_operator(fam, cp)
    block = complex_gaussian(rng, dim, k)
    scale = max(opnorm(s), 1e-300) * np.linalg.norm(block, axis=0) ** 2
    ref = projector_frame_sums(fam, cp, block)
    assert np.all(np.abs(frame_sum(fam, cp, block) - ref) <= 1e-12 * scale)
    assert abs(frame_sum(fam, cp, block[:, 0]) - ref[0]) <= 1e-12 * scale[0]

    weights = [w * w for w in fam.weights]
    ref = projector_factor_sum(fam, fam, weights)
    assert np.linalg.norm(factor_sum(fam, fam, weights) - ref, 2) <= 1e-12 * opnorm(ref)
    other = FrameFamily(dim, [
        (random_subspace(rng, dim, int(rng.integers(0, dim + 1))),
         complex_gaussian(rng, lam.shape[0], dim), 1.0)
        for _, lam, _ in fam.items
    ])
    weights = [w * w2 for w, w2 in zip(fam.weights, rng.uniform(0.5, 2.0, len(fam)))]
    ref = projector_factor_sum(fam, other, weights)
    got = factor_sum(fam, other, weights)
    assert np.linalg.norm(got - ref, 2) <= 1e-12 * max(opnorm(ref), 1e-300)


def count_calls(monkeypatch, name, record):
    """Wrap numpy's `name` so that each call passes its result to `record`."""
    real = getattr(np, name)

    def counting(*args, **kwargs):
        out = real(*args, **kwargs)
        record(out)
        return out

    monkeypatch.setattr(np, name, counting)


@pytest.mark.parametrize("items", [1, 7, 40])
def test_frame_sum_reduces_once(monkeypatch, items):
    # one vecdot per call, whatever the item count and the block width
    rng = np.random.default_rng(items)
    fam = random_family(rng, 6, items)
    cp = ControlPair(well_conditioned(rng, 6), well_conditioned(rng, 6))
    calls = []
    count_calls(monkeypatch, "vecdot", calls.append)
    for f in (complex_gaussian(rng, 6), complex_gaussian(rng, 6, 5)):
        calls.clear()
        frame_sum(fam, cp, f)
        assert len(calls) == 1


@pytest.mark.parametrize("nmax", [3, 16])
def test_factor_sum_of_rank_one_items_is_one_product(monkeypatch, nmax):
    # the Fourier family at m = 1 has 2 nmax + 1 rank-one items in dim
    # 2 nmax + 1: one n x n product in place of one per item
    fam, _, _ = build_fourier_example(FourierParams(nmax, 1, 0.5, 0.9))
    n = fam.ambient_dim
    assert all(b.shape[1] == 1 for b, _ in fam.factors) and len(fam) == n
    shapes = []
    count_calls(monkeypatch, "matmul", lambda out: shapes.append(out.shape))
    factor_sum(fam, fam, [1.0] * n)
    assert shapes.count((n, n)) == 1


def test_unit_columns_are_the_old_stream_bit_for_bit():
    seed, n, trials = 77, 64, 1024 + 5
    rng = np.random.default_rng(seed)
    chunks = list(random_unit_columns(seed, n, trials))
    for got, start in zip(chunks, range(0, trials, SAMPLE_CHUNK)):
        z = rng.standard_normal((min(SAMPLE_CHUNK, trials - start), 2, n))
        x = (z[:, 0] + 1j * z[:, 1]).T
        np.testing.assert_array_equal(got, x / np.linalg.norm(x, axis=0))
    assert sum(c.shape[1] for c in chunks) == trials


def slack_rounding_bound(s, lambda1, lambda2):
    """The rounding bound between slacks read in real form from the draws
    and in complex arithmetic from the unit vectors."""
    return 8 * np.finfo(float).eps * max(1.0, abs(lambda1) + abs(lambda2) * opnorm(s))


@pytest.mark.parametrize("lambda1, lambda2", [(0.05, 0.0), (0.05, 0.5), (0.05, -0.0)])
def test_worst_sample_slack_is_the_old_expression_within_rounding(lambda1, lambda2):
    pair = near_identity_pair(5)
    trials, seed = SAMPLE_CHUNK + 3, 4
    rep = perturbation_check(pair, lambda1, lambda2, 2.0, 2.0, trials=trials, seed=seed)
    s = pair.matrix
    worst = math.inf
    for f in random_unit_columns(seed, 5, trials):
        sf = s @ f
        slack = lambda1 + lambda2 * np.linalg.norm(sf, axis=0) - np.linalg.norm(f - sf, axis=0)
        worst = min(worst, float(slack.min()))
    assert math.copysign(1.0, rep.worst_sample_slack) == math.copysign(1.0, worst)
    assert abs(rep.worst_sample_slack - worst) <= slack_rounding_bound(s, lambda1, lambda2)


@pytest.mark.parametrize("n", [1, 5, 64])
@pytest.mark.parametrize("lambda2", [0.0, -0.0, 0.5])
@pytest.mark.parametrize("chunk", [3, SAMPLE_CHUNK])
def test_real_form_slack_matches_complex_vectors_drawn_one_at_a_time(monkeypatch, n, lambda2,
                                                                     chunk):
    # the draws in chunks of `chunk` against each vector drawn on its own
    # (n normals for Re x, then n for Im x), normalised and tested in
    # complex arithmetic; with chunks of 3 the worst sample lies past a
    # chunk boundary (at n = 1 every sample has the same slack |1 - s|)
    monkeypatch.setattr(linalg, "SAMPLE_CHUNK", chunk)
    pair = near_identity_pair(n, eps=0.3, seed=n)
    s, lambda1, seed = pair.matrix, 0.4, 13
    trials = 50 if chunk == 3 else SAMPLE_CHUNK + 5
    rep = perturbation_check(pair, lambda1, lambda2, 2.0, 2.0, trials=trials, seed=seed)
    rng = np.random.default_rng(seed)
    slacks = []
    for _ in range(trials):
        f = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        f /= np.linalg.norm(f)
        sf = s @ f
        term = lambda2 * np.linalg.norm(sf) if lambda2 else lambda2
        slacks.append(lambda1 + term - np.linalg.norm(f - sf))
    worst = min(slacks)
    assert chunk == SAMPLE_CHUNK or n == 1 or int(np.argmin(slacks)) >= chunk
    assert math.copysign(1.0, rep.worst_sample_slack) == math.copysign(1.0, worst)
    assert abs(rep.worst_sample_slack - worst) <= slack_rounding_bound(s, lambda1, lambda2)


def run_families():
    """(family, run count): one run (a coordinate partition), three runs (the
    Fourier family: its 1 x 1 zero items on either side of the one nonzero
    item) and runs of one (shapes that change from each item to the next)."""
    rng = np.random.default_rng(2626)
    n = 7
    one = scaled_partition_family(n, tuple(rng.uniform(0.5, 2.0, n)))
    three, _, _ = build_fourier_example(FourierParams(4, 3, 0.5, 0.9))
    singles = FrameFamily(n, [
        (random_subspace(rng, n, 1 + j % 2), complex_gaussian(rng, 2 + j % 3, n), 0.5 + j)
        for j in range(6)
    ])
    return [(one, 1), (three, 3), (singles, 6)]


def per_item_frame_sum(fam, cp, block):
    """`frame_sum` with one 2-D product per item, in the same order."""
    n, k = block.shape
    conj_basis, offsets = fam.stacked_conj_basis
    weights, rows = fam.row_weights
    both = np.concatenate([cp.t @ block, cp.u @ block], axis=1)
    coords = conj_basis.T @ both
    out = np.empty((weights.shape[0], 2 * k), dtype=complex)
    for (_, c), lo, hi, r_lo, r_hi in zip(fam.factors, offsets, offsets[1:], rows, rows[1:]):
        np.matmul(c, coords[lo:hi], out=out[r_lo:r_hi])
    out[:, k:] *= weights[:, None]
    return np.vecdot(out[:, :k], out[:, k:], axis=0)


@pytest.mark.parametrize("fam, runs", run_families(), ids=["one-run", "three-runs", "singles"])
def test_frame_sum_applies_each_run_in_one_product(monkeypatch, fam, runs):
    n = fam.ambient_dim
    cp = ControlPair.scalars(n, 0.5, 1.5)  # the controls scale: no matmul of their own
    stacks, starts = fam.factor_runs
    assert len(stacks) == runs and starts[-1] == len(fam)
    for stack, lo, hi in zip(stacks, starts, starts[1:]):
        assert stack.shape[0] == hi - lo and not stack.flags.writeable
        for (_, c), item in zip(fam.factors[lo:hi], stack):
            assert np.shares_memory(c, stack) and np.array_equal(c, item)
    rng = np.random.default_rng(runs)
    for k in (1, 4):
        block = complex_gaussian(rng, n, k)
        shapes = []
        count_calls(monkeypatch, "matmul", lambda out: shapes.append(out.shape))
        got = frame_sum(fam, cp, block)
        monkeypatch.undo()
        # the coordinates' product, then one product per run
        assert len(shapes) == 1 + runs
        np.testing.assert_array_equal(got, per_item_frame_sum(fam, cp, block))
