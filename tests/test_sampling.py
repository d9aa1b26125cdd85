"""Batched sampling and basis-factored item operators against literal forms.

`frame_sum` on an (n, k) block, the chunked samplers of `verify_fourier` and
`perturbation_check`, and the cross operators, pair operator and
construction outputs built through the subspace bases must agree with the
one-vector loops and the n x n projector forms they replace; predicted
bounds read from singular extremes must agree with the inverse-norm
formulas they replace.  No module but `linalg` forms a projector, calls an
eigensolver or takes singular values, and S^-1 is the one inverse formed.
"""

import ast
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gfusion
from gfusion import generate
from gfusion import tolerances as tol
from gfusion.constructions import conjugate_transform, sum_transform
from gfusion.errors import DimensionMismatch, InvalidParameters
from gfusion.fourier import FourierParams, build_fourier_example, verify_fourier
from gfusion.frames import (
    ControlPair,
    FrameEvaluation,
    FrameFamily,
    controlled_frame_bounds,
    frame_operator,
    frame_sum,
    item_cross_operator,
    kgf_bounds,
)
from gfusion.linalg import SAMPLE_CHUNK, Subspace, dsum_op, dsum_subspace, opnorm, projector
from gfusion.resolution import (
    bessel_resolution_frame_check,
    pair_frame_operator,
    perturbation_check,
)

from conftest import complex_gaussian, random_family, random_subspace, scaled_partition_family

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


def call_lines(source, names, where=lambda call: True):
    """Line numbers of the calls to a function with a name in `names` for
    which `where(call)` holds."""
    return sorted(
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", getattr(node.func, "attr", None)) in names
        and where(node)
    )


def call_sites(names, where=lambda call: True, skip="linalg.py"):
    """`module:line` of each call to one of `names` in a gfusion module but
    `skip` (by default, in a module but linalg)."""
    return [
        f"{path.name}:{line}"
        for path in sorted(Path(gfusion.__file__).parent.glob("*.py"))
        if path.name != skip
        for line in call_lines(path.read_text(), names, where)
    ]


def spectral(call):
    """norm(x, 2) or norm(x, ord=2): the spectral norm, an SVD."""
    ords = call.args[1:2] + [k.value for k in call.keywords if k.arg == "ord"]
    return any(isinstance(o, ast.Constant) and o.value == 2 for o in ords)


def test_no_projector_outside_linalg():
    sites = call_sites({"projector"})
    assert sites == [], f"apply P_j through its basis, not a projector: {sites}"


def test_projector_guard_sees_both_call_forms():
    source = "p = projector(sub)\nq = linalg.projector(sub) @ x\nprojector_calls = 1\n"
    assert call_lines(source, {"projector"}) == [1, 2]


def test_no_eigensolver_outside_linalg():
    sites = call_sites({"eigh", "eigvalsh"})
    assert sites == [], f"take spectra through linalg (hermitian_spectrum): {sites}"


def test_eigensolver_guard_sees_both_call_forms():
    source = "v = eigvalsh(h)\nw, q = np.linalg.eigh(h)\neigh = 1\n"
    assert call_lines(source, {"eigh", "eigvalsh"}) == [1, 2]


def test_no_singular_values_outside_linalg():
    sites = call_sites({"svd"}) + call_sites({"norm"}, spectral)
    assert sites == [], (
        f"measure singular values through linalg (singular_extremes, opnorm): {sites}"
    )


def test_inverse_formed_only_for_s_inverse():
    frames_py = Path(gfusion.__file__).parent / "frames.py"
    tree = ast.parse(frames_py.read_text())
    evaluation = next(
        node for node in tree.body
        if isinstance(node, ast.ClassDef) and node.name == "FrameEvaluation"
    )
    inverse = next(
        node for node in evaluation.body
        if isinstance(node, ast.FunctionDef) and node.name == "inverse"
    )
    sites = call_sites({"inv"}, skip=None)
    assert len(sites) == 1, f"read ||x^-1|| from singular_extremes: {sites}"
    module, line = sites[0].split(":")
    assert module == "frames.py" and inverse.lineno <= int(line) <= inverse.end_lineno


def test_singular_value_guard_sees_both_call_forms():
    source = (
        "s = svd(a)\n"
        "t = np.linalg.svd(a, compute_uv=False)\n"
        "x = norm(a, 2)\n"
        "y = np.linalg.norm(a, ord=2)\n"
        "z = np.linalg.norm(a) + np.linalg.norm(v, axis=0)\n"
        "q = np.linalg.inv(a) @ inv(b)\n"
        "svd = inv = 1\n"
    )
    assert call_lines(source, {"svd"}) == [1, 2]
    assert call_lines(source, {"norm"}, spectral) == [3, 4]
    assert call_lines(source, {"inv"}) == [6, 6]


def well_conditioned(rng, n):
    return np.eye(n) + 0.3 * complex_gaussian(rng, n, n) / np.sqrt(n)


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
