"""Decompositions a family shares with every positive scalar control pair.

Under t = c_t I and u = c_u I with c = conj(c_t) c_u a real number > 0,
S = c F, and `FrameEvaluation` reads the bounds, the inverse, atomic's
pseudoinverse and kgf's whitening of S from the family's one `Spectrum` of
F (`FrameFamily.spectrum`) scaled by c, and the roots from the family's own
roots (`FrameFamily.roots`).  These tests hold those readings to dense
references built from S, count what a first and a second pair decompose,
check that a family is freed by reference counting alone, and that scalar
pairs whose c is not a positive real take the path of dense pairs.
"""

import contextlib
import gc
import io
import json
import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gfusion import cli, generate, serialize
from gfusion.constructions import direct_sum_frame, sum_transform
from gfusion.errors import NotPositive
from gfusion.frames import (
    ControlPair,
    FrameEvaluation,
    FrameFamily,
    analysis,
    atomic_check,
    controlled_frame_bounds,
    frame_sum,
    synthesis,
    synthesis_matrix,
)
from gfusion.linalg import Spectrum, projector
from gfusion.resolution import canonical_resolutions, inverse_commutation_check

from conftest import complex_gaussian, random_family

SETTINGS = settings(max_examples=60, deadline=None, derandomize=True, database=None)
POSITIVE = st.floats(0.1, 10.0)


def rel(a, b):
    return np.linalg.norm(a - b, 2) / max(np.linalg.norm(b, 2), 1e-300)


@SETTINGS
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 8),
    items=st.integers(1, 4),
    first=st.tuples(POSITIVE, POSITIVE),
    pair=st.tuples(POSITIVE, POSITIVE),
)
def test_scaled_readings_match_dense_reference_of_s(seed, n, items, first, pair):
    # the family is first evaluated under another positive pair, so the
    # readings under `pair` come from decompositions kept on the family
    rng = np.random.default_rng(seed)
    fam = random_family(rng, n, items)
    k = complex_gaussian(rng, n, n)
    f = complex_gaussian(rng, n)
    atomic_check(fam, ControlPair.scalars(n, *first), k)
    cp = ControlPair.scalars(n, *pair)
    ev = FrameEvaluation(fam, cp)
    assert ev.scale == pytest.approx(pair[0] * pair[1], rel=1e-15)
    s = ev.s
    vals = np.linalg.eigvalsh(0.5 * (s + s.conj().T))
    scale = np.linalg.norm(s, 2)
    assert abs(ev.bounds.lambda_min - vals[0]) <= 1e-12 * scale
    assert abs(ev.bounds.lambda_max - vals[-1]) <= 1e-12 * scale
    s_inv = np.linalg.inv(s)
    assert rel(ev.inverse, s_inv) <= 1e-12 * np.linalg.cond(s)
    t, _ = ev.thin_synthesis
    assert rel(t @ t.conj().T, s) <= 1e-12

    # analysis block norms sum to <S f, f>; synthesis of the analysis is S f
    g = analysis(fam, cp, f)
    assert abs(g.norm_sq() - np.vdot(f, s @ f).real) <= 1e-12 * scale * np.vdot(f, f).real
    out, certified = synthesis(fam, cp, g, f_hint=f)
    assert certified and np.linalg.norm(out - s @ f) <= 1e-12 * scale * np.linalg.norm(f)

    rep = atomic_check(fam, cp, k)
    assert rep.coefficient_residual <= 1e-12
    t_c = synthesis_matrix(fam, cp)
    assert rel(t_c @ rep.coefficient_map, k) <= 1e-12

    # the same readings from a fresh family with the same items: what the
    # family keeps does not depend on the pair that asked first
    fresh = FrameEvaluation(FrameFamily(n, fam.items), cp)
    assert fresh.bounds == ev.bounds
    assert np.array_equal(fresh.inverse, ev.inverse)
    assert np.array_equal(fresh.thin_synthesis[0], t)
    assert atomic_check(FrameFamily(n, fam.items), cp, k).coefficient_residual == (
        rep.coefficient_residual)


@SETTINGS
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 8), items=st.integers(1, 4))
def test_c_one_bounds_are_those_of_s_to_the_bit(seed, n, items):
    rng = np.random.default_rng(seed)
    fam = random_family(rng, n, items)
    for cp in (ControlPair.identity(n), ControlPair.scalars(n, 1.0, 1.0),
               ControlPair.scalars(n, -1.0, -1.0)):
        ev = FrameEvaluation(fam, cp)
        assert ev.scale == 1.0
        assert ev.bounds == Spectrum(ev.s).extremes


def record(monkeypatch, *names):
    """{name: list of the inputs of each np.linalg.<name> call}."""
    seen = {}
    for name in names:
        seen[name] = []
        original = getattr(np.linalg, name)

        def recording(a, *args, _original=original, _seen=seen[name], **kwargs):
            _seen.append(np.array(a))
            return _original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, recording)
    return seen


def is_gram_of(g, r):
    """g is r r* (or r* r), as `linalg.opnorm` forms it, up to a
    positive factor."""
    rr = r @ r.conj().T if r.shape[0] <= r.shape[1] else r.conj().T @ r
    scale = np.abs(rr).max() / max(np.abs(g).max(), 1e-300)
    return g.shape == rr.shape and np.allclose(g * scale, rr, rtol=1e-10, atol=1e-12 * np.abs(rr).max())


def takes(inputs, x) -> bool:
    """Some recorded input is x, up to rounding."""
    return any(a.shape == x.shape and np.allclose(a, x) for a in inputs)


def test_first_atomic_and_thm_41_take_one_eigh_of_f(monkeypatch):
    # the first atomic_check and inverse_commutation_check on a family
    # under a positive scalar pair decompose F twice: one eigvalsh, of F,
    # for the bounds, and one eigh, of F, for kgf's whitening, atomic's S^+
    # and S^-1; no inv, and no decomposition of S.  The other eigh calls
    # are the family's own roots, one d_j x d_j problem per item.
    rng = np.random.default_rng(7)
    n = 8
    fam = random_family(rng, n, 4)
    k = complex_gaussian(rng, n, n)
    cp = ControlPair.scalars(n, 0.5, 1.5)
    s = FrameEvaluation(fam, cp).s
    seen = record(monkeypatch, "eigh", "eigvalsh", "inv")
    assert atomic_check(fam, cp, k).is_atomic
    assert inverse_commutation_check(fam, cp).certified
    of_f = [a for a in seen["eigh"] if np.array_equal(a, fam.operator)]
    roots = [a.shape for a in seen["eigh"] if not np.array_equal(a, fam.operator)]
    assert len(of_f) == 1
    assert sorted(roots) == sorted((sub.dim, sub.dim) for sub, _, _ in fam.items)
    assert seen["inv"] == []
    assert sum(np.array_equal(a, fam.operator) for a in seen["eigvalsh"]) == 1
    assert not any(a.shape == s.shape and np.allclose(a, s) for a in seen["eigvalsh"] + seen["eigh"])


def test_second_positive_pair_decomposes_no_s(monkeypatch):
    # after one evaluation under a positive scalar pair, another positive
    # pair takes its bounds, inverse, roots, atomic's S^+ and kgf's
    # whitening from the family: no eigvalsh of S, no eigh, no QR, and no
    # inverse
    rng = np.random.default_rng(8)
    n = 8
    fam = random_family(rng, n, 4)
    k = complex_gaussian(rng, n, n)
    f = complex_gaussian(rng, n)
    first = ControlPair.scalars(n, 0.5, 1.5)
    atomic_check(fam, first, k)
    inverse_commutation_check(fam, first)
    cp = ControlPair.scalars(n, 2.0, 0.75)
    seen = record(monkeypatch, "eigh", "eigvalsh", "inv", "qr")

    controlled_frame_bounds(fam, cp)
    analysis(fam, cp, f)
    assert all(inputs == [] for inputs in seen.values())

    rep = inverse_commutation_check(fam, cp)
    assert rep.certified
    # the eigvalsh calls are the spectrum of the modified frame operator
    # (S^-1 t, S^-1 u) that Theorem 4.1 measures and the norms of its
    # residuals (`opnorm`), none of S or F
    assert [len(seen[name]) for name in ("eigh", "inv", "qr")] == [0, 0, 0]
    s = FrameEvaluation(fam, cp).s
    assert seen["eigvalsh"]
    assert not takes(seen["eigvalsh"], s) and not takes(seen["eigvalsh"], fam.operator)

    seen["eigvalsh"].clear()
    rep = atomic_check(fam, cp, k)
    # only what depends on k: one eigvalsh each of W W* (kgf, W the
    # whitened k), k k* (||k||_2), R R* for R = k - S (the literal
    # residual) and for R = T_C L - k (the coefficient residual); no eigh
    # (of S, F or k k*), no per-item root and no inverse
    assert seen["eigh"] == [] and seen["inv"] == [] and seen["qr"] == []
    w = FrameEvaluation(fam, cp).spectrum.whiten(k)
    assert len(seen["eigvalsh"]) == 4
    # the fourth R is roundoff, which a reference cannot reproduce
    assert all(is_gram_of(g, r) for g, r in zip(seen["eigvalsh"], [w, k, k - s]))
    assert rep.coefficient_residual <= 1e-13


def test_resolutions_read_the_family_spectrum(monkeypatch):
    # canonical_resolutions evaluates the family as every other reader does:
    # once inverse_commutation_check has made F's eigh, its bounds and S^-1
    # come from the family's spectrum, with no decomposition of S
    rng = np.random.default_rng(9)
    fam = random_family(rng, 5, 3)
    cp = ControlPair.scalars(5, 0.5, 1.5)
    inverse_commutation_check(fam, cp)
    seen = record(monkeypatch, "eigh", "eigvalsh", "inv", "qr")
    res = canonical_resolutions(fam, cp)
    assert res.converged
    # the eigvalsh calls are the norms of the residuals (`opnorm`), none of
    # S or F
    assert seen["eigh"] == [] and seen["inv"] == [] and seen["qr"] == []
    s = FrameEvaluation(fam, cp).s
    assert not takes(seen["eigvalsh"], s) and not takes(seen["eigvalsh"], fam.operator)


@contextlib.contextmanager
def no_collector():
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def test_a_family_is_freed_by_reference_counting():
    rng = np.random.default_rng(10)
    n = 6
    k = complex_gaussian(rng, n, n)
    with no_collector():
        fam = random_family(rng, n, 3)
        for cp in (ControlPair.scalars(n, 0.5, 1.5), ControlPair.scalars(n, 2.0, 2.0)):
            controlled_frame_bounds(fam, cp)
            rep = atomic_check(fam, cp, k)
            rep.coefficient_map
            analysis(fam, cp, complex_gaussian(rng, n))
            inverse_commutation_check(fam, cp)
            frame_sum(fam, cp, complex_gaussian(rng, n, 2))
        # the items, F's factors and their run stacks, F, F's two
        # decompositions, and the stacked bases and row weights of
        # frame_sum: only arrays, tuples of them and a Spectrum of F
        assert fam.__dict__.keys() == {"ambient_dim", "items", "factors", "factor_runs",
                                       "operator", "spectrum", "roots", "stacked_conj_basis",
                                       "row_weights"}
        stacks, starts = fam.__dict__["factor_runs"]
        for key in ("stacked_conj_basis", "row_weights"):
            array, offsets = fam.__dict__[key]
            assert isinstance(array, np.ndarray) and not array.flags.writeable
            assert all(isinstance(i, int) for i in offsets)
        assert all(isinstance(a, np.ndarray) and not a.flags.writeable for a in stacks)
        assert all(isinstance(i, int) for i in starts)
        ref = weakref.ref(fam)
        del fam, rep
        assert ref() is None

        # the check sees a cycle: a family that held itself would live on
        fam = random_family(rng, n, 3)
        fam.__dict__["self"] = fam
        ref = weakref.ref(fam)
        del fam
        assert ref() is not None
        del ref().__dict__["self"]
        assert ref() is None


def test_one_shot_output_families_are_freed_by_reference_counting(monkeypatch):
    # direct_sum_frame and sum_transform build their output family under a
    # positive scalar pair; it goes with the report
    made = []
    init = FrameFamily.__init__

    def recording(self, *args, **kwargs):
        init(self, *args, **kwargs)
        made.append(weakref.ref(self))

    monkeypatch.setattr(FrameFamily, "__init__", recording)
    rng = np.random.default_rng(11)
    n = 4
    k = complex_gaussian(rng, n, n)
    cp = ControlPair.scalars(n, 0.5, 1.5)
    half = 0.5 * np.eye(n)
    with no_collector():
        fam = random_family(rng, n, 3)
        reports = [direct_sum_frame(fam, cp, k, fam, cp, k),
                   sum_transform(fam, fam, half, half, cp, k)]
        assert reports[0].all_hypotheses_pass
        del fam, reports
        assert len(made) >= 3 and all(ref() is None for ref in made)


@pytest.mark.parametrize("n", [1, 2, 6])
@pytest.mark.parametrize("structure", generate.STRUCTURES)
def test_near_real_scalar_pairs_take_the_path_of_dense_pairs(structure, n):
    # c = conj(1) (1 + 1e-13j) is not a positive real, so the roots are
    # built from t* B_j and u* B_j as for a dense pair.  Each G_j = c A_j* A_j
    # is Hermitian to 2e-13 relative and passes both gates, and its root is
    # sqrt(Re c) times the identity pair's.  At 1 + 1e-9j the asymmetry
    # 2e-9 exceeds TOL_HERM and the first nonzero item fails the gate
    fam = generate.random_instance(5, n, min(n, 4), structure).family
    own, _ = FrameEvaluation(fam, ControlPair.identity(n)).thin_synthesis
    c = 1 + 1e-13j
    cp = ControlPair.scalars(n, 1, c)
    assert cp.scale is None
    t, _ = FrameEvaluation(fam, cp).thin_synthesis
    assert rel(t, math.sqrt(c.real) * own) <= 1e-12
    s_dense = sum(
        w * w * c * projector(sub) @ lam.conj().T @ lam @ projector(sub)
        for sub, lam, w in fam.items
    )
    assert rel(t @ t.conj().T, s_dense) <= 1e-12
    with pytest.raises(NotPositive, match=r"cross operator is not Hermitian PSD \(asymmetry"):
        FrameEvaluation(fam, ControlPair.scalars(n, 1, 1 + 1e-9j)).thin_synthesis


# Verdict, exit code and error line of each command under scalar pairs whose
# c = conj(c_t) c_u is not a positive real, on `gfusion random --seed 1
# --dim 4 --items 3 --structure scalar-controls`: as they were when every
# scalar pair decomposed its own S.
NOT_POSITIVE = {
    ((1j, 1), "check-frame"): (1, False, ""),
    ((1j, 1), "bounds"): (1, False, ""),
    ((1j, 1), "atomic"): (1, None, "verification error: item 0: cross operator is not "
                          "Hermitian PSD (asymmetry 4.891e+00 exceeds 1.0e-09 * norm 2.446e+00)"),
    ((1j, 1), "resolutions"): (1, False, ""),
    ((1j, 1), "thm 4.1"): (1, False, ""),
    ((1j, 1), "thm 4.2"): (1, False, ""),
    ((-1, 1), "check-frame"): (1, False, ""),
    ((-1, 1), "bounds"): (0, True, ""),
    ((-1, 1), "atomic"): (1, None, "verification error: item 0: cross operator is not "
                          "Hermitian PSD (eigenvalue -2.446e+00 below floor -2.446e-09)"),
    ((-1, 1), "resolutions"): (1, False, ""),
    ((-1, 1), "thm 4.1"): (1, False, ""),
    ((-1, 1), "thm 4.2"): (1, False, ""),
}
VERDICTS = {"check-frame": "is_frame", "bounds": "is_bessel", "atomic": "is_atomic",
            "thm 4.1": "certified", "thm 4.2": "is_frame"}


@pytest.fixture(scope="module")
def scalar_instance(tmp_path_factory):
    root = tmp_path_factory.mktemp("not-positive")
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["random", "--seed", "1", "--dim", "4", "--items", "3",
                         "--structure", "scalar-controls", "--out", str(root)]) == 0
    return root


@pytest.mark.parametrize("pair, command", NOT_POSITIVE)
def test_pairs_with_c_not_a_positive_real_keep_their_outcome(scalar_instance, pair, command):
    root = scalar_instance
    fam = serialize.family_from_dict(serialize.load_json(root / "family.json"))
    cp = ControlPair.scalars(4, *pair)
    ev = FrameEvaluation(fam, cp)
    assert cp.scale is None and ev.scale is None
    assert ev.bounds == Spectrum(ev.s).extremes

    control = root / f"control_{pair[0]}_{pair[1]}.json"
    control.write_text(serialize.dumps(serialize.control_pair_to_dict(cp)))
    report = root / "report.json"
    report.unlink(missing_ok=True)
    argv = [*command.split(), "--in", str(root / "family.json"), "--control", str(control),
            "--out", str(report)]
    if command == "atomic":
        argv += ["--k", str(root / "k.json")]
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.main(argv)
    verdict = None
    if report.exists():
        rep = json.loads(report.read_text())
        verdict = (rep["left_multiplied"]["converged"] and rep["right_multiplied"]["converged"]
                   if command == "resolutions" else rep[VERDICTS[command]])
    assert (code, verdict, err.getvalue().strip()) == NOT_POSITIVE[pair, command]
