"""Decompositions a family shares with every positive scalar control pair.

Under t = c_t I and u = c_u I with c = conj(c_t) c_u a real number > 0,
S = c F, and `FrameEvaluation` reads the bounds, the inverse, atomic's
pseudoinverse and kgf's whitening of S from the family's one `Spectrum` of
F (`FrameFamily.spectrum`) scaled by c, and the roots from the family's own
roots (`FrameFamily.roots`).  These tests hold the analysis, synthesis and
atomic's coefficient map to dense references built from S, and check that
the roots follow the tolerances in force, that a family is freed by
reference counting alone, and that scalar pairs whose c is nearly but not
a positive real take the path of dense pairs.  Each reading against S's own
decompositions, and pairs whose c is negative or imaginary, are rows of
`routes.py`; what a first and a second pair decompose is in `budgets.py`.
"""

import contextlib
import gc
import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gfusion import generate
from gfusion import tolerances as tol
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
from gfusion.resolution import inverse_commutation_check

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
    # readings under `pair` come from decompositions kept on the family;
    # the bounds, S^-1 and T against S's own: routes.py's positive scalar
    # pair row
    rng = np.random.default_rng(seed)
    fam = random_family(rng, n, items)
    k = complex_gaussian(rng, n, n)
    f = complex_gaussian(rng, n)
    atomic_check(fam, ControlPair.scalars(n, *first), k)
    cp = ControlPair.scalars(n, *pair)
    ev = FrameEvaluation(fam, cp)
    assert ev.scale == pytest.approx(pair[0] * pair[1], rel=1e-15)
    s = ev.s
    scale = np.linalg.norm(s, 2)
    t, _ = ev.thin_synthesis

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


def test_family_roots_follow_the_tolerances_in_force():
    # the family's roots are gated at TOL_HERM and TOL_PSD: a call under
    # zero tolerances has the outcome it has on a fresh family, whatever
    # ran before it under the defaults
    inst = generate.random_instance(3, 6, 3, "generic")
    cp = ControlPair.scalars(6, 0.5, 1.5)

    def strict(fam):
        with tol.override(tol_herm=0, tol_psd=0):
            try:
                return atomic_check(fam, cp, inst.k).is_atomic
            except NotPositive as exc:
                return str(exc)

    warmed = FrameFamily(6, inst.family.items)
    assert atomic_check(warmed, cp, inst.k).is_atomic
    fresh = strict(FrameFamily(6, inst.family.items))
    assert fresh.startswith("item 0: cross operator is not Hermitian PSD (asymmetry")
    assert strict(warmed) == fresh
    assert atomic_check(warmed, cp, inst.k).is_atomic


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
        # the items, F's factors, F, F's two decompositions, and frame_sum's
        # rows: only arrays, tuples of them and a Spectrum of F
        assert fam.__dict__.keys() == {"ambient_dim", "items", "factors", "operator",
                                       "spectrum", "roots", "sum_rows"}
        arrays = [*fam.__dict__["sum_rows"], *(a for pair in fam.factors for a in pair)]
        assert all(isinstance(a, np.ndarray) and not a.flags.writeable for a in arrays)
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
