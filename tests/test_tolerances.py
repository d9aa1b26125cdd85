"""`gfusion.tolerances` is the one place a threshold is written, the one
way to change it, and the one comparison of a value with a threshold
(`claim`)."""

from contextlib import nullcontext

import pytest

from gfusion import tolerances as tol
from gfusion.errors import InvalidParameters


@pytest.mark.parametrize("sense, holds", [("<=", True), (">=", True), (">", False)])
def test_claim_at_its_threshold(sense, holds):
    c = tol.claim("c", 0.25, sense, base=0.25)
    assert (c.threshold, c.holds) == (0.25, holds)
    assert type(c.holds) is bool


@pytest.mark.parametrize("sense, sign", [("<=", 1), (">", 1), (">=", -1)])
def test_claim_threshold_is_base_plus_or_minus_scaled_tolerance(sense, sign):
    c = tol.claim("c", 0.0, sense, "TOL_FACTOR", base=2.0, scale=3.0)
    assert c == tol.Claim("c", 0.0, sense, 2.0 + sign * tol.TOL_FACTOR * 3.0)
    assert tol.claim("c", 0.0, sense, "TOL_FACTOR").threshold == sign * tol.TOL_FACTOR
    assert tol.claim("c", 0.0, sense, base=2.0).threshold == 2.0


def test_claim_reads_the_tolerance_in_effect():
    default = tol.TOL_PSD
    with tol.override(tol_psd=0.5):
        inside = tol.claim("c", 1.0, ">", "TOL_PSD", scale=2.0)
    after = tol.claim("c", 1.0, ">", "TOL_PSD", scale=2.0)
    assert (inside.threshold, inside.holds) == (1.0, False)
    assert (after.threshold, after.holds) == (default * 2.0, True)


def test_all_hold_is_the_conjunction():
    ok, bad = tol.claim("ok", 0.0, "<=", base=1.0), tol.claim("bad", 2.0, "<=", base=1.0)
    assert tol.all_hold([ok, ok]) and not tol.all_hold([ok, bad]) and tol.all_hold([])


def current():
    return {name: getattr(tol, name.upper()) for name in tol.OVERRIDABLE}


@pytest.mark.parametrize("raises", [False, True])
def test_override_restores_every_value(raises):
    before = current()
    new = {name: 0.5 for name in tol.OVERRIDABLE}
    with pytest.raises(RuntimeError) if raises else nullcontext():
        with tol.override(**new):
            assert current() == new
            if raises:
                raise RuntimeError("inside the block")
    assert current() == before


@pytest.mark.parametrize("values", [
    {"tol_psd": 0.5, "nope": 1.0},
    {"tol_psd": 0.5, "tol_rank": float("nan")},
    {"tol_psd": 0.5, "cond_max": -1.0},
    {"tol_psd": 0.5, "tol_herm": "abc"},
])
def test_override_rejects_bad_values_and_changes_nothing(values):
    before = current()
    with pytest.raises(InvalidParameters):
        with tol.override(**values):
            pytest.fail("the block must not run")
    assert current() == before
