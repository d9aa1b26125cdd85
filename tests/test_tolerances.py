"""`gfusion.tolerances` is the one place a threshold is written and the one
way to change it."""

import ast
from contextlib import nullcontext
from pathlib import Path

import pytest

import gfusion
from gfusion import tolerances as tol
from gfusion.errors import InvalidParameters

PACKAGE = Path(gfusion.__file__).parent


def literal_thresholds(source):
    """Line numbers of the float literals 0 < |x| < 1e-3 inside comparisons,
    except the zero-division guard in `max(..., 1e-300)`."""
    tree = ast.parse(source)
    guards = {
        id(arg)
        for call in ast.walk(tree)
        if isinstance(call, ast.Call)
        and isinstance(call.func, ast.Name)
        and call.func.id == "max"
        for arg in call.args
        if isinstance(arg, ast.Constant) and arg.value == 1e-300
    }
    found = {}
    for cmp in ast.walk(tree):
        if not isinstance(cmp, ast.Compare):
            continue
        for node in ast.walk(cmp):
            if (
                isinstance(node, ast.Constant)
                and isinstance(node.value, float)
                and 0 < abs(node.value) < 1e-3
                and id(node) not in guards
            ):
                found[id(node)] = node.lineno
    return sorted(found.values())


def test_no_literal_threshold_outside_tolerances():
    sites = [
        f"{path.name}:{line}"
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "tolerances.py"
        for line in literal_thresholds(path.read_text())
    ]
    assert sites == [], f"name these thresholds in tolerances.py: {sites}"


def test_guard_sees_a_literal_and_skips_the_zero_division_guard():
    source = "ok = r <= 1e-12 * max(s, 1e-300) and x >= lo - 1e-8\nscale = max(s, 1e-300)\n"
    assert literal_thresholds(source) == [1, 1]


def cli_verdict_sites(source):
    """Line numbers where CLI source reads a threshold (`TOL_*`, `COND_MAX`,
    by attribute or imported name) or reaches for a norm or decomposition
    (`opnorm`, `numpy.linalg`, any `linalg` import)."""
    def banned(name):
        return name.startswith("TOL_") or name in ("COND_MAX", "opnorm") or (
            "linalg" in name.split(".")
        )

    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute):
            names = [node.attr]
        elif isinstance(node, ast.Name):
            names = [node.id]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or "", *(alias.name for alias in node.names)]
        elif isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        else:
            continue
        if any(banned(name) for name in names):
            found.add(node.lineno)
    return sorted(found)


def test_cli_decides_no_verdict():
    # `tol.override` is the CLI's one use of the tolerance store
    sites = cli_verdict_sites((PACKAGE / "cli.py").read_text())
    assert sites == [], f"cli.py lines {sites}: move this decision into the library"


def test_cli_guard_sees_verdict_code():
    # the verdict code cli.py carried before the library owned every verdict
    source = "\n".join([
        "from .linalg import opnorm",
        "ok = rep.measured.lambda_min >= rep.predicted_lower - tol.TOL_CONSTRUCT * u",
        "scale = max(opnorm(pair.matrix), 1e-300)",
        "return report, adjoint_residual <= tol.TOL_ADJOINT",
        "ok = ok and rep.lower_lambda >= rep.lower_lambda_predicted - tol.TOL_FACTOR",
        "x = np.linalg.inv(s)",
        "import numpy.linalg as la",
        "from gfusion.tolerances import COND_MAX",
        "with tol.override(**overrides):",
        "    pass",
    ])
    assert cli_verdict_sites(source) == [1, 2, 3, 4, 5, 6, 7, 8]


def bad_input_sites(source):
    """Line numbers of `except Exception` (alone or in a tuple), a bare
    `except:`, and `raise ValueError`: bad input is an InvalidParameters."""
    def names(node):
        return [n.id for n in ast.walk(node) if isinstance(n, ast.Name)] if node else []

    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ExceptHandler) and (
            node.type is None or {"Exception", "BaseException"} & set(names(node.type))
        ):
            found.add(node.lineno)
        elif isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name) and exc.id == "ValueError":
                found.add(node.lineno)
    return sorted(found)


def test_one_bad_input_channel():
    sites = [
        f"{path.name}:{line}"
        for path in sorted(PACKAGE.glob("*.py"))
        for line in bad_input_sites(path.read_text())
    ]
    assert sites == [], f"bad input is raised as InvalidParameters and caught by name: {sites}"


def test_bad_input_guard_sees_each_form():
    source = "\n".join([
        "try:",
        "    x = f()",
        "except Exception as exc:",
        "    raise ValueError('bad') from exc",
        "except (KeyError, Exception):",
        "    raise ValueError",
        "except:",
        "    raise InvalidParameters('bad')",
        "except (KeyError, TypeError, ValueError):",
        "    pass",
    ])
    assert bad_input_sites(source) == [3, 4, 5, 6, 7]


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
