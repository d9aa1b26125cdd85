"""Every fast route against its general route, on report_diff.py's grid.

The grid of `scripts/report_diff.py` (its `report_runs` on every structure
at each of its DIMS and its first seed, on its shared files, and its
`FOURIER_DEMOS`) runs in process as it is, then under each row of
`routes.ROUTES`.  Each run a row reaches must match the default run exactly
in its exit code, error lines, verdicts, booleans, strings, nulls,
infinities and list lengths, and in every number to within TOL times the
report's scale, its largest finite |number|.  A subspace is compared by its
projector: a general route may pick another orthonormal basis of it.
"""

import contextlib
import io
import json
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from gfusion import cli, generate

from routes import ROUTES

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "scripts"))
import report_diff  # noqa: E402

TOL = 1e-12


def flatten(value, shape, numbers):
    """Split a report into `shape` (its keys, list lengths and leaves that
    are not numbers, in order) and `numbers` (arrays of its numbers)."""
    if isinstance(value, dict):
        if value.keys() == {"ambient_dim", "basis"}:  # a subspace: its projector
            b = value["basis"]
            b = (np.array(b["re"]) + 1j * np.array(b["im"])).reshape(b["rows"], b["cols"])
            value = {"projector": (b @ b.conj().T).view(float).ravel().tolist()}
        for key, item in value.items():
            shape.append(key)
            flatten(item, shape, numbers)
    elif isinstance(value, list):
        shape.append(len(value))
        if value and type(value[0]) in (int, float):
            numbers.append(np.array(value, dtype=float))
        else:
            for item in value:
                flatten(item, shape, numbers)
    elif type(value) in (int, float):
        numbers.append(np.array([value], dtype=float))
    else:
        shape.append(value)


def outcome(argv):
    """(exit code, error lines, shape, numbers) of one CLI run in process;
    the shape is None where it wrote no report."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(out):
        code = cli.main(argv)
    errors = [e for e in err.getvalue().splitlines() if e.startswith(report_diff.ERROR_PREFIXES)]
    shape, numbers = [], [np.empty(0)]
    if out.getvalue():
        flatten(json.loads(out.getvalue()), shape, numbers)
    return code, errors, shape if out.getvalue() else None, np.concatenate(numbers)


@pytest.fixture(scope="module")
def grid(tmp_path_factory):
    """[(name, argv, default outcome)] of every run of the grid."""
    work = tmp_path_factory.mktemp("routes")
    report_diff.write_shared(str(work / "shared"))
    runs = [("fourier-demo", argv) for _, argv in report_diff.FOURIER_DEMOS]
    for structure in generate.STRUCTURES:
        for dim in report_diff.DIMS:
            inst = str(work / f"{structure}-{dim}")
            assert cli.main(["random", "--seed", str(report_diff.SEEDS[0]), "--dim", str(dim),
                             "--items", str(min(report_diff.ITEMS, dim)),
                             "--structure", structure, "--out", inst]) == 0
            runs += report_diff.report_runs(inst, str(work / "shared"), dim)
    return [(name, argv, outcome(argv)) for name, argv in runs]


def test_the_rows_reach_every_command(grid):
    reached = {tuple(argv[:2] if argv[0] in ("thm", "construct") else argv[:1])
               for route in ROUTES for name, argv, _ in grid
               if route.runs is None or name in route.runs}
    assert reached == set(cli.COMMANDS)
    assert all(set(route.runs or ()) <= {name for name, _, _ in grid} for route in ROUTES)


@pytest.mark.parametrize("route", ROUTES, ids=[route.route for route in ROUTES])
def test_the_general_route_gives_the_default_reports(grid, route):
    with mock.patch.object(route.owner, route.name, route.general):
        for name, argv, want in grid:
            if route.runs is None or name in route.runs:
                got = outcome(argv)
                scale = np.abs(want[3][np.isfinite(want[3])]).max(initial=0.0)
                assert got[:3] == want[:3] and got[3].shape == want[3].shape, (name, argv)
                assert np.all(np.abs(got[3] - want[3]) <= TOL * scale), (name, argv)
