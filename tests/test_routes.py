"""Every fast route against its general route, on report_diff.py's grid;
and report_diff.py's comparator on hand-made reports.

The `grid` fixture's report runs are made again under each row of
`routes.ROUTES`.  Each run a row reaches must match the default run exactly
in its exit code and error lines, and its report through
`report_diff.compare_reports`: exactly in all but numbers, and each number
(an operator's by its entries, a subspace's by its projector, as a general
route may pick another basis) to within TOL of the report's scale.
"""

import json
from pathlib import Path
from unittest import mock

import pytest

from gfusion import cli, linalg

import report_diff
from conftest import binary64
from routes import ROUTES

TOL = 1e-12


def reached(route, grid):
    """(argv, outcome) of the report runs of the grid that `route` reaches."""
    return [(argv, outcome) for name, argv, outcome in grid
            if argv[0] != "random" and (route.runs is None or name.split()[1] in route.runs)]


def test_the_rows_reach_every_command(grid):
    commands = {tuple(argv[:2] if argv[0] in ("thm", "construct") else argv[:1])
                for route in ROUTES for argv, _ in reached(route, grid)}
    assert commands == set(cli.COMMANDS)
    assert all(set(route.runs or ()) <= {name.split()[1] for name, _, _ in grid}
               for route in ROUTES)
    assert report_diff.LANCZOS_DIM > linalg.LANCZOS_GATE  # atomic-lanczos takes Lanczos


@pytest.mark.parametrize("route", ROUTES, ids=[route.route for route in ROUTES])
def test_the_general_route_gives_the_default_reports(grid, route):
    with mock.patch.object(route.owner, route.name, route.general):
        for argv, (code, errors, report) in reached(route, grid):
            got = report_diff.run(argv)
            assert got[:2] == (code, errors) and bool(got[2]) == bool(report), argv
            scaled = {}
            if report:
                report_diff.compare_reports(json.loads(report), json.loads(got[2]), {}, "", scaled)
            assert all(move is not None and move <= TOL for move in scaled.values()), (argv, scaled)


def test_the_readme_names_every_row():
    """The README's "Routes" table names exactly the rows of `routes.ROUTES`,
    each with its selector: its owner (a module below gfusion, or a class),
    a dot and its name."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = text.split("### Routes", 1)[1].split("\n#", 1)[0]
    named = set()
    for line in table.splitlines():
        cells = [cell.strip() for cell in line.strip("|").split(" | ")]
        if len(cells) == 4 and cells[1].startswith("`"):
            named |= {(cells[1].strip("`"), row) for row in cells[3].split(", ")}
    assert named == {(f"{route.owner.__name__.removeprefix('gfusion.')}.{route.name}", route.route)
                     for route in ROUTES}


CASES = {  # two reports, and what they fold into `moved` ("inf" is a report's inf)
    "moved number": ({"x": [2.0, 1.0]}, {"x": [2.0, 1.5]}, {"cmd x[]": [1, 0.5 / 1.5]}),
    "signed zero": ({"x": -0.0}, {"x": 0.0}, {}),
    "list length": ({"x": [1.0, 2.0], "y": True}, {"x": [1.0], "y": True},
                    {"cmd x#len": [1, None]}),
    "inf to finite": ({"x": "inf"}, {"x": 1.0}, {"cmd x": [1, None]}),
    "key": ({"x": 1.0}, {"y": 1.0}, {"cmd x (structure)": [1, None]}),
    # an operator's entries by value, written as binary64 or as numbers
    "operator forms": ({"s": {"rows": 1, "cols": 2, "re": binary64([1.0, -0.0]),
                              "im": [0.0, 2.0]}},
                       {"s": {"rows": 1, "cols": 2, "re": [1.0, 0.0], "im": binary64([0.0, 2.0])}},
                       {}),
    "operator entry": ({"s": {"rows": 1, "cols": 1, "re": binary64([2.0]), "im": [0.0]}},
                       {"s": {"rows": 1, "cols": 1, "re": [1.5], "im": binary64([0.0])}},
                       {"cmd s.re[]": [1, 0.5 / 2.0]}),
}


@pytest.mark.parametrize("case", CASES)
def test_compare_reports(case):
    a, b, want = CASES[case]
    moved = {}
    assert report_diff.compare_reports(a, b, moved, "cmd") == bool(want)
    assert moved == want
    # a report that compares equal differs in bytes only: -0.0 against 0.0
    assert bool(want) or json.dumps(a) != json.dumps(b)


def test_canonical_text_is_bit_exact():
    """`report_diff.canonical` reads an operator in either form to the same
    text, and tells a -0.0 entry from a 0.0 one."""
    one = json.dumps({"rows": 1, "cols": 2, "re": binary64([1.0, -0.0]), "im": [0.0, 5e-324]})
    two = json.dumps({"rows": 1, "cols": 2, "re": [1.0, -0.0], "im": binary64([0.0, 5e-324])})
    signed = json.dumps({"rows": 1, "cols": 2, "re": [1.0, 0.0], "im": [0.0, 5e-324]})
    assert report_diff.canonical(one) == report_diff.canonical(two) != report_diff.canonical(signed)


SCALED = {  # two reports, and each field's largest move over the first's scale
    "moved number": ({"x": [2.0, 1.0]}, {"x": [2.0, 1.5]}, {"cmd x[]": 0.25}),
    # a dust-level field moves by half of itself, and by nothing of the scale
    "dust beside a large number": ({"x": 1e-20, "y": 4.0}, {"x": 2e-20, "y": 4.0},
                                   {"cmd x": 2.5e-21}),
    # a list's length is not a number of the report: the scale is 1e-3
    "list of small numbers": ({"x": [1e-3] * 5}, {"x": [1e-3] * 4 + [2e-3]}, {"cmd x[]": 1.0}),
    "list length": ({"x": [1.0, 2.0]}, {"x": [1.0]}, {"cmd x#len": None}),
    # a move to or from nan is `changed`, which fails the route test
    "number to nan": ({"x": [2.0, 1.0]}, {"x": [2.0, float("nan")]}, {"cmd x[]": None}),
    "nan to number": ({"x": [float("nan"), 1.0]}, {"x": [2.0, 1.0]}, {"cmd x[]": None}),
    "operator entry": ({"s": {"rows": 1, "cols": 2, "re": binary64([8.0, 1.0]), "im": [0.0, 0.0]}},
                       {"s": {"rows": 1, "cols": 2, "re": [8.0, 1.5], "im": [0.0, 0.0]}},
                       {"cmd s.re[]": 0.0625}),
}


@pytest.mark.parametrize("case", SCALED)
def test_compare_reports_scaled_moves(case):
    a, b, want = SCALED[case]
    moved, scaled = {}, {}
    assert report_diff.compare_reports(a, b, moved, "cmd", scaled)
    assert scaled == want and moved.keys() == want.keys()


def test_a_reshaped_report_is_one_structure_row():
    # the row names the first path where the shapes differ: a key added or
    # removed, or a list of objects of another length (z differs too)
    moved, scaled = {}, {}
    for a, b in (({"a": 1.0, "x": 1.0}, {"a": 1.0, "y": 1.0}),
                 ({"x": [{"y": 1.0}], "z": [1.0]}, {"x": [], "z": {"w": 1.0}})):
        assert report_diff.compare_reports(a, b, moved, "cmd", scaled)
    assert moved == {"cmd x (structure)": [2, None], "cmd x#len": [1, None]}
    assert scaled == {"cmd x (structure)": None, "cmd x#len": None}


def test_two_bases_of_a_plane_move_its_projector_by_rounding():
    c = 0.5**0.5
    a, b = ({"s": {"ambient_dim": 3, "basis": {"rows": 3, "cols": 2, "re": re, "im": [0.0] * 6}}}
            for re in ([1.0, 0.0, 0.0, 1.0, 0.0, 0.0], [c, -c, c, c, 0.0, 0.0]))
    scaled = {}
    assert report_diff.compare_reports(a, b, {}, "cmd", scaled)
    assert scaled.keys() == {"cmd s.projector.re[]"} and 0 < scaled["cmd s.projector.re[]"] < 1e-15


def test_main_removes_only_its_own_work_dir(tmp_path, monkeypatch):
    """report_diff.py without --work removes the temp dir it made once the
    comparison is printed; a --work dir stays."""
    def compare(work, parent, change):
        Path(work, "log.json").write_text("{}")
        return 0 if Path(work).parent == tmp_path else 3

    monkeypatch.setattr(report_diff, "compare", compare)
    monkeypatch.setattr(report_diff.tempfile, "tempdir", str(tmp_path))
    assert report_diff.main(["--parent", ".", "--change", "."]) == 0
    assert list(tmp_path.iterdir()) == []
    kept = tmp_path / "work"
    kept.mkdir()
    assert report_diff.main(["--parent", ".", "--change", ".", "--work", str(kept)]) == 0
    assert (kept / "log.json").exists()
