"""Differences between the CLI reports of two checkouts on a grid of inputs.

    python3 scripts/report_diff.py --parent DIR --change DIR [--work DIR]

`grid` is the one list of the grid's runs; tier-1 runs it at the first seed
(the `grid` fixture of `tests/conftest.py`).  For each structure of the
parent's `gfusion.generate.STRUCTURES`, dim of `DIMS` and seed of `SEEDS`
(min(ITEMS, dim) items) it runs `gfusion random`, then the 18 report
commands of `report_runs` on its files and on the shared files of
`write_shared`.  Once per dim it runs resolutions and sum-transform on the
shared instance of `mixed`, a frame under a pair that is not self-adjoint;
once, atomic on the instance of `lanczos`, whose Gram blocks are above
`linalg.LANCZOS_GATE`; and the `fourier-demo` runs of `FOURIER_DEMOS`,
which sample the Fourier family through `frame_sum`.  For four structures
that is 619 runs: 32 points of 19, 8 shared, 1 Lanczos and 2 Fourier runs.

Each checkout runs the grid in two child processes, one for its instance
files and one for its reports, with its own `src` first on `sys.path`,
calling `gfusion.cli.main` in process (`run`).  Both write their own
instance files, compared bit for bit by value (`canonical`, whatever the
operators' encoding); both run the report commands on the parent's instance
files, so that a moved report comes from the command and not its inputs.

It prints every instance file and every run (exit code, `error:` and
`verification error:` lines) that differs; the report fields that moved
(`compare_reports`), with the reports each moved in, its largest relative
move and its largest move over the parent's report's scale, which
`tests/test_routes.py` bounds; and a summary line, which counts the files
and reports that differ in operator encoding only, and the reports that
differ in bits only (a -0.0 for a 0.0, a 1 for a 1.0).

Exit status 1 when an instance file, an exit code or an error line
differs, else 0.  Without `--work` the runs are made in a new temp dir,
removed once the comparison is printed; a `--work` dir is kept.  numpy and
the standard library only; one child process at a time.
"""

from __future__ import annotations

import argparse
import base64
import cmath
import contextlib
import io
import json
import math
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

DIMS = (1, 2, 6, 16)
SEEDS = (1, 7)
ITEMS = 3
# the side of the `lanczos` instance: above linalg.LANCZOS_GATE
LANCZOS_DIM = 200
ERROR_PREFIXES = ("error:", "verification error:")
# (name, argv) of the fourier-demo runs, at two sizes of the Fourier family
FOURIER_DEMOS = tuple(
    (f"fourier-demo-{nmax}", ["fourier-demo", "--nmax", str(nmax), "--m", str(m),
                              "--alpha", alpha, "--beta", beta, "--trials", "50"])
    for nmax, m, alpha, beta in ((8, 2, "0.5", "0.9"), (24, 3, "0.6", "0.8"))
)


def report_runs(inst: str, shared: str, dim: int, paired: bool) -> list:
    """(name, argv) of the report commands on the instance files in `inst`
    (with family2.json and pair_control.json where `paired`, which the pair
    commands read) and the shared files of `dim`: `half` (0.5 I) and the
    control pairs `negi` (-I, iI), `neg` (I, -I), `nearreal`
    (I, (1 + 1e-9 i) I), whose c = conj(c_t) c_u is not a positive real,
    and `selfadj` (w, w)."""
    def f(name):
        return os.path.join(inst, name)

    fam, ctl, k = f("family.json"), f("control.json"), f("k.json")
    fam2, pctl = (f("family2.json"), f("pair_control.json")) if paired else (fam, ctl)
    half, negi, neg, nearreal, selfadj = (
        os.path.join(shared, f"{name}{dim}.json")
        for name in ("half", "negi", "neg", "nearreal", "selfadj"))
    one = ["--in", fam, "--control", ctl]
    pair = ["--in", fam, "--in", fam2, "--control", pctl]
    two = ["--in", fam, "--in", fam2]
    return [
        ("check-frame", ["check-frame", *one]),
        ("bounds", ["bounds", *one]),
        ("atomic", ["atomic", *one, "--k", k]),
        ("atomic-neg", ["atomic", "--in", fam, "--control", neg, "--k", k]),
        ("atomic-near-real", ["atomic", "--in", fam, "--control", nearreal, "--k", k]),
        ("resolutions", ["resolutions", *one]),
        # the left terms read as the adjoints of the right ones
        ("resolutions-selfadj", ["resolutions", "--in", fam, "--control", selfadj]),
        ("thm-4.1", ["thm", "4.1", *one]),
        ("thm-4.2", ["thm", "4.2", *one]),
        ("thm-4.4", ["thm", "4.4", *pair]),
        ("thm-perturb", ["thm", "perturb", *pair, "--trials", "50"]),
        ("thm-perturb-2", ["thm", "perturb", *pair, "--trials", "50", "--lambda1", "0.3",
                           "--lambda2", "0.1", "--seed", "3"]),
        ("pair-op", ["pair-op", *pair]),
        ("construct-direct-sum", ["construct", "direct-sum", *two, "--control", ctl,
                                  "--control", pctl, "--k", k, "--k", k]),
        # number sides with a negative and an imaginary c, written back dense
        ("construct-direct-sum-negi", ["construct", "direct-sum", *two, "--control", negi,
                                       "--control", negi, "--k", k, "--k", k]),
        ("construct-sum-transform", ["construct", "sum-transform", *two, "--control", ctl,
                                     "--k", k, "--v", k, "--w", half]),
        # r = v + w = I, applied as a number
        ("construct-sum-transform-scalar", ["construct", "sum-transform", *two, "--control",
                                            ctl, "--k", k, "--v", half, "--w", half]),
        ("construct-conjugate", ["construct", "conjugate", *two, "--control", ctl, "--control",
                                 pctl, "--k", k, "--k", k, "--v", k, "--w", half]),
    ]


def grid(inputs: str, shared: str, structures: dict, seeds=SEEDS) -> list:
    """(name, argv) of every run of the grid, named "<point> <run>", in an
    order that makes each file before a run reads it: `random` writes a
    point's files to `inputs`/<point>/, and `write_shared(shared)` the
    shared ones.  `structures` is `paired_structures()`'s map.  The report
    runs write their report to stdout."""
    runs = []
    for structure, paired in structures.items():
        for dim in DIMS:
            for seed in seeds:
                point = f"{structure}-{dim}-{seed}"
                inst = os.path.join(inputs, point)
                runs.append((f"{point} random", [
                    "random", "--seed", str(seed), "--dim", str(dim), "--items",
                    str(min(ITEMS, dim)), "--structure", structure, "--out", inst]))
                runs += [(f"{point} {name}", argv) for name, argv
                         in report_runs(inst, shared, dim, paired)]
    for dim in DIMS:
        fam, fam2, ctl = (os.path.join(shared, f"mixed{dim}", f"{name}.json")
                          for name in ("family", "family2", "control"))
        half, rot = (os.path.join(shared, f"{name}{dim}.json") for name in ("half", "rot"))
        runs += [  # both sums formed; two cross terms that differ, under r = (-1 + 0.5 i) I
            (f"shared-{dim} resolutions-mixed", ["resolutions", "--in", fam, "--control", ctl]),
            (f"shared-{dim} construct-sum-transform-mixed", [
                "construct", "sum-transform", "--in", fam, "--in", fam2, "--control", ctl,
                "--k", half, "--v", rot, "--w", rot])]
    fam, ctl, k = (os.path.join(shared, "lanczos", f"{name}.json")
                   for name in ("family", "control", "k"))
    runs.append((f"lanczos-{LANCZOS_DIM} atomic-lanczos",
                 ["atomic", "--in", fam, "--control", ctl, "--k", k]))
    return runs + [(f"fourier {name}", argv) for name, argv in FOURIER_DEMOS]


def run(argv) -> tuple:
    """(exit code, error lines, stdout) of `gfusion.cli.main(argv)` in this
    process: the error lines are stderr's that start with ERROR_PREFIXES,
    argparse's exit is its code, a raise the code "raised <type>: <message>"."""
    from gfusion import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(out):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse
            code = exc.code
        except Exception as exc:  # a traceback the CLI contract forbids
            code = f"raised {type(exc).__name__}: {exc}"
    errors = [line for line in err.getvalue().splitlines() if line.startswith(ERROR_PREFIXES)]
    return code, errors, out.getvalue()


def diagonal(dim: int, re: float, im: float) -> dict:
    """The operator file of (re + i im) I on C^dim, every other entry 0.0."""
    return operator([[complex(re, im) if r == c else 0.0 for c in range(dim)]
                     for r in range(dim)])


def self_adjoint(dim: int) -> dict:
    """The control pair file of (w, w) on C^dim for w = I + E, E's entries
    of real and imaginary parts normal with deviation 0.1 / sqrt(dim) from
    the stream of `random.Random(dim)`: ||E|| is about 0.3, so w is
    well-conditioned."""
    rng, sd = random.Random(dim), 0.1 / math.sqrt(dim)
    w = operator([[float(i == j) + complex(rng.gauss(0.0, sd), rng.gauss(0.0, sd))
                   for j in range(dim)] for i in range(dim)])
    return {"t": w, "u": w}


def operator(rows: list) -> dict:
    """The operator file of a matrix given as a list of rows of numbers."""
    flat = [complex(z) for row in rows for z in row]
    return {"rows": len(rows), "cols": len(rows[0]), "re": [z.real for z in flat],
            "im": [z.imag for z in flat]}


def mixed(dim: int) -> tuple:
    """(family, second family, control pair) files of a frame on C^dim
    under a pair that is not self-adjoint.  Item j of min(ITEMS, dim) spans
    the columns j, j + m, ... of the unitary DFT matrix, as B_j with
    L_j = B_j*, under (2 I, D), D = diag(0.5 .. 1.5).  So S = 2 D,
    G_j = 2 P_j D, and the left terms D^-1 P_j D are not the adjoints P_j
    of the right ones: P_j does not commute with D, as a coordinate
    projector would.  The second family has the operators B_j* Z, Z = D + N
    with N the ones above the diagonal, so that sum-transform's two cross
    terms, read through C_j* C'_j = B_j* Z B_j and its adjoint, differ."""
    m = min(ITEMS, dim)
    dft = [[cmath.exp(-2j * cmath.pi * r * c / dim) / math.sqrt(dim) for c in range(dim)]
           for r in range(dim)]
    d = [0.5 + i / max(dim - 1, 1) for i in range(dim)]
    u = [[d[r] if r == c else 0.0 for c in range(dim)] for r in range(dim)]
    families = []
    for z in ([[float(r == c) for c in range(dim)] for r in range(dim)],
              [[d[r] if r == c else float(c == r + 1) for c in range(dim)] for r in range(dim)]):
        items = []
        for j in range(m):
            basis = [row[j::m] for row in dft]
            # L_j = B_j* Z
            lam = [[sum(b.conjugate() * z[r][c] for r, b in enumerate(col)) for c in range(dim)]
                   for col in zip(*basis)]
            items.append({"subspace": {"ambient_dim": dim, "basis": operator(basis)},
                          "lambda": operator(lam), "weight": 1.0})
        families.append({"ambient_dim": dim, "items": items})
    return (*families, {"t": diagonal(dim, 2.0, 0.0), "u": operator(u)})


def lanczos() -> tuple:
    """(family, control pair, k) files on C^n, n = LANCZOS_DIM: the
    coordinate partition into ITEMS items, B_j the columns j, j + m, ... of
    I and L_j = B_j*, under (I, I), and a dense k whose entries' real and
    imaginary parts are normal with deviation 1 / sqrt(2 n), from the stream
    of `random.Random(n)`, rounded to 4 decimals (a smaller file).  So S = I,
    and the Gram matrices of k and k - S are single blocks of side n."""
    n, sd = LANCZOS_DIM, 1.0 / math.sqrt(2 * LANCZOS_DIM)
    rng = random.Random(n)
    eye = [[float(r == c) for c in range(n)] for r in range(n)]
    bases = [[row[j::ITEMS] for row in eye] for j in range(ITEMS)]
    items = [{"subspace": {"ambient_dim": n, "basis": operator(b)},
              "lambda": operator([list(col) for col in zip(*b)]), "weight": 1.0} for b in bases]
    k = [[complex(round(rng.gauss(0.0, sd), 4), round(rng.gauss(0.0, sd), 4)) for _ in range(n)]
         for _ in range(n)]
    one = diagonal(n, 1.0, 0.0)
    return {"ambient_dim": n, "items": items}, {"t": one, "u": one}, operator(k)


def write_shared(shared: str) -> None:
    """Write the files of the grid that no structure writes, for each dim of
    DIMS, and the instance of `lanczos`, to the directory `shared`."""
    files = dict(zip((f"lanczos/{name}.json" for name in ("family", "control", "k")), lanczos()))
    for dim in DIMS:
        one = diagonal(dim, 1.0, 0.0)
        files.update({f"half{dim}.json": diagonal(dim, 0.5, 0.0),
                      f"rot{dim}.json": diagonal(dim, -0.5, 0.25),
                      f"negi{dim}.json": {"t": diagonal(dim, -1.0, 0.0),
                                          "u": diagonal(dim, 0.0, 1.0)},
                      f"neg{dim}.json": {"t": one, "u": diagonal(dim, -1.0, 0.0)},
                      f"nearreal{dim}.json": {"t": one, "u": diagonal(dim, 1.0, 1e-9)},
                      f"selfadj{dim}.json": self_adjoint(dim)})
        files.update(zip((f"mixed{dim}/{name}.json" for name in ("family", "family2", "control")),
                         mixed(dim)))
    for name, doc in files.items():
        path = os.path.join(shared, name)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        Path(path).write_text(json.dumps(doc))


def run_child(plan_path: str) -> None:
    """Make each run of the plan in this process (`run`), and write the log
    of each run's exit code, error lines and report."""
    plan = json.loads(Path(plan_path).read_text())
    sys.path.insert(0, os.path.join(plan["root"], "src"))
    log = {name: dict(zip(("exit", "errors", "report"), run(argv))) for name, argv in plan["runs"]}
    Path(plan["log"]).write_text(json.dumps(log))


def paired_structures() -> dict:
    """Each structure of `gfusion.generate.STRUCTURES` -> whether its
    `random` writes family2.json and pair_control.json (its instance has a
    second family)."""
    from gfusion.generate import STRUCTURES, random_instance

    return {s: random_instance(1, 1, 1, s).family2 is not None for s in STRUCTURES}


def structures(root: str) -> dict:
    """`paired_structures()` of the checkout at `root`."""
    code = (f"import json, sys; sys.path.insert(0, {os.path.dirname(os.path.abspath(__file__))!r})"
            "; import report_diff; print(json.dumps(report_diff.paired_structures()))")
    env = {**os.environ, "PYTHONPATH": os.path.join(os.path.abspath(root), "src")}
    out = subprocess.run([sys.executable, "-c", code], env=env, cwd=root, check=True,
                         capture_output=True, text=True)
    return json.loads(out.stdout)


def run_grid(root: str, runs: list, plan_stem: str) -> dict:
    """The log of `runs` made in one child process on the checkout at `root`
    (`plan_stem`-plan.json and -log.json)."""
    plan_path, log_path = f"{plan_stem}-plan.json", f"{plan_stem}-log.json"
    with open(plan_path, "w") as fh:
        json.dump({"root": os.path.abspath(root), "runs": runs, "log": log_path}, fh)
    subprocess.run([sys.executable, os.path.abspath(__file__), "--child", plan_path],
                   check=True, cwd=root)
    return json.loads(Path(log_path).read_text())


def files_under(top: str) -> dict:
    """Relative path -> bytes of every file under `top`."""
    paths = [os.path.join(path, name) for path, _, names in os.walk(top) for name in names]
    return {os.path.relpath(path, top): Path(path).read_bytes() for path in paths}


OPERATOR, SUBSPACE = {"rows", "cols", "re", "im"}, {"ambient_dim", "basis"}


def decoded(obj: dict) -> dict:
    """A JSON object, with an operator's `re` and `im` each as one float array
    (base64 of little-endian binary64, the writer's form, or numbers)."""
    if obj.keys() != OPERATOR:
        return obj
    return {**obj, **{key: np.frombuffer(base64.b64decode(obj[key], validate=True), "<f8")
                      if isinstance(obj[key], str) else np.asarray(obj[key], dtype=float)
                      for key in ("re", "im")}}


def canonical(text) -> str:
    """JSON text of a document, operators `decoded` and keys sorted: the same
    text exactly where the values are equal bit for bit (`repr` keeps them)."""
    return json.dumps(json.loads(text, object_hook=decoded), sort_keys=True,
                      default=np.ndarray.tolist)


def projector(subspace: dict) -> dict:
    """The operator object of B B*, B a subspace object's orthonormal (so
    finite) basis: any orthonormal basis of it gives B B* to rounding."""
    op = decoded(subspace["basis"])
    b = (op["re"] + 1j * op["im"]).reshape(op["rows"], op["cols"])
    p = b @ b.conj().T
    return {"rows": len(p), "cols": len(p), "re": p.real.ravel(), "im": p.imag.ravel()}


def move(x, y):
    """(largest |x - y| / max(|x|, |y|), largest |x - y|) over the entries that
    differ of two float arrays of one shape (-0.0 equals 0.0, nan nothing),
    None for `changed` (not finite; to or from nan); None where none differs."""
    differ = x != y
    if not differ.any():
        return None
    x, y = x[differ], y[differ]
    with np.errstate(all="ignore"):
        d = np.abs(x - y)
        rel = d / np.maximum(np.abs(x), np.abs(y))
    return (float(rel.max()) if np.isfinite(rel).all() else None,
            None if np.isnan(d).any() else float(d.max()))


def fold(prev, value):
    return None if value is None or prev is None else max(prev, value)


def compare_reports(a: dict, b: dict, moved: dict, command: str, scaled=None) -> bool:
    """Fold the fields that differ between the parsed reports a and b into
    `moved` (key "<command> <JSON path, list indices as []>" -> [reports,
    largest relative move]) and, where given, `scaled` (key -> largest move
    over a's scale, its largest finite |number|), None for `changed`; True
    when any differs.  Reports equal as parsed JSON (Python's `==`: `true`
    equals 1) are equal at once.  An operator's `re` and `im` compare as one
    array each, a subspace as its `projector`.  A value that is not a number
    is `changed` unless equal, and so is a list of another length
    (`<path>#len`).  Any other change of shape, and a list of objects or
    lists of another length, is the one field `<path> (structure)` of the
    first path where the shapes differ (a key added or removed: its path)."""
    if a == b:
        return False
    found, numbers, changed = {}, [[]], (None, None)  # field -> moves; a's numbers

    def note(key, change):
        if change:
            found[key] = tuple(map(fold, found.get(key, (0.0, 0.0)), change))

    def reshaped(path):
        if not any(key.endswith(" (structure)") for key in found):
            found[f"{path} (structure)"] = changed

    def walk(x, y, path):
        if isinstance(x, dict) and isinstance(y, dict) and x.keys() == y.keys() == SUBSPACE:
            walk(projector(x), projector(y), f"{path}.projector")
        elif isinstance(x, dict) and isinstance(y, dict) and x.keys() == y.keys():
            x, y = decoded(x), decoded(y)
            for name in x:
                walk(x[name], y[name], f"{path}.{name}" if path else name)
        elif isinstance(x, list) and isinstance(y, list) and len(x) == len(y):
            for i, j in zip(x, y):
                walk(i, j, f"{path}[]")
        elif isinstance(x, dict) and isinstance(y, dict):
            name = min(x.keys() ^ y.keys())
            reshaped(f"{path}.{name}" if path else name)
        elif isinstance(x, list) and isinstance(y, list):
            note(f"{path}#len", changed)
            if any(isinstance(v, (dict, list)) for v in x + y):  # items with fields of their own
                reshaped(path)
        elif isinstance(x, np.ndarray) and isinstance(y, np.ndarray) and x.shape == y.shape:
            numbers.append(x)
            note(f"{path}[]", move(x, y))
        elif any(isinstance(v, (dict, list, np.ndarray)) for v in (x, y)):
            reshaped(path)
        else:  # a number is an int or a float, never a bool
            numbers.append([x] if type(x) in (int, float) else [])
            if x != y or (type(x) is bool) != (type(y) is bool):
                note(path, move(np.array([x], dtype=float), np.array([y], dtype=float))
                     if {type(x), type(y)} <= {int, float} else changed)

    walk(a, b, "")
    scale = float(np.max(np.abs(x := np.concatenate(numbers)), where=np.isfinite(x), initial=0))
    for key, (rel, diff) in found.items():
        key = f"{command} {key}"
        entry = moved.setdefault(key, [0, 0.0])
        entry[:] = entry[0] + 1, fold(entry[1], rel)
        if scaled is not None:
            of_scale = None if diff is None else diff / scale if scale else math.inf
            scaled[key] = fold(scaled.get(key, 0.0), of_scale)
    return bool(found)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent")
    ap.add_argument("--change")
    ap.add_argument("--work", default=None, help="directory for the runs (default: a temp dir)")
    ap.add_argument("--child", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.child:
        run_child(args.child)
        return 0
    if not (args.parent and args.change):
        ap.error("--parent and --change are required")
    with (contextlib.nullcontext(args.work) if args.work
          else tempfile.TemporaryDirectory(prefix="report_diff-")) as work:
        return compare(os.path.abspath(work), args.parent, args.change)


def compare(work: str, parent: str, change: str) -> int:
    """Run the grid on the checkouts `parent` and `change` in the directory
    `work`, print the comparison and return the exit status."""
    shared = os.path.join(work, "shared")
    write_shared(shared)
    sides = {"parent": parent, "change": change}
    found = structures(parent)
    inputs = {side: os.path.join(work, side, "inputs") for side in sides}
    runs = grid(inputs["parent"], shared, found)
    reports = [(name, argv) for name, argv in runs if argv[0] != "random"]
    logs = {}
    for side, root in sides.items():  # its own instance files, then the parent's reports
        own = [(name, argv) for name, argv in grid(inputs[side], shared, found)
               if argv[0] == "random"]
        logs[side] = {**run_grid(root, own, os.path.join(work, f"{side}-random")),
                      **run_grid(root, reports, os.path.join(work, f"{side}-reports"))}

    differ, encoding, moved, scaled, reports_moved, bytes_only = 0, 0, {}, {}, 0, 0
    files = [files_under(inputs[side]) for side in sides]
    for path in sorted(set(files[0]) | set(files[1])):
        a, b = (side.get(path) for side in files)
        if a != b and None not in (a, b) and canonical(a) == canonical(b):
            encoding += 1
        elif a != b:
            differ += 1
            print(f"instance file differs: {path}")

    for name, _ in runs:
        a, b = (logs[side][name] for side in sides)
        if a["exit"] != b["exit"] or a["errors"] != b["errors"]:
            differ += 1
            print(f"run differs: {name}: parent {a['exit']} {a['errors']}, "
                  f"change {b['exit']} {b['errors']}")
        if a["report"] and b["report"]:
            differs = compare_reports(json.loads(a["report"]), json.loads(b["report"]), moved,
                                      name.partition(" ")[2], scaled)
            reports_moved += differs
            if not differs and a["report"] != b["report"]:
                same = canonical(a["report"]) == canonical(b["report"])
                encoding, bytes_only = encoding + same, bytes_only + (not same)

    print(f"{len(runs)} runs in {work}; {differ} instance files or runs differ; "
          f"{encoding} instance files or reports differ in operator encoding only; "
          f"{reports_moved} reports moved; {bytes_only} reports differ in bytes only")
    if moved:
        print("| field | reports moved | largest relative move | largest move / report scale |")
        print("| --- | --- | --- | --- |")
        for key, (count, rel) in sorted(moved.items()):
            cells = ("changed" if v is None else f"{v:.2e}" for v in (rel, scaled[key]))
            print(f"| `{key}` | {count} | {' | '.join(cells)} |")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
