"""Differences between the CLI reports of two checkouts on a grid of inputs.

    python3 scripts/report_diff.py --parent DIR --change DIR [--work DIR]

The grid is every structure of the parent's `gfusion.generate.STRUCTURES`
at each dim of `DIMS` and seed of `SEEDS`, with min(ITEMS, dim) items, and
the fixed `fourier-demo` runs of `FOURIER_DEMOS`: 674 runs for four
structures.  Each point is 21 runs: `gfusion random`, then the 20 report
commands of `report_runs` on its files and on the shared files of
`write_shared`:
- check-frame, bounds, thm 4.1, 4.2, 4.4, perturb (defaults, and
  lambda1 = 0.3, lambda2 = 0.1) and pair-op;
- atomic, under its own control pair and under the number pairs (I, -I)
  and (I, (1 + 1e-9 i) I), whose c = conj(c_t) c_u is not a positive real;
- resolutions, under its own control pair, under the shared dense pair
  (w, w) of `self_adjoint`, whose left terms are read as the adjoints of
  its right ones, and on the shared instance of `mixed`, a frame under a
  pair that is not self-adjoint, whose two sums are both formed;
- construct direct-sum, sum-transform and conjugate of the family with its
  second family (the family itself where the structure has none), with
  `--v k.json` (dense) and `--w` = 0.5 I (a number);
- sum-transform with `--v` = `--w` = 0.5 I, whose sum r = I is applied as
  a number, and on the two families of `mixed` under its pair, whose two
  cross terms differ, with `--v` = `--w` = (-0.5 + 0.25 i) I;
- construct direct-sum with `--control` the pair (-I, iI) given twice:
  number sides with a negative and an imaginary c, written back dense in
  its `control_out`.
Pair commands read `pair_control.json` where the structure writes one,
else `control.json`.  The `fourier-demo` runs read no instance file; they
sample the Fourier family through `frame_sum`, whose runs of items of one
shape take one product each (its one item that stands alone keeps its
factored form; `frame_sum` stacks such items only where two or more stand
alone).

Each checkout runs the grid in two child processes, one for its instance
files and one for its reports, with its own `src` first on `sys.path`,
calling `gfusion.cli.main` in process.  Both write their own instance
files, which are compared byte for byte; both run the report commands on
the parent's instance files, so that a moved report comes from the
command and not from its inputs.

It prints:
- every instance file that differs;
- every run whose exit code or `error:`/`verification error:` line differs;
- for each report field (command and JSON path, list indices dropped) that
  moved: the number of reports it moved in and its largest relative move
  |a - b| / max(|a|, |b|), or `changed` where a value that is not a number
  (a verdict, a null, a string, a list length) changed;
- the number of reports whose bytes differ while every value compares
  equal (a -0.0 for a 0.0, a 1 for a 1.0), on the summary line.

Exit status 1 when an instance file, an exit code or an error line
differs, else 0.  Standard library only; one child process at a time.
"""

from __future__ import annotations

import argparse
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

DIMS = (1, 2, 6, 16)
SEEDS = (1, 7)
ITEMS = 3
ERROR_PREFIXES = ("error:", "verification error:")
# (name, argv) of the fourier-demo runs, at two sizes of the Fourier family
FOURIER_DEMOS = tuple(
    (f"fourier-demo-{nmax}", ["fourier-demo", "--nmax", str(nmax), "--m", str(m),
                              "--alpha", alpha, "--beta", beta, "--trials", "50"])
    for nmax, m, alpha, beta in ((8, 2, "0.5", "0.9"), (24, 3, "0.6", "0.8"))
)


def report_runs(inst: str, shared: str, dim: int) -> list:
    """(name, argv) of the 20 report commands on the instance files in
    `inst`, with the files `write_shared` writes to `shared` for `dim`:
    `half` as the number 0.5 I, `rot` as (-0.5 + 0.25i) I, the control
    pairs `negi` (-I, iI), `neg` (I, -I), `nearreal` (I, (1 + 1e-9 i) I)
    and `selfadj` (w, w), and the instance `mixed<dim>/`; `--out` is
    appended by the caller."""
    def f(name):
        return os.path.join(inst, name)

    fam, ctl, k = f("family.json"), f("control.json"), f("k.json")
    fam2 = f("family2.json") if os.path.exists(f("family2.json")) else fam
    pctl = f("pair_control.json") if os.path.exists(f("pair_control.json")) else ctl
    half, rot, negi, neg, nearreal, selfadj = (
        os.path.join(shared, f"{name}{dim}.json")
        for name in ("half", "rot", "negi", "neg", "nearreal", "selfadj"))
    mfam, mfam2, mctl = (os.path.join(shared, f"mixed{dim}", f"{name}.json")
                         for name in ("family", "family2", "control"))
    one = ["--in", fam, "--control", ctl]
    pair = ["--in", fam, "--in", fam2, "--control", pctl]
    return [
        ("check-frame", ["check-frame", *one]),
        ("bounds", ["bounds", *one]),
        ("atomic", ["atomic", *one, "--k", k]),
        ("atomic-neg", ["atomic", "--in", fam, "--control", neg, "--k", k]),
        ("atomic-near-real", ["atomic", "--in", fam, "--control", nearreal, "--k", k]),
        ("resolutions", ["resolutions", *one]),
        ("resolutions-selfadj", ["resolutions", "--in", fam, "--control", selfadj]),
        ("resolutions-mixed", ["resolutions", "--in", mfam, "--control", mctl]),
        ("thm-4.1", ["thm", "4.1", *one]),
        ("thm-4.2", ["thm", "4.2", *one]),
        ("thm-4.4", ["thm", "4.4", *pair]),
        ("thm-perturb", ["thm", "perturb", *pair, "--trials", "50"]),
        ("thm-perturb-2", ["thm", "perturb", *pair, "--trials", "50", "--lambda1", "0.3",
                           "--lambda2", "0.1", "--seed", "3"]),
        ("pair-op", ["pair-op", *pair]),
        ("construct-direct-sum", ["construct", "direct-sum", "--in", fam, "--in", fam2,
                                  "--control", ctl, "--control", pctl, "--k", k, "--k", k]),
        ("construct-direct-sum-negi", ["construct", "direct-sum", "--in", fam, "--in", fam2,
                                       "--control", negi, "--control", negi, "--k", k,
                                       "--k", k]),
        ("construct-sum-transform", ["construct", "sum-transform", "--in", fam, "--in", fam2,
                                     "--control", ctl, "--k", k, "--v", k, "--w", half]),
        ("construct-sum-transform-scalar", ["construct", "sum-transform", "--in", fam,
                                            "--in", fam2, "--control", ctl, "--k", k,
                                            "--v", half, "--w", half]),
        ("construct-sum-transform-mixed", ["construct", "sum-transform", "--in", mfam,
                                           "--in", mfam2, "--control", mctl, "--k", half,
                                           "--v", rot, "--w", rot]),
        ("construct-conjugate", ["construct", "conjugate", "--in", fam, "--in", fam2,
                                 "--control", ctl, "--control", pctl, "--k", k, "--k", k,
                                 "--v", k, "--w", half]),
    ]


def diagonal(dim: int, re: float, im: float) -> dict:
    """The operator file of (re + i im) I on C^dim, every other entry 0.0."""
    return operator([[complex(re, im) if r == c else 0.0 for c in range(dim)]
                     for r in range(dim)])


def self_adjoint(dim: int) -> dict:
    """The control pair file of (w, w) on C^dim for w = I + E, E's entries
    of real and imaginary parts normal with deviation 0.1 / sqrt(dim) from
    the stream of `random.Random(dim)`: ||E|| is about 0.3, so w is
    well-conditioned."""
    rng = random.Random(dim)
    sd = 0.1 / math.sqrt(dim)
    e = [[complex(rng.gauss(0.0, sd), rng.gauss(0.0, sd)) for _ in range(dim)]
         for _ in range(dim)]
    w = [(1.0 if i == j else 0.0) + e[i][j] for i in range(dim) for j in range(dim)]
    side = {"rows": dim, "cols": dim, "re": [z.real for z in w], "im": [z.imag for z in w]}
    return {"t": side, "u": side}


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


def write_shared(shared: str) -> None:
    """Write the files of `report_runs` that no structure writes, for each
    dim of DIMS, to the directory `shared`."""
    for dim in DIMS:
        one = diagonal(dim, 1.0, 0.0)
        files = {f"half{dim}.json": diagonal(dim, 0.5, 0.0),
                 f"rot{dim}.json": diagonal(dim, -0.5, 0.25),
                 f"negi{dim}.json": {"t": diagonal(dim, -1.0, 0.0), "u": diagonal(dim, 0.0, 1.0)},
                 f"neg{dim}.json": {"t": one, "u": diagonal(dim, -1.0, 0.0)},
                 f"nearreal{dim}.json": {"t": one, "u": diagonal(dim, 1.0, 1e-9)},
                 f"selfadj{dim}.json": self_adjoint(dim)}
        files.update(zip((f"mixed{dim}/{name}.json" for name in ("family", "family2", "control")),
                         mixed(dim)))
        for name, doc in files.items():
            path = os.path.join(shared, name)
            os.makedirs(os.path.dirname(path), exist_ok=True)
            with open(path, "w") as fh:
                json.dump(doc, fh)


def run_child(plan_path: str) -> None:
    """Make each run of the plan through `gfusion.cli.main` in this
    process, and write the log of exit codes and error lines."""
    with open(plan_path) as fh:
        plan = json.load(fh)
    sys.path.insert(0, os.path.join(plan["root"], "src"))
    from gfusion import cli

    log = {}
    for name, argv in plan["runs"]:
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse
                code = exc.code
            except Exception as exc:  # a traceback the CLI contract forbids
                code = f"raised {type(exc).__name__}: {exc}"
        lines = [line for line in err.getvalue().splitlines() if line.startswith(ERROR_PREFIXES)]
        log[name] = {"exit": code, "errors": lines}
    with open(plan["log"], "w") as fh:
        json.dump(log, fh)


def structures(root: str) -> list:
    """`gfusion.generate.STRUCTURES` of the checkout at `root`."""
    code = "from gfusion.generate import STRUCTURES; print(*STRUCTURES)"
    env = {**os.environ, "PYTHONPATH": os.path.join(os.path.abspath(root), "src")}
    out = subprocess.run([sys.executable, "-c", code], env=env, cwd=root, check=True,
                         capture_output=True, text=True)
    return out.stdout.split()


def run_grid(root: str, runs: list, log_path: str, plan_path: str) -> dict:
    with open(plan_path, "w") as fh:
        json.dump({"root": os.path.abspath(root), "runs": runs, "log": log_path}, fh)
    subprocess.run([sys.executable, os.path.abspath(__file__), "--child", plan_path],
                   check=True, cwd=root)
    with open(log_path) as fh:
        return json.load(fh)


def leaves(value, path=""):
    """(path, value) of every leaf of a JSON value, list indices as `[]`;
    a list's length is a leaf of its own (`path#len`)."""
    if isinstance(value, dict):
        for key, item in value.items():
            yield from leaves(item, f"{path}.{key}" if path else key)
    elif isinstance(value, list):
        yield f"{path}#len", len(value)
        for item in value:
            yield from leaves(item, f"{path}[]")
    else:
        yield path, value


def is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def compare_reports(a: dict, b: dict, moved: dict, command: str) -> bool:
    """Fold the fields that differ between reports a and b into `moved`
    (key -> [reports, largest relative move or None for `changed`]);
    True when anything differs."""
    la, lb = list(leaves(a)), list(leaves(b))
    per_field = {}
    if [p for p, _ in la] != [p for p, _ in lb]:
        per_field[f"{command} (structure)"] = None
    else:
        for (path, x), (_, y) in zip(la, lb):
            if x == y and isinstance(x, bool) == isinstance(y, bool):
                continue
            key = f"{command} {path}"
            rel = None  # `changed`: not two numbers, or a move to or from inf or nan
            if is_number(x) and is_number(y) and not path.endswith("#len"):
                rel = abs(x - y) / max(abs(x), abs(y))
                rel = rel if math.isfinite(rel) else None
            prev = per_field.get(key, 0.0)
            per_field[key] = None if rel is None or prev is None else max(prev, rel)
    for key, rel in per_field.items():
        entry = moved.setdefault(key, [0, 0.0])
        entry[0] += 1
        entry[1] = None if rel is None or entry[1] is None else max(entry[1], rel)
    return bool(per_field)


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
    work = os.path.abspath(args.work or tempfile.mkdtemp(prefix="report_diff-"))
    shared = os.path.join(work, "shared")
    write_shared(shared)

    points = [(s, d, seed) for s in structures(args.parent) for d in DIMS for seed in SEEDS]
    logs = {"parent": {}, "change": {}}
    # the instance files first, so that the report runs see which files
    # the parent's structure writes
    for phase in ("random", "reports"):
        for side, root in (("parent", args.parent), ("change", args.change)):
            runs = []
            for s, d, seed in points:
                point = f"{s}-{d}-{seed}"
                if phase == "random":
                    runs.append((f"{point} random", [
                        "random", "--seed", str(seed), "--dim", str(d), "--items",
                        str(min(ITEMS, d)), "--structure", s,
                        "--out", os.path.join(work, side, "inputs", point)]))
                    continue
                inst = os.path.join(work, "parent", "inputs", point)
                for name, cmd in report_runs(inst, shared, d):
                    out = os.path.join(work, side, "reports", f"{point}-{name}.json")
                    runs.append((f"{point} {name}", [*cmd, "--out", out]))
            if phase == "reports":
                for name, cmd in FOURIER_DEMOS:
                    out = os.path.join(work, side, "reports", f"fourier-{name}.json")
                    runs.append((f"fourier {name}", [*cmd, "--out", out]))
            os.makedirs(os.path.join(work, side, "reports"), exist_ok=True)
            logs[side].update(run_grid(root, runs, os.path.join(work, f"{side}-{phase}-log.json"),
                                       os.path.join(work, f"{side}-{phase}-plan.json")))
    names = list(logs["parent"])

    differ = 0
    for s, d, seed in points:
        point = f"{s}-{d}-{seed}"
        dirs = [os.path.join(work, side, "inputs", point) for side in ("parent", "change")]
        files = sorted(set().union(*(os.listdir(p) for p in dirs if os.path.isdir(p))))
        for name in files:
            blobs = []
            for p in dirs:
                path = os.path.join(p, name)
                blobs.append(open(path, "rb").read() if os.path.exists(path) else None)
            if blobs[0] != blobs[1]:
                differ += 1
                print(f"instance file differs: {point}/{name}")

    moved, reports_moved, bytes_only = {}, 0, 0
    for name in names:
        a, b = logs["parent"][name], logs["change"][name]
        if a != b:
            differ += 1
            print(f"run differs: {name}: parent {a}, change {b}")
        point, _, command = name.partition(" ")
        if command == "random" or a["exit"] not in (0, 1) or b["exit"] not in (0, 1):
            continue
        paths = [os.path.join(work, side, "reports", f"{point}-{command}.json")
                 for side in ("parent", "change")]
        if not all(os.path.exists(p) for p in paths):
            continue
        blobs = []
        for p in paths:
            with open(p, "rb") as fh:
                blobs.append(fh.read())
        differs = compare_reports(*map(json.loads, blobs), moved, command)
        reports_moved += differs
        bytes_only += not differs and blobs[0] != blobs[1]

    print(f"{len(names)} runs on {len(points)} grid points and {len(FOURIER_DEMOS)} fourier-demo "
          f"runs in {work}; {differ} instance files or runs differ; {reports_moved} reports moved; "
          f"{bytes_only} reports differ in bytes only")
    if moved:
        print("| field | reports moved | largest relative move |")
        print("| --- | --- | --- |")
        for key, (count, rel) in sorted(moved.items()):
            print(f"| `{key}` | {count} | {'changed' if rel is None else f'{rel:.2e}'} |")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
