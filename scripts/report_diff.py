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
instance files, which are compared by value, bit for bit; both run the
report commands on the parent's instance files, so that a moved report
comes from the command and not from its inputs.  Files and reports are
compared with every operator's entries decoded (`decoded`): an operator
written as base64 binary64 equals one written as lists of numbers with the
same values.

It prints:
- every instance file that differs in a value;
- every run whose exit code or `error:`/`verification error:` line differs;
- for each report field (command and JSON path, list indices dropped) that
  moved: the number of reports it moved in, its largest relative move
  |a - b| / max(|a|, |b|) and its largest move relative to the parent's
  report's scale, |a - b| / (its largest finite |number|), the scale
  `tests/test_routes.py` compares at, or `changed` where a value that is
  not a number (a verdict, a null, a string, a list length) changed;
- on the summary line, the number of instance files and reports whose
  values are equal bit for bit but whose operators are encoded otherwise,
  and the number of reports whose values differ in bits while every value
  compares equal (a -0.0 for a 0.0, a 1 for a 1.0): "bytes only".

Exit status 1 when an instance file, an exit code or an error line
differs, else 0.  Without `--work` the runs are made in a new temp dir,
removed once the comparison is printed; a `--work` dir is kept.  Standard
library only; one child process at a time.
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
import struct
import subprocess
import sys
import tempfile

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
        with open(path, "w") as fh:
            fh.write(json.dumps(doc))


def run_child(plan_path: str) -> None:
    """Make each run of the plan in this process (`run`), and write the log
    of each run's exit code, error lines and report."""
    with open(plan_path) as fh:
        plan = json.load(fh)
    sys.path.insert(0, os.path.join(plan["root"], "src"))
    log = {name: dict(zip(("exit", "errors", "report"), run(argv))) for name, argv in plan["runs"]}
    with open(plan["log"], "w") as fh:
        json.dump(log, fh)


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
    with open(log_path) as fh:
        return json.load(fh)


def files_under(top: str) -> dict:
    """Relative path -> bytes of every file under `top`."""
    out = {}
    for dirpath, _, names in os.walk(top):
        for name in names:
            with open(os.path.join(dirpath, name), "rb") as fh:
                out[os.path.relpath(fh.name, top)] = fh.read()
    return out


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


def decoded(value):
    """A JSON value with the entries of each operator object (`rows`,
    `cols`, `re`, `im`) as lists of numbers: a base64 string of
    little-endian binary64 values, the writer's form, is decoded; a list
    is kept."""
    if isinstance(value, list):
        return [decoded(item) for item in value]
    if not isinstance(value, dict):
        return value
    value = {key: decoded(item) for key, item in value.items()}
    if value.keys() == {"rows", "cols", "re", "im"}:
        for key in ("re", "im"):
            if isinstance(value[key], str):
                raw = base64.b64decode(value[key], validate=True)
                value[key] = list(struct.unpack(f"<{len(raw) // 8}d", raw))
    return value


def canonical(text) -> str:
    """JSON text of a document with its operators `decoded` and its keys
    sorted: two documents give the same text exactly where their values
    are equal bit for bit (`repr` keeps every float's bits)."""
    return json.dumps(decoded(json.loads(text)), sort_keys=True)


def is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def compare_reports(a: dict, b: dict, moved: dict, command: str, scaled=None) -> bool:
    """Fold the fields that differ between reports a and b, operators
    `decoded`, into `moved` (key -> [reports, largest relative move or None
    for `changed`]), and into `scaled`, where given, each field's largest
    move relative to a's scale, its largest finite |number| (key -> that
    move or None for `changed`); True when anything differs."""
    la, lb = list(leaves(decoded(a))), list(leaves(decoded(b)))
    scale = max((abs(v) for p, v in la if is_number(v) and not p.endswith("#len")
                 and math.isfinite(v)), default=0.0)
    per_field, per_scale = {}, {}
    if [p for p, _ in la] != [p for p, _ in lb]:
        # lists of other lengths show as their `#len` leaves; any other
        # change of shape (a key, a nesting) as the report's structure
        la, lb = ([(p, v) for p, v in side if p.endswith("#len")] for side in (la, lb))
        if [p for p, _ in la] != [p for p, _ in lb] or la == lb:
            per_field[f"{command} (structure)"] = None
            la = lb = []
    for (path, x), (_, y) in zip(la, lb):
        if x == y and isinstance(x, bool) == isinstance(y, bool):
            continue
        key = f"{command} {path}"
        # `changed`: not two numbers, or a move to or from nan; a move to or from
        # inf is `changed` relative to itself and an inf move relative to the scale
        rel = of_scale = None
        if is_number(x) and is_number(y) and not path.endswith("#len"):
            rel = abs(x - y) / max(abs(x), abs(y))
            rel = rel if math.isfinite(rel) else None
            if not math.isnan(x - y):
                of_scale = abs(x - y) / scale if scale else math.inf
        for fold, value in ((per_field, rel), (per_scale, of_scale)):
            prev = fold.get(key, 0.0)
            fold[key] = None if value is None or prev is None else max(prev, value)
    for key, rel in per_field.items():
        entry = moved.setdefault(key, [0, 0.0])
        entry[0] += 1
        entry[1] = None if rel is None or entry[1] is None else max(entry[1], rel)
        if scaled is not None:
            prev, value = scaled.get(key, 0.0), per_scale[key]
            scaled[key] = None if value is None or prev is None else max(prev, value)
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

    differ, encoding = 0, 0
    files = [files_under(inputs[side]) for side in sides]
    for path in sorted(set(files[0]) | set(files[1])):
        a, b = (side.get(path) for side in files)
        if a == b:
            continue
        if a is not None and b is not None and canonical(a) == canonical(b):
            encoding += 1
        else:
            differ += 1
            print(f"instance file differs: {path}")

    moved, scaled, reports_moved, bytes_only = {}, {}, 0, 0
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
                if canonical(a["report"]) == canonical(b["report"]):
                    encoding += 1
                else:
                    bytes_only += 1

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
