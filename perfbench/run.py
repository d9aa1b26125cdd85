"""gfusion benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the repository root.  The command generates the workload's inputs
from the seed, runs a closed loop with one client for S seconds, checks every
output, and prints one JSON object as its last line of output.  With
--trace 0 it reports the end-to-end metrics, with --trace 1 the per-layer
metrics of a traced run plus the tracing overhead.  A result file with an
environment block is written to .perfbench/results/.

Workloads (see spec.py for sizes):
  cli-check     cold `python -m gfusion.cli` reading inputs: start-up, JSON
                decode and validation dominate.
  cli-emit      cold processes writing large reports: encoding and dumping.
  lib-dense     one process calling the dense library layers at dim 64-256.
  lib-sampling  one process calling the sampling loops (Fourier, perturbation,
                frame sums), bound by per-call overhead.

Operations and set-ups are timed by their CPU time (user + system), scaled
by a reference task run between them (spec.Reference), because the speed of
a shared host can drift by up to 2x within seconds.  BLAS runs single-threaded
(OPENBLAS_NUM_THREADS=1 and friends) so that CPU time is the time a user
waits.  Standard library only; the program under test runs in child
processes.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

import spec
import tracer
from spec import Outcome

HERE = os.path.dirname(os.path.abspath(__file__))
OP_TIMEOUT = 60.0
LIB_TIMEOUT = 150.0
INSTANCE_FILES = ("family.json", "control.json", "k.json")


class BenchError(Exception):
    """The benchmark cannot run here (no program, or set-up failed)."""


# ---------------------------------------------------------------- processes


def child_env(root):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env.pop("PERFBENCH_SPANS", None)
    return env


def spawn(cmd, env, out_path, err_path, timeout):
    """Run a child to completion; returns (exit code, wall s, CPU s, peak RSS MB).

    CPU time is the user plus system time of the child and of any children
    it waited for."""
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL, stdout=out, stderr=err, env=env)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            timer.cancel()
            if proc.returncode is None:
                proc.kill()
                proc.wait()
        wall = time.perf_counter() - start
    return proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024


def read(path, mode="r"):
    with open(path, mode) as fh:
        return fh.read()


def worker(ctx, mode, d, extra=(), timeout=LIB_TIMEOUT):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), mode,
           "--workload", ctx.workload, "--seed", str(ctx.seed), "--dir", d, *extra]
    code, _, _, rss = spawn(cmd, ctx.env, d + ".out", d + ".err", timeout)
    err = read(d + ".err")
    if err:
        sys.stderr.write(err)
    if code != 0:
        raise BenchError(f"worker {mode} exited with {code}")
    return json.loads(read(d + ".out").strip().splitlines()[-1]), rss


def cold_reference(ctx):
    """The "cold" reference task: CPU seconds of a fresh `import numpy`."""
    err = os.path.join(ctx.work, "reference.err")
    code, _, cpu, _ = spawn([sys.executable, "-c", "import numpy"], ctx.env, os.devnull, err, OP_TIMEOUT)
    if code != 0:
        raise BenchError("reference task failed: " + read(err))
    return cpu


def tree_digest(d):
    h = hashlib.sha256()
    for base, dirs, files in sorted(os.walk(d)):
        dirs.sort()
        for name in sorted(files):
            h.update(os.path.relpath(os.path.join(base, name), d).encode())
            h.update(read(os.path.join(base, name), "rb"))
    return h.hexdigest()


# ---------------------------------------------------------------- CLI ops


def _f(x):
    return float(x)  # reports write +/-inf as strings


def _unit_bounds(rep):
    b = rep["bounds"]
    return abs(_f(b["lambda_min"]) - 1) <= spec.TOL_KNOWN and abs(_f(b["lambda_max"]) - 1) <= spec.TOL_KNOWN


def _construct_ok(rep):
    return rep["all_hypotheses_pass"] and _f(rep["measured"]["lambda_min"]) >= (
        _f(rep["predicted_lower"]) - 1e-6 * max(_f(rep["predicted_upper"]), 1.0)
    )


def _always(rep):
    return True


VERDICT = {
    "check-frame": lambda r: r["is_frame"],
    "bounds": lambda r: r["is_bessel"],
    "atomic": lambda r: r["is_atomic"],
    "thm-4.1": lambda r: r["certified"],
    "thm-4.2": lambda r: r["is_frame"],
    "resolutions": lambda r: r["right_multiplied"]["converged"] and r["left_multiplied"]["converged"],
    "construct": _construct_ok,
    "fourier-demo": lambda r: r["sandwich_ok"],
}


def cli_ops(ctx, inputs):
    """The fixed operation schedule of one cycle of a CLI workload."""
    out = os.path.join(ctx.work, "out")
    os.makedirs(out, exist_ok=True)
    ops = []

    def add(label, argv, verdict, known=_always, ref=None):
        path = os.path.join(out, label.replace(" ", "_").replace("@", "-"))
        ops.append({"label": label, "argv": [*argv, "--out", path], "out": path,
                    "verdict": verdict, "known": known, "ref": ref})

    def files(label, k=False):
        d = os.path.join(inputs, label)
        argv = ["--in", os.path.join(d, "family.json"), "--control", os.path.join(d, "control.json")]
        return argv + (["--k", os.path.join(d, "k.json")] if k else [])

    if ctx.workload == "cli-check":
        for label, structure, _, _ in spec.CLI_CHECK_INSTANCES:
            identity_control = structure in ("parseval", "near-identity-pair")
            for cmd in spec.CLI_CHECK_COMMANDS:
                name = "-".join(cmd)
                known = _unit_bounds if identity_control and name in ("check-frame", "bounds") else _always
                add(f"{' '.join(cmd)}@{label}", [*cmd, *files(label, name == "atomic")],
                    VERDICT[name], known)
        return ops

    _, structure, dim, items = spec.CLI_EMIT_INSTANCES[0]
    add("random@64x32", ["random", "--seed", str(spec.instance_seed(ctx.seed, 0)), "--dim", str(dim),
                         "--items", str(items), "--structure", structure],
        None, ref=os.path.join(inputs, "random"))

    def pair(label, extra=()):
        d = os.path.join(inputs, label)
        fam, ctl, k = (os.path.join(d, f) for f in INSTANCE_FILES)
        return ["--in", fam, "--in", fam, "--control", ctl, "--control", ctl, "--k", k, "--k", k, *extra]

    # One operation per command and input kind keeps the cycle short, so
    # that each operation runs several times in a run.  The generic draws
    # fail today (known defects).
    for name, label in (("direct-sum", "scalar"), ("conjugate", "parseval32"), ("direct-sum", "generic")):
        k = os.path.join(inputs, label, "k.json")
        extra = ("--w", k, "--v", k) if name == "conjugate" else ()
        add(f"construct {name}@{label}", ["construct", name, *pair(label, extra)], VERDICT["construct"])
    for label in ("parseval", "generic"):
        # A partition of the coordinates resolves the identity exactly.
        known = VERDICT["resolutions"] if label == "parseval" else _always
        add(f"resolutions@{label}", ["resolutions", *files(label)], VERDICT["resolutions"], known)
    alpha, beta = spec.fourier_controls(ctx.seed)
    for i, nmax in enumerate(spec.FOURIER_DEMO_NMAX):
        def known(rep, ab=alpha * beta):
            # Optimal bounds are both alpha*beta, inside the paper's [ab, 1].
            lo, hi = _f(rep["a_opt"]), _f(rep["upper"])
            return abs(lo - ab) <= spec.TOL_KNOWN and abs(hi - ab) <= spec.TOL_KNOWN and hi <= 1

        add(f"fourier-demo@{nmax}",
            ["fourier-demo", "--nmax", str(nmax), "--m", "3", "--alpha", repr(alpha), "--beta", repr(beta),
             "--trials", "100", "--seed", str(spec.instance_seed(ctx.seed, 800 + i))],
            VERDICT["fourier-demo"], known)
    return ops


class CliRunner:
    """Runs CLI operations as cold child processes and checks their output."""

    def __init__(self, ctx, ops, reference):
        self.ctx = ctx
        self.ops = ops
        self.reference = reference
        self.seen = {}  # label -> (digest, exit code) of the first run
        self.peak_rss = 0.0
        self.totals = tracer.LayerTotals()
        self.per_op = []  # (label, wall, {name: (incl, self)}) from traced runs
        self.problems = []

    def cycle(self, traced=False):
        for op in self.ops:
            cpu, outcome = self.run(op, traced)
            self.reference.add(op["label"], cpu, outcome)
        return self.reference.flush()

    def run(self, op, traced):
        ctx = self.ctx
        if os.path.isdir(op["out"]):
            shutil.rmtree(op["out"])
        elif os.path.exists(op["out"]):
            os.remove(op["out"])
        spans_path = os.path.join(ctx.work, "spans.json")
        env = ctx.env
        if traced:
            cmd = [sys.executable, os.path.join(HERE, "launcher.py"), *op["argv"]]
            env = dict(env, PERFBENCH_SPANS=spans_path)
        else:
            cmd = [sys.executable, "-m", "gfusion.cli", *op["argv"]]
        err_path = os.path.join(ctx.work, "stderr.txt")
        code, wall, cpu, rss = spawn(cmd, env, os.devnull, err_path, OP_TIMEOUT)
        self.peak_rss = max(self.peak_rss, rss)
        outcome = self.classify(op, code, read(err_path))
        if traced and os.path.exists(spans_path):
            self.record_spans(op["label"], wall, json.loads(read(spans_path)))
            os.remove(spans_path)
        return cpu, outcome

    def record_spans(self, label, wall, data):
        spans = [tuple(s) for s in data["spans"]]
        covered = sum(end - start for _, start, end, parent, _ in spans if parent < 0)
        self.totals.ops += 1
        self.totals.add(spans, data["counters"])
        self.totals.self_s["cli.process"] += wall - covered
        self.per_op.append((label, wall, tracer.per_op_totals(spans).get(None, {})))

    def classify(self, op, code, err):
        label = op["label"]
        defect = code == 1 and err.startswith("verification error:")
        if op["ref"] is not None:  # `random`: files must equal the library's
            if code != 0:
                return self.wrong(label, code, err, defect)
            ok = all(read(os.path.join(op["out"], f), "rb") == read(os.path.join(op["ref"], f), "rb")
                     for f in INSTANCE_FILES)
            return Outcome.PASS if ok else self.wrong(label, code, "output differs from library")
        if not os.path.exists(op["out"]):
            return self.wrong(label, code, err, defect)
        if code not in (0, 1):
            return self.wrong(label, code, err)
        data = read(op["out"], "rb")
        key = (hashlib.sha256(data).hexdigest(), code)
        first = self.seen.setdefault(label, key)
        if first != key:
            return self.wrong(label, code, "report differs from the first run")
        if first is key:  # first run of this operation: full check
            rep = json.loads(data)
            if (code == 0) != bool(op["verdict"](rep)):
                return self.wrong(label, code, "verdict disagrees with exit code")
            if not op["known"](rep):
                return self.wrong(label, code, "known answer not reproduced")
        return Outcome.PASS

    def wrong(self, label, code, why, defect=False):
        if defect:
            return Outcome.DEFECT
        self.problems.append(f"{label}: exit {code}: {why.strip()[:200]}")
        return Outcome.WRONG


def cli_baseline(workload, per_op):
    def med(values):
        values = sorted(values)
        return 1000 * values[len(values) // 2] if values else None

    def rows_for(label, row, parts):
        ops = [(wall, t) for lab, wall, t in per_op if lab == label]
        if not ops:
            return []
        entry = {"row": row, "ms": med(w for w, _ in ops)}
        for part, fn in parts.items():
            entry[part + "_ms"] = med(fn(t) for _, t in ops)
        entry["other_ms"] = entry["ms"] - sum(entry[p + "_ms"] for p in parts)
        return [entry]

    def incl(t, *names):
        return sum(t.get(n, (0.0, 0.0))[0] for n in names)

    def self_of(t, *names):
        return sum(t.get(n, (0.0, 0.0))[1] for n in names)

    encode = tracer.LAYER_METRICS["serialize.encode_ms"][2]
    if workload == "cli-check":
        return rows_for("check-frame@generic", "gfusion check-frame 64/32 generic, end to end", {
            "import": lambda t: incl(t, "cli.import"),
            "load_decode": lambda t: incl(t, "serialize.load_json", "serialize.family_from_dict",
                                          "serialize.control_pair_from_dict"),
            "compute": lambda t: incl(t, "frames.controlled_frame_bounds"),
            "dump": lambda t: self_of(t, *encode) + incl(t, "cli._write_report"),
        })
    return rows_for("random@64x32", "gfusion random --dim 64 --items 32, end to end", {
        "import": lambda t: incl(t, "cli.import"),
        "generate": lambda t: incl(t, "generate.random_instance"),
        "encode": lambda t: self_of(t, *encode),
        "dump": lambda t: incl(t, "serialize.dumps"),
    })


# ------------------------------------------------------------------ driver


class Context:
    def __init__(self, args, root):
        self.workload = args.workload
        self.seed = args.seed
        self.seconds = args.seconds
        self.trace = args.trace
        self.root = root
        self.env = child_env(root)
        self.work = os.path.join(root, ".perfbench", f"{args.workload}-seed{args.seed}-trace{args.trace}")


def setup_runs(ctx):
    """Warm up, then run the set-up-only children; returns a result dict.

    Each set-up is timed by its scaled CPU time (`spec.Reference`, with the
    cold reference run between set-ups)."""
    err = os.path.join(ctx.work, "warmup.err")
    code, _, _, _ = spawn([sys.executable, "-c", "import gfusion.cli"], ctx.env, os.devnull, err, OP_TIMEOUT)
    if code != 0:
        raise BenchError("cannot import gfusion.cli: " + read(err))
    ref = spec.Reference(lambda: cold_reference(ctx), spec.REF_NOMINAL_S["cold"], 0.0)
    digests, env = [], {}
    for i in range(spec.SETUP_REPEATS):
        d = os.path.join(ctx.work, f"setup{i}")
        res, _ = worker(ctx, "setup", d)
        ref.add("setup", res["setup_s"], Outcome.PASS)
        env = res["env"]
        digests.append(tree_digest(d))
    times = [r[1] for r in ref.flush()]
    return {"setup_times": times, "env": env, "setup_deterministic": len(set(digests)) == 1,
            "setup_reference": ref.summary()}


def run_cli(ctx):
    res = setup_runs(ctx)
    inputs = os.path.join(ctx.work, "setup0")
    reference = spec.Reference(lambda: cold_reference(ctx), spec.REF_NOMINAL_S["cold"],
                               spec.REF_EVERY_S[ctx.workload])
    runner = CliRunner(ctx, cli_ops(ctx, inputs), reference)
    pct = spec.TAIL_PERCENTILE[ctx.workload]
    if not ctx.trace:
        records, cycles = spec.run_cycles(runner.cycle, ctx.seconds, pct)
        res.update(records=records, cycles=cycles, peak_rss_mb=runner.peak_rss)
    else:
        plain, cycles = spec.run_cycles(runner.cycle, ctx.seconds / 2)
        traced, _ = spec.run_cycles(lambda: runner.cycle(traced=True), 0.0, max_cycles=cycles)
        res.update(records=plain, traced_records=traced, cycles=cycles,
                   layers=runner.totals.metrics(), residuals={},
                   baseline=cli_baseline(ctx.workload, runner.per_op))
    res["problems"] = runner.problems
    res["reference"] = reference.summary()
    return res


def run_lib(ctx):
    res = setup_runs(ctx)
    d = os.path.join(ctx.work, "inputs")
    loop, rss = worker(ctx, "lib", d, ["--seconds", str(ctx.seconds), "--trace", str(ctx.trace)])
    if tree_digest(d) != tree_digest(os.path.join(ctx.work, "setup0")):
        res["setup_deterministic"] = False
    loop.pop("setup_s")
    loop.pop("env")
    res.update(loop)
    res["peak_rss_mb"] = rss
    res["problems"] = [f"{r[0]}: wrong output" for r in res["records"] + res.get("traced_records", [])
                       if r[2] == Outcome.WRONG]
    if res.pop("warmup_wrong"):
        res["problems"].append("wrong output during warm-up")
    return res


def environment(ctx, env):
    cpu = None
    try:
        for line in read("/proc/cpuinfo").splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        **env,
        "gfusion_path": os.path.relpath(env.get("gfusion_path", ""), ctx.root),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "git_commit": git_commit(ctx.root),
        "seed": ctx.seed,
        "workload": ctx.workload,
        "seconds": ctx.seconds,
        "run": "traced" if ctx.trace else "untraced",
    }


def git_commit(root):
    head = os.path.join(root, ".git", "HEAD")
    try:
        ref = read(head).strip()
        if not ref.startswith("ref: "):
            return ref
        path = os.path.join(root, ".git", ref[5:])
        if os.path.exists(path):
            return read(path).strip()
        for line in read(os.path.join(root, ".git", "packed-refs")).splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    except OSError:
        pass
    return None


def metric(value, unit):
    return {"value": value, "unit": unit}


def report(ctx, res):
    """Build the metrics, print them and write the result file."""
    e2e = spec.end_to_end(res["records"], spec.TAIL_PERCENTILE[ctx.workload])
    problems = list(res["problems"])
    if not res["setup_deterministic"]:
        problems.append("set-up wrote different inputs for the same seed")
    lines = [f"gfusion benchmark: workload {ctx.workload}, seed {ctx.seed}, "
             f"{res['cycles']} cycles, {e2e['attempted']} operations"]
    if not ctx.trace:
        metrics = {
            "setup_s": metric(statistics.median(res["setup_times"]), "s"),
            "ops_per_s": metric(e2e["ops_per_s"], "1/s"),
            "latency_p50_ms": metric(e2e["latency_p50_ms"], "ms"),
            "latency_tail_ms": metric(e2e["latency_tail_ms"], "ms"),
            "failed_frac": metric(e2e["failed_frac"], "1"),
            "peak_rss_mb": metric(res["peak_rss_mb"], "MB"),
        }
        records = res["records"]
        loop_ref = res["reference"]
        lines.append(f"  times are CPU times scaled to a core where the loop's reference task takes "
                     f"{loop_ref['nominal_ms']:.0f} ms (it took {loop_ref['median_ms']:.1f} ms here, "
                     f"median of {loop_ref['runs']} runs)")
        for name, m in metrics.items():
            note = ""
            if name == "latency_tail_ms":
                note = (f"  (p{e2e['tail_percentile']} of {e2e['passed']} passed operations, "
                        f"{e2e['tail_beyond']} beyond it)")
            lines.append(f"  {name:<18} {m['value']:>12.4f} {m['unit']}{note}")
    else:
        records = res["records"] + res["traced_records"]
        plain = sum(r[1] for r in res["records"])
        traced = sum(r[1] for r in res["traced_records"])
        metrics = dict(res["layers"])
        for name in ("frames.synthesis_identity_residual", "resolution.resolution_residual",
                     "frames.coefficient_residual"):
            for dim in (64, 128, 256):
                key = f"{name}.{dim}"
                metrics[key] = metric(res["residuals"].get(key, 0.0), "1")
        metrics["trace.overhead_frac"] = metric((traced - plain) / plain if plain > 0 else 0.0, "1")
        lines.append(f"  per operation over {len(res['traced_records'])} traced operations; "
                     "0 = layer not exercised by this workload")
        for name, m in metrics.items():
            lines.append(f"  {name:<44} {m['value']:>14.6g} {m['unit']}")
        if res["baseline"]:
            lines.append("  baseline rows (median over cycles, inclusive ms):")
            for row in res["baseline"]:
                parts = ", ".join(f"{k} {v:.1f}" for k, v in row.items()
                                  if k not in ("row", "ms") and v is not None)
                ms = "n/a" if row["ms"] is None else f"{row['ms']:.1f}"
                lines.append(f"    {row['row']}: {ms} ms" + (f" ({parts})" if parts else ""))
    attempted = len(records)
    failed = sum(1 for r in records if r[2] != Outcome.PASS)
    correct = not problems and all(r[2] != Outcome.WRONG for r in records)
    for p in problems:
        lines.append(f"  WRONG: {p}")

    env = environment(ctx, res.get("env", {}))
    result = {
        "environment": env,
        "metrics": {k: {**v, "run": env["run"]} for k, v in metrics.items()},
        "end_to_end_detail": e2e if not ctx.trace else None,
        "setup_times_s": res["setup_times"],
        "reference": {"setup": res["setup_reference"], "loop": res["reference"]},
        "baseline_rows": res.get("baseline", []),
        "problems": problems,
        "operations": [[r[0], r[1], r[2], r[3]] for r in records],
    }
    results_dir = os.path.join(ctx.root, ".perfbench", "results")
    os.makedirs(results_dir, exist_ok=True)
    path = os.path.join(results_dir, f"{ctx.workload}-seed{ctx.seed}-trace{ctx.trace}.json")
    with open(path, "w") as fh:
        json.dump(result, fh, indent=1)
    lines.append(f"  result file: {os.path.relpath(path, ctx.root)}")
    print("\n".join(lines))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v["value"], "unit": v["unit"]} for k, v in metrics.items()}}))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=spec.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "gfusion", "cli.py")):
        print("error: run from the repository root; src/gfusion is missing", file=sys.stderr)
        return 2
    ctx = Context(args, root)
    shutil.rmtree(ctx.work, ignore_errors=True)
    os.makedirs(ctx.work)
    try:
        res = run_cli(ctx) if ctx.workload in spec.CLI_WORKLOADS else run_lib(ctx)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    env_path = res.get("env", {}).get("gfusion_path", "")
    if not os.path.abspath(env_path).startswith(os.path.join(root, "src")):
        print(f"error: gfusion was imported from {env_path}, not from this checkout", file=sys.stderr)
        return 1
    report(ctx, res)
    shutil.rmtree(ctx.work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
