"""A/B benchmark of two checkouts: alternating pairs of perfbench runs.

    python3 scripts/bench_ab.py --parent DIR --change DIR --out BENCH_<n>.json \
        [--workload W ...] [--pairs N] [--seed S] [--seconds T]

Each pair runs `python3 perfbench/run.py --workload W --seed S --seconds T
--trace 0` once in the parent checkout and once in the change checkout, in
each checkout's own directory, and alternates which side runs first from
one pair to the next.  The output file holds:

- `environment`: numpy, the BLAS library, its version and thread count,
  the CPU and the number of CPUs, as the first run's result file reports
  them;
- `workloads.<W>.<metric>`: the parent's and the change's median over the
  pairs, the parent's interquartile range, the ratio change / parent of the
  medians, the number of pairs the change won (by the metric's `better`
  direction in BENCHMARK.json) and every value;
- `runs_correct`: whether every run printed `"correct": true`.

After writing the file it prints one markdown table per workload: each
metric's parent median (IQR), change median, ratio and pairs won.

Standard library only.  Runs one benchmark process at a time.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

ENV_KEYS = ("python", "numpy", "blas_name", "blas_version", "blas_config", "blas_threads",
            "blas_threads_env", "nproc", "cpu_model")


def run_once(root, workload, seed, seconds):
    """The last JSON line perfbench prints, and the environment block of the
    result file it writes."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=root, capture_output=True, text=True, check=False)
    lines = [line for line in proc.stdout.splitlines() if line.startswith("{")]
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"perfbench failed in {root} ({workload}):\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    path = os.path.join(root, ".perfbench", "results", f"{workload}-seed{seed}-trace0.json")
    with open(path) as fh:
        env = json.load(fh)["environment"]
    return result, {key: env.get(key) for key in ENV_KEYS}


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def summarize(pairs, better):
    """Per metric: medians, the parent's IQR, the ratio and the pairs won."""
    out = {}
    for name, lower_is_better in better.items():
        a = [p[0]["metrics"][name]["value"] for p in pairs if name in p[0]["metrics"]]
        b = [p[1]["metrics"][name]["value"] for p in pairs if name in p[1]["metrics"]]
        if not a or len(a) != len(b):
            continue
        med_a, med_b = statistics.median(a), statistics.median(b)
        lo, hi = quartiles(a)
        won = sum((y < x) if lower_is_better else (y > x) for x, y in zip(a, b))
        out[name] = {
            "unit": pairs[0][0]["metrics"][name]["unit"],
            "better": "lower" if lower_is_better else "higher",
            "parent_median": med_a,
            "change_median": med_b,
            "parent_iqr": hi - lo,
            "ratio": med_b / med_a if med_a else None,
            "pairs_won": won,
            "pairs": len(a),
            "parent": a,
            "change": b,
        }
    return out


def markdown(report):
    """The per-workload tables of a report, as markdown lines."""
    lines = []
    for workload, entry in report["workloads"].items():
        lines += [f"{workload} ({entry['pairs']} pairs)", "",
                  "| metric | parent median (IQR) | change median | ratio | pairs won |",
                  "| --- | --- | --- | --- | --- |"]
        for name, m in entry["metrics"].items():
            ratio = "-" if m["ratio"] is None else f"{m['ratio']:.3f}"
            lines.append(
                f"| {name} ({m['unit']}, {m['better']} is better) "
                f"| {m['parent_median']:.4g} ({m['parent_iqr']:.3g}) | {m['change_median']:.4g} "
                f"| {ratio} | {m['pairs_won']} of {m['pairs']} |")
        lines.append("")
    return lines


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, help="checkout of the parent commit")
    ap.add_argument("--change", required=True, help="checkout of the change")
    ap.add_argument("--out", required=True, help="output JSON path")
    ap.add_argument("--workload", action="append", default=[], help="repeatable; default all")
    ap.add_argument("--pairs", type=int, default=5)
    ap.add_argument("--seed", type=int, default=2121)
    ap.add_argument("--seconds", type=float, default=12.0)
    args = ap.parse_args(argv)

    with open(os.path.join(args.change, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    better = {m["name"]: m["better"] == "lower" for m in bench["end_to_end"]}
    workloads = args.workload or [w["name"] for w in bench["workloads"]]

    report = {"seed": args.seed, "seconds": args.seconds, "environment": None,
              "workloads": {}, "runs_correct": True}
    for workload in workloads:
        pairs = []
        for i in range(args.pairs):
            sides = [("parent", args.parent), ("change", args.change)]
            if i % 2:
                sides.reverse()
            got = {}
            for side, root in sides:
                result, env = run_once(root, workload, args.seed, args.seconds)
                got[side] = result
                report["environment"] = report["environment"] or env
                report["runs_correct"] &= bool(result.get("correct"))
            pairs.append((got["parent"], got["change"]))
            print(f"{workload} pair {i + 1}/{args.pairs}: ops_per_s "
                  f"{got['parent']['metrics']['ops_per_s']['value']:.3f} -> "
                  f"{got['change']['metrics']['ops_per_s']['value']:.3f}", flush=True)
        report["workloads"][workload] = {"pairs": len(pairs), "metrics": summarize(pairs, better)}
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")
    print("\n".join(markdown(report)))
    return 0 if report["runs_correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
