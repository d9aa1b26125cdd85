"""Render the result files of one seed as a markdown baseline table.

    python3 perfbench/table.py --seed N [--results .perfbench/results]

Reads the untraced (trace0) and traced (trace1) result files that run.py
wrote for each workload and prints the end-to-end metrics, the per-stage
baseline rows, the accuracy residuals and the environment block.
"""

from __future__ import annotations

import argparse
import json
import os

import spec

E2E = ("setup_s", "ops_per_s", "latency_p50_ms", "latency_tail_ms", "failed_frac", "peak_rss_mb")


def load(results, workload, seed, trace):
    path = os.path.join(results, f"{workload}-seed{seed}-trace{trace}.json")
    if not os.path.exists(path):
        return None
    with open(path) as fh:
        return json.load(fh)


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--results", default=os.path.join(".perfbench", "results"))
    args = ap.parse_args(argv)

    runs = {w: (load(args.results, w, args.seed, 0), load(args.results, w, args.seed, 1))
            for w in spec.WORKLOADS}
    out = [f"# gfusion benchmark, seed {args.seed}", "",
           "## End to end (untraced run)", "",
           "| workload | " + " | ".join(E2E) + " | tail percentile |",
           "|---" * (len(E2E) + 2) + "|"]
    for w, (plain, _) in runs.items():
        if plain:
            m = plain["metrics"]
            detail = plain["end_to_end_detail"]
            out.append(f"| {w} | " + " | ".join(f"{m[k]['value']:.4g} {m[k]['unit']}" for k in E2E)
                       + f" | p{detail['tail_percentile']} of {detail['passed']} |")

    out += ["", "## Baseline rows (traced run, median over cycles, inclusive ms)", "",
            "| workload | row | ms | split |", "|---|---|---|---|"]
    for w, (_, traced) in runs.items():
        for row in (traced or {}).get("baseline_rows", []):
            split = ", ".join(f"{k[:-3]} {v:.1f}" for k, v in row.items()
                              if k.endswith("_ms") and v is not None)
            ms = "n/a" if row["ms"] is None else f"{row['ms']:.1f}"
            out.append(f"| {w} | {row['row']} | {ms} | {split} |")

    traced = runs["lib-dense"][1]
    if traced:
        out += ["", "## Accuracy residuals (lib-dense, max per dimension)", "",
                "| residual | 64 | 128 | 256 |", "|---|---|---|---|"]
        m = traced["metrics"]
        for name in ("frames.synthesis_identity_residual", "resolution.resolution_residual",
                     "frames.coefficient_residual"):
            out.append(f"| {name} | " + " | ".join(f"{m[f'{name}.{d}']['value']:.3g}" for d in (64, 128, 256))
                       + " |")

    out += ["", "## Reference tasks (untraced run)", "",
            "Times above are CPU times scaled to a core where the reference task takes its nominal time.", "",
            "| workload | set-up nominal | set-up median here | loop nominal | loop median here |",
            "|---|---|---|---|---|"]
    for w, (plain, _) in runs.items():
        if plain:
            r = plain["reference"]
            out.append(f"| {w} | {r['setup']['nominal_ms']:.0f} ms | {r['setup']['median_ms']:.1f} ms "
                       f"| {r['loop']['nominal_ms']:.0f} ms | {r['loop']['median_ms']:.1f} ms |")

    out += ["", "## Tracing overhead", ""]
    for w, (_, tr) in runs.items():
        if tr:
            out.append(f"- {w}: trace.overhead_frac = {tr['metrics']['trace.overhead_frac']['value']:.3f}")

    env = next((r["environment"] for pair in runs.values() for r in pair if r), None)
    if env:
        out += ["", "## Environment", ""]
        out += [f"- {k}: {v}" for k, v in env.items() if k not in ("workload", "run")]
    print("\n".join(out))


if __name__ == "__main__":
    main()
