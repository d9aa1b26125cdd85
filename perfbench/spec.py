"""Workload definitions and the closed-loop driver shared by every process.

Standard library only.  The orchestrator (`run.py`) imports this without
numpy; the library worker (`worker.py`) imports it with numpy loaded.
"""

from __future__ import annotations

import math
import random
import statistics

TOL_KNOWN = 1e-9  # relative slack on known answers (unit bounds, alpha*beta)

# Instance sets.  Sizes are fixed per workload so that a seed changes the
# drawn content, never the cost mix; the seed alone picks the numbers.
# Each entry: (label, structure, dim, items).
CLI_CHECK_INSTANCES = (
    ("generic", "generic", 64, 32),
    ("scalar", "scalar-controls", 32, 16),
    ("parseval", "parseval", 16, 8),
    ("near", "near-identity-pair", 8, 4),
)
CLI_CHECK_COMMANDS = (("check-frame",), ("bounds",), ("atomic",), ("thm", "4.1"), ("thm", "4.2"))

CLI_EMIT_INSTANCES = (
    ("random", "generic", 64, 32),          # reference output of `gfusion random`
    ("scalar", "scalar-controls", 32, 16),
    ("parseval", "parseval", 64, 32),
    ("parseval32", "parseval", 32, 16),
    ("generic", "generic", 32, 16),
)
FOURIER_DEMO_NMAX = (16, 24)

LIB_DENSE_INSTANCES = (
    ("generic", "generic", 32, 16),
    ("scalar", "scalar-controls", 64, 32),
    ("parseval", "parseval", 64, 32),
)
# Partition families the benchmark builds itself (generate caps dim at 64):
# (label, dim, items).  Known answer: S = alpha*beta*I.
LIB_DENSE_PARTITIONS = (("part128", 128, 4), ("part256", 256, 2))

LIB_SAMPLING_INSTANCES = (
    ("near64", "near-identity-pair", 64, 32),
    ("near32", "near-identity-pair", 32, 16),
    ("generic", "generic", 64, 32),
    ("generic32", "generic", 32, 16),
)
FOURIER_RUNS = ((16, 400), (32, 100))  # (nmax, trials)
PERTURB_TRIALS = 2000
FRAME_SUM_VECTORS = 32

# Tail percentile per workload: the highest percentile that had at least ten
# passed operations beyond it in a run of BENCHMARK.json's run_seconds when the
# benchmark was defined (cli-emit passes fewer than 30 operations in such a
# run, so it runs about twice as long).  It is fixed so that two commits
# compare the same percentile; the loop runs on until ten passed operations
# lie beyond it.
TAIL_PERCENTILE = {"cli-check": 75, "cli-emit": 66, "lib-dense": 90, "lib-sampling": 95}
WORKLOADS = tuple(TAIL_PERCENTILE)
CLI_WORKLOADS = ("cli-check", "cli-emit")

SETUP_REPEATS = 3
MAX_LOOP_SECONDS = 100.0  # hard stop that keeps a run inside its time limit

# Reference tasks (see `Reference`).  "cold" is a fresh `python -c "import
# numpy"` process, the reference for set-up and for the CLI workloads; the
# library workloads use in-process tasks shaped like their own operations
# (worker.py).  Each nominal time is about the task's median CPU time in
# benchmark runs on a two-vCPU "Intel(R) Xeon(R) Processor" virtual machine,
# and it fixes the unit of every reported time: seconds on a core where the
# reference takes that long.
REF_NOMINAL_S = {"cold": 0.170, "lib-dense": 0.012, "lib-sampling": 0.011}
# Operation CPU time between two reference runs, per workload.
REF_EVERY_S = {"cli-check": 0.8, "cli-emit": 0.8, "lib-dense": 0.4, "lib-sampling": 0.2}


def instance_seed(seed: int, index: int) -> int:
    return (seed * 1000 + index) % 2**63


def fourier_controls(seed: int):
    """Scalar controls (alpha, beta) with alpha*beta <= 1, drawn from the seed."""
    rng = random.Random(seed)
    return rng.uniform(0.3, 0.9), rng.uniform(0.3, 0.9)


class Outcome:
    PASS = "pass"
    DEFECT = "defect"  # a known defect: exit 1 without a report, or a GFusionError
    WRONG = "wrong"    # wrong or inconsistent output, crash, or bad exit code


class Reference:
    """Scales operation times by a reference task interleaved with them.

    On a shared host the CPU's speed can drift by up to 2x within seconds
    (seen on a two-vCPU virtual machine), and a whole run can land in a slow
    phase; the program and a fixed task of the same kind slow down together.  The reference runs once at the start,
    again after every `every_s` seconds of operation time and at the end of
    each cycle.  An operation's time is scaled by `nominal_s` over the
    median of the two reference runs before it and the two after it, so it
    reads as its time on a core where the reference takes `nominal_s`.
    `task()` runs the reference once and returns its CPU seconds.
    """

    def __init__(self, task, nominal_s, every_s):
        self.task = task
        self.nominal = nominal_s
        self.every = every_s
        self.runs = [task()]
        self.pending = []  # (label, CPU s, outcome, index of the run before it)
        self.since = 0.0

    def add(self, label, cpu_s, outcome):
        """Queue one operation, and run the reference if it is due."""
        self.pending.append((label, cpu_s, outcome, len(self.runs) - 1))
        self.since += cpu_s
        if self.since >= self.every:
            self.runs.append(self.task())
            self.since = 0.0

    def flush(self):
        """End a cycle: scale the queued operations and return their records.

        Records are (label, scaled s, outcome, CPU s)."""
        if self.pending and self.pending[-1][3] == len(self.runs) - 1:
            self.runs.append(self.task())
        out = []
        for label, cpu, outcome, before in self.pending:
            local = statistics.median(self.runs[max(0, before - 1):before + 3])
            out.append((label, cpu * self.nominal / local, outcome, cpu))
        self.pending, self.since = [], 0.0
        return out

    def summary(self):
        runs = sorted(self.runs)
        return {"nominal_ms": 1000 * self.nominal, "runs": len(runs),
                "median_ms": 1000 * statistics.median(runs),
                "min_ms": 1000 * runs[0], "max_ms": 1000 * runs[-1]}


def run_cycles(cycle, seconds, percentile=None, max_cycles=None):
    """Closed loop with one client over whole cycles of a fixed schedule.

    `cycle()` runs one cycle and returns [(label, latency_s, outcome, ...)].  The
    loop stops at a cycle boundary once the timed total reaches `seconds` and,
    when `percentile` is given, at least ten passed operations lie beyond it.
    Whole cycles keep every run's operation mix identical.
    """
    records = []
    cycles = 0
    while True:
        records.extend(cycle())
        cycles += 1
        if max_cycles is not None:
            if cycles >= max_cycles:
                break
            continue
        timed = sum(r[1] for r in records)
        if timed >= MAX_LOOP_SECONDS:
            break
        if timed < seconds:
            continue
        passed = sum(1 for r in records if r[2] == Outcome.PASS)
        if percentile is None or passed * (100 - percentile) >= 1000:
            break
    return records, cycles


def nearest_rank(sorted_values, pct):
    if not sorted_values:
        return math.nan
    rank = max(1, math.ceil(pct / 100 * len(sorted_values)))
    return sorted_values[rank - 1]


def end_to_end(records, percentile):
    """The latency, throughput and failure metrics of one untraced loop.

    Times are the scaled CPU times of `Reference`.  Every operation runs
    once per cycle, so each has several timings in a run; it is timed by
    their median, which keeps a transient stall of the machine from moving
    the run's figures.  Throughput is passed operations per cycle over the
    cycle time built from those medians.
    """
    by_label = {}
    for label, latency, *_ in records:
        by_label.setdefault(label, []).append(latency)
    typical = {label: statistics.median(v) for label, v in by_label.items()}
    passed = sorted(typical[r[0]] for r in records if r[2] == Outcome.PASS)
    timed = sum(typical[r[0]] for r in records)
    failed = sum(1 for r in records if r[2] != Outcome.PASS)
    n = len(passed)
    return {
        "ops_per_s": n / timed if timed > 0 else 0.0,
        "latency_p50_ms": 1000 * statistics.median(passed) if n else math.nan,
        "latency_tail_ms": 1000 * nearest_rank(passed, percentile),
        "failed_frac": failed / max(len(records), 1),
        "tail_percentile": percentile,
        "tail_beyond": n - max(1, math.ceil(percentile / 100 * n)) if n else 0,
        "passed": n,
        "attempted": len(records),
        "failed": failed,
        "wrong": sum(1 for r in records if r[2] == Outcome.WRONG),
        "timed_s": sum(r[1] for r in records),
        "cpu_s": sum(r[3] for r in records),
    }
