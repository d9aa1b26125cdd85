"""Set-up and library loops, each run in a fresh process by `run.py`.

    worker.py setup --workload W --seed S --dir D
        Generate and write the workload's inputs under D (library workloads
        also decode them) and print {"setup_s": ..., "env": {...}}.
    worker.py lib --workload W --seed S --dir D --seconds N --trace 0|1
        Set up as above, then run the closed loop in this process and print
        one JSON object with the per-operation records.

Set-up time is the process's CPU time up to the last decoded object,
interpreter start-up and `import gfusion` included.  Library operations are
timed by CPU time and scaled by an in-process reference task
(`reference_task`, `spec.Reference`).
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys
import time

import spec  # the benchmark's own module, next to this file
from spec import Outcome


# ------------------------------------------------------------------ set-up


def write_instance(d, inst):
    """Write an instance in the file layout of `gfusion random`."""
    from gfusion import serialize
    from gfusion.frames import ControlPair

    def write(name, obj):
        with open(os.path.join(d, name), "w") as fh:
            fh.write(serialize.dumps(obj))

    os.makedirs(d, exist_ok=True)
    write("family.json", serialize.family_to_dict(inst.family))
    write("control.json", serialize.control_pair_to_dict(inst.control))
    write("k.json", serialize.operator_to_dict(inst.k))
    if inst.family2 is not None:
        write("family2.json", serialize.family_to_dict(inst.family2))
        pair = ControlPair(inst.control.t, inst.control2.u)
        write("pair_control.json", serialize.control_pair_to_dict(pair))


def partition_instance(seed, dim, items):
    """Partition family in a random orthonormal basis under scalar controls.

    Item j spans every items-th column of a random unitary Q and maps onto
    its coordinates (Lambda_j = Q_j*), so S = alpha*beta*I exactly.
    """
    import numpy as np

    from gfusion.frames import ControlPair, FrameFamily
    from gfusion.generate import Instance
    from gfusion.linalg import Subspace

    rng = np.random.default_rng(seed)
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, _ = np.linalg.qr(g)
    fam = FrameFamily(
        dim, [(Subspace(dim, q[:, j::items]), q[:, j::items].conj().T, 1.0) for j in range(items)]
    )
    alpha, beta = rng.uniform(0.5, 2.0, size=2)
    k = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / np.sqrt(dim)
    return Instance(fam, ControlPair.scalars(dim, alpha, beta), k)


def instance_specs(workload):
    return {
        "cli-check": spec.CLI_CHECK_INSTANCES,
        "cli-emit": spec.CLI_EMIT_INSTANCES,
        "lib-dense": spec.LIB_DENSE_INSTANCES,
        "lib-sampling": spec.LIB_SAMPLING_INSTANCES,
    }[workload]


def setup(workload, seed, root):
    """Generate and write the inputs; library workloads also decode them."""
    from gfusion import generate

    labels = []
    for i, (label, structure, dim, items) in enumerate(instance_specs(workload)):
        inst = generate.random_instance(spec.instance_seed(seed, i), dim, items, structure)
        write_instance(os.path.join(root, label), inst)
        labels.append(label)
    if workload in spec.CLI_WORKLOADS:
        return None
    decoded = {label: decode(os.path.join(root, label)) for label in labels}
    if workload == "lib-dense":
        # Built in memory: the JSON path is already exercised at dim 64, and
        # writing these would double the set-up time.
        for i, (label, dim, items) in enumerate(spec.LIB_DENSE_PARTITIONS, start=len(labels)):
            inst = partition_instance(spec.instance_seed(seed, i), dim, items)
            decoded[label] = {"family": inst.family, "control": inst.control, "k": inst.k}
    return decoded


def decode(d):
    from gfusion import serialize

    def load(name):
        return serialize.load_json(os.path.join(d, name))

    inst = {
        "family": serialize.family_from_dict(load("family.json")),
        "control": serialize.control_pair_from_dict(load("control.json")),
        "k": serialize.operator_from_dict(load("k.json")),
    }
    if os.path.exists(os.path.join(d, "family2.json")):
        inst["family2"] = serialize.family_from_dict(load("family2.json"))
        inst["pair_control"] = serialize.control_pair_from_dict(load("pair_control.json"))
    return inst


def env_info():
    import ctypes
    import glob
    import platform

    import numpy as np

    import gfusion

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    config = None
    libdir = os.path.join(os.path.dirname(np.__file__), "..", "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "64_"), ("openblas", "")):
            getter = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            if getter is not None:
                getter.restype = ctypes.c_int
                threads = getter()
                cfg = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if cfg is not None:
                    cfg.restype = ctypes.c_char_p
                    config = cfg().decode()
                break
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_config": config,
        "blas_threads": threads,
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "gfusion_path": os.path.dirname(gfusion.__file__),
    }


# ------------------------------------------------------------- operations


class Checks:
    """Output checks and the accuracy residuals they observe (max per dim)."""

    def __init__(self):
        self.residuals = {}

    def note(self, name, dim, value):
        key = f"{name}.{dim}"
        self.residuals[key] = max(self.residuals.get(key, 0.0), float(value))


def _close(a, b, rel=spec.TOL_KNOWN):
    return abs(a - b) <= rel * max(abs(b), 1.0)


def dense_ops(inst, seed, checks):
    """The lib-dense cycle: [(label, thunk, check)], checks return bool."""
    import numpy as np

    from gfusion import constructions, frames, resolution
    from gfusion import tolerances as tol

    rng = np.random.default_rng(spec.instance_seed(seed, 999))
    ops = []

    def tier(label, dim, known):
        x = inst[label]
        fam, cp, k = x["family"], x["control"], x["k"]
        f = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        s = frames.frame_operator(fam, cp)
        sf = s @ f
        k_norm2 = float(np.linalg.norm(k, 2)) ** 2
        ev = np.linalg.eigvalsh(0.5 * (s + s.conj().T))
        slack = 1e-8 * max(abs(ev[0]), abs(ev[-1]))
        ab = known(cp) if known else None
        state = {}

        def check_cfb(rep):
            lo, hi = rep.bounds.lambda_min, rep.bounds.lambda_max
            ok = abs(lo - ev[0]) <= slack and abs(hi - ev[-1]) <= slack
            if ab is not None:
                ok = ok and rep.is_frame and _close(lo, ab) and _close(hi, ab)
            return ok and (rep.is_bessel or not rep.is_frame)

        def check_kgf(res):
            a_opt, b, is_kgf = res
            ok = abs(b - ev[-1]) <= slack and is_kgf == (a_opt > 0)
            if ab is not None:
                ok = ok and _close(a_opt, ab / k_norm2, 1e-8)
            return ok

        def check_atomic(rep):
            checks.note("frames.coefficient_residual", dim, rep.coefficient_residual)
            return rep.coefficient_residual <= tol.TOL_FACTOR

        def run_analysis():
            state["g"] = frames.analysis(fam, cp, f)
            return state["g"]

        def check_analysis(g):
            return _close(g.norm_sq(), float(np.vdot(f, sf).real), 1e-8)

        def check_synthesis(res):
            out, _ = res
            return np.linalg.norm(out - sf) <= tol.TOL_FACTOR * np.linalg.norm(sf)

        def check_canonical(res):
            _, _, rep_r, rep_l = res
            checks.note("resolution.resolution_residual", dim, max(rep_r.residual, rep_l.residual))
            return rep_r.converged and rep_l.converged

        full = [
            ("controlled_frame_bounds", lambda: frames.controlled_frame_bounds(fam, cp), check_cfb),
            ("kgf_bounds", lambda: frames.kgf_bounds(fam, cp, k), check_kgf),
            ("atomic_check", lambda: frames.atomic_check(fam, cp, k), check_atomic),
            ("analysis", run_analysis, check_analysis),
            ("synthesis", lambda: frames.synthesis(fam, cp, state["g"]), check_synthesis),
            ("canonical_resolutions", lambda: resolution.canonical_resolutions(fam, cp), check_canonical),
            ("inverse_commutation_check", lambda: resolution.inverse_commutation_check(fam, cp),
             lambda rep: rep.certified),
        ]
        return [(f"{name}@{label}", thunk, chk) for name, thunk, chk in full]

    # Generic draws are not Bessel: kgf_bounds and atomic_check raise on
    # them today.  They stay in the mix so that failure shows in failed_frac.
    ops += tier("generic", 32, None)[:3]
    ops += tier("scalar", 64, None)
    fam64, cp64, k64 = (inst["scalar"][key] for key in ("family", "control", "k"))
    half = np.eye(64, dtype=complex) / 2

    def check_sum(rep):
        # A family is not cross-orthogonal to itself: the commutation
        # certificates hold (r = I) and the cross-term ones must fail.
        certs = dict(rep.hypothesis_certificates)
        return (not rep.all_hypotheses_pass) and all(
            certs[n] <= tol.TOL_FACTOR for n in list(certs)[:3]
        )

    ops.append(("sum_transform@scalar",
                lambda: constructions.sum_transform(fam64, fam64, half, half, cp64, k64), check_sum))
    ops.append(_direct_sum_op("parseval", inst["parseval"], inst["parseval"]))

    def scalar_ab(cp):
        return float((cp.t[0, 0] * cp.u[0, 0]).real)

    ops += tier("part128", 128, scalar_ab)
    ops.append(_direct_sum_op("part128", inst["part128"], inst["part128"]))
    ops += tier("part256", 256, scalar_ab)
    return ops


def _direct_sum_op(label, a, b):
    from gfusion import constructions

    def check(rep):
        return (
            rep.all_hypotheses_pass
            and _close(rep.measured.lambda_min, rep.predicted_lower, 1e-8)
            and _close(rep.measured.lambda_max, rep.predicted_upper, 1e-8)
        )

    return (
        f"direct_sum_frame@{label}",
        lambda: constructions.direct_sum_frame(a["family"], a["control"], a["k"],
                                               b["family"], b["control"], b["k"]),
        check,
    )


def sampling_ops(inst, seed, checks):
    import numpy as np

    from gfusion import fourier, frames, resolution
    from gfusion.frames import ControlPair

    alpha, beta = spec.fourier_controls(seed)
    ops = []
    for i, (nmax, trials) in enumerate(spec.FOURIER_RUNS):
        params = fourier.FourierParams(nmax, 3, alpha, beta)

        def check_fourier(rep):
            # Optimal bounds are both alpha*beta, inside the paper's [ab, 1].
            ab = alpha * beta
            return rep.sandwich_ok and _close(rep.a_opt, ab) and _close(rep.upper, ab) and rep.upper <= 1

        ops.append((f"verify_fourier@{nmax}",
                    lambda p=params, t=trials, s=spec.instance_seed(seed, 500 + i):
                    fourier.verify_fourier(p, trials=t, seed=s),
                    check_fourier))

    # The generic pair is far from the identity: perturbation_check raises
    # HypothesisFailed instead of reporting, a failure kept in the mix.
    for i, label in enumerate(("near64", "near32", "generic32")):
        x = inst[label]
        fam, fam2, pc = x["family"], x.get("family2", x["family"]), x.get("pair_control", x["control"])
        d1 = frames.controlled_frame_bounds(fam, ControlPair(pc.t, pc.t)).bounds.lambda_max
        d2 = frames.controlled_frame_bounds(fam2, ControlPair(pc.u, pc.u)).bounds.lambda_max

        def run_perturb(fam=fam, fam2=fam2, pc=pc, d1=d1, d2=d2, s=spec.instance_seed(seed, 600 + i)):
            pair = resolution.pair_frame_operator(fam, pc.t, fam2, pc.u)
            return resolution.perturbation_check(pair, 0.1, 0.0, d1, d2, spec.PERTURB_TRIALS, s)

        def check_perturb(rep):
            return (
                rep.hyp_certified
                and rep.lower_gamma >= rep.lower_gamma_predicted - 1e-8
                and rep.lower_lambda >= rep.lower_lambda_predicted - 1e-8
            )

        ops.append((f"perturbation_check@{label}", run_perturb, check_perturb))

    rng = np.random.default_rng(spec.instance_seed(seed, 700))
    for label, fam, cp in (
        ("generic", inst["generic"]["family"], inst["generic"]["control"]),
        ("near64", inst["near64"]["family"], inst["near64"]["pair_control"]),
    ):
        s = frames.frame_operator(fam, cp)
        scale = float(np.linalg.norm(s, 2))
        for _ in range(spec.FRAME_SUM_VECTORS):
            f = rng.standard_normal(fam.ambient_dim) + 1j * rng.standard_normal(fam.ambient_dim)
            f /= np.linalg.norm(f)
            ref = complex(np.vdot(f, s @ f))
            ops.append((f"frame_sum@{label}",
                        lambda fam=fam, cp=cp, f=f: frames.frame_sum(fam, cp, f),
                        lambda fs, ref=ref, tol=1e-10 * max(scale, 1.0): abs(fs - ref) <= tol))
    return ops


def reference_task(workload):
    """The in-process reference task of a library workload.

    lib-dense: an SVD and an eigh at dim 128 and a sum of 32 block products,
    the shape of its operations.  lib-sampling: hundreds of small
    matrix-vector products in a Python loop.  numpy's functions are bound
    here, before tracing wraps numpy.linalg.  Returns a function that runs
    the task once and returns its CPU seconds.
    """
    import numpy as np

    svd, eigh = np.linalg.svd, np.linalg.eigh
    rng = np.random.default_rng(12345)

    def cmat(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    if workload == "lib-dense":
        a = cmat(128, 128)
        h = a @ a.conj().T
        blocks = [cmat(128, 4) for _ in range(32)]

        def work():
            svd(a)
            eigh(h)
            acc = np.zeros((128, 128), dtype=complex)
            for b in blocks:
                acc += b @ b.conj().T
    else:
        p = cmat(32, 32)
        v = cmat(32)

        def work():
            for _ in range(2400):
                w = p @ v
                float(np.vdot(w, w).real)

    def task():
        start = time.process_time()
        work()
        return time.process_time() - start

    return task


def run_op(thunk, check, rec=None):
    """Run one operation; returns (CPU seconds, outcome)."""
    from gfusion.errors import GFusionError

    start = time.process_time()
    try:
        result = thunk()
        latency = time.process_time() - start
    except GFusionError:
        return time.process_time() - start, Outcome.DEFECT
    except Exception:
        import traceback

        traceback.print_exc()
        return time.process_time() - start, Outcome.WRONG
    if rec is not None:
        rec.enabled = False
    try:
        ok = bool(check(result))
    finally:
        if rec is not None:
            rec.enabled = True
    return latency, Outcome.PASS if ok else Outcome.WRONG


def make_cycle(ops, reference, rec=None):
    serial = itertools.count()

    def cycle():
        for label, thunk, check in ops:
            if rec is not None:
                rec.op = (label, next(serial))
            cpu, outcome = run_op(thunk, check, rec)
            reference.add(label, cpu, outcome)
        return reference.flush()

    return cycle


# --------------------------------------------------------------- tracing


def baseline_rows(workload, spans):
    """Median inclusive times per operation label, with the named splits."""
    import tracer

    per_label = {}
    for op, totals in tracer.per_op_totals(spans).items():
        if op is not None:
            per_label.setdefault(op[0], []).append(totals)

    def med(label, name):
        vals = sorted(t.get(name, (0.0, 0.0))[0] for t in per_label.get(label, []))
        return 1000 * vals[len(vals) // 2] if vals else None

    rows = []
    if workload == "lib-dense":
        for label, size in (("scalar", "64/32"), ("part128", "128/4"), ("part256", "256/2")):
            rows.append({"row": f"frame_operator {size}",
                         "ms": med(f"controlled_frame_bounds@{label}", "frames.frame_operator")})
            for name, key in (("controlled_frame_bounds", "frames.controlled_frame_bounds"),
                              ("kgf_bounds", "frames.kgf_bounds"), ("analysis", "frames.analysis"),
                              ("synthesis", "frames.synthesis"),
                              ("canonical_resolutions", "resolution.canonical_resolutions"),
                              ("inverse_commutation_check", "resolution.inverse_commutation_check")):
                rows.append({"row": f"{name} {size}", "ms": med(f"{name}@{label}", key)})
            lab = f"atomic_check@{label}"
            rows.append({"row": f"atomic_check {size}", "ms": med(lab, "frames.atomic_check"),
                         "synthesis_matrix_ms": med(lab, "frames.synthesis_matrix"),
                         "pinv_ms": med(lab, "linalg.pinv")})
        for label, size in (("parseval", "64/32 parseval (+) 64/32 parseval"),
                            ("part128", "128/4 (+) 128/4")):
            rows.append({"row": f"direct_sum_frame {size}",
                         "ms": med(f"direct_sum_frame@{label}", "constructions.direct_sum_frame")})
    elif workload == "lib-sampling":
        for nmax, trials in spec.FOURIER_RUNS:
            rows.append({"row": f"verify_fourier nmax={nmax}, {trials} trials",
                         "ms": med(f"verify_fourier@{nmax}", "fourier.verify_fourier")})
        rows.append({"row": "frame_sum 64/32 generic", "ms": med("frame_sum@generic", "frames.frame_sum")})
    return rows


def synthesis_identity_residuals(inst, checks):
    import numpy as np

    from gfusion import frames

    for label, dim in (("scalar", 64), ("part128", 128), ("part256", 256)):
        fam, cp = inst[label]["family"], inst[label]["control"]
        t_c = frames.synthesis_matrix(fam, cp)
        s = frames.frame_operator(fam, cp)
        res = np.linalg.norm(t_c @ t_c.conj().T - s, 2) / np.linalg.norm(s, 2)
        checks.note("frames.synthesis_identity_residual", dim, res)


# ------------------------------------------------------------------- main


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("mode", choices=("setup", "lib"))
    ap.add_argument("--workload", required=True, choices=spec.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--dir", required=True)
    ap.add_argument("--seconds", type=float, default=1.0)
    ap.add_argument("--trace", type=int, default=0)
    args = ap.parse_args(argv)

    inst = setup(args.workload, args.seed, args.dir)
    out = {"setup_s": time.process_time(), "env": env_info()}
    if args.mode == "lib":
        out.update(library_loop(args, inst))
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


def library_loop(args, inst):
    import tracer

    checks = Checks()
    build = dense_ops if args.workload == "lib-dense" else sampling_ops
    ops = build(inst, args.seed, checks)
    pct = spec.TAIL_PERCENTILE[args.workload]

    reference = spec.Reference(reference_task(args.workload), spec.REF_NOMINAL_S[args.workload],
                               spec.REF_EVERY_S[args.workload])
    # Warm-up: the first call of each library function, outside the timing.
    first = {}
    for op in ops:
        first.setdefault(op[0].split("@")[0], op)
    warm, _ = spec.run_cycles(make_cycle(list(first.values()), reference), 0.0, max_cycles=1)
    out = {"warmup_wrong": sum(1 for r in warm if r[2] == Outcome.WRONG)}
    if not args.trace:
        records, cycles = spec.run_cycles(make_cycle(ops, reference), args.seconds, pct)
        out.update(records=records, cycles=cycles, reference=reference.summary())
        return out

    plain, cycles = spec.run_cycles(make_cycle(ops, reference), args.seconds / 2)
    rec = tracer.Recorder()
    tracer.install(rec)
    traced, _ = spec.run_cycles(make_cycle(ops, reference, rec), 0.0, max_cycles=cycles)
    rec.enabled = False
    if args.workload == "lib-dense":
        synthesis_identity_residuals(inst, checks)
    totals = tracer.LayerTotals()
    totals.ops = len(traced)
    totals.add(rec.spans, rec.counters)
    rec.write(args.dir + ".spans.json")
    out.update(
        records=plain,
        traced_records=traced,
        cycles=cycles,
        layers=totals.metrics(),
        residuals=checks.residuals,
        reference=reference.summary(),
        baseline=baseline_rows(args.workload, rec.spans),
    )
    return out


if __name__ == "__main__":
    sys.exit(main())
