"""Command-line front end.

Every command reads JSON inputs, runs its verification, writes a
machine-readable report (stdout or --out), and exits 0 when all asserted
properties pass, 1 on a verification failure (the report is still written),
and 2 on input or parse errors.  Reports are deterministic functions of
(inputs, seed, tolerances).
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from . import constructions, fourier, frames, generate, resolution, serialize
from . import tolerances
from .errors import GFusionError, InvalidParameters, ParseError
from .frames import ControlPair
from .linalg import SpectralInterval, opnorm


def _finite(x):
    if x is None:
        return None
    x = float(x)
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return x


def _interval(iv: SpectralInterval):
    return {"lambda_min": _finite(iv.lambda_min), "lambda_max": _finite(iv.lambda_max)}


def _write_report(report: dict, out_path):
    text = serialize.dumps(report)
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _apply_tolerance_overrides(pairs):
    for spec in pairs or []:
        if "=" not in spec:
            raise ParseError(f"--tol expects name=value, got {spec!r}")
        name, value = spec.split("=", 1)
        if name not in tolerances.DEFAULTS:
            raise ParseError(f"unknown tolerance {name!r}")
        setattr(tolerances, name.upper(), float(value))


def _load_family(path):
    return serialize.family_from_dict(serialize.load_json(path))


def _load_control(path):
    return serialize.control_pair_from_dict(serialize.load_json(path))


def _load_operator(path):
    return serialize.operator_from_dict(serialize.load_json(path))


def _frame_report_dict(rep: frames.FrameReport) -> dict:
    return {
        "is_bessel": rep.is_bessel,
        "is_frame": rep.is_frame,
        "bounds": _interval(rep.bounds),
        "herm_residual": rep.herm_residual,
        "s_c": serialize.operator_to_dict(rep.s_c),
    }


def cmd_check_frame(args) -> int:
    fam = _load_family(args.inputs[0])
    cp = _load_control(args.control[0])
    rep = frames.controlled_frame_bounds(fam, cp)
    _write_report({"command": "check-frame", **_frame_report_dict(rep)}, args.out)
    return 0 if rep.is_frame else 1


def cmd_bounds(args) -> int:
    fam = _load_family(args.inputs[0])
    cp = _load_control(args.control[0])
    rep = frames.controlled_frame_bounds(fam, cp)
    _write_report({"command": "bounds", **_frame_report_dict(rep)}, args.out)
    return 0 if rep.is_bessel else 1


def cmd_atomic(args) -> int:
    fam = _load_family(args.inputs[0])
    cp = _load_control(args.control[0])
    k = _load_operator(args.k[0])
    rep = frames.atomic_check(fam, cp, k)
    report = {
        "command": "atomic",
        "is_atomic": rep.is_atomic,
        "bessel_bound": _finite(rep.bessel_bound),
        "coefficient_norm_bound": _finite(rep.coefficient_norm_bound),
        "lower_bound": _finite(rep.lower_bound),
        "coefficient_residual": rep.coefficient_residual,
        "literal_residual": rep.literal_residual,
    }
    _write_report(report, args.out)
    return 0 if rep.is_atomic else 1


def _transform_report_dict(command, rep: constructions.TransformReport) -> dict:
    return {
        "command": command,
        "predicted_lower": _finite(rep.predicted_lower),
        "predicted_upper": _finite(rep.predicted_upper),
        "measured": _interval(rep.measured),
        "hypothesis_certificates": [
            {"name": name, "residual": res} for name, res in rep.hypothesis_certificates
        ],
        "all_hypotheses_pass": rep.all_hypotheses_pass,
        "family_out": serialize.family_to_dict(rep.family_out),
        "control_out": serialize.control_pair_to_dict(rep.control_out),
        "k_out": serialize.operator_to_dict(rep.k_out),
    }


def cmd_construct(args) -> int:
    kind = args.kind
    if kind == "sum-transform":
        famL = _load_family(args.inputs[0])
        famG = _load_family(args.inputs[1])
        cp = _load_control(args.control[0])
        k = _load_operator(args.k[0])
        v = _load_operator(args.v)
        w = _load_operator(args.w)
        rep = constructions.sum_transform(famL, famG, v, w, cp, k)
    else:
        famH = _load_family(args.inputs[0])
        famX = _load_family(args.inputs[1])
        cpH = _load_control(args.control[0])
        cpX = _load_control(args.control[1])
        kH = _load_operator(args.k[0])
        kX = _load_operator(args.k[1])
        if kind == "direct-sum":
            rep = constructions.direct_sum_frame(famH, cpH, kH, famX, cpX, kX)
        else:
            w = _load_operator(args.w)
            v = _load_operator(args.v)
            rep = constructions.conjugate_transform(famH, cpH, kH, famX, cpX, kX, w, v)
    ok = rep.all_hypotheses_pass and rep.measured.lambda_min >= (
        rep.predicted_lower - 1e-6 * max(rep.predicted_upper, 1.0)
    )
    _write_report(_transform_report_dict(f"construct-{kind}", rep), args.out)
    return 0 if ok else 1


def cmd_pair_op(args) -> int:
    famL = _load_family(args.inputs[0])
    famG = _load_family(args.inputs[1])
    cp = _load_control(args.control[0])
    pair = resolution.pair_frame_operator(famL, cp.t, famG, cp.u)
    sw = resolution.swapped(pair)
    scale = max(opnorm(pair.matrix), 1e-300)
    adjoint_residual = opnorm(pair.matrix.conj().T - sw.matrix) / scale
    report = {
        "command": "pair-op",
        "matrix": serialize.operator_to_dict(pair.matrix),
        "adjoint_residual": adjoint_residual,
    }
    _write_report(report, args.out)
    return 0 if adjoint_residual <= 1e-12 else 1


def cmd_resolutions(args) -> int:
    fam = _load_family(args.inputs[0])
    cp = _load_control(args.control[0])
    right, left, rep_r, rep_l = resolution.canonical_resolutions(fam, cp)
    report = {
        "command": "resolutions",
        "right_multiplied": {
            "residual": rep_r.residual,
            "term_count": rep_r.term_count,
            "converged": rep_r.converged,
        },
        "left_multiplied": {
            "residual": rep_l.residual,
            "term_count": rep_l.term_count,
            "converged": rep_l.converged,
        },
        "terms_right": [serialize.operator_to_dict(term) for term in right],
        "terms_left": [serialize.operator_to_dict(term) for term in left],
    }
    _write_report(report, args.out)
    return 0 if (rep_r.converged and rep_l.converged) else 1


def cmd_thm(args) -> int:
    which = args.which
    if which == "4.1":
        fam = _load_family(args.inputs[0])
        cp = _load_control(args.control[0])
        rep = resolution.inverse_commutation_check(fam, cp)
        report = {
            "command": "thm-4.1",
            "resolution_residual": rep.resolution.residual,
            "lower": rep.lower,
            "upper": rep.upper,
            "predicted_lower": rep.predicted_lower,
            "predicted_upper": rep.predicted_upper,
            "commutation_residual": rep.commutation_residual,
            "certified": rep.certified,
        }
        _write_report(report, args.out)
        return 0 if rep.certified else 1
    if which == "4.2":
        fam = _load_family(args.inputs[0])
        cp = _load_control(args.control[0])
        rep = resolution.bessel_resolution_frame_check(fam, cp.t, cp.u)
        report = {
            "command": "thm-4.2",
            "lower": rep.lower,
            "upper": rep.upper,
            "is_frame": rep.is_frame,
            "predicted_lower": rep.predicted_lower,
            "predicted_upper": rep.predicted_upper,
            "resolution_residual": rep.resolution_residual,
        }
        _write_report(report, args.out)
        return 0 if rep.is_frame else 1
    if which == "4.4":
        famL = _load_family(args.inputs[0])
        famG = _load_family(args.inputs[1])
        cp = _load_control(args.control[0])
        pair = resolution.pair_frame_operator(famL, cp.t, famG, cp.u)
        d = frames.controlled_frame_bounds(
            famG, ControlPair(cp.u, cp.u)
        ).bounds.lambda_max
        rep = resolution.coercive_pair_check(pair, d)
        report = {
            "command": "thm-4.4",
            "m": rep.m,
            "predicted_lower": rep.predicted_lower,
            "measured_lower": rep.measured_lower,
            "is_frame": rep.is_frame,
            "gamma_bessel_bound": d,
        }
        _write_report(report, args.out)
        return 0 if rep.is_frame else 1
    # perturb
    famL = _load_family(args.inputs[0])
    famG = _load_family(args.inputs[1])
    cp = _load_control(args.control[0])
    pair = resolution.pair_frame_operator(famL, cp.t, famG, cp.u)
    d1 = args.d1
    d2 = args.d2
    if d1 is None:
        d1 = frames.controlled_frame_bounds(
            famL, ControlPair(cp.t, cp.t)
        ).bounds.lambda_max
    if d2 is None:
        d2 = frames.controlled_frame_bounds(
            famG, ControlPair(cp.u, cp.u)
        ).bounds.lambda_max
    rep = resolution.perturbation_check(
        pair, args.lambda1, args.lambda2, d1, d2, trials=args.trials, seed=args.seed
    )
    ok = rep.hyp_certified and rep.lower_gamma >= rep.lower_gamma_predicted - 1e-8
    if rep.lower_lambda is not None:
        ok = ok and rep.lower_lambda >= rep.lower_lambda_predicted - 1e-8
    report = {
        "command": "thm-perturb",
        "hyp_certified": rep.hyp_certified,
        "lower_gamma": rep.lower_gamma,
        "lower_gamma_predicted": rep.lower_gamma_predicted,
        "lower_lambda": _finite(rep.lower_lambda),
        "lower_lambda_predicted": _finite(rep.lower_lambda_predicted),
        "worst_sample_slack": rep.worst_sample_slack,
    }
    _write_report(report, args.out)
    return 0 if ok else 1


def cmd_fourier_demo(args) -> int:
    params = fourier.FourierParams(args.nmax, args.m, args.alpha, args.beta)
    rep = fourier.verify_fourier(params, trials=args.trials, seed=args.seed)
    report = {
        "command": "fourier-demo",
        "a_opt": _finite(rep.a_opt),
        "upper": _finite(rep.upper),
        "is_kgf": rep.is_kgf,
        "sandwich_ok": rep.sandwich_ok,
        "trials": rep.trials,
        "worst_lower_slack": rep.worst_lower_slack,
        "worst_upper_slack": rep.worst_upper_slack,
        "family": serialize.family_to_dict(rep.family),
        "control": serialize.control_pair_to_dict(rep.control),
        "k": serialize.operator_to_dict(rep.k),
    }
    _write_report(report, args.out)
    return 0 if rep.sandwich_ok else 1


def cmd_random(args) -> int:
    inst = generate.random_instance(args.seed, args.dim, args.items, args.structure)
    import os

    os.makedirs(args.out_dir, exist_ok=True)

    def write(name, obj):
        with open(os.path.join(args.out_dir, name), "w") as fh:
            fh.write(serialize.dumps(obj))

    write("family.json", serialize.family_to_dict(inst.family))
    write("control.json", serialize.control_pair_to_dict(inst.control))
    write("k.json", serialize.operator_to_dict(inst.k))
    if inst.family2 is not None:
        write("family2.json", serialize.family_to_dict(inst.family2))
        # combined pair control (t from the first, u from the second)
        write(
            "pair_control.json",
            serialize.control_pair_to_dict(
                ControlPair(inst.control.t, inst.control2.u)
            ),
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gfusion",
        description="Verification toolkit for controlled g-fusion frames",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, inputs=1, controls=1, ks=0):
        p.add_argument("--in", dest="inputs", action="append", required=inputs > 0,
                       default=[], help="input family JSON (repeatable)")
        p.add_argument("--control", action="append", required=controls > 0,
                       default=[], help="control pair JSON (repeatable)")
        if ks:
            p.add_argument("--k", action="append", required=True, default=[],
                           help="tied operator JSON (repeatable)")
        p.add_argument("--out", default=None, help="report output path")
        p.add_argument("--tol", action="append", default=[],
                       metavar="NAME=VALUE", help="tolerance override")

    p = sub.add_parser("check-frame", help="verify the controlled frame property")
    add_common(p)
    p.set_defaults(func=cmd_check_frame)

    p = sub.add_parser("bounds", help="optimal frame bounds")
    add_common(p)
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("atomic", help="atomic-subspace verdict for an operator")
    add_common(p, ks=1)
    p.set_defaults(func=cmd_atomic)

    p = sub.add_parser("construct", help="frame-building transforms")
    p.add_argument("kind", choices=["direct-sum", "sum-transform", "conjugate"])
    add_common(p, inputs=2, controls=1, ks=1)
    p.add_argument("--v", help="operator JSON for the transform")
    p.add_argument("--w", help="operator JSON for the transform")
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("pair-op", help="frame operator for a pair of families")
    add_common(p, inputs=2)
    p.set_defaults(func=cmd_pair_op)

    p = sub.add_parser("resolutions", help="canonical resolutions of the identity")
    add_common(p)
    p.set_defaults(func=cmd_resolutions)

    p = sub.add_parser("thm", help="theorem-level verification checks")
    p.add_argument("which", choices=["4.1", "4.2", "4.4", "perturb"])
    add_common(p, inputs=1, controls=1)
    p.add_argument("--lambda1", type=float, default=0.1)
    p.add_argument("--lambda2", type=float, default=0.0)
    p.add_argument("--d1", type=float, default=None)
    p.add_argument("--d2", type=float, default=None)
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_thm)

    p = sub.add_parser("fourier-demo", help="truncated Fourier worked example")
    p.add_argument("--nmax", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.add_argument("--tol", action="append", default=[], metavar="NAME=VALUE")
    p.set_defaults(func=cmd_fourier_demo)

    p = sub.add_parser("random", help="generate a seeded instance")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--dim", type=int, default=6)
    p.add_argument("--items", type=int, default=3)
    p.add_argument("--structure", choices=generate.STRUCTURES, default="generic")
    p.add_argument("--out", dest="out_dir", required=True, help="output directory")
    p.add_argument("--tol", action="append", default=[], metavar="NAME=VALUE")
    p.set_defaults(func=cmd_random)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _apply_tolerance_overrides(args.tol)
        return args.func(args)
    except (ParseError, InvalidParameters) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except GFusionError as exc:
        print(f"verification error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
