"""Command-line front end.

Every command reads JSON inputs, runs its verification, writes a
machine-readable report (stdout or --out), and exits 0 when all asserted
properties pass, 1 on a verification failure (the report is still written),
and 2 on input or parse errors.  Reports are deterministic functions of
(inputs, seed, tolerances).
"""

from __future__ import annotations

import argparse
import os
import sys

from . import constructions, fourier, frames, generate, resolution, serialize
from . import tolerances as tol
from .errors import GFusionError, InvalidParameters, ParseError
from .frames import ControlPair


def _report(command, rep):
    """A command's report: `command` and the fields of the library report
    `rep`, through `serialize.to_json`."""
    return {"command": command, **serialize.to_json(rep)}


def _write_report(report: dict, out_path):
    text = serialize.dumps(report)
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# The files each command reads: counts of --in, --control and --k, and
# whether it reads --v and --w.  fourier-demo and random read none.
FILES = {
    "check-frame": (1, 1, 0, False),
    "bounds": (1, 1, 0, False),
    "resolutions": (1, 1, 0, False),
    "thm 4.1": (1, 1, 0, False),
    "thm 4.2": (1, 1, 0, False),
    "atomic": (1, 1, 1, False),
    "pair-op": (2, 1, 0, False),
    "thm 4.4": (2, 1, 0, False),
    "thm perturb": (2, 1, 0, False),
    "construct sum-transform": (2, 1, 1, True),
    "construct direct-sum": (2, 2, 2, False),
    "construct conjugate": (2, 2, 2, True),
}


def _check_files(args):
    """Raise ParseError unless the command is given exactly the files it reads."""
    name = " ".join(
        filter(None, (args.command, getattr(args, "kind", None), getattr(args, "which", None)))
    )
    if name not in FILES:
        return
    *counts, reads_vw = FILES[name]
    for flag, files, want in zip(
        ("--in", "--control", "--k"),
        (args.inputs, args.control, getattr(args, "k", [])),
        counts,
    ):
        if len(files) != want:
            raise ParseError(f"{name} reads {want} {flag} file(s), got {len(files)}")
    for flag in ("--v", "--w"):
        if (getattr(args, flag[2:], None) is not None) != reads_vw:
            raise ParseError(
                f"{name} requires {flag}" if reads_vw else f"{name} does not read {flag}"
            )


def _load_family(path):
    return serialize.family_from_dict(serialize.load_json(path))


def _load_control(path):
    return serialize.control_pair_from_dict(serialize.load_json(path))


def _load_operator(path):
    return serialize.operator_from_dict(serialize.load_json(path))


def cmd_check_frame(args):
    fam = _load_family(args.inputs[0])
    cp = _load_control(args.control[0])
    rep = frames.controlled_frame_bounds(fam, cp)
    return _report("check-frame", rep), rep.is_frame


def cmd_bounds(args):
    fam = _load_family(args.inputs[0])
    cp = _load_control(args.control[0])
    rep = frames.controlled_frame_bounds(fam, cp)
    return _report("bounds", rep), rep.is_bessel


def cmd_atomic(args):
    fam = _load_family(args.inputs[0])
    cp = _load_control(args.control[0])
    k = _load_operator(args.k[0])
    rep = frames.atomic_check(fam, cp, k)
    return _report("atomic", rep), rep.is_atomic


def cmd_construct(args):
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
    return _report(f"construct-{kind}", rep), rep.verified


def _load_pair(args):
    """The pair operator of the two --in families under --control's (t, u)."""
    famL = _load_family(args.inputs[0])
    famG = _load_family(args.inputs[1])
    cp = _load_control(args.control[0])
    return resolution.pair_frame_operator(famL, cp.t, famG, cp.u)


def cmd_pair_op(args):
    rep = resolution.adjoint_check(_load_pair(args))
    return _report("pair-op", rep), rep.is_adjoint


def cmd_resolutions(args):
    fam = _load_family(args.inputs[0])
    cp = _load_control(args.control[0])
    rep = resolution.canonical_resolutions(fam, cp)
    return _report("resolutions", rep), rep.converged


def cmd_thm(args):
    which = args.which
    if which == "4.4":
        rep = resolution.coercive_pair_check(_load_pair(args))
        return _report("thm-4.4", rep), rep.is_frame
    if which == "perturb":
        rep = resolution.perturbation_check(
            _load_pair(args), args.lambda1, args.lambda2, args.d1, args.d2,
            args.trials, args.seed,
        )
        return _report("thm-perturb", rep), rep.verified
    fam = _load_family(args.inputs[0])
    cp = _load_control(args.control[0])
    if which == "4.1":
        rep = resolution.inverse_commutation_check(fam, cp)
        return _report("thm-4.1", rep), rep.certified
    rep = resolution.bessel_resolution_frame_check(fam, cp.t, cp.u)
    return _report("thm-4.2", rep), rep.is_frame


def cmd_fourier_demo(args):
    params = fourier.FourierParams(args.nmax, args.m, args.alpha, args.beta)
    rep = fourier.verify_fourier(params, trials=args.trials, seed=args.seed)
    return _report("fourier-demo", rep), rep.sandwich_ok


def cmd_random(args):
    """Writes the instance files to --out; there is no report."""
    inst = generate.random_instance(args.seed, args.dim, args.items, args.structure)
    os.makedirs(args.out_dir, exist_ok=True)

    def write(name, obj):
        _write_report(serialize.to_json(obj), os.path.join(args.out_dir, name))

    write("family.json", inst.family)
    write("control.json", inst.control)
    write("k.json", inst.k)
    if inst.family2 is not None:
        write("family2.json", inst.family2)
        # combined pair control (t from the first, u from the second)
        write("pair_control.json", ControlPair(inst.control.t, inst.control2.u))
    return None, True


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
    p.set_defaults(func=cmd_random)

    return parser


def main(argv=None) -> int:
    """Run one command; it returns (report, ok), and the report is written
    (when there is one) before exiting 0 if ok, else 1."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_files(args)
        overrides = {}
        for spec in getattr(args, "tol", []):
            name, sep, value = spec.partition("=")
            if not sep:
                raise ParseError(f"--tol expects name=value, got {spec!r}")
            overrides[name] = value
        with tol.override(**overrides):
            report, ok = args.func(args)
        if report is not None:
            _write_report(report, args.out)
        return 0 if ok else 1
    except (ParseError, InvalidParameters) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except GFusionError as exc:
        print(f"verification error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
