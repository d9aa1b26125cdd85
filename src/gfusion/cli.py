"""Command-line front end.

Every command reads JSON inputs, runs its verification, writes a
machine-readable report (stdout or --out), and exits 0 when all asserted
properties pass, 1 on a verification failure (the report is still written),
and 2 on bad input (an `InvalidParameters`).  Reports are deterministic
functions of (inputs, seed, tolerances).

Each command's contract is one row of `COMMANDS`; the parser, the argument
check, the loader and `main` all read it.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Callable, NamedTuple

from . import constructions, fourier, frames, generate, resolution, serialize
from . import tolerances as tol
from .errors import GFusionError, InvalidParameters, ParseError
from .frames import ControlPair


def _write_report(report: dict, out_path):
    text = serialize.dumps(report)
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


class Command(NamedTuple):
    """One command: `call` takes the loaded files in the order --in,
    --control, --k, --v, --w and the parameters by keyword, and returns the
    library report whose attribute `verdict` decides the exit code."""

    call: Callable
    verdict: str
    files: tuple = (1, 1, 0, 0, 0)  # counts of --in, --control, --k, --v, --w
    params: dict = {}  # parameter -> default, or REQUIRED; never mutated


REQUIRED = object()

# The file flags, in loading order, with their help.
FILE_FLAGS = {
    "in": "input family JSON (repeatable)",
    "control": "control pair JSON (repeatable)",
    "k": "tied operator JSON (repeatable)",
    "v": "operator JSON for the transform",
    "w": "operator JSON for the transform",
}

# Every parameter a command may read, with its type, in the order the check
# reports an unread one.
PARAM_TYPES = {
    "trials": int, "seed": int, "lambda1": float, "lambda2": float, "d1": float, "d2": float,
    "nmax": int, "m": int, "alpha": float, "beta": float,
}


def _pair(left, right, cp):
    """The pair operator of the two families under cp's (t, u)."""
    return resolution.pair_frame_operator(left, cp.t, right, cp.u)


# Keyed by argv words; a report's `command` is its words joined by "-".
# Each call looks its library function up when it runs, so that a rebound
# module attribute (a tracer, a test's counter) is the one called.
COMMANDS = {
    ("check-frame",): Command(lambda f, c: frames.controlled_frame_bounds(f, c), "is_frame"),
    ("bounds",): Command(lambda f, c: frames.controlled_frame_bounds(f, c), "is_bessel"),
    ("atomic",): Command(
        lambda f, c, k: frames.atomic_check(f, c, k), "is_atomic", (1, 1, 1, 0, 0)),
    ("construct", "direct-sum"): Command(
        lambda fh, fx, ch, cx, kh, kx: constructions.direct_sum_frame(fh, ch, kh, fx, cx, kx),
        "verified", (2, 2, 2, 0, 0)),
    ("construct", "sum-transform"): Command(
        lambda fl, fg, c, k, v, w: constructions.sum_transform(fl, fg, v, w, c, k),
        "verified", (2, 1, 1, 1, 1)),
    ("construct", "conjugate"): Command(
        lambda fh, fx, ch, cx, kh, kx, v, w: constructions.conjugate_transform(
            fh, ch, kh, fx, cx, kx, w, v),
        "verified", (2, 2, 2, 1, 1)),
    ("pair-op",): Command(
        lambda fl, fg, c: resolution.adjoint_check(_pair(fl, fg, c)),
        "is_adjoint", (2, 1, 0, 0, 0)),
    ("resolutions",): Command(lambda f, c: resolution.canonical_resolutions(f, c), "converged"),
    ("thm", "4.1"): Command(lambda f, c: resolution.inverse_commutation_check(f, c), "certified"),
    ("thm", "4.2"): Command(
        lambda f, c: resolution.bessel_resolution_frame_check(f, c.t, c.u), "is_frame"),
    ("thm", "4.4"): Command(
        lambda fl, fg, c: resolution.coercive_pair_check(_pair(fl, fg, c)),
        "is_frame", (2, 1, 0, 0, 0)),
    ("thm", "perturb"): Command(
        lambda fl, fg, c, **p: resolution.perturbation_check(_pair(fl, fg, c), **p),
        "verified", (2, 1, 0, 0, 0),
        {"lambda1": 0.1, "lambda2": 0.0, "d1": None, "d2": None, "trials": 200, "seed": 0}),
    ("fourier-demo",): Command(
        lambda nmax, m, alpha, beta, **p: fourier.verify_fourier(
            fourier.FourierParams(nmax, m, alpha, beta), **p),
        "sandwich_ok", (0, 0, 0, 0, 0),
        {"nmax": REQUIRED, "m": REQUIRED, "alpha": REQUIRED, "beta": REQUIRED,
         "trials": 100, "seed": 0}),
}

# Help per first argv word, and the name of the second word where there is one.
HELP = {
    "check-frame": "verify the controlled frame property",
    "bounds": "optimal frame bounds",
    "atomic": "atomic-subspace verdict for an operator",
    "construct": "frame-building transforms",
    "pair-op": "frame operator for a pair of families",
    "resolutions": "canonical resolutions of the identity",
    "thm": "theorem-level verification checks",
    "fourier-demo": "truncated Fourier worked example",
}
SECOND_WORD = {"construct": "kind", "thm": "which"}


def _check(words, row, args):
    """The parameters `row` reads, by name.  Raises ParseError unless `args`
    gives each file flag exactly `row.files` paths and no parameter that
    `row` does not read."""
    name = " ".join(words)
    given = vars(args)
    for flag, want in zip(FILE_FLAGS, row.files):
        got = len(given.get(flag, []))
        if got == want:
            continue
        if want == 0:
            raise ParseError(f"{name} does not read --{flag}")
        if got == 0:
            raise ParseError(f"{name} requires --{flag}")
        raise ParseError(f"{name} reads {want} --{flag} file(s), got {got}")
    for param in PARAM_TYPES:
        if param not in row.params and given.get(param) is not None:
            raise ParseError(f"{name} does not read --{param}")
    return {p: row.params[p] if given[p] is None else given[p] for p in row.params}


def _load(args):
    """Every file given, loaded in the order --in, --control, --k, --v, --w."""
    operator = serialize.operator_from_dict
    decoders = (serialize.family_from_dict, serialize.control_pair_from_dict, *[operator] * 3)
    return [
        decode(serialize.load_json(path))
        for flag, decode in zip(FILE_FLAGS, decoders)
        for path in vars(args).get(flag, [])
    ]


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
    return 0


def build_parser() -> argparse.ArgumentParser:
    """One subparser per first argv word.  It takes an option when some row
    under that word reads it, and requires the option when every row does."""
    parser = argparse.ArgumentParser(
        prog="gfusion", description="Verification toolkit for controlled g-fusion frames")
    sub = parser.add_subparsers(dest="command", required=True)
    for first in dict.fromkeys(words[0] for words in COMMANDS):
        rows = {words[1:]: row for words, row in COMMANDS.items() if words[0] == first}
        p = sub.add_parser(first, help=HELP[first])
        if first in SECOND_WORD:
            p.add_argument(SECOND_WORD[first], choices=[rest[0] for rest in rows])
        for i, (flag, text) in enumerate(FILE_FLAGS.items()):
            counts = [row.files[i] for row in rows.values()]
            if max(counts):
                p.add_argument(f"--{flag}", action="append", default=[],
                               required=min(counts) > 0, help=text)
        p.add_argument("--out", default=None, help="report output path")
        p.add_argument("--tol", action="append", default=[],
                       metavar="NAME=VALUE", help="tolerance override")
        for param in dict.fromkeys(q for row in rows.values() for q in row.params):
            required = all(row.params.get(param) is REQUIRED for row in rows.values())
            p.add_argument(f"--{param}", type=PARAM_TYPES[param], required=required)

    p = sub.add_parser("random", help="generate a seeded instance")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--dim", type=int, default=6)
    p.add_argument("--items", type=int, default=3)
    p.add_argument("--structure", choices=generate.STRUCTURES, default="generic")
    p.add_argument("--out", dest="out_dir", required=True, help="output directory")
    return parser


def main(argv=None) -> int:
    """Run one command: check its arguments against its row, load its files
    and make its library call under the --tol overrides, then write the
    report and exit 0 if the verdict holds, else 1."""
    args = build_parser().parse_args(argv)
    try:
        if args.command == "random":
            return cmd_random(args)
        second = SECOND_WORD.get(args.command)
        words = (args.command, getattr(args, second)) if second else (args.command,)
        row = COMMANDS[words]
        params = _check(words, row, args)
        overrides = {}
        for spec in args.tol:
            name, sep, value = spec.partition("=")
            if not sep:
                raise ParseError(f"--tol expects name=value, got {spec!r}")
            overrides[name] = value
        # loading runs under the override too: a ControlPair checks COND_MAX
        with tol.override(**overrides):
            rep = row.call(*_load(args), **params)
            report = {"command": "-".join(words), **serialize.to_json(rep)}
            ok = getattr(rep, row.verdict)
        _write_report(report, args.out)
        return 0 if ok else 1
    except InvalidParameters as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except GFusionError as exc:
        print(f"verification error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
