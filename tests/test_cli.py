import argparse
import importlib
import inspect
import json
import math
import os
import re
import subprocess
import sys
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gfusion import cli, constructions, fourier, frames, generate, resolution, serialize, tolerances
from gfusion.cli import main
from gfusion.errors import GFusionError
from gfusion.frames import ControlPair, FrameFamily, frame_operator
from gfusion.linalg import Subspace, projector

import report_diff
from conftest import (
    as_json,
    assert_compact_canonical,
    binary64,
    complex_gaussian,
    recorded,
    scaled_partition_family,
)


@pytest.fixture
def partition_inputs(tmp_path):
    """Family with exact bounds (2, 5), identity controls, identity k."""
    fam = scaled_partition_family(4, (2.0, 5.0))
    fam_path = tmp_path / "family.json"
    fam_path.write_text(serialize.dumps(serialize.family_to_dict(fam)))
    cp_path = tmp_path / "control.json"
    cp_path.write_text(
        serialize.dumps(serialize.control_pair_to_dict(ControlPair.identity(4)))
    )
    k_path = tmp_path / "k.json"
    k_path.write_text(serialize.dumps(serialize.operator_to_dict(np.eye(4))))
    return fam, fam_path, cp_path, k_path


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, (json.loads(out) if out else None)


def assert_bad_input(argv, message=""):
    """Exit 2 and no report (`report_diff.run`), with one error line, which
    holds `message`."""
    code, errors, text = report_diff.run(argv)
    assert (code, text, len(errors)) == (2, "", 1), (argv, errors)
    assert errors[0].startswith("error: ") and message in errors[0], (argv, errors)


class TestCheckFrame:
    def test_parse_error_exit_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        cp = tmp_path / "cp.json"
        cp.write_text(serialize.dumps(serialize.control_pair_to_dict(ControlPair.identity(2))))
        assert_bad_input(["check-frame", "--in", str(bad), "--control", str(cp)])


class TestConstruct:
    def test_sum_transform_of_a_family_with_itself(self, tmp_path, capsys):
        # a basis with Gram deviation 2e-8, under tol_orth = 1e-6: with
        # itself its subspaces are the same, though B - B (B* B) is 2e-8 B.
        # A verdict, not exit 2: the family's cross terms with itself do
        # not vanish
        basis = (1 + 1e-8) * np.eye(6)
        docs = {"family": {"ambient_dim": 6, "items": [{
                    "subspace": {"ambient_dim": 6, "basis": basis},
                    "lambda": np.eye(6), "weight": 1.0}]},
                "control": ControlPair.identity(6), "k": np.eye(6), "half": 0.5 * np.eye(6)}
        for stem, doc in docs.items():
            (tmp_path / f"{stem}.json").write_text(serialize.dumps(doc))
        f, c, k, half = (str(tmp_path / f"{stem}.json") for stem in docs)
        code, rep = run(capsys, "construct", "sum-transform", "--in", f, "--in", f,
                        "--control", c, "--k", k, "--v", half, "--w", half,
                        "--tol", "tol_orth=1e-6")
        assert code == 1 and rep["all_hypotheses_pass"] is False
        residuals = {cert["name"]: cert["residual"] for cert in rep["hypothesis_certificates"]}
        assert residuals["cross_terms_lambda_gamma"] == 1.0


class TestFourierDemo:
    def test_invalid_params_exit_2(self):
        assert_bad_input(["fourier-demo", "--nmax", "4", "--m", "9", "--alpha", "0.5",
                          "--beta", "0.5"])


class TestRandom:
    def test_tol_rejected(self, tmp_path, capsys):
        # random decides no verdict, so it takes no tolerance override
        with pytest.raises(SystemExit) as exc:
            main(["random", "--seed", "1", "--out", str(tmp_path / "r"),
                  "--tol", "tol_psd=1e-8"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --tol" in capsys.readouterr().err
        assert not (tmp_path / "r").exists()

    def test_seed_reproducible(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert main(["random", "--seed", "7", "--out", str(out)]) == 0
        assert (a / "family.json").read_bytes() == (b / "family.json").read_bytes()

    @pytest.mark.parametrize("structure", generate.STRUCTURES)
    def test_files_compact_canonical(self, tmp_path, structure):
        out = tmp_path / "inst"
        assert main(["random", "--seed", "3", "--dim", "4", "--items", "3",
                     "--structure", structure, "--out", str(out)]) == 0
        files = sorted(out.iterdir())
        assert len(files) == (5 if structure == "near-identity-pair" else 3)
        for path in files:
            assert_compact_canonical(path.read_text())


class TestTolOverride:
    @pytest.mark.parametrize("spec", [
        "nope=1", "tol_psd", "tol_psd=abc", "tol_psd=nan", "tol_psd=inf",
        "tol_psd=-1e-9",
    ])
    def test_unknown_tol_exit_2(self, capsys, partition_inputs, spec):
        _, fam, cp, _ = partition_inputs
        saved = tolerances.TOL_PSD
        code = main(["check-frame", "--in", str(fam), "--control", str(cp),
                     "--tol", spec])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert tolerances.TOL_PSD == saved

    def test_override_lasts_one_call(self, capsys, partition_inputs):
        _, fam, cp, _ = partition_inputs
        argv = ["check-frame", "--in", str(fam), "--control", str(cp)]
        saved = tolerances.TOL_PSD
        try:
            assert run(capsys, *argv, "--tol", "tol_psd=2")[0] == 1
            assert tolerances.TOL_PSD == saved
            code, rep = run(capsys, *argv)
            assert code == 0
            assert rep["is_frame"] is True
            # restored on the error path too
            assert main([*argv, "--tol", "tol_psd=2", "--tol", "nope=1"]) == 2
            assert tolerances.TOL_PSD == saved
        finally:
            tolerances.TOL_PSD = saved


def _write(path, obj):
    path.write_text(serialize.dumps(obj))
    return str(path)


@pytest.mark.parametrize("case", ["item-count", "weights", "control-dim", "k-shape"])
def test_mismatched_inputs_exit_2(tmp_path, case):
    """Shape, item-count and weight mismatches are bad input: exit 2, no report."""
    fam6 = _write(tmp_path / "f6.json", scaled_partition_family(6, (1.0, 2.0, 3.0)))
    cp6 = _write(tmp_path / "c6.json", ControlPair.identity(6))
    k6 = _write(tmp_path / "k6.json", np.eye(6))
    if case == "item-count":
        fam2 = _write(tmp_path / "f2.json", scaled_partition_family(6, (1.0, 2.0)))
        argv = ["construct", "direct-sum", "--in", fam6, "--in", fam2,
                "--control", cp6, "--control", cp6, "--k", k6, "--k", k6]
    elif case == "weights":
        fam = scaled_partition_family(6, (1.0, 2.0, 3.0))
        heavy = frames.FrameFamily(6, [(s, lam, 2.0) for s, lam, _ in fam.items])
        argv = ["construct", "direct-sum", "--in", fam6,
                "--in", _write(tmp_path / "fw.json", heavy),
                "--control", cp6, "--control", cp6, "--k", k6, "--k", k6]
    elif case == "control-dim":
        cp5 = _write(tmp_path / "c5.json", ControlPair.identity(5))
        argv = ["check-frame", "--in", fam6, "--control", cp5]
    else:
        k5 = _write(tmp_path / "k5.json", np.eye(5))
        argv = ["atomic", "--in", fam6, "--control", cp6, "--k", k5]
    assert_bad_input(argv)


def test_fourier_demo_builds_example_once(tmp_path):
    # the report holds the example verify_fourier built, once (budgets.py)
    out = tmp_path / "demo.json"
    argv = ["fourier-demo", "--nmax", "5", "--m", "2", "--alpha", "0.5",
            "--beta", "0.8", "--trials", "20", "--out", str(out)]
    assert main(argv) == 0
    fam, cp, k = fourier.build_fourier_example(fourier.FourierParams(5, 2, 0.5, 0.8))
    rep = json.loads(out.read_text())
    assert rep["family"] == json.loads(serialize.dumps(serialize.family_to_dict(fam)))
    assert rep["control"] == json.loads(serialize.dumps(serialize.control_pair_to_dict(cp)))
    assert rep["k"] == json.loads(serialize.dumps(serialize.operator_to_dict(k)))


def test_thm_perturb_evaluates_each_family_once(tmp_path, capsys):
    # left bounds (1.5, 2), right bounds (1, 1): the default d1 is the left
    # family's Bessel bound and d2 the right family's, each family evaluated
    # once (budgets.py)
    paths = []
    for name, scales in (("left", (2.0, 1.5)), ("right", (1.0, 1.0))):
        path = tmp_path / f"{name}.json"
        fam = scaled_partition_family(4, scales)
        path.write_text(serialize.dumps(serialize.family_to_dict(fam)))
        paths.append(str(path))
    cp_path = tmp_path / "c.json"
    cp_path.write_text(serialize.dumps(serialize.control_pair_to_dict(ControlPair.identity(4))))
    code, rep = run(
        capsys, "thm", "perturb", "--in", paths[0], "--in", paths[1],
        "--control", str(cp_path), "--lambda1", "0.5", "--lambda2", "0.0",
    )
    assert code == 0
    assert rep["lower_gamma_predicted"] == pytest.approx(0.5**2 / 2.0, rel=1e-12)
    assert rep["lower_lambda_predicted"] == pytest.approx(0.5**2 / 1.0, rel=1e-12)


def test_thm_perturb_checks_each_control_once(tmp_path, capsys):
    # one SVD per distinct dense control per check (budgets.py): loading the
    # pair (t, u), then the pair operator's (t, t) and (u, u); every
    # evaluation reuses them.  t = I is exactly a multiple of I, and its
    # gate takes no SVD
    rng = np.random.default_rng(5)
    t = np.eye(4, dtype=complex)
    u = np.eye(4) + 0.02 * complex_gaussian(rng, 4, 4) / 4
    paths = []
    for name, scales in (("left", (2.0, 1.5)), ("right", (1.0, 1.0))):
        paths.append(_write(tmp_path / f"{name}.json", scaled_partition_family(4, scales)))
    cp_path = _write(tmp_path / "c.json", ControlPair(t, u))
    code, rep = run(
        capsys, "thm", "perturb", "--in", paths[0], "--in", paths[1],
        "--control", cp_path, "--lambda1", "0.5", "--lambda2", "0.0",
    )
    assert code == 0
    assert rep["lower_gamma_predicted"] == pytest.approx(0.5**2 / 2.0, rel=1e-12)


INVALID_THEOREM_PARAMETERS = [
    ("thm-perturb", ["--d1", "0"]),
    ("thm-perturb", ["--d1=-1"]),
    ("thm-perturb", ["--d1", "nan"]),
    ("thm-perturb", ["--d2", "inf"]),
    ("fourier-demo", ["--alpha", "nan", "--beta", "0.5"]),
    ("fourier-demo", ["--alpha", "0.5", "--beta", "nan"]),
    ("fourier-demo", ["--alpha", "inf", "--beta", "0.5"]),
]


def perturb_argv(partition_inputs):
    """thm perturb on the partition family: S = diag(2, 5) is far from the
    identity, so a parameter checked after sampling would fail a sample
    (exit 1) first."""
    _, fam, cp, _ = partition_inputs
    return ["thm", "perturb", "--in", str(fam), "--in", str(fam), "--control", str(cp)]


@pytest.mark.parametrize("command, params", INVALID_THEOREM_PARAMETERS)
def test_invalid_theorem_parameters_exit_2(partition_inputs, command, params):
    """Checked before any sampling: exit 2, an error line and no report."""
    if command == "thm-perturb":
        argv = perturb_argv(partition_inputs)
    else:
        argv = ["fourier-demo", "--nmax", "4", "--m", "2"]
    assert_bad_input(argv + params)


@pytest.mark.parametrize("trials", ["0", "-3"])
def test_perturb_nonpositive_trials_exit_2(partition_inputs, trials):
    assert_bad_input([*perturb_argv(partition_inputs), "--trials", trials], "trials")


def test_perturb_negative_lambda1_one_parameter_exit_2(partition_inputs):
    assert_bad_input([*perturb_argv(partition_inputs), "--lambda1", "-0.5", "--lambda2", "0"],
                     "one-parameter path requires lambda1 in [0, 1)")


FRAME_KEYS = {"is_bessel", "is_frame", "bounds", "herm_residual", "s_c"}
TRANSFORM_KEYS = {
    "predicted_lower", "predicted_upper", "measured", "hypothesis_certificates",
    "all_hypotheses_pass", "family_out", "control_out", "k_out",
}
REPORT_SCHEMAS = [
    (["check-frame", "--in", "F", "--control", "C"], "check-frame", FRAME_KEYS),
    (["bounds", "--in", "F", "--control", "C"], "bounds", FRAME_KEYS),
    (["atomic", "--in", "F", "--control", "C", "--k", "K"], "atomic",
     {"is_atomic", "bessel_bound", "coefficient_norm_bound", "lower_bound",
      "coefficient_residual", "literal_residual"}),
    (["construct", "direct-sum", "--in", "F", "--in", "F", "--control", "C",
      "--control", "C", "--k", "K", "--k", "K"], "construct-direct-sum", TRANSFORM_KEYS),
    (["construct", "sum-transform", "--in", "F", "--in", "F", "--control", "C",
      "--k", "K", "--v", "V", "--w", "W"], "construct-sum-transform", TRANSFORM_KEYS),
    (["construct", "conjugate", "--in", "F", "--in", "F", "--control", "C",
      "--control", "C", "--k", "K", "--k", "K", "--v", "V", "--w", "W"],
     "construct-conjugate", TRANSFORM_KEYS),
    (["pair-op", "--in", "F", "--in", "F", "--control", "C"], "pair-op",
     {"matrix", "adjoint_residual"}),
    (["resolutions", "--in", "F", "--control", "C"], "resolutions",
     {"right_multiplied", "left_multiplied", "terms_right", "terms_left"}),
    (["thm", "4.1", "--in", "F", "--control", "C"], "thm-4.1",
     {"resolution_residual", "lower", "upper", "predicted_lower", "predicted_upper",
      "commutation_residual", "certified"}),
    (["thm", "4.2", "--in", "F", "--control", "CI"], "thm-4.2",
     {"lower", "upper", "is_frame", "predicted_lower", "predicted_upper",
      "resolution_residual"}),
    (["thm", "4.4", "--in", "F", "--in", "F", "--control", "C"], "thm-4.4",
     {"m", "predicted_lower", "measured_lower", "is_frame", "gamma_bessel_bound"}),
    (["thm", "perturb", "--in", "F", "--in", "F", "--control", "CI",
      "--lambda1", "0.9", "--lambda2", "0.5", "--seed", "3"], "thm-perturb",
     {"hyp_certified", "lower_gamma", "lower_gamma_predicted", "lower_lambda",
      "lower_lambda_predicted", "worst_sample_slack"}),
    (["fourier-demo", "--nmax", "6", "--m", "2", "--alpha", "0.5", "--beta", "0.5",
      "--seed", "4"], "fourier-demo",
     {"a_opt", "upper", "is_kgf", "sandwich_ok", "trials", "worst_lower_slack",
      "worst_upper_slack", "family", "control", "k"}),
]


def schema_inputs():
    """The inputs of REPORT_SCHEMAS, by name: a partition family on C^4 with
    S = diag(2, 1.5, 2, 1.5), under (I, I) and (I, S^-1)."""
    fam = scaled_partition_family(4, (2.0, 1.5))
    s = frame_operator(fam, ControlPair.identity(4))
    return {"F": fam, "C": ControlPair.identity(4), "CI": ControlPair(np.eye(4), np.linalg.inv(s)),
            "K": np.eye(4), "V": 0.5 * np.eye(4), "W": 1.5 * np.eye(4)}


def schema_argv(tmp_path, argv, inputs=None):
    """`argv` with each input name of REPORT_SCHEMAS replaced by the path of
    that input (of `schema_inputs()` by default), written to `tmp_path`."""
    inputs = inputs or schema_inputs()
    for name, obj in inputs.items():
        (tmp_path / name).write_text(serialize.dumps(obj))
    return [str(tmp_path / a) if a in inputs else a for a in argv]


@pytest.mark.parametrize(
    "argv, command, keys", REPORT_SCHEMAS, ids=[c for _, c, _ in REPORT_SCHEMAS]
)
def test_report_schema(tmp_path, capsys, argv, command, keys):
    """Every report is `command` plus an exact, pinned set of top-level keys."""
    code, rep = run(capsys, *schema_argv(tmp_path, argv))
    assert code in (0, 1)
    assert rep["command"] == command
    assert set(rep) == keys | {"command"}


@pytest.mark.parametrize(
    "argv", [a for a, _, _ in REPORT_SCHEMAS], ids=[c for _, c, _ in REPORT_SCHEMAS]
)
def test_report_compact_canonical(tmp_path, capsys, argv):
    """Every report, on stdout or in --out, is one line of canonical JSON:
    the streamed writer gives both the same bytes and the same exit code."""
    argv = schema_argv(tmp_path, argv)
    out = tmp_path / "report.json"
    code = main(argv + ["--out", str(out)])
    assert code in (0, 1)
    assert_compact_canonical(out.read_text())
    assert main(argv) == code
    assert capsys.readouterr().out.encode() == out.read_bytes()


def _pair(x, control):
    return resolution.pair_frame_operator(x["F"], x[control].t, x["F"], x[control].u)


# The row of each command, by its report's `command`.
ROWS = {"-".join(words): row for words, row in cli.COMMANDS.items()}


# The library call behind each REPORT_SCHEMAS command, on the same inputs
# and options, and the name of the verdict it returns.
LIBRARY_CALLS = {
    "check-frame": (lambda x: frames.controlled_frame_bounds(x["F"], x["C"]), "is_frame"),
    "bounds": (lambda x: frames.controlled_frame_bounds(x["F"], x["C"]), "is_bessel"),
    "atomic": (lambda x: frames.atomic_check(x["F"], x["C"], x["K"]), "is_atomic"),
    "construct-direct-sum": (lambda x: constructions.direct_sum_frame(
        x["F"], x["C"], x["K"], x["F"], x["C"], x["K"]), "verified"),
    "construct-sum-transform": (lambda x: constructions.sum_transform(
        x["F"], x["F"], x["V"], x["W"], x["C"], x["K"]), "verified"),
    "construct-conjugate": (lambda x: constructions.conjugate_transform(
        x["F"], x["C"], x["K"], x["F"], x["C"], x["K"], x["W"], x["V"]), "verified"),
    "pair-op": (lambda x: resolution.adjoint_check(_pair(x, "C")), "is_adjoint"),
    "resolutions": (lambda x: resolution.canonical_resolutions(x["F"], x["C"]), "converged"),
    "thm-4.1": (lambda x: resolution.inverse_commutation_check(x["F"], x["C"]), "certified"),
    "thm-4.2": (lambda x: resolution.bessel_resolution_frame_check(
        x["F"], x["CI"].t, x["CI"].u), "is_frame"),
    "thm-4.4": (lambda x: resolution.coercive_pair_check(_pair(x, "C")), "is_frame"),
    "thm-perturb": (lambda x: resolution.perturbation_check(
        _pair(x, "CI"), 0.9, 0.5, trials=200, seed=3), "verified"),
    "fourier-demo": (lambda x: fourier.verify_fourier(
        fourier.FourierParams(6, 2, 0.5, 0.5), trials=100, seed=4), "sandwich_ok"),
}


@pytest.mark.parametrize("overrides", [{}, {"tol_psd": "0.9"}], ids=["default", "tol_psd"])
@pytest.mark.parametrize(
    "argv, command", [(a, c) for a, c, _ in REPORT_SCHEMAS],
    ids=[c for _, c, _ in REPORT_SCHEMAS],
)
def test_exit_code_is_library_verdict(tmp_path, capsys, argv, command, overrides):
    """Each command writes its library call's report and exits with the
    verdict that call returns under the same tolerances; where the call
    raises, it exits 1 without a report."""
    objects = schema_inputs()
    argv = schema_argv(tmp_path, argv, objects)
    for name, value in overrides.items():
        argv += ["--tol", f"{name}={value}"]
    code, rep = run(capsys, *argv)
    call, verdict = LIBRARY_CALLS[command]
    try:
        with tolerances.override(**overrides):
            lib = call(objects)
    except GFusionError:
        assert (code, rep) == (1, None)
        return
    assert code == (0 if getattr(lib, verdict) else 1)
    expected = {"command": command, **serialize.fields(lib)}
    assert rep == json.loads(serialize.dumps(expected))


# Settings of the claim runs: the defaults, two overrides, and a negative
# sandwich slack, which no override allows: the Fourier example's sandwich
# holds exactly, so only that makes its verdict fail.
CLAIM_SETTINGS = {
    "default": lambda: tolerances.override(),
    "tol_psd": lambda: tolerances.override(tol_psd=0.9),
    "tol_factor": lambda: tolerances.override(tol_factor=0),
    "sandwich": lambda: mock.patch.object(tolerances, "TOL_SANDWICH", -1.0),
}

def claim_runs(tmp_path, argv):
    """{setting: (verdict, claims)} of the COMMANDS row that `argv` names,
    called as `main` calls it, on the REPORT_SCHEMAS inputs; for `bounds`
    the claims are its Bessel claim."""
    argv = schema_argv(tmp_path, argv)
    words = tuple(argv[:2]) if tuple(argv[:2]) in cli.COMMANDS else tuple(argv[:1])
    row = cli.COMMANDS[words]
    args = cli.build_parser(argv[0]).parse_args(argv)
    params = cli._check(words, row, args)
    runs = {}
    for name, setting in CLAIM_SETTINGS.items():
        with setting():
            rep = row.run(*cli._load(args), **params)
        claims = rep.claims
        if words == ("bounds",):
            claims = [c for c in claims if c.name == "bessel"]
        runs[name] = getattr(rep, row.verdict), claims
    return runs


@pytest.mark.parametrize(
    "argv", [a for a, _, _ in REPORT_SCHEMAS], ids=[c for _, c, _ in REPORT_SCHEMAS]
)
def test_verdict_is_the_conjunction_of_its_claims(tmp_path, argv):
    for name, (verdict, claims) in claim_runs(tmp_path, argv).items():
        assert claims, name
        assert verdict is all(c.holds for c in claims), (name, claims)


@pytest.mark.parametrize(
    "argv", [a for a, _, _ in REPORT_SCHEMAS], ids=[c for _, c, _ in REPORT_SCHEMAS]
)
def test_claim_names_are_unique(tmp_path, argv):
    # each claim says what it measured: one name per claim of a report
    for name, (_, claims) in claim_runs(tmp_path, argv).items():
        names = [c.name for c in claims]
        assert len(set(names)) == len(names), (name, names)


def test_each_group_has_a_failed_verdict_with_a_failing_claim(tmp_path):
    # a group is the library module that a command's row calls
    failed = {row.module: [] for row in cli.COMMANDS.values()}
    for argv, command, _ in REPORT_SCHEMAS:
        group = ROWS[command].module
        for name, (verdict, claims) in claim_runs(tmp_path, argv).items():
            if not verdict:
                assert any(not c.holds for c in claims), (command, name)
                failed[group].append((command, name))
    assert all(failed.values()), failed


def _wrong_file_counts():
    """(id, argv) from each REPORT_SCHEMAS command: one file more for each
    file flag it reads, one fewer where it reads two, each of --v and --w
    left out, and --v given to direct-sum, which reads neither."""
    cases = []
    for argv, command, _ in REPORT_SCHEMAS:
        for flag in ("--in", "--control", "--k"):
            at = [i for i, a in enumerate(argv) if a == flag]
            if at:
                i = at[-1]
                cases.append((f"{command}-extra{flag}", argv[: i + 2] + argv[i:]))
            if len(at) == 2:
                i = at[-1]
                cases.append((f"{command}-one{flag}", argv[:i] + argv[i + 2 :]))
        for flag in ("--v", "--w"):
            if flag in argv:
                i = argv.index(flag)
                cases.append((f"{command}-no{flag}", argv[:i] + argv[i + 2 :]))
        if command == "construct-direct-sum":
            cases.append((f"{command}-with--v", argv + ["--v", "V"]))
    return cases


WRONG_FILE_COUNTS = _wrong_file_counts()


@pytest.mark.parametrize(
    "argv", [a for _, a in WRONG_FILE_COUNTS], ids=[i for i, _ in WRONG_FILE_COUNTS]
)
def test_wrong_file_count_exit_2(tmp_path, argv):
    """Each command reads exactly its files: another count of --in, --control
    or --k, or a missing or unread --v / --w, exits 2 with an error line and
    no report."""
    assert_bad_input(schema_argv(tmp_path, argv))


UNREAD_ARGUMENTS = [
    (["thm", "4.1", "--in", "F", "--control", "C", "--trials", "5", "--lambda1", "7",
      "--d1=-3"], "thm 4.1 does not read --trials"),
    (["thm", "4.2", "--in", "F", "--control", "CI", "--trials", "0"],
     "thm 4.2 does not read --trials"),
    (["thm", "4.4", "--in", "F", "--in", "F", "--control", "C", "--seed", "3"],
     "thm 4.4 does not read --seed"),
    (["thm", "4.1", "--in", "F", "--control", "C", "--lambda2", "0.5"],
     "thm 4.1 does not read --lambda2"),
    (["thm", "4.2", "--in", "F", "--control", "CI", "--d2", "1"], "thm 4.2 does not read --d2"),
    (["thm", "4.4", "--in", "F", "--in", "F", "--control", "C", "--d1", "1"],
     "thm 4.4 does not read --d1"),
    (["construct", "sum-transform", "--in", "F", "--in", "F", "--control", "C", "--k", "K",
      "--v", "V", "--v", "V", "--w", "W"], "construct sum-transform reads 1 --v file(s), got 2"),
]


@pytest.mark.parametrize("argv, error", UNREAD_ARGUMENTS, ids=[e for _, e in UNREAD_ARGUMENTS])
def test_unread_argument_exit_2(tmp_path, argv, error):
    """A parameter the command does not read, or a file beyond its count,
    exits 2 with an error line naming it and no report."""
    assert report_diff.run(schema_argv(tmp_path, argv)) == (2, [f"error: {error}"], "")


def test_every_command_has_a_pinned_schema():
    commands = {c for _, c, _ in REPORT_SCHEMAS}
    assert {"-".join(words) for words in cli.COMMANDS} == commands
    assert set(LIBRARY_CALLS) == commands


@pytest.mark.parametrize(
    "argv, command", [(a, c) for a, c, _ in REPORT_SCHEMAS],
    ids=[c for _, c, _ in REPORT_SCHEMAS],
)
def test_library_function_called_once(tmp_path, capsys, argv, command):
    """Each command calls its library function once, through the module
    attribute, so a rebound attribute (as the benchmark's tracer makes) is
    the one called."""
    module = importlib.import_module(f"gfusion.{ROWS[command].module}")
    # LIBRARY_CALLS names exactly one function of the row's module
    call, _ = LIBRARY_CALLS[command]
    name, = (n for n in call.__code__.co_names if inspect.isfunction(getattr(module, n, None)))
    with recorded(f"{module.__name__}.{name}") as calls:
        assert main(schema_argv(tmp_path, argv)) in (0, 1)
    assert [c.routine for c in calls].count(name) == 1


# Library modules that a command must not import: each row imports its own
# module when it runs, and only `random` imports `generate`, so a cold
# process compiles no other.
UNUSED_MODULES = {
    ("check-frame",): ("constructions", "fourier", "generate", "resolution"),
    ("bounds",): ("constructions", "fourier", "generate", "resolution"),
    ("atomic",): ("constructions", "fourier", "generate", "resolution"),
    ("thm", "4.1"): ("constructions", "fourier", "generate"),
    ("thm", "4.2"): ("constructions", "fourier", "generate"),
}

# The environment of a fresh interpreter that imports this checkout's gfusion,
# with buffered stdout and stderr, as a plain shell gives them, so that an
# unflushed stream loses its tail.
_SRC_ENV = {**{k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"},
            "PYTHONPATH": os.pathsep.join(
                p for p in (os.path.dirname(os.path.dirname(cli.__file__)),
                            os.environ.get("PYTHONPATH")) if p)}

_IMPORTED_MODULES = """
import json, sys
from gfusion import cli
code = cli.main(sys.argv[1:])
print(json.dumps([code, sorted(m for m in sys.modules if m.startswith("gfusion"))]))
"""


@pytest.mark.parametrize("words", list(UNUSED_MODULES), ids="-".join)
def test_command_imports_only_its_library_module(tmp_path, words):
    """In a fresh interpreter, a command on a small parseval instance leaves
    no module of another command in sys.modules."""
    inst = tmp_path / "inst"
    assert main(["random", "--seed", "42", "--dim", "4", "--items", "2",
                 "--structure", "parseval", "--out", str(inst)]) == 0
    argv = [*words, "--in", str(inst / "family.json"), "--control", str(inst / "control.json"),
            *(["--k", str(inst / "k.json")] if words == ("atomic",) else []),
            "--out", str(tmp_path / "report.json")]
    proc = subprocess.run([sys.executable, "-c", _IMPORTED_MODULES, *argv], env=_SRC_ENV,
                          capture_output=True, text=True, check=True)
    code, modules = json.loads(proc.stdout)
    assert code == 0 and (tmp_path / "report.json").exists()
    assert not {f"gfusion.{name}" for name in UNUSED_MODULES[words]} & set(modules)
    assert f"gfusion.{cli.COMMANDS[words].module}" in modules


@pytest.mark.parametrize("command", ["check-frame", "thm", "random", None])
def test_parser_takes_only_the_invoked_commands_options(command):
    parser = cli.build_parser(command)
    subs = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert list(subs.choices) == list(cli.HELP)
    # every subparser has -h; only the invoked one has more
    assert [first for first, p in subs.choices.items() if len(p._actions) > 1] == (
        [command] if command else [])


def gfusion_process(*argv):
    """A cold `python -m gfusion.cli` process run to its end: its exit code,
    stdout bytes and stderr text."""
    proc = subprocess.run([sys.executable, "-m", "gfusion.cli", *map(str, argv)], env=_SRC_ENV,
                          capture_output=True, check=False)
    return proc.returncode, proc.stdout, proc.stderr.decode()


@pytest.fixture(scope="module")
def entry_instances(tmp_path_factory):
    """A parseval 16/8 instance, whose `resolutions` report is about 88 KB,
    and a generic 6/3 one, which fails `thm 4.2`."""
    d = tmp_path_factory.mktemp("entry")
    for name, dim, items, structure in (("big", 16, 8, "parseval"), ("gen", 6, 3, "generic")):
        assert main(["random", "--seed", "42", "--dim", str(dim), "--items", str(items),
                     "--structure", structure, "--out", str(d / name)]) == 0
    return d


@pytest.mark.parametrize("words, instance, code", [
    (("resolutions",), "big", 0), (("thm", "4.2"), "gen", 1),
], ids=["resolutions", "exit-1"])
def test_process_writes_the_whole_report(entry_instances, words, instance, code):
    """A process ended by `run` flushes its report first: streamed to a pipe,
    a report of more than 64 KiB (the pipe's buffer) is its --out bytes,
    and an exit-1 run still writes its report."""
    argv = [*words, "--in", entry_instances / instance / "family.json",
            "--control", entry_instances / instance / "control.json"]
    out = entry_instances / f"{'-'.join(words)}.json"
    assert gfusion_process(*argv, "--out", out) == (code, b"", "")
    streamed = gfusion_process(*argv)
    assert streamed == (code, out.read_bytes(), "")
    if instance == "big":
        assert len(streamed[1]) > 64 * 1024


def test_process_bad_input_and_unknown_command_exit_2(entry_instances):
    code, out, err = gfusion_process("check-frame", "--in", entry_instances / "missing.json",
                                     "--control", entry_instances / "big" / "control.json")
    assert (code, out) == (2, b"")
    assert len(err.splitlines()) == 1 and err.startswith("error: "), err
    code, out, err = gfusion_process("nosuch")
    assert (code, out) == (2, b"")
    assert err.startswith("usage: gfusion") and "invalid choice: 'nosuch'" in err, err


# `run` with an atexit handler registered before it: the handler must not run
_RUN_WITH_ATEXIT = """
import atexit, sys
atexit.register(print, "atexit ran")
from gfusion import cli
sys.argv[0] = "gfusion"
cli.run()
"""


def test_process_help_lists_every_command_and_skips_atexit():
    proc = subprocess.run([sys.executable, "-c", _RUN_WITH_ATEXIT, "--help"], env=_SRC_ENV,
                          capture_output=True, text=True, check=False)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.startswith("usage: gfusion")
    for first in {words[0] for words in cli.COMMANDS} | {"random"}:
        assert first in proc.stdout
    assert "atexit ran" not in proc.stdout


class Exited(Exception):
    """Stands in for `os._exit`, which would end the test process."""


def _exit(code):
    raise Exited(code)


@pytest.mark.parametrize("outcome, code", [
    (lambda: 1, 1), (lambda: main(["--help"]), 0), (lambda: main(["nosuch"]), 2),
], ids=["return", "help", "usage"])
def test_run_exits_with_the_code_of_main(monkeypatch, capsys, outcome, code):
    monkeypatch.setattr(cli.gc, "freeze", lambda: None)
    monkeypatch.setattr(cli.os, "_exit", _exit)
    monkeypatch.setattr(cli, "main", outcome)
    with pytest.raises(Exited) as info:
        cli.run()
    assert info.value.args == (code,)


def test_run_lets_other_exceptions_leave_normally(monkeypatch):
    def fail():
        raise RuntimeError("from main")

    monkeypatch.setattr(cli.gc, "freeze", lambda: None)
    monkeypatch.setattr(cli.os, "_exit", _exit)
    monkeypatch.setattr(cli, "main", fail)
    with pytest.raises(RuntimeError, match="from main"):
        cli.run()


def _construct_verdict(rep):
    return rep["all_hypotheses_pass"] and float(rep["measured"]["lambda_min"]) >= (
        float(rep["predicted_lower"])
        - tolerances.TOL_CONSTRUCT * max(float(rep["predicted_upper"]), 1.0)
    )


# Each command's verdict, read from its report, keyed by its `command`.
VERDICTS = {
    "check-frame": lambda r: r["is_frame"],
    "bounds": lambda r: r["is_bessel"],
    "atomic": lambda r: r["is_atomic"],
    "thm-4.1": lambda r: r["certified"],
    "thm-4.2": lambda r: r["is_frame"],
    "thm-4.4": lambda r: r["is_frame"],
    # a report holds only a sample that did not refute the inequality
    "thm-perturb": lambda r: r["hyp_certified"] and all(
        r[f] is None or r[f] >= r[f"{f}_predicted"] - tolerances.TOL_FACTOR
        for f in ("lower_gamma", "lower_lambda")),
    "pair-op": lambda r: r["adjoint_residual"] <= tolerances.TOL_ADJOINT,
    "resolutions": lambda r: (r["right_multiplied"]["converged"]
                              and r["left_multiplied"]["converged"]),
    **dict.fromkeys(("construct-direct-sum", "construct-sum-transform", "construct-conjugate"),
                    _construct_verdict),
    "fourier-demo": lambda r: r["sandwich_ok"],
}

# The exits 1 with no report that the README lists, where a check cannot be
# evaluated, by grid run: each run's error line.  `atomic` under the
# point's own control pair exits so only where the point's `bounds` run
# reads the family as not Bessel (it has no T_C).
NOT_PSD = r"verification error: item \d+: cross operator is not Hermitian PSD"
VIOLATED = "verification error: a sampled vector violates the perturbation inequality"
NO_REPORT = {"atomic-neg": NOT_PSD, "atomic-near-real": NOT_PSD,
             "thm-perturb": VIOLATED, "thm-perturb-2": VIOLATED}


def assert_contract(runs, exit_2=None):
    """The CLI contract on the outcomes (`report_diff.run`) of grid-named
    runs [(name, argv, outcome)], each point's `bounds` before its `atomic`:
    exit 0 or 1, nothing raised, and a one-line report whose verdict is
    true exactly with exit 0 (but NO_REPORT's, and `atomic`'s on a family
    that is not Bessel); where `exit_2` is given, also exit 2 with no
    report and one error line that `exit_2` matches; a repeat run the same."""
    is_bessel = {}
    for name, argv, outcome in runs:
        point, run = name.split(" ", 1)
        code, errors, text = outcome
        assert code in ((0, 1) if exit_2 is None else (0, 1, 2)), (name, code)
        command = "-".join(argv[:2] if argv[0] in ("thm", "construct") else argv[:1])
        if code == 2:
            assert not text and len(errors) == 1 and re.match(exit_2, errors[0]), (name, errors)
        elif not text:
            own = run == "atomic" and is_bessel.get(point) is False
            pattern = NOT_PSD if own else NO_REPORT.get(run)
            assert code == 1 and pattern and len(errors) == 1, (name, errors)
            assert re.match(pattern, errors[0]), (name, errors)
        else:
            assert_compact_canonical(text)
            rep = json.loads(text)
            assert rep["command"] == command
            assert bool(VERDICTS[command](rep)) == (code == 0), name
            if run == "bounds":
                is_bessel[point] = rep["is_bessel"]
        assert report_diff.run(argv) == outcome, name


def _times(c, *docs):
    """Each operator document times the number c, written as lists of numbers."""
    for doc in docs:
        a = serialize.operator_from_dict(doc)
        doc.update(re=(c * a.real).ravel().tolist(), im=(c * a.imag).ravel().tolist())


def _lambdas(d):
    return [item["lambda"] for item in d["f"]["items"]]


# Edits of a parseval 4/3 draw: an input scaled until a square underflows,
TINY = {"k-1e-170": lambda d: _times(1e-170, d["k"]),
        "lambda-1e-100": lambda d: _times(1e-100, *_lambdas(d)),
        "u-1e-170": lambda d: _times(1e-170, d["c"]["u"]),
        "controls-1e-170": lambda d: _times(1e-170, d["c"]["t"], d["c"]["u"])}
# or overflows: the runs on these may exit 2, where a product is not finite.
OVERFLOW = "error: operator entries must be finite$"
HUGE = {"lambda-1e-100-controls-1e160": lambda d: (_times(1e-100, *_lambdas(d)),
                                                   _times(1e160, d["c"]["t"], d["c"]["u"])),
        "lambda-1e-100-vw-1e160": lambda d: (_times(1e-100, *_lambdas(d)), d.update(
            v=as_json(1e160 * np.eye(4)), w=as_json(1e160 * np.eye(4))))}


def _docs(fam, cp, k):
    """The JSON documents of the files f, c and k, and of a zero v and w."""
    zero = np.zeros((fam.ambient_dim,) * 2)
    return dict(zip("fckvw", map(as_json, (fam, cp, k, zero, zero))))


def _draw(seed, dim, structure, control=lambda x: x.control, edit=lambda docs: None):
    """`_docs` of a `random` draw under `control(draw)`, after `edit`."""
    x = generate.random_instance(seed, dim, min(dim, 3), structure)
    docs = _docs(x.family, control(x), x.k)
    edit(docs)
    return docs


def _rank_one():
    # one item, the projector onto e_1: Bessel, not a frame
    sub = Subspace(3, np.eye(3, 1, dtype=complex))
    return _docs(FrameFamily(3, [(sub, projector(sub), 1.0)]), ControlPair.identity(3), np.eye(3))


# The inputs the grid lacks, by name: a rank-one family; the TINY and HUGE
# parseval draws; at seed 42, a scalar-controls draw that is not a frame
# (S^-1 read from F's own spectrum), its family under (I, (1 + 1e-13 i) I),
# whose roots take a dense pair's path, and a near-identity-pair draw under
# its pair control (I, I + E).
OFF_GRID = {
    "rank-one-3": _rank_one,
    **{f"{name}-4": lambda edit=edit: _draw(1, 4, "parseval", edit=edit)
       for name, edit in {**TINY, **HUGE}.items()},
    "scalar-controls-42-6": lambda: _draw(42, 6, "scalar-controls"),
    "near-real-42-6": lambda: _draw(42, 6, "scalar-controls",
                                    lambda x: ControlPair.scalars(6, 1, 1 + 1e-13j)),
    "pair-control-42-6": lambda: _draw(42, 6, "near-identity-pair",
                                       lambda x: ControlPair(x.control.t, x.control2.u)),
}

# The commands run on OFF_GRID, `bounds` before `atomic`, with their files
# (a construct takes f, c and k twice, thm 4.4 f).
OFF_GRID_COMMANDS = [
    (["check-frame"], "fc"), (["bounds"], "fc"), (["atomic"], "fck"), (["thm", "4.1"], "fc"),
    (["thm", "4.2"], "fc"), (["resolutions"], "fc"), (["construct", "direct-sum"], "ffcckk"),
    (["construct", "conjugate"], "ffcckkvw"), (["construct", "sum-transform"], "ffckvw"),
    (["thm", "4.4"], "ffc"),
]


def group(name):
    """A grid run's point without its seed ("generic-6"), or its kind ("shared")."""
    return name.split()[0].rsplit("-", 1)[0]


GROUPS = list(dict.fromkeys(group(name) for name, _ in report_diff.grid(
    "", "", report_diff.paired_structures(), report_diff.SEEDS[:1])))


@pytest.mark.parametrize("inputs", GROUPS + list(OFF_GRID))
def test_failed_verdict_writes_report(tmp_path, grid, inputs):
    """`assert_contract` on each group of the grid's runs (the `grid`
    fixture's one pass), and on the inputs the grid lacks.  The grid's
    `random` runs write the files its report runs read.  The constructions
    on a zero --v and --w have nothing to predict."""
    runs = [(name, argv, outcome) for name, argv, outcome in grid if group(name) == inputs]
    if inputs in OFF_GRID:
        docs = OFF_GRID[inputs]()
        for name, doc in docs.items():
            (tmp_path / name).write_text(json.dumps(doc))
        flags = {"f": "--in", "c": "--control", "k": "--k", "v": "--v", "w": "--w"}
        for words, files in OFF_GRID_COMMANDS:
            argv = words + [a for name in files for a in (flags[name], str(tmp_path / name))]
            runs.append((f"{inputs} {'-'.join(words)}", argv, report_diff.run(argv)))
            if "v" in files and not serialize.operator_from_dict(docs["v"]).any():
                code, _, text = runs[-1][2]
                rep = json.loads(text)
                assert code == 1 and rep["predicted_lower"] is rep["predicted_upper"] is None
    assert all(outcome[0] == 0 for _, argv, outcome in runs if argv[0] == "random")
    assert_contract([run for run in runs if run[1][0] != "random"],
                    OVERFLOW if inputs.removesuffix("-4") in HUGE else None)


# ---------------------------------------------------------------- bad input
#
# Every malformed input is an InvalidParameters, rejected where its type is
# built: exit 2, one "error:" line, no report, no traceback.


def _instance_docs(tmp_path):
    """The JSON documents of a 4-dim near-identity-pair instance, by file stem."""
    assert main(["random", "--seed", "5", "--dim", "4", "--items", "2",
                 "--structure", "near-identity-pair", "--out", str(tmp_path / "inst")]) == 0
    return {p.stem: json.loads(p.read_text()) for p in (tmp_path / "inst").glob("*.json")}


def _set_leaf(doc, path, value):
    for key in path[:-1]:
        doc = doc[key]
    doc[path[-1]] = value


def _edit(stem, *path, value):
    return lambda docs: _set_leaf(docs[stem], path, value)


def _entry(stem, *path, part, index, value, encode=list):
    """Entry `index` (row-major) of the `part` ("re" or "im") of the operator
    at `path` of docs[stem] set to `value`: decoded, edited, and both parts
    written by `encode`, as lists of numbers or as binary64 (`binary64`)."""
    def edit(docs):
        doc = docs[stem]
        for key in path:
            doc = doc[key]
        a = serialize.operator_from_dict(doc)
        parts = {"re": a.real.ravel().tolist(), "im": a.imag.ravel().tolist()}
        parts[part][index] = value
        doc.update({key: encode(entries) for key, entries in parts.items()})
    return edit


def _nan_k(docs):
    docs["bad"] = json.loads(json.dumps(docs["k"]))
    _entry("bad", part="re", index=0, value=math.nan)(docs)


def _one_row_lambda(docs):
    # a valid 1 x 4 operator, with its row count written as the boolean true
    docs["family"]["items"][0]["lambda"] = {"rows": True, "cols": 4, "re": [1.0, 0, 0, 0],
                                            "im": [0.0, 0, 0, 0]}


def _write_docs(d, docs, argv):
    """Write each document to d/<stem>.json (a float nan or inf as the token
    NaN or Infinity) and return argv with each "@stem" replaced by its path."""
    for stem, doc in docs.items():
        (d / f"{stem}.json").write_text(json.dumps(doc))
    return [str(d / f"{a[1:]}.json") if a.startswith("@") else a for a in argv]


_F, _F2, _C, _PC, _K, _BAD = (f"@{s}" for s in ("family", "family2", "control", "pair_control",
                                                "k", "bad"))
_SUM = ["construct", "sum-transform", "--in", _F, "--in", _F, "--control", _C, "--k", _K]
_CONJ = ["construct", "conjugate", "--in", _F, "--in", _F, "--control", _C, "--control", _C,
         "--k", _K, "--k", _K]
_PERTURB = ["thm", "perturb", "--in", _F, "--in", _F2, "--control", _PC, "--lambda1", "0.1",
            "--lambda2", "0"]
_CHECK = ["check-frame", "--in", _F, "--control", _C]
_ATOMIC = ["atomic", "--in", _F, "--control", _C, "--k", _K]
_RANDOM = ["random", "--dim", "3", "--items", "2"]
_BASIS = ("items", 0, "subspace", "basis")

# (id, edit of the instance documents, argv; "@stem" names a document's file)
BAD_INPUTS = [
    ("k-nan", _entry("k", part="re", index=0, value=math.nan), _ATOMIC),
    ("k-infinity", _entry("k", part="im", index=1, value=math.inf), _ATOMIC),
    ("k-minus-infinity", _entry("k", part="re", index=2, value=-math.inf), _ATOMIC),
    # the binary64 form: the NaN and +inf bit patterns, a character outside
    # the base64 alphabet, a missing pad character, 15 entries for 4 x 4 and
    # a number where the string belongs
    ("k-nan-binary64", _entry("k", part="re", index=0, value=math.nan, encode=binary64),
     _ATOMIC),
    ("k-infinity-binary64", _entry("k", part="im", index=3, value=math.inf, encode=binary64),
     _ATOMIC),
    ("k-not-base64", lambda docs: docs["k"].update(re="!" + docs["k"]["re"][1:]), _ATOMIC),
    ("k-no-padding", lambda docs: docs["k"].update(re=docs["k"]["re"].rstrip("=")), _ATOMIC),
    ("k-15-entries", _edit("k", "im", value=binary64([0.0] * 15)), _ATOMIC),
    ("k-number-for-string", _edit("k", "re", value=1.0), _ATOMIC),
    ("sum-transform-v-nan", _nan_k, _SUM + ["--v", _BAD, "--w", _K]),
    ("sum-transform-w-nan", _nan_k, _SUM + ["--v", _K, "--w", _BAD]),
    ("conjugate-v-nan", _nan_k, _CONJ + ["--v", _BAD, "--w", _K]),
    ("conjugate-w-nan", _nan_k, _CONJ + ["--v", _K, "--w", _BAD]),
    ("items-3", _edit("family", "items", value=3), _CHECK),
    ("ambient-dim-x", _edit("family", "ambient_dim", value="x"), _CHECK),
    ("ambient-dim-4.5", _edit("family", "ambient_dim", value=4.5), _CHECK),
    ("rows-true", _one_row_lambda, _CHECK),
    ("weight-infinity", _edit("family", "items", 0, "weight", value=math.inf), _CHECK),
    ("basis-nan", _entry("family", *_BASIS, part="re", index=0, value=math.nan), _CHECK),
    ("random-seed-negative", None, _RANDOM + ["--seed", "-1"]),
    ("random-seed-2**64", None, _RANDOM + ["--seed", str(2**64)]),
    ("perturb-seed-negative", None, _PERTURB + ["--seed", "-1"]),
    ("fourier-seed-negative", None, ["fourier-demo", "--nmax", "4", "--m", "2", "--alpha", "0.5",
                                     "--beta", "0.5", "--seed", "-5"]),
    # an --out that cannot be written: a missing directory, an existing file
    ("out-missing-directory", None, _CHECK + ["--out", "@nodir/report"]),
    ("random-out-existing-file", None, _RANDOM + ["--seed", "1", "--out", _F]),
]


@pytest.mark.parametrize("edit, argv", [row[1:] for row in BAD_INPUTS],
                         ids=[row[0] for row in BAD_INPUTS])
def test_bad_input_exit_2(tmp_path, capsys, edit, argv):
    docs = _instance_docs(tmp_path)
    if edit is not None:
        edit(docs)
    out = tmp_path / "report"
    argv = _write_docs(tmp_path, docs, argv)
    if "--out" not in argv:
        argv += ["--out", str(out)]
    capsys.readouterr()
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1, captured.err
    assert captured.out == ""
    assert not out.exists()


def _leaves(doc, path=()):
    """Paths to the scalars of a JSON document."""
    if isinstance(doc, (dict, list)):
        for key, value in (doc.items() if isinstance(doc, dict) else enumerate(doc)):
            yield from _leaves(value, (*path, key))
    else:
        yield path


# A valid 3-dim instance, as `gfusion random` writes it but with each
# operator's entries as lists of numbers, and every leaf of it.
_BASE_INSTANCE = generate.random_instance(5, 3, 3, "scalar-controls")
_BASE = {stem: json.loads(report_diff.canonical(serialize.dumps(getattr(_BASE_INSTANCE, stem))))
         for stem in ("family", "control", "k")}
_LEAVES = [(stem, path) for stem, doc in _BASE.items() for path in _leaves(doc)]
_REPLACEMENTS = [math.nan, math.inf, -1, 0, 4.5, "x", [], {}, None, True, 1e308]
_MUTATION_COMMANDS = [_CHECK, ["bounds", "--in", _F, "--control", _C], _ATOMIC,
                      ["thm", "4.2", "--in", _F, "--control", _C]]


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(leaf=st.sampled_from(_LEAVES), value=st.sampled_from(_REPLACEMENTS))
def test_mutated_input_exits_with_a_verdict_or_2(tmp_path_factory, leaf, value):
    """One leaf of a valid instance replaced by a bad or odd value: the CLI
    contract holds (`assert_contract`, any "error:" line with exit 2) and no
    warning is emitted."""
    d = tmp_path_factory.mktemp("mutated")
    docs = json.loads(json.dumps(_BASE))
    stem, path = leaf
    _set_leaf(docs[stem], path, value)
    runs = []
    for argv in _MUTATION_COMMANDS:
        argv = _write_docs(d, docs, argv)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            outcome = report_diff.run(argv)
        assert not caught, (argv, [str(w.message) for w in caught])
        runs.append((f"mutated {'-'.join(argv[:2] if argv[0] == 'thm' else argv[:1])}", argv,
                     outcome))
    assert_contract(runs, "error: ")
