import contextlib
import io
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gfusion import cli, constructions, fourier, frames, generate, resolution, serialize, tolerances
from gfusion.cli import main
from gfusion.errors import GFusionError
from gfusion.frames import ControlPair, FrameFamily, frame_operator
from gfusion.linalg import Subspace, projector

from conftest import (
    assert_compact_canonical,
    complex_gaussian,
    record_svd_inputs,
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


class TestCheckFrame:
    def test_pass(self, capsys, partition_inputs):
        _, fam, cp, _ = partition_inputs
        code, rep = run(capsys, "check-frame", "--in", str(fam), "--control", str(cp))
        assert code == 0
        assert rep["is_frame"] is True
        assert abs(rep["bounds"]["lambda_min"] - 2.0) < 1e-9
        assert abs(rep["bounds"]["lambda_max"] - 5.0) < 1e-9

    def test_out_file(self, tmp_path, capsys, partition_inputs):
        _, fam, cp, _ = partition_inputs
        out = tmp_path / "report.json"
        code = main(
            ["check-frame", "--in", str(fam), "--control", str(cp), "--out", str(out)]
        )
        assert code == 0
        rep = json.loads(out.read_text())
        assert rep["command"] == "check-frame"
        assert capsys.readouterr().out == ""

    def test_deterministic_output(self, tmp_path, partition_inputs):
        _, fam, cp, _ = partition_inputs
        o1, o2 = tmp_path / "a.json", tmp_path / "b.json"
        for o in (o1, o2):
            assert main(["bounds", "--in", str(fam), "--control", str(cp), "--out", str(o)]) == 0
        assert o1.read_bytes() == o2.read_bytes()

    def test_parse_error_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        cp = tmp_path / "cp.json"
        cp.write_text(serialize.dumps(serialize.control_pair_to_dict(ControlPair.identity(2))))
        code = main(["check-frame", "--in", str(bad), "--control", str(cp)])
        assert code == 2
        assert "error" in capsys.readouterr().err


    def test_zero_residual_is_positive_zero(self, tmp_path, capsys):
        # parseval controls make S exactly Hermitian: the residual prints as
        # 0.0, never -0.0
        inst = tmp_path / "inst"
        assert main(["random", "--seed", "42", "--dim", "6", "--items", "3",
                     "--structure", "parseval", "--out", str(inst)]) == 0
        code, rep = run(capsys, "check-frame", "--in", str(inst / "family.json"),
                        "--control", str(inst / "control.json"))
        assert code == 0
        assert rep["herm_residual"] == 0.0
        assert math.copysign(1.0, rep["herm_residual"]) == 1.0

class TestAtomic:
    def test_identity_k(self, capsys, partition_inputs):
        _, fam, cp, k = partition_inputs
        code, rep = run(
            capsys, "atomic", "--in", str(fam), "--control", str(cp), "--k", str(k)
        )
        assert code == 0
        assert rep["is_atomic"] is True
        assert rep["coefficient_residual"] <= 1e-8
        assert abs(rep["lower_bound"] - 2.0) < 1e-9


class TestConstruct:
    def test_direct_sum(self, tmp_path, capsys, partition_inputs):
        _, fam, cp, k = partition_inputs
        code, rep = run(
            capsys,
            "construct", "direct-sum",
            "--in", str(fam), "--in", str(fam),
            "--control", str(cp), "--control", str(cp),
            "--k", str(k), "--k", str(k),
        )
        assert code == 0
        assert rep["all_hypotheses_pass"] is True
        assert abs(rep["measured"]["lambda_min"] - 2.0) < 1e-9
        assert abs(rep["measured"]["lambda_max"] - 5.0) < 1e-9
        assert rep["family_out"]["ambient_dim"] == 8


class TestPairAndResolutions:
    def test_pair_op_adjoint(self, capsys, partition_inputs):
        _, fam, cp, _ = partition_inputs
        code, rep = run(
            capsys, "pair-op", "--in", str(fam), "--in", str(fam), "--control", str(cp)
        )
        assert code == 0
        assert rep["adjoint_residual"] <= 1e-12

    def test_resolutions(self, capsys, partition_inputs):
        _, fam, cp, _ = partition_inputs
        code, rep = run(capsys, "resolutions", "--in", str(fam), "--control", str(cp))
        assert code == 0
        assert rep["right_multiplied"]["converged"] is True
        assert rep["left_multiplied"]["converged"] is True
        assert rep["right_multiplied"]["term_count"] == 2


class TestThm:
    def test_41(self, capsys, partition_inputs):
        _, fam, cp, _ = partition_inputs
        code, rep = run(capsys, "thm", "4.1", "--in", str(fam), "--control", str(cp))
        assert code == 0
        assert rep["certified"] is True
        assert rep["predicted_lower"] <= rep["lower"] + 1e-9
        assert rep["upper"] <= rep["predicted_upper"] + 1e-9

    def test_42(self, tmp_path, capsys):
        fam = scaled_partition_family(4, (2.0, 1.5))
        s = frame_operator(fam, ControlPair.identity(4))
        cp = ControlPair(np.eye(4), np.linalg.inv(s))
        fam_path = tmp_path / "f.json"
        fam_path.write_text(serialize.dumps(serialize.family_to_dict(fam)))
        cp_path = tmp_path / "c.json"
        cp_path.write_text(serialize.dumps(serialize.control_pair_to_dict(cp)))
        code, rep = run(capsys, "thm", "4.2", "--in", str(fam_path), "--control", str(cp_path))
        assert code == 0
        assert rep["is_frame"] is True
        assert abs(rep["predicted_lower"] - 0.5) < 1e-12

    def test_44(self, tmp_path, capsys):
        fam = scaled_partition_family(4, (0.5, 2.0))
        fam_path = tmp_path / "f.json"
        fam_path.write_text(serialize.dumps(serialize.family_to_dict(fam)))
        cp_path = tmp_path / "c.json"
        cp_path.write_text(
            serialize.dumps(serialize.control_pair_to_dict(ControlPair.identity(4)))
        )
        code, rep = run(
            capsys, "thm", "4.4",
            "--in", str(fam_path), "--in", str(fam_path), "--control", str(cp_path),
        )
        assert code == 0
        assert abs(rep["m"] - 0.5) < 1e-9
        assert abs(rep["predicted_lower"] - 0.125) < 1e-9

    def test_perturb(self, tmp_path, capsys):
        fam = scaled_partition_family(4, (1.0, 1.0))
        fam_path = tmp_path / "f.json"
        fam_path.write_text(serialize.dumps(serialize.family_to_dict(fam)))
        cp_path = tmp_path / "c.json"
        cp_path.write_text(
            serialize.dumps(serialize.control_pair_to_dict(ControlPair.identity(4)))
        )
        code, rep = run(
            capsys, "thm", "perturb",
            "--in", str(fam_path), "--in", str(fam_path), "--control", str(cp_path),
            "--lambda1", "0.0", "--lambda2", "0.0",
        )
        assert code == 0
        assert rep["hyp_certified"] is True
        assert rep["worst_sample_slack"] >= -1e-12


class TestFourierDemo:
    def test_reference(self, capsys):
        code, rep = run(
            capsys, "fourier-demo",
            "--nmax", "8", "--m", "3", "--alpha", "0.5", "--beta", "0.5",
        )
        assert code == 0
        assert rep["sandwich_ok"] is True
        assert abs(rep["a_opt"] - 0.25) < 1e-9

    def test_invalid_params_exit_2(self, capsys):
        code = main(
            ["fourier-demo", "--nmax", "4", "--m", "9", "--alpha", "0.5", "--beta", "0.5"]
        )
        assert code == 2


class TestRandom:
    def test_writes_files(self, tmp_path, capsys):
        out = tmp_path / "inst"
        code = main(["random", "--seed", "42", "--dim", "5", "--items", "3",
                     "--out", str(out)])
        assert code == 0
        fam = serialize.family_from_dict(serialize.load_json(out / "family.json"))
        cp = serialize.control_pair_from_dict(serialize.load_json(out / "control.json"))
        assert fam.ambient_dim == 5
        assert cp.t.shape == (5, 5)

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

    def test_near_identity_pair_files(self, tmp_path):
        out = tmp_path / "p"
        code = main(["random", "--seed", "1", "--structure", "near-identity-pair",
                     "--out", str(out)])
        assert code == 0
        assert (out / "family2.json").exists()
        assert (out / "pair_control.json").exists()

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

    def test_override_applies(self, capsys, partition_inputs):
        _, fam, cp, _ = partition_inputs
        saved = tolerances.TOL_PSD
        try:
            # absurdly large PSD floor makes the frame verdict fail
            code, rep = run(
                capsys, "check-frame", "--in", str(fam), "--control", str(cp),
                "--tol", "tol_psd=0.9",
            )
            assert code == 1
            assert rep["is_frame"] is False
        finally:
            tolerances.TOL_PSD = saved

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


@pytest.mark.parametrize("trials", ["0", "-3"])
def test_perturb_nonpositive_trials_exit_2(tmp_path, capsys, trials):
    out = tmp_path / "inst"
    assert main(["random", "--seed", "5", "--dim", "8", "--items", "4",
                 "--structure", "near-identity-pair", "--out", str(out)]) == 0
    capsys.readouterr()
    code = main([
        "thm", "perturb",
        "--in", str(out / "family.json"), "--in", str(out / "family2.json"),
        "--control", str(out / "pair_control.json"),
        "--lambda1", "0.1", "--lambda2", "0.0", "--trials", trials,
    ])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "trials" in captured.err


def test_perturb_negative_lambda1_one_parameter_exit_2(tmp_path, capsys):
    # rejected with the other parameter checks, before any vector is sampled
    out = tmp_path / "inst"
    assert main(["random", "--seed", "3", "--dim", "8", "--items", "4",
                 "--structure", "near-identity-pair", "--out", str(out)]) == 0
    capsys.readouterr()
    code = main([
        "thm", "perturb",
        "--in", str(out / "family.json"), "--in", str(out / "family2.json"),
        "--control", str(out / "pair_control.json"),
        "--lambda1", "-0.5", "--lambda2", "0",
    ])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "one-parameter path requires lambda1 in [0, 1)" in captured.err


def _write(path, obj):
    path.write_text(serialize.dumps(serialize.to_json(obj)))
    return str(path)


@pytest.mark.parametrize("case", ["item-count", "weights", "control-dim", "k-shape"])
def test_mismatched_inputs_exit_2(tmp_path, capsys, case):
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
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ")


def test_fourier_demo_builds_example_once(tmp_path, monkeypatch):
    from gfusion import fourier

    calls = []
    build = fourier.build_fourier_example

    def counting_build(p):
        calls.append(p)
        return build(p)

    monkeypatch.setattr(fourier, "build_fourier_example", counting_build)
    out = tmp_path / "demo.json"
    argv = ["fourier-demo", "--nmax", "5", "--m", "2", "--alpha", "0.5",
            "--beta", "0.8", "--trials", "20", "--out", str(out)]
    assert main(argv) == 0
    assert len(calls) == 1
    fam, cp, k = build(calls[0])
    rep = json.loads(out.read_text())
    assert rep["family"] == json.loads(serialize.dumps(serialize.family_to_dict(fam)))
    assert rep["control"] == json.loads(serialize.dumps(serialize.control_pair_to_dict(cp)))
    assert rep["k"] == json.loads(serialize.dumps(serialize.operator_to_dict(k)))


def test_thm_perturb_evaluates_each_family_once(tmp_path, capsys, monkeypatch):
    # left bounds (1.5, 2), right bounds (1, 1): the default d1 is the left
    # family's Bessel bound and d2 the right family's
    from gfusion import frames

    paths = []
    for name, scales in (("left", (2.0, 1.5)), ("right", (1.0, 1.0))):
        path = tmp_path / f"{name}.json"
        fam = scaled_partition_family(4, scales)
        path.write_text(serialize.dumps(serialize.family_to_dict(fam)))
        paths.append(str(path))
    cp_path = tmp_path / "c.json"
    cp_path.write_text(serialize.dumps(serialize.control_pair_to_dict(ControlPair.identity(4))))
    calls = []
    init = frames.FrameEvaluation.__init__

    def counting_init(self, fam, cp):
        calls.append(fam)
        init(self, fam, cp)

    monkeypatch.setattr(frames.FrameEvaluation, "__init__", counting_init)
    code, rep = run(
        capsys, "thm", "perturb", "--in", paths[0], "--in", paths[1],
        "--control", str(cp_path), "--lambda1", "0.5", "--lambda2", "0.0",
    )
    assert code == 0
    assert len(calls) == 2
    assert rep["lower_gamma_predicted"] == pytest.approx(0.5**2 / 2.0, rel=1e-12)
    assert rep["lower_lambda_predicted"] == pytest.approx(0.5**2 / 1.0, rel=1e-12)


def test_thm_perturb_checks_each_control_once(tmp_path, capsys, monkeypatch):
    # one SVD per distinct control per check: loading the pair (t, u), then
    # the pair operator's (t, t) and (u, u); every evaluation reuses them
    rng = np.random.default_rng(5)
    t = np.eye(4, dtype=complex)
    u = np.eye(4) + 0.02 * complex_gaussian(rng, 4, 4) / 4
    paths = []
    for name, scales in (("left", (2.0, 1.5)), ("right", (1.0, 1.0))):
        paths.append(_write(tmp_path / f"{name}.json", scaled_partition_family(4, scales)))
    cp_path = _write(tmp_path / "c.json", ControlPair(t, u))
    seen = record_svd_inputs(monkeypatch)
    code, rep = run(
        capsys, "thm", "perturb", "--in", paths[0], "--in", paths[1],
        "--control", cp_path, "--lambda1", "0.5", "--lambda2", "0.0",
    )
    assert code == 0
    assert rep["lower_gamma_predicted"] == pytest.approx(0.5**2 / 2.0, rel=1e-12)
    assert sum(np.array_equal(a, t) for a in seen) == 2
    assert sum(np.array_equal(a, u) for a in seen) == 2


@pytest.mark.parametrize("structure", ["near-identity-pair", "generic"])
def test_direct_sum_control_needs_no_svd(tmp_path, capsys, monkeypatch, structure):
    # 24 (+) 24: the 48 x 48 controls take the blocks' singular extremes;
    # the only SVDs are of the 24 x 24 controls, when each file is loaded
    out = tmp_path / "inst"
    assert main(["random", "--seed", "7", "--dim", "24", "--items", "6",
                 "--structure", structure, "--out", str(out)]) == 0
    fam, ctl, k = (str(out / f) for f in ("family.json", "control.json", "k.json"))
    seen = record_svd_inputs(monkeypatch)
    main(["construct", "direct-sum", "--in", fam, "--in", fam, "--control", ctl,
          "--control", ctl, "--k", k, "--k", k, "--out", str(tmp_path / "r.json")])
    assert seen and all(a.shape == (24, 24) for a in seen)


INVALID_THEOREM_PARAMETERS = [
    ("thm-perturb", ["--d1", "0"]),
    ("thm-perturb", ["--d1=-1"]),
    ("thm-perturb", ["--d1", "nan"]),
    ("thm-perturb", ["--d2", "inf"]),
    ("fourier-demo", ["--alpha", "nan", "--beta", "0.5"]),
    ("fourier-demo", ["--alpha", "0.5", "--beta", "nan"]),
    ("fourier-demo", ["--alpha", "inf", "--beta", "0.5"]),
]


@pytest.mark.parametrize("command, params", INVALID_THEOREM_PARAMETERS)
def test_invalid_theorem_parameters_exit_2(tmp_path, capsys, partition_inputs, command, params):
    """Checked before any sampling: exit 2, an error line and no report."""
    _, fam, cp, _ = partition_inputs
    if command == "thm-perturb":
        # S = diag(2, 5) is far from the identity: sampling would fail first
        argv = ["thm", "perturb", "--in", str(fam), "--in", str(fam), "--control", str(cp)]
    else:
        argv = ["fourier-demo", "--nmax", "4", "--m", "2"]
    out = tmp_path / "report.json"
    code = main(argv + params + ["--out", str(out)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.strip().splitlines()[-1].startswith("error: ")
    assert not out.exists()


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


def schema_argv(tmp_path, argv):
    """`argv` with each input name of REPORT_SCHEMAS replaced by the path of
    that input, written to `tmp_path`."""
    fam = scaled_partition_family(4, (2.0, 1.5))
    s = frame_operator(fam, ControlPair.identity(4))
    inputs = {
        "F": serialize.family_to_dict(fam),
        "C": serialize.control_pair_to_dict(ControlPair.identity(4)),
        "CI": serialize.control_pair_to_dict(ControlPair(np.eye(4), np.linalg.inv(s))),
        "K": serialize.operator_to_dict(np.eye(4)),
        "V": serialize.operator_to_dict(0.5 * np.eye(4)),
        "W": serialize.operator_to_dict(1.5 * np.eye(4)),
    }
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
    """Every report, on stdout or in --out, is one line of canonical JSON."""
    argv = schema_argv(tmp_path, argv)
    out = tmp_path / "report.json"
    assert main(argv + ["--out", str(out)]) in (0, 1)
    text = out.read_text()
    assert_compact_canonical(text)
    main(argv)
    assert capsys.readouterr().out == text


def _pair(x, control):
    return resolution.pair_frame_operator(x["F"], x[control].t, x["F"], x[control].u)


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
    fam = scaled_partition_family(4, (2.0, 1.5))
    s = frame_operator(fam, ControlPair.identity(4))
    objects = {
        "F": fam,
        "C": ControlPair.identity(4),
        "CI": ControlPair(np.eye(4), np.linalg.inv(s)),
        "K": np.eye(4),
        "V": 0.5 * np.eye(4),
        "W": 1.5 * np.eye(4),
    }
    for name, obj in objects.items():
        (tmp_path / name).write_text(serialize.dumps(serialize.to_json(obj)))
    argv = [str(tmp_path / a) if a in objects else a for a in argv]
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
    expected = {"command": command, **serialize.to_json(lib)}
    assert rep == json.loads(serialize.dumps(expected))


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
def test_wrong_file_count_exit_2(tmp_path, capsys, argv):
    """Each command reads exactly its files: another count of --in, --control
    or --k, or a missing or unread --v / --w, exits 2 with an error line and
    no report."""
    out = tmp_path / "report.json"
    code = main(schema_argv(tmp_path, argv) + ["--out", str(out)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.strip().splitlines()[-1].startswith("error: ")
    assert not out.exists()


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
def test_unread_argument_exit_2(tmp_path, capsys, argv, error):
    """A parameter the command does not read, or a file beyond its count,
    exits 2 with an error line naming it and no report."""
    out = tmp_path / "report.json"
    code = main(schema_argv(tmp_path, argv) + ["--out", str(out)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.strip().splitlines()[-1] == f"error: {error}"
    assert not out.exists()


# The library function behind each LIBRARY_CALLS command, by module attribute.
LIBRARY_FUNCTIONS = {
    "check-frame": (frames, "controlled_frame_bounds"),
    "bounds": (frames, "controlled_frame_bounds"),
    "atomic": (frames, "atomic_check"),
    "construct-direct-sum": (constructions, "direct_sum_frame"),
    "construct-sum-transform": (constructions, "sum_transform"),
    "construct-conjugate": (constructions, "conjugate_transform"),
    "pair-op": (resolution, "adjoint_check"),
    "resolutions": (resolution, "canonical_resolutions"),
    "thm-4.1": (resolution, "inverse_commutation_check"),
    "thm-4.2": (resolution, "bessel_resolution_frame_check"),
    "thm-4.4": (resolution, "coercive_pair_check"),
    "thm-perturb": (resolution, "perturbation_check"),
    "fourier-demo": (fourier, "verify_fourier"),
}


def test_every_command_has_a_pinned_schema():
    commands = {c for _, c, _ in REPORT_SCHEMAS}
    assert {"-".join(words) for words in cli.COMMANDS} == commands
    assert set(LIBRARY_CALLS) == set(LIBRARY_FUNCTIONS) == commands


@pytest.mark.parametrize(
    "argv, command", [(a, c) for a, c, _ in REPORT_SCHEMAS],
    ids=[c for _, c, _ in REPORT_SCHEMAS],
)
def test_library_function_called_once(tmp_path, capsys, monkeypatch, argv, command):
    """Each command calls its library function once, through the module
    attribute, so a rebound attribute (as the benchmark's tracer makes) is
    the one called."""
    module, name = LIBRARY_FUNCTIONS[command]
    function = getattr(module, name)
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return function(*args, **kwargs)

    monkeypatch.setattr(module, name, counting)
    assert main(schema_argv(tmp_path, argv)) in (0, 1)
    assert len(calls) == 1


def _construct_verdict(rep):
    return rep["all_hypotheses_pass"] and float(rep["measured"]["lambda_min"]) >= (
        float(rep["predicted_lower"])
        - tolerances.TOL_CONSTRUCT * max(float(rep["predicted_upper"]), 1.0)
    )


# Each grid command, with its files (f family, c control, k operator; a
# construct takes each twice) and its verdict read from the report.
GRID_COMMANDS = [
    (["check-frame"], "fc", lambda r: r["is_frame"]),
    (["bounds"], "fc", lambda r: r["is_bessel"]),
    (["atomic"], "fck", lambda r: r["is_atomic"]),
    (["thm", "4.1"], "fc", lambda r: r["certified"]),
    (["thm", "4.2"], "fc", lambda r: r["is_frame"]),
    (["resolutions"], "fc",
     lambda r: r["right_multiplied"]["converged"] and r["left_multiplied"]["converged"]),
    (["construct", "direct-sum"], "ffcckk", _construct_verdict),
]
GRID_INPUTS = [(s, d) for s in generate.STRUCTURES for d in (1, 2, 6)] + [("rank-one", 3)]


@pytest.mark.parametrize("structure, dim", GRID_INPUTS, ids=[f"{s}-{d}" for s, d in GRID_INPUTS])
def test_failed_verdict_writes_report(tmp_path, capsys, structure, dim):
    """Every exit 1 writes a report whose verdict is false, except `atomic`
    on a family that is not Bessel (it has no T_C); every exit 0 a report
    whose verdict is true; a repeat run writes the same bytes."""
    if structure == "rank-one":
        # one item, the projector onto e_1: Bessel, not a frame
        sub = Subspace(3, np.eye(3, 1, dtype=complex))
        fam = FrameFamily(3, [(sub, projector(sub), 1.0)])
        for name, obj in zip("fck", (fam, ControlPair.identity(3), np.eye(3))):
            (tmp_path / name).write_text(serialize.dumps(serialize.to_json(obj)))
    else:
        main(["random", "--seed", "5", "--dim", str(dim), "--items", str(min(dim, 3)),
              "--structure", structure, "--out", str(tmp_path / "inst")])
        for name, file in zip("fck", ("family", "control", "k")):
            (tmp_path / "inst" / f"{file}.json").rename(tmp_path / name)
    flags = {"f": "--in", "c": "--control", "k": "--k"}
    is_bessel = None
    for words, files, verdict in GRID_COMMANDS:
        argv = words + [a for name in files for a in (flags[name], str(tmp_path / name))]
        outs = []
        for out in (tmp_path / "a.json", tmp_path / "b.json"):
            out.unlink(missing_ok=True)
            code = main(argv + ["--out", str(out)])
            err = capsys.readouterr().err
            outs.append((code, out.read_bytes() if out.exists() else None))
        assert outs[0] == outs[1], words
        code, text = outs[0]
        assert code in (0, 1, 2), (words, err)
        if text is None:
            assert (words, code, is_bessel) == (["atomic"], 1, False), err
            assert err.startswith("verification error:")
            continue
        rep = json.loads(text)
        assert bool(verdict(rep)) == (code == 0), words
        if words == ["bounds"]:
            is_bessel = rep["is_bessel"]


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


def _nan_k(docs):
    docs["bad"] = json.loads(json.dumps(docs["k"]))
    docs["bad"]["re"][0] = math.nan


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
_BASIS = ("items", 0, "subspace", "basis", "re", 0)

# (id, edit of the instance documents, argv; "@stem" names a document's file)
BAD_INPUTS = [
    ("k-nan", _edit("k", "re", 0, value=math.nan), _ATOMIC),
    ("k-infinity", _edit("k", "im", 1, value=math.inf), _ATOMIC),
    ("k-minus-infinity", _edit("k", "re", 2, value=-math.inf), _ATOMIC),
    ("sum-transform-v-nan", _nan_k, _SUM + ["--v", _BAD, "--w", _K]),
    ("sum-transform-w-nan", _nan_k, _SUM + ["--v", _K, "--w", _BAD]),
    ("conjugate-v-nan", _nan_k, _CONJ + ["--v", _BAD, "--w", _K]),
    ("conjugate-w-nan", _nan_k, _CONJ + ["--v", _K, "--w", _BAD]),
    ("items-3", _edit("family", "items", value=3), _CHECK),
    ("ambient-dim-x", _edit("family", "ambient_dim", value="x"), _CHECK),
    ("ambient-dim-4.5", _edit("family", "ambient_dim", value=4.5), _CHECK),
    ("rows-true", _one_row_lambda, _CHECK),
    ("weight-infinity", _edit("family", "items", 0, "weight", value=math.inf), _CHECK),
    ("basis-nan", _edit("family", *_BASIS, value=math.nan), _CHECK),
    ("random-seed-negative", None, _RANDOM + ["--seed", "-1"]),
    ("random-seed-2**64", None, _RANDOM + ["--seed", str(2**64)]),
    ("perturb-seed-negative", None, _PERTURB + ["--seed", "-1"]),
    ("fourier-seed-negative", None, ["fourier-demo", "--nmax", "4", "--m", "2", "--alpha", "0.5",
                                     "--beta", "0.5", "--seed", "-5"]),
]


@pytest.mark.parametrize("edit, argv", [row[1:] for row in BAD_INPUTS],
                         ids=[row[0] for row in BAD_INPUTS])
def test_bad_input_exit_2(tmp_path, capsys, edit, argv):
    docs = _instance_docs(tmp_path)
    if edit is not None:
        edit(docs)
    out = tmp_path / "report"
    argv = _write_docs(tmp_path, docs, argv)
    capsys.readouterr()
    code = main(argv + ["--out", str(out)])
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


# A valid 3-dim instance, as `gfusion random` writes it, and every leaf of it.
_BASE_INSTANCE = generate.random_instance(5, 3, 3, "scalar-controls")
_BASE = {stem: serialize.to_json(getattr(_BASE_INSTANCE, stem))
         for stem in ("family", "control", "k")}
_LEAVES = [(stem, path) for stem, doc in _BASE.items() for path in _leaves(doc)]
_REPLACEMENTS = [math.nan, math.inf, -1, 0, 4.5, "x", [], {}, None, True, 1e308]
_MUTATION_COMMANDS = [(_CHECK, lambda r: r["is_frame"]),
                      (_ATOMIC, lambda r: r["is_atomic"]),
                      (["thm", "4.2", "--in", _F, "--control", _C], lambda r: r["is_frame"])]


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                            "ignore:invalid value encountered:RuntimeWarning")
@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(leaf=st.sampled_from(_LEAVES), value=st.sampled_from(_REPLACEMENTS))
def test_mutated_input_exits_with_a_verdict_or_2(tmp_path_factory, leaf, value):
    """One leaf of a valid instance replaced by a bad or odd value: no
    exception escapes `main`; exit 2 writes an "error:" line and no report,
    exit 0 or 1 a report whose verdict agrees (or, for `atomic` on a family
    that is not Bessel, exit 1 with a "verification error:" line)."""
    d = tmp_path_factory.mktemp("mutated")
    docs = json.loads(json.dumps(_BASE))
    stem, path = leaf
    _set_leaf(docs[stem], path, value)
    out = d / "report.json"
    for argv, verdict in _MUTATION_COMMANDS:
        out.unlink(missing_ok=True)
        argv = _write_docs(d, docs, argv)
        with contextlib.redirect_stderr(io.StringIO()) as stderr:
            code = main(argv + ["--out", str(out)])
        err = stderr.getvalue()
        assert code in (0, 1, 2), (argv, err)
        if code == 2:
            assert err.startswith("error: ") and not out.exists(), (argv, err)
        elif out.exists():
            assert bool(verdict(json.loads(out.read_text()))) == (code == 0), argv
        else:
            assert argv[0] == "atomic" and err.startswith("verification error:"), (argv, err)
