import json

import numpy as np
import pytest

from gfusion import constructions, fourier, frames, resolution, serialize, tolerances
from gfusion.cli import main
from gfusion.errors import GFusionError
from gfusion.frames import ControlPair, frame_operator

from conftest import complex_gaussian, record_svd_inputs, scaled_partition_family


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


@pytest.mark.parametrize(
    "argv, command, keys", REPORT_SCHEMAS, ids=[c for _, c, _ in REPORT_SCHEMAS]
)
def test_report_schema(tmp_path, capsys, argv, command, keys):
    """Every report is `command` plus an exact, pinned set of top-level keys."""
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
    argv = [str(tmp_path / a) if a in inputs else a for a in argv]
    code, rep = run(capsys, *argv)
    assert code in (0, 1)
    assert rep["command"] == command
    assert set(rep) == keys | {"command"}


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
