import dataclasses
import json

import numpy as np
import pytest
import scipy.sparse.linalg
from scipy.sparse.linalg import ArpackNoConvergence

from specbound import bounds, cli
from specbound.cli import RunManifest, main, parse_pattern, validate
from specbound.errors import ParameterError


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_pattern():
    C = parse_pattern("band:7,1")
    assert C.rows == 7 and C.nnz == 19
    assert parse_pattern("wigner:3").nnz == 9
    with pytest.raises(ParameterError):
        parse_pattern("moebius:4")


def test_manifest_rejects_unknown_keys():
    with pytest.raises(ParameterError):
        RunManifest.from_dict({"command": "bounds", "patern": "wigner:4"})
    with pytest.raises(ParameterError):
        RunManifest.from_dict({})


def test_manifest_content_hash_stable():
    m1 = RunManifest.from_dict({"command": "bounds", "pattern": "wigner:4"})
    m2 = RunManifest.from_dict({"pattern": "wigner:4", "command": "bounds"})
    assert m1.content_hash() == m2.content_hash()
    m3 = RunManifest.from_dict({"command": "bounds", "pattern": "wigner:5"})
    assert m1.content_hash() != m3.content_hash()


def test_validate_epsilon_out_of_range():
    m = RunManifest(command="bounds", pattern="wigner:8", epsilon=0.9)
    rep = validate(m)
    assert not rep["valid"]
    assert any("epsilon" in v for v in rep["violations"])


def test_validate_moments_guard():
    m = RunManifest(command="moments", pattern="wigner:100", p=6, moments_action="verify")
    rep = validate(m)
    assert any("guard" in v for v in rep["violations"])


def test_validate_alpha():
    m = RunManifest(command="bounds", pattern="wigner:8", alpha=2.0)
    rep = validate(m)
    assert any("alpha" in v for v in rep["violations"])


def test_validate_never_raises_on_bad_pattern():
    m = RunManifest(command="moments", pattern="wigner:0", p=2, moments_action="verify")
    rep = validate(m)
    assert not rep["valid"]


def test_cli_bounds_wigner(capsys):
    code, out, _ = run_cli(capsys, "bounds", "--pattern", "wigner:1024", "--epsilon", "0.1")
    assert code == 0
    payload = json.loads(out)
    main_bound = next(r for r in payload if r["bound_name"] == "main")
    assert main_bound["value"] == pytest.approx(126.7, abs=0.05)
    assert main_bound["sigma"] == 32.0
    names = {r["bound_name"] for r in payload}
    assert {"main", "nck", "gordon", "rect", "dimfree"} <= names


def test_cli_moments_verify(capsys):
    code, out, _ = run_cli(
        capsys, "moments", "verify", "--pattern", "band:5,1", "--p", "2"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["holds"] is True and payload["exact"] is True


def test_cli_moments_census(capsys):
    code, out, _ = run_cli(capsys, "moments", "census", "--p", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["census_size"] == 8


@pytest.mark.parametrize("action", ["census", "verify"])
def test_cli_moments_rejects_a_non_integer_p(capsys, action):
    # validate rejects it before the command runs
    code, out, err = run_cli(capsys, "moments", action, "--pattern", "band:5,1", "--p", "2.5")
    assert code == 1 and out == ""
    assert json.loads(err) == {"error": "ParameterError", "message": "moments needs an integer p"}
    m = RunManifest(command="moments", pattern="band:5,1", p=2.5, moments_action=action)
    assert validate(m)["violations"] == ["moments needs an integer p"]


def test_cli_validate_command(capsys):
    code, out, _ = run_cli(
        capsys, "validate", "--pattern", "wigner:8", "--epsilon", "0.9"
    )
    assert code == 0  # validation reports, never fails the process
    payload = json.loads(out)
    assert payload["valid"] is False


def test_cli_epsilon_error_exit_code(capsys):
    code, _, err = run_cli(capsys, "bounds", "--pattern", "wigner:8", "--epsilon", "0.9")
    assert code == 1
    payload = json.loads(err)
    assert payload["error"] == "ParameterError"


def test_cli_norm(capsys):
    code, out, _ = run_cli(
        capsys, "norm", "--pattern", "wigner:32", "--seed", "3", "--tol", "1e-8"
    )
    assert code == 0
    payload = json.loads(out)
    assert 2.0 < payload["value"] < 16.0
    assert payload["method"] == "dense_eig"


def test_cli_sample_writes_csv(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv(cli.OUTPUT_DIR_ENV, str(tmp_path))
    code, out, _ = run_cli(
        capsys, "sample", "--pattern", "band:50,1", "--seed", "1", "--output", "x.csv"
    )
    assert code == 0
    assert (tmp_path / "x.csv").exists()
    echo = json.loads((tmp_path / "x.csv.manifest.json").read_text())
    assert echo["manifest"]["seed"] == 1
    assert len(echo["content_hash"]) == 40


def test_cli_density(capsys):
    code, out, _ = run_cli(
        capsys, "density", "--pattern", "band_cyclic:512,16", "--seed", "0"
    )
    assert code == 0
    assert json.loads(out)["ks_distance"] < 0.1


def test_cli_phase_deterministic_across_threads(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv(cli.OUTPUT_DIR_ENV, str(tmp_path))
    outputs = []
    for threads, name in [(1, "a.csv"), (8, "b.csv")]:
        code, _, _ = run_cli(
            capsys,
            "phase",
            "--pattern", "band",
            "--n", "128,256",
            "--k-rule", "const:3",
            "--trials", "6",
            "--seed", "7",
            "--threads", str(threads),
            "--output", name,
        )
        assert code == 0
        outputs.append((tmp_path / name).read_bytes())
    assert outputs[0] == outputs[1]


def test_cli_manifest_file_with_flag_override(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv(cli.OUTPUT_DIR_ENV, str(tmp_path))
    manifest = tmp_path / "m.json"
    manifest.write_text(json.dumps({
        "command": "seginer",
        "n_grid": [128],
        "distribution": "rademacher",
        "trials": 5,
        "seed": 3,
        "output": "s.csv",
    }))
    code, out, _ = run_cli(capsys, "seginer", "--manifest", str(manifest), "--trials", "6")
    assert code == 0
    echo = json.loads((tmp_path / "s.csv.manifest.json").read_text())
    assert echo["manifest"]["trials"] == 6  # flag wins over manifest
    text = (tmp_path / "s.csv").read_text().splitlines()
    assert len(text) == 2


def test_cli_report_ok(capsys):
    code, out, _ = run_cli(
        capsys, "report", "--pattern", "wigner:32", "--trials", "30", "--seed", "2"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True
    assert payload["column_ratio_diagnostic"] > 0


@pytest.mark.parametrize("distribution", ["gaussian", "rademacher"])
def test_cli_report_diagonal_has_no_false_alarm(capsys, distribution):
    # the constant-1 structural value sigma + E max exceeds E||X|| on
    # diagonal patterns; it is reported as a diagnostic, and the flag uses
    # the explicit lower bound, which equals E||X|| here for Gaussians
    code, out, _ = run_cli(
        capsys, "report", "--pattern", "diagonal:64", "--trials", "40", "--seed", "2",
        "--distribution", distribution,
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True and not payload["failures"]
    assert payload["structural_lower_diagnostic"] > payload["mc_norm_mean"]


def test_cli_report_guarantee_failure_exit_code(capsys, monkeypatch):
    # an explicit upper bound below the MC mean is a genuine failure
    real = bounds.bound_main
    monkeypatch.setattr(bounds, "bound_main", lambda C, eps: dataclasses.replace(real(C, eps), value=0.5))
    code, out, err = run_cli(
        capsys, "report", "--pattern", "wigner:32", "--trials", "10", "--seed", "2"
    )
    assert code == 2
    payload = json.loads(out)
    assert payload["ok"] is False and payload["failures"]
    assert json.loads(err)["error"] == "GuaranteeError"


@pytest.mark.parametrize("partial, best", [([-2.5], 2.5), ([0.0], 0.0), ([], None)])
def test_cli_nonconvergence_exit_code(capsys, monkeypatch, partial, best):
    def no_convergence(*args, **kwargs):
        raise ArpackNoConvergence("no convergence", np.array(partial), np.zeros((400, len(partial))))

    monkeypatch.setattr(scipy.sparse.linalg, "eigsh", no_convergence)
    code, out, err = run_cli(capsys, "norm", "--pattern", "band_cyclic:400,2", "--seed", "1")
    assert code == 3 and out == ""
    payload = json.loads(err)
    assert payload["error"] == "NonConvergenceError"
    assert payload.get("best_estimate") == best


@pytest.mark.parametrize(
    "key, value",
    [("n_grid", "512,1024"), ("n_grid", [512.5]), ("t_grid", [0, "1"]), ("trials", "10"),
     ("trials", 10.0), ("epsilon", "0.25"), ("seed", True), ("pattern", 5),
     ("tol", float("nan")), ("t_grid", [0.0, float("inf")])],
)
def test_cli_manifest_value_types(tmp_path, capsys, key, value):
    manifest = tmp_path / "m.json"
    data = {"command": "phase", "pattern": "band", "n_grid": [64], "k_rule": "const:3", "trials": 2}
    manifest.write_text(json.dumps(dict(data, **{key: value})))
    code, _, err = run_cli(capsys, "phase", "--manifest", str(manifest))
    assert code == 1
    assert json.loads(err)["error"] == "ParameterError"
    with pytest.raises(ParameterError):
        RunManifest.from_dict(dict(data, **{key: value}))


@pytest.mark.parametrize("spec", ["band:abc", "band:5", "band:5,2,7", "wigner:x"])
def test_cli_malformed_pattern_spec(capsys, spec):
    code, out, err = run_cli(capsys, "bounds", "--pattern", spec)
    assert code == 1 and out == ""
    assert json.loads(err)["error"] == "ParameterError"


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


@pytest.mark.parametrize("kind, shape", [("symmetric", (5, 5)), ("rectangular", (4, 6))])
def test_cli_report_zero_pattern(tmp_path, capsys, kind, shape):
    # no dimension-free or Seginer bound exists for an all-zero pattern
    path = tmp_path / "zero.csv"
    path.write_text("\n".join([",".join(["0"] * shape[1])] * shape[0]) + "\n")
    code, out, _ = run_cli(
        capsys, "report", "--matrix-file", str(path), "--matrix-kind", kind, "--trials", "4"
    )
    assert code == 0
    payload = json.loads(out, parse_constant=_reject_constant)  # strict: no NaN or Infinity
    assert payload["ok"] is True and payload["mc_norm_mean"] == 0.0
    assert payload["column_ratio_diagnostic"] is None
    assert not {"dimfree", "seginer"} & set(payload["upper_bounds"])
    assert ("main" if kind == "symmetric" else "rect") in payload["upper_bounds"]


@pytest.mark.parametrize("rule", ["const:x", "c_log:abc", "const:0"])
def test_cli_malformed_k_rule(capsys, rule):
    code, out, err = run_cli(capsys, "phase", "--pattern", "band", "--n", "64", "--k-rule", rule, "--trials", "2")
    assert code == 1 and out == ""
    assert json.loads(err)["error"] == "ParameterError"


def test_cli_tails(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv(cli.OUTPUT_DIR_ENV, str(tmp_path))
    code, _, _ = run_cli(
        capsys,
        "tails",
        "--pattern", "wigner:8",
        "--trials", "1000",
        "--t-grid", "0,1",
        "--seed", "0",
        "--output", "t.csv",
    )
    assert code == 0
    lines = (tmp_path / "t.csv").read_text().splitlines()
    assert len(lines) == 3  # header + two grid points


def test_cli_no_command_prints_help(capsys):
    assert main([]) == 1


@pytest.mark.parametrize(
    "argv",
    [
        ("report", "--pattern", "wigner:512", "--trials", "20", "--seed", "3"),
        ("report", "--pattern", "wigner:300", "--distribution", "rademacher", "--trials", "10"),
    ],
)
def test_cli_dense_report_bytes_independent_of_blas_threads(specbound_cli, argv):
    # dense LAPACK digits depend on OpenBLAS's thread count at n >= 256:
    # every Monte Carlo trial and the rademacher ||B|| solve run on one
    # BLAS thread, so neither the environment nor --threads changes stdout
    runs = [
        specbound_cli(*argv, "--threads", threads, env={"OPENBLAS_NUM_THREADS": blas})
        for blas, threads in (("1", "1"), ("2", "1"), ("2", "2"))
    ]
    assert runs[0].stdout
    assert all(r.stdout == runs[0].stdout for r in runs[1:])
