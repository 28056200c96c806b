import argparse
import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse.linalg
from scipy.sparse.linalg import ArpackNoConvergence

from specbound import bounds, cli, coeffs
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


def test_validate_moments_runs_the_comparison_precondition(tmp_path, capsys):
    path = tmp_path / "rect.csv"
    path.write_text("1,1,1\n1,1,1\n")
    m = RunManifest(
        command="moments", matrix_file=str(path), matrix_kind="rectangular", p=1, moments_action="verify"
    )
    message = "trace moments are defined for symmetric patterns"
    assert validate(m)["violations"] == [message]
    code, out, err = run_cli(
        capsys, "moments", "verify", "--matrix-file", str(path), "--matrix-kind", "rectangular", "--p", "1"
    )
    assert code == 1 and out == ""
    assert json.loads(err) == {"error": "ParameterError", "message": message}


def test_alpha_is_an_unknown_key(tmp_path, capsys):
    # alpha is no manifest key and no flag: a manifest carrying it, even as null, is refused
    message = "unknown manifest keys: ['alpha']"
    for value in (None, 4.0):
        data = {"command": "bounds", "pattern": "wigner:8", "alpha": value}
        with pytest.raises(ParameterError) as exc:
            RunManifest.from_dict(data)
        assert str(exc.value) == message
        path = tmp_path / "m.json"
        path.write_text(json.dumps(data))
        code, out, err = run_cli(capsys, "bounds", "--manifest", str(path))
        assert code == 1 and out == ""
        assert json.loads(err) == {"error": "ParameterError", "message": message}
    code, out, err = run_cli(capsys, "bounds", "--pattern", "wigner:8", "--alpha", "4")
    assert code == 1 and out == ""
    assert json.loads(err) == {"error": "ParameterError", "message": "unrecognized arguments: --alpha 4"}


def test_beta_is_no_flag_and_no_manifest_key(tmp_path, capsys):
    # the heavy law carries its own beta, heavy:<beta>
    code, out, err = run_cli(capsys, "bounds", "--pattern", "wigner:8", "--beta", "3")
    assert code == 1 and out == ""
    assert json.loads(err) == {"error": "ParameterError", "message": "unrecognized arguments: --beta 3"}
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"command": "bounds", "pattern": "wigner:8", "beta": 3.0}))
    code, out, err = run_cli(capsys, "bounds", "--manifest", str(path))
    assert code == 1 and out == ""
    assert json.loads(err) == {"error": "ParameterError", "message": "unknown manifest keys: ['beta']"}


def test_usage_errors_exit_1_with_a_json_error(capsys):
    # exit 2 is kept for a failed guarantee
    for argv, message in [
        (["bounds", "--pattern", "wigner:8", "--matrix-format", "Sparse"],
         "argument --matrix-format: invalid choice: 'Sparse' (choose from 'dense', 'sparse')"),
        (["bounds", "--pattern", "wigner:8", "--trials", "many"], "argument --trials: invalid int value: 'many'"),
        (["bound", "--pattern", "wigner:8"], "argument command: invalid choice: 'bound' (choose from "),
    ]:
        code, out, err = run_cli(capsys, *argv)
        assert code == 1 and out == ""
        payload = json.loads(err)
        assert payload["error"] == "ParameterError" and payload["message"].startswith(message)
    with pytest.raises(SystemExit) as exc:
        main(["bounds", "--help"])
    assert exc.value.code == 0


def test_every_flag_is_a_manifest_key():
    parser = cli.build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    dests = {a.dest for p in [parser, *commands.choices.values()] for a in p._actions}
    assert dests - {"help", "manifest"} == {f.name for f in dataclasses.fields(RunManifest)}


def test_manifest_round_trips_through_a_dict():
    defaults = RunManifest(command="bounds")
    m = RunManifest(
        command="phase", pattern="band", matrix_file="m.csv", matrix_format="sparse", matrix_kind="rectangular",
        distribution="rademacher", epsilon=0.1, p=3.0, trials=7, seed=5, tol=1e-6, output="o.csv",
        threads=2, n_grid=[64, 128], k_rule="const:3", t_grid=[0.5, 1.5], moments_action="verify",
        band_variant="truncated",
    )
    assert all(getattr(m, f.name) != getattr(defaults, f.name) for f in dataclasses.fields(m))
    assert RunManifest.from_dict(dataclasses.asdict(m)) == m


def test_manifest_choice_error_names_the_allowed_values(tmp_path, capsys):
    # read as dense, a file of i,j,value triples would get bounds for the wrong matrix
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"command": "bounds", "matrix_file": "tri.csv", "matrix_format": "Sparse"}))
    code, out, err = run_cli(capsys, "bounds", "--manifest", str(path))
    assert code == 1 and out == ""
    message = "manifest key 'matrix_format' must be one of ['dense', 'sparse']: 'Sparse'"
    assert json.loads(err) == {"error": "ParameterError", "message": message}


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
    # a symmetric pattern gets no rect bound, and Gaussian entries no rademacher or heavy one
    assert [r["bound_name"] for r in payload] == ["main", "nck", "gordon", "seginer", "dimfree"]
    assert main_bound["constant_mode"] == "explicit"


@pytest.mark.parametrize("law", ["gaussian", "rademacher", "uniform", "heavy:1", "heavy:3"])
def test_bounds_and_report_list_the_same_bounds(tmp_path, capsys, law):
    rect = tmp_path / "rect.csv"
    rect.write_text("1,2,0\n0,1,3\n")
    zero = tmp_path / "zero.csv"
    zero.write_text("0,0\n0,0\n")
    for source in (["--pattern", "wigner:16"], ["--pattern", "band:64,2"],
                   ["--matrix-file", str(rect), "--matrix-kind", "rectangular"], ["--matrix-file", str(zero)]):
        code, out, _ = run_cli(capsys, "bounds", *source, "--distribution", law)
        assert code == 0
        listed = {r["bound_name"]: r for r in json.loads(out)}
        code, out, _ = run_cli(capsys, "report", *source, "--distribution", law, "--trials", "5", "--seed", "1")
        assert code == 0
        assert json.loads(out)["upper_bounds"] == listed


def test_cli_bounds_lists_heavy_at_the_laws_beta(capsys):
    code, out, _ = run_cli(capsys, "bounds", "--pattern", "band:64,2", "--distribution", "heavy:3")
    assert code == 0
    payload = {r["bound_name"]: r for r in json.loads(out)}
    assert payload["heavy"] == bounds.bound_heavy(parse_pattern("band:64,2"), 3.0).to_json()
    assert payload["main"]["constant_mode"] == "structural"


def test_cli_moments_verify(capsys):
    code, out, _ = run_cli(
        capsys, "moments", "verify", "--pattern", "band:5,1", "--p", "2"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["holds"] is True and payload["exact"] is True


def test_cli_moments_verify_rejects_a_p_beyond_the_enumeration_guard(capsys):
    # validate must not evaluate n^(2p) for such a p: 5 ** 2e9 overflows a float
    code, out, err = run_cli(capsys, "moments", "verify", "--pattern", "band:5,1", "--p", "1e9")
    assert code == 1 and out == ""
    assert json.loads(err) == {"error": "ParameterError", "message": "p exceeds the enumeration guard 6"}


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
    assert payload == {"command": "validate", "valid": False, "violations": ["epsilon must be in (0, 1/2]"]}


def test_cli_validate_checks_the_manifest_command(tmp_path, capsys):
    path = tmp_path / "f.json"
    path.write_text('{"command": "phase"}')
    violations = ["phase needs n_grid", "phase needs k_rule"]
    code, out, _ = run_cli(capsys, "validate", "--manifest", str(path))
    assert code == 0
    assert json.loads(out) == {"command": "phase", "valid": False, "violations": violations}
    code, out, err = run_cli(capsys, "phase", "--manifest", str(path))
    assert code == 1 and out == ""
    assert json.loads(err) == {"error": "ParameterError", "message": "; ".join(violations)}


@pytest.mark.parametrize(
    "text, message",
    [("x,0,1\n", "malformed field"), ("1.5,0,1\n", "malformed field"), ("0,0,z\n", "malformed field"),
     ("", "empty matrix file"), ("\n\n", "empty matrix file"),
     ("0,1,1.0\n0,1,2.0\n", "repeated entry (0, 1)")],
)
def test_malformed_sparse_csv_is_a_data_error(tmp_path, capsys, text, message):
    path = tmp_path / "s.csv"
    path.write_text(text)
    code, out, err = run_cli(capsys, "bounds", "--matrix-file", str(path), "--matrix-format", "sparse")
    assert code == 1 and out == ""
    payload = json.loads(err)
    assert payload["error"] == "DataError"
    assert payload["message"].startswith(message) and str(path) in payload["message"]
    m = RunManifest(command="moments", matrix_file=str(path), matrix_format="sparse", p=1, moments_action="verify")
    assert validate(m)["violations"] == [f"cannot load pattern: {payload['message']}"]


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


def test_cli_json_key_order(capsys):
    # bounds prints its JSON unsorted, so the key order is part of its output
    keys = ["bound_name", "value", "constant_mode", "epsilon", "sigma", "sigma_star", "sigma1", "sigma2", "n", "m"]
    code, out, _ = run_cli(capsys, "bounds", "--pattern", "band:50,2", "--distribution", "rademacher")
    assert code == 0
    assert [list(entry) for entry in json.loads(out)] == [keys] * 6
    assert list(bounds.bound_main(parse_pattern("wigner:8"), 0.25).to_json()) == keys
    code, out, _ = run_cli(capsys, "norm", "--pattern", "wigner:16")
    assert code == 0
    assert list(json.loads(out)) == ["value", "method", "iterations", "rel_error_bound"]


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


def test_cli_report_leaves_main_unasserted_for_heavy_entries(capsys, monkeypatch):
    # main is proved for laws with at most Gaussian even moments; heavy:3 has a 4th moment of 35
    real = bounds.bound_main
    monkeypatch.setattr(bounds, "bound_main", lambda C, eps: dataclasses.replace(real(C, eps), value=0.5))
    code, out, _ = run_cli(
        capsys, "report", "--pattern", "wigner:32", "--distribution", "heavy:3", "--trials", "10", "--seed", "2"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True
    assert payload["upper_bounds"]["main"] == {**real(parse_pattern("wigner:32"), 0.25).to_json(),
                                               "value": 0.5, "constant_mode": "structural"}


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
     ("tol", float("nan")), ("t_grid", [0.0, float("inf")]), ("matrix_format", "Sparse"),
     ("matrix_kind", "Rectangular"), ("moments_action", "verfy"), ("band_variant", "Truncated")],
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


@pytest.mark.parametrize(
    "dist, message",
    [("bogus", "unknown distribution code 'bogus'"),
     ("heavy:abc", "distribution code 'heavy:abc': 'abc' is not a number"),
     ("heavy:nan", "distribution code 'heavy:nan': beta must be finite"),
     ("heavy:inf", "distribution code 'heavy:inf': beta must be finite")],
    ids=["bogus", "heavy:abc", "heavy:nan", "heavy:inf"],
)
def test_cli_malformed_distribution_code(capsys, dist, message):
    code, out, err = run_cli(capsys, "bounds", "--pattern", "wigner:8", "--distribution", dist)
    assert code == 1 and out == ""
    assert json.loads(err) == {"error": "ParameterError", "message": message}
    assert validate(RunManifest(command="bounds", pattern="wigner:8", distribution=dist))["violations"] == [message]


def test_validate_refuses_a_phase_pattern_other_than_band_or_regular_random(tmp_path, capsys):
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"command": "phase", "pattern": "wigner:8", "n_grid": [64], "k_rule": "const:3"}))
    message = "phase patterns are band or regular_random"
    code, out, _ = run_cli(capsys, "validate", "--manifest", str(path))
    assert code == 0
    assert json.loads(out) == {"command": "phase", "valid": False, "violations": [message]}
    code, out, err = run_cli(capsys, "phase", "--manifest", str(path))
    assert code == 1 and out == ""
    assert json.loads(err) == {"error": "ParameterError", "message": message}


@pytest.mark.parametrize(
    "manifest, message",
    [
        ({"command": "seginer", "n_grid": [1], "trials": 2}, "seginer needs n >= 2, got n=1 (rounded to 1)"),
        ({"command": "seginer", "n_grid": [64, 0], "trials": 2}, "seginer needs n >= 2, got n=0 (rounded to 1)"),
        ({"command": "report", "pattern": "wigner:8", "trials": 1}, "trials must be >= 2 for a standard error"),
        ({"command": "phase", "pattern": "band", "n_grid": [64], "k_rule": "const:x"},
         "k rule 'const:x': 'x' is not a number"),
        ({"command": "phase", "pattern": "band", "n_grid": [4], "k_rule": "const:9"}, "k rule gave k=9 >= n=4"),
        ({"command": "phase", "pattern": "band", "n_grid": [64], "k_rule": "c_log:1e308"},
         "cannot convert float infinity to integer"),
        ({"command": "seginer", "n_grid": [10**400], "trials": 2}, "integer division result too large for a float"),
        ({"command": "phase", "pattern": "band", "n_grid": [64, 0], "k_rule": "c_log:1"},
         "dimension must be a positive integer, got 0"),
        ({"command": "tails", "pattern": "wigner:8", "trials": 1000, "t_grid": [1.0, -1.0]}, "t must be >= 0, got -1.0"),
        ({"command": "phase", "pattern": "regular_random", "n_grid": [64, 65], "k_rule": "const:3", "trials": 2},
         "infeasible k-regular pattern (n=65, k=3): n * k must be even"),
    ],
)
def test_validate_refuses_what_the_run_refuses(tmp_path, capsys, monkeypatch, manifest, message):
    monkeypatch.setenv(cli.OUTPUT_DIR_ENV, str(tmp_path))
    path = tmp_path / "m.json"
    path.write_text(json.dumps(manifest))
    code, out, _ = run_cli(capsys, "validate", "--manifest", str(path))
    assert code == 0
    assert json.loads(out) == {"command": manifest["command"], "valid": False, "violations": [message]}
    code, out, err = run_cli(capsys, manifest["command"], "--manifest", str(path))
    assert code == 1 and out == ""
    assert json.loads(err) == {"error": "ParameterError", "message": message}


@pytest.mark.parametrize(
    "manifest, error, message",
    [
        ({"command": "norm", "pattern": "band:5,9"}, "ParameterError", "band requires 0 <= k < n, got k=9, n=5"),
        ({"command": "report", "pattern": "wigner:0"}, "ParameterError", "dimension must be a positive integer, got 0"),
        ({"command": "bounds", "matrix_file": "missing.csv"}, "FileNotFoundError",
         "[Errno 2] No such file or directory: 'missing.csv'"),
    ],
    ids=["norm", "report", "bounds"],
)
def test_validate_loads_the_pattern_of_every_command(tmp_path, capsys, monkeypatch, manifest, error, message):
    # the run fails with the loader's own error; validate reports its message
    monkeypatch.chdir(tmp_path)
    Path("m.json").write_text(json.dumps(manifest))
    code, out, _ = run_cli(capsys, "validate", "--manifest", "m.json")
    assert code == 0
    violations = [f"cannot load pattern: {message}"]
    assert json.loads(out) == {"command": manifest["command"], "valid": False, "violations": violations}
    code, out, err = run_cli(capsys, manifest["command"], "--manifest", "m.json")
    assert code == 1 and out == ""
    assert json.loads(err) == {"error": error, "message": message}


@pytest.mark.parametrize(
    "argv",
    [("moments", "verify", "--pattern", "wigner:5", "--p", "2"), ("report", "--pattern", "band:37,2", "--trials", "4")],
    ids=["moments_verify", "report"],
)
def test_a_run_builds_its_pattern_once(capsys, monkeypatch, argv):
    # validate loads the pattern and the command runs on that one
    built = []
    init = coeffs.CoefficientMatrix.__init__

    def counted(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(coeffs.CoefficientMatrix, "__init__", counted)
    assert run_cli(capsys, *argv)[0] == 0
    assert len(built) == 1


@pytest.mark.parametrize("p", [2, 3])
def test_validate_refuses_a_bounds_p_outside_the_dimfree_range(tmp_path, capsys, p):
    # bounds reads p as the l_p exponent of its dimension-free row, which needs 1 <= p < 2
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"command": "bounds", "pattern": "wigner:8", "p": p}))
    message = f"p must be in [1, 2), got {float(p)}"
    code, out, _ = run_cli(capsys, "validate", "--manifest", str(path))
    assert code == 0
    assert json.loads(out) == {"command": "bounds", "valid": False, "violations": [message]}
    code, out, err = run_cli(capsys, "bounds", "--manifest", str(path))
    assert code == 1 and out == ""
    assert json.loads(err) == {"error": "ParameterError", "message": message}
    # p = 1.5 is a valid exponent; moments reads p as a half-length, where 3 is valid
    path.write_text(json.dumps({"command": "bounds", "pattern": "wigner:8", "p": 1.5}))
    assert run_cli(capsys, "bounds", "--manifest", str(path))[0] == 0
    assert validate(RunManifest(command="moments", p=3))["valid"]


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
