import math
import os
import threading
import time

import numpy as np
import pytest
import scipy.sparse as sp

from specbound import bounds, coeffs, experiments, sampling, specnorm
from specbound.errors import ParameterError
from specbound.sampling import GAUSSIAN, RADEMACHER, SeedSpec, sample_matrix


def test_estimate_zero_matrix():
    zero = coeffs.CoefficientMatrix(np.zeros((6, 6)), "symmetric")
    est = experiments.estimate_expected_norm(zero, GAUSSIAN, 5, seed=0)
    assert est.mean == 0.0 and est.std_error == 0.0


def test_estimate_deterministic_and_thread_invariant():
    # every trial runs on one BLAS thread, serial or pooled; at n = 256 a
    # pooled eigvalsh on more BLAS threads would change the last digits
    for n in (24, 256):
        C = coeffs.wigner(n)
        a = experiments.estimate_expected_norm(C, GAUSSIAN, 16, seed=5, threads=1)
        b = experiments.estimate_expected_norm(C, GAUSSIAN, 16, seed=5, threads=4)
        assert a.mean == b.mean
        assert np.array_equal(a.per_trial_values, b.per_trial_values)
        c = experiments.estimate_expected_norm(C, GAUSSIAN, 16, seed=6)
        assert c.mean != a.mean


def test_estimate_wigner_scale():
    C = coeffs.wigner(48)
    est = experiments.estimate_expected_norm(C, GAUSSIAN, 60, seed=1)
    # edge of the spectrum sits near 2 sqrt(n) already at n = 48
    assert 1.6 <= est.mean / math.sqrt(48) <= 2.1


def test_estimate_requires_two_trials():
    with pytest.raises(ParameterError):
        experiments.estimate_expected_norm(coeffs.wigner(4), GAUSSIAN, 1, seed=0)
    # one trial has no standard error, which would leave the report's 3*stderr margins at 0
    with pytest.raises(ParameterError, match="trials must be >= 2 for a standard error"):
        experiments.bounds_vs_empirical_report(coeffs.wigner(8), GAUSSIAN, 0.25, 1, seed=0)


def test_phase_and_seginer_check_every_cell_before_the_first_trial(monkeypatch):
    def no_trials(*args, **kwargs):
        raise AssertionError("a trial ran before every cell was checked")

    monkeypatch.setattr(experiments, "_trial_norms", no_trials)
    monkeypatch.setattr(experiments, "_run_trials", no_trials)
    with pytest.raises(ParameterError, match="k rule gave k=9 >= n=4"):
        experiments.phase_scan("band", [64, 4], "const:9", GAUSSIAN, trials=2, seed=0)
    with pytest.raises(ParameterError, match="dimension must be a positive integer"):
        experiments.phase_scan("band", [64, 0], "c_log:1", GAUSSIAN, trials=2, seed=0)
    for n in (1, 0, -3):  # each rounds to n = 1, where log n = 0
        with pytest.raises(ParameterError, match=rf"seginer needs n >= 2, got n={n} \(rounded to 1\)"):
            experiments.seginer_block_experiment([64, n], RADEMACHER, 2, seed=0)


def test_resolve_k_rule():
    assert experiments.resolve_k_rule("const:3", 100) == (3, "const:3")
    k, label = experiments.resolve_k_rule("log_sq", 2**14)
    assert k == round(math.log(2**14) ** 2) == 94
    assert label == "log_sq"
    k, _ = experiments.resolve_k_rule("c_log:2", 1000)
    assert k == round(2 * math.log(1000))
    k, _ = experiments.resolve_k_rule("sqrt", 400)
    assert k == 20
    with pytest.raises(ParameterError):
        experiments.resolve_k_rule("cubed", 100)
    with pytest.raises(ParameterError):
        experiments.resolve_k_rule("const", 100)
    for bad in ("const:x", "c_log:abc", "const:inf", "c_log:nan", "const:0", "const:-2", "const:0.5"):
        with pytest.raises(ParameterError):
            experiments.resolve_k_rule(bad, 100)


def test_run_trials_capped_at_available_cores():
    workers = set()

    def one(t):
        workers.add(threading.get_ident())
        time.sleep(0.002)  # keep workers busy so the pool would grow past the cap
        return t

    assert experiments._run_trials(one, 64, threads=64) == list(range(64))
    assert 1 <= len(workers) <= len(os.sched_getaffinity(0))


def test_regular_random_pattern():
    C = experiments.regular_random_pattern(50, 7, seed=3)
    a = C.toarray()
    assert np.array_equal(a, a.T)
    assert np.all(np.count_nonzero(a, axis=1) == 7)
    again = experiments.regular_random_pattern(50, 7, seed=3)
    assert np.array_equal(a, again.toarray())
    with pytest.raises(ParameterError):
        experiments.regular_random_pattern(51, 7, seed=0)  # n*k odd


@pytest.mark.parametrize("n, k", [(200, 3), (40, 7), (64, 0)])
def test_regular_random_pattern_matches_the_edge_loop(n, k):
    import networkx as nx

    seed = 5
    rng_seed = int(SeedSpec(seed, 0).generator(sampling.STREAM_PATTERN).integers(0, 2**32))
    rows, cols = [], []
    for a, b in nx.random_regular_graph(k, n, seed=rng_seed).edges():
        rows += [a, b]
        cols += [b, a]
    ref = coeffs._pack(rows, cols, np.ones(len(rows)), n, n, "symmetric")
    C = experiments.regular_random_pattern(n, k, seed)
    def arrays(M):
        return (M.data.indices, M.data.indptr, M.data.data) if M.is_sparse else (M.data,)

    assert C.is_sparse is ref.is_sparse
    for got, want in zip(arrays(C), arrays(ref)):
        assert got.dtype == want.dtype and np.array_equal(got, want)


def test_phase_scan_band_small():
    grid = experiments.phase_scan(
        "band", [128, 256], "const:3", GAUSSIAN, trials=8, seed=9
    )
    assert len(grid.rows) == 2
    for row in grid.rows:
        assert row["k"] == 3  # actual degree of the cyclic band with half-width 1
        assert row["ratio_mean"] > 1.0
        assert row["k_rule"] == "const:3"
    # ratios against the true degree: cyclic band rows all have 2*1+1 entries
    C = coeffs.band_cyclic(128, 1)
    assert np.array_equal(experiments._row_degrees(C), np.full(128, 3))


_PHASE_CSV = """
import sys
from specbound import experiments
from specbound.sampling import GAUSSIAN
experiments.phase_scan("band", [256, 512], "const:5", GAUSSIAN, trials=4, seed=21).write_csv(sys.argv[1])
"""


def test_phase_scan_on_a_live_pattern_matches_a_fresh_process(tmp_path, fresh_python):
    # the scans share the held patterns and their cached plans, and still
    # write the bytes of a process that built everything afresh
    held = [coeffs.band_cyclic(256, 2), coeffs.band_cyclic(512, 2)]
    outputs = []
    for i in range(2):
        grid = experiments.phase_scan("band", [256, 512], "const:5", GAUSSIAN, trials=4, seed=21)
        grid.write_csv(tmp_path / f"live{i}.csv")
        outputs.append((tmp_path / f"live{i}.csv").read_bytes())
    # band trials sample through the banded layout, cached beside the CSR plan
    assert all(C._banded_sampling_plan is not None for C in held)
    fresh_python("-c", _PHASE_CSV, str(tmp_path / "fresh.csv"))
    assert outputs[0] == outputs[1] == (tmp_path / "fresh.csv").read_bytes()


def test_phase_scan_regular_random():
    grid = experiments.phase_scan(
        "regular_random", [64], "const:4", GAUSSIAN, trials=5, seed=2
    )
    assert grid.rows[0]["k"] == 4


def test_symmetric_trials_skip_the_symmetry_check(monkeypatch):
    # samples of a symmetric pattern mirror every draw, so trials trust it
    def checked(M):
        raise AssertionError("a trial checked the symmetry of its sample")

    monkeypatch.setattr(specnorm, "_is_symmetric", checked)
    experiments.phase_scan("band", [64, 1024], "const:5", GAUSSIAN, trials=3, seed=1)
    experiments.phase_scan("regular_random", [64], "const:4", GAUSSIAN, trials=3, seed=2)
    C = coeffs.band(64, 2)
    experiments.estimate_expected_norm(C, GAUSSIAN, 3, seed=3)
    experiments.bounds_vs_empirical_report(C, GAUSSIAN, 0.5, 3, seed=4)
    experiments.tail_empirics(coeffs.wigner(3), GAUSSIAN, 0.5, 1000, [0.0], seed=5)
    # samples of a rectangular pattern are still checked
    with pytest.raises(AssertionError):
        rect = coeffs.CoefficientMatrix(np.ones((3, 5)), "rectangular")
        experiments.estimate_expected_norm(rect, GAUSSIAN, 2, seed=6)


def test_trials_go_through_the_module_names(monkeypatch):
    # the trial helper looks trial_sample, spectral_norm and max_row_norm up
    # in experiments at call time, and trial_sample looks sample_matrix up in
    # sampling, so wrappers installed there see every trial
    names = {
        "trial_sample": experiments,
        "spectral_norm": experiments,
        "max_row_norm": experiments,
        "sample_matrix": sampling,
    }
    calls = dict.fromkeys(names, 0)
    for name, module in names.items():
        original = getattr(module, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    experiments.phase_scan("band", [64, 128], "const:3", GAUSSIAN, trials=3, seed=1)
    experiments.estimate_expected_norm(coeffs.band(64, 2), GAUSSIAN, 4, seed=3)
    experiments.bounds_vs_empirical_report(coeffs.wigner(8), GAUSSIAN, 0.5, 5, seed=4)
    # band_cyclic(64, 1) and (128, 1) and sparse band(300, 2) are banded,
    # report included; band(64, 2) and wigner(8) are dense
    experiments.estimate_expected_norm(coeffs.band(300, 2), GAUSSIAN, 2, seed=5)
    experiments.bounds_vs_empirical_report(coeffs.band(300, 2), GAUSSIAN, 0.5, 2, seed=6)
    assert calls == {"trial_sample": 19, "spectral_norm": 19, "max_row_norm": 7, "sample_matrix": 9}


def test_phase_scan_divides_each_trial_by_root_k():
    grid = experiments.phase_scan("band", [64, 128], "const:5", GAUSSIAN, trials=4, seed=2)
    for cell, n in enumerate((64, 128)):
        C = coeffs.band_cyclic(n, 2)
        # n = 64 is stored dense; n = 128 solves on its banded samples
        ratios = [
            specnorm.spectral_norm(sampling.trial_sample(C, GAUSSIAN, SeedSpec(2, cell * 4 + t)), tol=1e-4).value
            / math.sqrt(5)
            for t in range(4)
        ]
        assert grid.rows[cell]["ratio_mean"] == float(np.mean(ratios))


@pytest.mark.parametrize("n, k, sparse", [(200, 3, True), (40, 7, False), (60, 3, False)])
def test_regular_random_pattern_storage_follows_the_fill_threshold(n, k, sparse):
    C = experiments.regular_random_pattern(n, k, seed=5)
    assert C.is_sparse is sparse
    assert (n * k < coeffs.SPARSE_FILL_THRESHOLD * n * n) is sparse


def test_phase_ratio_decreasing_in_k():
    # denser rows push ||X||/sqrt(k) down toward the bulk edge (trend, not
    # per-sample): k = 3, 15, 63 at fixed n
    n = 1024
    means = []
    for k in (3, 15, 63):
        grid = experiments.phase_scan(
            "band", [n], f"const:{k}", GAUSSIAN, trials=12, seed=14
        )
        means.append(grid.rows[0]["ratio_mean"])
    assert means[0] > means[1] > means[2]


def test_phase_scan_rejects_bad_input():
    with pytest.raises(ParameterError):
        experiments.phase_scan("ring", [64], "const:3", GAUSSIAN, 5, 0)
    with pytest.raises(ParameterError):
        experiments.phase_scan("band", [8], "const:20", GAUSSIAN, 5, 0)


def test_phase_grid_csv_roundtrip(tmp_path):
    grid = experiments.phase_scan("band", [64], "const:3", GAUSSIAN, trials=4, seed=1)
    path = tmp_path / "grid.csv"
    grid.write_csv(path)
    text = path.read_text().splitlines()
    assert text[0] == "n,k,ratio_mean,ratio_stderr,k_rule"
    assert len(text) == 2
    row = grid.rows[0]
    fields = [row["n"], row["k"], repr(row["ratio_mean"]), repr(row["ratio_stderr"]), row["k_rule"]]
    assert text[1] == ",".join(str(f) for f in fields)
    with pytest.raises(ParameterError):
        experiments.PhaseGridResult().write_csv(tmp_path / "empty.csv")


def test_tail_empirics_wigner_small():
    C = coeffs.wigner(16)
    rows = experiments.tail_empirics(
        C, GAUSSIAN, 0.5, 1000, [0.0, 1.0, 2.0], seed=4
    )
    assert rows[0]["empirical_survival"] <= 1.0
    surv = [r["empirical_survival"] for r in rows]
    assert all(a >= b for a, b in zip(surv, surv[1:]))  # nested events
    for r in rows:
        se = math.sqrt(max(r["bound_value"] * (1 - r["bound_value"]), 1e-12) / 1000)
        assert r["empirical_survival"] <= r["bound_value"] + 3 * se + 1e-12


def test_tail_empirics_bounded_has_second_form():
    C = coeffs.wigner(12)
    rows = experiments.tail_empirics(C, RADEMACHER, 0.5, 1000, [0.0, 2.0], seed=4)
    assert "bound_value_var" in rows[0]
    assert rows[0]["bound_value_var"] == 1.0  # t = 0
    with pytest.raises(ParameterError):
        experiments.tail_empirics(C, GAUSSIAN, 0.5, 100, [0.0], seed=4)


def test_semicircle_cdf_endpoints():
    assert experiments.semicircle_cdf(-2.0) == pytest.approx(0.0, abs=1e-12)
    assert experiments.semicircle_cdf(2.0) == pytest.approx(1.0, abs=1e-12)
    assert experiments.semicircle_cdf(0.0) == pytest.approx(0.5)
    # clamps outside the support
    assert experiments.semicircle_cdf(-5.0) == pytest.approx(0.0, abs=1e-12)


def test_spectral_density_check_small_band():
    C = coeffs.band_cyclic(512, 16)
    ks = experiments.spectral_density_check(C, GAUSSIAN, seed=0)
    assert 0.0 < ks < 0.1


def test_spectral_density_check_requires_equal_degrees():
    with pytest.raises(ParameterError):
        experiments.spectral_density_check(coeffs.band(64, 2), GAUSSIAN, seed=0)


def test_spectral_density_full_wigner():
    # the k = n case is the classical full-matrix semicircle
    ks = experiments.spectral_density_check(coeffs.wigner(1024), GAUSSIAN, seed=1)
    assert ks <= 0.05


def test_block_norm_fast_path_matches_generic():
    C = coeffs.block_diagonal(64, 4)
    X = sample_matrix(C, GAUSSIAN, SeedSpec(7, 0))
    from specbound.specnorm import spectral_norm

    fast = experiments._block_norms(X, 16, 4)
    assert fast == pytest.approx(spectral_norm(X, tol=1e-10).value, rel=1e-9)


def test_seginer_block_experiment_small():
    rows = experiments.seginer_block_experiment([256, 512], RADEMACHER, 20, seed=8)
    for row in rows:
        assert row["n"] % row["k"] == 0
        assert 0.3 <= row["ratio_mean"] <= 3.5
    assert rows[0]["k"] == math.ceil(math.sqrt(math.log(256)))


def test_block_full_matrix_degenerates_to_wigner():
    # a single all-ones block is exactly the wigner pattern, so the MC
    # estimates coincide draw for draw
    a = experiments.estimate_expected_norm(coeffs.block_diagonal(16, 16), GAUSSIAN, 10, seed=3)
    b = experiments.estimate_expected_norm(coeffs.wigner(16), GAUSSIAN, 10, seed=3)
    assert a.mean == b.mean


def test_bounds_vs_empirical_report_wigner():
    rep = experiments.bounds_vs_empirical_report(
        coeffs.wigner(48), GAUSSIAN, 0.25, trials=60, seed=10
    )
    assert rep["ok"], rep["failures"]
    assert rep["lower_estimate"] <= rep["mc_norm_mean"] + 3 * (
        rep["lower_stderr"] + rep["mc_norm_stderr"]
    )
    assert rep["mc_norm_mean"] <= rep["upper_bounds"]["main"]["value"]
    # the column-norm diagnostic is reported but stays unasserted
    assert rep["column_ratio_diagnostic"] >= 1.0
    assert "seginer" in rep["upper_bounds"]
    assert "rademacher" not in rep["upper_bounds"]


def test_bounds_vs_empirical_report_rademacher_includes_split_bound():
    rep = experiments.bounds_vs_empirical_report(
        coeffs.diagonal(32), RADEMACHER, 0.25, trials=40, seed=11
    )
    assert rep["upper_bounds"]["rademacher"]["value"] == 1.0


def test_bounds_vs_empirical_report_computes_pattern_params_once(monkeypatch):
    # two lower values and five upper bounds read the parameters cached on
    # the pattern: one row_col_sumsq pass over a fresh pattern
    calls = []
    real = coeffs.row_col_sumsq

    def counted(M):
        calls.append(M)
        return real(M)

    monkeypatch.setattr(coeffs, "row_col_sumsq", counted)
    C = coeffs.wigner.__wrapped__(64)
    rep = experiments.bounds_vs_empirical_report(C, GAUSSIAN, 0.25, trials=4, seed=1)
    assert len(calls) == 1
    assert sorted(rep["upper_bounds"]) == ["dimfree", "gordon", "main", "nck", "seginer"]
    params = coeffs.structural_params(C)
    assert len(calls) == 1
    for name, entry in rep["upper_bounds"].items():
        assert (entry["sigma"], entry["sigma_star"]) == (params.sigma, params.sigma_star), name


def test_symmetric_csr_row_norms_take_the_row_pass_alone(monkeypatch):
    # a symmetric CSR sample's column sums repeat its row sums bit for bit,
    # so report's trials skip the column pass without changing the value
    patterns = (coeffs.block_diagonal(512, 16), experiments.regular_random_pattern(300, 6, 2))
    for C in patterns:
        for t in range(4):
            X = sampling.trial_sample(C, GAUSSIAN, SeedSpec(3, t))
            assert sp.issparse(X)
            assert specnorm.max_row_norm(X, symmetric=True) == specnorm.max_row_norm(X)
    reports = [experiments.bounds_vs_empirical_report(C, GAUSSIAN, 0.5, 3, seed=2) for C in patterns]

    def no_column_pass(*args, **kwargs):
        raise AssertionError("column pass")

    monkeypatch.setattr(sp.csr_array, "sum", no_column_pass)
    for C, rep in zip(patterns, reports):
        assert experiments.bounds_vs_empirical_report(C, GAUSSIAN, 0.5, 3, seed=2) == rep
