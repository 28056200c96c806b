"""Monte Carlo studies: expected norms, the sparse phase transition,
tail empirics, the semicircle sanity check, and the block-diagonal example.

Trials are embarrassingly parallel.  Each trial owns a generator derived
from (master_seed, trial_index), per-trial values are stored by index, and
all reductions run over the stored array, so results are identical at any
thread count.  The pool is capped at the cores this process may run on.
Every trial, serial or pooled, runs on one BLAS thread: dense LAPACK digits
depend on the BLAS thread count, so pinning it makes dense results
independent of the host's core count and of ``OPENBLAS_NUM_THREADS``, and
``--threads N`` never stacks N trial threads on N BLAS threads each.
"""

from __future__ import annotations

import csv
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import bounds as bounds_mod
from . import coeffs as coeffs_mod
from .errors import NonConvergenceError, ParameterError
from .sampling import NormEstimate, STREAM_PATTERN, SeedSpec, sample_matrix, trial_sample
from .specnorm import EIG_DENSE_THRESHOLD, _issparse, _single_blas_thread, eigenvalues_all, max_row_norm, spectral_norm

K_RULE_NAMES = ("const", "c_log", "log_sq", "sqrt")
DEFAULT_NORM_TOL = 1e-4  # MC experiments relax the solver tolerance to 1e-4


def available_cores():
    """Number of CPUs this process may run on (its affinity mask, where the OS has one)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _run_trials(fn, trials, threads):
    """Evaluate fn(t) for t = 0..trials-1, results ordered by trial index."""
    workers = min(threads or 1, available_cores())
    with _single_blas_thread:
        if workers <= 1:
            return [fn(t) for t in range(trials)]
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(fn, range(trials)))


def _trial_norms(C, dist, seed, trials, tol, threads, first=0, row_norms=False):
    """||X|| of the samples of trials first .. first + trials - 1, in order;
    with ``row_norms``, (||X||, max_row_norm(X)) pairs instead."""
    # samples of a symmetric pattern mirror every draw exactly: skip the check
    symmetric = True if C.kind == "symmetric" else None

    def one(t):
        X = trial_sample(C, dist, SeedSpec(seed, first + t))
        value = spectral_norm(X, tol=tol, symmetric=symmetric).value
        return (value, max_row_norm(X)) if row_norms else value

    return _run_trials(one, trials, threads)


def _check_stderr_trials(trials):
    if trials < 2:
        raise ParameterError("trials must be >= 2 for a standard error")


def estimate_expected_norm(C, dist, trials, seed, tol=DEFAULT_NORM_TOL, threads=1):
    """Monte Carlo estimate of E||X|| over independent trials."""
    _check_stderr_trials(trials)
    try:
        values = _trial_norms(C, dist, seed, trials, tol, threads)
    except NonConvergenceError as exc:
        raise NonConvergenceError(
            f"norm estimation aborted: {exc}", best=exc.best
        ) from exc
    return NormEstimate.from_values(values, seed)


def regular_random_pattern(n, k, seed):
    """Symmetric 0/1 pattern with exactly k ones per row.

    Realized as a uniform-ish random simple k-regular graph (pairing model
    with rejection of multi-edges); requires n*k even and k < n.
    """
    import networkx as nx

    rng_seed = int(SeedSpec(seed, 0).generator(STREAM_PATTERN).integers(0, 2**32))
    try:
        g = nx.random_regular_graph(int(k), int(n), seed=rng_seed)
    except (nx.NetworkXError, ValueError) as exc:
        raise ParameterError(f"infeasible k-regular pattern (n={n}, k={k}): {exc}") from None
    edges = np.array(g.edges(), dtype=np.int64).reshape(-1, 2)  # edge (a, b) sets b_ab and b_ba
    return coeffs_mod._pack(edges.ravel(), edges[:, ::-1].ravel(), np.ones(edges.size), n, n, "symmetric")


def resolve_k_rule(rule, n):
    """Map a k-rule spec ("const:3", "c_log:1.5", "log_sq", "sqrt") to a k below n."""
    n = coeffs_mod._check_dim(n)
    name, _, text = str(rule).partition(":")
    try:
        param = float(text) if text else None
    except ValueError:
        raise ParameterError(f"k rule {rule!r}: {text!r} is not a number") from None
    if param is not None and not math.isfinite(param):
        raise ParameterError(f"k rule {rule!r}: the value must be finite")
    if name not in K_RULE_NAMES:
        raise ParameterError(f"unknown k rule {name!r}; expected one of {K_RULE_NAMES}")
    if name == "const":
        if param is None:
            raise ParameterError("const rule needs a value, e.g. const:3")
        k = int(param)
        if k < 1:
            raise ParameterError(f"k rule {rule!r} gives k={k}; k must be >= 1")
    elif name == "c_log":
        if param is None:
            raise ParameterError("c_log rule needs a coefficient, e.g. c_log:1.5")
        k = max(1, round(param * math.log(n)))
    elif name == "log_sq":
        k = max(1, round(math.log(n) ** 2))
    else:
        k = max(1, round(math.sqrt(n)))
    if k >= n:
        raise ParameterError(f"k rule gave k={k} >= n={n}")
    label = name if param is None else f"{name}:{param:g}"
    return k, label


@dataclass
class PhaseGridResult:
    """Per-cell ratio estimates for the sparse phase transition scan."""

    rows: list = field(default_factory=list)  # dicts: n, k, ratio_mean, ...

    def write_csv(self, path):
        write_rows_csv(self.rows, path)


def _row_degrees(C):
    """Number of nonzeros in each row of the pattern."""
    if C.is_sparse:
        return np.diff(C.data.indptr)  # a sparse pattern stores exactly its nonzeros
    return np.count_nonzero(C.data, axis=1)


def _phase_cells(pattern, n_grid, k_rule):
    """(n, k, k-rule label) of every cell of a phase scan, all checked before
    any trial runs: a k-regular pattern needs n * k even."""
    cells = [(n, *resolve_k_rule(k_rule, n)) for n in n_grid]
    for n, k, _ in cells:
        if pattern == "regular_random" and n * k % 2:
            raise ParameterError(f"infeasible k-regular pattern (n={n}, k={k}): n * k must be even")
    return cells


def phase_scan(
    pattern,
    n_grid,
    k_rule,
    dist,
    trials,
    seed,
    tol=DEFAULT_NORM_TOL,
    threads=1,
    band_variant="cyclic",
):
    """||X||/sqrt(k) across a grid of (n, k(n)) cells.

    ``pattern`` is "band" (cyclic wrap by default, giving every row exactly
    2*floor((k-1)/2)+1 ones) or "regular_random" (exactly k ones per row).
    The ratio is normalized by the actual max row degree of the built
    pattern, and that degree is what the k column reports.
    """
    if pattern not in ("band", "regular_random"):
        raise ParameterError(f"pattern must be band or regular_random, got {pattern!r}")
    if band_variant not in ("cyclic", "truncated"):
        raise ParameterError(f"band_variant must be cyclic or truncated, got {band_variant!r}")
    result = PhaseGridResult()
    for cell, (n, k, label) in enumerate(_phase_cells(pattern, n_grid, k_rule)):
        if pattern == "band":
            half = max(0, (k - 1) // 2)
            C = (coeffs_mod.band_cyclic if band_variant == "cyclic" else coeffs_mod.band)(n, half)
        else:
            C = regular_random_pattern(n, k, seed + cell)
        degree = int(_row_degrees(C).max())
        norms = _trial_norms(C, dist, seed, trials, tol, threads, first=cell * trials)
        est = NormEstimate.from_values(np.asarray(norms) / math.sqrt(degree), seed)
        result.rows.append(
            {"n": int(n), "k": degree, "ratio_mean": est.mean, "ratio_stderr": est.std_error, "k_rule": label}
        )
    return result


def tail_empirics(C, dist, epsilon, trials, t_grid, seed, tol=DEFAULT_NORM_TOL, threads=1):
    """Empirical survival P[||X|| >= threshold + t] against the analytic bounds.

    Rows carry the first-form bound (exp(-t^2/4 sigma_star^2) around the
    expected-norm bound); for uniformly bounded entry laws the
    variance-based second form (threshold (1+eps) 2 sigma_tilde) and its
    empirical survival are included as well.
    """
    if trials < 1000:
        raise ParameterError("tails need trials >= 1000 to be meaningful")
    norms = np.asarray(_trial_norms(C, dist, seed, trials, tol, threads))
    params = coeffs_mod.structural_params(C)
    bounded_sup = {"rademacher": 1.0, "bounded_uniform": math.sqrt(3.0)}.get(dist.family)
    rows = []
    for t in t_grid:
        threshold, prob = bounds_mod.tail_bound(C, epsilon, t)
        row = {
            "t": float(t),
            "threshold": threshold,
            "empirical_survival": float(np.mean(norms >= threshold)),
            "bound_value": prob,
        }
        if bounded_sup is not None and C.kind == "symmetric":
            sigma_tilde = params.sigma  # unit-variance entries
            star_tilde = params.sigma_star * bounded_sup
            thr2 = (1.0 + epsilon) * 2.0 * sigma_tilde + t
            row["threshold_var"] = thr2
            row["empirical_survival_var"] = float(np.mean(norms >= thr2))
            row["bound_value_var"] = bounds_mod.tail_bound_second_form(
                C, epsilon, t, variant="bounded", sigma_star_tilde=star_tilde
            )
        rows.append(row)
    return rows


def semicircle_cdf(x):
    """CDF of the semicircle law on [-2, 2]."""
    x = np.clip(np.asarray(x, dtype=float), -2.0, 2.0)
    return 0.5 + x * np.sqrt(4.0 - x * x) / (4.0 * np.pi) + np.arcsin(x / 2.0) / np.pi


def spectral_density_check(C, dist, seed):
    """KS distance between the spectrum of X/sqrt(k) and the semicircle law.

    Requires a pattern whose rows all have the same number k of nonzeros
    (the cyclic band qualifies) and n within the dense-spectrum cap; uses a
    single realization.
    """
    if C.kind != "symmetric":
        raise ParameterError("density check expects a symmetric pattern")
    degrees = _row_degrees(C)
    if degrees.size == 0 or degrees.min() != degrees.max():
        raise ParameterError("density check requires exactly k nonzeros in every row")
    k = int(degrees[0])
    if C.rows > EIG_DENSE_THRESHOLD:
        raise ParameterError(f"n={C.rows} exceeds the dense-spectrum cap {EIG_DENSE_THRESHOLD}")
    X = sample_matrix(C, dist, SeedSpec(seed, 0))
    with _single_blas_thread:  # LAPACK digits depend on the BLAS thread count
        lam = eigenvalues_all(X)[::-1] / math.sqrt(k)  # ascending
    F = semicircle_cdf(lam)
    i = np.arange(1, lam.size + 1, dtype=float)
    n = float(lam.size)
    ks = max(np.max(np.abs(i / n - F)), np.max(np.abs((i - 1) / n - F)))
    return float(ks)


def _block_norms(X, nblocks, k):
    """Spectral norm of a block-diagonal sample via batched small eigh."""
    if _issparse(X):
        # a sample keeps the pattern's CSR: k sorted entries in every row
        blocks = X.data.reshape(nblocks, k, k)
    else:
        arr = np.asarray(X)
        blocks = np.stack([arr[b * k : (b + 1) * k, b * k : (b + 1) * k] for b in range(nblocks)])
    w = np.linalg.eigvalsh(blocks)
    return float(np.abs(w).max())


def _seginer_cell(n_req):
    """(n, k): k = ceil(sqrt(log n)) and n rounded to the nearest multiple of k, at least 2."""
    k = max(1, math.ceil(math.sqrt(math.log(max(n_req, 2)))))
    n = max(1, round(n_req / k)) * k
    if n < 2:
        raise ParameterError(f"seginer needs n >= 2, got n={n_req} (rounded to {n})")
    return n, k


def seginer_block_experiment(n_grid, dist, trials, seed, threads=1):
    """E||X|| / sqrt(log n) for block-diagonal patterns with k = ceil(sqrt(log n)).

    n is rounded to the nearest multiple of k.  The norm of each sample is
    the max over its diagonal blocks, computed exactly by batched dense
    eigendecompositions of the k x k blocks, so no solver tolerance applies.
    """
    rows = []
    cells = [(n_req, *_seginer_cell(n_req)) for n_req in n_grid]  # every cell is checked before any trial
    for cell, (n_req, n, k) in enumerate(cells):
        C = coeffs_mod.block_diagonal(n, k)

        def one(t, C=C, nblocks=n // k, k=k, cell=cell):
            return _block_norms(sample_matrix(C, dist, SeedSpec(seed, cell * trials + t)), nblocks, k)

        est = NormEstimate.from_values(_run_trials(one, trials, threads), seed)
        denom = math.sqrt(math.log(n))
        rows.append(
            {
                "n_requested": int(n_req),
                "n": int(n),
                "k": int(k),
                "ratio_mean": est.mean / denom,
                "ratio_stderr": est.std_error / denom,
            }
        )
    return rows


def bounds_vs_empirical_report(C, dist, epsilon, trials, seed, tol=DEFAULT_NORM_TOL, threads=1):
    """Lower bound, MC norm, diagnostics, and the upper bounds of ``bounds.upper_bounds``.

    Asserted (as report flags, not exceptions): for Gaussian entries, the
    explicit-constant lower bound ``lower_bound_explicit`` sits below the MC
    mean; the MC mean stays below every upper bound that ``upper_bounds``
    flags explicit for this law, so main and rect only for laws whose even
    moments are at most the Gaussian's.  Reported but never
    asserted: the constant-1 structural value sigma + E max|b g|, which
    overshoots E||X|| by sigma_star on diagonal patterns, and the
    max-column-norm ratio, which corresponds to an open conjecture.  Both
    lower values come from one set of max-entry draws.
    """
    _check_stderr_trials(trials)
    pairs = _trial_norms(C, dist, seed, trials, tol, threads, row_norms=True)
    norms = np.asarray([p[0] for p in pairs])
    maxrows = np.asarray([p[1] for p in pairs])
    norm_est = NormEstimate.from_values(norms, seed)
    maxrow_est = NormEstimate.from_values(maxrows, seed)
    maxima = bounds_mod._max_entry_maxima(C, trials, seed)
    lower = bounds_mod._explicit_lower(C, maxima, trials, seed)
    structural = bounds_mod._structural_lower(C, maxima, trials, seed)

    upper = {rep.bound_name: rep for rep in bounds_mod.upper_bounds(C, dist, epsilon)}

    failures = []
    combined_se = math.hypot(lower.std_error, norm_est.std_error)
    # the lower bound is proved for Gaussian entries only
    if dist.family == "gaussian" and lower.mean > norm_est.mean + 3.0 * combined_se:
        failures.append(
            f"explicit lower bound {lower.mean:.6g} exceeds MC mean {norm_est.mean:.6g} "
            f"+ 3*stderr {3 * combined_se:.3g}"
        )
    for name, rep in upper.items():
        if rep.constant_mode == bounds_mod.EXPLICIT:
            if norm_est.mean + 3.0 * norm_est.std_error > rep.value:
                failures.append(
                    f"MC mean {norm_est.mean:.6g} + 3*stderr exceeds explicit bound "
                    f"{name} = {rep.value:.6g}"
                )

    return {
        "n": C.rows,
        "m": C.cols,
        "distribution": dist.family,
        "epsilon": epsilon,
        "trials": trials,
        "seed": seed,
        "lower_estimate": lower.mean,
        "lower_stderr": lower.std_error,
        "structural_lower_diagnostic": structural.mean,
        "mc_norm_mean": norm_est.mean,
        "mc_norm_stderr": norm_est.std_error,
        "mc_max_col_norm_mean": maxrow_est.mean,
        # None (JSON null) where the ratio is 0/0: JSON has no NaN
        "column_ratio_diagnostic": (
            norm_est.mean / maxrow_est.mean if maxrow_est.mean > 0 else None
        ),
        "upper_bounds": {name: rep.to_json() for name, rep in upper.items()},
        "failures": failures,
        "ok": not failures,
    }


def write_rows_csv(rows, path):
    """Write a list of flat dicts as CSV with a stable header order."""
    if not rows:
        raise ParameterError("no rows to write")
    cols = list(rows[0].keys())
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(cols)
        for row in rows:
            w.writerow([repr(v) if isinstance(v, float) else v for v in (row[c] for c in cols)])
