import json
import math

import numpy as np
import pytest
import scipy.sparse as sp

from specbound import bounds, coeffs, sampling
from specbound.bounds import EXPLICIT, _check_t, _report, _require_symmetric
from specbound.coeffs import structural_params
from specbound.errors import DataError, ParameterError


def star_pattern(n, arms):
    """Symmetric pattern whose first row/column holds ``arms`` ones."""
    rows = [0] * arms + list(range(1, arms))
    cols = list(range(arms)) + [0] * (arms - 1)
    vals = np.ones(len(rows))
    mat = sp.coo_array((vals, (rows, cols)), shape=(n, n)).tocsr()
    return coeffs.CoefficientMatrix(mat, "symmetric")


def main_formula(sigma, sigma_star, n, eps):
    return (1 + eps) * (2 * sigma + 6 / math.sqrt(math.log(1 + eps)) * sigma_star * math.sqrt(math.log(n)))


def test_bound_main_examples():
    # sigma = 4, sigma_star = 1, n = 1024: block pattern with 16-blocks
    C = coeffs.block_diagonal(1024, 16)
    r = bounds.bound_main(C, 0.5)
    assert r.value == pytest.approx(49.21, abs=0.01)
    assert r.value == pytest.approx(main_formula(4, 1, 1024, 0.5))
    assert r.constant_mode == "explicit"

    assert bounds.bound_main(coeffs.wigner(1), 0.5).value == pytest.approx(3.0)
    assert bounds.bound_main(coeffs.wigner(1), 0.2).value == pytest.approx(1.2 * 2.0)
    assert bounds.bound_main(coeffs.wigner(1024), 0.1).value == pytest.approx(126.7, abs=0.05)


def test_bound_main_validation():
    with pytest.raises(ParameterError):
        bounds.bound_main(coeffs.wigner(4), 0.9)
    with pytest.raises(ParameterError):
        bounds.bound_main(coeffs.wigner(4), 0.0)
    rect = coeffs.CoefficientMatrix(np.ones((2, 3)), "rectangular")
    with pytest.raises(ParameterError):
        bounds.bound_main(rect, 0.25)


def test_bound_main_monotone_in_sigma_and_n():
    # growing k grows sigma; growing n grows the log term
    vals_k = [bounds.bound_main(coeffs.band(512, k), 0.3).value for k in (1, 3, 8, 20)]
    assert all(a < b for a, b in zip(vals_k, vals_k[1:]))
    vals_n = [bounds.bound_main(coeffs.band(n, 3), 0.3).value for n in (64, 256, 1024)]
    assert all(a < b for a, b in zip(vals_n, vals_n[1:]))


def test_bound_main_floor_invariants():
    for C in (coeffs.wigner(32), coeffs.band(100, 4), coeffs.diagonal(50)):
        p = coeffs.structural_params(C)
        for eps in (0.05, 0.25, 0.5):
            v = bounds.bound_main(C, eps).value
            assert v >= (1 + eps) * 2 * p.sigma
            assert v >= p.sigma_star * math.sqrt(math.log(C.rows))


def test_bound_rect_examples():
    ones = coeffs.CoefficientMatrix(np.ones((256, 256)), "rectangular")
    assert bounds.bound_rect(ones, 0.5).value == pytest.approx(75.74, abs=0.01)
    one = coeffs.CoefficientMatrix(np.ones((1, 1)), "rectangular")
    assert bounds.bound_rect(one, 0.5).value == pytest.approx(3.0)
    wide = coeffs.CoefficientMatrix(np.ones((4, 10000)), "rectangular")
    expect = 1.5 * (100 + 2 + 5 / math.sqrt(math.log(1.5)) * math.sqrt(math.log(4)))
    assert bounds.bound_rect(wide, 0.5).value == pytest.approx(expect)


def test_bound_rect_on_symmetric_never_exceeds_twice_main():
    for C in (coeffs.wigner(64), coeffs.band(128, 2), coeffs.diagonal(32)):
        for eps in (0.1, 0.5):
            assert bounds.bound_rect(C, eps).value <= 2 * bounds.bound_main(C, eps).value


def test_bound_reference_examples():
    n = 1024
    d = coeffs.diagonal(n)
    assert bounds.bound_reference(d, "nck").value == pytest.approx(math.sqrt(math.log(n)))
    assert bounds.bound_reference(d, "gordon").value == pytest.approx(math.sqrt(n))
    w = coeffs.wigner(n)
    assert bounds.bound_reference(w, "nck").value == pytest.approx(math.sqrt(n * math.log(n)))
    assert bounds.bound_reference(w, "gordon").value == pytest.approx(math.sqrt(n))
    assert bounds.bound_reference(coeffs.wigner(1), "nck").value == 0.0
    assert bounds.bound_reference(d, "nck").constant_mode == "structural"
    with pytest.raises(ParameterError):
        bounds.bound_reference(d, "latala")


def test_upper_bounds_label_main_and_rect_by_law():
    # main and rect keep their values under every law, and are guarantees only
    # for laws whose even moments are at most the Gaussian's, E xi^(2k) <= (2k-1)!!
    dominated = [sampling.GAUSSIAN, sampling.RADEMACHER, sampling.BOUNDED_UNIFORM,
                 sampling.EntryDistribution("heavy_tailed", beta=1.0)]
    custom = sampling.EntryDistribution("custom", sampler=lambda rng, size: rng.standard_normal(size))
    others = [sampling.EntryDistribution("heavy_tailed", beta=3.0), custom]
    sym = coeffs.wigner(64)
    rect = coeffs.CoefficientMatrix(np.ones((256, 256)), "rectangular")
    for mode, laws in (("explicit", dominated), ("structural", others)):
        for dist in laws:
            for C, direct in ((sym, bounds.bound_main(sym, 0.1)), (rect, bounds.bound_rect(rect, 0.5))):
                first = bounds.upper_bounds(C, dist, direct.epsilon_or_alpha)[0]
                assert (first.bound_name, first.value) == (direct.bound_name, direct.value)
                assert first.constant_mode == mode
    for dist in dominated:
        for k in range(1, 9):
            assert sampling.distribution_moment(dist, 2 * k) <= math.prod(range(2 * k - 1, 0, -2)) * (1 + 1e-12)
    assert sampling.distribution_moment(others[0], 4) > 3  # normalized 4th moment 35.0


def test_bound_heavy():
    # sigma = 3, sigma_star = 1, n = round(e^9): star pattern with 9 arms
    n = round(math.e**9)
    C = star_pattern(n, 9)
    assert bounds.bound_heavy(C, 2.0).value == pytest.approx(12.0, abs=1e-4)
    # beta <= 1 reduces to sigma + sigma_star sqrt(log n)
    v1 = bounds.bound_heavy(C, 0.7).value
    assert v1 == pytest.approx(3 + math.sqrt(math.log(n)))
    d = coeffs.diagonal(100)
    assert bounds.bound_heavy(d, 2.0).value == pytest.approx(1 + math.log(100))
    with pytest.raises(ParameterError):
        bounds.bound_heavy(C, 0.0)


def bound_bounded_entries(C, alpha, entry_moment):
    """e^(2/alpha) * { 2 sigma + 14 alpha M sqrt(log n) } with
    M = max_ij entry_moment(i, j, 2*ceil(alpha log n)).

    ``entry_moment(i, j, q)`` must return the L_q norm of xi_ij * b_ij for
    even q; it is consulted on the stored nonzeros only (zero coefficients
    contribute zero).  No command evaluates it: it is kept here as the
    oracle of the general-moment bound.
    """
    if alpha < 3:
        raise ParameterError(f"alpha must be >= 3, got {alpha}")
    _require_symmetric(C, "bound_bounded_entries")
    p = structural_params(C)
    n = C.rows
    if n == 1:
        value = math.exp(2.0 / alpha) * 2.0 * p.sigma
        return _report("bounded_entries", value, EXPLICIT, C, eps=alpha)
    q = 2 * math.ceil(alpha * math.log(n))
    big_m = 0.0
    ii, jj, _ = C.nonzero_entries()
    for i, j in zip(ii, jj):
        mom = entry_moment(int(i), int(j), q)
        if not (mom >= 0.0 and math.isfinite(mom)):
            raise DataError(f"entry_moment({i},{j},{q}) returned {mom!r}")
        if mom > big_m:
            big_m = mom
    value = math.exp(2.0 / alpha) * (
        2.0 * p.sigma + 14.0 * alpha * big_m * math.sqrt(math.log(n))
    )
    return _report("bounded_entries", value, EXPLICIT, C, eps=alpha)


def test_bound_bounded_entries_rademacher_and_uniform():
    C = coeffs.wigner(55)  # n ~ e^4
    n, alpha = 55, 3.0
    rad = bound_bounded_entries(C, alpha, lambda i, j, q: 1.0)
    expect = math.exp(2 / 3) * (2 * math.sqrt(55) + 14 * 3 * math.sqrt(math.log(n)))
    assert rad.value == pytest.approx(expect)
    assert rad.constant_mode == "explicit"
    uni = bound_bounded_entries(C, alpha, lambda i, j, q: math.sqrt(3.0))
    expect_u = math.exp(2 / 3) * (2 * math.sqrt(55) + 14 * 3 * math.sqrt(3) * math.sqrt(math.log(n)))
    assert uni.value == pytest.approx(expect_u)
    # n = 1 drops the log term entirely
    one = bound_bounded_entries(coeffs.wigner(1), 3.0, lambda i, j, q: 1.0)
    assert one.value == pytest.approx(math.exp(2 / 3) * 2.0)


def test_bound_bounded_entries_validation():
    C = coeffs.wigner(8)
    with pytest.raises(ParameterError):
        bound_bounded_entries(C, 2.0, lambda i, j, q: 1.0)
    with pytest.raises(DataError):
        bound_bounded_entries(C, 3.0, lambda i, j, q: -1.0)
    with pytest.raises(DataError):
        bound_bounded_entries(C, 3.0, lambda i, j, q: math.inf)


def test_bound_bounded_entries_skips_stored_zeros():
    # entry_moment sees the nonzeros only, whatever the storage
    stored_zeros = sp.csr_array(([1.0, 0.0, 0.0, 1.0], [0, 1, 0, 1], [0, 2, 4]), shape=(2, 2))
    seen = {}
    for name, entries in (("csr", stored_zeros), ("dense", np.eye(2))):
        C = coeffs.CoefficientMatrix(entries, "symmetric")
        calls = []
        bound_bounded_entries(C, 3.0, lambda i, j, q: calls.append((i, j)) or 1.0)
        seen[name] = calls
    assert stored_zeros.nnz == 4
    assert seen["csr"] == seen["dense"] == [(0, 0), (1, 1)]


def test_bound_dimfree_examples():
    tiny = bounds.bound_dimfree(coeffs.single_entry(10**6), 1.0)
    assert tiny.value == pytest.approx(1.0)  # independent of n
    ident = bounds.bound_dimfree(coeffs.diagonal(55), 1.0)
    assert ident.value == pytest.approx(1 + math.sqrt(math.log(55)))
    assert ident.value == pytest.approx(3.0, abs=0.01)
    n = 64
    wig = bounds.bound_dimfree(coeffs.wigner(n), 1.0)
    assert wig.value == pytest.approx(math.sqrt(n) + math.sqrt(2 * math.log(n)))
    with pytest.raises(ParameterError):
        bounds.bound_dimfree(coeffs.wigner(4), 2.0)
    zero = coeffs.CoefficientMatrix(np.zeros((3, 3)), "symmetric")
    with pytest.raises(ParameterError):
        bounds.bound_dimfree(zero, 1.0)


def test_bound_dimfree_log_argument_control():
    # with sigma_star = 1 the l_p mass is at most n^(2/p), so the log
    # argument never exceeds (2/p) log n
    for C in (coeffs.wigner(16), coeffs.band(64, 3), coeffs.diagonal(32)):
        n = C.rows
        for p in (1.0, 1.5, 1.9):
            lp = coeffs.lp_entrywise_norm(C, p)
            assert math.log(lp) <= (2 / p) * math.log(n) + 1e-12


def test_bound_seginer_closed_form_and_grid():
    for C in (coeffs.wigner(100), coeffs.band(4096, 7), coeffs.diagonal(50)):
        p = coeffs.structural_params(C)
        rep = bounds.bound_seginer(C)
        logn = math.log(C.rows)
        assert rep.value == pytest.approx(p.sigma + 2 * p.sigma * logn**0.25)
        # grid oracle over u in sigma * 2^[-10, 10]
        u = p.sigma * 2.0 ** np.linspace(-10, 10, 20001)
        grid_min = (p.sigma + u * math.sqrt(logn) + p.sigma**2 / u).min()
        assert rep.value == pytest.approx(grid_min, rel=1e-6)
        assert f"u_star={p.sigma / logn ** 0.25!r}" in rep.note
    with pytest.raises(ParameterError):
        bounds.bound_seginer(coeffs.wigner(1))


def test_bound_rademacher_examples():
    for n in (16, 64, 256):
        assert bounds.bound_rademacher(coeffs.diagonal(n), 0.25).value == 1.0
    w = coeffs.wigner(64)
    assert bounds.bound_rademacher(w, 0.25).value == pytest.approx(
        bounds.bound_main(w, 0.25).value
    )  # ||B|| = 64 loses
    blk = bounds.bound_rademacher(coeffs.block_diagonal(64, 4), 0.25)
    assert blk.value == pytest.approx(4.0)  # ||B|| = block size wins


def test_lower_bound_estimate_scalar_case():
    one = coeffs.CoefficientMatrix(np.ones((1, 1)), "symmetric")
    est = bounds.lower_bound_estimate(one, 4000, seed=11)
    mhat = est.mean - 1.0  # subtract sigma
    assert mhat == pytest.approx(math.sqrt(2 / math.pi), abs=0.03)
    assert est.trials == 4000


def test_lower_bound_estimate_diagonal_4096():
    # Monte Carlo oracle: E max of 4096 |g| is 3.802 +- 0.003 (pilot runs
    # with independent generators), so the max term lands in [3.75, 3.85]
    est = bounds.lower_bound_estimate(coeffs.diagonal(4096), 10_000, seed=12)
    mhat = est.mean - 1.0
    assert 3.75 <= mhat <= 3.85
    assert est.std_error < 0.01


def test_lower_bound_estimate_zero_and_rect():
    zero = coeffs.CoefficientMatrix(np.zeros((5, 5)), "symmetric")
    assert bounds.lower_bound_estimate(zero, 10, seed=0).mean == 0.0
    rect = coeffs.CoefficientMatrix(np.ones((2, 8)), "rectangular")
    est = bounds.lower_bound_estimate(rect, 500, seed=1)
    p = coeffs.structural_params(rect)
    assert est.mean > p.sigma1 + p.sigma2  # offset plus a positive max term


def test_lower_bound_estimate_deterministic():
    a = bounds.lower_bound_estimate(coeffs.band(50, 2), 50, seed=5)
    b = bounds.lower_bound_estimate(coeffs.band(50, 2), 50, seed=5)
    assert a.mean == b.mean and a.std_error == b.std_error


def test_lower_bound_explicit_diagonal_is_max_term():
    C = coeffs.diagonal(512)  # sigma = sigma_star: the deterministic term is 0
    est = bounds.lower_bound_explicit(C, 100, seed=3)
    structural = bounds.lower_bound_estimate(C, 100, seed=3)
    assert est.mean == pytest.approx(structural.mean - 1.0, abs=1e-12)
    assert est.std_error == pytest.approx(structural.std_error, abs=1e-12)


def test_lower_bound_explicit_wigner_column_term():
    for n in (16, 64, 256):
        est = bounds.lower_bound_explicit(coeffs.wigner(n), 50, seed=4)
        assert est.mean == pytest.approx(math.sqrt(n - 1), rel=1e-12)  # beats E max|g| over n(n+1)/2 entries
        assert est.std_error == 0.0


def test_lower_bound_explicit_zero_pattern():
    zero = coeffs.CoefficientMatrix(np.zeros((5, 5)), "symmetric")
    est = bounds.lower_bound_explicit(zero, 10, seed=0)
    assert est.mean == 0.0 and est.std_error == 0.0


def test_lower_bound_explicit_rect_uses_larger_sigma():
    for shape in ((2, 64), (64, 2)):  # sigma1, sigma2 = 8, sqrt(2) and swapped
        rect = coeffs.CoefficientMatrix(np.ones(shape), "rectangular")
        est = bounds.lower_bound_explicit(rect, 50, seed=6)
        assert est.mean == pytest.approx(math.sqrt(63), rel=1e-12)
        assert est.std_error == 0.0


def test_lower_bound_explicit_deterministic():
    a = bounds.lower_bound_explicit(coeffs.diagonal(300), 50, seed=5)
    b = bounds.lower_bound_explicit(coeffs.diagonal(300), 50, seed=5)
    assert a.mean == b.mean and a.std_error == b.std_error
    assert np.array_equal(a.per_trial_values, b.per_trial_values)


def test_tail_bound_examples():
    C = coeffs.wigner(64)  # sigma_star = 1
    thr, prob = bounds.tail_bound(C, 0.25, 4.0)
    assert prob == pytest.approx(math.exp(-4.0))
    assert thr == pytest.approx(bounds.bound_main(C, 0.25).value + 4.0)
    _, prob0 = bounds.tail_bound(C, 0.25, 0.0)
    assert prob0 == 1.0
    R = coeffs.CoefficientMatrix(np.ones((48, 80)), "rectangular")  # sigma_star = 1
    thr_r, prob_r = bounds.tail_bound(R, 0.25, 2.0)
    assert prob_r == pytest.approx(math.exp(-2.0))
    assert thr_r == pytest.approx(bounds.bound_rect(R, 0.25).value + 2.0)
    with pytest.raises(ParameterError):
        bounds.tail_bound(C, 0.25, -1.0)


def test_tail_bound_decreasing_and_integrable():
    C = coeffs.band(128, 3)
    ts = np.linspace(0.0, 10.0, 101)
    probs = [bounds.tail_bound(C, 0.3, t)[1] for t in ts]
    assert probs[0] == 1.0
    assert all(a > b for a, b in zip(probs, probs[1:]))
    assert np.trapezoid(probs, ts) < math.inf


def test_second_form_constant_two_branch_derivation():
    # the constructive recipe must make n exp(-s^2/c_eps) dominate the
    # combination of the shifted one-sided bound and the trivial bound
    for eps in (0.05, 0.25, 0.5):
        cprime = (1 + eps) * 6 / math.sqrt(math.log(1 + eps))
        c_eps = bounds.second_form_constant(eps)
        assert c_eps == pytest.approx((2 + cprime) ** 2)
        for n in (2, 128, 10**6):
            logn = math.log(n)
            crossover = math.sqrt(c_eps * logn)  # where n exp(-s^2/c) hits 1
            assert crossover == pytest.approx(2 * math.sqrt(c_eps) / 2 * math.sqrt(logn))
            for s in np.linspace(0, 3 * crossover, 200):
                second = min(1.0, n * math.exp(-(s**2) / c_eps))
                if s <= crossover:
                    assert second == 1.0  # trivial branch
                else:
                    # shifted-bound branch: s - cprime sqrt(log n) >= s/C_eps
                    c_big = math.sqrt(c_eps) / 2
                    assert s - cprime * math.sqrt(logn) >= s / c_big - 1e-9
                    shifted = math.exp(-((s - cprime * math.sqrt(logn)) ** 2) / 4)
                    assert second >= shifted - 1e-12


def test_tail_bound_second_form_behaviour():
    C = coeffs.wigner(128)
    assert bounds.tail_bound_second_form(C, 0.25, 0.0) == 1.0
    ts = np.linspace(0, 400, 80)
    probs = [bounds.tail_bound_second_form(C, 0.25, t) for t in ts]
    assert all(a >= b for a, b in zip(probs, probs[1:]))
    assert probs[-1] < 1e-6
    with pytest.raises(ParameterError):
        bounds.tail_bound_second_form(C, 0.25, 1.0, variant="bounded")
    v = bounds.tail_bound_second_form(
        C, 0.25, 50.0, variant="bounded", sigma_star_tilde=1.0
    )
    assert 0.0 <= v <= 1.0


def reference_tail_curves(t, n, sigma, sigma_tilde, sigma_star_tilde, c=8.0):
    """Comparison curves: (matrix-concentration, matrix-Bernstein), capped at 1.

    concentration: n exp(-t^2 / (8 sigma^2)); Bernstein:
    n exp(-t^2 / (c (sigma_tilde^2 + sigma_star_tilde t))), default c = 8 by
    analogy.  Both are plotting references only, and no command prints them.
    """
    _check_t(t)
    if t == 0:
        return min(1.0, float(n)), min(1.0, float(n))
    conc = 0.0 if sigma == 0 else min(1.0, n * math.exp(-(t * t) / (8.0 * sigma**2)))
    denom = c * (sigma_tilde**2 + sigma_star_tilde * t)
    bern = 0.0 if denom == 0 else min(1.0, n * math.exp(-(t * t) / denom))
    return conc, bern


def test_reference_tail_curves():
    conc, bern = reference_tail_curves(0.0, 5, 1.0, 1.0, 1.0)
    assert conc == 1.0 and bern == 1.0
    conc, _ = reference_tail_curves(4.0, 1, 1.0, 1.0, 1.0)
    assert conc == pytest.approx(math.exp(-2.0))


def test_bernstein_weaker_than_subgaussian_pointwise():
    # exp(-t^2/c^2 s*^2) <= 3 exp(-2t^2 / c (s^2 + s* t)) on a grid
    c = 8.0
    for s_t, s_star in [(1.0, 1.0), (5.0, 1.0), (2.0, 0.5)]:
        for t in np.linspace(0.01, 50, 300):
            lhs = math.exp(-(t**2) / (c**2 * s_star**2))
            rhs = 3 * math.exp(-2 * t**2 / (c * (s_t**2 + s_star * t)))
            assert lhs <= rhs * (1 + 1e-12)


def test_gaussian_moment_bounds():
    assert bounds.gaussian_moment_bounds(4, 2) == pytest.approx(8.0)
    assert bounds.gaussian_moment_bounds(9, 2) == pytest.approx(10.0)
    assert bounds.gaussian_moment_bounds(4, 4, rprime=9) == pytest.approx(9.0)
    with pytest.raises(ParameterError):
        bounds.gaussian_moment_bounds(4, 1)


def test_bound_report_json_schema():
    rep = bounds.bound_main(coeffs.wigner(16), 0.25)
    payload = json.loads(json.dumps(rep.to_json()))
    assert set(payload) == {
        "bound_name",
        "value",
        "constant_mode",
        "epsilon",
        "sigma",
        "sigma_star",
        "sigma1",
        "sigma2",
        "n",
        "m",
    }
    assert payload["n"] == 16 and payload["sigma"] == 4.0
