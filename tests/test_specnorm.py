import json
import math
import os
import sys
import threading
import tracemalloc
import types

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg
from scipy.sparse.linalg import ArpackNoConvergence

from conftest import banded_csr
from specbound import bounds, coeffs, experiments, sampling, specnorm
from specbound.errors import DataError, NonConvergenceError, ParameterError, SizeError
from specbound.specnorm import eigenvalues_all, max_row_norm, spectral_norm


def _rand_sym(n, seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n))
    return (a + a.T) / 2


def test_diagonal_norm_is_max_abs_entry():
    r = spectral_norm(np.diag([1.0, -3.0, 2.0]))
    assert r.value == 3.0
    assert r.method == "dense_eig"


@pytest.mark.parametrize("sparse", [False, True])
def test_is_diagonal_truth_table(sparse):
    # the stored-count shortcut must give the answers of the diagonal comparison
    cases = [
        (np.diag([1.0, -3.0, 2.0]), True),
        (np.diag([1.0, 0.0, 2.0]), True),
        (np.zeros((3, 3)), True),
        (np.eye(3, 5), True),
        (np.eye(5, 3), True),
        (np.eye(3) + np.eye(3, k=1), False),  # more nonzeros than diagonal slots
        (np.diag([1.0, 0.0, 2.0]) + np.eye(3, k=2), False),  # as many, one off the diagonal
        (np.array([[0, 0, 0, 1.0, 0], [0, 0, 0, 0, 1.0], [0, 0, 1.0, 0, 0]]), False),
    ]
    for a, want in cases:
        assert specnorm._is_diagonal(sp.csr_array(a) if sparse else a) is want, a
    # explicit zeros stored off the diagonal do not count
    stored = sp.csr_array(
        (np.array([2.0, 0.0, 0.0, 1.0]), np.array([0, 1, 2, 2]), np.array([0, 3, 3, 4])), shape=(3, 3)
    )
    assert specnorm._is_diagonal(stored) is True


def test_all_ones_norm_is_n():
    assert spectral_norm(np.ones((3, 3))).value == pytest.approx(3.0)


def test_lanczos_matches_dense_eigensolver(monkeypatch):
    a = _rand_sym(50, 0)
    dense = spectral_norm(a).value
    monkeypatch.setattr(specnorm, "DENSE_THRESHOLD", 49)
    lz = spectral_norm(a, tol=1e-10)
    assert lz.method == "lanczos"
    assert lz.value == pytest.approx(dense, rel=1e-8)
    assert lz.rel_error_bound <= 1e-10


def test_lanczos_matches_arpack_on_large_sparse():
    # independent oracle: ARPACK on a 5000-dim sparse sample
    from scipy.sparse.linalg import eigsh

    C = coeffs.band_cyclic(5000, 3)
    X = sampling.sample_matrix(C, sampling.GAUSSIAN, sampling.SeedSpec(3, 0))
    mine = spectral_norm(X, tol=1e-8)
    assert mine.method == "lanczos"
    hi = eigsh(X, k=1, which="LA", return_eigenvectors=False, tol=1e-10)[0]
    lo = eigsh(X, k=1, which="SA", return_eigenvectors=False, tol=1e-10)[0]
    oracle = max(abs(hi), abs(lo))
    assert mine.value == pytest.approx(oracle, rel=1e-6)


@pytest.mark.parametrize(
    "build, method",
    [
        (lambda: _rand_sym(40, 1), "dense_eig"),  # n at DENSE_THRESHOLD
        (lambda: _rand_sym(41, 1), "lanczos"),  # n above it
        (lambda: np.ones((40, 30)), "dense_eig"),
        (lambda: np.ones((30, 41)), "lanczos"),  # max(n, m) above it
        (lambda: sp.csr_array(_rand_sym(30, 1)), "lanczos"),  # sparse, whatever its size
        (lambda: _banded_sample(), "lanczos"),
        (lambda: sp.csr_array(np.array([[0.0, 1.0], [1.0, 0.0]])), "dense_eig"),  # too small for ARPACK
        (lambda: np.zeros((41, 41)), "dense_eig"),  # zero: no solve, whatever the storage
        (lambda: sp.csr_array((30, 41)), "dense_eig"),
    ],
)
def test_dispatch_follows_storage_and_size(monkeypatch, build, method):
    # no caller picks the solver: storage and DENSE_THRESHOLD do
    monkeypatch.setattr(specnorm, "DENSE_THRESHOLD", 40)
    X = build()
    r = spectral_norm(X)
    assert r.method == method
    assert (r.iterations > 0) == (method == "lanczos")
    A = banded_csr(X) if isinstance(X, specnorm.BandedMatrix) else X
    assert r.value == pytest.approx(np.linalg.norm(A.toarray() if sp.issparse(A) else A, 2), rel=1e-6)


def _rand_sparse(n, m, seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, m)) * (rng.uniform(size=(n, m)) < 0.5)
    a[0, -1] = 1.5  # never all zero; off the diagonal unless m == 1
    return a


@pytest.mark.parametrize(
    "shape, symmetric",
    [((1, 1), True), ((2, 2), True), ((3, 3), True), ((40, 40), True),
     ((1, 7), False), ((7, 1), False), ((3, 3), False), ((40, 40), False)],
)
def test_sparse_norm_matches_numpy(shape, symmetric):
    # sparse input never reaches LAPACK unless its operator is too small
    # for ARPACK (dim <= 2)
    a = _rand_sparse(*shape, seed=sum(shape))
    if symmetric:
        a = a + a.T
    r = spectral_norm(sp.csr_array(a), tol=1e-10)
    dim = shape[0] if symmetric else shape[0] + shape[1]
    assert r.method == ("dense_eig" if dim <= 2 else "lanczos")
    assert r.value == pytest.approx(np.linalg.norm(a, 2), rel=1e-8)
    if r.method == "lanczos":
        assert r.iterations > 0 and r.rel_error_bound <= 1e-8


def test_norm_invariances():
    a = _rand_sym(20, 2)
    base = spectral_norm(a).value
    rng = np.random.default_rng(3)
    perm = rng.permutation(20)
    assert spectral_norm(a[np.ix_(perm, perm)]).value == pytest.approx(base)
    assert spectral_norm(a.T).value == pytest.approx(base)
    d = np.diag(rng.choice([-1.0, 1.0], 20))
    assert spectral_norm(d @ a @ d).value == pytest.approx(base)


def test_norm_dominates_entries_and_row_norms():
    for seed in range(5):
        a = _rand_sym(15, seed)
        v = spectral_norm(a).value
        assert v >= np.abs(a).max() - 1e-12
        assert v >= max_row_norm(a) - 1e-12


def test_gershgorin_for_nonnegative_symmetric():
    rng = np.random.default_rng(8)
    b = rng.uniform(0, 1, (12, 12))
    b = (b + b.T) / 2
    assert spectral_norm(b).value <= b.sum(axis=1).max() + 1e-10


def test_dilation_matches_rectangular_norm():
    rng = np.random.default_rng(9)
    X = rng.standard_normal((8, 17))
    direct = spectral_norm(X).value
    dil = np.block([[np.zeros((8, 8)), X], [X.T, np.zeros((17, 17))]])
    assert spectral_norm(dil).value == pytest.approx(direct, rel=1e-10)
    # iterative path goes through the dilation internally
    it = spectral_norm(sp.csr_array(X), tol=1e-9)
    assert it.value == pytest.approx(direct, rel=1e-7)


def test_max_row_norm_examples():
    assert max_row_norm(np.eye(4)) == pytest.approx(1.0)
    assert max_row_norm(np.array([[3.0, 4.0]])) == pytest.approx(5.0)
    a = _rand_sym(10, 4)
    rows = np.sqrt((a**2).sum(axis=1))
    assert max_row_norm(a) == pytest.approx(rows.max())
    assert max_row_norm(sp.csr_array(a)) == pytest.approx(rows.max())


def test_sparse_row_and_column_sums_agree_bit_for_bit():
    # weighted, exactly mirrored, ~40 entries a row: a pairwise row sum
    # would round differently from the sequential column sum
    U = sp.random_array((400, 400), density=0.1, rng=np.random.default_rng(5), format="csr")
    C = coeffs.CoefficientMatrix(sp.triu(U) + sp.triu(U, 1).T, "symmetric")
    samples = [sampling.sample_matrix(C, sampling.GAUSSIAN, sampling.SeedSpec(9, t)) for t in range(5)]
    for M in [C.data, sp.csc_array(C.data), *samples]:
        row, col = specnorm.row_col_sumsq(M)
        assert np.array_equal(row.view(np.int64), col.view(np.int64))
        assert np.allclose(row, (M.toarray() ** 2).sum(axis=1), rtol=1e-14, atol=0)


def test_row_col_sumsq_squares_repeated_entries_after_merging():
    # entry (0, 1) stored twice: it is 1 + 2 = 3, so its square is 9, not 1 + 4
    M = sp.csr_array((np.array([1.0, 2.0, 0.5]), np.array([1, 1, 0]), np.array([0, 2, 3])), shape=(2, 2))
    row, col = specnorm.row_col_sumsq(M)
    assert row.tolist() == [9.0, 0.25] and col.tolist() == [0.25, 9.0]
    assert M.data.tolist() == [1.0, 2.0, 0.5]  # the input is not merged in place


def test_eigenvalues_all_examples():
    assert np.allclose(eigenvalues_all(np.diag([1.0, 2.0, 3.0])), [3.0, 2.0, 1.0])
    w = eigenvalues_all(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert np.allclose(w, [1.0, -1.0])
    a = _rand_sym(40, 5)
    w = eigenvalues_all(a)
    assert np.all(np.diff(w) <= 1e-12)  # descending
    assert w.sum() == pytest.approx(np.trace(a), abs=1e-10)


def test_eigenvalues_all_size_guard():
    with pytest.raises(SizeError):
        eigenvalues_all(sp.eye_array(5000, format="csr"))
    with pytest.raises(ParameterError):
        eigenvalues_all(np.ones((3, 4)))


def test_bad_inputs():
    for bad in (np.nan, np.inf, -np.inf):
        a = np.array([[bad, 0.0], [0.0, 1.0]])
        for M in (a, sp.csr_array(a)):
            with pytest.raises(DataError):
                spectral_norm(M)
    with pytest.raises(ParameterError):
        spectral_norm(np.eye(2), tol=0.0)


@pytest.mark.parametrize("sparse", [False, True], ids=["dense", "csr"])
def test_max_abs_reads_nan_inf_and_empty(sparse):
    cases = [
        ([[0.0, -3.0], [2.0, 0.0]], 3.0),
        ([[0.0, np.nan], [-np.inf, 1.0]], np.nan),
        ([[np.inf, 0.0], [0.0, -1.0]], np.inf),
        ([[1.0, 0.0], [0.0, -np.inf]], np.inf),
        ([[-0.0, 0.0], [0.0, -0.0]], 0.0),
        (np.zeros((0, 3)), 0.0),
        (np.zeros((3, 3)), 0.0),
    ]
    for a, want in cases:
        a = np.asarray(a)
        M = sp.csr_array(a) if sparse else a
        got = specnorm._max_abs(M)
        assert type(got) is float
        if np.isnan(want):
            assert np.isnan(got)
        else:
            assert got == want and not np.signbit(got)


def test_zero_matrix():
    assert spectral_norm(np.zeros((4, 4))).value == 0.0
    assert spectral_norm(sp.csr_array((100, 100))).value == 0.0


def test_sparse_identity_is_exactly_one():
    X = sp.eye_array(3000, format="csr")
    assert spectral_norm(X).value == 1.0


@pytest.mark.parametrize(
    "dense, tol, dtype",
    [(False, 1e-4, np.float32), (False, 1e-5, np.float32), (False, 1e-6, np.float64),
     (True, 1e-4, np.float64)],
)
def test_arpack_precision_follows_tol(monkeypatch, dense, tol, dtype):
    # sparse input iterates in float32 from tol 1e-5 up; dense input never
    real_eigsh = scipy.sparse.linalg.eigsh
    seen = []

    def watched(A, *args, **kwargs):
        seen.append((A.dtype, kwargs["v0"].dtype))
        return real_eigsh(A, *args, **kwargs)

    monkeypatch.setattr(scipy.sparse.linalg, "eigsh", watched)
    monkeypatch.setattr(specnorm, "DENSE_THRESHOLD", 99)  # the dense 100 x 100 goes to ARPACK
    X = _rand_sym(100, 6) if dense else _band_sample()
    r = spectral_norm(X, tol=tol)
    assert seen == [(dtype, dtype)]
    assert type(r.value) is float and type(r.rel_error_bound) is float


@pytest.mark.parametrize("tol, dtype", [(1e-4, np.float32), (1e-5, np.float32), (1e-6, np.float64)])
def test_banded_arpack_precision_follows_tol(monkeypatch, tol, dtype):
    real_eigsh = scipy.sparse.linalg.eigsh
    seen = []

    def watched(A, *args, **kwargs):
        seen.append((A.dtype, kwargs["v0"].dtype))
        return real_eigsh(A, *args, **kwargs)

    monkeypatch.setattr(scipy.sparse.linalg, "eigsh", watched)
    r = spectral_norm(_banded_sample(), tol=tol)
    assert seen == [(dtype, dtype)] and r.method == "lanczos"
    assert type(r.value) is float and type(r.rel_error_bound) is float


def _times(X, factor):
    """X scaled by ``factor``, in X's own storage."""
    if isinstance(X, specnorm.BandedMatrix):
        return specnorm.BandedMatrix(X.data * factor, X.offsets)
    return X * factor


def _scaled_cases():
    rng = np.random.default_rng(22)
    return {
        "band_cyclic": lambda: _band_sample(),
        "banded": lambda: _banded_sample(),
        "rectangular": lambda: sp.random_array((300, 180), density=0.05, rng=rng, format="csr"),
    }


@pytest.mark.parametrize("factor", [1e40, 1e-46])
@pytest.mark.parametrize("case", sorted(_scaled_cases()))
def test_float32_iteration_holds_any_magnitude(case, factor):
    # 1e40 overflows float32 and 1e-46 flushes to zero in it; the iteration
    # must see the same operator as for the unscaled input
    X = _scaled_cases()[case]()
    base = spectral_norm(X, tol=1e-4)
    r = spectral_norm(_times(X, factor), tol=1e-4)
    assert r.iterations == base.iterations
    assert r.value == pytest.approx(base.value * factor, rel=1e-12)
    assert r.rel_error_bound <= 1e-4


def test_nonconvergence_best_is_on_the_input_scale(monkeypatch):
    real_eigsh = scipy.sparse.linalg.eigsh

    def stalls(*args, **kwargs):
        w, v = real_eigsh(*args, **kwargs)
        raise ArpackNoConvergence("no convergence", w, v)

    for X in (_band_sample(), _banded_sample()):
        base = spectral_norm(X, tol=1e-4).value
        with monkeypatch.context() as m:
            m.setattr(scipy.sparse.linalg, "eigsh", stalls)
            with pytest.raises(NonConvergenceError) as info:
                spectral_norm(_times(X, 1e40), tol=1e-4)
        assert info.value.best.value == pytest.approx(base * 1e40, rel=1e-4)


def _weyl_cases():
    def sym_sample(C, seed):
        return sampling.sample_matrix(C, sampling.GAUSSIAN, sampling.SeedSpec(seed, 0))

    def banded_sample(C, seed):
        return sampling.trial_sample(C, sampling.GAUSSIAN, sampling.SeedSpec(seed, 0))

    rng = np.random.default_rng(21)
    rect = sp.random_array((300, 180), density=0.05, rng=rng, format="csr")
    return {
        "band_cyclic": lambda: sym_sample(coeffs.band_cyclic(2000, 5), 1),
        "banded_cyclic": lambda: banded_sample(coeffs.band_cyclic(2000, 5), 1),
        "banded_band": lambda: banded_sample(coeffs.band(1500, 4), 5),
        "block_diagonal": lambda: sym_sample(coeffs.block_diagonal(1200, 30), 2),
        "regular_random": lambda: sym_sample(experiments.regular_random_pattern(1000, 9, 3), 3),
        "dense": lambda: _rand_sym(400, 4),
        "rectangular": lambda: rect,
    }


@pytest.mark.parametrize("tol", [1e-4, 1e-6])
@pytest.mark.parametrize("case", sorted(_weyl_cases()))
def test_rel_error_bound_is_a_guarantee(monkeypatch, case, tol):
    # Weyl: some eigenvalue lies within ||Xv - lam v|| of lam, so the
    # reported bound must cover the distance to the exact norm at both
    # iteration precisions
    X = _weyl_cases()[case]()
    monkeypatch.setattr(specnorm, "DENSE_THRESHOLD", 0)  # the dense case goes to ARPACK too
    r = spectral_norm(X, tol=tol)
    assert r.method == "lanczos" and r.iterations > 0
    if isinstance(X, specnorm.BandedMatrix):
        X = banded_csr(X)
    A = X.toarray() if hasattr(X, "toarray") else X
    if case == "rectangular":
        ref = np.linalg.svd(A, compute_uv=False)[0]
    else:
        ref = np.abs(np.linalg.eigvalsh(A)).max()
    assert abs(r.value - ref) <= r.rel_error_bound * r.value


def test_dense_lanczos_solve_allocates_no_square_copy(monkeypatch):
    A = _rand_sym(1500, 5)
    monkeypatch.setattr(specnorm, "DENSE_THRESHOLD", 1499)
    tracemalloc.start()
    try:
        r = spectral_norm(A, tol=1e-4, symmetric=True)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert r.method == "lanczos"
    assert peak < A.nbytes / 4


@pytest.fixture
def blas_two_threads():
    """Bundled OpenBLAS handles, set to two threads; prior counts restored after."""
    handles = specnorm._openblas_handles()
    if not handles:
        pytest.skip("no bundled OpenBLAS library found")
    prior = [get() for get, _ in handles]
    for _, set_ in handles:
        set_(2)
    yield handles
    for (_, set_), count in zip(handles, prior):
        set_(count)


def _counts(handles):
    return [get() for get, _ in handles]


def _band_sample(n=400):
    return sampling.sample_matrix(coeffs.band_cyclic(n, 2), sampling.GAUSSIAN, sampling.SeedSpec(1, 0))


def _banded_sample(n=400):
    """_band_sample in its banded layout."""
    return sampling.trial_sample(coeffs.band_cyclic(n, 2), sampling.GAUSSIAN, sampling.SeedSpec(1, 0))


def test_banded_matrix_is_its_csr_sample():
    X, B = _band_sample(), _banded_sample()
    Y = banded_csr(B)
    assert Y.has_canonical_format and B.shape == X.shape
    for name in ("data", "indices", "indptr"):
        assert np.array_equal(getattr(Y, name), getattr(X, name)), name
    z = np.random.default_rng(3).standard_normal(400)
    assert np.allclose(B @ z, X @ z, rtol=0, atol=1e-12)


@pytest.mark.parametrize("tol", [1e-4, 1e-6])
def test_banded_norm_agrees_with_the_csr_norm(tol):
    # the same matrix in two storages: same matvec count, and two Weyl
    # intervals of the one exact norm
    a = spectral_norm(_band_sample(), tol=tol, symmetric=True)
    b = spectral_norm(_banded_sample(), tol=tol)
    assert b.method == "lanczos" and b.iterations == a.iterations
    assert abs(a.value - b.value) <= (a.rel_error_bound + b.rel_error_bound) * a.value


def test_banded_diagonal_norm_is_exact_without_the_diagonal_scan(monkeypatch):
    # a banded matrix is diagonal exactly when its only offset is 0
    def scanned(M):
        raise AssertionError("a banded matrix was scanned for diagonality")

    monkeypatch.setattr(specnorm, "_is_diagonal", scanned)
    C = coeffs.log_decay_diagonal(300)
    B = sampling.trial_sample(C, sampling.GAUSSIAN, sampling.SeedSpec(2, 0))
    X = sampling.sample_matrix(C, sampling.GAUSSIAN, sampling.SeedSpec(2, 0))
    assert spectral_norm(B) == specnorm.NormResult(float(np.abs(X.data).max()), "dense_eig", 0, 0.0)
    assert spectral_norm(_banded_sample()).method == "lanczos"


def test_arpack_solve_runs_on_one_blas_thread(blas_two_threads, monkeypatch):
    real_eigsh = scipy.sparse.linalg.eigsh
    seen = []

    def watched(*args, **kwargs):
        seen.append(_counts(blas_two_threads))
        return real_eigsh(*args, **kwargs)

    monkeypatch.setattr(scipy.sparse.linalg, "eigsh", watched)
    assert spectral_norm(_band_sample()).method == "lanczos"
    assert seen == [[1] * len(blas_two_threads)]
    assert _counts(blas_two_threads) == [2] * len(blas_two_threads)


def test_blas_pin_restored_after_nonconvergence(blas_two_threads, monkeypatch):
    def no_convergence(*args, **kwargs):
        raise ArpackNoConvergence("no convergence", np.array([]), np.zeros((400, 0)))

    monkeypatch.setattr(scipy.sparse.linalg, "eigsh", no_convergence)
    with pytest.raises(NonConvergenceError):
        spectral_norm(_band_sample())
    assert _counts(blas_two_threads) == [2] * len(blas_two_threads)


def test_blas_pin_nests(blas_two_threads):
    ones = [1] * len(blas_two_threads)
    with specnorm._single_blas_thread:
        with specnorm._single_blas_thread:
            assert _counts(blas_two_threads) == ones
        spectral_norm(_band_sample())
        assert _counts(blas_two_threads) == ones  # inner exits never unpin
    assert _counts(blas_two_threads) == [2] * len(blas_two_threads)


def test_blas_pin_shared_by_threads(blas_two_threads):
    # more threads than cores, switching often: an early restore by one
    # thread would show up as a count of 2 inside another thread's pin
    ones = [1] * len(blas_two_threads)
    bad = []

    def worker():
        for _ in range(200):
            with specnorm._single_blas_thread:
                if _counts(blas_two_threads) != ones:
                    bad.append(_counts(blas_two_threads))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=worker) for _ in range(8)]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(w.is_alive() for w in workers)
    assert bad == []
    assert _counts(blas_two_threads) == [2] * len(blas_two_threads)


def test_blas_pin_restored_after_threaded_phase_scan(blas_two_threads):
    experiments.phase_scan("band", [256], "const:3", sampling.GAUSSIAN, trials=8, seed=2, threads=4)
    assert _counts(blas_two_threads) == [2] * len(blas_two_threads)


@pytest.mark.parametrize("threads", [1, 4])
def test_run_trials_runs_every_trial_on_one_blas_thread(blas_two_threads, threads):
    seen = []

    def one(t):
        seen.append(_counts(blas_two_threads))
        return t

    assert experiments._run_trials(one, 8, threads) == list(range(8))
    assert seen == [[1] * len(blas_two_threads)] * 8
    assert _counts(blas_two_threads) == [2] * len(blas_two_threads)


@pytest.mark.parametrize("threads", [1, 4])
def test_run_trials_restores_blas_threads_when_a_trial_raises(blas_two_threads, threads):
    def one(t):
        if t == 3:
            raise NonConvergenceError("trial 3 failed")
        return t

    with pytest.raises(NonConvergenceError):
        experiments._run_trials(one, 8, threads)
    assert _counts(blas_two_threads) == [2] * len(blas_two_threads)


def test_density_and_rademacher_solves_run_on_one_blas_thread(blas_two_threads, monkeypatch):
    real_eigvalsh = np.linalg.eigvalsh
    seen = []

    def watched(a):
        seen.append(_counts(blas_two_threads))
        return real_eigvalsh(a)

    monkeypatch.setattr(np.linalg, "eigvalsh", watched)
    experiments.spectral_density_check(coeffs.band_cyclic(64, 3), sampling.GAUSSIAN, seed=1)
    bounds.bound_rademacher(coeffs.wigner(64), 0.25)
    assert seen == [[1] * len(blas_two_threads)] * 2
    assert _counts(blas_two_threads) == [2] * len(blas_two_threads)


# run in a fresh interpreter: importing this test module loads scipy's OpenBLAS
_POOL_BEFORE_ARPACK = """
import json, threading
from specbound import coeffs, experiments, sampling, specnorm

C = coeffs.band_cyclic(400, 2)
seen, patched = [], threading.Lock()

def one(t):
    # the first ARPACK import of the process happens inside the pool's pin
    import scipy.sparse.linalg as sla
    with patched:
        if not hasattr(sla.eigsh, "watched"):
            real = sla.eigsh
            def watched(*args, **kwargs):
                seen.append([get() for get, _ in specnorm._openblas_handles()])
                return real(*args, **kwargs)
            watched.watched = True
            sla.eigsh = watched
    X = sampling.sample_matrix(C, sampling.GAUSSIAN, sampling.SeedSpec(1, t))
    return specnorm.spectral_norm(X, symmetric=True).value

before = [get() for get, _ in specnorm._openblas_handles()]
experiments._run_trials(one, 4, 2)
after = [get() for get, _ in specnorm._openblas_handles()]
print(json.dumps({"before": before, "seen": seen, "after": after}))
"""


def test_pool_pin_covers_scipy_blas_loaded_inside_it(fresh_python):
    out = json.loads(fresh_python("-c", _POOL_BEFORE_ARPACK, env={"OPENBLAS_NUM_THREADS": "2"}).stdout)
    if not out["before"] or out["before"][0] < 2:
        pytest.skip("no bundled OpenBLAS library runs two threads here")
    assert len(out["before"]) == len(out["after"]) - 1  # scipy's loads in the pool
    assert out["seen"] == [[1] * len(out["after"])] * 4
    assert out["after"] == [out["before"][0]] * len(out["after"])


_DENSE_ONLY_REPORT = """
import json
import specbound as sb

sb.bounds_vs_empirical_report(sb.wigner(64), sb.GAUSSIAN, 0.25, 4, 1, threads=2)
with open("/proc/self/maps") as fh:
    print(json.dumps(sorted({line.split()[-1].rsplit("/", 1)[-1] for line in fh if "openblas" in line})))
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/maps"), reason="needs /proc/self/maps")
def test_pin_does_not_load_scipy_blas_in_a_dense_only_run(fresh_python):
    mapped = json.loads(fresh_python("-c", _DENSE_ONLY_REPORT).stdout)
    assert any(name.startswith("libscipy_openblas64_") for name in mapped)  # numpy's
    assert not any(name.startswith("libscipy_openblas-") for name in mapped)


_DENSE_RUNS_SKIP_SCIPY_SPARSE = """
import json, sys
import specbound as sb
import specbound.cli as cli

def loaded():
    return "scipy.sparse" in sys.modules

seen = {"import": loaded()}
sb.wigner(512)
seen["wigner"] = loaded()
sb.bounds_vs_empirical_report(sb.wigner(64), sb.GAUSSIAN, 0.25, 4, 1)
seen["report"] = loaded()
cli.main(["bounds", "--pattern", "wigner:64"])
seen["bounds"] = loaded()
cli.main(["report", "--matrix-file", sys.argv[1], "--trials", "4"])
seen["dense file"] = loaded()
for name, *args in json.loads(sys.argv[2]):
    seen[name] = [getattr(sb, name)(*args).is_sparse, loaded()]
seen["scipy"] = "scipy" in sys.modules
sb.band_cyclic(64, 1)
seen["band_cyclic"] = loaded()
print(json.dumps(seen))
"""

# builders' patterns that the 5% fill switch stores dense
_SMALL_DENSE_PATTERNS = [
    ("band", 50, 2), ("diagonal", 2), ("block_diagonal", 64, 8),
    ("band_cyclic", 20, 2), ("log_decay_diagonal", 10), ("single_entry", 4),
]


def test_dense_runs_never_import_scipy_sparse(fresh_python, tmp_path, monkeypatch):
    path = tmp_path / "dense.csv"
    path.write_text("2,1,0\n1,2,1\n0,1,2\n")
    out = fresh_python("-c", _DENSE_RUNS_SKIP_SCIPY_SPARSE, str(path), json.dumps(_SMALL_DENSE_PATTERNS)).stdout
    seen = json.loads(out.splitlines()[-1])
    assert seen == {"import": False, "wigner": False, "report": False, "bounds": False,
                    "dense file": False, **{name: [False, False] for name, *_ in _SMALL_DENSE_PATTERNS},
                    "scipy": False, "band_cyclic": True}
    # the numpy builds equal the CSR-built arrays bit for bit
    for name, *args in _SMALL_DENSE_PATTERNS:
        dense = getattr(coeffs, name).__wrapped__(*args)
        with monkeypatch.context() as m:
            m.setattr(coeffs, "SPARSE_FILL_THRESHOLD", math.inf)  # every build sparse
            csr = getattr(coeffs, name).__wrapped__(*args)
        assert not dense.is_sparse and csr.is_sparse, name
        assert np.array_equal(dense.data.view(np.int64), csr.toarray().view(np.int64)), name


_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
_UNSET = dict.fromkeys(_THREAD_VARS)  # None: removed from the child's environment

_STARTUP = """
import json, os, sys
if sys.argv[1] == "numpy first":
    import numpy
import specbound, scipy.sparse.linalg
from specbound import specnorm
print(json.dumps({
    "tasks": len(os.listdir("/proc/self/task")) if os.path.isdir("/proc/self/task") else None,
    "blas": [get() for get, _ in specnorm._openblas_handles()],
    "env": {name: os.environ.get(name) for name in sys.argv[2:]},
}))
"""


def _startup(fresh_python, order, env):
    return json.loads(fresh_python("-c", _STARTUP, order, *_THREAD_VARS, env=env).stdout)


def _cores():
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()


@pytest.mark.skipif(not os.path.isdir("/proc/self/task") or _cores() < 2,
                    reason="needs /proc/self/task and two cores, where OpenBLAS would start a worker")
def test_importing_specbound_first_starts_no_blas_worker(fresh_python):
    out = _startup(fresh_python, "specbound first", _UNSET)
    assert out["tasks"] == 1
    assert out["blas"] == [1] * len(out["blas"])
    assert out["env"] == {**_UNSET, "OPENBLAS_NUM_THREADS": "1"}


@pytest.mark.parametrize("name", ["OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"])
def test_a_set_blas_thread_count_is_left_alone(fresh_python, name):
    out = _startup(fresh_python, "specbound first", {**_UNSET, name: "2"})
    assert out["env"] == {**_UNSET, name: "2"}
    assert out["blas"] == [min(2, _cores())] * len(out["blas"])


def test_importing_numpy_first_leaves_the_environment_alone(fresh_python):
    out = _startup(fresh_python, "numpy first", _UNSET)
    assert out["env"] == _UNSET


def test_issparse_is_false_while_scipy_sparse_is_half_imported(monkeypatch):
    assert specnorm._issparse(sp.eye_array(2)) is True
    monkeypatch.setitem(sys.modules, "scipy.sparse", types.ModuleType("scipy.sparse"))
    assert specnorm._issparse(np.zeros((2, 2))) is False
