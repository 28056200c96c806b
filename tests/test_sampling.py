import math
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from conftest import banded_csr, owned_nbytes
from specbound import bounds, coeffs, experiments, sampling, specnorm
from specbound.errors import ParameterError
from specbound.sampling import (
    GAUSSIAN,
    RADEMACHER,
    BOUNDED_UNIFORM,
    EntryDistribution,
    SeedSpec,
    distribution_from_code,
    distribution_moment,
    sample_matrix,
)

HEAVY2 = EntryDistribution("heavy_tailed", beta=2.0)

ALL_UNIT_VARIANCE = [GAUSSIAN, RADEMACHER, BOUNDED_UNIFORM, HEAVY2]


def test_identical_seed_gives_bit_identical_matrices():
    C = coeffs.band(200, 2)
    a = sample_matrix(C, GAUSSIAN, SeedSpec(99, 5))
    b = sample_matrix(C, GAUSSIAN, SeedSpec(99, 5))
    assert (a != b).nnz == 0
    d = coeffs.wigner(20)
    x = sample_matrix(d, GAUSSIAN, SeedSpec(99, 5))
    y = sample_matrix(d, GAUSSIAN, SeedSpec(99, 5))
    assert np.array_equal(x, y)
    z = sample_matrix(d, GAUSSIAN, SeedSpec(99, 6))
    assert not np.array_equal(x, z)


def _reference_entries(C):
    """(i, j, b_ij) in the contract order, built independently of the
    sampling plan and of the storage: the nonzeros of the upper triangle of
    a symmetric pattern, or of a rectangular one, row-major."""
    a = np.triu(C.toarray()) if C.kind == "symmetric" else C.toarray()
    i, j = np.nonzero(a)
    return i, j, a[i, j]


def _reference_sample(C, dist, seed):
    """A sample built directly from the contract order: one variate per
    reference entry, mirrored for a symmetric pattern, COO -> CSR, and
    densified (+0.0 off the nonzeros) for a dense pattern."""
    i, j, b = _reference_entries(C)
    vals = b * sampling.draw_entries(dist, seed.generator(), b.shape[0])
    if C.kind == "symmetric":
        off = i != j
        i, j, vals = np.concatenate([i, j[off]]), np.concatenate([j, i[off]]), np.concatenate([vals, vals[off]])
    ij = (i.astype(np.int32), j.astype(np.int32))  # the index width of small patterns
    X = sp.coo_array((vals, ij), shape=(C.rows, C.cols)).tocsr()
    return X if C.is_sparse else X.toarray()


def _arrays(X):
    """The arrays a sample is made of: data, indices, indptr if it is CSR."""
    if sp.issparse(X):
        return {"data": X.data, "indices": X.indices, "indptr": X.indptr}
    return {"data": X}


def _reference_max_entry_maxima(C, trials, seed):
    b = np.abs(_reference_entries(C)[2])
    if b.size == 0:
        return []
    return [
        float((b * np.abs(SeedSpec(seed, t).generator(sampling.STREAM_MAX_ENTRY).standard_normal(b.size))).max())
        for t in range(trials)
    ]


def _sparse_file_pattern(tmp_path):
    path = tmp_path / "pattern.csv"
    path.write_text("0,0,2.5\n0,7,-1.0\n3,3,0.0\n3,39,0.5\n12,20,1.0\n39,39,1.0\n")
    return coeffs.load_sparse_csv(str(path))


def _one_sided_zero_pattern(i, j):
    """6 x 6 symmetric pattern plus an explicit zero at (i, j) whose mirror is not stored."""
    rows, cols, vals = [0, 1, 2, 0, 3, 5, i], [0, 1, 0, 2, 3, 5, j], [1.0, 1.0, 2.0, 2.0, 3.0, 1.0, 0.0]
    M = sp.coo_array((vals, (rows, cols)), shape=(6, 6)).tocsr()
    assert M.nnz == 7
    # a pattern stores exactly its nonzeros: the zero is dropped on either side
    C = coeffs.CoefficientMatrix(M, "symmetric")
    assert C.data.nnz == 6 and M.nnz == 7
    return C


SPARSE_BUILDS = {
    "band": lambda tmp: coeffs.band(300, 2),
    "band_cyclic": lambda tmp: coeffs.band_cyclic(300, 3),
    "block_diagonal": lambda tmp: coeffs.block_diagonal(200, 4),
    "diagonal": lambda tmp: coeffs.diagonal(50),
    "single_entry": lambda tmp: coeffs.single_entry(30),
    "sparse_csv": _sparse_file_pattern,
    "zero_above_diagonal": lambda tmp: _one_sided_zero_pattern(0, 4),
    "zero_below_diagonal": lambda tmp: _one_sided_zero_pattern(4, 1),
}


def _rect_sparse_pattern():
    """400 x 300 rectangular pattern at 1% fill, signed values, explicit zeros."""
    A = sp.random(400, 300, density=0.01, random_state=3, format="csr")
    A.data -= 0.5
    A.data[::7] = 0.0
    return coeffs.CoefficientMatrix(A, "rectangular")


# dense symmetric, dense rectangular and sparse rectangular patterns
OTHER_BUILDS = {
    "wigner": lambda tmp: coeffs.wigner(20),
    "band_dense": lambda tmp: coeffs.band(64, 3),
    "rect_dense": lambda tmp: coeffs.CoefficientMatrix(np.arange(21.0).reshape(3, 7) - 10.0, "rectangular"),
    "rect_dense_no_zero": lambda tmp: coeffs.CoefficientMatrix(np.arange(21.0).reshape(3, 7) - 10.5, "rectangular"),
    "rect_sparse": lambda tmp: _rect_sparse_pattern(),
}
ALL_BUILDS = {**SPARSE_BUILDS, **OTHER_BUILDS}


@pytest.mark.parametrize("build", ALL_BUILDS.values(), ids=ALL_BUILDS.keys())
def test_sparse_symmetric_sample_matches_reference(build, tmp_path):
    # every kind and storage: bit-identical to the reference, signs of zeros too
    C = build(tmp_path)
    for seed in (SeedSpec(3, 0), SeedSpec(41, 7)):
        for dist in (GAUSSIAN, RADEMACHER, HEAVY2):
            X = sample_matrix(C, dist, seed)
            ref = _reference_sample(C, dist, seed)
            assert type(X) is type(ref) and X.shape == ref.shape
            got, want = _arrays(X), _arrays(ref)
            for name in want:
                assert got[name].dtype == want[name].dtype, name
                assert np.array_equal(got[name], want[name]), name
                assert np.array_equal(np.signbit(got[name]), np.signbit(want[name])), name


@pytest.mark.parametrize("build", ALL_BUILDS.values(), ids=ALL_BUILDS.keys())
def test_max_entry_maxima_match_reference(build, tmp_path):
    C = build(tmp_path)
    for seed in (11, 12):
        assert bounds._max_entry_maxima(C, 4, seed) == _reference_max_entry_maxima(C, 4, seed)


def _cyclic_band_with_stored_zeros():
    """Cyclic 3-band on 12 vertices plus a symmetric pair of stored zeros at (0, 5), (5, 0)."""
    n = 12
    idx = np.arange(n)
    rows = np.concatenate([idx, idx, (idx + 1) % n, [0, 5]])
    cols = np.concatenate([idx, (idx + 1) % n, idx, [5, 0]])
    vals = np.concatenate([np.ones(3 * n), [0.0, 0.0]])
    return sp.coo_array((vals, (rows, cols)), shape=(n, n)).tocsr()


def _rect_dense_entries():
    """3 x 7 signed values with one zero."""
    return np.arange(21.0).reshape(3, 7) - 10.0


# (matrix, kind): every builder pattern in either storage, and patterns built
# from input with stored zeros (the file, the cyclic band, rect_sparse)
COPY_CASES = {
    "wigner": lambda tmp: (coeffs.wigner(20).data, "symmetric"),
    "diagonal": lambda tmp: (coeffs.diagonal(50).data, "symmetric"),
    "band": lambda tmp: (coeffs.band(300, 2).data, "symmetric"),
    "band_dense": lambda tmp: (coeffs.band(64, 3).data, "symmetric"),
    "band_cyclic": lambda tmp: (coeffs.band_cyclic(300, 3).data, "symmetric"),
    "block_diagonal": lambda tmp: (coeffs.block_diagonal(200, 4).data, "symmetric"),
    "block_diagonal_dense": lambda tmp: (coeffs.block_diagonal(16, 4).data, "symmetric"),
    "single_entry": lambda tmp: (coeffs.single_entry(30).data, "symmetric"),
    "log_decay_diagonal": lambda tmp: (coeffs.log_decay_diagonal(40).data, "symmetric"),
    "regular_random": lambda tmp: (experiments.regular_random_pattern(200, 5, 3).data, "symmetric"),
    "band_cyclic_stored_zeros": lambda tmp: (_cyclic_band_with_stored_zeros(), "symmetric"),
    "sparse_csv": lambda tmp: (_sparse_file_pattern(tmp).data, "symmetric"),
    "rect_sparse": lambda tmp: (_rect_sparse_pattern().data, "rectangular"),
    "rect_dense": lambda tmp: (_rect_dense_entries(), "rectangular"),
}


@pytest.mark.parametrize("case", COPY_CASES.values(), ids=COPY_CASES.keys())
def test_dense_and_sparse_copies_draw_identical_samples(case, tmp_path):
    # the storage never decides which coefficients carry randomness: one
    # variate per nonzero, stored zeros and dense zeros alike carry none
    M, kind = case(tmp_path)
    a = M.toarray() if sp.issparse(M) else np.asarray(M)
    dense = coeffs.CoefficientMatrix(a, kind)
    sparse = coeffs.CoefficientMatrix(M if sp.issparse(M) else sp.csr_array(M), kind)
    assert not dense.is_sparse and sparse.is_sparse
    for seed in (SeedSpec(3, 0), SeedSpec(41, 7)):
        for dist in (GAUSSIAN, RADEMACHER, HEAVY2):
            X = sample_matrix(dense, dist, seed)
            Y = sample_matrix(sparse, dist, seed).toarray()
            # bitwise, so that the signs of zeros agree too
            assert np.array_equal(X.view(np.int64), Y.view(np.int64))
    for seed in (11, 12):
        assert bounds._max_entry_maxima(dense, 4, seed) == bounds._max_entry_maxima(sparse, 4, seed)
    degrees = np.count_nonzero(a, axis=1)
    for C in (dense, sparse):
        assert np.array_equal(experiments._row_degrees(C), degrees)
    if kind == "symmetric" and degrees.min() == degrees.max():
        ks = [experiments.spectral_density_check(C, GAUSSIAN, seed=3) for C in (dense, sparse)]
        assert 0.0 < ks[0] == ks[1] < 1.0


@pytest.mark.parametrize("build", OTHER_BUILDS.values(), ids=OTHER_BUILDS.keys())
def test_custom_sampler_sees_the_contract_size(build, tmp_path):
    # one variate per nonzero (over i <= j if symmetric), whatever the storage
    C = build(tmp_path)
    sizes = []

    def sampler(rng, size):
        sizes.append(size)
        return rng.standard_normal(size)

    sample_matrix(C, EntryDistribution("custom", sampler=sampler), SeedSpec(1, 0))
    want = _reference_entries(C)[2].shape[0]
    assert sizes == [want] and type(sizes[0]) is int


@pytest.mark.parametrize("build", ALL_BUILDS.values(), ids=ALL_BUILDS.keys())
def test_sampling_plan_compiled_once(build, tmp_path, monkeypatch):
    C = build(tmp_path)
    first = sample_matrix(C, GAUSSIAN, SeedSpec(8, 0))
    plan = C._sampling_plan

    def compile_again(*args, **kwargs):
        raise AssertionError("the sampling plan was compiled again")

    monkeypatch.setattr(sampling, "_symmetric_sparse_plan", compile_again)
    monkeypatch.setattr(sampling, "_dense_mask", compile_again)
    again = sample_matrix(C, GAUSSIAN, SeedSpec(8, 0))
    assert C._sampling_plan is plan
    for name, arr in _arrays(again).items():
        assert np.array_equal(arr, _arrays(first)[name])


SHARED_BUILDS = {**SPARSE_BUILDS, "rect_sparse": OTHER_BUILDS["rect_sparse"]}


@pytest.mark.parametrize("build", SHARED_BUILDS.values(), ids=SHARED_BUILDS.keys())
def test_sparse_samples_share_the_patterns_read_only_structure(build, tmp_path):
    C = build(tmp_path)
    before = {name: arr.copy() for name, arr in _arrays(C.data).items()}
    X = sample_matrix(C, GAUSSIAN, SeedSpec(6, 0))
    for name in ("indices", "indptr"):
        arr = getattr(X, name)
        assert np.shares_memory(arr, getattr(C.data, name)) and not arr.flags.writeable, name
    assert not np.shares_memory(X.data, C.data.data) and X.data.flags.writeable
    # an in-place structural edit of a sample cannot reach the pattern
    X.data[::2] = 0.0
    with pytest.raises(ValueError):
        X.eliminate_zeros()
    for name, arr in _arrays(C.data).items():
        assert np.array_equal(arr, before[name]), name


@pytest.mark.parametrize(
    "build",
    [*SPARSE_BUILDS.values(), lambda tmp: coeffs.log_decay_diagonal(40), OTHER_BUILDS["rect_sparse"]],
    ids=[*SPARSE_BUILDS.keys(), "log_decay_diagonal", "rect_sparse"],
)
def test_sparse_patterns_and_samples_have_int32_indices(build, tmp_path):
    C = build(tmp_path)
    assert C.is_sparse
    X = sample_matrix(C, GAUSSIAN, SeedSpec(5, 0))
    for M in (C.data, X):
        assert M.indices.dtype == np.int32 and M.indptr.dtype == np.int32


def _random_csr(n, m, seed, index_dtype, symmetric=False):
    """Canonical CSR at about 5% fill whose odd rows and columns are empty."""
    rng = np.random.default_rng(seed)
    k = max(1, n * m // 20)
    r, c = 2 * rng.integers(0, (n + 1) // 2, k), 2 * rng.integers(0, (m + 1) // 2, k)
    A = sp.coo_array((rng.standard_normal(k), (r, c)), shape=(n, m)).tocsr()
    if symmetric:
        A = (A + A.T).tocsr()
    return sp.csr_array(
        (A.data, A.indices.astype(index_dtype), A.indptr.astype(index_dtype)), shape=A.shape
    )


@pytest.mark.parametrize("index_dtype", [np.int32, np.int64])
@pytest.mark.parametrize("shape", [(1, 1), (1, 5), (7, 1), (40, 40), (300, 120)])
def test_transpose_order_is_the_stable_argsort(shape, index_dtype):
    for seed in range(3):
        A = _random_csr(*shape, seed, index_dtype)
        assert A.has_canonical_format and A.indices.dtype == index_dtype
        T = sampling._transpose(A)
        ref = A.T.tocsr()
        assert np.array_equal(T.data, np.argsort(A.indices, kind="stable"))
        assert np.array_equal(T.indptr, ref.indptr) and np.array_equal(T.indices, ref.indices)
    empty = sp.csr_array(shape, dtype=float)
    assert sampling._transpose(empty).data.shape == (0,)


def _reference_symmetric_sparse_plan(A):
    """The plan by a stable argsort of the columns and two gathers."""
    rows = np.repeat(np.arange(A.shape[0], dtype=A.indices.dtype), np.diff(A.indptr))
    upper = A.indices >= rows
    b = A.data[upper]
    indptr, indices = A.indptr, A.indices
    perm = np.argsort(indices, kind="stable")
    if not (np.array_equal(indices[perm], rows) and np.array_equal(rows[perm], indices)):
        i, j = rows[upper], indices[upper]
        off = i != j
        r, c = np.concatenate([i, j[off]]), np.concatenate([j, i[off]])
        S = sp.coo_array((np.ones(r.shape[0]), (r, c)), shape=A.shape).tocsr()
        indptr, indices = S.indptr, S.indices
        rows = np.repeat(np.arange(indptr.shape[0] - 1, dtype=indices.dtype), np.diff(indptr))
        perm = np.argsort(indices, kind="stable")
        upper = indices >= rows
    rank = np.cumsum(upper) - 1
    return b, np.where(upper, rank, rank[perm]), (indptr, indices)


PLAN_BUILDS = {
    **SPARSE_BUILDS,
    "regular_random": lambda tmp: experiments.regular_random_pattern(200, 5, 3),
    "random_symmetric": lambda tmp: coeffs.CoefficientMatrix(_random_csr(150, 150, 4, np.int32, True), "symmetric"),
    "one_by_one": lambda tmp: coeffs.CoefficientMatrix(sp.csr_array(np.ones((1, 1))), "symmetric"),
}


@pytest.mark.parametrize("build", PLAN_BUILDS.values(), ids=PLAN_BUILDS.keys())
def test_symmetric_sparse_plan_matches_reference(build, tmp_path):
    C = build(tmp_path)
    assert C.is_sparse and C.kind == "symmetric"
    size, b, gather, holes, _ = sampling._plan(C)
    want_b, want_gather, want_structure = _reference_symmetric_sparse_plan(C.data)
    assert size == want_b.shape[0] and holes.shape == (0,)
    # the plan keeps the coefficients unless all are 1
    assert np.all(want_b == 1.0) if b is None else np.array_equal(b, want_b)
    assert gather.dtype == want_gather.dtype and np.array_equal(gather, want_gather)
    # a sample is the reference's (b * xi)[gather] over the reference structure, bit for bit
    for seed in (SeedSpec(3, 0), SeedSpec(41, 7)):
        X = sample_matrix(C, GAUSSIAN, seed)
        for got, want in zip((X.indptr, X.indices), want_structure):
            assert got.dtype == want.dtype and np.array_equal(got, want)
        want = (want_b * sampling.draw_entries(GAUSSIAN, seed.generator(), size))[want_gather]
        assert np.array_equal(X.data.view(np.int64), want.view(np.int64))


def _half_offset_pattern():
    """Symmetric 10 x 10 CSR on the single cyclic offset n/2 = 5, weighted,
    with one mirrored pair left out."""
    n = 10
    i = np.arange(n)
    j = (i + n // 2) % n
    keep = (i != 1) & (j != 1)
    vals = 1.0 + 0.25 * np.minimum(i, j)[keep]
    return coeffs.CoefficientMatrix(sp.coo_array((vals, (i[keep], j[keep])), shape=(n, n)).tocsr(), "symmetric")


def _weighted_cyclic_band_with_holes():
    """band_cyclic(120, 4) with signed weights and two mirrored pairs left out."""
    A = coeffs.band_cyclic(120, 4).toarray() * (np.add.outer(np.arange(120.0), np.arange(120.0)) % 7 - 2.5)
    for i, j in ((0, 118), (50, 53)):
        A[i, j] = A[j, i] = 0.0
    return coeffs.CoefficientMatrix(sp.csr_array(A), "symmetric")


# every builder the banded rule admits, and custom CSR patterns on the
# edges of the layout: offset n/2, holes, weights
BANDED_BUILDS = {
    "band": lambda: coeffs.band(300, 2),
    "band_cyclic": lambda: coeffs.band_cyclic(300, 3),
    "band_cyclic_k1": lambda: coeffs.band_cyclic(300, 1),
    "diagonal": lambda: coeffs.diagonal(50),
    "log_decay_diagonal": lambda: coeffs.log_decay_diagonal(40),
    "half_offset": _half_offset_pattern,
    "weighted_holes": _weighted_cyclic_band_with_holes,
}


def _sizes_seen():
    """A custom Gaussian law that records the size it is asked for."""
    sizes = []

    def sampler(rng, size):
        sizes.append(size)
        return rng.standard_normal(size)

    return EntryDistribution("custom", sampler=sampler), sizes


def _banded_reference(X, offsets):
    """The banded layout of the CSR sample X, slot by slot."""
    n, lo = X.shape[0], int(offsets[0])
    A = X.toarray()
    data = np.zeros((offsets.shape[0], n + int(offsets[-1]) - lo))
    i = np.arange(n)
    for k, s in enumerate(offsets.tolist()):
        data[k, i + s - lo] = A[i, (i + s) % n]
    return data


@pytest.mark.parametrize("build", BANDED_BUILDS.values(), ids=BANDED_BUILDS.keys())
def test_banded_sample_equals_the_csr_sample(build):
    C = build()
    assert C.is_sparse
    custom, sizes = _sizes_seen()
    for seed in (SeedSpec(3, 0), SeedSpec(41, 7)):
        for dist in (GAUSSIAN, RADEMACHER, HEAVY2, custom):
            X = sample_matrix(C, dist, seed)
            B = sampling.trial_sample(C, dist, seed)
            assert isinstance(B, specnorm.BandedMatrix)
            # bitwise, slot by slot, and as a CSR; only the diagonals s >= 0
            # are stored, each one's window of the full layout
            want = _banded_reference(X, B.offsets)
            assert np.array_equal(B.full().view(np.int64), want.view(np.int64))
            n, lo = B.shape[0], int(B.offsets[0])
            stored = [want[k, s - lo : s - lo + n] for k, s in enumerate(B.offsets.tolist()) if s >= 0]
            assert np.array_equal(B.data.view(np.int64), np.array(stored).view(np.int64))
            Y = banded_csr(B)
            for name in ("data", "indices", "indptr"):
                assert np.array_equal(getattr(Y, name), getattr(X, name)), name
    # the custom law sees the same size on both paths
    assert len(sizes) == 4 and sizes[0] == sizes[1] and sizes[2] == sizes[3]


# a banded row sums its entries in offset order and a CSR row in column
# order; the orders agree where no offset wraps around
EXACT_ROW_NORMS = ("band", "diagonal", "log_decay_diagonal")


@pytest.mark.parametrize("name", BANDED_BUILDS)
def test_banded_max_row_norm_matches_the_csr_sample(name):
    C = BANDED_BUILDS[name]()
    for t in range(8):
        seed = SeedSpec(9, t)
        got = specnorm.max_row_norm(sampling.trial_sample(C, GAUSSIAN, seed))
        want = specnorm.max_row_norm(sample_matrix(C, GAUSSIAN, seed))
        if name in EXACT_ROW_NORMS:
            assert got == want
        else:
            assert got == pytest.approx(want, rel=1e-15, abs=0)


@pytest.mark.parametrize("name", BANDED_BUILDS)
def test_banded_sums_equal_scipy_dia_on_the_full_layout(name):
    # B @ x and the row sums read each diagonal -s from the stored row of s,
    # and still add each row's terms in the order of scipy's DIA matvec on
    # the full layout: bit for bit, on truncated bands (holes inside the
    # windows) and at offset n/2 too
    C = BANDED_BUILDS[name]()
    rng = np.random.default_rng(5)
    for t in range(3):
        B = sampling.trial_sample(C, GAUSSIAN, SeedSpec(6, t))
        ext = sp.dia_array((B.full(), B.offsets - B.offsets[0]), shape=(B.shape[0], B.wrap.shape[0]))
        x = rng.standard_normal(B.shape[0])
        assert np.array_equal((B @ x).view(np.int64), (ext @ x[B.wrap]).view(np.int64))
        assert specnorm.max_row_norm(B) == math.sqrt(ext.power(2).sum(axis=1).max())
        # the float32 layout casts the scaled float64 layout
        single = B.full(np.float32, 2.0**-70)
        assert np.array_equal(single, (B.full() * 2.0**-70).astype(np.float32))


def test_banded_max_row_norm_makes_no_csr_copy(monkeypatch):
    B = sampling.trial_sample(coeffs.band_cyclic(300, 3), GAUSSIAN, SeedSpec(9, 0))
    want = math.sqrt((banded_csr(B).toarray() ** 2).sum(axis=1).max())

    def refuse(self):
        raise AssertionError("tocsr called")

    monkeypatch.setattr(sp.dia_array, "tocsr", refuse)
    assert specnorm.max_row_norm(B) == pytest.approx(want, rel=1e-15, abs=0)


def test_half_offset_layout():
    C = _half_offset_pattern()
    size, b, gather, holes, _ = sampling._banded_plan(C)
    offsets = sampling.trial_sample(C, GAUSSIAN, SeedSpec(1, 0)).offsets
    assert offsets.tolist() == [5] and gather.shape == (1, 10)
    # rows 0, 2, 3, 4 hold the upper entries; rows 5 .. 9 mirror rows 0 .. 4
    assert size == 4 and gather[0].tolist() == [0, 0, 1, 2, 3, 0, 0, 1, 2, 3]
    assert holes.tolist() == [1, 6] and b.tolist() == [1.0, 1.5, 1.75, 2.0]


def _anti_diagonal_2x2():
    # one offset on two slots: it would fit a banded layout, but n = 2
    return coeffs.CoefficientMatrix(sp.csr_array(np.array([[0.0, 2.0], [2.0, 0.0]])), "symmetric")


@pytest.mark.parametrize(
    "build",
    [
        lambda: coeffs.block_diagonal(200, 4),
        lambda: experiments.regular_random_pattern(200, 5, 3),
        lambda: coeffs.single_entry(30),
        lambda: coeffs.band(64, 3),
        _rect_sparse_pattern,
        _anti_diagonal_2x2,
    ],
    ids=["block_diagonal", "regular_random", "single_entry", "band_dense", "rect_sparse", "sparse_n2"],
)
def test_other_patterns_keep_csr(build):
    # a trial of a pattern without a banded layout is its sample_matrix
    # sample, bit for bit
    C = build()
    for seed in (SeedSpec(3, 0), SeedSpec(41, 7)):
        for dist in (GAUSSIAN, RADEMACHER, HEAVY2):
            X = sampling.trial_sample(C, dist, seed)
            Y = sample_matrix(C, dist, seed)
            assert type(X) is type(Y) and X.shape == Y.shape
            got, want = _arrays(X), _arrays(Y)
            for name in want:
                assert got[name].dtype == want[name].dtype, name
                assert np.array_equal(got[name].view(np.uint8), want[name].view(np.uint8)), name
    assert C._banded_sampling_plan is None


def test_a_two_by_two_sparse_trial_is_solved_by_lapack():
    # an operator of dim <= 2 is too small for ARPACK, so the solver needs
    # the matrix as an array: the trial must be a CSR sample, not banded
    X = sampling.trial_sample(_anti_diagonal_2x2(), RADEMACHER, SeedSpec(1, 0))
    assert sp.issparse(X)
    r = specnorm.spectral_norm(X)
    assert r.method == "dense_eig" and r.value == 2.0


def test_banded_plan_compiled_once(monkeypatch):
    C = coeffs.band_cyclic(300, 3)
    first = sampling.trial_sample(C, GAUSSIAN, SeedSpec(8, 0))
    plan = C._banded_sampling_plan

    def compile_again(*args, **kwargs):
        raise AssertionError("the banded plan was compiled again")

    monkeypatch.setattr(sampling, "_banded_plan", compile_again)
    again = sampling.trial_sample(C, GAUSSIAN, SeedSpec(8, 0))
    assert C._banded_sampling_plan is plan
    assert np.array_equal(again.data, first.data)


def test_dense_rectangular_pattern_without_zeros_has_no_gather():
    C = OTHER_BUILDS["rect_dense_no_zero"](None)
    size, b, gather, holes, _ = sampling._plan(C)
    assert size == 21 and gather is None and holes.shape == (0,)
    assert np.array_equal(b, C.data.reshape(-1))
    # no dense plan holds an index map, with zeros or without
    for name in ("wigner", "band_dense", "rect_dense"):
        _, _, gather, holes, _ = sampling._plan(OTHER_BUILDS[name](None))
        assert gather is None and holes.shape == (0,), name


def _gather_sample(C, dist, seed):
    """A dense sample by the gather construction of the earlier dense plans,
    the reference for the mask placement: an n x m intp map holds each
    nonzero's rank in the contract order (mirrored if symmetric) and 0
    elsewhere, and the flat slots of zero coefficients are set to +0.0."""
    A = C.data
    mask = np.triu(A != 0) if C.kind == "symmetric" else A != 0
    b = A[mask]
    vals = sampling.draw_entries(dist, seed.generator(), b.shape[0])
    if b.shape[0] == 0:
        return np.zeros(A.shape)
    vals *= b
    ranks = np.arange(b.shape[0])
    gather = np.zeros(A.shape, dtype=np.intp)
    gather[mask] = ranks
    if C.kind == "symmetric":
        gather.T[mask] = ranks
    X = vals[gather]
    X.reshape(-1)[np.flatnonzero(A == 0)] = 0.0
    return X


def _signed_zero_weights():
    """Weighted symmetric 30 x 30 with -0.0 and +0.0 coefficients on both sides."""
    a = np.round(np.sin(np.arange(900.0)).reshape(30, 30), 1)
    a = a + a.T
    a[a == 0] = -0.0
    a[::4, ::3] = 0.0
    a[::3, ::4] = 0.0
    signs = np.signbit(a[a == 0])
    assert signs.any() and not signs.all()
    return a


DENSE_PLAN_CASES = {
    "symmetric": lambda: coeffs.wigner(40),
    "symmetric_band": lambda: coeffs.band(64, 3),
    "rectangular_zeros": lambda: coeffs.CoefficientMatrix(_rect_dense_entries(), "rectangular"),
    "weighted_signed_zeros": lambda: coeffs.CoefficientMatrix(_signed_zero_weights(), "symmetric"),
    "all_zero_symmetric": lambda: coeffs.CoefficientMatrix(np.zeros((6, 6)), "symmetric"),
    "all_zero_rectangular": lambda: coeffs.CoefficientMatrix(np.zeros((3, 5)), "rectangular"),
}

# a law that returns -0.0 for some variates, so that signs of zero products show
_SIGNED_ZEROS = EntryDistribution("custom", sampler=lambda rng, size: np.where(
    rng.random(size) < 0.3, -0.0, rng.standard_normal(size)))


@pytest.mark.parametrize("make", DENSE_PLAN_CASES.values(), ids=DENSE_PLAN_CASES.keys())
def test_dense_mask_placement_equals_the_gather_construction(make):
    C = make()
    assert not C.is_sparse
    for seed in (SeedSpec(3, 0), SeedSpec(41, 7)):
        for dist in (GAUSSIAN, RADEMACHER, HEAVY2, _SIGNED_ZEROS):
            X = sample_matrix(C, dist, seed)
            want = _gather_sample(C, dist, seed)
            # bitwise, so that the signs of zeros agree too
            assert X.dtype == want.dtype and X.flags.c_contiguous
            assert np.array_equal(X.view(np.int64), want.view(np.int64))


def test_dense_plan_holds_one_byte_per_entry():
    # the plan keeps its boolean mask, 1 byte per entry, where the gather
    # construction kept 8 (an intp map) plus the holes
    rect = np.ones((512, 2048))
    rect[::3, ::5] = 0.0
    for C in (coeffs.wigner.__wrapped__(1024), coeffs.CoefficientMatrix(rect, "rectangular")):
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            plan = sampling._plan(C)
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert plan[1] is None and plan[2] is None
        assert kept <= C.rows * C.cols + 2**12


def traced_peak(fn):
    """(fn(), the peak bytes allocated while fn ran); numpy reports its buffers to tracemalloc."""
    tracemalloc.start()
    try:
        result = fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


def _plan_bytes(plan):
    """Bytes of a plan's own arrays: b, gather and holes."""
    return sum(a.nbytes for a in plan[1:4] if a is not None)


def test_build_and_plan_compile_peak_memory():
    # the unwrapped builder builds afresh even while an equal pattern is alive
    C, build_peak = traced_peak(lambda: coeffs.band_cyclic.__wrapped__(2**12, 20))
    A = C.data
    assert A.indices.dtype == np.int32 and A.indptr.dtype == np.int32
    # besides the index arrays it keeps (its ones are stored once), the
    # build holds int32 temporaries only: the builder's columns, and the
    # symmetry check's slot ids and their transpose
    assert build_peak <= 4.5 * owned_nbytes(A)
    # compiling a plan holds at most one nnz-sized temporary besides what it keeps
    assert not hasattr(C, "_sampling_plan")
    plan, plan_peak = traced_peak(lambda: sampling._plan(C))
    gather = plan[2]
    # a unit pattern's plan is its gather alone
    assert plan[1] is None and _plan_bytes(plan) == gather.nbytes
    assert plan_peak <= 2.5 * gather.nbytes
    # the banded plan takes no more bytes than the CSR gather, and its
    # compile holds no nnz-sized array besides its own gather
    banded, banded_peak = traced_peak(lambda: sampling._banded_plan(C))
    assert banded[2].dtype == np.int32
    assert _plan_bytes(banded) <= gather.nbytes
    assert banded_peak <= 2.5 * _plan_bytes(banded)
    # a weighted pattern's plan also holds its size coefficients
    rows = np.repeat(np.arange(A.shape[0]), np.diff(A.indptr))
    W = sp.csr_array((1.0 + (rows + A.indices) % 7, A.indices, A.indptr), shape=A.shape)
    C = coeffs.CoefficientMatrix(W, "symmetric")
    plan, plan_peak = traced_peak(lambda: sampling._plan(C))
    size, gather = plan[0], plan[2]
    assert plan[1] is not None and _plan_bytes(plan) <= gather.nbytes + 8 * size
    assert plan_peak <= 2.5 * (gather.nbytes + 8 * size)


def test_wigner_build_peak_memory():
    # the constructor's float copy is the only n x n array the build holds;
    # the pattern keeps its ones once, which need no symmetry check
    C, peak = traced_peak(lambda: coeffs.wigner.__wrapped__(1024))
    assert owned_nbytes(C.data) == 0
    assert peak <= 1.25 * 8 * C.rows * C.cols


def test_sample_peak_memory():
    # on a compiled plan a sample holds its variates and its values, nothing more
    C = coeffs.band_cyclic.__wrapped__(2**12, 20)
    size = sampling._plan(C)[0]
    X, peak = traced_peak(lambda: sample_matrix(C, GAUSSIAN, SeedSpec(4, 0)))
    assert peak <= 8 * size + X.data.nbytes + 2**14
    # a banded sample also holds its column map; numpy reads the int32
    # gather through a cast buffer of 8192 intp (64 KiB), never a full copy
    sampling.trial_sample(C, GAUSSIAN, SeedSpec(4, 0))  # compiles the banded layout
    B, peak = traced_peak(lambda: sampling.trial_sample(C, GAUSSIAN, SeedSpec(4, 0)))
    assert isinstance(B, specnorm.BandedMatrix)
    assert peak <= 8 * size + B.data.nbytes + B.wrap.nbytes + 2**16 + 2**14



def test_banded_solve_peak_memory():
    # a banded trial holds its diagonals s >= 0 in float64; its solve adds
    # the full layout in float32 and ARPACK's own arrays, the n x 20 float32
    # basis and its workspace (743 KB at n = 4096, 2.3 basis sizes)
    C = coeffs.band_cyclic.__wrapped__(2**12, 20)
    n, d, stored, width = 2**12, 41, 21, 2**12 + 40

    def solve(t):
        return specnorm.spectral_norm(sampling.trial_sample(C, GAUSSIAN, SeedSpec(4, t)), tol=1e-4)

    solve(0)  # compiles the banded layout and sets up ARPACK
    r, peak = traced_peak(lambda: solve(1))
    assert r.method == "lanczos"
    assert peak <= 8 * stored * n + 4 * d * width + 2.5 * 4 * 20 * n + 2**16


def test_report_temporaries_peak_memory():
    # the l_p norm holds one filtered copy of the entries (and its mask);
    # the max-entry draws hold the coefficients and one draw buffer
    C = coeffs.CoefficientMatrix(np.full((300, 400), -2.0), "rectangular")
    size = C.rows * C.cols
    for fn in (lambda: coeffs.lp_entrywise_norm(C, 3), lambda: bounds._max_entry_maxima(C, 3, 1)):
        fn()  # first calls set up numpy's own caches
    _, peak = traced_peak(lambda: coeffs.lp_entrywise_norm(C, 3))
    assert peak <= 9 * size + 2**14
    _, peak = traced_peak(lambda: bounds._max_entry_maxima(C, 3, 1))
    assert peak <= 16 * size + 2**14

def test_band_sample_preserves_zero_pattern():
    C = coeffs.band(7, 1)
    X = sample_matrix(C, GAUSSIAN, SeedSpec(1, 0))
    X = X.toarray() if hasattr(X, "toarray") else X
    mask = coeffs.band(7, 1).toarray() == 0
    assert np.all(X[mask] == 0.0)
    assert np.any(X[~mask] != 0.0)


def test_symmetric_samples_are_exactly_symmetric():
    for C in (coeffs.wigner(15), coeffs.band(300, 3)):
        X = sample_matrix(C, GAUSSIAN, SeedSpec(2, 3))
        A = X.toarray() if hasattr(X, "toarray") else X
        assert np.array_equal(A, A.T)


def test_rectangular_sample_shape_and_pattern():
    C = coeffs.CoefficientMatrix(np.ones((3, 7)), "rectangular")
    X = sample_matrix(C, GAUSSIAN, SeedSpec(0, 0))
    assert X.shape == (3, 7)
    assert np.all(X != 0)


def test_rademacher_values():
    X = sample_matrix(coeffs.wigner(30), RADEMACHER, SeedSpec(4, 0))
    assert set(np.unique(X)) == {-1.0, 1.0}


def test_bounded_uniform_range():
    X = sample_matrix(coeffs.wigner(40), BOUNDED_UNIFORM, SeedSpec(4, 1))
    assert np.abs(X).max() <= math.sqrt(3.0)


@pytest.mark.parametrize("dist", ALL_UNIT_VARIANCE, ids=lambda d: d.family)
def test_unit_variance_within_three_stderr(dist):
    # E[xi^2] estimated on 1e5 draws; its stderr is sqrt((E[xi^4]-1)/n)
    rng = SeedSpec(2024, 0).generator()
    draws = sampling.draw_entries(dist, rng, 100_000)
    second = (draws**2).mean()
    fourth = distribution_moment(dist, 4)
    se = math.sqrt(max(fourth - 1.0, 0.0) / draws.size)
    assert abs(second - 1.0) <= max(3 * se, 1e-12)


def test_per_entry_variance_wigner64():
    # frozen-seed Monte Carlo oracle: every distinct entry's variance over
    # 1e4 trials stays in [0.94, 1.06]
    nent = 64 * 65 // 2  # the upper triangle of wigner(64)
    acc = np.zeros(nent)
    acc2 = np.zeros(nent)
    trials = 10_000
    chunk = 500
    done = 0
    t = 0
    while done < trials:
        m = min(chunk, trials - done)
        block = np.empty((m, nent))
        for r in range(m):
            rng = SeedSpec(31337, t).generator()
            block[r] = sampling.draw_entries(GAUSSIAN, rng, nent)
            t += 1
        acc += block.sum(axis=0)
        acc2 += (block**2).sum(axis=0)
        done += m
    var = acc2 / trials - (acc / trials) ** 2
    assert var.min() >= 0.94 and var.max() <= 1.06


def test_gaussian_even_moments():
    assert distribution_moment(GAUSSIAN, 4) == 3
    assert distribution_moment(GAUSSIAN, 6) == 15
    with pytest.raises(ParameterError):
        distribution_moment(GAUSSIAN, 3)


def test_heavy_beta1_is_gaussian():
    d = EntryDistribution("heavy_tailed", beta=1.0)
    assert distribution_moment(d, 4) == pytest.approx(3.0)
    rng = SeedSpec(0, 0).generator()
    draws = sampling.draw_entries(d, rng, 1000)
    rng2 = SeedSpec(0, 0).generator()
    g = rng2.standard_normal(2000)[0::2]  # same stream, g then g~ interleaving differs
    # the law is N(0,1): check moments rather than the stream
    assert abs(draws.mean()) < 0.1 and abs(draws.var() - 1) < 0.15


def test_heavy_unnormalized_moment_example():
    d = EntryDistribution("heavy_tailed", beta=3.0, normalize=False)
    assert distribution_moment(d, 2) == 3  # E[g^2] E[g~^4]
    dn = EntryDistribution("heavy_tailed", beta=3.0, normalize=True)
    assert distribution_moment(dn, 2) == pytest.approx(1.0)


def test_heavy_moment_gamma_formula_matches_integer_case():
    # even-integer auxiliary exponent path vs Gamma formula
    d = EntryDistribution("heavy_tailed", beta=2.0, normalize=False)
    exact = distribution_moment(d, 4)  # 2p(beta-1) = 4 even: 3!! * 3!! = 9
    assert exact == 9
    d_frac = EntryDistribution("heavy_tailed", beta=2.0000001, normalize=False)
    assert distribution_moment(d_frac, 4) == pytest.approx(9.0, rel=1e-4)


def test_bounded_uniform_moments():
    for p in range(1, 6):
        assert distribution_moment(BOUNDED_UNIFORM, 2 * p) == pytest.approx(
            3**p / (2 * p + 1)
        )


def test_rademacher_dominated_by_gaussian_moments():
    # the moment-domination hypothesis: E[xi^2p] = 1 <= (2p-1)!!
    dfact = 1
    for p in range(1, 9):
        dfact *= 2 * p - 1
        assert distribution_moment(RADEMACHER, 2 * p) == 1 <= dfact


def symmetrized_difference(C, dist, seed):
    """X - X' for two independent draws; the entry law becomes symmetric."""
    X = sample_matrix(C, dist, seed, stream=sampling.STREAM_SAMPLE)
    Xp = sample_matrix(C, dist, seed, stream=sampling.STREAM_SAMPLE_PRIME)
    return X - Xp


def test_symmetrized_difference_gaussian_variance():
    C = coeffs.wigner(50)
    trials = 400
    acc = []
    for t in range(trials):
        D = symmetrized_difference(C, GAUSSIAN, SeedSpec(77, t))
        acc.append(D[np.triu_indices(50)])
    v = np.concatenate(acc).var()
    assert v == pytest.approx(2.0, rel=0.05)


def test_symmetrized_difference_rademacher_support():
    C = coeffs.wigner(40)
    vals = []
    for t in range(50):
        D = symmetrized_difference(C, RADEMACHER, SeedSpec(78, t))
        vals.append(D[np.triu_indices(40)])
    vals = np.concatenate(vals)
    counts = {v: np.mean(vals == v) for v in (-2.0, 0.0, 2.0)}
    assert set(np.unique(vals)) <= {-2.0, 0.0, 2.0}
    assert counts[0.0] == pytest.approx(0.5, abs=0.02)
    assert counts[2.0] == pytest.approx(0.25, abs=0.02)
    assert counts[-2.0] == pytest.approx(0.25, abs=0.02)


def test_symmetrized_difference_kills_odd_moments():
    # asymmetric custom law: centered exponential has third moment 2
    skewed = EntryDistribution(
        "custom", sampler=lambda rng, size: rng.exponential(1.0, size) - 1.0
    )
    C = coeffs.wigner(30)
    raw, sym = [], []
    for t in range(300):
        X = sample_matrix(C, skewed, SeedSpec(5150, t))
        D = symmetrized_difference(C, skewed, SeedSpec(5150, t))
        iu = np.triu_indices(30)
        raw.append(X[iu])
        sym.append(D[iu])
    m3_raw = (np.concatenate(raw) ** 3).mean()
    m3_sym = (np.concatenate(sym) ** 3).mean()
    assert m3_raw > 1.5  # the input law is clearly skewed
    assert abs(m3_sym) < 0.2  # the difference is symmetric


def test_distribution_code_parsing():
    assert distribution_from_code("gaussian").family == "gaussian"
    assert distribution_from_code("uniform").family == "bounded_uniform"
    d = distribution_from_code("heavy:2.5")
    assert d.family == "heavy_tailed" and d.beta == 2.5
    for bad in ("cauchy", "heavy:abc", "heavy:nan", "heavy:inf", "heavy:0.5"):
        with pytest.raises(ParameterError):
            distribution_from_code(bad)


def test_invalid_distributions_rejected():
    with pytest.raises(ParameterError):
        EntryDistribution("lognormal")
    with pytest.raises(ParameterError):
        EntryDistribution("heavy_tailed", beta=0.5)
    with pytest.raises(ParameterError):
        EntryDistribution("custom")
    with pytest.raises(ParameterError):
        SeedSpec(0, -1)
