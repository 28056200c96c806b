import gc
import math
import re
import sys
import tracemalloc
import weakref
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
import scipy.sparse as sp

from specbound import coeffs, sampling
from specbound.errors import DataError, ParameterError
from specbound.sampling import GAUSSIAN, SeedSpec, sample_matrix


def test_band_7_1_is_tridiagonal():
    C = coeffs.band(7, 1)
    a = C.toarray()
    for i in range(7):
        for j in range(7):
            assert a[i, j] == (1.0 if abs(i - j) <= 1 else 0.0)
    # middle rows carry three ones
    assert np.count_nonzero(a[3]) == 3


def test_wigner_3_is_all_ones():
    assert np.array_equal(coeffs.wigner(3).toarray(), np.ones((3, 3)))


def test_single_entry_has_one_nonzero():
    C = coeffs.single_entry(100)
    assert C.nnz == 1
    assert C.toarray()[0, 0] == 1.0


def test_block_diagonal_layout():
    a = coeffs.block_diagonal(6, 2).toarray()
    expected = np.zeros((6, 6))
    for b in range(3):
        expected[2 * b : 2 * b + 2, 2 * b : 2 * b + 2] = 1.0
    assert np.array_equal(a, expected)


def test_block_diagonal_full_block_is_wigner():
    assert np.array_equal(
        coeffs.block_diagonal(8, 8).toarray(), coeffs.wigner(8).toarray()
    )


def test_log_decay_diagonal_values():
    C = coeffs.log_decay_diagonal(10)
    a = C.toarray()
    assert a[0, 0] == 1.0
    assert a[1, 1] == 1.0  # 1/sqrt(log 2) > 1 is capped
    for i in range(3, 11):
        assert a[i - 1, i - 1] == pytest.approx(1.0 / math.sqrt(math.log(i)))
    assert coeffs.structural_params(C).sigma_star == 1.0


def test_band_cyclic_exact_degree():
    C = coeffs.band_cyclic(50, 3)
    counts = np.count_nonzero(C.toarray(), axis=1)
    assert np.all(counts == 7)


def _band_cyclic_coo(n, k):
    """Wrap-around band as a COO -> CSR conversion of its 2k + 1 diagonals."""
    idx = np.arange(n)
    rows, cols = [idx], [idx]
    for d in range(1, k + 1):
        j = (idx + d) % n
        rows += [idx, j]
        cols += [j, idx]
    r, c = np.concatenate(rows), np.concatenate(cols)
    return sp.coo_array((np.ones(r.size), (r, c)), shape=(n, n)).tocsr()


@pytest.mark.parametrize(
    "n, k",
    # 2k + 1 = n at (1, 0), (5, 2), (7, 3); (1000, 24) sits just below the
    # 5% fill switch and (1000, 25) just above it
    [(1, 0), (5, 2), (7, 3), (64, 0), (64, 1), (300, 3), (301, 150), (1000, 24), (1000, 25)],
)
def test_band_cyclic_matches_coo_construction(n, k):
    C = coeffs.band_cyclic(n, k)
    ref = _band_cyclic_coo(n, k)
    assert C.is_sparse == (ref.nnz < coeffs.SPARSE_FILL_THRESHOLD * n * n)
    if C.is_sparse:
        for attr in ("data", "indices", "indptr"):
            assert np.array_equal(getattr(C.data, attr), getattr(ref, attr)), attr
    else:
        assert np.array_equal(C.toarray(), ref.toarray())


# the index-arithmetic builders that the scipy constructors replaced
def _reference_diagonal(n):
    idx = np.arange(n)
    return coeffs._pack(idx, idx, np.ones(n), n, n, "symmetric")


def _reference_band(n, k):
    rows, cols = [], []
    idx = np.arange(n)
    for d in range(0, int(k) + 1):
        i = idx[: n - d]
        rows.append(i)
        cols.append(i + d)
        if d > 0:
            rows.append(i + d)
            cols.append(i)
    r = np.concatenate(rows)
    c = np.concatenate(cols)
    return coeffs._pack(r, c, np.ones(len(r)), n, n, "symmetric")


def _reference_block_diagonal(n, k):
    nblocks = n // k
    base = np.arange(k)
    i = np.repeat(base, k)
    j = np.tile(base, k)
    offs = np.repeat(np.arange(nblocks) * k, k * k)
    rows = offs + np.tile(i, nblocks)
    cols = offs + np.tile(j, nblocks)
    return coeffs._pack(rows, cols, np.ones(len(rows)), n, n, "symmetric")


def _reference_log_decay_diagonal(n):
    i = np.arange(1, n + 1, dtype=float)
    vals = np.ones(n)
    if n > 1:
        vals[1:] = np.minimum(1.0, 1.0 / np.sqrt(np.log(i[1:])))
    idx = np.arange(n)
    return coeffs._pack(idx, idx, vals, n, n, "symmetric")


BUILDER_CASES = [
    # band: k = 0, k = n - 1, and (100, 2) / (100, 3) on either side of the 5% fill switch
    *[(coeffs.band, _reference_band, a) for a in
      [(1, 0), (100, 0), (100, 2), (100, 3), (100, 99), (300, 7), (4096, 16)]],
    # block_diagonal: (40, 1) / (40, 2) and (200, 8) / (200, 10) straddle the switch
    *[(coeffs.block_diagonal, _reference_block_diagonal, a) for a in
      [(1, 1), (40, 1), (40, 2), (200, 8), (200, 10), (2**14, 4)]],
    # diagonal patterns switch to CSR above n = 20
    *[(coeffs.diagonal, _reference_diagonal, (n,)) for n in [1, 20, 21, 1000]],
    *[(coeffs.log_decay_diagonal, _reference_log_decay_diagonal, (n,)) for n in [1, 2, 20, 21, 500]],
]


@pytest.mark.parametrize(
    "builder, reference, args", BUILDER_CASES, ids=[f"{b.__name__}{a}" for b, _, a in BUILDER_CASES]
)
def test_builder_matches_index_arithmetic_reference(builder, reference, args):
    C, ref = builder(*args), reference(*args)
    assert C.is_sparse == ref.is_sparse and type(C.data) is type(ref.data)
    if C.is_sparse:
        for attr in ("data", "indices", "indptr"):
            got, want = getattr(C.data, attr), getattr(ref.data, attr)
            assert got.dtype == want.dtype and np.array_equal(got, want), attr
    else:
        assert C.data.dtype == ref.data.dtype and np.array_equal(C.data, ref.data)


@pytest.mark.parametrize(
    "builder,args",
    [
        (coeffs.band, (7, 7)),
        (coeffs.band, (7, -1)),
        (coeffs.block_diagonal, (10, 3)),
        (coeffs.wigner, (0,)),
        (coeffs.band_cyclic, (5, 3)),
    ],
)
def test_invalid_dimensions_raise(builder, args):
    with pytest.raises(ParameterError):
        builder(*args)


def test_build_pattern_dispatch():
    assert coeffs.build_pattern("band", [7, 1]).nnz == 19
    assert coeffs.build_pattern("band", ["7", "1"]).nnz == 19
    for kind, params in [("unknown_thing", [3]), ("band", [7]), ("band", [7, 1, 2]), ("band", ["7", "x"]),
                         ("wigner", [2.5]), ("wigner", ["2.5"]), ("from_adjacency", [])]:
        with pytest.raises(ParameterError):
            coeffs.build_pattern(kind, params)


def test_sparse_storage_threshold():
    assert coeffs.band(1000, 3).is_sparse       # fill 0.7%
    assert not coeffs.wigner(50).is_sparse      # full
    assert coeffs.diagonal(100).is_sparse
    assert not coeffs.diagonal(10).is_sparse    # 10% fill stays dense


INTERNED_CASES = [
    (coeffs.wigner, (5,)),
    (coeffs.diagonal, (30,)),
    (coeffs.band, (100, 2)),
    (coeffs.band, (9, 2)),
    (coeffs.band_cyclic, (300, 3)),
    (coeffs.block_diagonal, (40, 2)),
    (coeffs.single_entry, (30,)),
    (coeffs.log_decay_diagonal, (40,)),
]


def _buffers(M):
    return {"array": M} if isinstance(M, np.ndarray) else {a: getattr(M, a) for a in ("data", "indices", "indptr")}


def test_entries_are_immutable():
    dense = coeffs.wigner(4)
    with pytest.raises(ValueError):
        dense.data[0, 0] = 2.0
    sparse = coeffs.band(1000, 2)
    with pytest.raises(ValueError):
        sparse.data.data[0] = 2.0
    # every buffer of every builder's pattern, CSR index arrays included
    for builder, args in INTERNED_CASES:
        C = builder(*args)
        for name, buf in _buffers(C.data).items():
            assert not buf.flags.writeable, (builder.__name__, name)
            with pytest.raises(ValueError):
                buf[0] = buf[0]


def test_structural_params_examples():
    p = coeffs.structural_params(coeffs.wigner(9))
    assert p.sigma == 3.0 and p.sigma_star == 1.0
    p = coeffs.structural_params(coeffs.band(7, 1))
    assert p.sigma == pytest.approx(math.sqrt(3.0))
    assert p.sigma_star == 1.0
    zero = coeffs.CoefficientMatrix(np.zeros((4, 4)), "symmetric")
    p = coeffs.structural_params(zero)
    assert p.sigma == 0.0 and p.sigma_star == 0.0


def test_structural_params_rectangular():
    C = coeffs.CoefficientMatrix(np.ones((4, 10000)), "rectangular")
    p = coeffs.structural_params(C)
    assert p.sigma1 == pytest.approx(100.0)
    assert p.sigma2 == pytest.approx(2.0)
    assert p.sigma_star == 1.0


def test_lp_norm_examples():
    assert coeffs.lp_entrywise_norm(coeffs.diagonal(2), 1.0) == pytest.approx(2.0)
    assert coeffs.lp_entrywise_norm(coeffs.diagonal(9), 2.0) == pytest.approx(3.0)
    assert coeffs.lp_entrywise_norm(coeffs.wigner(3), 1.0) == pytest.approx(9.0)
    with pytest.raises(ParameterError):
        coeffs.lp_entrywise_norm(coeffs.wigner(3), 0.5)


def test_lp_norm_nonincreasing_in_p():
    rng = np.random.default_rng(3)
    a = rng.uniform(0, 1, (6, 6))
    a = np.triu(a) + np.triu(a, 1).T  # sigma_star <= 1
    C = coeffs.CoefficientMatrix(a, "symmetric")
    ps = [1.0, 1.2, 1.5, 1.8, 1.99, 2.5, 4.0]
    vals = [coeffs.lp_entrywise_norm(C, p) for p in ps]
    assert all(vals[i] >= vals[i + 1] - 1e-12 for i in range(len(vals) - 1))


def test_large_entry_count_examples():
    assert coeffs.large_entry_count(coeffs.wigner(4), 1.0) == 16
    assert coeffs.large_entry_count(coeffs.band(7, 1), 1.0) == 19
    assert coeffs.large_entry_count(coeffs.diagonal(5), 0.5) == 5
    zero = coeffs.CoefficientMatrix(np.zeros((3, 3)), "symmetric")
    with pytest.raises(ParameterError):
        coeffs.large_entry_count(zero, 1.0)


def test_lower_bound_applicable_examples():
    assert coeffs.lower_bound_applicable(coeffs.band(1024, 8), 1.0, 1.0)
    assert not coeffs.lower_bound_applicable(coeffs.single_entry(1024), 1.0, 1.0)
    assert coeffs.lower_bound_applicable(coeffs.wigner(16), 1.0, 2.0)  # 256 >= 256


def test_sigma_sandwich_invariants():
    rng = np.random.default_rng(11)
    for _ in range(20):
        n = int(rng.integers(2, 12))
        a = rng.normal(size=(n, n))
        a = (a + a.T) / 2
        C = coeffs.CoefficientMatrix(a, "symmetric")
        p = coeffs.structural_params(C)
        assert p.sigma_star <= p.sigma + 1e-12
        assert p.sigma <= p.sigma_star * math.sqrt(n) + 1e-12
        assert p.sigma <= coeffs.lp_entrywise_norm(C, 2.0) + 1e-12


def test_params_invariant_under_permutation_and_sign_flips():
    rng = np.random.default_rng(12)
    a = rng.normal(size=(8, 8))
    a = (a + a.T) / 2
    C = coeffs.CoefficientMatrix(a, "symmetric")
    base = coeffs.structural_params(C)
    perm = rng.permutation(8)
    signs = rng.choice([-1.0, 1.0], size=(8, 8))
    signs = np.triu(signs) + np.triu(signs, 1).T
    variants = [a[np.ix_(perm, perm)], a * signs]
    for v in variants:
        p = coeffs.structural_params(coeffs.CoefficientMatrix(v, "symmetric"))
        assert p.sigma == pytest.approx(base.sigma)
        assert p.sigma_star == pytest.approx(base.sigma_star)


def test_band_and_block_sigma_squared():
    for n, k in [(9, 2), (64, 5), (200, 12)]:
        p = coeffs.structural_params(coeffs.band(n, k))
        assert p.sigma**2 == pytest.approx(2 * k + 1)
    for n, k in [(8, 2), (64, 8), (60, 5)]:
        p = coeffs.structural_params(coeffs.block_diagonal(n, k))
        assert p.sigma**2 == pytest.approx(k)


def test_asymmetric_construction_rejected():
    a = np.arange(9.0).reshape(3, 3)
    with pytest.raises(DataError):
        coeffs.CoefficientMatrix(a, "symmetric")
    with pytest.raises(DataError):
        coeffs.CoefficientMatrix(np.array([[np.nan]]), "symmetric")


def _reference_gap(M):
    """The sparse symmetry gap as max |M - M^T| over the stored entries of the difference."""
    asym = abs(M - M.T)
    return asym.data.max() if asym.nnz else 0.0


def _assert_check_matches_reference(M, tol):
    gap = _reference_gap(M)
    if gap > tol:
        message = f"pattern is not symmetric (max asymmetry {gap:g} > tol {tol:g})"
        with pytest.raises(DataError, match=re.escape(message)):
            coeffs.CoefficientMatrix(M, "symmetric", sym_tol=tol)
    else:
        C = coeffs.CoefficientMatrix(M, "symmetric", sym_tol=tol)
        assert C.is_sparse


def _random_near_symmetric(n, seed, noise, index_dtype):
    rng = np.random.default_rng(seed)
    A = sp.random(n, n, density=0.1, random_state=rng, format="csr")
    A = (A + A.T).tocsr()
    A.data += noise * rng.standard_normal(A.nnz)
    return sp.csr_array(
        (A.data, A.indices.astype(index_dtype), A.indptr.astype(index_dtype)), shape=A.shape
    )


def _csr(rows, cols, vals, n):
    return sp.coo_array((vals, (rows, cols)), shape=(n, n)).tocsr()


SYMMETRY_CASES = {
    # an explicit zero at (0, 2) whose mirror is not stored: symmetric
    "one_sided_zero": (_csr([0, 1, 0, 2, 1], [0, 1, 2, 0, 2], [1.0, 2.0, 0.0, 0.0, 0.0], 3), 0.0),
    "one_sided_zero_only": (_csr([0, 1], [2, 1], [0.0, 3.0], 3), 0.0),
    "values_differ": (_csr([0, 0, 1], [0, 1, 0], [1.0, 2.0, 2.5], 2), 0.0),
    "values_differ_within_tol": (_csr([0, 0, 1], [0, 1, 0], [1.0, 2.0, 2.5], 2), 0.5),
    "one_sided_entry": (_csr([0, 1], [1, 1], [-4.0, 1.0], 2), 0.0),
    "one_sided_entry_within_tol": (_csr([0, 1], [1, 1], [-4.0, 1.0], 2), 4.0),
    "all_zero": (_csr([0], [1], [0.0], 2), 0.0),
    "empty": (sp.csr_array((4, 4)), 0.0),
    "one_by_one": (_csr([0], [0], [7.0], 1), 0.0),
    "random_int32": (_random_near_symmetric(60, 1, 1e-3, np.int32), 1e-3),
    "random_int64": (_random_near_symmetric(60, 2, 1e-3, np.int64), 1e-3),
    "random_exact": (_random_near_symmetric(60, 3, 0.0, np.int64), 0.0),
}


@pytest.mark.parametrize("M, tol", SYMMETRY_CASES.values(), ids=SYMMETRY_CASES.keys())
def test_sparse_symmetry_check_matches_reference_gap(M, tol):
    _assert_check_matches_reference(M, tol)


def _mirrored_upper_slots(M):
    """{(i, j): b_ij} over M's nonzero upper-triangle slots (i <= j) and their mirrors."""
    M = M.tocsr(copy=True)
    M.sum_duplicates()
    coo = M.tocoo()
    slots = {}
    for i, j, v in zip(coo.row.tolist(), coo.col.tolist(), coo.data.tolist()):
        if i <= j and v != 0:
            slots[i, j] = slots[j, i] = v
    return slots


ACCEPTED_SYMMETRY_CASES = {
    name: case for name, case in SYMMETRY_CASES.items() if _reference_gap(case[0]) <= case[1]
}


@pytest.mark.parametrize("M, tol", ACCEPTED_SYMMETRY_CASES.values(), ids=ACCEPTED_SYMMETRY_CASES.keys())
def test_accepted_sparse_pattern_stores_its_mirrored_upper_triangle(M, tol):
    # slot for slot and bit for bit: no stored zero, and gaps within tol take the upper value
    slots = _mirrored_upper_slots(M)
    keys = sorted(slots)
    A = coeffs.CoefficientMatrix(M, "symmetric", sym_tol=tol).data.tocoo()
    assert list(zip(A.row.tolist(), A.col.tolist())) == keys
    want = np.array([slots[key] for key in keys], dtype=float)
    assert np.array_equal(A.data.view(np.int64), want.view(np.int64))


def test_accepted_dense_pattern_stores_its_mirrored_upper_triangle():
    a = np.array([[1.0, 0.5, -0.0], [0.5 + 1e-13, 2.0, 0.0], [0.0, 0.0, 3.0]])
    C = coeffs.CoefficientMatrix(a, "symmetric", sym_tol=coeffs.FILE_SYMMETRY_TOL)
    want = a.copy()
    i, j = np.tril_indices(3, -1)
    want[i, j] = a[j, i]
    assert np.array_equal(C.data.view(np.int64), want.view(np.int64))
    exact = np.array([[1.0, 0.5], [0.5, 2.0]])
    assert np.array_equal(coeffs.CoefficientMatrix(exact, "symmetric").data, exact)


def test_symmetry_check_of_a_matrix_file(tmp_path):
    # a near-symmetric file under FILE_SYMMETRY_TOL: the sparse check agrees
    # with the reference gap and with the dense load of the same file
    path = tmp_path / "near.csv"
    for skew, accepted in ((1e-13, True), (1e-9, False)):
        a = np.array([[1.0, 0.5, 0.0], [0.5 + skew, 2.0, 0.0], [0.0, 0.0, 3.0]])
        coeffs.write_matrix_csv(a, path)
        M = sp.csr_array(np.loadtxt(path, delimiter=","))
        _assert_check_matches_reference(M, coeffs.FILE_SYMMETRY_TOL)
        assert (_reference_gap(M) <= coeffs.FILE_SYMMETRY_TOL) == accepted
        if accepted:
            coeffs.load_dense_csv(path, kind="symmetric")
        else:
            with pytest.raises(DataError, match=re.escape(f"max asymmetry {_reference_gap(M):g}")):
                coeffs.load_dense_csv(path, kind="symmetric")


def test_already_canonical_int32_csr_is_wrapped_without_copies():
    # no copy beyond the one the pattern keeps: the symmetry check's
    # transpose becomes the pattern, with int32 indices, sharing nothing with M
    A = coeffs.band_cyclic.__wrapped__(2**12, 20).data
    M = sp.csr_array((A.data.copy(), A.indices.copy(), A.indptr.copy()), shape=A.shape)
    tracemalloc.start()
    try:
        C = coeffs.CoefficientMatrix(M, "symmetric")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    B = C.data
    assert B.indices.dtype == np.int32 and B.indptr.dtype == np.int32
    for attr in ("data", "indices", "indptr"):
        assert not np.shares_memory(getattr(B, attr), getattr(M, attr)), attr
        assert np.array_equal(getattr(B, attr), getattr(A, attr)), attr
    assert peak <= 1.25 * (B.data.nbytes + B.indices.nbytes + B.indptr.nbytes)


def _noncanonical_csr():
    """2 x 2 CSR whose first row lists column 1 before column 0."""
    return sp.csr_array(([5.0, 1.0, 1.0], [1, 0, 0], [0, 2, 3]), shape=(2, 2))


def _with_stored_zeros(M):
    """Canonical CSR M with explicit zeros stored where 5 divides i + j (a symmetric set)."""
    rows = np.repeat(np.arange(M.shape[0]), np.diff(M.indptr))
    M.data[(rows + M.indices) % 5 == 0] = 0.0
    assert M.has_canonical_format and not M.data.all()
    return M


OWNERSHIP_INPUTS = {
    "sparse_symmetric": (lambda: sp.csr_array(coeffs.band_cyclic.__wrapped__(40, 2).toarray()), "symmetric"),
    "sparse_symmetric_int64": (lambda: _random_near_symmetric(40, 4, 0.0, np.int64), "symmetric"),
    "sparse_noncanonical_symmetric": (lambda: _noncanonical_csr() + _noncanonical_csr().T, "symmetric"),
    "sparse_noncanonical_rectangular": (_noncanonical_csr, "rectangular"),
    "sparse_rectangular": (lambda: sp.random(30, 50, density=0.04, random_state=5, format="csr"), "rectangular"),
    # the pattern drops the zeros, from a copy
    "sparse_symmetric_stored_zeros": (
        lambda: _with_stored_zeros(sp.csr_array(coeffs.band_cyclic.__wrapped__(40, 2).toarray())),
        "symmetric",
    ),
    "sparse_rectangular_stored_zeros": (
        lambda: _with_stored_zeros(sp.random(30, 50, density=0.04, random_state=5, format="csr")),
        "rectangular",
    ),
    "dense_symmetric": (lambda: np.array(coeffs.band.__wrapped__(6, 1).toarray()), "symmetric"),
    "dense_rectangular": (lambda: np.arange(12.0).reshape(3, 4) + 1.0, "rectangular"),
}


def _pattern_state(C):
    size, gather, _ = sampling._plan(C)
    X = sample_matrix(C, GAUSSIAN, SeedSpec(1, 0))
    return {
        "pattern": {name: buf.copy() for name, buf in _buffers(C.data).items()},
        "params": coeffs.structural_params(C),
        "plan": {"size": np.array(size), "gather": np.array(gather)},
        "sample": {name: buf.copy() for name, buf in _buffers(X).items()},
    }


def _assert_same_state(a, b):
    assert a["params"] == b["params"]
    for part in ("pattern", "plan", "sample"):
        for name in a[part]:
            assert np.array_equal(a[part][name], b[part][name]), (part, name)


@pytest.mark.parametrize("make, kind", OWNERSHIP_INPUTS.values(), ids=OWNERSHIP_INPUTS.keys())
def test_constructor_leaves_its_input_alone(make, kind):
    M = make()
    if not isinstance(M, np.ndarray):
        M = M.tocsr()
    before = {name: (buf.copy(), buf.flags.writeable) for name, buf in _buffers(M).items()}
    C = coeffs.CoefficientMatrix(M, kind)
    for name, buf in _buffers(M).items():
        assert buf.dtype == before[name][0].dtype and np.array_equal(buf, before[name][0]), name
        assert buf.flags.writeable == before[name][1], name
        for own in _buffers(C.data).values():
            assert not np.shares_memory(buf, own), name


@pytest.mark.parametrize("make, kind", OWNERSHIP_INPUTS.values(), ids=OWNERSHIP_INPUTS.keys())
def test_later_writes_to_the_input_do_not_reach_the_pattern(make, kind):
    M = make()
    if not isinstance(M, np.ndarray):
        M = M.tocsr()
    C = coeffs.CoefficientMatrix(M, kind)
    state = _pattern_state(C)
    for buf in _buffers(M).values():
        if buf.dtype.kind == "f":
            buf *= 2.0
        else:
            buf[...] = buf[::-1]
    _assert_same_state(_pattern_state(C), state)
    _assert_same_state(_pattern_state(coeffs.CoefficientMatrix(make(), kind)), state)


def test_noncanonical_input_is_canonicalized_in_a_copy():
    M = _noncanonical_csr()
    C = coeffs.CoefficientMatrix(M, "rectangular")
    assert M.indices.tolist() == [1, 0, 0] and M.data.tolist() == [5.0, 1.0, 1.0]
    assert C.data.indices.tolist() == [0, 1, 0] and C.data.data.tolist() == [1.0, 5.0, 1.0]


@pytest.mark.parametrize("builder, args", INTERNED_CASES, ids=[f"{b.__name__}{a}" for b, a in INTERNED_CASES])
def test_builders_return_the_live_pattern_of_equal_arguments(builder, args):
    C = builder(*args)
    assert builder(*args) is C
    assert coeffs.build_pattern(builder.__name__, [str(a) for a in args]) is C
    sample_matrix(C, GAUSSIAN, SeedSpec(2, 0))
    assert hasattr(C, "_sampling_plan")
    dead = weakref.ref(C)
    del C
    gc.collect()
    assert dead() is None  # nothing else holds the pattern
    fresh = builder(*args)
    assert not hasattr(fresh, "_sampling_plan")


def test_interning_matches_argument_types():
    C = coeffs.band_cyclic(4, 1)
    for _ in range(2):  # invalid arguments raise on every call
        with pytest.raises(ParameterError):
            coeffs.band_cyclic(4.0, 1)
        with pytest.raises(ParameterError):
            coeffs.band_cyclic(5, 3)
        with pytest.raises(ParameterError):
            coeffs.wigner([4])
    assert coeffs.band_cyclic(4, 1) is C
    assert coeffs.band(4, 1.0) is not coeffs.band(4, 1)
    assert coeffs.band(True, 0) is not coeffs.band(1, 0)
    assert coeffs.wigner(np.int64(4)) is not coeffs.wigner(4)


def test_threads_building_one_pattern_share_it():
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            built = list(pool.map(lambda _: coeffs.band_cyclic(2**15, 7), range(32), timeout=60))
    finally:
        sys.setswitchinterval(interval)
    assert all(C is built[0] for C in built)


def test_from_adjacency_reads_its_file_on_every_call(tmp_path):
    path = tmp_path / "adj.csv"
    path.write_text("0,1\n1,0\n")
    first = coeffs.build_pattern("from_adjacency", [str(path)])
    path.write_text("0,2\n2,0\n")
    second = coeffs.build_pattern("from_adjacency", [str(path)])
    assert first.toarray()[0, 1] == 1.0 and second.toarray()[0, 1] == 2.0


def test_dense_csv_roundtrip(tmp_path):
    a = np.array([[1.0, 0.5], [0.5, 2.0]])
    path = tmp_path / "m.csv"
    coeffs.write_matrix_csv(a, path)
    C = coeffs.load_dense_csv(path, kind="symmetric")
    assert np.array_equal(C.toarray(), a)


def test_file_symmetry_tolerance(tmp_path):
    path = tmp_path / "near.csv"
    a = np.array([[1.0, 0.5], [0.5 + 1e-13, 2.0]])
    coeffs.write_matrix_csv(a, path)
    coeffs.load_dense_csv(path, kind="symmetric")  # inside 1e-12: accepted
    b = np.array([[1.0, 0.5], [0.5 + 1e-9, 2.0]])
    coeffs.write_matrix_csv(b, path)
    with pytest.raises(DataError):
        coeffs.load_dense_csv(path, kind="symmetric")  # not silently repaired


def test_sparse_csv_roundtrip_mirrors_lower_triangle(tmp_path):
    path = tmp_path / "s.csv"
    path.write_text("0,0,1.0\n0,2,-0.5\n1,1,2.0\n")
    C = coeffs.load_sparse_csv(path, kind="symmetric")
    a = C.toarray()
    assert a.shape == (3, 3)
    assert a[0, 2] == -0.5 and a[2, 0] == -0.5
    assert a[1, 1] == 2.0
    path.write_text("1,0,1.0\n")
    with pytest.raises(DataError):
        coeffs.load_sparse_csv(path, kind="symmetric")  # lower triangle forbidden


def test_from_adjacency_requires_symmetry(tmp_path):
    path = tmp_path / "adj.csv"
    path.write_text("0,1\n0,0\n")
    with pytest.raises(DataError):
        coeffs.build_pattern("from_adjacency", [str(path)])
    path.write_text("0,1\n1,0\n")
    C = coeffs.build_pattern("from_adjacency", [str(path)])
    assert C.kind == "symmetric" and C.nnz == 2


def test_write_sparse_matrix_csv(tmp_path):
    C = coeffs.band(100, 1)
    path = tmp_path / "band.csv"
    coeffs.write_matrix_csv(C.data, path, symmetric=True)
    back = coeffs.load_sparse_csv(path, kind="symmetric")
    assert np.array_equal(back.toarray(), C.toarray())
