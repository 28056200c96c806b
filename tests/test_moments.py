import hashlib
import itertools
import math
import tracemalloc
from collections import Counter
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
import scipy.sparse as sp

from specbound import coeffs, moments
from specbound.errors import ParameterError, SizeError
from specbound.moments import _adjacency, _gaussian_weight, _unit_sigma_star
from specbound.sampling import GAUSSIAN, RADEMACHER


# -- independent oracles (no shared code with the enumerators) ---------------


def oracle_shapes(p):
    """Every even length-2p cycle shape, by filtering all tuples over p+1
    vertices and canonicalizing."""
    shapes = set()
    for u in product(range(1, p + 2), repeat=2 * p):
        counts = Counter()
        for idx in range(2 * p):
            a, b = u[idx], u[(idx + 1) % (2 * p)]
            counts[(min(a, b), max(a, b))] += 1
        if all(v % 2 == 0 for v in counts.values()):
            shapes.add(moments.shape_of(u))
    return shapes


def oracle_bipartite_shapes(p):
    shapes = set()
    for us in product(range(1, p + 2), repeat=p):
        for vs in product(range(1, p + 2), repeat=p):
            counts = Counter()
            for j in range(p):
                counts[(us[j], vs[j])] += 1
                counts[(us[(j + 1) % p], vs[j])] += 1
            if all(v % 2 == 0 for v in counts.values()):
                seq = []
                for u, v in zip(moments.shape_of(us), moments.shape_of(vs)):
                    seq += [u, v]
                shapes.add(tuple(seq))
    return shapes


def oracle_gaussian_trace_moment(a, p):
    """E Tr[X^2p] by direct summation over all index tuples (independent of
    the walk recursion: no pruning, moments from the double factorial)."""
    n = a.shape[0]
    total = 0
    for u in product(range(n), repeat=2 * p):
        prod = 1
        for idx in range(2 * p):
            prod *= int(a[u[idx], u[(idx + 1) % (2 * p)]])
            if prod == 0:
                break
        if prod == 0:
            continue
        counts = Counter()
        for idx in range(2 * p):
            x, y = u[idx], u[(idx + 1) % (2 * p)]
            counts[(min(x, y), max(x, y))] += 1
        w = prod
        for c in counts.values():
            if c % 2 == 1:
                w = 0
                break
            w *= moments.gaussian_moment(c)
        total += w
    return total


def oracle_rect_trace_moment(r, rprime, p):
    """E Tr[(YY^T)^p] for the all-ones r x r' pattern by direct summation."""
    total = 0
    for us in product(range(r), repeat=p):
        for vs in product(range(rprime), repeat=p):
            counts = Counter()
            for j in range(p):
                counts[(us[j], vs[j])] += 1
                counts[(us[(j + 1) % p], vs[j])] += 1
            w = 1
            for c in counts.values():
                if c % 2 == 1:
                    w = 0
                    break
                w *= moments.gaussian_moment(c)
            total += w
    return total


# -- gaussian moments ---------------------------------------------------------


def test_gaussian_moment_values():
    assert moments.gaussian_moment(0) == 1
    assert moments.gaussian_moment(2) == 1
    assert moments.gaussian_moment(4) == 3
    assert moments.gaussian_moment(6) == 15
    assert moments.gaussian_moment(3) == 0
    assert moments.gaussian_moment(1) == 0


# -- shape enumeration --------------------------------------------------------


def test_census_p1():
    shapes = moments.enumerate_shapes(1)
    assert [s.seq for s in shapes] == [(1, 1), (1, 2)]


def test_census_p2_exact_list():
    expected = [
        (1, 1, 1, 1),
        (1, 1, 1, 2),
        (1, 1, 2, 1),
        (1, 2, 1, 1),
        (1, 2, 1, 2),
        (1, 2, 1, 3),
        (1, 2, 2, 2),
        (1, 2, 3, 2),
    ]
    assert [s.seq for s in moments.enumerate_shapes(2)] == sorted(expected)


@pytest.mark.parametrize("p", [1, 2, 3])
def test_census_closure_against_oracle(p):
    mine = {s.seq for s in moments.enumerate_shapes(p)}
    assert mine == oracle_shapes(p)


# p: (|S_2p|, bipartite count); p <= 3 from the exhaustive oracles, the rest
# computed once and frozen
CENSUS_SIZES = {1: (2, 1), 2: (8, 3), 3: (50, 12), 4: (433, 62), 5: (4805, 398), 6: (65032, 3062)}

# sha256 of repr(sorted seq list) for p = 1..5 in turn, computed once and frozen
SEQ_SHA256 = {
    "enumerate_shapes": "cdde8f27feaf1a44114171b6ba1db8ab084689d1d774f84a69a3877648f6e4f5",
    "enumerate_bipartite_shapes": "965b3d73737f6b8704681c708bb27ae11aa1b688292666ccd6a98a8d4514f9e7",
}


def test_census_sizes_frozen():
    for p, (plain, bipartite) in CENSUS_SIZES.items():
        assert len(moments.enumerate_shapes(p)) == plain, p
        assert len(moments.enumerate_bipartite_shapes(p)) == bipartite, p


@pytest.mark.parametrize("name", sorted(SEQ_SHA256))
def test_shape_sequences_frozen(name):
    h = hashlib.sha256()
    for p in range(1, 6):
        h.update(repr(sorted(s.seq for s in getattr(moments, name)(p))).encode())
    assert h.hexdigest() == SEQ_SHA256[name]


def test_shape_invariants():
    for p in (1, 2, 3):
        for s in moments.enumerate_shapes(p):
            # canonical labels appear in order
            seen = 0
            for lab in s.seq:
                assert lab <= seen + 1
                seen = max(seen, lab)
            assert s.m == max(s.seq) <= p + 1
            mults = s.multiplicity_counts()
            assert all(i % 2 == 0 for i in mults)  # evenness
            assert sum(i * c for i, c in mults.items()) == 2 * p
    with pytest.raises(SizeError):
        moments.enumerate_shapes(7)


def test_bipartite_census():
    assert len(moments.enumerate_bipartite_shapes(1)) == 1
    s = moments.enumerate_bipartite_shapes(1)[0]
    assert s.m1 == 1 and s.m2 == 1 and s.multiplicity_counts() == {2: 1}
    for p in (1, 2, 3):
        mine = {s.seq for s in moments.enumerate_bipartite_shapes(p)}
        assert mine == oracle_bipartite_shapes(p)
    assert len(moments.enumerate_bipartite_shapes(2)) == 3
    assert len(moments.enumerate_bipartite_shapes(3)) == 12


def test_bipartite_shape_invariants():
    for p in (1, 2, 3):
        for s in moments.enumerate_bipartite_shapes(p):
            assert s.m1 + s.m2 <= p + 1
            mults = s.multiplicity_counts()
            assert all(i % 2 == 0 for i in mults)
            assert sum(i * c for i, c in mults.items()) == 2 * p


# -- exact trace moments ------------------------------------------------------


def test_bruteforce_identity_p1():
    assert moments.trace_moment_bruteforce(coeffs.diagonal(2), 1, GAUSSIAN) == 2


def test_bruteforce_wigner2_p2():
    val = moments.trace_moment_bruteforce(coeffs.wigner(2), 2, GAUSSIAN)
    assert val == 20
    assert isinstance(val, int)


def test_bruteforce_second_moment_identity():
    # E Tr[X^2] = sum b_ij^2 for any pattern and unit-variance entries
    rng = np.random.default_rng(21)
    for _ in range(5):
        a = rng.integers(0, 2, (4, 4)).astype(float)
        a = np.triu(a) + np.triu(a, 1).T
        C = coeffs.CoefficientMatrix(a, "symmetric")
        assert moments.trace_moment_bruteforce(C, 1, GAUSSIAN) == int((a**2).sum())


def test_bruteforce_matches_exhaustive_oracle():
    rng = np.random.default_rng(22)
    for p in (1, 2):
        for _ in range(4):
            a = rng.integers(0, 2, (3, 3))
            a = np.triu(a) + np.triu(a, 1).T
            C = coeffs.CoefficientMatrix(a.astype(float), "symmetric")
            assert moments.trace_moment_bruteforce(C, p, GAUSSIAN) == oracle_gaussian_trace_moment(a, p)


def test_bruteforce_rademacher_dominated_by_gaussian():
    # with E[xi^2p] = 1 <= (2p-1)!!, rademacher trace moments never exceed
    # the gaussian ones on the same pattern
    for C in (coeffs.wigner(3), coeffs.band(4, 1)):
        for p in (1, 2, 3):
            rad = moments.trace_moment_bruteforce(C, p, RADEMACHER)
            gau = moments.trace_moment_bruteforce(C, p, GAUSSIAN)
            assert rad <= gau


def test_bruteforce_guard_and_kind():
    with pytest.raises(SizeError):
        moments.trace_moment_bruteforce(coeffs.wigner(100), 6, GAUSSIAN)
    rect = coeffs.CoefficientMatrix(np.ones((2, 3)), "rectangular")
    with pytest.raises(ParameterError):
        moments.trace_moment_bruteforce(rect, 1, GAUSSIAN)


@pytest.mark.parametrize("p", [7, 600])
def test_bruteforce_bounds_p_on_a_one_by_one_pattern(p):
    # 1^(2p) passes the n^(2p) guard at every p; the half-length guard
    # stops the walk before it recurses 2p deep
    with pytest.raises(SizeError, match="enumeration guard"):
        moments.trace_moment_bruteforce(coeffs.diagonal(1), p, GAUSSIAN)


def test_wigner_trace_moment_examples():
    for r in (2, 3, 5, 9):
        assert moments.wigner_trace_moment(r, 1) == r * r
    assert moments.wigner_trace_moment(3, 2) == 63
    assert moments.wigner_trace_moment(2, 1) == 4
    with pytest.raises(ParameterError):
        moments.wigner_trace_moment(3, 3)


def test_wigner_closed_form_equals_bruteforce():
    # exact integer equality across the full validity grid r <= 5, p <= 3
    for r in range(2, 6):
        for p in range(1, min(r, 4)):
            closed = moments.wigner_trace_moment(r, p)
            brute = moments.trace_moment_bruteforce(coeffs.wigner(r), p, GAUSSIAN)
            assert closed == brute, (r, p)


def test_falling_factorial_truncates():
    # the closed forms count injective maps with math.perm, which must be
    # the falling factorial r (r-1) ... (r-k+1), zero once it crosses zero
    def falling(x, k):
        out = 1
        for i in range(k):
            out *= x - i
        return out

    assert math.perm(3, 5) == falling(3, 5) == 0  # no injective maps
    assert math.perm(5, 3) == 60
    for r in range(1, 30):
        for k in range(12):
            assert math.perm(r, k) == falling(r, k), (r, k)


def test_moment_table_exact_ints():
    for dist, even in ((GAUSSIAN, [1, 1, 3, 15, 105, 945, 10395]), (RADEMACHER, [1] * 7)):
        table = moments._moment_table(dist, 12)
        assert table[0::2] == even and table[1::2] == [0] * 6
        assert all(type(v) is int for v in table)


# -- oracles that no command reaches, kept beside their tests -----------------

WEIGHT_ENUM_GUARD = 10**7  # guard on n^(m-1) for shape weight sums


def rect_trace_moment(r, rprime, p):
    """E Tr[(Y Y^T)^p] for the r x r' all-Gaussian matrix, exact.

    Sums r (r-1) ... (r-m2+1) * r' (r'-1) ... (r'-m1+1) * moment products
    over bipartite even-cycle shapes; valid for r > p/2 and r' > p/2.
    """
    if r < 1 or rprime < 1 or p < 1:
        raise ParameterError("r, r' and p must be >= 1")
    if not (r > p / 2 and rprime > p / 2):
        raise ParameterError(f"requires r > p/2 and r' > p/2, got r={r}, r'={rprime}, p={p}")
    return sum(
        math.perm(r, s.m2) * math.perm(rprime, s.m1) * _gaussian_weight(s)
        for s in moments.enumerate_bipartite_shapes(p)
    )


def shape_weight_check(C, s, u):
    """(lhs, rhs) of the per-shape coefficient-sum bound.

    lhs sums the coefficient product over all cycles with shape ``s``
    starting at vertex ``u`` (distinct vertices, injectively realized);
    rhs is sigma^(2 (m(s) - 1)).  Requires a symmetric pattern with
    sigma_star <= 1; the caller asserts lhs <= rhs.
    """
    if C.kind != "symmetric":
        raise ParameterError("shape weights are defined for symmetric patterns")
    params = _unit_sigma_star(C)
    n = C.rows
    m = s.m
    if n ** (m - 1) > WEIGHT_ENUM_GUARD:
        raise SizeError(f"n^(m-1) = {n}^{m - 1} exceeds the guard {WEIGHT_ENUM_GUARD}")
    if not 0 <= u < n:
        raise ParameterError(f"start vertex {u} out of range")
    adj = _adjacency(C)
    L = len(s.seq)
    steps = [(s.seq[idx] - 1, s.seq[(idx + 1) % L] - 1) for idx in range(L)]
    others = [v for v in range(n) if v != u]
    total = 0.0
    # injective maps of the labels 2..m into the other vertices, in lexicographic order
    for rest in itertools.permutations(others, m - 1):
        phi = (u, *rest)
        prod = 1.0
        for a, b in steps:
            prod *= adj[phi[a]].get(phi[b], 0.0)
            if prod == 0.0:
                break
        total += prod  # adding a zero product leaves total's bits unchanged
    rhs = params.sigma ** (2 * (m - 1))
    return total, rhs


def test_rect_trace_moment_examples():
    for r, rp in [(1, 1), (2, 3), (4, 2)]:
        assert rect_trace_moment(r, rp, 1) == r * rp
    assert rect_trace_moment(2, 3, 2) == oracle_rect_trace_moment(2, 3, 2)
    assert rect_trace_moment(3, 3, 2) == oracle_rect_trace_moment(3, 3, 2)
    assert rect_trace_moment(2, 2, 3) == oracle_rect_trace_moment(2, 2, 3)
    with pytest.raises(ParameterError):
        rect_trace_moment(1, 3, 2)  # needs r > p/2


def test_shape_weight_check_wigner():
    n = 6
    C = coeffs.wigner(n)
    edge = next(s for s in moments.enumerate_shapes(1) if s.seq == (1, 2))
    lhs, rhs = shape_weight_check(C, edge, 0)
    # distinct-vertex cycles give n-1 unit terms against sigma^2 = n
    assert lhs == pytest.approx(n - 1)
    assert rhs == pytest.approx(n)
    assert lhs <= rhs
    loop = next(s for s in moments.enumerate_shapes(1) if s.seq == (1, 1))
    lhs, rhs = shape_weight_check(C, loop, 0)
    assert lhs == pytest.approx(1.0) and rhs == pytest.approx(1.0)


def test_shape_weight_check_exhaustive_small():
    rng = np.random.default_rng(23)
    a = rng.integers(0, 2, (5, 5))
    a = np.triu(a) + np.triu(a, 1).T
    C = coeffs.CoefficientMatrix(a.astype(float), "symmetric")
    for p in (1, 2, 3):
        for s in moments.enumerate_shapes(p):
            for u in range(5):
                lhs, rhs = shape_weight_check(C, s, u)
                assert lhs <= rhs + 1e-9, (s.seq, u)


@pytest.mark.parametrize("shape", [(4, 2), (2, 4)])
def test_shape_weight_check_rejects_rectangular(shape):
    C = coeffs.CoefficientMatrix(np.ones(shape), "rectangular")
    s = next(s for s in moments.enumerate_shapes(2) if s.seq == (1, 2, 1, 3))
    with pytest.raises(ParameterError):
        shape_weight_check(C, s, 0)


def test_shape_weight_check_requires_small_sigma_star():
    C = coeffs.CoefficientMatrix(2.0 * np.ones((3, 3)), "symmetric")
    s = moments.enumerate_shapes(1)[0]
    with pytest.raises(ParameterError):
        shape_weight_check(C, s, 0)


def test_verify_comparison_identity_p1():
    lhs, rhs, holds = moments.verify_comparison(coeffs.diagonal(2), 1)
    assert lhs == 2
    assert rhs == Fraction(2, 2) * 4  # n/(ceil(sigma^2)+p) * E Tr[Y_2^2]
    assert holds


def test_verify_comparison_examples():
    assert moments.verify_comparison(coeffs.wigner(3), 2)[2]
    for p in (1, 2, 3):
        assert moments.verify_comparison(coeffs.band(5, 1), p)[2]


def test_verify_comparison_rescale_error():
    C = coeffs.CoefficientMatrix(3.0 * np.ones((3, 3)), "symmetric")
    with pytest.raises(ParameterError):
        moments.verify_comparison(C, 1)


def test_verify_comparison_rescaled_fractional_pattern():
    # non-0/1 values (exactly representable) exercise the float path
    a = np.ones((4, 4)) * 0.5
    C = coeffs.CoefficientMatrix(a, "symmetric")
    lhs, rhs, holds = moments.verify_comparison(C, 2)
    assert holds


@pytest.mark.parametrize(
    "build, p, error",
    [
        (lambda: coeffs.CoefficientMatrix(np.ones((3, 4)), "rectangular"), 1, ParameterError),
        (lambda: coeffs.CoefficientMatrix(3.0 * np.ones((3, 3)), "symmetric"), 1, ParameterError),
        (lambda: coeffs.CoefficientMatrix(np.zeros((3, 3)), "symmetric"), 1, ParameterError),
        (lambda: coeffs.wigner(100), 6, SizeError),
        (lambda: coeffs.diagonal(2), 7, SizeError),
    ],
    ids=["rectangular", "sigma_star", "zero", "guard", "half_length"],
)
def test_verify_comparison_checks_before_reading_the_pattern(monkeypatch, build, p, error):
    C = build()

    def read(self):
        raise AssertionError("the pattern was read before the precondition ran")

    monkeypatch.setattr(coeffs.CoefficientMatrix, "toarray", read)
    monkeypatch.setattr(coeffs.CoefficientMatrix, "nonzero_entries", read)
    with pytest.raises(error):
        moments.check_comparison(C, p)
    with pytest.raises(error):
        moments.verify_comparison(C, p)


@pytest.mark.parametrize("storage", ["dense", "sparse"])
def test_moment_engines_never_densify(monkeypatch, storage):
    a = coeffs.band(5, 1).toarray()
    C = coeffs.CoefficientMatrix(sp.csr_array(a) if storage == "sparse" else a, "symmetric")
    assert C.is_sparse == (storage == "sparse")
    s = next(s for s in moments.enumerate_shapes(2) if s.seq == (1, 2, 1, 3))
    expected = (
        moments.trace_moment_bruteforce(C, 3, GAUSSIAN),
        moments.verify_comparison(C, 3),
        shape_weight_check(C, s, 1),
    )

    def densify(self):
        raise AssertionError("a moment engine densified the pattern")

    monkeypatch.setattr(coeffs.CoefficientMatrix, "toarray", densify)
    assert moments.trace_moment_bruteforce(C, 3, GAUSSIAN) == expected[0]
    assert moments.verify_comparison(C, 3) == expected[1]
    assert shape_weight_check(C, s, 1) == expected[2]


def test_verify_comparison_memory_follows_the_nonzeros():
    # band(2000, 1) has 5,998 nonzeros; one dense float copy alone is 32 MB
    C = coeffs.band(2000, 1)
    coeffs.structural_params(C)
    tracemalloc.start()
    try:
        lhs, rhs, holds = moments.verify_comparison(C, 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20, peak
    assert lhs == 5998 and holds  # E Tr[X^2] = sum of b_ij^2
