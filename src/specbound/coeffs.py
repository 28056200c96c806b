"""Coefficient patterns (b_ij) and their structural parameters.

A CoefficientMatrix holds the deterministic scalars that multiply the random
entries.  Patterns below a 5% fill are kept in CSR form so that band matrices
at n = 1e5 stay affordable; everything else is a dense array.  scipy.sparse
is imported by the code that builds or reads a CSR, so a process whose
patterns are all dense (wigner, a dense file, any pattern that a builder
counts at 5% fill or more before it builds) never loads it.  A CSR pattern
stores exactly its nonzeros, so that every storage draws one variate per
nonzero coefficient (see ``sampling``).  A pattern owns
its storage and every buffer of it is read-only (a CSR's data, indices and
indptr alike), so it never changes after construction, whatever the caller
does to the matrix it was made from.

The parameter-only builders (wigner, diagonal, band, band_cyclic,
block_diagonal, single_entry, log_decay_diagonal) return the live pattern of
equal arguments, with its cached sampling plan and structural parameters,
while anything still holds it; nothing is kept alive for later calls.
"""

from __future__ import annotations

import csv
import functools
import math
import operator
import threading
import weakref
from dataclasses import dataclass

import numpy as np

from .errors import DataError, ParameterError
from .specnorm import _issparse, _max_abs, row_col_sumsq

SPARSE_FILL_THRESHOLD = 0.05
FILE_SYMMETRY_TOL = 1e-12


@dataclass(frozen=True)
class StructuralParams:
    """Row/column Euclidean norms and the uniform parameter of a pattern.

    sigma is the largest row norm, sigma_star the largest |b_ij|; sigma1 and
    sigma2 are the row and column versions for rectangular patterns (all
    three coincide with sigma for symmetric ones).
    """

    sigma: float
    sigma_star: float
    sigma1: float
    sigma2: float


class CoefficientMatrix:
    """Immutable coefficient pattern, symmetric or rectangular.

    The constructor neither edits nor keeps ``entries``: the pattern stores
    its own read-only copy.
    """

    def __init__(self, entries, kind, sym_tol=0.0):
        if kind not in ("symmetric", "rectangular"):
            raise ParameterError(f"unknown kind {kind!r}")
        if _issparse(entries):
            # a symmetric pattern's own copy comes from the symmetry check
            data = _canonical_csr(entries, copy=kind == "rectangular")
            values = data.data
        else:
            data = np.array(entries, dtype=float)
            if data.ndim != 2:
                raise DataError("entries must be a 2-d array")
            values = data
        if data.shape[0] < 1 or data.shape[1] < 1:
            raise ParameterError("dimensions must be >= 1")
        if values.size and not np.all(np.isfinite(values)):
            raise DataError("entries must be finite")
        if kind == "symmetric":
            if data.shape[0] != data.shape[1]:
                raise ParameterError("symmetric pattern must be square")
            data = _mirrored_exactly(data, sym_tol)
        for buf in (data,) if isinstance(data, np.ndarray) else (data.data, data.indices, data.indptr):
            buf.setflags(write=False)
        self._data = data
        self.kind = kind
        self.rows, self.cols = data.shape

    # -- basic accessors -------------------------------------------------

    @property
    def data(self):
        """Underlying ndarray or CSR array (read-only)."""
        return self._data

    @property
    def is_sparse(self):
        return _issparse(self._data)

    @property
    def nnz(self):
        if self.is_sparse:
            return self._data.nnz
        return int(np.count_nonzero(self._data))

    def toarray(self):
        """b_ij as a fresh writable dense array, whatever the storage."""
        if self.is_sparse:
            return self._data.toarray()
        return self._data.copy()

    def nonzero_entries(self):
        """(i, j, b_ij) of all nonzeros in row-major order."""
        if self.is_sparse:
            # the canonical CSR lists its nonzeros row-major
            coo = self._data.tocoo()
            return coo.row, coo.col, coo.data
        i, j = np.nonzero(self._data)
        return i, j, np.asarray(self._data)[i, j]

    def __repr__(self):
        storage = "sparse" if self.is_sparse else "dense"
        return (
            f"CoefficientMatrix({self.rows}x{self.cols}, {self.kind}, "
            f"{storage}, nnz={self.nnz})"
        )


def _canonical_csr(M, copy=False):
    """M as a canonical float CSR of exactly its nonzeros, int32-indexed where that fits.

    M is never edited.  A canonical CSR free of stored zeros shares its
    buffers with the result unless ``copy``; any other CSR is canonicalized
    and pruned in a copy, and any other format converts into new buffers.
    """
    data = M.tocsr()
    copy = data is M and (copy or not data.has_canonical_format)
    shared = data is M and not copy
    # int32 halves the index bytes of int64, and samples, plans and
    # transposes inherit the width
    idx = np.int32 if max(data.nnz, *data.shape) < 2**31 else data.indices.dtype
    data = type(data)(
        (
            data.data.astype(float, copy=copy),
            data.indices.astype(idx, copy=copy),
            data.indptr.astype(idx, copy=copy),
        ),
        shape=data.shape,
    )
    data.sum_duplicates()
    if not data.data.all():  # prune only when a zero is stored, never in M's buffers
        data = data.copy() if shared else data
        data.eliminate_zeros()
    return data


def _mirrored_exactly(data, sym_tol):
    """A square pattern that is symmetric within ``sym_tol``, stored exactly mirrored.

    A pattern whose two triangles already agree bit for bit is kept: a dense
    one as it is, a sparse one as the transpose the check builds, which has
    the same structure and value bits and, unlike ``data``, shares no buffer
    with the caller's matrix.  Otherwise the gap max |b_ij - b_ji| is checked
    against ``sym_tol`` and the pattern rebuilt from its upper triangle, so
    that every b_ji is b_ij itself: a one-sided entry is mirrored (above the
    diagonal) or dropped (below it).  Sampling relies on this: a sample draws
    one variate per nonzero b_ij with i <= j and multiplies the mirrored
    variates by the stored values.
    """
    dense = not _issparse(data)
    if dense:
        bits = data.view(np.int64)  # bitwise, so that -0.0 and 0.0 differ too
        if np.array_equal(bits, bits.T):
            return data
        gap = np.abs(data - data.T).max()
    else:
        T = data.T.tocsr()
        if np.array_equal(T.indptr, data.indptr) and np.array_equal(T.indices, data.indices):
            if np.array_equal(T.data.view(np.int64), data.data.view(np.int64)):
                return T
            # same structure: the gap is slot by slot, in T's buffer
            np.subtract(data.data, T.data, out=T.data)
            gap = np.abs(T.data, out=T.data).max()
        else:
            # a nonzero whose mirror is not stored
            gap = abs(data - T).data.max()
        del T
    if gap > sym_tol:
        raise DataError(f"pattern is not symmetric (max asymmetry {gap:g} > tol {sym_tol:g})")
    if dense:
        return np.where(np.tri(data.shape[0], k=-1, dtype=bool), data.T, data)
    import scipy.sparse as sp

    return _canonical_csr(sp.triu(data, format="csr") + sp.triu(data, k=1, format="csr").T)


def _sparse_fill(nnz, n, m):
    """True when ``nnz`` entries fill less than the threshold of an n x m
    pattern, which is then stored as CSR; a denser one is built with numpy
    alone, so that it never imports scipy.sparse."""
    return nnz < SPARSE_FILL_THRESHOLD * n * m


def _pack(rows, cols, vals, n, m, kind):
    """Store triples as CSR below the fill threshold, dense otherwise."""
    if not _sparse_fill(len(vals), n, m):
        A = np.zeros((n, m))
        np.add.at(A, (rows, cols), vals)  # 0.0 + v per slot, as the CSR's toarray
        return CoefficientMatrix(A, kind)
    import scipy.sparse as sp

    return CoefficientMatrix(sp.coo_array((vals, (rows, cols)), shape=(n, m)).tocsr(), kind)


# (builder, (type, value) of each argument) -> the live pattern it built
_LIVE = weakref.WeakValueDictionary()
_LIVE_LOCK = threading.Lock()  # one build per live pattern when builders run on threads
_CACHE_LOCK = threading.Lock()  # one compile per pattern and name; no compile may call _cached


def _interned(builder):
    """``builder`` that returns the live pattern built from equal arguments.

    Arguments match by type and value, so a float or bool argument never
    gets a pattern built from an int.  A pattern stays only while something
    else holds it, and a build that raises stores nothing.
    """

    @functools.wraps(builder)
    def build(*args):
        key = (builder, *((type(a), a) for a in args))
        with _LIVE_LOCK:
            try:
                return _LIVE[key]
            except KeyError:
                pass
            except TypeError:  # an unhashable argument, which the builder rejects
                return builder(*args)
            C = _LIVE[key] = builder(*args)
            return C

    return build


def _cached(C, name, compile):
    """compile(C), computed once per pattern and kept as its attribute ``name``."""
    with _CACHE_LOCK:
        if not hasattr(C, name):
            setattr(C, name, compile(C))
        return getattr(C, name)


def _check_dim(n):
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise ParameterError(f"dimension must be a positive integer, got {n!r}")
    return int(n)


@_interned
def wigner(n):
    """All-ones n x n symmetric pattern; the constructor's copy is its only n x n array."""
    n = _check_dim(n)
    return CoefficientMatrix(np.broadcast_to(1.0, (n, n)), "symmetric")


def _diagonal_pattern(vals):
    """The symmetric pattern diag(vals) of nonzero ``vals``."""
    n = len(vals)
    if not _sparse_fill(n, n, n):
        return CoefficientMatrix(np.diag(vals), "symmetric")
    import scipy.sparse as sp

    return CoefficientMatrix(sp.diags_array(vals, format="csr"), "symmetric")


@_interned
def diagonal(n):
    """Identity pattern."""
    return _diagonal_pattern(np.ones(_check_dim(n)))


def _band_mask(n, k):
    """|i - j| <= k as an n x n bool array: j - i <= k, minus j - i <= -k - 1."""
    return np.tri(n, k=k, dtype=bool) ^ np.tri(n, k=-k - 1, dtype=bool)


@_interned
def band(n, k):
    """b_ij = 1 iff |i - j| <= k: the 2k + 1 diagonals -k .. k."""
    n = _check_dim(n)
    if not 0 <= k < n:
        raise ParameterError(f"band requires 0 <= k < n, got k={k}, n={n}")
    k = int(k)
    if not _sparse_fill((2 * k + 1) * n - k * (k + 1), n, n):
        return CoefficientMatrix(_band_mask(n, k), "symmetric")
    import scipy.sparse as sp

    mat = sp.diags_array([1.0] * (2 * k + 1), offsets=range(-k, k + 1), shape=(n, n), format="csr")
    return CoefficientMatrix(mat, "symmetric")


@_interned
def band_cyclic(n, k):
    """Wrap-around band: b_ij = 1 iff |i - j| mod n <= k.

    Every row has exactly 2k + 1 ones, which is what the sparse-matrix phase
    transition statement assumes; requires 2k + 1 <= n so the wrapped
    diagonals do not collide.
    """
    n = _check_dim(n)
    if not 0 <= k < n or 2 * int(k) + 1 > n:
        raise ParameterError(f"band_cyclic requires 0 <= 2k+1 <= n, got k={k}, n={n}")
    k = int(k)
    w = 2 * k + 1
    if not _sparse_fill(n * w, n, n):
        # |j - i| <= k, j - i >= n - k, i - j >= n - k; disjoint since w <= n
        near = _band_mask(n, k)
        near |= ~np.tri(n, k=n - k - 1, dtype=bool)
        near |= np.tri(n, k=k - n, dtype=bool)
        return CoefficientMatrix(near, "symmetric")
    import scipy.sparse as sp

    # row i holds columns i-k .. i+k mod n, distinct since w <= n; with
    # indptr and cols both in the pattern's index width, the CSR and the
    # pattern take cols without a copy
    idx = np.int32 if n * w < 2**31 else np.int64
    cols = np.arange(n, dtype=idx)[:, None] + np.arange(-k, k + 1, dtype=idx)
    cols %= n
    cols.sort(axis=1)
    mat = sp.csr_array((np.ones(n * w), cols.ravel(), np.arange(0, n * w + 1, w, dtype=idx)), shape=(n, n))
    return CoefficientMatrix(mat, "symmetric")


@_interned
def block_diagonal(n, k):
    """n/k diagonal blocks of all ones; k must divide n."""
    n = _check_dim(n)
    k = _check_dim(k)
    if n % k != 0:
        raise ParameterError(f"block_diagonal requires k | n, got n={n}, k={k}")
    if not _sparse_fill(n * k, n, n):
        block = np.arange(n) // k
        return CoefficientMatrix(block[:, None] == block, "symmetric")
    import scipy.sparse as sp

    # I_(n/k) (x) J_k
    return CoefficientMatrix(sp.kron(sp.eye_array(n // k), np.ones((k, k)), format="csr"), "symmetric")


@_interned
def single_entry(n):
    """b_11 = 1, all other entries zero."""
    n = _check_dim(n)
    return _pack(np.array([0]), np.array([0]), np.ones(1), n, n, "symmetric")


@_interned
def log_decay_diagonal(n):
    """Diagonal pattern b_ii = min(1, 1/sqrt(log i)).

    1/sqrt(log i) is undefined at i = 1 and exceeds 1 at i = 2, so both are
    capped at 1; this keeps sigma_star = 1 while preserving the slow decay
    of the rest of the diagonal.
    """
    n = _check_dim(n)
    i = np.arange(1, n + 1, dtype=float)
    vals = np.ones(n)
    if n > 1:
        vals[1:] = np.minimum(1.0, 1.0 / np.sqrt(np.log(i[1:])))
    return _diagonal_pattern(vals)


# name -> (builder, number of parameters); the registry of named patterns
PATTERNS = {
    "wigner": (wigner, 1),
    "diagonal": (diagonal, 1),
    "band": (band, 2),
    "band_cyclic": (band_cyclic, 2),
    "block_diagonal": (block_diagonal, 2),
    "single_entry": (single_entry, 1),
    "log_decay_diagonal": (log_decay_diagonal, 1),
}


def _int_param(kind, p):
    """An integer pattern parameter, given as an integer or as its decimal text."""
    try:
        return int(p) if isinstance(p, str) else operator.index(p)
    except (TypeError, ValueError):
        raise ParameterError(f"pattern {kind} takes integer parameters, got {p!r}") from None


def build_pattern(kind, params=()):
    """Build a named pattern from its integer parameters (or their text)."""
    if kind not in PATTERNS:
        raise ParameterError(f"unknown pattern {kind!r}; expected one of {', '.join(PATTERNS)}")
    builder, arity = PATTERNS[kind]
    if len(params) != arity:
        raise ParameterError(f"pattern {kind} takes {arity} parameter(s), got {len(params)}")
    return builder(*[_int_param(kind, p) for p in params])


# -- structural parameters --------------------------------------------------


def structural_params(C):
    """sigma, sigma_star, sigma1, sigma2 of a pattern; computed once and cached on it."""
    return _cached(C, "_structural_params", _structural_params)


def _structural_params(C):
    row, col = row_col_sumsq(C.data)
    sigma1 = math.sqrt(row.max(initial=0.0))
    sigma2 = math.sqrt(col.max(initial=0.0))
    sigma_star = _max_abs(C.data)
    if C.kind == "symmetric":
        sigma = max(sigma1, sigma2)
        return StructuralParams(sigma, sigma_star, sigma, sigma)
    return StructuralParams(max(sigma1, sigma2), sigma_star, sigma1, sigma2)


def lp_entrywise_norm(C, p):
    """Entrywise l_p norm over all (i, j) pairs (both triangles counted)."""
    if p < 1:
        raise ParameterError(f"p must be >= 1, got {p}")
    A = C.data.data if C.is_sparse else np.asarray(C.data).ravel()
    vals = A[A != 0]  # the one nnz-sized buffer: the rest is in place
    np.abs(vals, out=vals)
    if vals.size == 0:
        return 0.0
    # factor out the max to keep the powers in range for large p
    top = vals.max()
    vals /= top
    vals **= p
    return float(top * vals.sum() ** (1.0 / p))


# -- file input / output -----------------------------------------------------


def load_dense_csv(path, kind="rectangular"):
    """Dense CSV: n rows x m columns of numbers, no header."""
    rows = []
    with open(path, newline="") as fh:
        for line in csv.reader(fh):
            if not line:
                continue
            try:
                rows.append([float(x) for x in line])
            except ValueError as exc:
                raise DataError(f"non-numeric field in {path}: {exc}") from None
    if not rows:
        raise DataError(f"empty matrix file: {path}")
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise DataError(f"ragged rows in {path}")
    arr = np.array(rows, dtype=float)
    return CoefficientMatrix(arr, kind, sym_tol=FILE_SYMMETRY_TOL)


def load_sparse_csv(path, kind="symmetric"):
    """Sparse CSV triples "i,j,value" (0-based).

    Symmetric files carry the upper triangle only; the lower triangle is
    mirrored on load.  The shape is 1 + the largest index seen, so a file
    with no triples is refused.  An entry listed twice is refused, not
    summed.
    """
    ri, ci, vals, seen = [], [], [], set()
    with open(path, newline="") as fh:
        for line in csv.reader(fh):
            if not line:
                continue
            if len(line) != 3:
                raise DataError(f"sparse file {path} must have rows 'i,j,value'")
            try:
                i, j, v = int(line[0]), int(line[1]), float(line[2])
            except ValueError as exc:
                raise DataError(f"malformed field in {path}: {exc}") from None
            if i < 0 or j < 0:
                raise DataError("indices must be >= 0")
            if kind == "symmetric" and i > j:
                raise DataError("symmetric sparse file must store the upper triangle only")
            if (i, j) in seen:
                raise DataError(f"repeated entry ({i}, {j}) in {path}")
            seen.add((i, j))
            ri.append(i)
            ci.append(j)
            vals.append(v)
    if not vals:
        raise DataError(f"empty matrix file: {path}")
    n, m = max(ri) + 1, max(ci) + 1
    if kind == "symmetric":
        n = m = max(n, m)
        extra = [(j, i, v) for i, j, v in zip(ri, ci, vals) if i != j]
        ri = ri + [e[0] for e in extra]
        ci = ci + [e[1] for e in extra]
        vals = vals + [e[2] for e in extra]
    return _pack(np.array(ri, dtype=int), np.array(ci, dtype=int), np.array(vals, dtype=float), n, m, kind)


def write_matrix_csv(M, path, symmetric):
    """Write a realized matrix in the package's CSV formats.

    Sparse matrices go out as triples (upper triangle only when
    ``symmetric``); dense ones as a plain numeric grid.
    """
    if _issparse(M):
        import scipy.sparse as sp

        coo = (sp.triu(M, k=0) if symmetric else M).tocoo()
        order = np.lexsort((coo.col, coo.row))
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            for i, j, v in zip(coo.row[order], coo.col[order], coo.data[order]):
                w.writerow([int(i), int(j), repr(float(v))])
    else:
        arr = np.asarray(M)
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            for row in arr:
                w.writerow([repr(float(v)) for v in row])
