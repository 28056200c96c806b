"""Spectral norm of realized matrices.

Dispatch is on storage and size alone; no caller picks the solver.
Dense arrays up to DENSE_THRESHOLD go through LAPACK (eigvalsh / svd).
Sparse and banded input (``BandedMatrix``, the layout of the Monte Carlo
trials of band patterns), whatever its size, and larger dense arrays go to
ARPACK's implicitly restarted Lanczos (``eigsh(k=1, which="LM")``), which
returns the eigenvalue of largest magnitude, i.e. max(|lambda_min|,
|lambda_max|), from a fixed start vector.  Only sparse operators too small
for ARPACK (dim <= 2) are densified; a banded matrix always has n > 2.
Zero and diagonal matrices are read off exactly.  Rectangular inputs are
handled through the symmetric dilation [[0, X], [X^T, 0]], whose norm
equals the largest singular value.

ARPACK's Krylov iteration on sparse input runs in single precision when
``tol >= 1e-5`` (``_SINGLE_TOL``) and in double precision below it.
float32's unit roundoff (6e-8) sits far below such tolerances: over band
samples at tol 1e-4 and 1e-5 both precisions took the same matvec counts
and reached the same true residuals, while at 3e-6 the float32 residual
overshot tol (1.1 x tol against 0.99 x tol in float64), hence the cut at
1e-5.  The iteration uses a float32 copy of the input's values over its
own index arrays, or for banded input the float32 layout of all its
diagonals, whose DIA matvec reads no column index per value (0.58 ms
against 1.46 ms for CSR on a band_cyclic(2^14, 46) sample).  A banded
matrix stores only its diagonals s >= 0 in float64, each -s being the
mirror of s; its own float64 matvec and row sums read -s from s and add in
the order of scipy's DIA matvec on the full layout, so they equal it bit
for bit (1.5 ms against 0.8 ms on that sample, once per solve).  An input
whose largest entry lies outside
[2^-64, 2^64] is first scaled by a power of two, so no magnitude
representable in float64 overflows float32 or flushes to zero.
Dense input keeps the float64 operator at every tol: its O(n^2) matvec
outweighs the O(n * ncv) basis work that float32 would speed up.
Whatever the iteration's precision, the Ritz vector is taken to float64
and one float64 matvec of the input itself gives the reported value (the
Rayleigh quotient) and its residual.

scipy.sparse and scipy.sparse.linalg are imported where a sparse or banded
matrix is built or solved, and ``_issparse`` tests for sparse input without
the import.  The OpenBLAS thread pin finds scipy's library through
``importlib.util.find_spec``, which does not import scipy, so a process
that only solves dense matrices never loads scipy at all.

An ARPACK solve runs on one BLAS thread: its level-1/2 work on an n x 20
basis gains nothing from a second OpenBLAS thread, which mostly spins.
``_single_blas_thread`` is the pin; the Monte Carlo layer takes it around
every trial loop and the single solves behind its output, so dense LAPACK
results there do not depend on the BLAS thread count.  The pin covers
processes that set a BLAS thread count or imported numpy before
specbound; any other process loads OpenBLAS with one thread (see the
package docstring), so a dense LAPACK solve called directly runs on one
thread there too, and on the process's BLAS threads otherwise.
"""

from __future__ import annotations

import math
import sys
import threading
from dataclasses import dataclass

import numpy as np

from .errors import DataError, NonConvergenceError, ParameterError, SizeError

DENSE_THRESHOLD = 2048      # dense arrays switch from LAPACK to ARPACK above this
EIG_DENSE_THRESHOLD = 4096  # full-spectrum cap for eigenvalues_all

_START_SEED = 0x5BEC7B0  # fixed start vector; keeps runs bit-reproducible
_SINGLE_TOL = 1e-5  # ARPACK iterates in float32 at tol >= this

# (package, library glob beside it, get symbol, set symbol) of the OpenBLAS
# builds that the numpy and scipy wheels bundle
_OPENBLAS = (
    ("numpy", "numpy.libs/libscipy_openblas64_*.so",
     "scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("scipy", "scipy.libs/libscipy_openblas-*.so",
     "scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
)


def _openblas_libraries():
    """(path, get symbol, set symbol) of each bundled OpenBLAS on disk.

    ``find_spec`` locates a package without importing it, so the lookup
    never loads scipy into a process that only solves dense matrices.
    """
    import glob
    import importlib.util
    import os

    found = []
    for package, pattern, get_name, set_name in _OPENBLAS:
        where = os.path.dirname(importlib.util.find_spec(package).origin)
        libs = glob.glob(os.path.join(where, os.pardir, pattern))
        if libs:
            found.append((libs[0], get_name, set_name))
    return found


def _loaded_handle(path, get_name, set_name):
    """(get, set) thread-count functions of a library the process has
    already loaded; None if it has not loaded it.

    RTLD_NOLOAD finds a loaded library and never loads one: a process that
    only solves dense matrices never maps scipy's OpenBLAS (~1.5 MB RSS),
    and the pin must not map it either.
    """
    import ctypes
    import os

    try:
        lib = ctypes.CDLL(path, mode=os.RTLD_NOLOAD)
        get, set_ = getattr(lib, get_name), getattr(lib, set_name)
    except (OSError, AttributeError):
        return None
    get.argtypes, get.restype = [], ctypes.c_int
    set_.argtypes, set_.restype = [ctypes.c_int], None
    return get, set_


def _openblas_handles():
    """(get, set) thread-count functions of each bundled OpenBLAS loaded."""
    return [h for h in (_loaded_handle(*lib) for lib in _openblas_libraries()) if h]


class _SingleBlasThread:
    """Pins the loaded bundled OpenBLAS pools to one thread while any user
    is inside.

    Re-entrant and shared by threads: the outermost entry saves each
    library's thread count and sets it to 1, the last exit restores it, so
    a trial thread that finishes early never unpins its siblings.  The
    libraries are looked up on disk on first entry; one not loaded yet is
    probed again on every entry, so a library first loaded inside the pin
    (scipy's, by the first ARPACK import in a trial pool) is pinned from
    the next entry on, nested or not.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._depth = 0
        self._unloaded = None  # libraries on disk not seen loaded yet
        self._handles = []
        self._saved = []

    def _probe(self):
        """Handles of the libraries loaded since the last probe."""
        if self._unloaded is None:
            self._unloaded = _openblas_libraries()
        new = []
        for lib in list(self._unloaded):
            handle = _loaded_handle(*lib)
            if handle is not None:
                self._unloaded.remove(lib)
                new.append(handle)
        self._handles += new
        return new

    def __enter__(self):
        with self._lock:
            new = self._probe()
            pin = self._handles if self._depth == 0 else new
            for get, set_ in pin:
                self._saved.append((set_, get()))
                set_(1)
            self._depth += 1

    def __exit__(self, *exc):
        with self._lock:
            self._depth -= 1
            if self._depth == 0:
                for set_, count in self._saved:
                    set_(count)
                self._saved = []


# BLAS thread counts are process-wide, so there is one pin per process
_single_blas_thread = _SingleBlasThread()


@dataclass
class NormResult:
    value: float
    method: str
    iterations: int
    rel_error_bound: float


class BandedMatrix:
    """A symmetric n x n matrix stored on its cyclic diagonals s >= 0.

    ``offsets`` lists the d distinct cyclic offsets s = (j - i) mod n of its
    entries, taken in (-n/2, n/2] and ascending from lo to hi.  ``data``
    holds one row of length n for each offset s >= 0, in that order: entry
    (i, (i + s) mod n) at column i.  Diagonal -s is the mirror of diagonal
    s, X[i, i - s] = X[i - s, i], so it is not stored.
    The matrix is symmetric by construction (``sampling.trial_sample``
    makes it); nothing checks it.

    ``full`` lays out all d diagonals.  ``X @ x`` and ``row_col_sumsq`` sum
    over that layout, in its order, without laying it out.
    """

    def __init__(self, data, offsets):
        lo, n = int(offsets[0]), data.shape[1]
        self.data, self.offsets = data, offsets
        self.shape = (n, n)
        # x index of each column of the full layout
        self.wrap = np.arange(lo, n + int(offsets[-1]))
        self.wrap %= n

    def _stored(self):
        """(s, row of ``data`` holding diagonal |s|) for each offset, ascending."""
        first = self.offsets.shape[0] - self.data.shape[0]
        rows = np.searchsorted(self.offsets, np.abs(self.offsets)) - first
        return zip(self.offsets.tolist(), rows.tolist())

    def full(self, dtype=np.float64, scale=1.0):
        """The d x W layout (W = n + hi - lo) of the values times ``scale``.

        Row k holds the diagonal ``offsets[k]`` = s, entry (i, (i + s) mod n)
        at column i + s - lo, and 0 in every other slot.  That is the n x W
        ``dia_array`` ext (diagonal s at offset s - lo), and X @ x =
        ext @ x[wrap].  So the wrapped entries of a cyclic band take W - n
        columns, not a diagonal of length n each.
        """
        n, lo = self.shape[0], int(self.offsets[0])
        out = np.zeros((self.offsets.shape[0], self.wrap.shape[0]), dtype)
        for (s, r), line in zip(self._stored(), out):
            window, row = line[s - lo : s - lo + n], self.data[r]
            if scale != 1.0:
                row = row * scale  # in float64, then cast as it is copied
            t = max(-s, 0)  # the row of -s is the row of s rolled by s
            window[t:] = row[: n - t]
            window[:t] = row[n - t :]
        return out

    def _sum(self, rows, x):
        """y[i] = sum_s rows[s][i] x[(i + s) mod n] over every offset s,
        ascending, the row of -s read from the row of s.

        Bit for bit scipy's DIA matvec of the full layout, which adds each
        row's terms to 0.0 in offset order and reads no slot outside the
        diagonals' windows.
        """
        n, lo = self.shape[0], int(self.offsets[0])
        xw = x[self.wrap]
        y = np.zeros(n)
        for s, r in self._stored():
            if s >= 0:
                y += rows[r] * xw[s - lo : s - lo + n]
            else:
                # X[i, i + s] x[i + s] = X[i + s, i] x[i + s]: (row |s| * x) rolled by |s|
                p = rows[r] * x
                y[-s:] += p[: n + s]
                y[:-s] += p[n + s :]
        return y

    def __matmul__(self, x):
        return self._sum(self.data, x)

    def _ext(self, dtype=np.float64, scale=1.0):
        import scipy.sparse as sp

        shape = (self.shape[0], self.wrap.shape[0])
        return sp.dia_array((self.full(dtype, scale), self.offsets - self.offsets[0]), shape=shape)

    def operator(self, dtype, scale):
        """x -> (scale * X) @ x by scipy's DIA matvec of ``full(dtype, scale)``."""
        ext, wrap = self._ext(dtype, scale), self.wrap
        return lambda x: ext @ x[wrap]


def _issparse(x):
    # scipy.sparse.issparse(x) without the import: no sparse array exists
    # before it, nor while another thread is still importing it
    issparse = getattr(sys.modules.get("scipy.sparse"), "issparse", None)
    return issparse is not None and issparse(x)


def _max_abs(M):
    # max |x| without an |x| copy; NaN propagates through max and min
    a = M.data if _issparse(M) or isinstance(M, BandedMatrix) else np.asarray(M)
    return abs(float(max(a.max(), -a.min()))) if a.size else 0.0


def _is_symmetric(M):
    if M.shape[0] != M.shape[1]:
        return False
    if _issparse(M):
        d = M - M.T
        return d.nnz == 0 or float(np.abs(d.data).max()) == 0.0
    return np.array_equal(M, np.asarray(M).T)


def _is_diagonal(M):
    # a nonzero stored off the diagonal makes the first count the larger
    # one; more nonzeros than diagonal slots settles it without the diagonal
    stored = np.count_nonzero(M.data if _issparse(M) else np.asarray(M))
    return bool(stored <= min(M.shape) and stored == np.count_nonzero(M.diagonal()))


def _start_vector(n):
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(_START_SEED)))
    v = rng.standard_normal(n)
    return v / np.linalg.norm(v)


def spectral_norm(M, tol=1e-6, *, symmetric=None):
    """Spectral norm (largest singular value) of a real matrix.

    Symmetric inputs use the largest |eigenvalue|; rectangular ones go
    through the symmetric dilation.  Storage picks the solver: dense arrays
    up to n = DENSE_THRESHOLD go to LAPACK (``dense_eig``), larger dense
    arrays and every sparse or banded input to ARPACK (``lanczos``), and a
    zero or diagonal matrix is read off exactly.  ``symmetric=True``
    asserts that M is exactly symmetric, as samples of a symmetric pattern
    are by construction, and skips the check that ``None`` runs.  ``iterations``
    is the ARPACK matvec count and ``rel_error_bound`` the true residual
    ||Xv - lambda v|| / |lambda|.

    A ``BandedMatrix`` is symmetric by construction and never checked; it
    is diagonal exactly when its only offset is 0.

    ARPACK iterates in float32 on sparse and banded input when
    ``tol >= 1e-5`` (the Monte Carlo default 1e-4 among them) and in float64 below, where
    float32 rounding would no longer stay under tol; dense input iterates
    in float64.  At either precision ``value`` is the
    float64 Rayleigh quotient lambda = v^T X v of the normalized Ritz vector
    v on the input itself, and ``rel_error_bound`` its float64 residual, so
    by Weyl's inequality an eigenvalue of X lies within
    ``rel_error_bound * value`` of ``value``.
    """
    if tol <= 0:
        raise ParameterError(f"tol must be > 0, got {tol}")
    # one read for both checks: NaN propagates through max, Inf stays Inf
    peak = _max_abs(M)
    if not math.isfinite(peak):
        raise DataError("matrix contains NaN or Inf entries")
    n, m = M.shape
    if peak == 0.0:
        return NormResult(0.0, "dense_eig", 0, 0.0)
    banded = isinstance(M, BandedMatrix)
    stored = banded or _issparse(M)
    if symmetric is None:
        symmetric = banded or _is_symmetric(M)
    dim = n if symmetric else n + m
    # a banded matrix is diagonal when its only offset is 0
    if n == m and (M.offsets.tolist() == [0] if banded else _is_diagonal(M)):
        # exact: the spectrum of a diagonal matrix is its diagonal
        return NormResult(peak, "dense_eig", 0, 0.0)

    # dim <= 2 is too small for eigsh(k=1); a banded matrix has n > 2
    if (not stored and max(n, m) <= DENSE_THRESHOLD) or dim <= 2:
        A = M.toarray() if stored else np.asarray(M, dtype=float)
        if symmetric:
            w = np.linalg.eigvalsh(A)
            value = float(max(-w[0], w[-1]))
        else:
            value = float(np.linalg.svd(A, compute_uv=False)[0])
        return NormResult(value, "dense_eig", 0, float(np.finfo(float).eps) * max(n, m))

    return _arpack_norm(M, symmetric, tol, peak)


def _arpack_norm(M, symmetric, tol, peak):
    """Largest |eigenvalue| of M (of its dilation if not symmetric) by eigsh;
    ``peak`` is max |entry| of M."""
    # imported on first use: runs that only solve dense matrices skip its
    # import time and memory
    import scipy.sparse as sp
    from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigsh

    n, m = M.shape
    dim = n if symmetric else n + m
    banded = isinstance(M, BandedMatrix)
    X = M if banded or _issparse(M) else np.asarray(M, dtype=float)

    def matvec_of(A):
        if symmetric:
            return A.__matmul__

        # dilation [[0, A], [A^T, 0]]: norm equals the top singular value
        def matvec(z):
            return np.concatenate([A @ z[n:], A.T @ z[:n]])

        return matvec

    exact = matvec_of(X)
    if tol < _SINGLE_TOL or not (banded or _issparse(X)):
        scale, dtype, matvec = 1.0, np.float64, exact
    else:
        # float32 values over the input's own structure: its CSR index
        # arrays, or its banded full layout.  A peak outside [2^-64, 2^64] is
        # first scaled by the power of two that puts it in [0.5, 1): exactly,
        # and so that values, matvecs and Lanczos coefficients (at most
        # 2^31 * peak) stay inside float32's range.  Inputs of ordinary
        # magnitude iterate on their own values.
        e = math.frexp(peak)[1]
        scale = math.ldexp(1.0, -e) if abs(e) > 64 else 1.0
        dtype = np.float32
        if banded:
            matvec = X.operator(dtype, scale)
        else:
            Y = X.tocsr()
            values = np.empty(Y.data.shape, dtype)
            np.multiply(Y.data, scale, out=values, casting="same_kind")
            matvec = matvec_of(sp.csr_array((values, Y.indices, Y.indptr), shape=Y.shape))
            del Y, values

    calls = 0

    def counted(z):
        nonlocal calls
        calls += 1
        return matvec(z)

    op = LinearOperator((dim, dim), matvec=counted, dtype=dtype)
    # entered after the import, which loads scipy's OpenBLAS: the pin then
    # covers that library even when an outer pin was taken before it loaded
    with _single_blas_thread:
        try:
            _, v = eigsh(op, k=1, which="LM", tol=tol, v0=_start_vector(dim).astype(dtype))
        except ArpackNoConvergence as exc:
            best = None
            if len(exc.eigenvalues):
                top = float(np.abs(exc.eigenvalues).max()) / scale
                best = NormResult(top, "lanczos", calls, math.nan)
            raise NonConvergenceError(
                f"ARPACK did not reach tol={tol:g} after {calls} matvecs", best=best
            ) from exc
        del op, matvec  # frees the float32 values before the float64 matvec
        v = v[:, 0].astype(np.float64)
        v /= np.linalg.norm(v)
        Xv = exact(v)
        lam = float(v @ Xv)  # Rayleigh quotient
        rel = float(np.linalg.norm(Xv - lam * v)) / abs(lam)
    return NormResult(abs(lam), "lanczos", calls, rel)


def row_col_sumsq(M):
    """(row sums, column sums) of the squared entries of a matrix.

    Sparse rows and columns are summed sequentially, so an exactly mirrored
    matrix gives the same bits both ways.  A symmetric ``BandedMatrix``
    takes one pass over its rows, in offset order: column order wherever no
    offset wraps around.  Dense sums keep numpy's order."""
    if isinstance(M, BandedMatrix):
        # scipy sums a DIA row as the matvec of the squares with ones
        rows = M._sum(M.data * M.data, np.ones(M.shape[0]))
        return rows, rows
    if _issparse(M):
        import scipy.sparse as sp

        sq = sp.csr_array(M, copy=True)
        sq.sum_duplicates()  # before squaring the stored values
        sq.data **= 2
        # the CSR matvec sums each row in order; 1.0 * x is exact
        return sq @ np.ones(M.shape[1]), np.asarray(sq.sum(axis=0)).ravel()
    A = np.asarray(M, dtype=float)
    sq = A * A
    return sq.sum(axis=1), sq.sum(axis=0)


def max_row_norm(M):
    """max_i ||M e_i||, maximized over both rows and columns.

    For symmetric matrices this is exactly the largest Euclidean row norm
    (bit for bit the column one if sparse or banded); taking both
    orientations keeps it a lower bound on the spectral norm for
    rectangular input too.
    """
    row, col = row_col_sumsq(M)
    return math.sqrt(max(row.max(initial=0.0), col.max(initial=0.0)))


def eigenvalues_all(M):
    """Full spectrum of a symmetric matrix, descending."""
    n, m = M.shape
    if n != m or not _is_symmetric(M):
        raise ParameterError("eigenvalues_all expects a symmetric matrix")
    if n > EIG_DENSE_THRESHOLD:
        raise SizeError(
            f"n={n} exceeds the dense cap {EIG_DENSE_THRESHOLD}; sample Ritz values instead"
        )
    A = M.toarray() if _issparse(M) else np.asarray(M, dtype=float)
    w = np.linalg.eigvalsh(A)
    return w[::-1].copy()
