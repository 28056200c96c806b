"""Reproducible sampling of X_ij = xi_ij * b_ij with independent entries.

Seeding contract: the variate stream for a trial is a pure function of
(master_seed, trial_index, stream).  Streams are realized with numpy's
SeedSequence hashed into a PCG64 generator (period 2^128), so trials are
independent of thread count and iteration order.  Gaussians come from
numpy's ziggurat-based ``standard_normal``.

One variate contract holds for every pattern, whatever its kind and
storage: a trial draws one variate per nonzero coefficient, in row-major
order (for a symmetric pattern over i <= j, mirrored below the diagonal).
So the dense and sparse copies of a pattern draw identical samples.

Each layout of a pattern compiles once into one plan record (see
``_plan``), and every sample is one draw through it.  The plan holds the
contract-order coefficients b unless all are 1.  ``sample_matrix`` samples
in the pattern's own storage; a sparse sample shares its read-only index
arrays, so a trial holds the pattern, the plan and one sample's values.

A sparse symmetric pattern with n > 2 whose nonzeros lie on few cyclic
diagonals also has a banded layout: its d distinct offsets
s = (j - i) mod n, taken in (-n/2, n/2] and running from lo to hi,
qualify when ``d * (n + hi - lo) <= 1.25 * nnz`` (``_BANDED_FILL``).  band,
band_cyclic, diagonal and log_decay_diagonal qualify; block_diagonal with
blocks of 2 or more, regular_random and single_entry do not.  Every norm
trial, ``report``'s included, samples through ``trial_sample``, which
solves such a pattern on a ``specnorm.BandedMatrix`` of the same entries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .coeffs import _cached
from .errors import ParameterError
from .specnorm import BandedMatrix

FAMILIES = ("gaussian", "rademacher", "bounded_uniform", "heavy_tailed", "custom")

# substreams of a trial, so that different consumers never share variates
STREAM_SAMPLE = 0
STREAM_SAMPLE_PRIME = 1  # a second, independent draw of a trial's sample
STREAM_MAX_ENTRY = 2
STREAM_PATTERN = 3

_SQRT3 = math.sqrt(3.0)
_BANDED_FILL = 1.25  # a banded layout holds at most this many slots per nonzero


@dataclass(frozen=True)
class EntryDistribution:
    """Law of the i.i.d. multipliers xi_ij.

    gaussian is N(0,1); rademacher is +-1; bounded_uniform is uniform on
    [-sqrt(3), sqrt(3)] (unit variance); heavy_tailed(beta) is the law of
    g * |g'|^(beta-1) for independent standard Gaussians, rescaled to unit
    variance unless ``normalize`` is off.  ``sampler`` is the custom hook:
    a callable (rng, size) -> array.
    """

    family: str
    beta: float = 1.0
    normalize: bool = True
    sampler: Optional[Callable] = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ParameterError(f"unknown distribution family {self.family!r}")
        if self.family == "heavy_tailed" and self.beta < 1:
            # beta < 1 would put a non-integrable singularity at g' = 0 for
            # high moments; the construction is only used with beta >= 1
            raise ParameterError(f"heavy_tailed requires beta >= 1, got {self.beta}")
        if self.family == "custom" and self.sampler is None:
            raise ParameterError("custom distribution needs a sampler callable")


GAUSSIAN = EntryDistribution("gaussian")
RADEMACHER = EntryDistribution("rademacher")
BOUNDED_UNIFORM = EntryDistribution("bounded_uniform")


def distribution_from_code(code):
    """Parse a CLI distribution code: gaussian | rademacher | uniform | heavy:<beta>."""
    if code == "gaussian":
        return GAUSSIAN
    if code == "rademacher":
        return RADEMACHER
    if code == "uniform":
        return BOUNDED_UNIFORM
    if code.startswith("heavy:"):
        text = code.partition(":")[2]
        try:
            beta = float(text)
        except ValueError:
            raise ParameterError(f"distribution code {code!r}: {text!r} is not a number") from None
        if not math.isfinite(beta):
            raise ParameterError(f"distribution code {code!r}: beta must be finite")
        return EntryDistribution("heavy_tailed", beta=beta)
    raise ParameterError(f"unknown distribution code {code!r}")


@dataclass(frozen=True)
class SeedSpec:
    """(master_seed, trial_index) pair identifying one trial's streams."""

    master_seed: int
    trial_index: int = 0

    def __post_init__(self):
        if self.trial_index < 0:
            raise ParameterError("trial_index must be >= 0")

    def generator(self, stream=STREAM_SAMPLE):
        entropy = (self.master_seed & 0xFFFFFFFFFFFFFFFF, self.trial_index, stream)
        return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy)))


def _abs_gaussian_moment(q):
    """E|g|^q for real q > -1."""
    return 2.0 ** (q / 2.0) * math.gamma((q + 1.0) / 2.0) / math.sqrt(math.pi)


def heavy_tailed_sd(beta):
    """Standard deviation of the unnormalized g * |g'|^(beta-1) law."""
    return math.sqrt(_abs_gaussian_moment(2.0 * (beta - 1.0)))


def draw_entries(dist, rng, size):
    """Draw ``size`` i.i.d. variates from ``dist`` using ``rng``."""
    if dist.family == "gaussian":
        return rng.standard_normal(size)
    if dist.family == "rademacher":
        return rng.integers(0, 2, size=size).astype(float) * 2.0 - 1.0
    if dist.family == "bounded_uniform":
        return rng.uniform(-_SQRT3, _SQRT3, size=size)
    if dist.family == "heavy_tailed":
        g = rng.standard_normal(size)
        gtilde = rng.standard_normal(size)
        out = g * np.abs(gtilde) ** (dist.beta - 1.0)
        if dist.normalize:
            out /= heavy_tailed_sd(dist.beta)
        return out
    # a copy: samples are built in the returned buffer
    return np.array(dist.sampler(rng, size), dtype=float)


def distribution_moment(dist, order):
    """Exact moment E[xi^order] for even order.

    Integer results (gaussian, rademacher, and unnormalized heavy-tailed
    laws whose auxiliary exponent is an even integer) come back as exact
    Python ints; everything else is a float from the Gamma-function formula.
    """
    if order % 2 != 0 or order < 0:
        raise ParameterError(f"order must be even and positive, got {order}")
    if order == 0:
        return 1
    p = order // 2
    if dist.family == "gaussian":
        return math.prod(range(order - 1, 0, -2))
    if dist.family == "rademacher":
        return 1
    if dist.family == "bounded_uniform":
        return 3**p / (2 * p + 1)
    if dist.family == "heavy_tailed":
        q = 2.0 * p * (dist.beta - 1.0)
        qi = round(q)
        if abs(q - qi) < 1e-12 and qi % 2 == 0:
            raw = math.prod(range(order - 1, 0, -2)) * math.prod(range(qi - 1, 0, -2))
        else:
            raw = (
                2.0 ** (p * dist.beta)
                / math.pi
                * math.gamma(p + 0.5)
                * math.gamma(p * (dist.beta - 1.0) + 0.5)
            )
        if dist.normalize:
            return raw / heavy_tailed_sd(dist.beta) ** order
        return raw
    raise ParameterError("moments of a custom distribution are not known exactly")


def _transpose(A):
    """The transpose of A's CSR structure, each slot holding the A slot it mirrors.

    scipy's O(nnz) CSR -> CSC conversion of slot ids lists the slots in
    (column, row) order, the row-major slot order of the transpose; its data
    is what argsort(A.indices, kind="stable") gives, in A's index dtype.
    """
    import scipy.sparse as sp

    ids = np.arange(A.indices.shape[0], dtype=A.indices.dtype)
    return sp.csr_array((ids, A.indices, A.indptr), shape=A.shape).T.tocsr()


def _rows(A):
    """Row of each CSR slot."""
    return np.repeat(np.arange(A.shape[0], dtype=A.indices.dtype), np.diff(A.indptr))


def _symmetric_sparse_plan(A):
    """The gather for sampling an exactly mirrored sparse pattern.

    gather maps each CSR slot of A to the variate that fills it: an upper
    slot (i <= j) takes its rank in the row-major order of the upper
    triangle, a lower slot the variate of the upper slot it mirrors.
    Temporaries are dropped as soon as they are dead, so that the compile
    holds at most one nnz-sized array besides the gather.
    """
    upper = A.indices >= _rows(A)
    perm = _transpose(A).data  # the slot each slot mirrors
    # gather stays intp, which numpy gathers twice as fast
    gather = upper.astype(np.intp)
    np.cumsum(gather, out=gather)  # a cumsum of bools would cast into a second copy
    gather -= 1
    lower = np.logical_not(upper, out=upper)
    mirror = perm[lower]
    del perm
    gather[lower] = gather[mirror]
    return gather


def _dense_mask(C):
    """Where a dense pattern's variates go: its nonzeros, over i <= j if symmetric."""
    return np.triu(C.data != 0) if C.kind == "symmetric" else C.data != 0


def contract_values(C):
    """The nonzero coefficients of C in the variate contract order (row-major,
    over i <= j if symmetric) as a 1-d array, the same for every storage."""
    A = C.data
    if not C.is_sparse:
        return A[_dense_mask(C)]
    return A.data if C.kind == "rectangular" else A.data[A.indices >= _rows(A)]


_NO_HOLES = np.empty(0, dtype=np.intp)


def _plan(C):
    """The plan (size, b, gather, holes, wrap) of C's own storage, cached on C.

    A sample draws xi at ``size``, one variate per nonzero coefficient in
    the contract order, multiplies it in place by ``b`` (None when all
    coefficients are 1), reads it through ``gather`` where there is one,
    sets the flat slots ``holes`` of zero coefficients to +0.0, and
    ``wrap``s the values.  Mirrored slots read the same b_ij xi.

    - sparse symmetric: see ``_symmetric_sparse_plan``;
    - sparse rectangular: no gather; the canonical CSR lists its nonzeros
      row-major;
    - dense rectangular without a zero coefficient: no gather; the variates
      fill the sample row-major;
    - dense: no gather and no holes; ``wrap`` keeps the boolean mask of the
      contract's slots (1 byte per entry, not an intp map) and places the
      values with ``out[mask] = vals`` into zeros, and with ``out.T[mask]``
      too if symmetric, so zero coefficients stay +0.0.
    """
    return _cached(C, "_sampling_plan", _compile_plan)


def _compile_plan(C):
    A = C.data
    shape = A.shape
    mask = None if C.is_sparse else _dense_mask(C)
    b = contract_values(C) if mask is None else A[mask]
    size = b.shape[0]
    if b.min(initial=1.0) == b.max(initial=1.0) == 1.0:
        b = None  # x * 1.0 is x bit for bit
    if C.is_sparse:
        import scipy.sparse as sp

        def csr(vals):
            return sp.csr_array((vals, A.indices, A.indptr), shape=shape)

        gather = _symmetric_sparse_plan(A) if C.kind == "symmetric" else None
        return size, b, gather, _NO_HOLES, csr
    if C.kind == "rectangular" and size == A.size:
        return size, b, None, _NO_HOLES, lambda vals: vals.reshape(shape)
    symmetric = C.kind == "symmetric"

    def place(vals):
        out = np.zeros(shape)
        out[mask] = vals
        if symmetric:
            out.T[mask] = vals
        return out

    return size, b, None, _NO_HOLES, place


def _row_blocks(A):
    """(first slot, row, column) of each run of whole CSR rows holding about
    a sixteenth of A's slots (at least 1024), so that a pass over the slots
    keeps temporaries well below the bytes of an nnz-sized int32 array."""
    indptr, indices = A.indptr, A.indices
    step = max(A.nnz >> 4, 1 << 10)
    cuts = np.searchsorted(indptr, np.arange(0, indptr[-1], step), side="right") - 1
    starts = np.unique(cuts).tolist()
    for r0, r1 in zip(starts, starts[1:] + [A.shape[0]]):
        a, b = int(indptr[r0]), int(indptr[r1])
        rows = np.repeat(np.arange(r0, r1, dtype=indices.dtype), np.diff(indptr[r0 : r1 + 1]))
        yield a, rows, indices[a:b]


def _banded_plan(C):
    """The plan (size, b, gather, holes, wrap) of C's banded layout, or None.

    A banded layout is kept for the d distinct cyclic offsets of C's
    nonzeros in (-n/2, n/2], ascending from lo to hi, and stores the
    diagonals s >= 0 only (see ``specnorm.BandedMatrix``).  ``gather``
    (one row of n per stored offset, int32 where the ranks fit) maps the
    slot of entry (i, (i + s) mod n), row k of offset s and column i, to its
    variate's rank in the contract order; ``holes`` lists the flat slots
    that hold no entry (they read variate 0).  ``wrap`` makes the
    ``specnorm.BandedMatrix`` on the offsets.

    Upper entries (j >= i) take their ranks in one pass over the CSR in
    blocks.  Each rank goes to whichever of the slots (i, j) and (j, i) lies
    on a stored diagonal: (i, j) when j - i <= n/2, (j, i) when
    j - i >= n/2, both at offset n/2.  The compile holds the gather and
    block-sized temporaries, and no nnz-sized array besides.
    """
    if not (C.is_sparse and C.kind == "symmetric" and C.nnz and C.rows > 2):
        return None  # n <= 2: too small for ARPACK, and LAPACK needs an array
    A = C.data
    n = A.shape[0]
    half = n // 2
    present = np.zeros(n, dtype=bool)
    for _, i, j in _row_blocks(A):
        present[(j - i) % n] = True
    cyclic = np.flatnonzero(present)
    stored = cyclic[cyclic <= half]
    offsets = np.concatenate([cyclic[cyclic > half] - n, stored])
    if offsets.shape[0] * (n + int(offsets[-1] - offsets[0])) > _BANDED_FILL * A.nnz:
        return None
    row_of = np.empty(half + 1, dtype=np.intp)  # gather row of each stored offset
    row_of[stored] = np.arange(stored.shape[0])
    upper = (A.nnz + np.count_nonzero(A.diagonal())) // 2
    gather = np.full((stored.shape[0], n), -1, dtype=np.int32 if upper < 2**31 else np.intp)
    flat = gather.reshape(-1)
    unit = A.data.min() == A.data.max() == 1.0
    b = None if unit else np.empty(upper)
    size = 0
    for a, i, j in _row_blocks(A):
        up = j >= i
        i, j = i[up], j[up]
        ranks = np.arange(size, size + i.shape[0], dtype=gather.dtype)
        s = j - i
        mine = s <= half  # slot (i, j) on diagonal s
        flat[row_of[s[mine]] * n + i[mine]] = ranks[mine]
        theirs = s >= n - half  # slot (j, i) on diagonal n - s
        flat[row_of[n - s[theirs]] * n + j[theirs]] = ranks[theirs]
        if b is not None:
            b[size : size + i.shape[0]] = A.data[a : a + up.shape[0]][up]
        size += i.shape[0]
    holes = np.flatnonzero(flat < 0)
    flat[holes] = 0
    return size, b, gather, holes, lambda vals: BandedMatrix(vals, offsets)


def _draw(plan, dist, seed, stream):
    """One sample through ``plan``: draw, multiply by b, gather, zero the holes, wrap."""
    size, b, gather, holes, wrap = plan
    vals = draw_entries(dist, seed.generator(stream), size)
    if b is not None:
        vals *= b
    if gather is not None:
        # fancy indexing reads an int32 gather as it is; np.take would copy it to intp
        vals = vals[gather]
    # +0.0, never -0.0, where b_ij = 0 (fixed CSV bytes)
    vals.reshape(-1)[holes] = 0.0
    return wrap(vals)


def sample_matrix(C, dist, seed, stream=STREAM_SAMPLE):
    """One draw of X = (xi_ij b_ij), matching C's storage kind.

    One variate per nonzero b_ij (over i <= j, mirrored, if symmetric); the
    zero pattern of C is preserved exactly.  A sparse sample owns its values
    and shares C's read-only index arrays.
    """
    return _draw(_plan(C), dist, seed, stream)


def trial_sample(C, dist, seed):
    """The sample a Monte Carlo trial solves: ``sample_matrix(C, dist, seed)``,
    as a ``specnorm.BandedMatrix`` when C has a banded layout.

    Every entry equals ``sample_matrix``'s bit for bit; only the layout
    differs.  The layout is compiled on the first trial of the pattern.
    """
    plan = _cached(C, "_banded_sampling_plan", _banded_plan)
    if plan is None:
        return sample_matrix(C, dist, seed)
    return _draw(plan, dist, seed, STREAM_SAMPLE)


@dataclass
class NormEstimate:
    """Monte Carlo summary of a norm-like quantity over independent trials."""

    mean: float
    std_error: float
    trials: int
    seed: int
    per_trial_values: Optional[np.ndarray] = None

    @staticmethod
    def from_values(values, seed, offset=0.0):
        values = np.asarray(values, dtype=float)
        n = values.size
        se = float(values.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0
        return NormEstimate(
            mean=float(offset + values.mean()) if n else float(offset),
            std_error=se,
            trials=n,
            seed=seed,
            per_trial_values=values,
        )
