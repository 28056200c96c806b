"""Reproducible sampling of X_ij = xi_ij * b_ij with independent entries.

Seeding contract: the variate stream for a trial is a pure function of
(master_seed, trial_index, stream).  Streams are realized with numpy's
SeedSequence hashed into a PCG64 generator (period 2^128), so trials are
independent of thread count and iteration order.  Gaussians come from
numpy's ziggurat-based ``standard_normal``.

Symmetric patterns consume one variate per upper-triangle nonzero in
row-major order and mirror it below the diagonal; rectangular patterns
consume one variate per stored nonzero in row-major order (all entries for
dense storage).
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
import scipy.sparse as sp

from .errors import ParameterError

FAMILIES = ("gaussian", "rademacher", "bounded_uniform", "heavy_tailed", "custom")

# substreams of a trial, so that different consumers never share variates
STREAM_SAMPLE = 0
STREAM_SAMPLE_PRIME = 1
STREAM_MAX_ENTRY = 2
STREAM_PATTERN = 3

_SQRT3 = math.sqrt(3.0)
_PLAN_LOCK = threading.Lock()  # one plan compile per pattern when trials run on threads


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
        return EntryDistribution("heavy_tailed", beta=float(code.split(":", 1)[1]))
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
    return np.asarray(dist.sampler(rng, size), dtype=float)


def _double_factorial(k):
    if k <= 0:
        return 1
    out = 1
    while k > 0:
        out *= k
        k -= 2
    return out


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
        return _double_factorial(order - 1)
    if dist.family == "rademacher":
        return 1
    if dist.family == "bounded_uniform":
        return 3**p / (2 * p + 1)
    if dist.family == "heavy_tailed":
        q = 2.0 * p * (dist.beta - 1.0)
        qi = round(q)
        if abs(q - qi) < 1e-12 and qi % 2 == 0:
            raw = _double_factorial(order - 1) * _double_factorial(qi - 1)
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
    is what argsort(A.indices, kind="stable") gives.
    """
    ids = np.arange(A.indices.shape[0])
    return sp.csr_array((ids, A.indices, A.indptr), shape=A.shape).T.tocsr()


def _rows(A):
    """Row of each CSR slot."""
    return np.repeat(np.arange(A.shape[0], dtype=A.indices.dtype), np.diff(A.indptr))


def _mirrored_structure(A, upper):
    """Canonical CSR of the upper triangle's slots and their mirrors."""
    i, j = _rows(A)[upper], A.indices[upper]
    off = i != j
    r, c = np.concatenate([i, j[off]]), np.concatenate([j, i[off]])
    return sp.coo_array((np.ones(r.shape[0]), (r, c)), shape=A.shape).tocsr()


def _symmetric_sparse_plan(A):
    """(b, gather, (indptr, indices)) for sampling a symmetric sparse pattern.

    b is the upper triangle in the row-major contract order; indptr and
    indices are the canonical CSR structure of the full mirrored X; gather
    maps each CSR slot to the variate that fills it.  Temporaries are
    dropped as soon as they are dead, so that the compile holds at most
    one nnz-sized array besides the plan.
    """
    upper = A.indices >= _rows(A)
    b = A.data[upper]
    T = _transpose(A)
    if not (np.array_equal(T.indptr, A.indptr) and np.array_equal(T.indices, A.indices)):
        # an explicit zero stored on one side only: X mirrors the
        # upper triangle, so rebuild the structure from it
        A = _mirrored_structure(A, upper)
        upper = A.indices >= _rows(A)
        T = _transpose(A)
    perm = T.data
    del T
    # a lower slot takes the variate of its mirror, the upper slot perm
    # names; gather stays intp, which numpy gathers twice as fast
    gather = upper.astype(np.intp)
    np.cumsum(gather, out=gather)  # a cumsum of bools would cast into a second copy
    gather -= 1
    lower = np.logical_not(upper, out=upper)
    mirror = perm[lower]
    del perm
    gather[lower] = gather[mirror]
    return b, gather, (A.indptr, A.indices)


def _plan(C):
    """(b, gather, structure) for sampling C; compiled once per pattern.

    One trial's values are b * xi, with xi drawn in the contract order at
    b's length (at b's shape for a dense rectangular pattern), then read
    through gather where there is one.  structure is the (indptr, indices)
    of a sparse sample and None for a dense one.

    - symmetric sparse: see ``_symmetric_sparse_plan``;
    - symmetric dense: b is the upper triangle, row-major, and gather the
      n x n map with gather[i, j] = gather[j, i] = the index of b_ij;
    - rectangular: b is the stored values and there is no gather; a sparse
      sample reuses the pattern's CSR, whose canonical order is row-major.

    The plan is cached on the immutable pattern.
    """
    with _PLAN_LOCK:
        plan = getattr(C, "_sampling_plan", None)
        if plan is None:
            A = C.data
            if C.kind == "rectangular":
                plan = (A.data, None, (A.indptr, A.indices)) if C.is_sparse else (A, None, None)
            elif C.is_sparse:
                plan = _symmetric_sparse_plan(A)
            else:
                i, j = np.triu_indices(C.rows)
                gather = np.empty(A.shape, dtype=np.intp)
                gather[i, j] = gather[j, i] = np.arange(i.shape[0])
                plan = (A[i, j], gather, None)
            C._sampling_plan = plan
    return plan


def sample_matrix(C, dist, seed, stream=STREAM_SAMPLE):
    """One draw of X = (xi_ij b_ij), matching C's storage kind.

    Symmetric patterns get one variate per unordered pair (i <= j), mirrored
    across the diagonal; the zero pattern of C is preserved exactly.
    """
    b, gather, structure = _plan(C)
    vals = b * draw_entries(dist, seed.generator(stream), b.shape[0] if b.ndim == 1 else b.shape)
    if gather is not None:
        if structure is None:
            # dense symmetric samples hold +0.0, never -0.0, where b_ij = 0
            # (fixed CSV bytes); adding 0.0 changes no other value
            vals += 0.0
        vals = vals[gather]
    if structure is None:
        return vals
    indptr, indices = structure
    return sp.csr_array((vals, indices.copy(), indptr.copy()), shape=(C.rows, C.cols))


def symmetrized_difference(C, dist, seed):
    """X - X' for two independent draws; the entry law becomes symmetric."""
    X = sample_matrix(C, dist, seed, stream=STREAM_SAMPLE)
    Xp = sample_matrix(C, dist, seed, stream=STREAM_SAMPLE_PRIME)
    return X - Xp


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
