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

A pattern compiles once into a plan that holds no values: the variate
count and, for a symmetric pattern, the gather from variates to slots.  A
sample is the variates read through the gather and multiplied in place by
the pattern's stored values, which ``CoefficientMatrix`` keeps exactly
mirrored; a sparse sample shares the pattern's read-only index arrays.  So
a trial holds the pattern, the plan and one sample's values.
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
    # a copy: samples are built in the returned buffer
    return np.array(dist.sampler(rng, size), dtype=float)


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
    is what argsort(A.indices, kind="stable") gives, in A's index dtype.
    """
    ids = np.arange(A.indices.shape[0], dtype=A.indices.dtype)
    return sp.csr_array((ids, A.indices, A.indptr), shape=A.shape).T.tocsr()


def _rows(A):
    """Row of each CSR slot."""
    return np.repeat(np.arange(A.shape[0], dtype=A.indices.dtype), np.diff(A.indptr))


def _symmetric_sparse_plan(A):
    """(variate count, gather) for sampling an exactly mirrored sparse pattern.

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
    size = int(gather[-1]) if gather.shape[0] else 0
    gather -= 1
    lower = np.logical_not(upper, out=upper)
    mirror = perm[lower]
    del perm
    gather[lower] = gather[mirror]
    return size, gather


def contract_values(C):
    """The values of C in the variate contract order, as a 1-d array.

    The upper triangle (i <= j) of a symmetric pattern, every entry of a
    rectangular one; row-major, and for sparse storage the stored slots,
    explicit zeros included.
    """
    A = C.data
    if C.kind == "rectangular":
        return A.data if C.is_sparse else A.ravel()
    if C.is_sparse:
        return A.data[A.indices >= _rows(A)]
    return A[np.triu_indices(C.rows)]


def _plan(C):
    """(size, gather, structure) for sampling C; compiled once per pattern.

    One trial draws xi at ``size`` in the contract order (one variate per
    upper-triangle slot of a symmetric pattern, per stored entry of a
    rectangular one; a dense rectangular pattern draws at its 2-d shape),
    reads it through gather where there is one, and multiplies the result
    in place by the pattern's own stored values.  That product is b_ij xi
    for every slot because a symmetric pattern is stored exactly mirrored
    (see ``coeffs.CoefficientMatrix``).  structure is the pattern's own
    read-only (indptr, indices), shared by every sparse sample, and None for
    a dense one.

    - symmetric sparse: see ``_symmetric_sparse_plan``;
    - symmetric dense: gather is the n x n map with gather[i, j] =
      gather[j, i] = the rank of (i, j) in the row-major upper triangle;
    - rectangular: there is no gather; a sparse pattern's canonical CSR
      lists its slots row-major.

    The plan is cached on the immutable pattern.
    """
    with _PLAN_LOCK:
        plan = getattr(C, "_sampling_plan", None)
        if plan is None:
            A = C.data
            structure = (A.indptr, A.indices) if C.is_sparse else None
            if C.kind == "rectangular":
                plan = (A.nnz if C.is_sparse else A.shape, None, structure)
            elif C.is_sparse:
                plan = (*_symmetric_sparse_plan(A), structure)
            else:
                i, j = np.triu_indices(C.rows)
                gather = np.empty(A.shape, dtype=np.intp)
                gather[i, j] = gather[j, i] = np.arange(i.shape[0])
                plan = (i.shape[0], gather, structure)
            C._sampling_plan = plan
    return plan


def sample_matrix(C, dist, seed, stream=STREAM_SAMPLE):
    """One draw of X = (xi_ij b_ij), matching C's storage kind.

    Symmetric patterns get one variate per unordered pair (i <= j), mirrored
    across the diagonal; the zero pattern of C is preserved exactly.  A
    sparse sample owns its values and shares C's read-only index arrays.
    """
    size, gather, structure = _plan(C)
    vals = draw_entries(dist, seed.generator(stream), size)
    if gather is not None:
        vals = np.take(vals, gather)
    A = C.data
    if structure is None:
        vals *= A
        if gather is not None:
            # dense symmetric samples hold +0.0, never -0.0, where b_ij = 0
            # (fixed CSV bytes); adding 0.0 changes no other value
            vals += 0.0
        return vals
    vals *= A.data
    indptr, indices = structure
    return sp.csr_array((vals, indices, indptr), shape=(C.rows, C.cols))


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
