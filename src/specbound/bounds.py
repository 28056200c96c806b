"""Closed-form bounds on the expected spectral norm and its tails.

Bounds whose constants are stated explicitly in the underlying results are
flagged constant_mode="explicit"; wherever the source statement only holds
up to a universal constant, the bracketed expression is evaluated with
constant 1 and flagged "structural".  Structural values are comparison
curves, not guarantees.  ``upper_bounds`` is the one catalogue of the
expected-norm bounds that apply to a pattern under an entry law: it decides
which are listed and which of them are guarantees for that law.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, replace
from typing import Optional

import numpy as np

from .coeffs import _cached, lp_entrywise_norm, structural_params
from .errors import ParameterError
from . import sampling, specnorm

EXPLICIT = "explicit"
STRUCTURAL = "structural"


@dataclass
class BoundReport:
    """One evaluated bound with the inputs it was computed from."""

    bound_name: str
    value: float
    constant_mode: str
    epsilon_or_alpha: Optional[float]
    sigma: float
    sigma_star: float
    sigma1: float
    sigma2: float
    n: int
    m: int
    note: str = field(default="")

    def to_json(self):
        """The fields in order, epsilon_or_alpha as "epsilon", without the note."""
        return {("epsilon" if k == "epsilon_or_alpha" else k): v for k, v in asdict(self).items() if k != "note"}


def _check_epsilon(epsilon):
    if not 0 < epsilon <= 0.5:
        raise ParameterError(f"epsilon must be in (0, 1/2], got {epsilon}")


def _check_t(t):
    if t < 0:
        raise ParameterError(f"t must be >= 0, got {t}")


def _require_symmetric(C, op):
    if C.kind != "symmetric":
        raise ParameterError(f"{op} expects a symmetric pattern")


def _report(name, value, mode, C, eps=None, note=""):
    """BoundReport of ``value``, with C's (cached) ``StructuralParams`` as its inputs."""
    return BoundReport(name, float(value), mode, eps, **asdict(structural_params(C)), n=C.rows, m=C.cols, note=note)


def main_log_coefficient(epsilon):
    """6 / sqrt(log(1 + eps)): the explicit sqrt(log n) coefficient."""
    return 6.0 / math.sqrt(math.log1p(epsilon))


def bound_main(C, epsilon):
    """(1+eps) * { 2 sigma + 6/sqrt(log(1+eps)) * sigma_star sqrt(log n) }."""
    _check_epsilon(epsilon)
    _require_symmetric(C, "bound_main")
    p = structural_params(C)
    value = (1.0 + epsilon) * (
        2.0 * p.sigma + main_log_coefficient(epsilon) * p.sigma_star * math.sqrt(math.log(C.rows))
    )
    return _report("main", value, EXPLICIT, C, eps=epsilon)


def bound_rect(C, epsilon):
    """(1+eps) * { sigma1 + sigma2 + 5/sqrt(log(1+eps)) * sigma_star sqrt(log(n ^ m)) }."""
    _check_epsilon(epsilon)
    p = structural_params(C)
    coeff = 5.0 / math.sqrt(math.log1p(epsilon))
    value = (1.0 + epsilon) * (
        p.sigma1 + p.sigma2 + coeff * p.sigma_star * math.sqrt(math.log(min(C.rows, C.cols)))
    )
    return _report("rect", value, EXPLICIT, C, eps=epsilon)


def bound_reference(C, kind):
    """Reference curves: sigma sqrt(log n) (nck) and sigma_star sqrt(n) (gordon)."""
    _require_symmetric(C, "bound_reference")
    p = structural_params(C)
    if kind == "nck":
        value = p.sigma * math.sqrt(math.log(C.rows))
    elif kind == "gordon":
        value = p.sigma_star * math.sqrt(C.rows)
    else:
        raise ParameterError(f"kind must be 'nck' or 'gordon', got {kind!r}")
    return _report(kind, value, STRUCTURAL, C)


def bound_heavy(C, beta):
    """sigma + sigma_star * (log n)^(max(beta,1)/2) for heavy-tailed entries."""
    if beta <= 0:
        raise ParameterError(f"beta must be > 0, got {beta}")
    _require_symmetric(C, "bound_heavy")
    p = structural_params(C)
    value = p.sigma + p.sigma_star * math.log(C.rows) ** (max(beta, 1.0) / 2.0)
    return _report("heavy", value, STRUCTURAL, C, eps=beta)


def bound_dimfree(C, p):
    """Dimension-free bound with the entrywise l_p norm as effective dimension.

    sigma + sigma_star sqrt(max(0, log(|(b)|_p / sigma_star))), with
    sigma1 + sigma2 replacing sigma for rectangular patterns.  The log
    argument is clamped at zero, which can only trigger when a single entry
    dominates and p is near 2.
    """
    if not 1 <= p < 2:
        raise ParameterError(f"p must be in [1, 2), got {p}")
    sp_ = structural_params(C)
    if sp_.sigma_star == 0:
        raise ParameterError("dimension-free bound needs a nonzero pattern")
    lp = lp_entrywise_norm(C, p)
    tail = sp_.sigma_star * math.sqrt(max(0.0, math.log(lp / sp_.sigma_star)))
    if C.kind == "symmetric":
        value = sp_.sigma + tail
    else:
        value = sp_.sigma1 + sp_.sigma2 + tail
    return _report("dimfree", value, STRUCTURAL, C, eps=p)


def bound_seginer(C):
    """min_u { sigma + u sqrt(log n) + sigma^2/u } = sigma + 2 sigma (log n)^(1/4).

    The minimizing split level u* = sigma / (log n)^(1/4) is recorded in the
    report note.
    """
    _require_symmetric(C, "bound_seginer")
    p = structural_params(C)
    if C.rows < 2:
        raise ParameterError("bound_seginer needs n >= 2 (log-term degenerates)")
    if p.sigma == 0:
        raise ParameterError("bound_seginer needs a nonzero pattern")
    logn = math.log(C.rows)
    u_star = p.sigma / logn**0.25
    value = p.sigma + 2.0 * p.sigma * logn**0.25
    return _report("seginer", value, STRUCTURAL, C, note=f"u_star={u_star!r}")


def bound_rademacher(C, epsilon, tol=1e-8):
    """min( main bound, ||B|| ) with B the entrywise absolute pattern."""
    _check_epsilon(epsilon)
    _require_symmetric(C, "bound_rademacher")
    main = bound_main(C, epsilon)
    with specnorm._single_blas_thread:  # LAPACK digits depend on the BLAS thread count
        norm_b = specnorm.spectral_norm(abs(C.data), tol=tol).value
    value = min(main.value, norm_b)
    return replace(main, bound_name="rademacher", value=float(value), constant_mode=STRUCTURAL)


def upper_bounds(C, dist, epsilon, p=1.0):
    """The expected-norm upper bounds that apply to C under entry law dist, in print order.

    Symmetric C: main, nck, gordon; seginer if n >= 2 and sigma > 0; then
    rademacher or heavy (at the law's beta) for those laws.  Rectangular C:
    rect.  Either: dimfree(p) if sigma_star > 0.  main and rect, proved for
    Gaussian entries, stay explicit for a law whose even moments are at most
    the Gaussian's, E xi^(2k) <= (2k-1)!!: these laws are symmetric, so each
    term of E Tr X^(2p) is a nonnegative coefficient product times even
    entry moments, at most the Gaussian term.  Other laws get structural.
    """
    sp_ = structural_params(C)
    if C.kind == "symmetric":
        reports = [bound_main(C, epsilon), bound_reference(C, "nck"), bound_reference(C, "gordon")]
        if C.rows >= 2 and sp_.sigma > 0:
            reports.append(bound_seginer(C))
        if dist.family == "rademacher":
            reports.append(bound_rademacher(C, epsilon))
        if dist.family == "heavy_tailed":
            reports.append(bound_heavy(C, dist.beta))
    else:
        reports = [bound_rect(C, epsilon)]
    if sp_.sigma_star > 0:
        reports.append(bound_dimfree(C, p))
    dominated = dist.family in ("gaussian", "rademacher", "bounded_uniform") or (
        dist.family == "heavy_tailed" and dist.beta == 1.0  # g |g'|^0 is Gaussian
    )
    if not dominated:
        reports[0] = replace(reports[0], constant_mode=STRUCTURAL)
    return reports


# the bracket's grid ratio r is 1 + _BRACKET_STEP / sqrt(2 log 2N) for N
# coefficients, so that each of its two gaps stays below _BRACKET_STEP * max|b|
_BRACKET_STEP = 4.5e-4
_SQRT2 = math.sqrt(2.0)


def _log_phi(x):
    """log P(|g| <= x) for x > 0, accurate in both tails."""
    y = x / _SQRT2
    return math.log(math.erf(y)) if y < 1.0 else math.log1p(-math.erfc(y))


def _tail_bound(t, values, counts):
    """An upper bound on the integral from t to infinity of
    1 - prod_v P(|g| <= s/v)^(N_v) ds: the union bound sum_v N_v P(|g| > s/v),
    integrated in closed form with int_y^inf erfc <= exp(-y^2) / (2 sqrt(pi) y^2)."""
    y = t / (_SQRT2 * values)
    return float(np.sum(counts * _SQRT2 * values * np.exp(-y * y) / (2.0 * math.sqrt(math.pi) * y * y)))


def expected_max_entry(C):
    """A certified bracket (lo, hi) of E max_k |b_k g_k| over C's contract
    coefficients (its nonzeros, over i <= j if symmetric) for independent
    standard Gaussians g_k, computed once per pattern; (0.0, 0.0) if C is zero.

    M = max_k |b_k g_k| has P(M <= t) = prod_v P(|g| <= t/v)^(N_v), with N_v
    the number of coefficients of size |b| = v, so E M is the integral over
    t > 0 of f(t) = 1 - prod_v P(|g| <= t/v)^(N_v).  f falls monotonically,
    so on nodes t_0 < ... < t_K a right-endpoint sum bounds the integral
    from below and a left-endpoint sum from above.  They differ by
    sum_k (t_(k+1) - t_k)(f(t_k) - f(t_(k+1))), at most the largest step.
    On [0, t_0] lo counts t_0 f(t_0) and hi counts t_0; past t_K hi adds
    ``_tail_bound``.  E M grows with every |b|, so lo rounds each |b| down
    to a grid v_j = max|b| r^-j (dropping those more than 10 binary orders
    below max|b|) and hi rounds it up, and both stay certified.  The nodes
    t_k = max|b| x_0 r^k share the ratio, so t_k / v_j = x_0 r^(k+j): one
    table of log P(|g| <= x) serves every pair, and each log-product is a
    sum of shifted copies of that table, one per nonempty grid value.  f is
    evaluated as -expm1(sum_v N_v log P(|g| <= t/v)) with
    ``math.erf``/``erfc``/``log1p``.
    A stored-once pattern is read as one value and its count.  Both ends
    are moved out by 1e-9 relative, far above their float error.  The
    bracket is at most about 1e-3 * max|b| wide.
    """
    return _cached(C, "_max_entry_bracket", _max_entry_bracket)


def _max_entry_bracket(C):
    once = sampling.stored_once_contract(C)
    return _bracket(*((sampling.contract_values(C), None) if once is None else once))


def _log_products(table, counts, nodes):
    """sum_j counts[j] table[k + j] at k = 0 .. nodes - 1, over the nonempty buckets j."""
    out = np.zeros(nodes)
    for j in np.flatnonzero(counts).tolist():
        out += counts[j] * table[j : j + nodes]
    return out


def _bracket(b, w):
    """``expected_max_entry`` of the coefficients ``b``, each counted ``w``
    times (once if ``w`` is None)."""
    b = np.abs(b)
    if not b.size:
        return 0.0, 0.0
    vmax, vmin = float(b.max()), float(b.min())
    total = float(b.size if w is None else w.sum())
    r = 1.0 + _BRACKET_STEP / math.sqrt(2.0 * math.log(2.0 * total))
    size = 1 + math.ceil(math.log(min(vmax / vmin, 1024.0), r))
    grid = vmax * r ** -np.arange(size)  # descending, grid[0] = vmax exactly
    # lo: the largest grid value <= |b|, or dropped (index size) below the grid;
    # hi: the smallest grid value >= |b|, or the last one below the grid
    down = np.searchsorted(-grid, -b, side="left")
    n_lo = np.bincount(down, weights=w, minlength=size + 1)[:size]
    n_hi = np.bincount(np.searchsorted(-grid, -b, side="right") - 1, weights=w, minlength=size)
    # nodes from where P(M <= t) <= P(|g| <= t / min|b|)^N is below e^-40
    # (or from 2^-7 max|b|: lo then misses at most 0.8 * 2^-14 max|b| below
    # t_0) to where the tail bound is below 1e-7 max|b|
    x0 = 2.0**-7
    while total * _log_phi(1.25 * x0 * vmax / vmin) < -40.0:
        x0 *= 1.25
    xT = x0
    while _tail_bound(xT * vmax, grid, n_hi) > 1e-7 * vmax:
        xT *= 1.125
    nodes = 1 + math.ceil(math.log(xT / x0, r))
    table = np.fromiter(map(_log_phi, (x0 * r ** np.arange(nodes + size - 1)).tolist()), float)
    t = vmax * x0 * r ** np.arange(nodes)
    f_lo, f_hi = (-np.expm1(_log_products(table, counts, nodes)) for counts in (n_lo, n_hi))
    h = np.diff(t)
    lo = float(t[0] * f_lo[0] + h @ f_lo[1:])
    hi = float(t[0] + h @ f_hi[:-1]) + _tail_bound(t[-1], grid, n_hi)
    return lo * (1.0 - 1e-9), hi * (1.0 + 1e-9)


def lower_bound_estimate(C):
    """Structural lower value sigma + E max_ij |b_ij g_ij| (constant 1),
    with sigma1 + sigma2 for a rectangular pattern.

    The max term is the midpoint of ``expected_max_entry``.  The underlying
    comparison only holds up to a universal constant below 1; for
    diagonal-like patterns this constant-1 value exceeds the true expected
    norm by sigma_star.  It is not a bound: see ``lower_bound_explicit`` for
    one that holds with constant 1.
    """
    lo, hi = expected_max_entry(C)
    p = structural_params(C)
    offset = p.sigma if C.kind == "symmetric" else p.sigma1 + p.sigma2
    return offset + (lo + hi) / 2.0


def lower_bound_explicit(C):
    """Lower bound max( sqrt(max(s^2 - sigma_star^2, 0)), E max_ij |b_ij g_ij| )
    on E||X|| for Gaussian X, with s = sigma (max(sigma1, sigma2) if rectangular).

    Both terms hold with constant 1:

    - ||X|| >= |X_ij| for every (i, j), so E||X|| >= E max_ij |X_ij|.
    - ||X|| >= ||X e_i||, and (E||X e_i||)^2 = E||X e_i||^2 - Var||X e_i||
      >= s_i^2 - sigma_star^2, where s_i^2 = sum_j b_ji^2.  The variance
      bound is the Gaussian Poincare inequality: ||X e_i|| is
      sigma_star-Lipschitz in the underlying standard Gaussians.  Taking
      the largest column (or row, for rectangular X^T e_i) gives s.

    The max term is the certified lower end of ``expected_max_entry``, so
    the value is deterministic and a bound, not an estimate.
    """
    p = structural_params(C)
    return max(math.sqrt(max(p.sigma**2 - p.sigma_star**2, 0.0)), expected_max_entry(C)[0])


def tail_bound(C, epsilon, t):
    """(threshold, probability) of the one-sided deviation bound at level t.

    threshold is the expected-norm bound plus t; the probability is
    exp(-t^2 / (4 sigma_star^2)) for a symmetric pattern and
    exp(-t^2 / (2 sigma_star^2)) for a rectangular one.
    """
    _check_t(t)
    p = structural_params(C)
    if C.kind == "symmetric":
        base = bound_main(C, epsilon).value
        denom = 4.0 * p.sigma_star**2
    else:
        base = bound_rect(C, epsilon).value
        denom = 2.0 * p.sigma_star**2
    if t == 0:
        prob = 1.0
    elif denom == 0.0:
        prob = 0.0
    else:
        prob = math.exp(-(t * t) / denom)
    return base + t, prob


def second_form_constant(epsilon, variant="gaussian"):
    """c_eps for the n * exp(-t^2 / (c_eps sigma_star^2)) tail form.

    Constructive recipe: with C'_eps the sqrt(log n) coefficient of the
    expected-norm bound ((1+eps) * 6/sqrt(log(1+eps)) in the Gaussian case,
    (1+eps) * 14 alpha with alpha = 2/log(1+eps) in the bounded-variance
    case), set c_eps = (2 + C'_eps)^2.  Then for t >= 2 sqrt(log n) the
    shifted one-sided bound absorbs the sqrt(log n) term, and below that
    the trivial bound n exp(-t^2/c_eps) >= 1 takes over.
    """
    _check_epsilon(epsilon)
    if variant == "gaussian":
        cprime = (1.0 + epsilon) * main_log_coefficient(epsilon)
    elif variant == "bounded":
        alpha = 2.0 / math.log1p(epsilon)
        cprime = (1.0 + epsilon) * 14.0 * alpha
    else:
        raise ParameterError(f"variant must be gaussian or bounded, got {variant!r}")
    return (2.0 + cprime) ** 2


def tail_bound_second_form(C, epsilon, t, variant="gaussian", sigma_star_tilde=None):
    """min(1, n exp(-t^2 / (c_eps sigma_star^2))) around threshold (1+eps) 2 sigma.

    variant="bounded" uses the caller-supplied sup parameter sigma_star_tilde
    and the bounded-entry constant; the caller puts the threshold at
    (1+eps) 2 sigma_tilde.  Both variants are structural.
    """
    _check_t(t)
    p = structural_params(C)
    if variant == "gaussian":
        star = p.sigma_star
    else:
        if sigma_star_tilde is None:
            raise ParameterError("bounded variant needs sigma_star_tilde")
        star = sigma_star_tilde
    c_eps = second_form_constant(epsilon, variant)
    if t == 0:
        return 1.0
    if star == 0.0:
        return 0.0
    return min(1.0, C.rows * math.exp(-(t * t) / (c_eps * star * star)))


def gaussian_moment_bounds(r, p, rprime=None):
    """Moment bounds for all-Gaussian comparison matrices.

    2 sqrt(r) + 2 sqrt(2p) for the symmetric r x r case;
    sqrt(r) + sqrt(r') + 2 sqrt(p) for the rectangular r x r' case.
    """
    if p < 2:
        raise ParameterError(f"p must be >= 2, got {p}")
    if r < 1 or (rprime is not None and rprime < 1):
        raise ParameterError("dimensions must be >= 1")
    if rprime is None:
        return 2.0 * math.sqrt(r) + 2.0 * math.sqrt(2.0 * p)
    return math.sqrt(r) + math.sqrt(rprime) + 2.0 * math.sqrt(p)
