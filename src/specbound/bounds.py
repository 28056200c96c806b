"""Closed-form bounds on the expected spectral norm and its tails.

Bounds whose constants are stated explicitly in the underlying results are
flagged constant_mode="explicit"; wherever the source statement only holds
up to a universal constant, the bracketed expression is evaluated with
constant 1 and flagged "structural".  Structural values are comparison
curves, not guarantees.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Optional

from .coeffs import lp_entrywise_norm, structural_params
from .errors import ParameterError, DataError
from .sampling import NormEstimate, SeedSpec, STREAM_MAX_ENTRY
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
        return {
            "bound_name": self.bound_name,
            "value": self.value,
            "constant_mode": self.constant_mode,
            "epsilon": self.epsilon_or_alpha,
            "sigma": self.sigma,
            "sigma_star": self.sigma_star,
            "sigma1": self.sigma1,
            "sigma2": self.sigma2,
            "n": self.n,
            "m": self.m,
        }


def _check_epsilon(epsilon):
    if not 0 < epsilon <= 0.5:
        raise ParameterError(f"epsilon must be in (0, 1/2], got {epsilon}")


def _require_symmetric(C, op):
    if C.kind != "symmetric":
        raise ParameterError(f"{op} expects a symmetric pattern")


def _report(name, value, mode, C, eps=None, note=""):
    """BoundReport of ``value``, with C's (cached) ``StructuralParams`` as its inputs."""
    p = structural_params(C)
    return BoundReport(
        bound_name=name,
        value=float(value),
        constant_mode=mode,
        epsilon_or_alpha=eps,
        sigma=p.sigma,
        sigma_star=p.sigma_star,
        sigma1=p.sigma1,
        sigma2=p.sigma2,
        n=C.rows,
        m=C.cols,
        note=note,
    )


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


def bound_subgaussian(C, epsilon):
    """Gaussian-shaped bound for subgaussian entries.

    Same numeric value as the Gaussian bound, but flagged structural: for
    merely subgaussian entries the statement carries an extra universal
    constant depending on the tail envelope.
    """
    base = bound_main(C, epsilon) if C.kind == "symmetric" else bound_rect(C, epsilon)
    base.constant_mode = STRUCTURAL
    base.bound_name = "subgaussian"
    base.note = "value valid up to a universal constant depending on the subgaussian envelope"
    return base


def bound_heavy(C, beta):
    """sigma + sigma_star * (log n)^(max(beta,1)/2) for heavy-tailed entries."""
    if beta <= 0:
        raise ParameterError(f"beta must be > 0, got {beta}")
    _require_symmetric(C, "bound_heavy")
    p = structural_params(C)
    value = p.sigma + p.sigma_star * math.log(C.rows) ** (max(beta, 1.0) / 2.0)
    return _report("heavy", value, STRUCTURAL, C, eps=beta)


def bound_bounded_entries(C, alpha, entry_moment):
    """e^(2/alpha) * { 2 sigma + 14 alpha M sqrt(log n) } with
    M = max_ij entry_moment(i, j, 2*ceil(alpha log n)).

    ``entry_moment(i, j, q)`` must return the L_q norm of xi_ij * b_ij for
    even q; it is consulted on the stored nonzeros only (zero coefficients
    contribute zero).
    """
    if alpha < 3:
        raise ParameterError(f"alpha must be >= 3, got {alpha}")
    _require_symmetric(C, "bound_bounded_entries")
    p = structural_params(C)
    n = C.rows
    if n == 1:
        value = math.exp(2.0 / alpha) * 2.0 * p.sigma
        return _report("bounded_entries", value, EXPLICIT, C, eps=alpha)
    q = 2 * math.ceil(alpha * math.log(n))
    big_m = 0.0
    ii, jj, _ = C.nonzero_entries()
    for i, j in zip(ii, jj):
        mom = entry_moment(int(i), int(j), q)
        if not (mom >= 0.0 and math.isfinite(mom)):
            raise DataError(f"entry_moment({i},{j},{q}) returned {mom!r}")
        if mom > big_m:
            big_m = mom
    value = math.exp(2.0 / alpha) * (
        2.0 * p.sigma + 14.0 * alpha * big_m * math.sqrt(math.log(n))
    )
    return _report("bounded_entries", value, EXPLICIT, C, eps=alpha)


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
        norm_b = specnorm.spectral_norm(C.absolute(), tol=tol).value
    value = min(main.value, norm_b)
    return replace(main, bound_name="rademacher", value=float(value), constant_mode=STRUCTURAL)


def _max_entry_maxima(C, trials, seed):
    """Per-trial max_ij |b_ij g_ij| over the nonzero coefficients.

    One Gaussian per nonzero coefficient in the variate contract order (over
    i <= j if symmetric), from stream STREAM_MAX_ENTRY; an all-zero pattern
    gives an empty list.
    """
    if trials < 1:
        raise ParameterError("trials must be >= 1")
    b = abs(sampling.contract_values(C))
    if b.size == 0:
        return []
    maxima = []
    for t in range(trials):
        rng = SeedSpec(seed, t).generator(STREAM_MAX_ENTRY)
        g = rng.standard_normal(b.shape[0])
        maxima.append(float((b * abs(g)).max()))
    return maxima


def lower_bound_estimate(C, trials, seed):
    """Structural lower value sigma + E max_ij |b_ij g_ij| (constant 1).

    The max term is the Monte Carlo mean over ``trials`` independent
    Gaussian draws on the nonzero coefficients; the additive sigma (or
    sigma1 + sigma2) is deterministic.  The underlying comparison only
    holds up to a universal constant below 1; for diagonal-like patterns
    this constant-1 value exceeds the true expected norm.  It is not a
    bound: see ``lower_bound_explicit`` for one that holds with constant 1.
    """
    return _structural_lower(C, _max_entry_maxima(C, trials, seed), trials, seed)


def lower_bound_explicit(C, trials, seed):
    """Lower bound max( sqrt(max(s^2 - sigma_star^2, 0)), E max_ij |b_ij g_ij| )
    on E||X|| for Gaussian X, with s = sigma (max(sigma1, sigma2) if rectangular).

    Both terms hold with constant 1:

    - ||X|| >= |X_ij| for every (i, j), so E||X|| >= E max_ij |X_ij|.
    - ||X|| >= ||X e_i||, and (E||X e_i||)^2 = E||X e_i||^2 - Var||X e_i||
      >= s_i^2 - sigma_star^2, where s_i^2 = sum_j b_ji^2.  The variance
      bound is the Gaussian Poincare inequality: ||X e_i|| is
      sigma_star-Lipschitz in the underlying standard Gaussians.  Taking
      the largest column (or row, for rectangular X^T e_i) gives s.

    The max term is the Monte Carlo mean of the draws ``lower_bound_estimate``
    uses.  The max is taken over that mean, not per trial: by Jensen the
    mean of max(a, M_t) exceeds max(a, E M) and is no bound.  std_error is
    the max term's when it wins and 0.0 when the deterministic term wins.
    """
    return _explicit_lower(C, _max_entry_maxima(C, trials, seed), trials, seed)


def _structural_lower(C, maxima, trials, seed):
    """``lower_bound_estimate`` from already drawn ``_max_entry_maxima``."""
    if not maxima:
        return NormEstimate(0.0, 0.0, trials, seed)
    p = structural_params(C)
    offset = p.sigma if C.kind == "symmetric" else p.sigma1 + p.sigma2
    return NormEstimate.from_values(maxima, seed, offset=offset)


def _explicit_lower(C, maxima, trials, seed):
    """``lower_bound_explicit`` from already drawn ``_max_entry_maxima``."""
    p = structural_params(C)
    floor = math.sqrt(max(p.sigma**2 - p.sigma_star**2, 0.0))
    if maxima:
        max_term = NormEstimate.from_values(maxima, seed)
        if max_term.mean >= floor:
            return max_term
    return NormEstimate(floor, 0.0, trials, seed)


def tail_bound(C, shape, epsilon, t):
    """(threshold, probability) of the one-sided deviation bound at level t.

    threshold is the expected-norm bound plus t; the probability is
    exp(-t^2 / (4 sigma_star^2)) for the symmetric form and
    exp(-t^2 / (2 sigma_star^2)) for the rectangular one.
    """
    if t < 0:
        raise ParameterError(f"t must be >= 0, got {t}")
    if shape not in ("symmetric", "rectangular"):
        raise ParameterError(f"shape must be symmetric or rectangular, got {shape!r}")
    p = structural_params(C)
    if shape == "symmetric":
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
    if t < 0:
        raise ParameterError(f"t must be >= 0, got {t}")
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


def reference_tail_curves(t, n, sigma, sigma_tilde, sigma_star_tilde, c=8.0):
    """Comparison curves: (matrix-concentration, matrix-Bernstein), capped at 1.

    concentration: n exp(-t^2 / (8 sigma^2)); Bernstein:
    n exp(-t^2 / (c (sigma_tilde^2 + sigma_star_tilde t))), default c = 8 by
    analogy.  Both are plotting references only.
    """
    if t < 0:
        raise ParameterError(f"t must be >= 0, got {t}")
    if t == 0:
        return min(1.0, float(n)), min(1.0, float(n))
    conc = 0.0 if sigma == 0 else min(1.0, n * math.exp(-(t * t) / (8.0 * sigma**2)))
    denom = c * (sigma_tilde**2 + sigma_star_tilde * t)
    bern = 0.0 if denom == 0 else min(1.0, n * math.exp(-(t * t) / denom))
    return conc, bern


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
