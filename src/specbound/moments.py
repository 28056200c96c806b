"""Exact even-cycle combinatorics and trace moments.

Everything here is exact: shape enumeration is a canonical depth-first
generation with parity pruning, and the trace-moment engines run on Python
integers (arbitrary precision) or Fractions, falling back to floats only
for non-integer coefficient values.

A length-2p closed walk u_1 -> u_2 -> ... -> u_2p -> u_1 on the complete
graph with self-loops is *even* when every distinct undirected edge
(closing edge included) is traversed an even number of times.  Its *shape*
relabels vertices in order of first appearance; m(s) is the number of
distinct vertices and n_i(s) the number of distinct edges visited exactly
i times.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .coeffs import structural_params
from .errors import ParameterError, SizeError
from .sampling import GAUSSIAN, _double_factorial, distribution_moment

MAX_HALF_LENGTH = 6          # enumeration guard: p <= 6
BRUTE_FORCE_GUARD = 10**8    # guard on n^(2p) for the exact tuple sum
WEIGHT_ENUM_GUARD = 10**7    # guard on n^(m-1) for shape weight sums


def gaussian_moment(i):
    """E[g^i] for g ~ N(0,1): 0 for odd i, (i-1)!! for even i, exact."""
    if i < 0:
        raise ParameterError("moment order must be >= 0")
    if i % 2 == 1:
        return 0
    return _double_factorial(i - 1)


def _edge(a, b):
    return (a, b) if a <= b else (b, a)


@dataclass(frozen=True)
class CycleShape:
    """Canonical shape of an even cycle of length 2p."""

    seq: tuple
    m: int
    edge_multiplicities: tuple  # sorted ((multiplicity, count), ...)

    def multiplicity_counts(self):
        """n_i(s) as a dict {i: count}."""
        return dict(self.edge_multiplicities)


@dataclass(frozen=True)
class BipartiteShape:
    """Canonical shape of an even alternating cycle u1,v1,...,up,vp.

    m1 counts distinct right vertices (even positions, the v's), m2 the
    distinct left vertices (odd positions, the u's).
    """

    seq: tuple  # interleaved (u1, v1, u2, v2, ..., up, vp)
    m1: int
    m2: int
    edge_multiplicities: tuple

    def multiplicity_counts(self):
        return dict(self.edge_multiplicities)


def shape_of(seq):
    """Canonical relabeling of a vertex sequence, in order of appearance."""
    labels = {}
    out = []
    for v in seq:
        if v not in labels:
            labels[v] = len(labels) + 1
        out.append(labels[v])
    return tuple(out)


def edge_multiplicities_of(seq):
    """Multiset of undirected edge visit counts of the closed walk ``seq``."""
    counts = Counter()
    L = len(seq)
    for idx in range(L):
        counts[_edge(seq[idx], seq[(idx + 1) % L])] += 1
    return counts


def _shape_from_seq(seq):
    counts = edge_multiplicities_of(seq)
    hist = Counter(counts.values())
    return CycleShape(
        seq=tuple(seq),
        m=max(seq),
        edge_multiplicities=tuple(sorted(hist.items())),
    )


def enumerate_shapes(p):
    """All shapes of even cycles of length 2p, in lexicographic order.

    Depth-first generation of canonical sequences with two prunes: the
    number of odd-multiplicity edges can never exceed the number of steps
    left (parity repair), and at most p+1 distinct vertices can appear.
    """
    if p < 1:
        raise ParameterError("p must be >= 1")
    if p > MAX_HALF_LENGTH:
        raise SizeError(f"p={p} exceeds the enumeration guard {MAX_HALF_LENGTH}")
    L = 2 * p
    out = []
    seq = [1]
    edges = Counter()

    def rec(maxlab, odd):
        pos = len(seq)
        if pos == L:
            e = _edge(seq[-1], 1)
            final_odd = odd + (1 if edges[e] % 2 == 0 else -1)
            if final_odd == 0:
                edges[e] += 1
                out.append(_shape_from_seq(seq))
                edges[e] -= 1
            return
        for v in range(1, min(maxlab + 1, p + 1) + 1):
            e = _edge(seq[-1], v)
            new_odd = odd + (1 if edges[e] % 2 == 0 else -1)
            if new_odd > L - pos:  # steps left after this edge
                continue
            seq.append(v)
            edges[e] += 1
            rec(max(maxlab, v), new_odd)
            edges[e] -= 1
            seq.pop()

    rec(1, 0)
    out.sort(key=lambda s: s.seq)
    return out


def enumerate_bipartite_shapes(p):
    """All shapes of even alternating cycles of length 2p, lexicographic.

    Left and right vertices are relabeled separately in order of
    appearance; edges live on the complete bipartite graph, so there are
    no self-loops.
    """
    if p < 1:
        raise ParameterError("p must be >= 1")
    if p > MAX_HALF_LENGTH:
        raise SizeError(f"p={p} exceeds the enumeration guard {MAX_HALF_LENGTH}")
    out = []
    us = [1]
    vs = []
    edges = Counter()

    def emit():
        seq = []
        for u, v in zip(us, vs):
            seq += [u, v]
        counts = edge_multiplicities_of_bipartite(us, vs)
        hist = Counter(counts.values())
        out.append(
            BipartiteShape(
                seq=tuple(seq),
                m1=max(vs),
                m2=max(us),
                edge_multiplicities=tuple(sorted(hist.items())),
            )
        )

    def rec(odd):
        pos = len(us) + len(vs)  # vertices placed so far
        steps_done = pos - 1
        if pos == 2 * p:
            e = (us[0], vs[-1])  # closing edge v_p -> u_1
            final_odd = odd + (1 if edges[e] % 2 == 0 else -1)
            if final_odd == 0:
                emit()
            return
        extending_u = len(us) == len(vs)  # next position is a u
        if extending_u:
            maxlab = max(us)
            prev = vs[-1]
        else:
            maxlab = max(vs) if vs else 0
            prev = us[-1]
        # m1 + m2 <= p + 1 for even cycles
        budget_new = (p + 1) - (max(us) + (max(vs) if vs else 0))
        top = maxlab + 1 if budget_new > 0 else maxlab
        for lab in range(1, top + 1):
            e = (lab, prev) if extending_u else (prev, lab)
            new_odd = odd + (1 if edges[e] % 2 == 0 else -1)
            if new_odd > 2 * p - steps_done - 1:
                continue
            (us if extending_u else vs).append(lab)
            edges[e] += 1
            rec(new_odd)
            edges[e] -= 1
            (us if extending_u else vs).pop()

    rec(0)
    out.sort(key=lambda s: s.seq)
    return out


def edge_multiplicities_of_bipartite(us, vs):
    """Visit counts of the alternating closed walk over (u, v) edges."""
    counts = Counter()
    p = len(us)
    for j in range(p):
        counts[(us[j], vs[j])] += 1
        counts[(us[(j + 1) % p], vs[j])] += 1
    return counts


def _moment_table(dist, max_order):
    """E[xi^i] for i = 0..max_order; exact ints for gaussian/rademacher."""
    return [distribution_moment(dist, i) if i % 2 == 0 else 0 for i in range(max_order + 1)]


def _integer_entries(C):
    a = C.toarray()
    r = np.round(a)
    if np.array_equal(a, r) and np.abs(r).max(initial=0) < 2**53:
        return r.astype(np.int64)
    return None


def trace_moment_bruteforce(C, p, dist):
    """E Tr[X^(2p)] by exact summation over closed walks.

    Follows the nonzero adjacency of C, tracks undirected-edge visit counts
    (self-loops and the closing edge included), and weighs each even walk
    by its coefficient product times the product of entry moments.  Exact
    integer arithmetic applies when C is integer-valued and the entry
    moments are integers; otherwise double precision.
    """
    if C.kind != "symmetric":
        raise ParameterError("trace moments are defined for symmetric patterns")
    if p < 1:
        raise ParameterError("p must be >= 1")
    n = C.rows
    if n ** (2 * p) > BRUTE_FORCE_GUARD:
        raise SizeError(f"n^(2p) = {n}^{2 * p} exceeds the guard {BRUTE_FORCE_GUARD}")
    ints = _integer_entries(C)
    A = ints if ints is not None else C.toarray()
    moments = _moment_table(dist, 2 * p)
    neighbors = []
    for u in range(n):
        row = A[u]
        nz = np.nonzero(row)[0]
        if ints is not None:
            neighbors.append([(int(v), int(row[v])) for v in nz])
        else:
            neighbors.append([(int(v), float(row[v])) for v in nz])
    L = 2 * p
    total = 0
    edges = Counter()

    def rec(pos, u, start, prod, odd):
        nonlocal total
        if pos == L:
            b_close = A[u, start]
            if b_close == 0:
                return
            e = _edge(u, start)
            if odd + (1 if edges[e] % 2 == 0 else -1) != 0:
                return
            edges[e] += 1
            # keep arithmetic in Python scalars: numpy ints would overflow
            w = prod * (int(b_close) if ints is not None else float(b_close))
            for cnt in edges.values():
                w *= moments[cnt]
            total += w
            edges[e] -= 1
            return
        for v, b in neighbors[u]:
            e = _edge(u, v)
            new_odd = odd + (1 if edges[e] % 2 == 0 else -1)
            if new_odd > L - pos:
                continue
            edges[e] += 1
            rec(pos + 1, v, start, prod * b, new_odd)
            edges[e] -= 1

    for start in range(n):
        rec(1, start, start, 1, 0)
    return total


def wigner_trace_moment(r, p):
    """E Tr[Y_r^(2p)] for the r x r all-Gaussian symmetric matrix, exact.

    Sums r (r-1) ... (r-m(s)+1) * prod_i E[g^i]^(n_i(s)) over the even-cycle
    shapes of length 2p.  Valid as stated for r > p.
    """
    if r < 1 or p < 1:
        raise ParameterError("r and p must be >= 1")
    if r <= p:
        raise ParameterError(f"the closed form requires r > p, got r={r}, p={p}")
    total = 0
    for s in enumerate_shapes(p):
        weight = 1
        for mult, cnt in s.edge_multiplicities:
            weight *= gaussian_moment(mult) ** cnt
        total += math.perm(r, s.m) * weight
    return total


def rect_trace_moment(r, rprime, p):
    """E Tr[(Y Y^T)^p] for the r x r' all-Gaussian matrix, exact.

    Sums r (r-1) ... (r-m2+1) * r' (r'-1) ... (r'-m1+1) * moment products
    over bipartite even-cycle shapes; valid for r > p/2 and r' > p/2.
    """
    if r < 1 or rprime < 1 or p < 1:
        raise ParameterError("r, r' and p must be >= 1")
    if not (r > p / 2 and rprime > p / 2):
        raise ParameterError(f"requires r > p/2 and r' > p/2, got r={r}, r'={rprime}, p={p}")
    total = 0
    for s in enumerate_bipartite_shapes(p):
        weight = 1
        for mult, cnt in s.edge_multiplicities:
            weight *= gaussian_moment(mult) ** cnt
        total += math.perm(r, s.m2) * math.perm(rprime, s.m1) * weight
    return total


def shape_weight_check(C, s, u):
    """(lhs, rhs) of the per-shape coefficient-sum bound.

    lhs sums the coefficient product over all cycles with shape ``s``
    starting at vertex ``u`` (distinct vertices, injectively realized);
    rhs is sigma^(2 (m(s) - 1)).  Requires sigma_star <= 1; the caller
    asserts lhs <= rhs.
    """
    params = structural_params(C)
    if params.sigma_star > 1 + 1e-12:
        raise ParameterError("shape_weight_check requires sigma_star <= 1")
    n = C.rows
    m = s.m
    if n ** (m - 1) > WEIGHT_ENUM_GUARD:
        raise SizeError(f"n^(m-1) = {n}^{m - 1} exceeds the guard {WEIGHT_ENUM_GUARD}")
    if not 0 <= u < n:
        raise ParameterError(f"start vertex {u} out of range")
    A = C.toarray()
    L = len(s.seq)
    steps = [(s.seq[idx] - 1, s.seq[(idx + 1) % L] - 1) for idx in range(L)]
    others = [v for v in range(n) if v != u]
    total = 0.0
    # injective maps of the labels 2..m into the other vertices, in lexicographic order
    for rest in itertools.permutations(others, m - 1):
        phi = (u, *rest)
        prod = 1.0
        for a, b in steps:
            prod *= A[phi[a], phi[b]]
            if prod == 0.0:
                break
        total += prod  # adding a zero product leaves total's bits unchanged
    rhs = params.sigma ** (2 * (m - 1))
    return total, rhs


def verify_comparison(C, p):
    """Check E Tr[X^(2p)] <= n/(ceil(sigma^2)+p) * E Tr[Y^(2p)], exactly.

    Both sides are computed by exact engines (walk sum on the left, the
    closed-form shape sum on the right); requires sigma_star <= 1.
    Returns (lhs, rhs, holds).
    """
    params = structural_params(C)
    if params.sigma_star > 1 + 1e-12:
        raise ParameterError(
            "comparison requires sigma_star <= 1; rescale the pattern by 1/sigma_star"
        )
    if params.sigma == 0:
        raise ParameterError("comparison needs a nonzero pattern")
    n = C.rows
    # exact ceil(sigma^2): float entries are exact binary rationals
    a = C.toarray()
    sigma_sq = max(
        sum(Fraction(x) * Fraction(x) for x in row) for row in a.tolist()
    )
    r = math.ceil(sigma_sq) + p
    lhs = trace_moment_bruteforce(C, p, GAUSSIAN)
    rhs = Fraction(n, r) * wigner_trace_moment(r, p)
    if isinstance(lhs, float):
        holds = lhs <= float(rhs)
    else:
        holds = Fraction(lhs) <= rhs
    return lhs, rhs, holds
