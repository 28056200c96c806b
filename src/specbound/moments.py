"""Exact even-cycle combinatorics and trace moments.

Everything here is exact: shape enumeration is a canonical depth-first
generation with parity pruning, and the trace-moment engines run on Python
integers (arbitrary precision) or Fractions, falling back to floats only
for non-integer coefficient values.  The engines read a pattern through its
nonzeros only, never through a dense copy.

A length-2p closed walk u_1 -> u_2 -> ... -> u_2p -> u_1 on the complete
graph with self-loops is *even* when every distinct undirected edge
(closing edge included) is traversed an even number of times.  Its *shape*
relabels vertices in order of first appearance; m(s) is the number of
distinct vertices and n_i(s) the number of distinct edges visited exactly
i times.

A *bipartite* (alternating) walk u_1 v_1 ... u_p v_p is an even walk whose
odd and even positions use disjoint vertex sets: each vertex keeps the
parity of the position where it first appears, and every step goes to a
vertex of the other parity, so there are no self-loops.  Its shape
relabels the u's and the v's separately.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .coeffs import structural_params
from .errors import ParameterError, SizeError
from .sampling import GAUSSIAN, distribution_moment

MAX_HALF_LENGTH = 6          # enumeration guard: p <= 6
BRUTE_FORCE_GUARD = 10**8    # guard on n^(2p) for the exact tuple sum


def gaussian_moment(i):
    """E[g^i] for g ~ N(0,1): 0 for odd i, (i-1)!! for even i, exact."""
    if i < 0:
        raise ParameterError("moment order must be >= 0")
    return distribution_moment(GAUSSIAN, i) if i % 2 == 0 else 0


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


def _even_walks(p, bipartite):
    """Yield (seq, histogram) for every canonical even closed walk of length 2p.

    Depth-first generation of label sequences (labels in order of first
    appearance, tried in increasing order, so the sequences come out sorted)
    with two prunes: the number of odd-multiplicity edges can never exceed
    the number of steps left (parity repair), and at most p+1 distinct
    labels can appear.  With ``bipartite`` a step only goes to a label
    first seen at a position of the other parity.  The histogram is the
    sorted ((multiplicity, count), ...) of the walk's edge visits.
    """
    if p < 1:
        raise ParameterError("p must be >= 1")
    if p > MAX_HALF_LENGTH:
        raise SizeError(f"p={p} exceeds the enumeration guard {MAX_HALF_LENGTH}")
    L = 2 * p
    seq = [1]
    edges = Counter()

    def rec(maxlab, odd):
        pos = len(seq)
        if pos == L:
            e = _edge(seq[-1], 1)
            if odd + (1 if edges[e] % 2 == 0 else -1) == 0:
                edges[e] += 1
                hist = Counter(c for c in edges.values() if c)
                yield tuple(seq), tuple(sorted(hist.items()))
                edges[e] -= 1
            return
        for v in range(1, min(maxlab + 1, p + 1) + 1):
            # a label's parity is that of the position where it first appeared
            if bipartite and v <= maxlab and seq.index(v) % 2 != pos % 2:
                continue
            e = _edge(seq[-1], v)
            new_odd = odd + (1 if edges[e] % 2 == 0 else -1)
            if new_odd > L - pos:  # steps left after this edge
                continue
            seq.append(v)
            edges[e] += 1
            yield from rec(max(maxlab, v), new_odd)
            edges[e] -= 1
            seq.pop()

    yield from rec(1, 0)


def enumerate_shapes(p):
    """All shapes of even cycles of length 2p, in lexicographic order."""
    return [
        CycleShape(seq=seq, m=max(seq), edge_multiplicities=hist)
        for seq, hist in _even_walks(p, bipartite=False)
    ]


def enumerate_bipartite_shapes(p):
    """All shapes of even alternating cycles of length 2p, lexicographic.

    Left and right vertices are relabeled separately in order of
    appearance; the two sides are disjoint, so the walk's edge histogram
    is the shape's.
    """
    out = []
    for seq, hist in _even_walks(p, bipartite=True):
        us, vs = shape_of(seq[0::2]), shape_of(seq[1::2])
        out.append(
            BipartiteShape(
                seq=tuple(lab for pair in zip(us, vs) for lab in pair),
                m1=max(vs),
                m2=max(us),
                edge_multiplicities=hist,
            )
        )
    out.sort(key=lambda s: s.seq)
    return out


def _moment_table(dist, max_order):
    """E[xi^i] for i = 0..max_order; exact ints for gaussian/rademacher."""
    return [distribution_moment(dist, i) if i % 2 == 0 else 0 for i in range(max_order + 1)]


def _adjacency(C):
    """Per-row {col: b_ij} dicts of C's nonzeros, columns ascending.

    Values are exact Python ints when every nonzero is an integer below
    2^53, and Python floats otherwise.
    """
    rows, cols, vals = C.nonzero_entries()
    ints = np.round(vals)
    if np.array_equal(vals, ints) and np.abs(ints).max(initial=0) < 2**53:
        vals = ints.astype(np.int64)
    adj = [{} for _ in range(C.rows)]
    # tolist gives Python scalars: numpy ints would overflow in the products
    for i, j, b in zip(rows.tolist(), cols.tolist(), vals.tolist()):
        adj[i][j] = b
    return adj


def _check_walks(C, p):
    """Raise unless the walk sum of trace_moment_bruteforce(C, p) can run."""
    if p < 1:
        raise ParameterError("p must be >= 1")
    if C.kind != "symmetric":
        raise ParameterError("trace moments are defined for symmetric patterns")
    # a 1 x 1 pattern passes the n^(2p) guard at every p; the walk recurses
    # once per step, so p itself is bounded too
    if p > MAX_HALF_LENGTH:
        raise SizeError(f"p={p} exceeds the enumeration guard {MAX_HALF_LENGTH}")
    if C.rows ** (2 * p) > BRUTE_FORCE_GUARD:
        raise SizeError(f"n^(2p) = {C.rows}^{2 * p} exceeds the guard {BRUTE_FORCE_GUARD}")


def _unit_sigma_star(C):
    """structural_params(C), after checking that sigma_star <= 1."""
    params = structural_params(C)
    if params.sigma_star > 1 + 1e-12:
        raise ParameterError("sigma_star must be <= 1; rescale the pattern by 1/sigma_star")
    return params


def trace_moment_bruteforce(C, p, dist):
    """E Tr[X^(2p)] by exact summation over closed walks.

    Follows the nonzero adjacency of C, tracks undirected-edge visit counts
    (self-loops and the closing edge included), and weighs each even walk
    by its coefficient product times the product of entry moments.  Exact
    integer arithmetic applies when C is integer-valued and the entry
    moments are integers; otherwise double precision.
    """
    _check_walks(C, p)
    adj = _adjacency(C)
    moments = _moment_table(dist, 2 * p)
    L = 2 * p
    total = 0
    edges = Counter()

    def rec(pos, u, start, prod, odd):
        nonlocal total
        if pos == L:
            b_close = adj[u].get(start, 0)
            if b_close == 0:
                return
            e = _edge(u, start)
            if odd + (1 if edges[e] % 2 == 0 else -1) != 0:
                return
            edges[e] += 1
            w = prod * b_close
            for cnt in edges.values():
                w *= moments[cnt]
            total += w
            edges[e] -= 1
            return
        for v, b in adj[u].items():
            e = _edge(u, v)
            new_odd = odd + (1 if edges[e] % 2 == 0 else -1)
            if new_odd > L - pos:
                continue
            edges[e] += 1
            rec(pos + 1, v, start, prod * b, new_odd)
            edges[e] -= 1

    for start in range(C.rows):
        rec(1, start, start, 1, 0)
    return total


def _gaussian_weight(shape):
    """prod_i E[g^i]^(n_i(s)), the all-Gaussian moment product of a shape."""
    return math.prod(gaussian_moment(mult) ** cnt for mult, cnt in shape.edge_multiplicities)


def wigner_trace_moment(r, p):
    """E Tr[Y_r^(2p)] for the r x r all-Gaussian symmetric matrix, exact.

    Sums r (r-1) ... (r-m(s)+1) * prod_i E[g^i]^(n_i(s)) over the even-cycle
    shapes of length 2p.  Valid as stated for r > p.
    """
    if r < 1 or p < 1:
        raise ParameterError("r and p must be >= 1")
    if r <= p:
        raise ParameterError(f"the closed form requires r > p, got r={r}, p={p}")
    return sum(math.perm(r, s.m) * _gaussian_weight(s) for s in enumerate_shapes(p))


def check_comparison(C, p):
    """Raise ParameterError or SizeError unless verify_comparison(C, p) can run.

    The pattern must be symmetric and nonzero with sigma_star <= 1, p at
    most MAX_HALF_LENGTH, and n^(2p) within BRUTE_FORCE_GUARD.  Needs only the pattern's kind, size
    and structural parameters.
    """
    _check_walks(C, p)
    if _unit_sigma_star(C).sigma == 0:
        raise ParameterError("comparison needs a nonzero pattern")


def verify_comparison(C, p):
    """Check E Tr[X^(2p)] <= n/(ceil(sigma^2)+p) * E Tr[Y^(2p)], exactly.

    Both sides are computed by exact engines (walk sum on the left, the
    closed-form shape sum on the right); requires check_comparison(C, p)
    to pass.  Returns (lhs, rhs, holds).
    """
    check_comparison(C, p)
    # exact ceil(sigma^2): float entries are exact binary rationals
    sigma_sq = max(sum(Fraction(b) ** 2 for b in row.values()) for row in _adjacency(C))
    r = math.ceil(sigma_sq) + p
    lhs = trace_moment_bruteforce(C, p, GAUSSIAN)
    rhs = Fraction(C.rows, r) * wigner_trace_moment(r, p)
    if isinstance(lhs, float):
        holds = lhs <= float(rhs)
    else:
        holds = Fraction(lhs) <= rhs
    return lhs, rhs, holds
