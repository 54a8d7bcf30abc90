"""Loop-based two-phase tableau simplex with Bland's rule, kept as a test
oracle for `ztsim.games.simplex` and for the commitment LPs of
`tests/stackelberg_reference.py`.

It shares no code with the solver under test: it handles general LPs
(equality rows, negative right-hand sides) through a phase 1 over artificial
variables, prices with Bland's rule throughout and computes row by row. The
tableau holds exact rationals (each float converts exactly): eliminating a
row against a near-copy of itself leaves an exact 0, not rounding residue
above TOL that would be taken for a pivot. In floats that residue led it to
a suboptimal vertex, or to report an unbounded LP, on games whose follower
payoffs differ by about 1e-9 of their range. TOL still decides pricing and
the ratio test, as before. Only the exception classes come from ztsim, so
outcomes compare by class. `solve_lp` returns the pivot count alongside the
answer.
"""
from fractions import Fraction

import numpy as np

from ztsim.games.simplex import InfeasibleLP, UnboundedLP

TOL = 1e-9
_exact = np.vectorize(Fraction, otypes=[object])


def _pivot(T, basis, row, col):
    T[row] /= T[row, col]
    for i in range(T.shape[0]):
        if i != row and abs(T[i, col]) > 0.0:
            T[i] -= T[i, col] * T[row]
    basis[row] = col


def _run(T, basis, obj, allowed, pivots):
    m = T.shape[0]
    while True:
        cb = np.array([obj[b] for b in basis])
        reduced = obj[:allowed] - cb @ T[:, :allowed]
        enter = -1
        for j in range(allowed):
            if reduced[j] < -TOL and j not in basis:
                enter = j
                break
        if enter < 0:
            return float(sum(obj[basis[i]] * T[i, -1] for i in range(m)))
        candidates = [
            (T[i, -1] / T[i, enter], basis[i], i)
            for i in range(m)
            if T[i, enter] > TOL
        ]
        if not candidates:
            raise UnboundedLP("unbounded linear program")
        _, _, leave = min(candidates)
        _pivot(T, basis, leave, enter)
        pivots[0] += 1


def solve_lp(c, A_ub=None, b_ub=None, A_eq=None, b_eq=None):
    """Return (x, c@x, pivots) minimizing c@x over the polytope, x >= 0."""
    c = np.asarray(c, dtype=float)
    n = c.size
    blocks = []
    rhs = []
    n_slack = 0
    if A_ub is not None:
        A_ub = np.atleast_2d(np.asarray(A_ub, dtype=float))
        b_ub = np.asarray(b_ub, dtype=float).ravel()
        n_slack = A_ub.shape[0]
        blocks.append(np.hstack([A_ub, np.eye(n_slack)]))
        rhs.append(b_ub)
    if A_eq is not None:
        A_eq = np.atleast_2d(np.asarray(A_eq, dtype=float))
        b_eq = np.asarray(b_eq, dtype=float).ravel()
        blocks.append(np.hstack([A_eq, np.zeros((A_eq.shape[0], n_slack))]))
        rhs.append(b_eq)
    if not blocks:
        return np.zeros(n), 0.0, 0
    A = np.vstack(blocks)
    b = np.concatenate(rhs)
    m = A.shape[0]
    neg = b < 0
    A[neg] *= -1.0
    b[neg] *= -1.0
    ntot = n + n_slack
    pivots = [0]

    T = np.zeros((m, ntot + m + 1))
    T[:, :ntot] = A
    T[:, ntot : ntot + m] = np.eye(m)
    T[:, -1] = b
    T = _exact(T)
    basis = list(range(ntot, ntot + m))
    phase1 = np.zeros(ntot + m + 1)
    phase1[ntot : ntot + m] = 1.0
    if _run(T, basis, _exact(phase1), ntot + m, pivots) > 1e-7:
        raise InfeasibleLP("infeasible linear program")
    for i in range(m):
        if basis[i] >= ntot:
            col = next((j for j in range(ntot) if abs(T[i, j]) > TOL), None)
            if col is not None:
                _pivot(T, basis, i, col)
                pivots[0] += 1

    phase2 = np.zeros(ntot + m + 1)
    phase2[:n] = c
    _run(T, basis, _exact(phase2), ntot, pivots)
    x = _exact(np.zeros(ntot))
    for i, bi in enumerate(basis):
        if bi < ntot:
            x[bi] = T[i, -1]
    sol = x[:n]
    return sol.astype(float), float(_exact(c) @ sol), pivots[0]
