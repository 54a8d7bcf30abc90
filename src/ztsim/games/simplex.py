"""Self-contained two-phase tableau simplex with Bland's rule.

Solves  minimize c@x  subject to  A_ub@x <= b_ub,  A_eq@x = b_eq,  x >= 0.

Bland's rule (smallest-index entering column, smallest-basis-index ratio
tie-break) guarantees termination even on degenerate tableaus. Problem sizes
here are tiny game-theory LPs, so no effort is spent on sparsity or revised
factorizations.
"""
from __future__ import annotations

import numpy as np

from ..errors import ZtsimError

TOL = 1e-9


class InfeasibleLP(ZtsimError):
    pass


class UnboundedLP(ZtsimError):
    pass


def _pivot(T, basis, row, col):
    T[row] /= T[row, col]
    # One rank-1 update of every other row with a nonzero entry in `col`;
    # rows with an exact zero there are left untouched, as a row-by-row
    # elimination would, so signed zeros survive.
    f = T[:, col]
    nz = np.abs(f) > 0.0
    nz[row] = False
    T[nz] -= f[nz][:, None] * T[row]
    basis[row] = col


def _run(T, basis, obj, allowed):
    """Drive the tableau to optimality for the cost vector `obj`, entering
    only columns < `allowed`. Returns the objective value."""
    costs = obj[:allowed]
    while True:
        cb = obj[basis]
        reduced = costs - cb @ T[:, :allowed]
        eligible = reduced < -TOL
        eligible[basis[basis < allowed]] = False
        enter = int(eligible.argmax())
        if not eligible[enter]:
            return float(sum(cb * T[:, -1]))
        col = T[:, enter]
        rows = (col > TOL).nonzero()[0]
        if rows.size == 0:
            raise UnboundedLP("unbounded linear program")
        ratios = T[rows, -1] / col[rows]
        # Bland's tie-break: among equal minimum ratios, the smallest basis index.
        tied = rows[ratios == ratios.min()]
        leave = tied[0] if tied.size == 1 else min(tied, key=basis.__getitem__)
        _pivot(T, basis, int(leave), enter)


def solve_lp(c, A_ub=None, b_ub=None, A_eq=None, b_eq=None):
    """Return (x, c@x) minimizing c@x over the given polytope, x >= 0."""
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
        return np.zeros(n), 0.0
    A = np.vstack(blocks)
    b = np.concatenate(rhs)
    m = A.shape[0]
    neg = b < 0
    A[neg] *= -1.0
    b[neg] *= -1.0
    ntot = n + n_slack

    # Phase 1: artificial variables form the starting basis.
    T = np.zeros((m, ntot + m + 1))
    T[:, :ntot] = A
    T[:, ntot : ntot + m] = np.eye(m)
    T[:, -1] = b
    basis = np.arange(ntot, ntot + m)
    phase1 = np.zeros(ntot + m + 1)
    phase1[ntot : ntot + m] = 1.0
    if _run(T, basis, phase1, ntot + m) > 1e-7:
        raise InfeasibleLP("infeasible linear program")
    # Drive leftover artificials out of the basis where possible; rows where
    # it is impossible are redundant and stay pinned at zero.
    for i in range(m):
        if basis[i] >= ntot:
            cols = np.flatnonzero(np.abs(T[i, :ntot]) > TOL)
            if cols.size:
                _pivot(T, basis, i, int(cols[0]))

    phase2 = np.zeros(ntot + m + 1)
    phase2[:n] = c
    _run(T, basis, phase2, ntot)
    x = np.zeros(ntot)
    for i, bi in enumerate(basis):
        if bi < ntot:
            x[bi] = T[i, -1]
    sol = x[:n]
    return sol, float(c @ sol)
