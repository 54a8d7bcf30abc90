"""Self-contained single-phase tableau simplex.

Solves  maximize c@x  subject to  A@x <= b,  x >= 0,  with b >= 0.

Because b >= 0, the slack basis (x = 0) is feasible, so there is no phase 1
and no artificial variable. Pricing is Dantzig's (most negative reduced cost
enters); after DEGENERATE_RUN degenerate pivots in a row it switches to
Bland's rule (smallest-index entering column, smallest-basis-index ratio
tie-break), which cannot cycle, until a pivot makes progress again. The
objective row holds the duals under the slack columns at the optimum.

The tolerances are absolute, so callers scale their data to order one first
(the game solvers map payoffs into [1, 2]). Problem sizes here are tiny
game-theory LPs, so no effort is spent on sparsity or revised factorizations.
"""
from __future__ import annotations

import numpy as np

from ..errors import ZtsimError

TOL = 1e-9
DEGENERATE_RUN = 50


class InfeasibleLP(ZtsimError):
    """The LP has no feasible point that the caller can use. `solve_lp`
    itself never raises it: with b >= 0, x = 0 is always feasible."""


class UnboundedLP(ZtsimError):
    pass


def _pivot(T, basis, row, col):
    T[row] /= T[row, col]
    # One rank-1 update of every other row with a nonzero entry in `col`;
    # rows with an exact zero there are left untouched, so signed zeros survive.
    f = T[:, col]
    nz = np.abs(f) > 0.0
    nz[row] = False
    T[nz] -= f[nz][:, None] * T[row]
    basis[row] = col


def solve_lp(c, A, b):
    """Return (x, c@x, y) maximizing c@x s.t. A@x <= b, x >= 0, for b >= 0;
    y >= 0 are the optimal duals of the rows of A."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    m, n = A.shape
    T = np.zeros((m + 1, n + m + 1))
    T[:m, :n] = A
    T[:m, n:-1] = np.eye(m)
    T[:m, -1] = b
    T[m, :n] = -np.asarray(c, dtype=float)
    reduced = T[m, :-1]  # a view: reduced costs of the current basis
    basis = np.arange(n, n + m)
    degenerate = 0
    while True:
        if degenerate < DEGENERATE_RUN:
            enter = int(reduced.argmin())
            if reduced[enter] >= -TOL:
                break
        else:
            eligible = reduced < -TOL
            enter = int(eligible.argmax())
            if not eligible[enter]:
                break
        col = T[:m, enter]
        rows = (col > TOL).nonzero()[0]
        if rows.size == 0:
            raise UnboundedLP("unbounded linear program")
        ratios = T[rows, -1] / col[rows]
        step = ratios.min()
        # Among equal minimum ratios, the smallest basis index leaves.
        tied = rows[ratios == step]
        leave = tied[0] if tied.size == 1 else min(tied, key=basis.__getitem__)
        degenerate = degenerate + 1 if step <= TOL else 0
        _pivot(T, basis, int(leave), enter)
    x = np.zeros(n + m)
    # Rounding in the row updates can leave a basic value a few ulps below 0.
    x[basis] = np.maximum(T[:m, -1], 0.0)
    return x[:n], float(T[m, -1]), T[m, n:-1].copy()
