"""Support enumeration for zero-sum games up to 4x4, kept as a test oracle
for the LP solver: it solves the indifference equations of every equal-size
support pair directly and shares no code with the simplex."""
from itertools import combinations

import numpy as np

from ztsim.games import MatrixGame, MixedStrategy, ZeroSumSolution


def support_enumeration(game: MatrixGame, tol=1e-8) -> ZeroSumSolution:
    """Reference solver for games up to 4x4: enumerate equal-size supports and
    solve the indifference equations directly."""
    A = game.matrix
    n_rows, n_cols = A.shape
    if n_rows > 4 or n_cols > 4:
        raise ValueError("support enumeration is limited to 4x4 games")
    for k in range(1, min(n_rows, n_cols) + 1):
        for I in combinations(range(n_rows), k):
            for J in combinations(range(n_cols), k):
                sub = A[np.ix_(I, J)]
                # Solve [sub' x = v, sum x = 1] and [sub y = v, sum y = 1].
                M = np.zeros((k + 1, k + 1))
                M[:k, :k] = sub.T
                M[:k, k] = -1.0
                M[k, :k] = 1.0
                rhs = np.zeros(k + 1)
                rhs[k] = 1.0
                try:
                    solx = np.linalg.solve(M, rhs)
                except np.linalg.LinAlgError:
                    continue
                M2 = np.zeros((k + 1, k + 1))
                M2[:k, :k] = sub
                M2[:k, k] = -1.0
                M2[k, :k] = 1.0
                try:
                    soly = np.linalg.solve(M2, rhs)
                except np.linalg.LinAlgError:
                    continue
                xs, v = solx[:k], solx[k]
                ys, v2 = soly[:k], soly[k]
                if abs(v - v2) > tol:
                    continue
                if (xs < -tol).any() or (ys < -tol).any():
                    continue
                x = np.zeros(n_rows)
                y = np.zeros(n_cols)
                x[list(I)] = np.clip(xs, 0.0, None)
                y[list(J)] = np.clip(ys, 0.0, None)
                x /= x.sum()
                y /= y.sum()
                if (x @ A).min() < v - tol or (A @ y).max() > v + tol:
                    continue
                return ZeroSumSolution(
                    float(v), MixedStrategy(tuple(x)), MixedStrategy(tuple(y))
                )
    raise RuntimeError("no equilibrium support found (should be impossible)")
