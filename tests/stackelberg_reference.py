"""The mixed strong Stackelberg loop as it stood before column pruning, kept
as a test oracle: it solves the LP of every follower column, with the
two-phase simplex of `tests/simplex_reference.py`, in index order, and keeps
the first value more than EQ_TOL above the incumbent. The LPs run on the
payoffs mapped into [1, 2] by its own affine map, so the simplex's absolute
TOL and EQ_TOL are relative to each matrix's range, as in the solver; the
leader and follower values are read back from the raw matrices."""
import numpy as np

from simplex_reference import solve_lp
from ztsim.errors import ZtsimError
from ztsim.games import MixedStrategy, SSEResult
from ztsim.games.simplex import InfeasibleLP
from ztsim.games.stackelberg import EQ_TOL


def _unit_range(M):
    """`M` mapped into [1, 2] by a positive affine map; a constant `M` maps
    to all ones."""
    lo, hi = M.min(), M.max()
    return 1.0 + (M - lo) / ((hi - lo) or 1.0)


def solve_stackelberg_mixed(game):
    L = np.array(game.leader_payoff)
    F = np.array(game.follower_payoff)
    Ls, Fs = _unit_range(L), _unit_range(F)
    n_rows, n_cols = L.shape
    best = None
    for j in range(n_cols):
        # max x @ Ls[:, j]  s.t.  x @ (Fs[:, k] - Fs[:, j]) <= 0 for all k,
        # sum(x) = 1, x >= 0
        others = [k for k in range(n_cols) if k != j]
        A_ub = np.array([Fs[:, k] - Fs[:, j] for k in others]) if others else None
        b_ub = np.zeros(len(others)) if others else None
        try:
            x, neg, _ = solve_lp(
                -Ls[:, j],
                A_ub=A_ub,
                b_ub=b_ub,
                A_eq=np.ones((1, n_rows)),
                b_eq=np.ones(1),
            )
        except InfeasibleLP:
            continue
        value = -neg
        if best is None or value > best[0] + EQ_TOL:
            best = (value, j, x)
    if best is None:
        raise ZtsimError(
            "no follower best-response region is feasible; unreachable for finite games"
        )
    _, j, x = best
    x = np.clip(x, 0.0, None)
    x = x / x.sum()
    return SSEResult(
        MixedStrategy(tuple(x)), j, float(x @ L[:, j]), float(x @ F[:, j]), "mixed"
    )
