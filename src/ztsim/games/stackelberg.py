"""Stackelberg commitment in bimatrix games: pure-commitment enumeration and
the strong Stackelberg equilibrium via one linear program per follower action,
skipping actions whose bound cannot beat the incumbent.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import CertificateError, ValidationError, ZtsimError
from .matrix import MixedStrategy, _check_matrices, certificate_tol
from .simplex import InfeasibleLP, solve_lp

EQ_TOL = 1e-9


@dataclass(frozen=True)
class BimatrixGame:
    leader_payoff: tuple
    follower_payoff: tuple
    row_labels: tuple = ()
    col_labels: tuple = ()

    def __post_init__(self):
        _check_matrices(self, "leader_payoff", "follower_payoff")

    @property
    def shape(self):
        return len(self.leader_payoff), len(self.leader_payoff[0])


@dataclass(frozen=True)
class SSEResult:
    leader_strategy: MixedStrategy
    follower_action: int
    leader_value: float
    follower_value: float
    mode: str


def solve_stackelberg(game: BimatrixGame, mode="mixed") -> SSEResult:
    """Leader commits first; follower best-responds, ties broken in the
    leader's favor (strong Stackelberg convention).

    pure: enumerate leader rows. mixed: one LP per follower column
    (Conitzer & Sandholm, EC 2006), visited in index order: maximize the
    leader payoff over the region where that column is a follower best
    response, and keep the first value more than EQ_TOL above the incumbent.
    A column is skipped, without its LP, once an incumbent exists and the
    column's bound max_i L[i, j] is no higher than the incumbent's value: the
    LP value x @ L[:, j] cannot exceed that bound, so the column could not
    have replaced the incumbent. Index order is kept because the first
    column within EQ_TOL wins ties, so visit order shows in the answer.

    The mixed answer must pass a certificate: the follower best-responds to
    the returned mix, and the leader value is at least `leader_maximin`, each
    within `certificate_tol` of the payoff matrix involved. An answer that
    fails raises CertificateError.
    """
    if mode not in ("pure", "mixed"):
        raise ValidationError(f"mode must be 'pure' or 'mixed', got {mode!r}")
    L = np.array(game.leader_payoff)
    F = np.array(game.follower_payoff)
    n_rows, n_cols = L.shape

    if mode == "pure":
        best = None
        for i in range(n_rows):
            br_val = F[i].max()
            # follower ties break in the leader's favor
            cols = [j for j in range(n_cols) if F[i, j] >= br_val - EQ_TOL]
            j = max(cols, key=lambda jj: (L[i, jj], -jj))
            if best is None or L[i, j] > best[0] + EQ_TOL:
                best = (L[i, j], i, j)
        value, i, j = best
        weights = tuple(1.0 if k == i else 0.0 for k in range(n_rows))
        return SSEResult(
            MixedStrategy(weights), j, float(value), float(F[i, j]), "pure"
        )

    bound = L.max(axis=0)
    best = None
    for j in range(n_cols):
        if best is not None and bound[j] <= best[0]:
            continue  # x @ L[:, j] <= bound[j] cannot exceed best + EQ_TOL
        # max x @ L[:, j]  s.t.  x @ (F[:, k] - F[:, j]) <= 0 for all k,
        # sum(x) = 1, x >= 0
        others = [k for k in range(n_cols) if k != j]
        A_ub = np.array([F[:, k] - F[:, j] for k in others]) if others else None
        b_ub = np.zeros(len(others)) if others else None
        try:
            x, neg = solve_lp(
                -L[:, j],
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
    value, j, x = best
    x = np.clip(x, 0.0, None)
    x = x / x.sum()
    result = SSEResult(
        MixedStrategy(tuple(x)), j, float(value), float(x @ F[:, j]), "mixed"
    )
    follower = np.array(result.leader_strategy.weights) @ F
    earned, best_reply = float(follower[j]), float(follower.max())
    maximin = leader_maximin(game)
    if (
        earned < best_reply - certificate_tol(F)
        or result.leader_value < maximin - certificate_tol(L)
    ):
        raise CertificateError(
            f"Stackelberg certificate failed: follower action {j} earns {earned!r} "
            f"against a best {best_reply!r}; leader value {result.leader_value!r} "
            f"against maximin {maximin!r}"
        )
    return result


def leader_maximin(game: BimatrixGame) -> float:
    """Leader's pure security level on its own payoff matrix:
    max over rows of the row minimum. Commitment (pure or mixed) with a
    best-responding follower can never do worse than this."""
    return float(max(min(row) for row in game.leader_payoff))
