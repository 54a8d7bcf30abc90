"""Stackelberg commitment in bimatrix games: pure-commitment enumeration and
the strong Stackelberg equilibrium via one linear program per follower action,
skipping actions whose bound cannot beat the incumbent.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import CertificateError, ZtsimError, label
from . import simplex
from .matrix import MixedStrategy, _check_matrices, _normalise, certificate_tol
from .simplex import InfeasibleLP

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


def solve_lp(c, A, b):
    """`simplex.solve_lp` for one commitment LP of `solve_stackelberg`; an
    empty best-response region raises InfeasibleLP. The LP's feasible set
    always holds x = 0, and with leader payoffs of at least 1 every other
    point of a non-empty region scores more, up to 1 at sum(x) = 1; so an
    optimum below 1/2 (in fact exactly 0) means the region is empty."""
    x, value, _ = simplex.solve_lp(c, A, b)
    if value < 0.5:
        raise InfeasibleLP("the follower best-response region is empty")
    return x, value


def solve_stackelberg(game: BimatrixGame, mode="mixed") -> SSEResult:
    """Leader commits first; follower best-responds, ties broken in the
    leader's favor (strong Stackelberg convention). Both modes work on the
    payoffs mapped into [1, 2] (`matrix._normalise`), so ties and EQ_TOL are
    relative to each matrix's range and the answer does not depend on the
    payoff scale; values are read back from the original matrices.

    pure: enumerate leader rows; follower payoffs within EQ_TOL of the row's
    best in Fs are ties; keep the first row more than EQ_TOL above the
    incumbent in Ls. mixed: one LP per follower column j
    (Conitzer & Sandholm, EC 2006), visited in index order:
    max x @ Ls[:, j] s.t. x @ (Fs[:, k] - Fs[:, j]) <= 0 for all k != j,
    sum(x) <= 1, x >= 0. Since Ls >= 1, the optimum has sum(x) = 1 whenever
    the region where column j is a follower best response is non-empty; an
    empty region raises InfeasibleLP. Keep the first value more than EQ_TOL
    above the incumbent. A column is skipped, without its LP, once an
    incumbent exists and the column's bound max_i Ls[i, j] is no higher than
    the incumbent's value: the LP value cannot exceed that bound, so the
    column could not have replaced the incumbent. Index order is kept because
    the first column within EQ_TOL wins ties, so visit order shows in the
    answer.

    The mixed answer must pass a certificate: the follower best-responds to
    the returned mix, and the leader value is at least `leader_maximin`, each
    within `certificate_tol` of the payoff matrix involved. An answer that
    fails raises CertificateError.
    """
    label(mode, ("pure", "mixed"), "mode")
    L = np.array(game.leader_payoff)
    F = np.array(game.follower_payoff)
    Ls, Fs = _normalise(L)[0], _normalise(F)[0]
    n_rows, n_cols = L.shape

    if mode == "pure":
        best = None
        for i in range(n_rows):
            # follower ties break in the leader's favor
            cols = np.flatnonzero(Fs[i] >= Fs[i].max() - EQ_TOL)
            j = max(cols, key=lambda jj: (L[i, jj], -jj))
            if best is None or Ls[i, j] > best[0] + EQ_TOL:
                best = (Ls[i, j], i, int(j))
        _, i, j = best
        weights = tuple(1.0 if k == i else 0.0 for k in range(n_rows))
        return SSEResult(
            MixedStrategy(weights), j, float(L[i, j]), float(F[i, j]), "pure"
        )

    bound = Ls.max(axis=0)
    b = np.zeros(n_cols)
    b[-1] = 1.0
    best = None
    for j in range(n_cols):
        if best is not None and bound[j] <= best[0]:
            continue  # x @ Ls[:, j] <= bound[j] cannot exceed best + EQ_TOL
        A = np.vstack([np.delete(Fs, j, axis=1).T - Fs[:, j], np.ones(n_rows)])
        try:
            x, value = solve_lp(Ls[:, j], A, b)
        except InfeasibleLP:
            continue
        if best is None or value > best[0] + EQ_TOL:
            best = (value, j, x)
    if best is None:
        raise ZtsimError(
            "no follower best-response region is feasible; unreachable for finite games"
        )
    _, j, x = best
    x = np.clip(x, 0.0, None)
    x = x / x.sum()
    result = SSEResult(
        MixedStrategy(tuple(x)), j, float(x @ L[:, j]), float(x @ F[:, j]), "mixed"
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
