"""Two-player zero-sum matrix games: exact minimax via linear programming,
classical fictitious play with value bounds, and alternating pure
best-response dynamics.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import CertificateError, ValidationError, distribution, integer, label, labels, real
from .simplex import solve_lp

CERT_RTOL = 1e-6


def certificate_tol(M):
    """Slack allowed in a solver certificate on payoff matrix `M`: CERT_RTOL
    times the larger of its range and its largest magnitude. There is no
    absolute floor, so the check tightens with the payoff scale."""
    return CERT_RTOL * float(max(M.max() - M.min(), np.abs(M).max()))


def _normalise(M):
    """Map `M` by a positive affine map into [1, 2]: returns (Ms, lo, span)
    with M = lo + (Ms - 1) * span. Equilibrium strategies are invariant under
    the map, so the LPs run on data of order one whatever the payoff scale.
    A constant matrix maps to all ones with span 0."""
    lo = float(M.min())
    span = float(M.max()) - lo
    return 1.0 + (M - lo) / (span or 1.0), lo, span


def _default_labels(prefix, n):
    return tuple(f"{prefix}{i}" for i in range(n))


def _check_matrices(game, *names):
    """Normalise the payoff matrices `names` of `game` in place: rows of
    `real` entries, at least 1x1, all of one rectangular shape. Then default
    the row and column labels and check one unique label per row and column."""
    shape = None
    for name in names:
        rows = tuple(tuple(real(v, name) for v in row) for row in getattr(game, name))
        if not rows or not rows[0]:
            raise ValidationError("payoff matrix must be at least 1x1", name)
        if len({len(r) for r in rows}) != 1:
            raise ValidationError("payoff rows must have equal length", name)
        if shape not in (None, (len(rows), len(rows[0]))):
            raise ValidationError(f"shape must match {names[0]}", name)
        shape = (len(rows), len(rows[0]))
        object.__setattr__(game, name, rows)
    for name, prefix, n in (("row_labels", "r", shape[0]), ("col_labels", "c", shape[1])):
        ids = labels(tuple(getattr(game, name)) or _default_labels(prefix, n), name)
        if len(ids) != n:
            raise ValidationError("label lengths must match matrix dimensions", name)
        object.__setattr__(game, name, ids)


@dataclass(frozen=True)
class MatrixGame:
    """Row-player payoffs; the column player receives the negation."""

    payoff: tuple
    row_labels: tuple = ()
    col_labels: tuple = ()

    def __post_init__(self):
        _check_matrices(self, "payoff")

    @property
    def matrix(self):
        return np.array(self.payoff, dtype=float)

    @property
    def shape(self):
        return len(self.payoff), len(self.payoff[0])


@dataclass(frozen=True)
class MixedStrategy:
    weights: tuple

    def __post_init__(self):
        weights = distribution(dict(enumerate(self.weights)), "weights")
        object.__setattr__(self, "weights", tuple(weights.values()))


@dataclass(frozen=True)
class ZeroSumSolution:
    value: float
    row_strategy: MixedStrategy
    col_strategy: MixedStrategy


def solve_zero_sum(game: MatrixGame) -> ZeroSumSolution:
    """Exact minimax solution of a zero-sum matrix game via one LP (von
    Neumann): on the payoffs mapped into [1, 2],
    max sum(w) s.t. As @ w <= 1, w >= 0. The column mix is w / sum(w) and the
    row mix is the LP's duals over their sum.

    The returned (value, x, y) satisfy the bilateral certificate
    min_j (x'A)_j >= v - tol and max_i (A y)_i <= v + tol, with
    tol = certificate_tol(A); an answer that fails it raises CertificateError.
    """
    A = game.matrix
    As, lo, span = _normalise(A)
    w, total, u = solve_lp(np.ones(A.shape[1]), As, np.ones(A.shape[0]))
    u = np.maximum(u, 0.0)
    sol = ZeroSumSolution(
        value=float(lo + (1.0 / total - 1.0) * span),
        row_strategy=MixedStrategy(tuple(u / u.sum())),
        col_strategy=MixedStrategy(tuple(w / w.sum())),
    )
    tol = certificate_tol(A)
    guaranteed = float((np.array(sol.row_strategy.weights) @ A).min())
    conceded = float((A @ np.array(sol.col_strategy.weights)).max())
    if guaranteed < sol.value - tol or conceded > sol.value + tol:
        raise CertificateError(
            f"zero-sum certificate failed: value {sol.value!r}, row guarantee "
            f"{guaranteed!r}, column concession {conceded!r}, tolerance {tol!r}"
        )
    return sol


@dataclass(frozen=True)
class FictitiousPlayStep:
    iteration: int
    row_empirical: tuple
    col_empirical: tuple
    lower: float
    upper: float


@dataclass(frozen=True)
class FictitiousPlayResult:
    trace: tuple
    lower: float
    upper: float
    iterations: int
    row_empirical: tuple  # empirical mix certifying the lower bound
    col_empirical: tuple  # empirical mix certifying the upper bound


def fictitious_play(game: MatrixGame, max_iters=10_000, tolerance=1e-3) -> FictitiousPlayResult:
    """Classical fictitious play. The running bounds
    max_t min_j (xbar'A)_j <= v <= min_t max_i (A ybar)_i
    always bracket the exact game value; iteration stops early when the gap
    drops below `tolerance`."""
    integer(max_iters, "max_iters", low=1)
    if real(tolerance, "tolerance") <= 0:
        raise ValidationError(f"must be positive, got {tolerance!r}", "tolerance")
    A = game.matrix
    n_rows, n_cols = A.shape
    row_counts = np.zeros(n_rows)
    col_counts = np.zeros(n_cols)
    lower, upper = -math.inf, math.inf
    best_x = best_y = None
    trace = []
    for it in range(1, max_iters + 1):
        if it == 1:
            br_row, br_col = 0, 0
        else:
            br_row = int(np.argmax(A @ col_counts))
            br_col = int(np.argmin(row_counts @ A))
        row_counts[br_row] += 1
        col_counts[br_col] += 1
        xbar = row_counts / it
        ybar = col_counts / it
        x_guarantee = float((xbar @ A).min())
        y_guarantee = float((A @ ybar).max())
        if x_guarantee > lower:
            lower, best_x = x_guarantee, tuple(map(float, xbar))
        if y_guarantee < upper:
            upper, best_y = y_guarantee, tuple(map(float, ybar))
        trace.append(
            FictitiousPlayStep(it, tuple(map(float, xbar)), tuple(map(float, ybar)), lower, upper)
        )
        if upper - lower < tolerance:
            break
    return FictitiousPlayResult(tuple(trace), lower, upper, len(trace), best_x, best_y)


@dataclass(frozen=True)
class BestResponseResult:
    trace: tuple  # profiles, (row index, col index), appended on change
    termination: str  # converged | cycle_detected | budget_exhausted
    final_profile: tuple
    cycle: tuple = ()


def alternate_best_response(game: MatrixGame, start, max_iters=1000) -> BestResponseResult:
    """Turn-taking exact pure best responses, row first. Detects revisited
    (profile, mover) states and reports the profile cycle; a pure saddle point
    reports convergence."""
    A = game.matrix
    start = tuple(start)
    if len(start) != 2:
        raise ValidationError(f"expected a (row, column) pair, got {start!r}", "start")
    for i, (s, n) in enumerate(zip(start, A.shape)):
        label(integer(s, f"start[{i}]"), range(n), f"start[{i}]")
    integer(max_iters, "max_iters", low=1)
    profile = start
    trace = [profile]
    mover = "row"
    seen = {(profile, mover): 0}
    states = [(profile, mover)]
    no_change = 0
    for _ in range(2 * max_iters):
        r, c = profile
        if mover == "row":
            new = (int(np.argmax(A[:, c])), c)
            mover = "col"
        else:
            new = (r, int(np.argmin(A[r, :])))
            mover = "row"
        if new == profile:
            no_change += 1
        else:
            no_change = 0
            trace.append(new)
        profile = new
        if no_change >= 2:
            return BestResponseResult(tuple(trace), "converged", profile)
        key = (profile, mover)
        if key in seen:
            first = seen[key]
            cycle_profiles = []
            for p, _m in states[first:]:
                if not cycle_profiles or cycle_profiles[-1] != p:
                    cycle_profiles.append(p)
            return BestResponseResult(
                tuple(trace), "cycle_detected", profile, cycle=tuple(cycle_profiles)
            )
        seen[key] = len(states)
        states.append(key)
    return BestResponseResult(tuple(trace), "budget_exhausted", profile)
