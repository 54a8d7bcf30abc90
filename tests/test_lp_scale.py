"""The LP-based solvers answer the same at every payoff scale 10^k,
k in [-9, 9]: each game is an integer game times 10^k, so the oracles solve
the integer game, where their own absolute tolerances hold, and their answer
scales by 10^k. Support enumeration and `scipy.optimize.linprog` (when
installed) check the zero-sum value; `linprog`, one LP per follower column,
checks the Stackelberg leader value. Each answer's certificate is recomputed
here from the scaled matrices."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zero_sum_reference import support_enumeration
from ztsim.games import BimatrixGame, MatrixGame, leader_maximin, solve_stackelberg, solve_zero_sum
from ztsim.games.matrix import certificate_tol

SCALES = st.integers(-9, 9)


@st.composite
def integer_matrices(draw, count):
    rows, cols = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    cell = st.integers(-9, 9).map(float)
    return [
        np.array([[draw(cell) for _ in range(cols)] for _ in range(rows)]) for _ in range(count)
    ]


def _zero_sum(A, k):
    scale = 10.0**k
    sol = solve_zero_sum(MatrixGame(tuple(map(tuple, A * scale))))
    As = A * scale
    x, y = np.array(sol.row_strategy.weights), np.array(sol.col_strategy.weights)
    tol = certificate_tol(As)
    assert (x @ As).min() >= sol.value - tol
    assert (As @ y).max() <= sol.value + tol
    return sol, tol


@settings(deadline=None)
@given(integer_matrices(1), SCALES)
def test_zero_sum_value_matches_support_enumeration_at_every_scale(matrices, k):
    (A,) = matrices
    sol, tol = _zero_sum(A, k)
    reference = support_enumeration(MatrixGame(tuple(map(tuple, A))))
    assert abs(sol.value - reference.value * 10.0**k) <= tol


def _linprog_max(c, A_ub, b_ub, A_eq, b_eq):
    """max c@x over the polytope with `linprog`, or None when infeasible."""
    optimize = pytest.importorskip("scipy.optimize")
    res = optimize.linprog(-c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq, method="highs")
    if res.status == 2:
        return None
    assert res.status == 0, res.message
    return -res.fun


@settings(deadline=None)
@given(integer_matrices(1), SCALES)
def test_zero_sum_value_matches_linprog_at_every_scale(matrices, k):
    (A,) = matrices
    sol, tol = _zero_sum(A, k)
    # max v s.t. v <= x @ A[:, j] for every column j, sum(x) = 1, x >= 0;
    # the variables are (x, v) with v free, written as v = v+ - v-.
    n_rows, n_cols = A.shape
    A_ub = np.hstack([-A.T, np.ones((n_cols, 1)), -np.ones((n_cols, 1))])
    A_eq = np.hstack([np.ones((1, n_rows)), np.zeros((1, 2))])
    c = np.zeros(n_rows + 2)
    c[-2:] = (1.0, -1.0)
    value = _linprog_max(c, A_ub, np.zeros(n_cols), A_eq, np.ones(1))
    assert abs(sol.value - value * 10.0**k) <= tol


@settings(deadline=None)
@given(integer_matrices(2), SCALES)
def test_stackelberg_value_matches_linprog_per_column_at_every_scale(matrices, k):
    L, F = matrices
    scale = 10.0**k
    game = BimatrixGame(tuple(map(tuple, L * scale)), tuple(map(tuple, F * scale)))
    res = solve_stackelberg(game, mode="mixed")
    Ls, Fs = L * scale, F * scale
    x = np.array(res.leader_strategy.weights)
    follower = x @ Fs
    assert follower[res.follower_action] >= follower.max() - certificate_tol(Fs)
    assert res.leader_value >= leader_maximin(game) - certificate_tol(Ls)
    assert res.leader_value == pytest.approx(x @ Ls[:, res.follower_action], rel=1e-12)
    # The strong Stackelberg value: the best over follower columns j of
    # max x @ L[:, j] over the region where j is a follower best response.
    n_rows, n_cols = L.shape
    values = [
        _linprog_max(
            L[:, j],
            np.array([F[:, m] - F[:, j] for m in range(n_cols)]),
            np.zeros(n_cols),
            np.ones((1, n_rows)),
            np.ones(1),
        )
        for j in range(n_cols)
    ]
    best = max(v for v in values if v is not None)
    assert abs(res.leader_value - best * scale) <= certificate_tol(Ls)


@settings(deadline=None)
@given(integer_matrices(2), SCALES)
def test_pure_commitment_matches_enumeration_at_every_scale(matrices, k):
    L, F = matrices
    scale = 10.0**k
    game = BimatrixGame(tuple(map(tuple, L * scale)), tuple(map(tuple, F * scale)))
    res = solve_stackelberg(game, mode="pure")
    # Integer payoffs: the follower's ties are exact; they break for the leader.
    best = max(L[i, F[i] == F[i].max()].max() for i in range(L.shape[0]))
    i = res.leader_strategy.weights.index(1.0)
    assert F[i, res.follower_action] == F[i].max()
    assert res.leader_value == pytest.approx(best * scale, rel=1e-12)
