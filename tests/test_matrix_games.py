import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ztsim.errors import ValidationError
from ztsim.games import (
    MatrixGame,
    MixedStrategy,
    alternate_best_response,
    fictitious_play,
    solve_zero_sum,
)
from zero_sum_reference import support_enumeration

RPS = MatrixGame(
    payoff=((0, -1, 1), (1, 0, -1), (-1, 1, 0)),
    row_labels=("rock", "paper", "scissors"),
    col_labels=("rock", "paper", "scissors"),
)
TWO_BY_TWO = MatrixGame(((2, -1), (-1, 1)))
MATCHING_PENNIES = MatrixGame(((1, -1), (-1, 1)), ("H", "T"), ("H", "T"))
SADDLE = MatrixGame(((1, 2), (0, 3)))


def assert_minimax_certificate(game, sol, tol=1e-9):
    A = game.matrix
    x = np.array(sol.row_strategy.weights)
    y = np.array(sol.col_strategy.weights)
    assert (x @ A).min() >= sol.value - tol
    assert (A @ y).max() <= sol.value + tol


def test_rps_uniform():
    sol = solve_zero_sum(RPS)
    assert sol.value == pytest.approx(0.0, abs=1e-9)
    for w in sol.row_strategy.weights + sol.col_strategy.weights:
        assert w == pytest.approx(1 / 3, abs=1e-9)
    assert_minimax_certificate(RPS, sol)


def test_two_by_two_closed_form():
    # indifference equations give value 0.2, mixes (0.4, 0.6) on both sides
    sol = solve_zero_sum(TWO_BY_TWO)
    assert sol.value == pytest.approx(0.2, abs=1e-9)
    assert sol.row_strategy.weights == pytest.approx((0.4, 0.6), abs=1e-9)
    assert sol.col_strategy.weights == pytest.approx((0.4, 0.6), abs=1e-9)


def test_single_cell_game():
    sol = solve_zero_sum(MatrixGame(((1,),)))
    assert sol.value == pytest.approx(1.0, abs=1e-9)
    assert sol.row_strategy.weights == (1.0,)
    assert sol.col_strategy.weights == (1.0,)


def test_nonfinite_entries_rejected():
    with pytest.raises(ValidationError):
        MatrixGame(((float("nan"), 0), (0, 1)))
    with pytest.raises(ValidationError):
        MatrixGame(((float("inf"), 0),))


@pytest.mark.parametrize(
    "kwargs, key, reason",
    [
        ({"payoff": ()}, "payoff", "payoff matrix must be at least 1x1"),
        ({"payoff": ((),)}, "payoff", "payoff matrix must be at least 1x1"),
        ({"payoff": ((1, 2), (3,))}, "payoff", "payoff rows must have equal length"),
        ({"payoff": ((1, 2),), "row_labels": ("a", "b")}, "row_labels", "label lengths must match matrix dimensions"),
        ({"payoff": ((1, 2),), "col_labels": ("a",)}, "col_labels", "label lengths must match matrix dimensions"),
    ],
    ids=["empty", "empty-row", "ragged", "row-label-count", "col-label-count"],
)
def test_matrix_shape_checks_name_the_field(kwargs, key, reason):
    with pytest.raises(ValidationError) as info:
        MatrixGame(**kwargs)
    assert (info.value.key, info.value.reason) == (key, reason)


def test_mixed_strategy_validation():
    with pytest.raises(ValidationError):
        MixedStrategy((0.5, 0.6))
    with pytest.raises(ValidationError):
        MixedStrategy((-0.1, 1.1))


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 4),
    st.integers(1, 4),
    st.data(),
)
def test_lp_matches_support_enumeration(n_rows, n_cols, data):
    entries = data.draw(
        st.lists(
            st.integers(-5, 5), min_size=n_rows * n_cols, max_size=n_rows * n_cols
        )
    )
    game = MatrixGame(
        tuple(
            tuple(entries[i * n_cols : (i + 1) * n_cols]) for i in range(n_rows)
        )
    )
    lp = solve_zero_sum(game)
    ref = support_enumeration(game)
    assert lp.value == pytest.approx(ref.value, abs=1e-7)
    assert_minimax_certificate(game, lp, tol=1e-7)


def test_fictitious_play_matching_pennies():
    res = fictitious_play(MATCHING_PENNIES, max_iters=100_000, tolerance=1e-2)
    assert res.upper - res.lower < 1e-2
    assert res.lower - 1e-12 <= 0.0 <= res.upper + 1e-12
    for w in res.row_empirical + res.col_empirical:
        assert w == pytest.approx(0.5, abs=1e-2)


def test_fictitious_play_brackets_exact_value():
    exact = solve_zero_sum(TWO_BY_TWO).value
    res = fictitious_play(TWO_BY_TWO, max_iters=5_000, tolerance=1e-4)
    assert res.lower - 1e-9 <= exact <= res.upper + 1e-9


def test_fictitious_play_pure_saddle_converges_fast():
    res = fictitious_play(SADDLE, max_iters=1_000, tolerance=1e-6)
    assert res.iterations <= 5
    assert res.lower == pytest.approx(1.0, abs=1e-9)
    assert res.upper == pytest.approx(1.0, abs=1e-9)
    assert res.row_empirical[0] == pytest.approx(1.0)
    assert res.col_empirical[0] == pytest.approx(1.0)


def test_fictitious_play_input_validation():
    with pytest.raises(ValidationError):
        fictitious_play(SADDLE, max_iters=0)
    with pytest.raises(ValidationError):
        fictitious_play(SADDLE, tolerance=0.0)


@pytest.mark.parametrize(
    "call, key, reason",
    [
        (lambda: fictitious_play(SADDLE, max_iters=0), "max_iters", "must be an integer >= 1, got 0"),
        (lambda: fictitious_play(SADDLE, max_iters=2.5), "max_iters", "must be an integer >= 1, got 2.5"),
        (lambda: fictitious_play(SADDLE, tolerance=0.0), "tolerance", "must be positive, got 0.0"),
        (lambda: fictitious_play(SADDLE, tolerance=math.nan), "tolerance", "must be a finite number, got nan"),
        (lambda: alternate_best_response(SADDLE, (2, 0)), "start[0]", "undeclared label 2"),
        (lambda: alternate_best_response(SADDLE, (0, -1)), "start[1]", "must be an integer >= 0, got -1"),
        (lambda: alternate_best_response(SADDLE, (0.5, 0)), "start[0]", "must be an integer >= 0, got 0.5"),
        (lambda: alternate_best_response(SADDLE, (0,)), "start", "expected a (row, column) pair, got (0,)"),
        (lambda: alternate_best_response(SADDLE, (0, 0), max_iters=2.5), "max_iters",
         "must be an integer >= 1, got 2.5"),
    ],
    ids=["max-iters-zero", "max-iters-float", "tolerance-zero", "tolerance-nan", "start-row-past-end",
         "start-col-negative", "start-float", "start-short", "abr-max-iters-float"],
)
def test_learning_dynamics_name_the_rejected_argument(call, key, reason):
    with pytest.raises(ValidationError) as info:
        call()
    assert (info.value.key, info.value.reason) == (key, reason)


def test_fictitious_play_bounds_monotone_within_trace():
    res = fictitious_play(TWO_BY_TWO, max_iters=200, tolerance=1e-9)
    lowers = [s.lower for s in res.trace]
    uppers = [s.upper for s in res.trace]
    assert lowers == sorted(lowers)
    assert uppers == sorted(uppers, reverse=True)


def test_abr_converges_to_saddle_from_any_start():
    for start in [(0, 0), (0, 1), (1, 0), (1, 1)]:
        res = alternate_best_response(SADDLE, start)
        assert res.termination == "converged"
        assert res.final_profile == (0, 0)


def test_abr_matching_pennies_period_four_cycle():
    res = alternate_best_response(MATCHING_PENNIES, (0, 0))
    assert res.termination == "cycle_detected"
    assert res.cycle == ((0, 0), (0, 1), (1, 1), (1, 0))


def test_abr_one_by_one_converges_immediately():
    res = alternate_best_response(MatrixGame(((5,),)), (0, 0))
    assert res.termination == "converged"
    assert res.final_profile == (0, 0)
    assert res.trace == ((0, 0),)


def test_abr_rejects_bad_start():
    with pytest.raises(ValidationError):
        alternate_best_response(SADDLE, (2, 0))


def test_solvers_are_deterministic():
    a = solve_zero_sum(TWO_BY_TWO)
    b = solve_zero_sum(TWO_BY_TWO)
    assert a == b
    fa = fictitious_play(RPS, max_iters=500, tolerance=1e-4)
    fb = fictitious_play(RPS, max_iters=500, tolerance=1e-4)
    assert fa == fb
