"""The vectorized simplex must reproduce the loop-based oracle bit for bit:
same solution and objective (signed zeros included), same pivot count, same
exception class."""
from contextlib import contextmanager

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import simplex_reference
from ztsim.errors import ZtsimError
from ztsim.games import simplex

# Few distinct small values make ratio ties and degenerate vertices common.
_VALUES = st.sampled_from([-2.0, -1.0, -0.5, 0.0, 0.0, 0.5, 1.0, 1.0, 2.0, 3.0])


@contextmanager
def counted_pivots():
    count = [0]
    pivot = simplex._pivot

    def counting(*args):
        count[0] += 1
        return pivot(*args)

    simplex._pivot = counting
    try:
        yield count
    finally:
        simplex._pivot = pivot


def _matrix(draw, rows, cols, values):
    return np.array([[draw(values) for _ in range(cols)] for _ in range(rows)])


@st.composite
def linear_programs(draw):
    n = draw(st.integers(1, 6))
    n_ub = draw(st.integers(0, 6))
    n_eq = draw(st.integers(0, 2))
    values = draw(st.sampled_from([_VALUES, st.floats(-5, 5, allow_subnormal=False)]))
    lp = {"c": np.array([draw(values) for _ in range(n)])}
    if n_ub:
        lp["A_ub"] = _matrix(draw, n_ub, n, values)
        lp["b_ub"] = np.array([draw(values) for _ in range(n_ub)])
    if n_eq:
        lp["A_eq"] = _matrix(draw, n_eq, n, values)
        lp["b_eq"] = np.array([draw(values) for _ in range(n_eq)])
    return lp


@st.composite
def game_lps(draw):
    """The zero-sum value LP on a shifted payoff matrix, as `games.matrix`
    builds it: max sum(w) s.t. A w <= 1, w >= 0. Integer payoffs tie often."""
    rows = draw(st.integers(1, 7))
    cols = draw(st.integers(1, 7))
    A = _matrix(draw, rows, cols, st.integers(-3, 3).map(float))
    A = A - A.min() + 1.0
    return {"c": -np.ones(cols), "A_ub": A, "b_ub": np.ones(rows)}


def _outcome(solve, lp):
    try:
        return solve(**lp), None
    except ZtsimError as exc:
        return None, type(exc)


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


def _assert_bit_identical(lp):
    expected, expected_exc = _outcome(simplex_reference.solve_lp, lp)
    with counted_pivots() as pivots:
        got, got_exc = _outcome(simplex.solve_lp, lp)
    assert got_exc is expected_exc
    if expected is None:
        return
    x_ref, obj_ref, pivots_ref = expected
    x, obj = got
    assert _same_bits(x, x_ref)
    assert _same_bits(obj, obj_ref)
    assert pivots[0] == pivots_ref


@settings(max_examples=300, deadline=None)
@given(linear_programs())
def test_random_lps_match_loop_oracle(lp):
    _assert_bit_identical(lp)


@settings(max_examples=100, deadline=None)
@given(game_lps())
def test_game_lps_match_loop_oracle(lp):
    _assert_bit_identical(lp)


def test_oracle_covers_every_outcome():
    """Each outcome class the property tests rely on occurs in fixed cases."""
    infeasible = {"c": [1.0], "A_ub": [[1.0]], "b_ub": [-1.0]}
    unbounded = {"c": [-1.0], "A_ub": [[-1.0]], "b_ub": [1.0]}
    degenerate = {
        "c": [-1.0, -1.0],
        "A_ub": [[1.0, 1.0], [1.0, 0.0], [0.0, 1.0]],
        "b_ub": [1.0, 1.0, 1.0],
    }
    assert _outcome(simplex_reference.solve_lp, infeasible)[1] is simplex.InfeasibleLP
    assert _outcome(simplex_reference.solve_lp, unbounded)[1] is simplex.UnboundedLP
    for lp in (infeasible, unbounded, degenerate):
        _assert_bit_identical({k: np.asarray(v) for k, v in lp.items()})
