"""The single-phase simplex must agree with the loop-based two-phase Bland
oracle: a feasible solution, the same optimum within `certificate_tol` of the
LP's data, optimal duals, and the same exception class."""
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import simplex_reference
from ztsim.errors import ZtsimError
from ztsim.games import simplex
from ztsim.games.matrix import certificate_tol

# Few distinct small values make ratio ties and degenerate vertices common.
_VALUES = st.sampled_from([-2.0, -1.0, -0.5, 0.0, 0.0, 0.5, 1.0, 1.0, 2.0, 3.0])
# Three decimals keep entries clear of the pivot tolerance.
_FLOATS = st.floats(-5, 5).map(lambda v: round(v, 3))

# Beale (1955): pure Dantzig pricing with a naive ratio tie-break (the first
# or the smallest-basis-index tied row) cycles through six degenerate bases.
# As a maximization, this scaled form's optimum is 1.25 at x = (1, 0, 1, 0).
BEALE = {
    "c": np.array([0.75, -20.0, 0.5, -6.0]),
    "A": np.array([[0.25, -8.0, -1.0, 9.0], [0.5, -12.0, -0.5, 3.0], [0.0, 0.0, 1.0, 0.0]]),
    "b": np.array([0.0, 0.0, 1.0]),
    "value": 1.25,
    "x": [1.0, 0.0, 1.0, 0.0],
}
# Beale's own form of it, whose optimum is 1/20 at x = (1/25, 0, 1, 0).
BEALE_1955 = {
    "c": np.array([0.75, -150.0, 0.02, -6.0]),
    "A": np.array([[0.25, -60.0, -0.04, 9.0], [0.5, -90.0, -0.02, 3.0], [0.0, 0.0, 1.0, 0.0]]),
    "b": np.array([0.0, 0.0, 1.0]),
    "value": 0.05,
    "x": [0.04, 0.0, 1.0, 0.0],
}


@contextmanager
def counted_pivots(limit=None):
    count = [0]
    pivot = simplex._pivot

    def counting(*args):
        count[0] += 1
        if limit is not None and count[0] > limit:
            raise RuntimeError(f"more than {limit} pivots")
        return pivot(*args)

    simplex._pivot = counting
    try:
        yield count
    finally:
        simplex._pivot = pivot


def _matrix(draw, rows, cols, values):
    return np.array([[draw(values) for _ in range(cols)] for _ in range(rows)]).reshape(rows, cols)


@st.composite
def linear_programs(draw):
    n = draw(st.integers(1, 6))
    m = draw(st.integers(0, 6))
    values = draw(st.sampled_from([_VALUES, _FLOATS]))
    return {
        "c": np.array([draw(values) for _ in range(n)]),
        "A": _matrix(draw, m, n, values),
        "b": np.abs([draw(values) for _ in range(m)]).reshape(m),
    }


@st.composite
def beale_lps(draw):
    """A Beale LP with its columns permuted, in a row order that keeps the
    first b = 0 row ahead of the second: under each of these 144 LPs the
    first-tied-row tie-break cycles, and under the other row orders it does
    not."""
    lp = draw(st.sampled_from([BEALE, BEALE_1955]))
    cols = draw(st.permutations(range(4)))
    rows = draw(st.sampled_from([[0, 1, 2], [0, 2, 1], [2, 0, 1]]))
    return {"c": lp["c"][cols], "A": lp["A"][np.ix_(rows, cols)], "b": lp["b"][rows]}


@st.composite
def game_lps(draw):
    """The zero-sum value LP as `games.matrix` builds it: max sum(w) s.t.
    As w <= 1, w >= 0, on payoffs mapped into [1, 2]. Integer payoffs tie
    often."""
    rows = draw(st.integers(1, 7))
    cols = draw(st.integers(1, 7))
    A = _matrix(draw, rows, cols, st.integers(-3, 3).map(float))
    span = A.max() - A.min()
    return {"c": np.ones(cols), "A": 1.0 + (A - A.min()) / (span or 1.0), "b": np.ones(rows)}


def _outcome(solve, *args):
    try:
        return solve(*args), None
    except ZtsimError as exc:
        return None, type(exc)


def _assert_matches_oracle(lp):
    c, A, b = lp["c"], lp["A"], lp["b"]
    expected, expected_exc = _outcome(simplex_reference.solve_lp, -c, A, b)
    # The LPs here have at most 7 rows and columns; the cap turns a cycling
    # simplex into a failure instead of a hang.
    with counted_pivots(limit=1000):
        got, got_exc = _outcome(simplex.solve_lp, c, A, b)
    assert got_exc is expected_exc
    if expected is None:
        return
    _, neg, _ = expected
    x, value, y = got
    data = np.concatenate([A.ravel(), b, c])
    tol = certificate_tol(np.append(data, neg))
    assert value == pytest.approx(-neg, rel=0.0, abs=tol)
    assert value == pytest.approx(c @ x, rel=0.0, abs=tol)
    # Primal and dual feasibility; weak duality then makes both optimal.
    width = max(1.0, np.abs(x).sum(), np.abs(y).sum())
    assert (x >= 0).all() and (A @ x <= b + tol * width).all()
    assert (y >= -tol).all() and (y @ A >= c - tol * width).all()
    assert y @ b == pytest.approx(value, rel=0.0, abs=tol * width)


@settings(max_examples=300, deadline=None)
@given(st.one_of(linear_programs(), beale_lps()))
def test_random_lps_match_loop_oracle(lp):
    _assert_matches_oracle(lp)


@settings(max_examples=100, deadline=None)
@given(game_lps())
def test_game_lps_match_loop_oracle(lp):
    _assert_matches_oracle(lp)


def test_oracle_covers_every_outcome():
    """Each outcome class the property tests rely on occurs in fixed cases."""
    unbounded = {"c": [1.0], "A": [[-1.0]], "b": [1.0]}
    no_rows = {"c": [1.0, 0.0], "A": np.zeros((0, 2)), "b": []}
    degenerate = {
        "c": [1.0, 1.0],
        "A": [[1.0, 1.0], [1.0, 0.0], [0.0, 1.0]],
        "b": [1.0, 1.0, 1.0],
    }
    for lp in (unbounded, no_rows):
        lp = {k: np.asarray(v, dtype=float) for k, v in lp.items()}
        assert _outcome(simplex.solve_lp, lp["c"], lp["A"], lp["b"])[1] is simplex.UnboundedLP
    for lp in (unbounded, no_rows, degenerate, BEALE):
        _assert_matches_oracle({k: np.asarray(v, dtype=float) for k, v in lp.items()})


def test_rounding_leaves_no_negative_primal_value():
    """A zero-sum value LP on which rounding once left a basic value at
    -2.3e-17; the oracle tests require x >= 0 exactly."""
    M = np.array([
        [3, 1, 3, 3, 3, 3, 3], [3, 2, 3, 3, 3, 3, 3], [3, 3, 5, 1, 3, 2, 2],
        [3, 3, 2, 3, 3, 3, 3], [0, 3, 6, 3, 3, 3, 0], [6, 3, 4, 3, 3, 1, 4],
    ], dtype=float)
    lp = {"c": np.ones(7), "A": 1.0 + M / 6.0, "b": np.ones(6)}
    _assert_matches_oracle(lp)


@pytest.mark.parametrize("lp", [BEALE, BEALE_1955], ids=["scaled", "1955"])
def test_beale_lps_reach_their_optima(lp):
    """Pure Dantzig pricing with a naive ratio tie-break cycles on both;
    the lexicographic tie-break reaches the optimum. The pivot cap turns a
    cycle into a failure."""
    with counted_pivots(limit=1000):
        x, value, _ = simplex.solve_lp(lp["c"], lp["A"], lp["b"])
    assert value == pytest.approx(lp["value"], rel=1e-12)
    assert x == pytest.approx(lp["x"])
    _assert_matches_oracle(lp)
