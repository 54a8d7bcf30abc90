"""Mixed `solve_stackelberg` skips follower columns whose bound cannot beat
the incumbent and solves its LPs on normalised payoffs; its answer must pass
the certificate and agree with the unpruned loop on raw payoffs in
`tests/stackelberg_reference.py`: the same leader value within
`certificate_tol` and the same follower action, except on EQ_TOL-near ties
of follower payoffs or of leader values, where the two loops' tie
tolerances differ (relative to each payoff range here, absolute in the
reference)."""
from contextlib import contextmanager

import numpy as np
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

import stackelberg_reference
from ztsim.games import BimatrixGame, leader_maximin, solve_stackelberg
from ztsim.games import stackelberg
from ztsim.games.matrix import _normalise, certificate_tol

EQ_TOL = stackelberg.EQ_TOL


def _certified(game, res):
    """The certificate, recomputed here from the raw matrices."""
    L, F = np.array(game.leader_payoff), np.array(game.follower_payoff)
    follower = np.array(res.leader_strategy.weights) @ F
    return (
        follower[res.follower_action] >= follower.max() - certificate_tol(F)
        and res.leader_value >= leader_maximin(game) - certificate_tol(L)
    )


@st.composite
def bimatrix_games(draw):
    rows = draw(st.integers(1, 6))
    cols = draw(st.integers(1, 6))
    if draw(st.booleans()):
        # Integer payoffs: ties, equal bounds and LP values at their bound.
        cell = st.integers(-2, 2).map(float)
    else:
        cell = st.floats(-1, 1, allow_nan=False, allow_subnormal=False)
    L = np.array([[draw(cell) for _ in range(cols)] for _ in range(rows)])
    F = np.array([[draw(cell) for _ in range(cols)] for _ in range(rows)])
    for _ in range(draw(st.integers(0, 3))):
        j, k = draw(st.integers(0, cols - 1)), draw(st.integers(0, cols - 1))
        edit = draw(st.sampled_from(["duplicate", "constant", "near", "dominated"]))
        if edit == "duplicate":
            L[:, k], F[:, k] = L[:, j], F[:, j]
        elif edit == "constant":
            L[:, k] = draw(cell)
            F[:, k] = draw(cell)
        elif edit == "near":
            # Same follower region, leader payoffs within a few EQ_TOL.
            F[:, k] = F[:, j]
            L[:, k] = L[:, j] + draw(st.sampled_from([-2, -1, -0.5, 0.5, 1, 2])) * EQ_TOL
        elif j != k:
            # Column k is strictly dominated for the follower: its LP is infeasible.
            F[:, k] = F[:, j] - 1.0
    scale = 10.0 ** draw(st.integers(-4, 4))
    return BimatrixGame(tuple(map(tuple, L * scale)), tuple(map(tuple, F * scale)))


@contextmanager
def recorded_lps(game):
    """Record the follower column of every LP `solve_stackelberg` solves,
    found from the normalised leader payoffs it maximizes (the first such
    column, when columns repeat)."""
    solved = []
    Ls = _normalise(np.array(game.leader_payoff))[0]
    solve = stackelberg.solve_lp

    def recording(c, *args):
        solved.append(next(j for j in range(Ls.shape[1]) if (Ls[:, j] == c).all()))
        return solve(c, *args)

    stackelberg.solve_lp = recording
    try:
        yield solved
    finally:
        stackelberg.solve_lp = solve


def _follower_slack(game, res):
    """How far the follower's action falls short of a best response to the
    leader's mix."""
    follower = np.array(res.leader_strategy.weights) @ np.array(game.follower_payoff)
    return float(follower.max() - follower[res.follower_action])


def _assert_matches_reference(game):
    """Compare with the reference; returns how the answer came about."""
    expected = stackelberg_reference.solve_stackelberg_mixed(game)
    with recorded_lps(game) as solved:
        got = solve_stackelberg(game, mode="mixed")
    assert got.mode == "mixed"
    assert _certified(game, got)
    if not _certified(game, expected):
        return "the reference answer fails the certificate"
    L, F = np.array(game.leader_payoff), np.array(game.follower_payoff)
    gap = abs(got.leader_value - expected.leader_value)
    # Both loops call follower payoffs within EQ_TOL x range(F) ties, each
    # through its own simplex: where one answer leans on a tie the other does
    # not grant, the two may differ.
    near = EQ_TOL * min(1.0, float(F.max() - F.min())) / 10
    if max(_follower_slack(game, got), _follower_slack(game, expected)) > near:
        return "follower near tie"
    if got.follower_action != expected.follower_action:
        # Each loop keeps the first column within EQ_TOL x range(L) of its best.
        assert gap <= 2 * EQ_TOL * max(1.0, float(L.max() - L.min()))
        return "leader near tie, another follower action"
    assert gap <= certificate_tol(L)
    skipped = game.shape[1] - len(solved)
    return f"columns skipped: {skipped if skipped < 2 else '2+'}"


# Follower columns that differ by about 1e-9 of the payoff range. With a
# float tableau the reference took rounding residue for pivots: on the first
# two games it stopped at a suboptimal vertex (0.5 and 0.2048, not 1), on the
# third it reported an unbounded LP.
_Z = (0.0,) * 6
_NEAR_COPY_COLUMNS = [
    BimatrixGame(
        leader_payoff=((0, 0, 0, 0, 1.0, 0), _Z, _Z, _Z, _Z, (0, 0, 0, 0.5, 0, 0)),
        follower_payoff=((0, 0, 0, 0, 0.970703125, 0), (0, 0, 0, 1e-9, -0.25, 0), (0, 0, 0, 0, 0.5, 0), _Z, _Z, _Z),
    ),
    BimatrixGame(
        leader_payoff=((0, 0, 0, 0, 1.0, 0), _Z, _Z, _Z, _Z, _Z),
        follower_payoff=((0, 0, 0, 0, 0.970703125, 0), (0, 0, 0, 1e-9, -0.25, 0), (0, 0, 0, 0, 0.5, 0), _Z, _Z, _Z),
    ),
    BimatrixGame(
        leader_payoff=(_Z, _Z, _Z, _Z, _Z, (0, 0, 0, 0, 100.0, 0)),
        follower_payoff=(_Z, (0, 0, 0, 1e-7, -100.0, 0), _Z, (0, 0, 0, 0, 12.5, 0), _Z, (0, 0, 0, 0, 4.6875, 0)),
    ),
]
# Payoffs far below the simplex's TOL of 1e-9. Priced on raw payoffs, the
# reference stopped at -0.0 on the first game, where the solver rightly finds
# 1.36e-124. On the second, columns 0 to 3 tie for the follower once F is
# mapped into [1, 2], and the leader's best among them is column 1.
_TINY_PAYOFFS = [
    BimatrixGame(
        leader_payoff=((0, 0), (1.3584614157766253e-124, 0)),
        follower_payoff=((0, 0), (0, 0)),
    ),
    BimatrixGame(
        leader_payoff=((0, 1.0, 0, 0, 0),),
        follower_payoff=((9.9e-248, 0, 0, 0, -1.0),),
    ),
]


@settings(deadline=None)
@given(bimatrix_games())
@example(_NEAR_COPY_COLUMNS[0])
@example(_NEAR_COPY_COLUMNS[1])
@example(_NEAR_COPY_COLUMNS[2])
@example(_TINY_PAYOFFS[0])
@example(_TINY_PAYOFFS[1])
def test_mixed_matches_unpruned_reference(game):
    event(_assert_matches_reference(game))


def test_columns_that_cannot_win_skip_their_lp():
    # Column 0's LP reaches its bound 3 (the follower always prefers it on
    # row 0); column 1's bound 3 ties it and column 2's bound 1 is below it.
    game = BimatrixGame(
        leader_payoff=((3, 3, 1), (0, 0, 1)),
        follower_payoff=((2, 1, 0), (0, 1, 2)),
    )
    with recorded_lps(game) as solved:
        res = solve_stackelberg(game, mode="mixed")
    assert solved == [0]
    assert res.follower_action == 0 and res.leader_value == 3.0
    _assert_matches_reference(game)


def test_a_column_above_the_incumbent_still_runs_its_lp():
    # Column 1's bound 5 beats column 0's value 1, so its LP runs and wins.
    game = BimatrixGame(
        leader_payoff=((1, 5), (1, 0)),
        follower_payoff=((0, 1), (1, 0)),
    )
    with recorded_lps(game) as solved:
        res = solve_stackelberg(game, mode="mixed")
    assert solved == [0, 1]
    assert res.follower_action == 1
    _assert_matches_reference(game)


def test_first_column_within_eq_tol_keeps_winning():
    # Two columns with one follower region; the second is better by less
    # than EQ_TOL, so index order keeps the first one.
    game = BimatrixGame(
        leader_payoff=((1.0, 1.0 + EQ_TOL / 2), (0.0, 0.0)),
        follower_payoff=((1.0, 1.0), (0.0, 0.0)),
    )
    res = solve_stackelberg(game, mode="mixed")
    assert res.follower_action == 0
    _assert_matches_reference(game)
