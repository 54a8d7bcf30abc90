"""Solver certificates: `solve_zero_sum` checks its bilateral certificate and
mixed `solve_stackelberg` checks the follower's best response and the leader
maximin, each with a tolerance relative to the payoff magnitude and no
absolute floor. A failing answer raises CertificateError (exit 2). The
solvers work on payoffs mapped into [1, 2], so the answers themselves do not
depend on the payoff scale."""
import numpy as np
import pytest
from doc_writer import serialize_game

from ztsim.cli import EXIT_RUNTIME, main
from ztsim.games import (
    BimatrixGame,
    MatrixGame,
    leader_maximin,
    solve_stackelberg,
    solve_zero_sum,
)
from ztsim.games import matrix, stackelberg
from ztsim.games.matrix import certificate_tol

# The zero-sum game has a saddle point at (r0, c1) with value -0.46 x scale,
# and the Stackelberg follower answers column 1. At payoff scale 1e-9 the
# solvers once gave wrong answers here (absolute simplex tolerances).
LEADER = np.array([[27.0, -46.0], [-92.0, -97.0]])
FOLLOWER = np.array([[63.0, 83.0], [21.0, 46.0]])


def _matrix_game(A):
    return MatrixGame(tuple(map(tuple, A)))


def _bimatrix_game(L, F):
    return BimatrixGame(tuple(map(tuple, L)), tuple(map(tuple, F)))


def test_tolerance_scales_with_magnitude_and_has_no_floor():
    assert certificate_tol(np.zeros((2, 3))) == 0.0
    assert certificate_tol(np.full((2, 2), -4.0)) == pytest.approx(4e-6)
    assert certificate_tol(LEADER * 1e-11) == pytest.approx(1e-6 * 124e-11)
    assert certificate_tol(np.array([[1.0, 3.0]])) == pytest.approx(3e-6)


@pytest.mark.parametrize("c", [0.0, 0.1, -3.7, 2.5e-9, 4e8])
def test_constant_games_pass(c):
    # The range is 0, so the tolerance comes from |c|: the zero-sum value is
    # read back through a shift by 1 - c and loses c's low bits.
    A = np.full((3, 2), c)
    sol = solve_zero_sum(_matrix_game(A))
    assert sol.value == pytest.approx(c, rel=1e-6, abs=0.0)
    res = solve_stackelberg(_bimatrix_game(A, np.full((3, 2), -c)), mode="mixed")
    assert res.leader_value == c


def test_all_zero_games_pass_at_zero_tolerance():
    Z = np.zeros((2, 3))
    assert solve_zero_sum(_matrix_game(Z)).value == 0.0
    res = solve_stackelberg(_bimatrix_game(Z, Z), mode="mixed")
    assert res.leader_value == 0.0 and res.follower_value == 0.0


def test_same_games_pass_at_unit_scale():
    sol = solve_zero_sum(_matrix_game(LEADER * 1e-2))
    assert sol.value == pytest.approx(-0.46)
    assert sol.row_strategy.weights == (1.0, 0.0)
    assert sol.col_strategy.weights == (0.0, 1.0)
    game = _bimatrix_game(LEADER * 1e-2, FOLLOWER * 1e-2)
    res = solve_stackelberg(game, mode="mixed")
    assert res.follower_action == 1 and res.leader_value == pytest.approx(-0.46)
    assert res.leader_value >= leader_maximin(game)


def test_zero_sum_at_1e_minus_9_finds_the_saddle():
    sol = solve_zero_sum(_matrix_game(LEADER * 1e-11))
    assert sol.value == pytest.approx(-4.6e-10, rel=1e-12)
    assert sol.row_strategy.weights == (1.0, 0.0)
    assert sol.col_strategy.weights == (0.0, 1.0)


@pytest.mark.parametrize("mode", ["mixed", "pure"])
def test_stackelberg_at_1e_minus_9_picks_follower_one(mode):
    # On row 0 the follower strictly prefers column 1 (8.3e-10 > 6.3e-10);
    # an absolute tie tolerance of 1e-9 once called both columns ties there.
    game = _bimatrix_game(LEADER * 1e-11, FOLLOWER * 1e-11)
    res = solve_stackelberg(game, mode=mode)
    assert res.follower_action == 1
    assert res.leader_strategy.weights == (1.0, 0.0)
    assert res.leader_value == pytest.approx(-4.6e-10, rel=1e-12)


@pytest.mark.parametrize("mode", ["mixed", "pure"])
def test_stackelberg_follower_ties_do_not_depend_on_the_payoff_offset(mode):
    # On row 0 the follower prefers column 1 by the whole range of F (1e-3);
    # a tie tolerance relative to max|F| (1e-2 here) once called it a tie and
    # let the leader take the 1 at (r0, c0). Row 1 is an exact follower tie.
    game = _bimatrix_game([[1.0, 0.0], [0.0, 0.0]], [[1e4, 1e4 + 1e-3], [1e4, 1e4]])
    res = solve_stackelberg(game, mode=mode)
    assert res.leader_value == 0.0
    assert res.follower_action == 1 or res.leader_strategy.weights[0] == 0.0


def _reversed_solutions(solve_lp):
    """A wrong LP solver: the right solution with its variables reversed."""

    def wrong(*args):
        x, *rest = solve_lp(*args)
        return (x[::-1], *rest)

    return wrong


@pytest.mark.parametrize(
    "game",
    [_matrix_game(LEADER * 1e-11), _bimatrix_game(LEADER * 1e-11, FOLLOWER * 1e-11)],
    ids=["zero_sum", "stackelberg"],
)
def test_cli_exits_two_instead_of_printing_a_wrong_answer(game, tmp_path, capsys, monkeypatch):
    for module in (matrix, stackelberg):
        monkeypatch.setattr(module, "solve_lp", _reversed_solutions(module.solve_lp))
    path = tmp_path / "tiny.yaml"
    path.write_text(serialize_game(game))
    out = tmp_path / "out.jsonl"
    code = main(["solve", "--game", str(path), "--out", str(out)])
    assert code == EXIT_RUNTIME
    assert "certificate failed" in capsys.readouterr().err
    assert not out.exists() or out.read_text() == ""
