import numpy as np
import pytest

from ztsim.errors import ValidationError
from ztsim.games import BimatrixGame, leader_maximin, solve_stackelberg


def test_mixed_commitment_example(commitment_game):
    res = solve_stackelberg(commitment_game, mode="mixed")
    assert res.leader_value == pytest.approx(3.5, abs=1e-9)
    assert res.leader_strategy.weights == pytest.approx((0.5, 0.5), abs=1e-9)
    assert res.follower_action == 1  # indifferent follower breaks toward the leader


def test_pure_commitment_example(commitment_game):
    res = solve_stackelberg(commitment_game, mode="pure")
    assert res.leader_value == pytest.approx(3.0, abs=1e-9)
    assert res.leader_strategy.weights == (0.0, 1.0)
    assert res.follower_action == 1


def test_dominant_follower_column_pure_equals_mixed():
    # follower strictly prefers column 0 whatever the leader does
    game = BimatrixGame(
        leader_payoff=((3, 0), (1, 5)),
        follower_payoff=((2, 0), (2, 1)),
    )
    pure = solve_stackelberg(game, mode="pure")
    mixed = solve_stackelberg(game, mode="mixed")
    assert pure.follower_action == mixed.follower_action == 0
    assert pure.leader_value == pytest.approx(3.0)
    assert mixed.leader_value == pytest.approx(pure.leader_value, abs=1e-9)


def test_value_ordering_on_random_games():
    rng = np.random.default_rng(11)
    for _ in range(50):
        L = rng.integers(-5, 6, size=(3, 3)).astype(float)
        F = rng.integers(-5, 6, size=(3, 3)).astype(float)
        game = BimatrixGame(tuple(map(tuple, L)), tuple(map(tuple, F)))
        mixed = solve_stackelberg(game, mode="mixed").leader_value
        pure = solve_stackelberg(game, mode="pure").leader_value
        maximin = leader_maximin(game)
        assert mixed >= pure - 1e-9
        assert pure >= maximin - 1e-9


def test_follower_best_response_invariant():
    rng = np.random.default_rng(23)
    for _ in range(20):
        L = rng.integers(-5, 6, size=(2, 4)).astype(float)
        F = rng.integers(-5, 6, size=(2, 4)).astype(float)
        game = BimatrixGame(tuple(map(tuple, L)), tuple(map(tuple, F)))
        res = solve_stackelberg(game, mode="mixed")
        x = np.array(res.leader_strategy.weights)
        follower_values = x @ F
        assert follower_values[res.follower_action] >= follower_values.max() - 1e-7


def test_shape_mismatch_rejected():
    with pytest.raises(ValidationError):
        BimatrixGame(((1, 2),), ((1,),))


def test_bad_mode_rejected(commitment_game):
    with pytest.raises(ValidationError) as info:
        solve_stackelberg(commitment_game, mode="nash")
    assert (info.value.key, info.value.reason) == ("mode", "undeclared label 'nash'")


def test_determinism(commitment_game):
    assert solve_stackelberg(commitment_game, "mixed") == solve_stackelberg(
        commitment_game, "mixed"
    )
