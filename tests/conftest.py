import pathlib

import pytest
from hypothesis import settings

from ztsim.games import BimatrixGame, SignalingGameSpec
from ztsim.trust import BehaviorModel, EvidenceModel, TrustState, TypeSpace

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]

# `pytest --hypothesis-profile=ci` runs property tests that do not set their
# own example count (the solver oracle tests) five times deeper.
settings.register_profile("ci", max_examples=500)


@pytest.fixture(scope="session")
def scenarios_dir():
    return REPO_ROOT / "scenarios"


@pytest.fixture(scope="session")
def game_specs_dir():
    return REPO_ROOT / "game_specs"


@pytest.fixture
def space():
    return TypeSpace(types=("T", "M"), trusted=frozenset({"T"}))


@pytest.fixture
def prior_state():
    return TrustState(mass={"T": 0.8, "M": 0.2})


@pytest.fixture
def behavior():
    return BehaviorModel(
        actions=("benign", "attack"),
        likelihood={
            ("T", "benign"): 0.9,
            ("T", "attack"): 0.1,
            ("M", "benign"): 0.3,
            ("M", "attack"): 0.7,
        },
    )


@pytest.fixture
def evidence():
    return EvidenceModel(
        evidence_values=("no_alarm", "alarm"),
        likelihood={
            ("benign", "T", "no_alarm"): 0.95,
            ("benign", "T", "alarm"): 0.05,
            ("benign", "M", "no_alarm"): 0.4,
            ("benign", "M", "alarm"): 0.6,
            ("attack", "T", "no_alarm"): 0.3,
            ("attack", "T", "alarm"): 0.7,
            ("attack", "M", "no_alarm"): 0.1,
            ("attack", "M", "alarm"): 0.9,
        },
    )


def make_honeypot_spec():
    sender = {}
    for s in ("weak", "hardened"):
        sender[("real", s, "attack")] = -2.0
        sender[("real", s, "withdraw")] = 1.0
        sender[("honeypot", s, "attack")] = 2.0
        sender[("honeypot", s, "withdraw")] = 0.0
    return SignalingGameSpec(
        types=("real", "honeypot"),
        prior={"real": 0.7, "honeypot": 0.3},
        signals=("weak", "hardened"),
        receiver_actions=("attack", "withdraw"),
        sender_utility=sender,
        receiver_utility={
            ("attack", "real"): 2.0,
            ("attack", "honeypot"): -3.0,
            ("withdraw", "real"): 0.0,
            ("withdraw", "honeypot"): 0.0,
        },
    )


@pytest.fixture
def honeypot_spec():
    return make_honeypot_spec()


def make_commitment_game():
    return BimatrixGame(
        leader_payoff=((2, 4), (1, 3)),
        follower_payoff=((1, 0), (0, 1)),
        row_labels=("probe", "exploit"),
        col_labels=("patch", "monitor"),
    )


@pytest.fixture
def commitment_game():
    return make_commitment_game()
