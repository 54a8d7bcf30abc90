"""Canonical YAML writers for scenario and game-spec documents. The package
only reads documents; the tests write them, so that a model can be checked to
round-trip: parse(serialize(x)) == x for every valid scenario and game."""
import yaml

from ztsim.document import SCHEMA_VERSION
from ztsim.errors import ScenarioFormatError
from ztsim.games import BayesianGameSpec, BimatrixGame, MatrixGame, SignalingGameSpec
from ztsim.sim import Scenario


def serialize_scenario(scenario: Scenario) -> str:
    """Canonical YAML rendering, writing every field of the model."""
    doc = {
        "schema_version": SCHEMA_VERSION,
        "type_space": {
            "types": list(scenario.space.types),
            "trusted": list(scenario.space.trusted),
        },
        "profiles": {},
        "entities": [],
        "policy": {
            "grant_threshold": scenario.policy.grant_threshold,
            "deny_threshold": scenario.policy.deny_threshold,
            "decay_rate": scenario.policy.decay_rate,
            "observe_while_denied": scenario.policy.observe_while_denied,
        },
        "run": {"horizon": scenario.horizon, "seed": scenario.seed},
    }
    for name, profile in scenario.profiles.items():
        behavior = {
            theta: {a: profile.behavior.prob(a, theta) for a in profile.behavior.actions}
            for theta in scenario.space.types
        }
        evidence = {
            a: {
                theta: {
                    e: profile.evidence.prob(e, a, theta)
                    for e in profile.evidence.evidence_values
                }
                for theta in scenario.space.types
            }
            for a in profile.behavior.actions
        }
        doc["profiles"][name] = {"behavior": behavior, "evidence": evidence}
    for e in scenario.entities:
        doc["entities"].append(
            {
                "id": e.id,
                "true_type": e.true_type,
                "profile": e.profile,
                "prior": [{"score": s, "weight": w} for s, w in e.prior_sources],
            }
        )
    return yaml.safe_dump(doc, sort_keys=False)


def _labeled(matrix, rows, cols):
    return {r: dict(zip(cols, row)) for r, row in zip(rows, matrix)}


def serialize_game(game) -> str:
    """Canonical YAML rendering of any supported game object."""
    if isinstance(game, MatrixGame):
        body = {
            "row_labels": list(game.row_labels),
            "col_labels": list(game.col_labels),
            "payoff": _labeled(game.payoff, game.row_labels, game.col_labels),
        }
        doc = {"schema_version": SCHEMA_VERSION, "matrix_game": body}
    elif isinstance(game, BimatrixGame):
        body = {
            "row_labels": list(game.row_labels),
            "col_labels": list(game.col_labels),
            "leader_payoff": _labeled(game.leader_payoff, game.row_labels, game.col_labels),
            "follower_payoff": _labeled(game.follower_payoff, game.row_labels, game.col_labels),
        }
        doc = {"schema_version": SCHEMA_VERSION, "bimatrix_game": body}
    elif isinstance(game, BayesianGameSpec):
        body = {
            "players": list(game.players),
            "types": {p: list(v) for p, v in game.types.items()},
            "actions": {p: list(v) for p, v in game.actions.items()},
            "prior": [
                {"types": dict(zip(game.players, prof)), "p": p}
                for prof, p in game.prior.items()
            ],
            "utilities": [
                {
                    "actions": dict(zip(game.players, aprof)),
                    "types": dict(zip(game.players, tprof)),
                    "u": {p: game.utilities[p][(aprof, tprof)] for p in game.players},
                }
                for aprof in game.action_profiles()
                for tprof in game.type_profiles()
            ],
        }
        doc = {"schema_version": SCHEMA_VERSION, "bayesian_game": body}
    elif isinstance(game, SignalingGameSpec):
        body = {
            "types": list(game.types),
            "prior": {t: game.prior[t] for t in game.types},
            "signals": list(game.signals),
            "receiver_actions": list(game.receiver_actions),
            "sender_utility": {
                t: {
                    s: {a: game.sender_utility[(t, s, a)] for a in game.receiver_actions}
                    for s in game.signals
                }
                for t in game.types
            },
            "receiver_utility": {
                a: {t: game.receiver_utility[(a, t)] for t in game.types}
                for a in game.receiver_actions
            },
        }
        doc = {"schema_version": SCHEMA_VERSION, "signaling_game": body}
    else:
        raise ScenarioFormatError("game", "-", f"unsupported game object {type(game).__name__}")
    return yaml.safe_dump(doc, sort_keys=False)
