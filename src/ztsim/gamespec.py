"""Game-spec documents: one game kind per file, payoff tables written as
labeled rows. Shares the schema-version and diagnostic conventions of the
scenario format.
"""
from __future__ import annotations

import yaml

from .errors import ScenarioFormatError, labels, real, table
from .games import BayesianGameSpec, BimatrixGame, MatrixGame, SignalingGameSpec
from .scenario import SCHEMA_VERSION, _fields, _flatten, _load_yaml, _read, _require, _section


def parse_game(text):
    """Return the single declared game object (MatrixGame, BimatrixGame,
    BayesianGameSpec, or SignalingGameSpec)."""
    doc = _load_yaml(text, "game")
    _fields(doc, "game", "schema_version", **dict.fromkeys(GAME_KINDS))
    kinds = [k for k in GAME_KINDS if k in doc]
    if len(kinds) != 1:
        raise ScenarioFormatError(
            "game", "-", f"exactly one of {GAME_KINDS} required, found {kinds}"
        )
    kind = kinds[0]
    body = doc[kind]
    if not isinstance(body, dict):
        raise ScenarioFormatError("game", kind, "must be a mapping")
    with _section(kind):
        return _PARSERS[kind](body)


def _labeled_matrix(body, section, key, rows, cols):
    out = []
    for r, row in table(_require(body, section, key, dict), (rows,), key).items():
        if not isinstance(row, dict) or set(row) != set(cols):
            raise ScenarioFormatError(
                section, f"{key}.{r}", f"row keys must be exactly {list(cols)}"
            )
        out.append(tuple(row[c] for c in cols))
    return tuple(out)


def _parse_matrices(body, kind, cls, *names):
    # Labels key the document's tables, so they pass the model's rule first.
    rows, cols = (labels(_require(body, kind, k, list), k) for k in ("row_labels", "col_labels"))
    tables = {name: _labeled_matrix(body, kind, name, rows, cols) for name in names}
    return cls(row_labels=rows, col_labels=cols, **tables)


def _parse_bayesian(body):
    players = labels(_require(body, "bayesian_game", "players", list), "players")
    types = _require(body, "bayesian_game", "types", dict)
    actions = _require(body, "bayesian_game", "actions", dict)

    def by_player(entry, where, name):  # a profile: one label per player, in player order
        value = _require(entry, f"bayesian_game.{where}", name, dict)
        return tuple(table(value, (players,), f"{where}.{name}").values())

    prior = {}
    for i, entry in enumerate(_require(body, "bayesian_game", "prior", list)):
        p = _fields(entry, f"bayesian_game.prior[{i}]", "types", "p")["p"]
        profile = by_player(entry, f"prior[{i}]", "types")
        # Entries naming the same type profile add up, so each must be checked
        # here: the model only sees the sum.
        prior[profile] = prior.get(profile, 0.0) + real(p, f"prior[{i}].p")
    utilities = {p: {} for p in players}
    for i, entry in enumerate(_require(body, "bayesian_game", "utilities", list)):
        where = f"utilities[{i}]"
        try:  # one walk over the players, when each map is keyed by exactly them
            a, t, u = entry["actions"], entry["types"], entry["u"]
            if not (type(a) is type(t) is type(u) is dict
                    and len(a) == len(t) == len(u) == len(players)):
                raise KeyError
            *key, us = zip(*[(a[p], t[p], u[p]) for p in players])
        except (KeyError, TypeError):  # `table` names the first fault
            key = [by_player(entry, where, name) for name in ("actions", "types")]
            us = by_player(entry, where, "u")
        key = tuple(key)
        if key in utilities[players[0]]:
            raise ScenarioFormatError("bayesian_game", where, f"repeats the entry for {key!r}")
        for p, u in zip(players, us):
            utilities[p][key] = u
    return BayesianGameSpec(
        players=players, types=types, actions=actions, prior=prior, utilities=utilities
    )


def _parse_signaling(body):
    def get(key, kind=dict):
        return _require(body, "signaling_game", key, kind)

    return SignalingGameSpec(
        types=get("types", list),
        prior=get("prior"),
        signals=get("signals", list),
        receiver_actions=get("receiver_actions", list),
        sender_utility=_flatten(get("sender_utility"), 3, "signaling_game", "sender_utility"),
        receiver_utility=_flatten(get("receiver_utility"), 2, "signaling_game", "receiver_utility"),
    )


_PARSERS = {
    "matrix_game": lambda body: _parse_matrices(body, "matrix_game", MatrixGame, "payoff"),
    "bimatrix_game": lambda body: _parse_matrices(
        body, "bimatrix_game", BimatrixGame, "leader_payoff", "follower_payoff"
    ),
    "bayesian_game": _parse_bayesian,
    "signaling_game": _parse_signaling,
}
GAME_KINDS = tuple(_PARSERS)


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


def load_game(path):
    return parse_game(_read(path, "game"))
