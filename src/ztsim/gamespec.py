"""Game-spec document parsing: one game kind per file, payoff tables written
as labeled rows. Shares the schema-version and diagnostic conventions of the
scenario format.
"""
from __future__ import annotations

from functools import partial

from .document import _fields, _flatten, _load_yaml, _read, _section
from .errors import ScenarioFormatError, ValidationError, labels, real, table
from .games import BayesianGameSpec, BimatrixGame, MatrixGame, SignalingGameSpec


def parse_game(text):
    """Return the single declared game object (MatrixGame, BimatrixGame,
    BayesianGameSpec, or SignalingGameSpec)."""
    doc = _load_yaml(text, "game")
    _fields(doc, "game", schema_version=object, **dict.fromkeys(GAME_KINDS))
    kinds = [k for k in GAME_KINDS if k in doc]
    if len(kinds) != 1:
        raise ScenarioFormatError(
            "game", "-", f"exactly one of {GAME_KINDS} required, found {kinds}"
        )
    kind = kinds[0]
    parse, keys = _KINDS[kind]
    with _section(kind):
        return parse(**_fields(doc[kind], kind, **keys))


def _labeled_matrix(rows_doc, key, rows, cols):
    out = []
    for r, row in table(rows_doc, (rows,), key).items():
        if not isinstance(row, dict):
            raise ValidationError("expected a mapping", f"{key}.{r}")
        out.append(tuple(table(row, (cols,), f"{key}.{r}").values()))
    return tuple(out)


def _parse_matrices(cls, row_labels, col_labels, **payoffs):
    # Labels key the document's tables, so they pass the model's rule first.
    rows, cols = labels(row_labels, "row_labels"), labels(col_labels, "col_labels")
    tables = {key: _labeled_matrix(doc, key, rows, cols) for key, doc in payoffs.items()}
    return cls(row_labels=rows, col_labels=cols, **tables)


def _parse_bayesian(players, types, actions, prior, utilities):
    players = labels(players, "players")

    def by_player(value, where, name):  # a profile: one label per player, in player order
        return tuple(table(value, (players,), f"{where}.{name}").values())

    profile_prior = {}
    for i, entry in enumerate(prior):
        entry = _fields(entry, f"bayesian_game.prior[{i}]", types=dict, p=object)
        profile = by_player(entry["types"], f"prior[{i}]", "types")
        # Entries naming the same type profile add up, so each must be checked
        # here: the model only sees the sum.
        profile_prior[profile] = profile_prior.get(profile, 0.0) + real(entry["p"], f"prior[{i}].p")
    player_utilities = {p: {} for p in players}
    for i, entry in enumerate(utilities):
        where = f"utilities[{i}]"
        try:  # one walk over the players, when the entry and each map are keyed by exactly them
            a, t, u = entry["actions"], entry["types"], entry["u"]
            if not (len(entry) == 3 and type(a) is type(t) is type(u) is dict
                    and len(a) == len(t) == len(u) == len(players)):
                raise KeyError
            *key, us = zip(*[(a[p], t[p], u[p]) for p in players])
        except (KeyError, TypeError):  # `_fields` or `table` names the first fault
            entry = _fields(entry, f"bayesian_game.{where}", actions=dict, types=dict, u=dict)
            key = [by_player(entry[name], where, name) for name in ("actions", "types")]
            us = by_player(entry["u"], where, "u")
        key = tuple(key)
        if key in player_utilities[players[0]]:
            raise ScenarioFormatError("bayesian_game", where, f"repeats the entry for {key!r}")
        for p, u in zip(players, us):
            player_utilities[p][key] = u
    return BayesianGameSpec(
        players=players, types=types, actions=actions, prior=profile_prior,
        utilities=player_utilities,
    )


def _parse_signaling(sender_utility, receiver_utility, **fields):
    return SignalingGameSpec(
        **fields,
        sender_utility=_flatten(sender_utility, 3, "signaling_game", "sender_utility"),
        receiver_utility=_flatten(receiver_utility, 2, "signaling_game", "receiver_utility"),
    )


# Each game kind's parser and the keys of its body, as `_fields` takes them.
_LABELS = {"row_labels": list, "col_labels": list}
_KINDS = {
    "matrix_game": (partial(_parse_matrices, MatrixGame), {**_LABELS, "payoff": dict}),
    "bimatrix_game": (partial(_parse_matrices, BimatrixGame), {
        **_LABELS, "leader_payoff": dict, "follower_payoff": dict,
    }),
    "bayesian_game": (_parse_bayesian, {
        "players": list, "types": dict, "actions": dict, "prior": list, "utilities": list,
    }),
    "signaling_game": (_parse_signaling, {
        "types": list, "prior": dict, "signals": list, "receiver_actions": list,
        "sender_utility": dict, "receiver_utility": dict,
    }),
}
GAME_KINDS = tuple(_KINDS)


def load_game(path):
    return parse_game(_read(path, "game"))
