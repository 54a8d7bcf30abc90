"""Game-spec documents: one game kind per file, payoff tables written as
labeled rows. Shares the schema-version and diagnostic conventions of the
scenario format.
"""
from __future__ import annotations

import yaml

from .errors import ScenarioFormatError
from .games import BayesianGameSpec, BimatrixGame, MatrixGame, SignalingGameSpec
from .scenario import SCHEMA_VERSION, _load_yaml, _require, _section

GAME_KINDS = ("matrix_game", "bimatrix_game", "bayesian_game", "signaling_game")


def parse_game(text):
    """Return the single declared game object (MatrixGame, BimatrixGame,
    BayesianGameSpec, or SignalingGameSpec)."""
    doc = _load_yaml(text, "game")
    kinds = [k for k in GAME_KINDS if k in doc]
    if len(kinds) != 1:
        raise ScenarioFormatError(
            "game", "-", f"exactly one of {GAME_KINDS} required, found {kinds}"
        )
    kind = kinds[0]
    body = doc[kind]
    if not isinstance(body, dict):
        raise ScenarioFormatError("game", kind, "must be a mapping")
    parser = {
        "matrix_game": _parse_matrix,
        "bimatrix_game": _parse_bimatrix,
        "bayesian_game": _parse_bayesian,
        "signaling_game": _parse_signaling,
    }[kind]
    with _section(kind):
        return parser(body)


def _labeled_matrix(body, section, key, rows, cols):
    table = _require(body, section, key, dict)
    out = []
    for r in rows:
        if r not in table:
            raise ScenarioFormatError(section, f"{key}.{r}", "missing row")
        row = table[r]
        if not isinstance(row, dict) or set(row) != set(cols):
            raise ScenarioFormatError(
                section, f"{key}.{r}", f"row keys must be exactly {list(cols)}"
            )
        out.append(tuple(float(row[c]) for c in cols))
    return tuple(out)


def _parse_matrix(body):
    rows = _require(body, "matrix_game", "row_labels", list)
    cols = _require(body, "matrix_game", "col_labels", list)
    payoff = _labeled_matrix(body, "matrix_game", "payoff", rows, cols)
    try:
        return MatrixGame(payoff=payoff, row_labels=tuple(rows), col_labels=tuple(cols))
    except Exception as exc:
        raise ScenarioFormatError("matrix_game", "payoff", str(exc)) from exc


def _parse_bimatrix(body):
    rows = _require(body, "bimatrix_game", "row_labels", list)
    cols = _require(body, "bimatrix_game", "col_labels", list)
    leader = _labeled_matrix(body, "bimatrix_game", "leader_payoff", rows, cols)
    follower = _labeled_matrix(body, "bimatrix_game", "follower_payoff", rows, cols)
    try:
        return BimatrixGame(
            leader_payoff=leader,
            follower_payoff=follower,
            row_labels=tuple(rows),
            col_labels=tuple(cols),
        )
    except Exception as exc:
        raise ScenarioFormatError("bimatrix_game", "payoff", str(exc)) from exc


def _parse_bayesian(body):
    players = _require(body, "bayesian_game", "players", list)
    types = _require(body, "bayesian_game", "types", dict)
    actions = _require(body, "bayesian_game", "actions", dict)
    for p in players:
        if p not in types:
            raise ScenarioFormatError("bayesian_game", f"types.{p}", "missing player")
        if p not in actions:
            raise ScenarioFormatError("bayesian_game", f"actions.{p}", "missing player")
    prior = {}
    for i, entry in enumerate(_require(body, "bayesian_game", "prior", list)):
        tmap = _require(entry, f"bayesian_game.prior[{i}]", "types", dict)
        p = _require(entry, f"bayesian_game.prior[{i}]", "p", (int, float))
        try:
            profile = tuple(tmap[pl] for pl in players)
        except KeyError as exc:
            raise ScenarioFormatError(
                "bayesian_game", f"prior[{i}].types", f"missing player {exc}"
            ) from exc
        prior[profile] = prior.get(profile, 0.0) + float(p)
    utilities = {p: {} for p in players}
    for i, entry in enumerate(_require(body, "bayesian_game", "utilities", list)):
        section = f"bayesian_game.utilities[{i}]"
        amap = _require(entry, section, "actions", dict)
        tmap = _require(entry, section, "types", dict)
        umap = _require(entry, section, "u", dict)
        try:
            aprof = tuple(amap[pl] for pl in players)
            tprof = tuple(tmap[pl] for pl in players)
        except KeyError as exc:
            raise ScenarioFormatError("bayesian_game", section, f"missing player {exc}") from exc
        for p in players:
            if p not in umap:
                raise ScenarioFormatError("bayesian_game", f"{section}.u", f"missing player {p!r}")
            utilities[p][(aprof, tprof)] = float(umap[p])
    try:
        return BayesianGameSpec(
            players=tuple(players),
            types={p: tuple(v) for p, v in types.items()},
            actions={p: tuple(v) for p, v in actions.items()},
            prior=prior,
            utilities=utilities,
        )
    except Exception as exc:
        raise ScenarioFormatError("bayesian_game", "-", str(exc)) from exc


def _parse_signaling(body):
    types = _require(body, "signaling_game", "types", list)
    prior = _require(body, "signaling_game", "prior", dict)
    signals = _require(body, "signaling_game", "signals", list)
    ractions = _require(body, "signaling_game", "receiver_actions", list)
    sender_doc = _require(body, "signaling_game", "sender_utility", dict)
    receiver_doc = _require(body, "signaling_game", "receiver_utility", dict)
    sender_utility = {}
    for t in types:
        if t not in sender_doc:
            raise ScenarioFormatError("signaling_game", f"sender_utility.{t}", "missing type")
        for s in signals:
            if s not in sender_doc[t]:
                raise ScenarioFormatError(
                    "signaling_game", f"sender_utility.{t}.{s}", "missing signal"
                )
            for a in ractions:
                if a not in sender_doc[t][s]:
                    raise ScenarioFormatError(
                        "signaling_game", f"sender_utility.{t}.{s}.{a}", "missing action"
                    )
                sender_utility[(t, s, a)] = float(sender_doc[t][s][a])
    receiver_utility = {}
    for a in ractions:
        if a not in receiver_doc:
            raise ScenarioFormatError("signaling_game", f"receiver_utility.{a}", "missing action")
        for t in types:
            if t not in receiver_doc[a]:
                raise ScenarioFormatError(
                    "signaling_game", f"receiver_utility.{a}.{t}", "missing type"
                )
            receiver_utility[(a, t)] = float(receiver_doc[a][t])
    try:
        return SignalingGameSpec(
            types=tuple(types),
            prior={t: float(prior.get(t, 0.0)) for t in types},
            signals=tuple(signals),
            receiver_actions=tuple(ractions),
            sender_utility=sender_utility,
            receiver_utility=receiver_utility,
        )
    except Exception as exc:
        raise ScenarioFormatError("signaling_game", "-", str(exc)) from exc


def serialize_game(game) -> str:
    """Canonical YAML rendering of any supported game object."""
    if isinstance(game, MatrixGame):
        body = {
            "row_labels": list(game.row_labels),
            "col_labels": list(game.col_labels),
            "payoff": {
                r: {c: game.payoff[i][j] for j, c in enumerate(game.col_labels)}
                for i, r in enumerate(game.row_labels)
            },
        }
        doc = {"schema_version": SCHEMA_VERSION, "matrix_game": body}
    elif isinstance(game, BimatrixGame):
        body = {
            "row_labels": list(game.row_labels),
            "col_labels": list(game.col_labels),
            "leader_payoff": {
                r: {c: game.leader_payoff[i][j] for j, c in enumerate(game.col_labels)}
                for i, r in enumerate(game.row_labels)
            },
            "follower_payoff": {
                r: {c: game.follower_payoff[i][j] for j, c in enumerate(game.col_labels)}
                for i, r in enumerate(game.row_labels)
            },
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
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ScenarioFormatError("game", str(path), f"cannot read file: {exc}") from exc
    return parse_game(text)
