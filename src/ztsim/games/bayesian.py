"""Finite Bayesian games: interim expected utility and exhaustive pure-strategy
Bayesian Nash equilibrium enumeration.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from ..errors import EnumerationBudgetExceeded, UnreachableType
from ..errors import distribution, label, labels, left_sum, real, table

EQ_TOL = 1e-9
DEFAULT_BUDGET = 10**6


@dataclass(frozen=True)
class BayesianGameSpec:
    """Players with private types, a joint type prior, and utility tables over
    (action profile, type profile)."""

    players: tuple
    types: dict  # player -> tuple of types
    actions: dict  # player -> tuple of actions
    prior: dict  # type profile tuple -> probability
    utilities: dict  # player -> {(action profile, type profile): utility}

    def __post_init__(self):
        players = labels(self.players, "players")
        object.__setattr__(self, "players", players)
        for name in ("types", "actions"):
            per_player = table(getattr(self, name), (players,), name)
            per_player = {p: labels(v, f"{name}.{p}") for p, v in per_player.items()}
            object.__setattr__(self, name, per_player)
        profiles = tuple(self.type_profiles())  # one axis, so a one-player profile is a 1-tuple
        prior = table({**dict.fromkeys(profiles, 0.0), **self.prior}, (profiles,), "prior")
        object.__setattr__(self, "prior", distribution(prior, "prior"))
        axes = (tuple(self.action_profiles()), tuple(self.type_profiles()))
        utilities = {}
        for p, entries in table(self.utilities, (players,), "utilities").items():
            key = f"utilities.{p}"
            utilities[p] = {k: real(u, key) for k, u in table(entries, axes, key).items()}
        object.__setattr__(self, "utilities", utilities)

    def type_profiles(self):
        return itertools.product(*(self.types[p] for p in self.players))

    def action_profiles(self):
        return itertools.product(*(self.actions[p] for p in self.players))

    def marginal(self, player, ptype):
        i = self.players.index(player)
        return left_sum(v for k, v in self.prior.items() if k[i] == ptype)

    def conditional(self, player, ptype):
        """Belief over the other players' type profiles given own type."""
        i = self.players.index(player)
        marg = self.marginal(player, ptype)
        if marg <= 0:
            raise UnreachableType(
                f"type {ptype!r} of player {player!r} has zero marginal probability"
            )
        out = {}
        for k, v in self.prior.items():
            if k[i] == ptype and v > 0:
                rest = tuple(t for j, t in enumerate(k) if j != i)
                out[rest] = out.get(rest, 0.0) + v / marg
        return out


@dataclass(frozen=True)
class BayesianStrategy:
    """One pure strategy per player: a map from each type to an action."""

    choices: tuple  # ((player, ((type, action), ...)), ...)

    @classmethod
    def from_dict(cls, mapping):
        return cls(
            tuple(
                (p, tuple(sorted(tmap.items(), key=lambda kv: str(kv[0]))))
                for p, tmap in mapping.items()
            )
        )

    def as_dict(self):
        return {p: dict(tmap) for p, tmap in self.choices}


def bayes_expected_utility(spec: BayesianGameSpec, strategy, player, ptype) -> float:
    """Interim expected utility of `player` with type `ptype` under a pure
    strategy profile, averaging over opponents' types with the conditional
    belief derived from the joint prior. `strategy` is a `table` over the
    players of `table`s over their types; every label must be declared."""
    if isinstance(strategy, BayesianStrategy):
        strategy = strategy.as_dict()
    for p, choices in table(strategy, (spec.players,), "strategy").items():
        for t, a in table(choices, (spec.types[p],), f"strategy.{p}").items():
            label(a, spec.actions[p], f"strategy.{p}.{t}")
    label(player, spec.players, "player")
    label(ptype, spec.types[player], "ptype")
    i = spec.players.index(player)
    belief = spec.conditional(player, ptype)
    total = 0.0
    for rest, prob in belief.items():
        tprof = list(rest)
        tprof.insert(i, ptype)
        tprof = tuple(tprof)
        aprof = tuple(strategy[p][tprof[j]] for j, p in enumerate(spec.players))
        total += prob * spec.utilities[player][(aprof, tprof)]
    return total


def strategy_space_size(spec: BayesianGameSpec) -> int:
    n = 1
    for p in spec.players:
        n *= len(spec.actions[p]) ** len(spec.types[p])
    return n


def find_bne(spec: BayesianGameSpec, budget=DEFAULT_BUDGET):
    """All pure Bayesian Nash equilibria: profiles where no positive-probability
    type of any player can gain more than EQ_TOL by a unilateral action change.

    Only players 0..n-2 are enumerated: with their strategies fixed, each type
    of the last player best-responds on its own (Harsanyi 1967), so `_is_bne`
    checks the others on the product of its per-type best-response sets (all
    actions for a zero-marginal type), in full `itertools.product` order.
    """
    required = strategy_space_size(spec)
    if required > budget:
        raise EnumerationBudgetExceeded(required, budget)

    # A player's pure strategy is a tuple of action indices, one per type.
    per_player = [
        list(itertools.product(range(len(spec.actions[p])), repeat=len(spec.types[p])))
        for p in spec.players[:-1]
    ]
    last = len(spec.players) - 1
    checks = _interim_tables(spec)
    head_checks = [c for c in checks if c[0] != last]
    by_type = {c[1]: c for c in checks if c[0] == last}
    last_checks = [by_type.get(k) for k in range(len(spec.types[spec.players[last]]))]
    every_action = range(len(spec.actions[spec.players[last]]))

    results = []
    for head in itertools.product(*per_player):
        options = [_best_responses(c, head) if c else every_action for c in last_checks]
        for tail in itertools.product(*options):
            combo = head + (tail,)
            if _is_bne(head_checks, combo):
                results.append(
                    BayesianStrategy.from_dict(
                        {
                            p: dict(zip(spec.types[p], (spec.actions[p][a] for a in choice)))
                            for p, choice in zip(spec.players, combo)
                        }
                    )
                )
    return results


def _interim_tables(spec):
    """One deviation check per (player, positive-marginal type):
    ``(player index, type index, action stride, action count, entries)``.

    `entries` lists ``(prob, utilities, others)`` in the order in which
    `bayes_expected_utility` visits the conditional belief. `utilities` holds
    the player's payoff at that type profile for every action profile, in
    `action_profiles()` order; `others` gives each opponent's ``(player index,
    type index, stride)`` there, so an action profile's position is a sum of
    action index times stride. Summing ``prob * utility`` over the entries in
    this order repeats `bayes_expected_utility` float for float.
    """
    players = spec.players
    n_actions = [len(spec.actions[p]) for p in players]
    strides = [math.prod(n_actions[i + 1 :]) for i in range(len(players))]
    type_index = [{t: k for k, t in enumerate(spec.types[p])} for p in players]
    aprofs = list(spec.action_profiles())
    checks = []
    for i, p in enumerate(players):
        for t in spec.types[p]:
            if spec.marginal(p, t) <= 0:
                continue
            entries = []
            for rest, prob in spec.conditional(p, t).items():
                tprof = rest[:i] + (t,) + rest[i:]
                utilities = [spec.utilities[p][(aprof, tprof)] for aprof in aprofs]
                others = tuple(
                    (j, type_index[j][tprof[j]], strides[j])
                    for j in range(len(players))
                    if j != i
                )
                entries.append((prob, utilities, others))
            checks.append((i, type_index[i][t], strides[i], n_actions[i], entries))
    return checks


def _best_responses(check, combo):
    """Action indices of the checked type that no switch beats by more than
    EQ_TOL, the opponents' strategies read from `combo`."""
    _, _, stride, n_alt, entries = check
    values = [0.0] * n_alt
    for prob, utilities, others in entries:
        pos = 0
        for j, tj, sj in others:
            pos += combo[j][tj] * sj
        for a in range(n_alt):
            values[a] += prob * utilities[pos + a * stride]
    best = []
    for a in range(n_alt):
        bar = values[a] + EQ_TOL
        for v in values:
            if v > bar:
                break
        else:
            best.append(a)
    return best


def _is_bne(checks, combo):
    """True when no checked type of any player gains more than EQ_TOL by
    switching its action, the others held at `combo`."""
    return all(combo[c[0]][c[1]] in _best_responses(c, combo) for c in checks)
