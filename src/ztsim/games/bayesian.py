"""Finite Bayesian games: interim expected utility and exhaustive pure-strategy
Bayesian Nash equilibrium enumeration.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from ..errors import EnumerationBudgetExceeded, UnreachableType, ValidationError, reject_bool

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
        object.__setattr__(self, "players", tuple(self.players))
        object.__setattr__(self, "types", {p: tuple(v) for p, v in self.types.items()})
        object.__setattr__(self, "actions", {p: tuple(v) for p, v in self.actions.items()})
        prior = {k: float(reject_bool(v, "prior")) for k, v in self.prior.items()}
        utilities = {
            p: {k: float(reject_bool(u, f"utilities.{p}")) for k, u in v.items()}
            for p, v in self.utilities.items()
        }
        object.__setattr__(self, "prior", prior)
        object.__setattr__(self, "utilities", utilities)
        if not self.players:
            raise ValidationError("at least one player required", "players")
        if len(set(self.players)) != len(self.players):
            raise ValidationError("identifiers must be unique", "players")
        for p in self.players:
            for name in ("types", "actions"):
                labels = getattr(self, name).get(p)
                if not labels:
                    raise ValidationError(f"player {p!r} has no {name}", f"{name}.{p}")
                if len(set(labels)) != len(labels):
                    raise ValidationError("identifiers must be unique", f"{name}.{p}")
        total = 0.0
        for profile, prob in self.prior.items():
            if len(profile) != len(self.players):
                raise ValidationError(f"type profile {profile!r} has wrong arity", "prior")
            for p, t in zip(self.players, profile):
                if t not in self.types[p]:
                    raise ValidationError(
                        f"type profile {profile!r} names undeclared type {t!r} of player {p!r}",
                        "prior",
                    )
            if prob < 0 or not math.isfinite(prob):
                raise ValidationError(f"{profile!r} must have a finite probability >= 0", "prior")
            total += prob
        if abs(total - 1.0) > 1e-9:
            raise ValidationError(f"joint type prior sums to {total}, expected 1", "prior")
        for aprof in self.action_profiles():
            for tprof in self.type_profiles():
                for p in self.players:
                    if (aprof, tprof) not in self.utilities.get(p, {}):
                        raise ValidationError(f"missing entry {(aprof, tprof)!r}", f"utilities.{p}")

    def type_profiles(self):
        return itertools.product(*(self.types[p] for p in self.players))

    def action_profiles(self):
        return itertools.product(*(self.actions[p] for p in self.players))

    def prior_prob(self, tprofile):
        return self.prior.get(tuple(tprofile), 0.0)

    def marginal(self, player, ptype):
        i = self.players.index(player)
        return sum(v for k, v in self.prior.items() if k[i] == ptype)

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

    def action(self, player, ptype):
        for p, tmap in self.choices:
            if p == player:
                return dict(tmap)[ptype]
        raise KeyError(player)


def bayes_expected_utility(spec: BayesianGameSpec, strategy, player, ptype) -> float:
    """Interim expected utility of `player` with type `ptype` under a pure
    strategy profile, averaging over opponents' types with the conditional
    belief derived from the joint prior."""
    if isinstance(strategy, BayesianStrategy):
        strategy = strategy.as_dict()
    for p in spec.players:
        for t in spec.types[p]:
            if t not in strategy.get(p, {}):
                raise ValidationError(f"strategy missing action for player {p!r} type {t!r}")
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
    type of any player can gain more than EQ_TOL by a unilateral action change."""
    required = strategy_space_size(spec)
    if required > budget:
        raise EnumerationBudgetExceeded(required, budget)

    # A player's pure strategy is a tuple of action indices, one per type.
    per_player = [
        list(itertools.product(range(len(spec.actions[p])), repeat=len(spec.types[p])))
        for p in spec.players
    ]
    checks = _interim_tables(spec)

    results = []
    for combo in itertools.product(*per_player):
        if _is_bne(checks, combo):
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


def _is_bne(checks, combo):
    """True when no checked type of any player gains more than EQ_TOL by
    switching its action, the others held at `combo`."""
    for i, k, stride, n_alt, entries in checks:
        values = [0.0] * n_alt
        for prob, utilities, others in entries:
            pos = 0
            for j, tj, sj in others:
                pos += combo[j][tj] * sj
            for a in range(n_alt):
                values[a] += prob * utilities[pos + a * stride]
        bar = values[combo[i][k]] + EQ_TOL
        for v in values:
            if v > bar:
                return False
    return True
