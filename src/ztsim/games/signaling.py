"""Signaling games: Bayes posterior over sender types, receiver/sender best
responses, and exhaustive pure-strategy perfect Bayesian equilibrium search
with a configurable off-path belief rule.
"""
from __future__ import annotations

import functools
import itertools
from collections.abc import Hashable, Mapping
from dataclasses import dataclass

import numpy as np

from ..errors import EnumerationBudgetExceeded
from ..errors import distribution, label, labels, left_sum, real, table

EQ_TOL = 1e-9
DEFAULT_BUDGET = 10**6
OFF_PATH_RULES = ("uniform", "prior", "pessimistic")
_BLOCK = 1 << 15  # (sender profile, signal) pairs per array pass of find_pbe


@dataclass(frozen=True)
class SignalingGameSpec:
    """Sender with private type sends a signal; receiver updates beliefs and
    acts. Signal costs, if any, are folded into the sender utility table."""

    types: tuple
    prior: dict  # type -> probability
    signals: tuple
    receiver_actions: tuple
    sender_utility: dict  # (type, signal, action) -> utility
    receiver_utility: dict  # (action, type) -> utility

    def __post_init__(self):
        for name in ("types", "signals", "receiver_actions"):
            object.__setattr__(self, name, labels(getattr(self, name), name))
        types, signals, actions = self.types, self.signals, self.receiver_actions
        # A type the prior leaves out has probability 0.
        prior = dict.fromkeys(types, 0.0) | dict(self.prior)
        object.__setattr__(self, "prior", distribution(table(prior, (types,), "prior"), "prior"))
        for name, entries, axes in (
            ("sender_utility", self.sender_utility, (types, signals, actions)),
            ("receiver_utility", self.receiver_utility, (actions, types)),
        ):
            values = {k: real(v, name) for k, v in table(entries, axes, name).items()}
            object.__setattr__(self, name, values)

    @functools.cached_property
    def _point_replies(self):
        """(point belief, receiver best response) for each type in order. The
        pessimistic off-path rule compares them at every signal, and they do
        not depend on the signal, so a spec computes them once."""
        n = len(self.types)
        points = [tuple(1.0 if j == i else 0.0 for j in range(n)) for i in range(n)]
        return [(point, receiver_best_response(self, point)[0]) for point in points]


@dataclass(frozen=True)
class Belief:
    """Receiver belief over sender types at one signal."""

    probs: tuple  # aligned with spec.types
    on_path: bool

    def __post_init__(self):
        distribution(dict(enumerate(self.probs)), "belief")


@dataclass(frozen=True)
class BeliefSystem:
    by_signal: tuple  # ((signal, Belief), ...)

    def belief(self, signal) -> Belief:
        for s, b in self.by_signal:
            if s == signal:
                return b
        raise KeyError(signal)


@dataclass(frozen=True)
class PBEResult:
    sender_strategy: tuple  # ((type, signal), ...)
    receiver_strategy: tuple  # ((signal, action), ...)
    beliefs: BeliefSystem
    classification: str  # pooling | separating | hybrid

    def sender_signal(self, ptype):
        return dict(self.sender_strategy)[ptype]

    def receiver_action(self, signal):
        return dict(self.receiver_strategy)[signal]


def off_path_belief(spec: SignalingGameSpec, signal, rule) -> tuple:
    """Belief assigned at a signal no sender type emits.

    uniform: flat over types. prior: the type prior. pessimistic: the
    degenerate belief whose induced receiver response minimizes the best
    deviation payoff any sender type could get at this signal (first type on
    ties), i.e. the most deviation-deterring point belief. The rule is
    checked here and nowhere else.
    """
    label(rule, OFF_PATH_RULES, "off_path_rule")
    n = len(spec.types)
    if rule == "uniform":
        return tuple(1.0 / n for _ in spec.types)
    if rule == "prior":
        return tuple(spec.prior[t] for t in spec.types)
    best = None
    for point, action in spec._point_replies:
        worst_gain = max(spec.sender_utility[(th, signal, action)] for th in spec.types)
        if best is None or worst_gain < best[0] - EQ_TOL:
            best = (worst_gain, point)
    return best[1]


def signal_posterior(spec: SignalingGameSpec, sender_strategy, signal, off_path_rule="uniform") -> Belief:
    """Bayes posterior over sender types after observing `signal`.

    `sender_strategy` is a `table` over the types of `distribution`s over the
    signals, a signal a row leaves out at 0 and a pure row type -> signal
    read as {signal: 1.0}. Zero total signal probability yields the
    off-path belief, whose rule is checked on path too.
    """
    label(signal, spec.signals, "signal")
    off = off_path_belief(spec, signal, off_path_rule)
    weights = []
    for t, row in table(sender_strategy, (spec.types,), "sender_strategy").items():
        key = f"sender_strategy.{t}"
        if isinstance(row, Hashable):  # a pure row names its signal
            row = {row: 1.0}
        if isinstance(row, Mapping):  # a signal the row leaves out is at 0
            row = {**dict.fromkeys(spec.signals, 0.0), **row}
        weights.append(distribution(table(row, (spec.signals,), key), key)[signal] * spec.prior[t])
    z = left_sum(weights)
    if z > 0:
        return Belief(tuple(w / z for w in weights), on_path=True)
    return Belief(off, on_path=False)


def receiver_best_response(spec: SignalingGameSpec, belief):
    """(action, expected value, tie flag) maximizing the belief-weighted
    receiver utility; first action in declared order wins ties."""
    probs = belief.probs if isinstance(belief, Belief) else tuple(belief)
    distribution(table(dict(enumerate(probs)), (range(len(spec.types)),), "belief"), "belief")
    values = [
        left_sum(p * spec.receiver_utility[(a, t)] for p, t in zip(probs, spec.types))
        for a in spec.receiver_actions
    ]
    best = max(values)
    winners = [i for i, v in enumerate(values) if v >= best - EQ_TOL]
    return spec.receiver_actions[winners[0]], values[winners[0]], len(winners) > 1


def _classify(spec, sender_map):
    used = [sender_map[t] for t in spec.types]
    if len(set(used)) == 1:
        return "pooling"
    if len(set(used)) == len(used):
        return "separating"
    return "hybrid"


def find_pbe(spec: SignalingGameSpec, off_path_rule="uniform", budget=DEFAULT_BUDGET):
    """All pure-strategy perfect Bayesian equilibria.

    Keeps (sender strategy, receiver strategy) pairs where on-path beliefs are
    Bayes-consistent, off-path beliefs follow the rule, every receiver action
    is a best response to the belief at its signal, and no sender type gains
    more than EQ_TOL by deviating to another signal.

    Sender profiles are enumerated in blocks of `_BLOCK` (profile, signal)
    pairs, each one numpy pass. A pair is keyed by what its belief depends
    on: the bitmask of its positive-prior senders, or `-1 - signal` when it
    has none. One `np.unique` of a block's keys gives its table of beliefs,
    with the floats of `signal_posterior` (weights indicator * prior, folded
    by `left_sum`) or the signal's `off_path_belief`, and receiver replies
    within EQ_TOL of the best. Where every signal has one reply, the sender
    deviation check runs as array comparisons; a profile with a tied signal
    checks each product of replies in Python. Only equilibrium profiles get
    a sender map, `Belief`s and a `BeliefSystem`.
    """
    types, signals, actions = spec.types, spec.signals, spec.receiver_actions
    required = len(signals) ** len(types) * len(actions) ** len(signals)
    if required > budget:
        raise EnumerationBudgetExceeded(required, budget)
    n, m = len(types), len(signals)
    utility, live = _sender_tables(spec)
    sender, nested = utility[live], utility.tolist()  # [live type, signal, action]
    live_ix, j = np.array(live, dtype=np.intp), np.arange(len(live))
    prior = np.array([spec.prior[t] for t in types])
    receiver = np.array([spec.receiver_utility[(a, t)] for t in types for a in actions]).reshape(n, -1)
    # Python ints past 62 live types, which only a one-profile game reaches.
    bits = np.array([1 << i for i in range(len(live))], np.int64 if len(live) < 63 else object)
    off = [Belief(off_path_belief(spec, s, off_path_rule), on_path=False) for s in signals]
    off_probs = np.array([b.probs for b in off])
    place = m ** np.arange(n - 1, -1, -1)
    sig = np.arange(m)
    total, rows = m**n, max(1, _BLOCK // m)
    results = []
    for lo in range(0, total, rows):
        combo = np.arange(lo, min(lo + rows, total))[:, None] // place % m  # [profile, type]
        masks = (combo[:, None, live_ix] == sig[:, None]) @ bits  # [profile, signal]
        # A pair's belief depends on its sender set or, off path, on its signal.
        keys = np.where(masks != 0, masks, -1 - sig)
        keys, first, row = np.unique(keys, return_index=True, return_inverse=True)
        row = row.reshape(masks.shape)  # numpy 1.x returns it flat
        p, k = np.divmod(first, m)  # where each key first occurs
        probs = (combo[p] == k[:, None]) * prior  # Bayes weights, then beliefs
        off_row = keys < 0  # no live sender: normalizer 0, belief from the rule
        probs /= (left_sum(probs.T) + off_row)[:, None]
        probs[off_row] = off_probs[k[off_row]]
        values = left_sum((probs[:, :, None] * receiver).swapaxes(0, 1))  # [row, action]
        pick = (values >= values.max(1, keepdims=True) - EQ_TOL).argmax(1)
        ok = values >= values[np.arange(len(values)), pick, None] - EQ_TOL
        reply, tied = pick[row], (ok.sum(1) > 1)[row].any(1)
        gain = sender[j[:, None], sig, reply[:, None]]  # [profile, live type, signal]
        current = gain[np.arange(len(combo))[:, None], j, combo[:, live_ix], None]
        for i in (tied | ~(gain > current + EQ_TOL).any((1, 2))).nonzero()[0]:
            c, here = combo[i].tolist(), row[i].tolist()
            replies = [reply[i].tolist()]
            if tied[i]:
                options = (ok[x].nonzero()[0].tolist() for x in here)
                replies = [r for r in itertools.product(*options) if not _deviation_exists(nested, live, c, r)]
                if not replies:
                    continue
            sender_map = {t: signals[x] for t, x in zip(types, c)}
            sender_strategy = tuple(sender_map.items())
            beliefs = BeliefSystem(
                tuple(
                    (s, o if off_row[x] else Belief(tuple(probs[x].tolist()), on_path=True))
                    for s, x, o in zip(signals, here, off)
                )
            )
            classification = _classify(spec, sender_map)
            for r in replies:
                results.append(
                    PBEResult(
                        sender_strategy=sender_strategy,
                        receiver_strategy=tuple((s, actions[a]) for s, a in zip(signals, r)),
                        beliefs=beliefs,
                        classification=classification,
                    )
                )
    return results


def _sender_tables(spec):
    """Sender utilities as an array [type, signal, action], and the indices of
    the positive-prior types, the only ones whose deviations count."""
    types, signals, actions = spec.types, spec.signals, spec.receiver_actions
    utility = np.array([spec.sender_utility[(t, s, a)] for t in types for s in signals for a in actions])
    shape = (len(types), len(signals), len(actions))
    return utility.reshape(shape), [i for i, t in enumerate(types) if spec.prior[t] > 0]


def _deviation_exists(utility, live, combo, reply):
    """Whether a positive-prior type gains more than EQ_TOL by switching
    signal, with sender signal indices `combo` and receiver action indices
    `reply` per signal."""
    for t in live:
        row = utility[t]
        current = row[combo[t]][reply[combo[t]]]
        for s, a in enumerate(reply):
            if row[s][a] > current + EQ_TOL:
                return True
    return False


def verify_pbe(spec: SignalingGameSpec, result: PBEResult, off_path_rule="uniform") -> bool:
    """Standalone consistency check: the result must cover exactly the
    declared types and signals with declared labels and classify its sender
    strategy as `_classify` does; beliefs are recomputed from the sender
    strategy via signal_posterior and both players' deviation checks re-run."""
    sender_map = dict(result.sender_strategy)
    receiver_map = dict(result.receiver_strategy)
    beliefs = dict(result.beliefs.by_signal)
    signal_index = {s: k for k, s in enumerate(spec.signals)}
    action_index = {a: k for k, a in enumerate(spec.receiver_actions)}
    declared = (
        sender_map.keys() == set(spec.types)
        and receiver_map.keys() == beliefs.keys() == signal_index.keys()
        and set(sender_map.values()) <= signal_index.keys()
        and set(receiver_map.values()) <= action_index.keys()
    )
    if not declared or result.classification != _classify(spec, sender_map):
        return False
    for s in spec.signals:
        expected = signal_posterior(spec, sender_map, s, off_path_rule)
        got = beliefs[s]
        if expected.on_path != got.on_path or len(got.probs) != len(expected.probs):
            return False
        if any(abs(a - b) > 1e-9 for a, b in zip(expected.probs, got.probs)):
            return False
        _, best_val, _ = receiver_best_response(spec, expected)
        val = left_sum(
            p * spec.receiver_utility[(receiver_map[s], t)]
            for p, t in zip(expected.probs, spec.types)
        )
        if val < best_val - EQ_TOL:
            return False
    utility, live = _sender_tables(spec)
    combo = [signal_index[sender_map[t]] for t in spec.types]
    reply = [action_index[receiver_map[s]] for s in spec.signals]
    return not _deviation_exists(utility.tolist(), live, combo, reply)
