"""`find_pbe` as it stood before beliefs were cached, kept as a test oracle:
for every sender profile it recomputes each signal's posterior with
`signal_posterior`, the receiver's tied best responses, and the sender
deviation check on per-profile dicts, the last two as plain loops that
share no code with the solver. Action values are folded with `left_sum`, as
the solver folds them. Also the sender's best signal against a fixed
receiver strategy, which no solver needs."""
import itertools

from ztsim.errors import EnumerationBudgetExceeded, ValidationError, left_sum
from ztsim.games import BeliefSystem, PBEResult, signal_posterior
from ztsim.games.signaling import DEFAULT_BUDGET, EQ_TOL, OFF_PATH_RULES, _classify


def find_pbe(spec, off_path_rule="uniform", budget=DEFAULT_BUDGET):
    if off_path_rule not in OFF_PATH_RULES:
        raise ValidationError(f"unknown off-path rule {off_path_rule!r}", "off_path_rule")
    required = len(spec.signals) ** len(spec.types) * len(spec.receiver_actions) ** len(
        spec.signals
    )
    if required > budget:
        raise EnumerationBudgetExceeded(required, budget)

    results = []
    for sender_combo in itertools.product(spec.signals, repeat=len(spec.types)):
        sender_map = dict(zip(spec.types, sender_combo))
        beliefs = BeliefSystem(
            tuple(
                (s, signal_posterior(spec, sender_map, s, off_path_rule))
                for s in spec.signals
            )
        )
        # Receiver action values per signal; the first action within EQ_TOL
        # of the best is picked, and any action within EQ_TOL of it ties.
        per_signal_ok = {}
        for s in spec.signals:
            values = [
                left_sum(p * spec.receiver_utility[(a, t)] for p, t in zip(beliefs.belief(s).probs, spec.types))
                for a in spec.receiver_actions
            ]
            picked = next(v for v in values if v >= max(values) - EQ_TOL)
            per_signal_ok[s] = [a for a, v in zip(spec.receiver_actions, values) if v >= picked - EQ_TOL]
        for receiver_combo in itertools.product(
            *(per_signal_ok[s] for s in spec.signals)
        ):
            receiver_map = dict(zip(spec.signals, receiver_combo))
            if _sender_deviation_exists(spec, sender_map, receiver_map):
                continue
            results.append(
                PBEResult(
                    sender_strategy=tuple((t, sender_map[t]) for t in spec.types),
                    receiver_strategy=tuple((s, receiver_map[s]) for s in spec.signals),
                    beliefs=beliefs,
                    classification=_classify(spec, sender_map),
                )
            )
    return results


def _sender_deviation_exists(spec, sender_map, receiver_map):
    for t in spec.types:
        if spec.prior[t] <= 0:
            continue
        current = spec.sender_utility[(t, sender_map[t], receiver_map[sender_map[t]])]
        for s in spec.signals:
            if spec.sender_utility[(t, s, receiver_map[s])] > current + EQ_TOL:
                return True
    return False


def sender_optimal_signal(spec, ptype, receiver_strategy):
    """(signal, value, tie flag) maximizing the sender's utility given the
    receiver's signal-contingent actions; first signal wins ties."""
    for s in spec.signals:
        if s not in receiver_strategy:
            raise ValidationError(f"missing signal {s!r}", "receiver_strategy")
    values = [
        spec.sender_utility[(ptype, s, receiver_strategy[s])] for s in spec.signals
    ]
    best = max(values)
    winners = [i for i, v in enumerate(values) if v >= best - EQ_TOL]
    return spec.signals[winners[0]], values[winners[0]], len(winners) > 1
