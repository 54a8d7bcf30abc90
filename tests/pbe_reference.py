"""`find_pbe` as it stood before beliefs were cached, kept as a test oracle:
for every sender profile it recomputes each signal's posterior with
`signal_posterior`, the receiver's tied best responses, and the sender
deviation check on per-profile dicts. Action values are folded with
`left_sum`, as the solver folds them. Also the sender's best signal against
a fixed receiver strategy, which no solver needs."""
import itertools

from ztsim.errors import EnumerationBudgetExceeded, ValidationError, left_sum
from ztsim.games import BeliefSystem, PBEResult, receiver_best_response, signal_posterior
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
        # Receiver best-response values per signal, allowing any tied action.
        per_signal_ok = {}
        for s in spec.signals:
            _, best_val, _ = receiver_best_response(spec, beliefs.belief(s))
            ok = []
            for a in spec.receiver_actions:
                val = left_sum(
                    p * spec.receiver_utility[(a, t)]
                    for p, t in zip(beliefs.belief(s).probs, spec.types)
                )
                if val >= best_val - EQ_TOL:
                    ok.append(a)
            per_signal_ok[s] = ok
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
