"""`find_pbe` computes each signal's belief and receiver best responses once
per key; it must return exactly the list the per-profile loop in
`tests/pbe_reference.py` returns: same order, strategies, classification,
`on_path` flags and belief probabilities to the bit. `verify_pbe` must agree
with that loop's sender deviation check."""
import itertools

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

import pbe_reference
from ztsim.errors import ValidationError
from ztsim.games import (
    BeliefSystem,
    PBEResult,
    SignalingGameSpec,
    find_pbe,
    receiver_best_response,
    signal_posterior,
    verify_pbe,
)
from ztsim.games import signaling
from ztsim.games.signaling import OFF_PATH_RULES


@st.composite
def signaling_games(draw):
    n_types = draw(st.integers(1, 3))
    n_signals = draw(st.integers(1, 3))
    n_actions = draw(st.integers(1, 3))
    types = [f"t{i}" for i in range(n_types)]
    signals = [f"s{i}" for i in range(n_signals)]
    actions = [f"a{i}" for i in range(n_actions)]
    # Zero weights make zero-prior types; small integers tie utilities.
    weights = [draw(st.sampled_from([0, 0, 1, 2, 3, 7])) for _ in types]
    if not any(weights):
        weights[0] = 1
    total = sum(weights)
    if draw(st.booleans()):
        cell = st.integers(-2, 2).map(float)
    else:
        cell = st.floats(-3, 3, allow_nan=False, allow_subnormal=False)
    return SignalingGameSpec(
        types=types,
        prior={t: w / total for t, w in zip(types, weights)},
        signals=signals,
        receiver_actions=actions,
        sender_utility={(t, s, a): draw(cell) for t in types for s in signals for a in actions},
        receiver_utility={(a, t): draw(cell) for a in actions for t in types},
    )


def _bits(values):
    return tuple(float(v).hex() for v in values)


def _assert_same_results(got, expected):
    assert len(got) == len(expected)
    for g, e in zip(got, expected):
        assert g.sender_strategy == e.sender_strategy
        assert g.receiver_strategy == e.receiver_strategy
        assert g.classification == e.classification
        assert [s for s, _ in g.beliefs.by_signal] == [s for s, _ in e.beliefs.by_signal]
        for (_, gb), (_, eb) in zip(g.beliefs.by_signal, e.beliefs.by_signal):
            assert gb.on_path == eb.on_path
            assert _bits(gb.probs) == _bits(eb.probs)


def _assert_verify_pbe_matches_reference(spec, rule):
    """On every sender profile, with the receiver's first best response at
    each signal, `verify_pbe` accepts exactly when the reference finds no
    profitable sender deviation."""
    for combo in itertools.product(spec.signals, repeat=len(spec.types)):
        sender_map = dict(zip(spec.types, combo))
        beliefs = BeliefSystem(
            tuple((s, signal_posterior(spec, sender_map, s, rule)) for s in spec.signals)
        )
        reply = tuple((s, receiver_best_response(spec, b)[0]) for s, b in beliefs.by_signal)
        kind = signaling._classify(spec, sender_map)
        profile = PBEResult(tuple(sender_map.items()), reply, beliefs, kind)
        deviates = pbe_reference._sender_deviation_exists(spec, sender_map, dict(reply))
        assert verify_pbe(spec, profile, rule) is not deviates


@pytest.mark.parametrize("rule", OFF_PATH_RULES)
@settings(deadline=None)
@given(spec=signaling_games())
def test_find_pbe_matches_per_profile_reference(spec, rule):
    expected = pbe_reference.find_pbe(spec, rule)
    got = find_pbe(spec, rule)
    _assert_same_results(got, expected)
    _assert_verify_pbe_matches_reference(spec, rule)
    event(f"equilibria: {len(got) if len(got) < 3 else '3+'}")


def test_honeypot_game_matches_reference(honeypot_spec):
    for rule in OFF_PATH_RULES:
        _assert_same_results(find_pbe(honeypot_spec, rule), pbe_reference.find_pbe(honeypot_spec, rule))


def test_each_belief_is_computed_once_per_key(monkeypatch, honeypot_spec):
    calls = []
    posterior = signaling.signal_posterior

    def counting(spec, sender_map, signal, rule):
        calls.append(signal)
        return posterior(spec, sender_map, signal, rule)

    monkeypatch.setattr(signaling, "signal_posterior", counting)
    find_pbe(honeypot_spec, "pessimistic")
    # Keys in visiting order: {real, honeypot} at weak, off path at hardened,
    # {real} at weak, {honeypot} at hardened, then off path at weak. The
    # per-profile loop calls it for 4 sender profiles x 2 signals.
    assert calls == ["weak", "hardened", "weak", "hardened", "weak"]


@pytest.mark.parametrize("rule", OFF_PATH_RULES)
def test_belief_systems_are_built_only_for_equilibrium_profiles(monkeypatch, honeypot_spec, rule):
    built = []
    belief_system = signaling.BeliefSystem

    def counting(by_signal):
        built.append(by_signal)
        return belief_system(by_signal)

    monkeypatch.setattr(signaling, "BeliefSystem", counting)
    results = find_pbe(honeypot_spec, rule)
    # 4 sender profiles; under "prior" the two pooling ones are equilibria.
    assert len(built) == len({r.sender_strategy for r in results}) == (2 if rule == "prior" else 0)
    _assert_same_results(results, pbe_reference.find_pbe(honeypot_spec, rule))


def test_zero_prior_sender_does_not_put_a_signal_on_path():
    types, signals, actions = ("real", "ghost"), ("quiet", "loud"), ("trust", "probe")
    payoffs = iter([2, 0, 1, 1, 0, 3, 3, 0])
    spec = SignalingGameSpec(
        types=types,
        prior={"real": 1.0, "ghost": 0.0},
        signals=signals,
        receiver_actions=actions,
        sender_utility={(t, s, a): next(payoffs) for t in types for s in signals for a in actions},
        receiver_utility={
            ("trust", "real"): 1.0,
            ("trust", "ghost"): -1.0,
            ("probe", "real"): 0.0,
            ("probe", "ghost"): 0.0,
        },
    )
    for rule in OFF_PATH_RULES:
        got = find_pbe(spec, rule)
        _assert_same_results(got, pbe_reference.find_pbe(spec, rule))
        assert got
        for res in got:
            sent = res.sender_signal("real")
            for s, belief in res.beliefs.by_signal:
                assert belief.on_path == (s == sent)


@pytest.mark.parametrize("field", ["types", "signals", "receiver_actions"])
def test_repeated_labels_rejected(field):
    labels = {"types": ("t", "u"), "signals": ("s", "z"), "receiver_actions": ("a", "b")}
    labels[field] = (labels[field][0],) * 2
    types, signals, actions = labels["types"], labels["signals"], labels["receiver_actions"]
    with pytest.raises(ValidationError) as info:
        SignalingGameSpec(
            types=types,
            prior={t: 1.0 / len(types) for t in types},
            signals=signals,
            receiver_actions=actions,
            sender_utility={(t, s, a): 0.0 for t in types for s in signals for a in actions},
            receiver_utility={(a, t): 0.0 for a in actions for t in types},
        )
    assert info.value.key == field
