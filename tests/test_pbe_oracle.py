"""`find_pbe` computes each block of sender profiles in one array pass; it
must return exactly the list the per-profile loop in
`tests/pbe_reference.py` returns: same order, strategies, classification,
`on_path` flags and belief probabilities to the bit. `verify_pbe` must agree
with that loop's sender deviation check."""
import itertools
import random

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

import pbe_reference
from ztsim.errors import ValidationError, left_sum
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
# The two signals' pessimistic off-path beliefs differ, so pairs off path at
# different signals must not share a belief.
@example(
    spec=SignalingGameSpec(
        types=("t0", "t1"),
        prior={"t0": 1.0, "t1": 0.0},
        signals=("s0", "s1"),
        receiver_actions=("a0", "a1"),
        sender_utility={
            k: float(k == ("t1", "s1", "a1")) for k in itertools.product(("t0", "t1"), ("s0", "s1"), ("a0", "a1"))
        },
        receiver_utility={("a0", "t0"): 0.0, ("a0", "t1"): 1.0, ("a1", "t0"): 1.0, ("a1", "t1"): 0.0},
    )
)
def test_find_pbe_matches_per_profile_reference(spec, rule):
    expected = pbe_reference.find_pbe(spec, rule)
    got = find_pbe(spec, rule)
    _assert_same_results(got, expected)
    _assert_verify_pbe_matches_reference(spec, rule)
    event(f"equilibria: {len(got) if len(got) < 3 else '3+'}")


def test_honeypot_game_matches_reference(honeypot_spec):
    for rule in OFF_PATH_RULES:
        _assert_same_results(find_pbe(honeypot_spec, rule), pbe_reference.find_pbe(honeypot_spec, rule))


def _every_profile_game(prior):
    """One receiver action and a constant sender utility: every sender
    profile is an equilibrium, so the results show every profile's beliefs."""
    types, signals = tuple(prior), ("s0", "s1", "s2")
    return SignalingGameSpec(
        types=types,
        prior=prior,
        signals=signals,
        receiver_actions=("a",),
        sender_utility={(t, s, "a"): 1.0 for t in types for s in signals},
        receiver_utility={("a", t): float(i) for i, t in enumerate(types)},
    )


@pytest.mark.parametrize("rule", OFF_PATH_RULES)
def test_beliefs_off_path_once_per_signal_and_on_path_as_signal_posterior(monkeypatch, rule):
    spec = _every_profile_game({"t0": 0.5, "t1": 0.0, "t2": 0.2, "t3": -0.0, "t4": 0.3})
    calls = []
    off_path_belief = signaling.off_path_belief

    def counting(spec, signal, rule):
        calls.append(signal)
        return off_path_belief(spec, signal, rule)

    monkeypatch.setattr(signaling, "off_path_belief", counting)
    results = find_pbe(spec, rule)
    assert sorted(calls) == list(spec.signals)
    monkeypatch.undo()
    assert len(results) == 3**5
    on_path = set()
    for r in results:
        sender_map = dict(r.sender_strategy)
        for s, belief in r.beliefs.by_signal:
            expected = signal_posterior(spec, sender_map, s, rule)
            assert belief.on_path == expected.on_path
            assert _bits(belief.probs) == _bits(expected.probs)
            if belief.on_path:
                on_path.add(frozenset(t for t in ("t0", "t2", "t4") if sender_map[t] == s))
    # Every non-empty set of the three positive-prior types was on path.
    assert len(on_path) == 7


def _pessimistic_per_signal(spec, signal):
    """The pessimistic off-path belief with every point belief's best
    response recomputed at `signal`, by a plain loop over the actions."""
    n, best = len(spec.types), None
    for i in range(n):
        point = tuple(1.0 if j == i else 0.0 for j in range(n))
        values = [
            left_sum(p * spec.receiver_utility[(a, t)] for p, t in zip(point, spec.types))
            for a in spec.receiver_actions
        ]
        action = next(a for a, v in zip(spec.receiver_actions, values) if v >= max(values) - signaling.EQ_TOL)
        worst_gain = max(spec.sender_utility[(t, signal, action)] for t in spec.types)
        if best is None or worst_gain < best[0] - signaling.EQ_TOL:
            best = (worst_gain, point)
    return best[1]


def test_pessimistic_rule_computes_point_replies_once_per_spec(monkeypatch):
    rng = random.Random(11)
    specs = [_tie_game(rng, rng.randint(3, 4), rng.randint(2, 3), rng.randint(2, 3)) for _ in range(30)]
    expected = [[_pessimistic_per_signal(spec, s) for s in spec.signals] for spec in specs]
    calls = []
    replies = signaling._replies

    def counting(probs, receiver):
        calls.append(np.array_equal(probs, np.eye(len(spec.types))))
        return replies(probs, receiver)

    monkeypatch.setattr(signaling, "_replies", counting)
    for spec, beliefs in zip(specs, expected):
        del calls[:]
        results = find_pbe(spec, "pessimistic")
        assert sum(calls) == 1  # one call on the identity: the point beliefs
        assert [signaling.off_path_belief(spec, s, "pessimistic") for s in spec.signals] == beliefs
        assert sum(calls) == 1
        for r in results:
            for s, belief in r.beliefs.by_signal:
                if not belief.on_path:
                    assert belief.probs == beliefs[spec.signals.index(s)]


def _tie_game(rng, n_types, n_signals, n_actions):
    """Small-integer, signed-zero and EQ_TOL-apart payoffs, so replies and
    deviations tie; one type has prior 0.0 and one -0.0."""
    types = [f"t{i}" for i in range(n_types)]
    signals = [f"s{i}" for i in range(n_signals)]
    actions = [f"a{i}" for i in range(n_actions)]
    weights = [rng.choice([1, 2, 3]) for _ in types]
    prior = {t: w / sum(weights[2:]) for t, w in zip(types[2:], weights[2:])}
    prior |= {types[0]: -0.0, types[1]: 0.0}
    tol = signaling.EQ_TOL
    sender = [-0.0, 0.0, tol, 1.0, 1.0 + tol, 2.0]
    receiver = [-0.0, 0.0, -1.0, 1.0, 2.0]
    return SignalingGameSpec(
        types=types,
        prior=prior,
        signals=signals,
        receiver_actions=actions,
        sender_utility={(t, s, a): rng.choice(sender) for t in types for s in signals for a in actions},
        receiver_utility={(a, t): rng.choice(receiver) for a in actions for t in types},
    )


@pytest.mark.parametrize("rule", OFF_PATH_RULES)
def test_blocks_of_seven_pairs_match_reference(monkeypatch, rule):
    monkeypatch.setattr(signaling, "_BLOCK", 7)  # 2 profiles per block at 3 signals
    rng = random.Random(24)
    found = 0
    for shape in [(4, 3, 2)] * 12 + [(4, 3, 3)] * 6 + [(5, 3, 2)] * 2:
        spec = _tie_game(rng, *shape)
        expected = pbe_reference.find_pbe(spec, rule)
        _assert_same_results(find_pbe(spec, rule), expected)
        found += len(expected)
    assert found


def test_blocks_of_seven_pairs_keep_signed_zeros_and_boundary_gains(monkeypatch):
    """Two cases pinned by hand: an on-path belief keeps -0.0 at a type with
    prior -0.0 that does not send the signal, and a sender deviation that
    gains exactly EQ_TOL is no gain."""
    monkeypatch.setattr(signaling, "_BLOCK", 7)
    tol = signaling.EQ_TOL
    types, signals, actions = ("ghost", "real", "bot"), ("s0", "s1", "s2"), ("a0", "a1")
    sender = {(t, s, a): 0.0 for t in types for s in signals for a in actions}
    sender[("real", "s2", "a0")] = tol
    spec = SignalingGameSpec(
        types=types,
        prior={"ghost": -0.0, "real": 0.5, "bot": 0.5},
        signals=signals,
        receiver_actions=actions,
        sender_utility=sender,
        receiver_utility={(a, t): float(a == "a0" and t != "ghost") for a in actions for t in types},
    )
    results = find_pbe(spec, "prior")
    _assert_same_results(results, pbe_reference.find_pbe(spec, "prior"))
    pooled = [r for r in results if dict(r.sender_strategy) == {"ghost": "s1", "real": "s0", "bot": "s0"}]
    assert len(pooled) == 1
    assert _bits(pooled[0].beliefs.belief("s0").probs) == _bits((-0.0, 0.5, 0.5))


def test_replies_tie_within_eq_tol_of_the_picked_reply():
    """The receiver picks the first action within EQ_TOL of the best, and an
    action within EQ_TOL of that pick ties with it, though it lies more than
    EQ_TOL below the best."""
    tol, actions = signaling.EQ_TOL, ("a0", "a1", "a2")
    spec = SignalingGameSpec(
        types=("t",),
        prior={"t": 1.0},
        signals=("s",),
        receiver_actions=actions,
        sender_utility={("t", "s", a): 0.0 for a in actions},
        receiver_utility={("a0", "t"): 1.0, ("a1", "t"): 1.0 + 0.6 * tol, ("a2", "t"): 1.0 - 0.6 * tol},
    )
    assert receiver_best_response(spec, (1.0,)) == ("a0", 1.0, True)
    results = find_pbe(spec)
    _assert_same_results(results, pbe_reference.find_pbe(spec))
    assert [r.receiver_action("s") for r in results] == list(actions)
    assert all(verify_pbe(spec, r) for r in results)


def test_one_block_and_many_blocks_agree(monkeypatch):
    rng = random.Random(4096)
    spec = _tie_game(rng, 6, 4, 4)  # 4096 sender profiles: one block of 16384 pairs
    assert len(spec.signals) ** len(spec.types) * len(spec.signals) <= signaling._BLOCK
    one = find_pbe(spec, "pessimistic", budget=10**7)
    monkeypatch.setattr(signaling, "_BLOCK", 100)
    many = find_pbe(spec, "pessimistic", budget=10**7)
    assert one
    assert repr(many) == repr(one)


def test_more_live_types_than_mask_bits_in_an_int64():
    types = [f"t{i}" for i in range(70)]
    spec = SignalingGameSpec(
        types=types,
        prior={t: 1 / 70 for t in types},
        signals=("only",),
        receiver_actions=("a", "b"),
        sender_utility={(t, "only", a): 0.0 for t in types for a in "ab"},
        receiver_utility={(a, t): float(i % 3) if a == "a" else 1.0 for i, t in enumerate(types) for a in "ab"},
    )
    for rule in OFF_PATH_RULES:
        got = find_pbe(spec, rule)
        _assert_same_results(got, pbe_reference.find_pbe(spec, rule))
        assert [r.receiver_action("only") for r in got] == ["b"]


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
