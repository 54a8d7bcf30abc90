import dataclasses

import pytest

from pbe_reference import sender_optimal_signal
from ztsim.errors import EnumerationBudgetExceeded, ValidationError
from ztsim.games import (
    BayesianGameSpec,
    Belief,
    MixedStrategy,
    SignalingGameSpec,
    find_pbe,
    off_path_belief,
    receiver_best_response,
    signal_posterior,
    verify_pbe,
)
from ztsim.trust import BehaviorModel, TrustState


def test_signal_posterior_hand_bayes(honeypot_spec):
    strategy = {"real": {"weak": 0.2, "hardened": 0.8}, "honeypot": {"weak": 0.9, "hardened": 0.1}}
    belief = signal_posterior(honeypot_spec, strategy, "weak")
    # p(honeypot|weak) = 0.9*0.3 / (0.9*0.3 + 0.2*0.7) = 0.27/0.41
    assert belief.on_path
    assert belief.probs[1] == pytest.approx(0.27 / 0.41, abs=1e-4)


def test_signal_posterior_uninformative_signal_returns_prior(honeypot_spec):
    strategy = {"real": {"weak": 0.5, "hardened": 0.5}, "honeypot": {"weak": 0.5, "hardened": 0.5}}
    belief = signal_posterior(honeypot_spec, strategy, "weak")
    assert belief.probs == pytest.approx((0.7, 0.3))
    assert belief.on_path


def test_signal_posterior_off_path_uses_rule(honeypot_spec):
    strategy = {"real": "weak", "honeypot": "weak"}
    belief = signal_posterior(honeypot_spec, strategy, "hardened", off_path_rule="uniform")
    assert not belief.on_path
    assert belief.probs == pytest.approx((0.5, 0.5))
    belief_prior = signal_posterior(honeypot_spec, strategy, "hardened", off_path_rule="prior")
    assert belief_prior.probs == pytest.approx((0.7, 0.3))


def test_signal_posterior_unknown_signal(honeypot_spec):
    with pytest.raises(ValidationError) as info:
        signal_posterior(honeypot_spec, {"real": "weak", "honeypot": "weak"}, "nope")
    assert str(info.value) == "signal: undeclared label 'nope'"


def test_off_path_pessimistic_picks_deterring_type(honeypot_spec):
    # point belief on honeypot makes the receiver withdraw; the best sender
    # payoff at withdraw (1.0) is below the best at attack (2.0)
    belief = off_path_belief(honeypot_spec, "hardened", "pessimistic")
    assert belief == (0.0, 1.0)


def test_receiver_best_response_prior_belief(honeypot_spec):
    action, value, tie = receiver_best_response(honeypot_spec, (0.7, 0.3))
    assert action == "attack"
    assert value == pytest.approx(0.5)
    assert not tie


def test_receiver_best_response_degenerate_belief(honeypot_spec):
    action, value, tie = receiver_best_response(honeypot_spec, (0.0, 1.0))
    assert action == "withdraw"
    assert value == pytest.approx(0.0)


def test_receiver_best_response_forced_tie():
    spec = SignalingGameSpec(
        types=("t",),
        prior={"t": 1.0},
        signals=("s",),
        receiver_actions=("a1", "a2"),
        sender_utility={("t", "s", "a1"): 0.0, ("t", "s", "a2"): 0.0},
        receiver_utility={("a1", "t"): 1.0, ("a2", "t"): 1.0},
    )
    action, value, tie = receiver_best_response(spec, (1.0,))
    assert action == "a1"
    assert tie


def test_sender_optimal_signal_examples(honeypot_spec):
    receiver = {"weak": "attack", "hardened": "withdraw"}
    assert sender_optimal_signal(honeypot_spec, "real", receiver)[:2] == ("hardened", 1.0)
    assert sender_optimal_signal(honeypot_spec, "honeypot", receiver)[:2] == ("weak", 2.0)


def test_sender_optimal_signal_tie_flag(honeypot_spec):
    receiver = {"weak": "attack", "hardened": "attack"}
    signal, value, tie = sender_optimal_signal(honeypot_spec, "real", receiver)
    assert signal == "weak"  # first by declared order
    assert value == pytest.approx(-2.0)
    assert tie


def test_find_pbe_honeypot_prior_off_path(honeypot_spec):
    results = find_pbe(honeypot_spec, off_path_rule="prior")
    assert len(results) == 2
    assert {r.classification for r in results} == {"pooling"}
    pooled_signals = {r.sender_signal("real") for r in results}
    assert pooled_signals == {"weak", "hardened"}
    for r in results:
        # attacker attacks on path; value 0.5 > 0 under the prior belief
        assert r.receiver_action(r.sender_signal("real")) == "attack"
        for s in honeypot_spec.signals:
            on_path = s == r.sender_signal("real")
            assert r.beliefs.belief(s).on_path == on_path
            if not on_path:
                assert r.beliefs.belief(s).probs == pytest.approx((0.7, 0.3))
        assert verify_pbe(honeypot_spec, r, off_path_rule="prior")


def test_find_pbe_no_separating_in_honeypot(honeypot_spec):
    for rule in ("uniform", "prior", "pessimistic"):
        assert all(
            r.classification != "separating"
            for r in find_pbe(honeypot_spec, off_path_rule=rule)
        )


def test_find_pbe_receiver_type_independent_utilities():
    # receiver indifferent to type: every sender strategy pairs with the
    # dominant receiver action into a PBE
    spec = SignalingGameSpec(
        types=("t1", "t2"),
        prior={"t1": 0.5, "t2": 0.5},
        signals=("s1", "s2"),
        receiver_actions=("go", "stop"),
        sender_utility={
            (t, s, a): 1.0 for t in ("t1", "t2") for s in ("s1", "s2") for a in ("go", "stop")
        },
        receiver_utility={("go", "t1"): 1.0, ("go", "t2"): 1.0, ("stop", "t1"): 0.0, ("stop", "t2"): 0.0},
    )
    results = find_pbe(spec)
    assert len(results) == 4  # every sender pure strategy, receiver always "go"
    for r in results:
        assert all(a == "go" for _, a in r.receiver_strategy)
        assert verify_pbe(spec, r)


def test_find_pbe_single_sender_type():
    spec = SignalingGameSpec(
        types=("only",),
        prior={"only": 1.0},
        signals=("s1", "s2"),
        receiver_actions=("a", "b"),
        sender_utility={
            ("only", "s1", "a"): 2.0,
            ("only", "s1", "b"): 0.0,
            ("only", "s2", "a"): 1.0,
            ("only", "s2", "b"): 0.0,
        },
        receiver_utility={("a", "only"): 1.0, ("b", "only"): 0.0},
    )
    results = find_pbe(spec)
    assert results
    for r in results:
        on_path = r.sender_signal("only")
        assert r.beliefs.belief(on_path).probs == (1.0,)
        assert r.receiver_action(on_path) == "a"
        # the sender never settles on a signal it would abandon
        assert r.sender_signal("only") == "s1" or r.receiver_action("s1") != "a"


def test_find_pbe_budget_error(honeypot_spec):
    with pytest.raises(EnumerationBudgetExceeded):
        find_pbe(honeypot_spec, budget=3)


def test_find_pbe_budget_boundary(honeypot_spec):
    required = 2**2 * 2**2  # signals^types * actions^signals
    assert find_pbe(honeypot_spec, "prior", budget=required) == find_pbe(honeypot_spec, "prior")
    with pytest.raises(EnumerationBudgetExceeded) as info:
        find_pbe(honeypot_spec, budget=required - 1)
    assert info.value.required == required


def test_verify_pbe_rejects_tampered_result(honeypot_spec):
    results = find_pbe(honeypot_spec, off_path_rule="prior")
    good = results[0]
    bad = type(good)(
        sender_strategy=good.sender_strategy,
        receiver_strategy=tuple((s, "withdraw") for s, _ in good.receiver_strategy),
        beliefs=good.beliefs,
        classification=good.classification,
    )
    assert not verify_pbe(honeypot_spec, bad, off_path_rule="prior")


def _pooling_on_weak(spec):
    result = find_pbe(spec, off_path_rule="prior")[0]
    assert result.sender_strategy == (("real", "weak"), ("honeypot", "weak"))
    assert verify_pbe(spec, result, off_path_rule="prior")
    return result


@pytest.mark.parametrize(
    "change",
    [
        {"receiver_strategy": (("weak", "attack"),)},
        {"receiver_strategy": (("weak", "attack"), ("hardened", "attack"), ("loud", "attack"))},
        {"receiver_strategy": (("weak", "attack"), ("hardened", "probe"))},
        {"sender_strategy": (("real", "loud"), ("honeypot", "weak"))},
        {"sender_strategy": (("real", "weak"),)},
        {"sender_strategy": (("real", "weak"), ("honeypot", "weak"), ("decoy", "weak"))},
    ],
    ids=[
        "receiver_omits_signal",
        "receiver_names_undeclared_signal",
        "undeclared_action",
        "sender_names_undeclared_signal",
        "sender_omits_type",
        "undeclared_type",
    ],
)
def test_verify_pbe_rejects_malformed_result(honeypot_spec, change):
    bad = dataclasses.replace(_pooling_on_weak(honeypot_spec), **change)
    assert verify_pbe(honeypot_spec, bad, off_path_rule="prior") is False


def test_verify_pbe_rejects_result_without_a_belief_at_a_signal(honeypot_spec):
    good = _pooling_on_weak(honeypot_spec)
    beliefs = dataclasses.replace(good.beliefs, by_signal=good.beliefs.by_signal[:1])
    bad = dataclasses.replace(good, beliefs=beliefs)
    assert verify_pbe(honeypot_spec, bad, off_path_rule="prior") is False


def test_verify_pbe_rejects_wrong_classification(honeypot_spec):
    good = _pooling_on_weak(honeypot_spec)
    for label in ("separating", "hybrid"):
        bad = dataclasses.replace(good, classification=label)
        assert verify_pbe(honeypot_spec, bad, off_path_rule="prior") is False


def test_spec_validation():
    with pytest.raises(ValidationError):
        SignalingGameSpec(
            types=("t",),
            prior={"t": 0.5},
            signals=("s",),
            receiver_actions=("a",),
            sender_utility={("t", "s", "a"): 0.0},
            receiver_utility={("a", "t"): 0.0},
        )


def _four_type_spec(prior):
    types = ("t0", "t1", "t2", "t3")
    return SignalingGameSpec(
        types=types,
        prior=dict(zip(types, prior)),
        signals=("s",),
        receiver_actions=("a",),
        sender_utility={(t, "s", "a"): 0.0 for t in types},
        receiver_utility={("a", t): 0.0 for t in types},
    )


_FOUR = ("t0", "t1", "t2", "t3")


def _four_type_bayesian_spec(prior):
    return BayesianGameSpec(
        players=("p",),
        types={"p": _FOUR},
        actions={"p": ("a",)},
        prior={(t,): p for t, p in zip(_FOUR, prior)},
        utilities={"p": {(("a",), (t,)): 0.0 for t in _FOUR}},
    )


_UNIFORM = _four_type_spec([0.25] * 4)
_TOTAL_CHECKS = {
    "prior": _four_type_spec,
    "bayesian_prior": _four_type_bayesian_spec,
    "belief": lambda probs: Belief(tuple(probs), on_path=True),
    "best_response": lambda probs: receiver_best_response(_UNIFORM, probs),
    "mixed_strategy": lambda probs: MixedStrategy(tuple(probs)),
    "trust_state": lambda probs: TrustState(dict(zip(_FOUR, probs))),
    "behavior_row": lambda probs: BehaviorModel(_FOUR, {("T", a): p for a, p in zip(_FOUR, probs)}),
}


@pytest.mark.parametrize("check", sorted(_TOTAL_CHECKS))
@pytest.mark.parametrize(
    "probs, accepted",
    [
        # Folded left to right: 0.9999999989999999, rejected; 3.12's `sum` gives 0.999999999.
        ([0.2131699555314425, 0.480789715324906, 0.13554078057328256, 0.17049954757036895], False),
        # Folded: 0.999999999, accepted; 3.12's `sum` gives 0.9999999989999999.
        ([0.09317390507685908, 0.4653592647194387, 0.08100978174324754, 0.3604570474604546], True),
    ],
    ids=["rejected", "accepted"],
)
def test_probability_totals_fold_left_to_right_at_the_bound(check, probs, accepted):
    """Each check totals with `left_sum`, so it decides alike on every Python,
    though builtin `sum` compensates from 3.12 on."""
    if accepted:
        _TOTAL_CHECKS[check](probs)
    else:
        with pytest.raises(ValidationError, match="sum"):
            _TOTAL_CHECKS[check](probs)


@pytest.mark.parametrize("build", [
    lambda prior: _four_type_spec(prior).prior["t3"],
    lambda prior: _four_type_bayesian_spec(prior).prior[("t3",)],
], ids=["signaling", "bayesian"])
def test_prior_entries_just_below_zero(build):
    """A prior entry within PROB_TOL below 0 is stored as 0.0; one further
    out is rejected, naming the entry."""
    assert repr(build([0.5, 0.25, 0.25 + 1e-10, -1e-10])) == "0.0"
    with pytest.raises(ValidationError, match=r"prior\.\S*t3\S*: must lie in \[0, 1\], got -2e-09"):
        build([0.5, 0.25, 0.25 + 2e-9, -2e-9])


_POOL_WEAK = {"real": "weak", "honeypot": "weak"}


@pytest.mark.parametrize(
    "strategy, message",
    [
        ({"real": {"weak": 0.9, "hardened": 0.9}, "honeypot": {"weak": 0.9, "hardened": 0.9}},
         "sender_strategy.real: sums to 1.8, expected 1"),
        ({"real": {"weak": 0.5, "typo": 0.5}, "honeypot": "weak"},
         "sender_strategy.real.typo: undeclared label 'typo'"),
        ({"real": "typo", "honeypot": "weak"}, "sender_strategy.real.typo: undeclared label 'typo'"),
        ({"real": {"weak": 1.5, "hardened": -0.5}, "honeypot": "weak"},
         "sender_strategy.real.weak: must lie in [0, 1], got 1.5"),
        ({"real": "weak"}, "sender_strategy.honeypot: missing"),
        ({**_POOL_WEAK, "decoy": "weak"}, "sender_strategy.decoy: undeclared label 'decoy'"),
        (["weak", "weak"], "sender_strategy: expected a mapping"),
        ({"real": ["weak"], "honeypot": "weak"}, "sender_strategy.real: expected a mapping"),
    ],
    ids=["row_total", "mixed_undeclared_signal", "pure_undeclared_signal", "entry_above_one",
         "missing_type", "undeclared_type", "strategy_not_a_mapping", "row_not_a_mapping"],
)
def test_signal_posterior_rejects_sender_strategy_naming_the_entry(honeypot_spec, strategy, message):
    """Each row is a `distribution` over the declared signals, in a `table`
    over the declared types: a bad row is never read as a prior or as off
    path."""
    with pytest.raises(ValidationError) as info:
        signal_posterior(honeypot_spec, strategy, "weak")
    assert str(info.value) == message


@pytest.mark.parametrize(
    "mixed, pure",
    [
        ({"real": {"weak": 1.0}, "honeypot": {"weak": 0, "hardened": 1}}, {"real": "weak", "honeypot": "hardened"}),
        ({"real": {"weak": 1}, "honeypot": {"hardened": 0.0, "weak": 1.0}}, _POOL_WEAK),
    ],
    ids=["separating", "pooling"],
)
def test_signal_posterior_reads_point_rows_as_pure_rows(honeypot_spec, mixed, pure):
    """A row may leave signals out, and a point row gives what the pure row
    it equals gives, on path and off."""
    for signal in honeypot_spec.signals:
        got = signal_posterior(honeypot_spec, mixed, signal, "prior")
        assert got == signal_posterior(honeypot_spec, pure, signal, "prior")


def test_sender_rows_hold_to_prob_tol(honeypot_spec):
    """A row entry within PROB_TOL below 0 weighs exactly 0, and a row total
    further than PROB_TOL from 1 is rejected."""
    near = {"real": {"weak": 0.5, "hardened": 0.5 + 5e-10}, "honeypot": {"weak": -5e-10, "hardened": 1.0}}
    assert signal_posterior(honeypot_spec, near, "weak").probs == (1.0, 0.0)
    far = {"real": {"weak": 0.5, "hardened": 0.5 + 2e-9}, "honeypot": "hardened"}
    with pytest.raises(ValidationError, match=r"^sender_strategy\.real: sums to 1\.00000000"):
        signal_posterior(honeypot_spec, far, "weak")


@pytest.mark.parametrize(
    "call",
    [
        lambda spec: find_pbe(spec, off_path_rule="optimistic"),
        lambda spec: signal_posterior(spec, _POOL_WEAK, "weak", off_path_rule="optimistic"),
        lambda spec: signal_posterior(spec, _POOL_WEAK, "hardened", off_path_rule="optimistic"),
        lambda spec: verify_pbe(spec, find_pbe(spec, "prior")[0], off_path_rule="optimistic"),
        lambda spec: off_path_belief(spec, "weak", "optimistic"),
    ],
    ids=["find_pbe", "signal_posterior_on_path", "signal_posterior_off_path", "verify_pbe", "off_path_belief"],
)
def test_unknown_off_path_rule_is_rejected_by_one_check(honeypot_spec, call):
    with pytest.raises(ValidationError) as info:
        call(honeypot_spec)
    assert info.value.key == "off_path_rule"
    assert info.value.reason == "undeclared label 'optimistic'"


def test_find_pbe_checks_the_budget_before_the_off_path_rule(honeypot_spec):
    with pytest.raises(EnumerationBudgetExceeded):
        find_pbe(honeypot_spec, off_path_rule="optimistic", budget=3)


@pytest.mark.parametrize(
    "belief, message",
    [((1.0,), "belief.1: missing"), ((0.5, 0.25, 0.25), "belief.2: undeclared label 2")],
    ids=["too_few", "too_many"],
)
def test_receiver_best_response_takes_one_probability_per_type(honeypot_spec, belief, message):
    with pytest.raises(ValidationError) as info:
        receiver_best_response(honeypot_spec, belief)
    assert str(info.value) == message
    with pytest.raises(ValidationError, match=message):
        receiver_best_response(honeypot_spec, Belief(belief, on_path=True))
