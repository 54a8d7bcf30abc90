import numpy as np
import pytest

from ztsim.errors import ValidationError, ZeroProbabilityObservation
from ztsim.sim import (
    CHALLENGE,
    DENY,
    GRANT,
    EntitySpec,
    PolicyConfig,
    Profile,
    Scenario,
    compute_metrics,
    entity_rngs,
    generate_evidence,
    initial_state,
    policy_decide,
    run,
    sample_action,
    step,
)
from ztsim.trust import BehaviorModel, EvidenceModel, TrustState, TypeSpace, trust_score

POLICY = PolicyConfig(grant_threshold=0.7, deny_threshold=0.3)


def overt_profile():
    behavior = BehaviorModel(
        ("attack", "benign"),
        {
            ("trusted", "attack"): 0.1,
            ("trusted", "benign"): 0.9,
            ("malicious", "attack"): 1.0,
            ("malicious", "benign"): 0.0,
        },
    )
    evidence = EvidenceModel(
        ("alarm", "no_alarm"),
        {
            ("attack", "trusted", "alarm"): 0.1,
            ("attack", "trusted", "no_alarm"): 0.9,
            ("attack", "malicious", "alarm"): 1.0,
            ("attack", "malicious", "no_alarm"): 0.0,
            ("benign", "trusted", "alarm"): 0.05,
            ("benign", "trusted", "no_alarm"): 0.95,
            ("benign", "malicious", "alarm"): 0.5,
            ("benign", "malicious", "no_alarm"): 0.5,
        },
    )
    return Profile(behavior=behavior, evidence=evidence)


def attacker_scenario(horizon=3, seed=1):
    return Scenario(
        space=TypeSpace(("trusted", "malicious"), {"trusted"}),
        profiles={"overt": overt_profile()},
        entities=(
            EntitySpec(
                id="mallory",
                true_type="malicious",
                profile="overt",
                prior_sources=((0.5, 1.0),),
            ),
        ),
        policy=POLICY,
        horizon=horizon,
        seed=seed,
    )


def test_policy_decide_thresholds():
    assert policy_decide(0.9, POLICY) == GRANT
    assert policy_decide(0.7, POLICY) == GRANT  # grant boundary inclusive
    assert policy_decide(0.5, POLICY) == CHALLENGE
    assert policy_decide(0.3, POLICY) == CHALLENGE  # deny boundary inclusive for challenge
    assert policy_decide(0.2999, POLICY) == DENY


def test_policy_config_threshold_order():
    with pytest.raises(ValidationError):
        PolicyConfig(grant_threshold=0.3, deny_threshold=0.7)


def test_sample_action_degenerate():
    profile = overt_profile()
    rng = np.random.default_rng(0)
    assert all(
        sample_action(rng, profile.behavior, "malicious") == "attack" for _ in range(50)
    )


def test_sample_action_empirical_frequency():
    behavior = BehaviorModel(("a", "b"), {("t", "a"): 0.5, ("t", "b"): 0.5})
    rng = np.random.default_rng(42)
    draws = [sample_action(rng, behavior, "t") for _ in range(10_000)]
    assert draws.count("a") / len(draws) == pytest.approx(0.5, abs=0.02)


def test_sample_action_deterministic_given_seed():
    behavior = BehaviorModel(("a", "b"), {("t", "a"): 0.4, ("t", "b"): 0.6})
    rng_a, rng_b = np.random.default_rng(9), np.random.default_rng(9)
    a = [sample_action(rng_a, behavior, "t") for _ in range(100)]
    b = [sample_action(rng_b, behavior, "t") for _ in range(100)]
    assert a == b


def test_generate_evidence_degenerate_and_rate():
    profile = overt_profile()
    rng = np.random.default_rng(0)
    assert all(
        generate_evidence(rng, profile.evidence, "attack", "malicious") == "alarm"
        for _ in range(50)
    )
    rng = np.random.default_rng(3)
    draws = [
        generate_evidence(rng, profile.evidence, "benign", "trusted")
        for _ in range(10_000)
    ]
    assert draws.count("alarm") / len(draws) == pytest.approx(0.05, abs=0.01)


def test_step_deterministic_posterior():
    scenario = attacker_scenario()
    state = initial_state(scenario)
    rngs = entity_rngs(scenario)
    new_state, records = step(scenario, state, rngs)
    (rec,) = records
    # attack + alarm are forced: posterior trusted mass = 0.005 / 0.505
    assert rec.decision == CHALLENGE
    assert rec.action == "attack"
    assert rec.evidence == "alarm"
    assert rec.score_before == pytest.approx(0.5)
    assert rec.score_after == pytest.approx(0.005 / 0.505, abs=1e-9)
    assert new_state.tick == 1
    # input state is untouched
    assert state.tick == 0
    assert trust_score(state.trust["mallory"], scenario.space) == pytest.approx(0.5)


def test_step_denied_entity_only_attenuates():
    scenario = attacker_scenario()
    trace = run(scenario)
    denied = [r for r in trace.records if r.decision == DENY]
    assert denied
    for rec in denied:
        assert rec.action is None
        assert rec.evidence is None
        assert rec.score_after == pytest.approx(rec.score_before)  # decay_rate 0


def test_step_no_entities_advances_tick():
    scenario = Scenario(
        space=TypeSpace(("t",), {"t"}),
        profiles={"p": overt_profile()},
        entities=(),
        policy=POLICY,
        horizon=2,
        seed=0,
    )
    state = initial_state(scenario)
    new_state, records = step(scenario, state, {})
    assert records == []
    assert new_state.tick == 1


def test_run_horizon_one_matches_single_step():
    scenario = attacker_scenario(horizon=1)
    trace = run(scenario)
    state = initial_state(scenario)
    _, records = step(scenario, state, entity_rngs(scenario))
    assert trace.records == tuple(records)


def test_run_is_deterministic():
    scenario = attacker_scenario(horizon=5)
    assert run(scenario).records == run(scenario).records


def test_traces_compare_by_value():
    scenario = attacker_scenario(horizon=5)
    assert run(scenario) == run(scenario)
    assert run(scenario) != run(attacker_scenario(horizon=4))


def test_run_record_count():
    scenario = attacker_scenario(horizon=3)
    trace = run(scenario)
    assert len(trace.records) == 3  # horizon x entities, denied steps included


def test_run_entity_order_does_not_change_draws():
    base = attacker_scenario()
    extra = EntitySpec("zz-late", "trusted", "overt", ((0.9, 1.0),))
    reordered = Scenario(
        space=base.space,
        profiles=base.profiles,
        entities=(extra, base.entities[0]),
        policy=base.policy,
        horizon=base.horizon,
        seed=base.seed,
    )
    solo = {r.tick: r for r in run(base).records}
    mixed = {r.tick: r for r in run(reordered).records if r.entity_id == "mallory"}
    for tick, rec in solo.items():
        assert mixed[tick].score_after == rec.score_after
        assert mixed[tick].action == rec.action


def test_metrics_detection_time_and_lockout():
    scenario = attacker_scenario()
    metrics = compute_metrics(run(scenario))
    m = metrics.per_entity["mallory"]
    assert m.time_to_detection == 1
    assert not m.false_lockout
    assert m.final_score == pytest.approx(0.005 / 0.505, abs=1e-9)
    assert len(m.trajectory) == 3


def test_metrics_uninformative_scenario_flat_scores():
    behavior = BehaviorModel(("a",), {("t", "a"): 1.0, ("m", "a"): 1.0})
    evidence = EvidenceModel(("e",), {("a", "t", "e"): 1.0, ("a", "m", "e"): 1.0})
    scenario = Scenario(
        space=TypeSpace(("t", "m"), {"t"}),
        profiles={"flat": Profile(behavior, evidence)},
        entities=(EntitySpec("e1", "t", "flat", ((0.6, 1.0),)),),
        policy=PolicyConfig(0.9, 0.1),
        horizon=5,
        seed=0,
    )
    metrics = compute_metrics(run(scenario))
    m = metrics.per_entity["e1"]
    assert m.time_to_detection is None
    assert not m.false_lockout
    assert all(s == pytest.approx(0.6) for s in m.trajectory)


def test_metrics_false_lockout_flag():
    # trusted entity whose behavior looks malicious gets denied eventually
    behavior = BehaviorModel(
        ("attack", "benign"),
        {
            ("trusted", "attack"): 1.0,
            ("trusted", "benign"): 0.0,
            ("malicious", "attack"): 1.0,
            ("malicious", "benign"): 0.0,
        },
    )
    evidence = EvidenceModel(
        ("alarm", "quiet"),
        {
            ("attack", "trusted", "alarm"): 0.2,
            ("attack", "trusted", "quiet"): 0.8,
            ("attack", "malicious", "alarm"): 0.9,
            ("attack", "malicious", "quiet"): 0.1,
            ("benign", "trusted", "alarm"): 0.0,
            ("benign", "trusted", "quiet"): 1.0,
            ("benign", "malicious", "alarm"): 0.0,
            ("benign", "malicious", "quiet"): 1.0,
        },
    )
    scenario = Scenario(
        space=TypeSpace(("trusted", "malicious"), {"trusted"}),
        profiles={"p": Profile(behavior, evidence)},
        entities=(EntitySpec("victim", "trusted", "p", ((0.5, 1.0),)),),
        policy=PolicyConfig(0.95, 0.9),  # absurdly strict: denial is immediate
        horizon=3,
        seed=4,
    )
    metrics = compute_metrics(run(scenario))
    assert metrics.per_entity["victim"].false_lockout


def test_step_conservation_lifted():
    """One tick's expected after-score over all (action, evidence) outcomes,
    weighted by the true-type-free model probabilities, equals the before-score."""
    scenario = attacker_scenario()
    profile = scenario.profiles["overt"]
    from ztsim.trust import Observation, bayes_update

    state = TrustState({"trusted": 0.5, "malicious": 0.5})
    expected = 0.0
    for a in profile.behavior.actions:
        for e in profile.evidence.evidence_values:
            p = sum(
                profile.evidence.prob(e, a, t) * profile.behavior.prob(a, t) * state.mass[t]
                for t in scenario.space.types
            )
            if p <= 0:
                continue
            post = bayes_update(state, Observation(a, e), profile.behavior, profile.evidence)
            expected += p * trust_score(post, scenario.space)
    assert expected == pytest.approx(trust_score(state, scenario.space), abs=1e-9)


def test_zero_probability_observation_carries_entity_and_tick():
    behavior = BehaviorModel(("a",), {("t", "a"): 1.0, ("m", "a"): 1.0})
    # evidence "e1" is impossible under every type
    evidence = EvidenceModel(
        ("e0", "e1"),
        {("a", "t", "e0"): 1.0, ("a", "t", "e1"): 0.0,
         ("a", "m", "e0"): 1.0, ("a", "m", "e1"): 0.0},
    )
    scenario = Scenario(
        space=TypeSpace(("t", "m"), {"t"}),
        profiles={"p": Profile(behavior, evidence)},
        entities=(EntitySpec("e1", "t", "p", ((1.0, 1.0),)),),
        policy=PolicyConfig(0.9, 0.1),
        horizon=1,
        seed=0,
    )
    # degenerate prior on "t" plus a doctored state putting mass on "m" only,
    # so the forced (a, e0) pair has zero joint probability
    state = initial_state(scenario)
    broken = type(state)(tick=0, trust={"e1": TrustState({"t": 0.0, "m": 1.0})})
    bad_evidence = EvidenceModel(
        ("e0", "e1"),
        {("a", "t", "e0"): 1.0, ("a", "t", "e1"): 0.0,
         ("a", "m", "e0"): 0.0, ("a", "m", "e1"): 1.0},
    )
    scenario2 = Scenario(
        space=scenario.space,
        profiles={"p": Profile(behavior, bad_evidence)},
        entities=scenario.entities,
        policy=PolicyConfig(0.9, 0.0),  # score 0 still gets challenged, not denied
        horizon=1,
        seed=0,
    )
    with pytest.raises(ZeroProbabilityObservation) as info:
        step(scenario2, broken, entity_rngs(scenario2))
    assert info.value.entity_id == "e1"
    assert info.value.tick == 1
