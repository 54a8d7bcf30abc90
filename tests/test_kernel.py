"""The compiled kernel against its reference: `step` folded over the horizon
through the labeled `trust.py` functions, with the draws of `entity_rngs`.
Both share `trust.py`'s row primitives, so this checks lanes, draws and
decisions; `tests/test_trust.py` checks the arithmetic against
`tests/trust_reference.py`.

Records, emitted trace text, metrics and final states must be bit-identical,
and a run that raises must raise the same exception class with the same tick,
entity and message. Sweeps must equal their seeds run one at a time, including
where one seed raises.
"""
import io
import json
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ztsim import sim
from ztsim.cli import EXIT_RUNTIME, main
from ztsim.errors import ValidationError, ZeroProbabilityObservation, ZtsimError
from ztsim.scenario import serialize_scenario
from ztsim.sim import (
    DENY,
    EntitySpec,
    PolicyConfig,
    Profile,
    Scenario,
    compute_metrics,
    entity_rngs,
    initial_state,
    run,
    run_seeds,
    step,
)
from ztsim.trace import emit_trace, metrics_to_dict
from ztsim.trust import BehaviorModel, EvidenceModel, TrustState, TypeSpace


def fold(scenario, seed):
    """(records, final state) of `step` folded over the horizon."""
    rngs = entity_rngs(scenario, seed)
    state = initial_state(scenario)
    records = []
    while state.tick < scenario.horizon:
        state, recs = step(scenario, state, rngs)
        records.extend(recs)
    return records, state


def reference_metrics(scenario, records):
    """The per-entity metrics document, filtered record by record."""
    out = {}
    for e in scenario.entities:
        recs = [r for r in records if r.entity_id == e.id]
        trajectory = [r.score_after for r in recs]
        out[e.id] = {
            "time_to_detection": next(
                (r.tick for r in recs if r.score_after < scenario.policy.deny_threshold), None
            ),
            "false_lockout": e.true_type in scenario.space.trusted
            and any(r.decision == DENY for r in recs),
            "final_score": trajectory[-1],
            "trajectory": trajectory,
        }
    return out


def text(records):
    sink = io.StringIO()
    emit_trace(records, sink)
    return sink.getvalue()


def record_keys(records):
    return [
        (r.tick, r.entity_id, r.decision, type(r.action), r.action, type(r.evidence),
         r.evidence, repr(r.score_before), repr(r.score_after))
        for r in records
    ]


def state_keys(state):
    return state.tick, [
        (eid, ts.timestamp, [(t, repr(p)) for t, p in ts.mass.items()])
        for eid, ts in state.trust.items()
    ]


def error_key(exc):
    return type(exc), getattr(exc, "tick", None), getattr(exc, "entity_id", None), str(exc)


def reference_outcome(scenario, seed):
    try:
        records, final = fold(scenario, seed)
    except ZtsimError as exc:
        return "error", error_key(exc)
    metrics = reference_metrics(scenario, records)
    return "ok", (record_keys(records), text(records), json.dumps(metrics), state_keys(final))


def kernel_keys(scenario, trace):
    metrics = metrics_to_dict(compute_metrics(trace))["entities"]
    return record_keys(trace.records), text(trace), json.dumps(metrics), state_keys(trace.final)


def kernel_outcome(scenario, seed):
    try:
        trace = run(scenario, seed)
    except ZtsimError as exc:
        return "error", error_key(exc)
    return "ok", kernel_keys(scenario, trace)


def sweep_outcomes(scenario, seeds):
    """Per-seed outcomes of run_seeds, up to and including a raising seed."""
    out = []
    try:
        for trace in run_seeds(scenario, seeds):
            out.append(("ok", kernel_keys(scenario, trace)))
    except ZtsimError as exc:
        out.append(("error", error_key(exc)))
    return out


def reference_sweep(scenario, seeds):
    out = []
    for seed in seeds:
        out.append(reference_outcome(scenario, seed))
        if out[-1][0] == "error":
            break
    return out


# Labels of distinct hashes, strings and not: 1 and True, or 0 and 0.0,
# would collide in a model's tables.
LABELS = ("a", "b", "é", 7, 2.5, "x y")
PROBS_WEIGHTS = (0, 0, 1, 2, 5)


@st.composite
def prob_row(draw, n):
    """A distribution over n categories as a document could give it: zeros,
    an entry of -1e-10 that PROB_TOL admits (stored clamped to 0, so running
    sums always rise), and sums off 1 by up to 5e-10."""
    weights = draw(st.lists(st.sampled_from(PROBS_WEIGHTS), min_size=n, max_size=n))
    if not any(weights):
        weights[draw(st.integers(0, n - 1))] = 1
    total = sum(weights)
    row = [w / total for w in weights]
    tweak = draw(st.sampled_from(("plain", "negative", "short")))
    if tweak == "negative" and n >= 2:
        i, j = draw(st.permutations(range(n)))[:2]
        row[j] += row[i] + 1e-10
        row[i] = -1e-10
    elif tweak == "short":
        j = max(range(n), key=lambda k: row[k])
        row[j] -= 5e-10
    return row


@st.composite
def scenarios(draw):
    # Numpy sums a row left to right up to 7 columns and pairwise from 8, so
    # 9 types checks that the fold and the kernel share one summation.
    n_types = draw(st.sampled_from((1, 2, 3, 4, 9)))
    types = ("s", "t", 3, "u", "v", 5, "w", "x", "y")[:n_types]
    trusted = draw(st.sets(st.sampled_from(types)))
    profiles = {}
    for name in ("p", "q")[: draw(st.integers(1, 2))]:
        actions = draw(st.lists(st.sampled_from(LABELS), min_size=1, max_size=3, unique=True))
        values = draw(st.lists(st.sampled_from(LABELS), min_size=1, max_size=3, unique=True))
        behavior = {}
        for t in types:
            behavior.update(((t, a), p) for a, p in zip(actions, draw(prob_row(len(actions)))))
        evidence = {}
        for a in actions:
            for t in types:
                evidence.update(((a, t, v), p) for v, p in zip(values, draw(prob_row(len(values)))))
        profiles[name] = Profile(BehaviorModel(actions, behavior), EvidenceModel(values, evidence))
    if not trusted:
        scores = (0.0,)
    elif len(trusted) == n_types:
        scores = (1.0,)
    else:
        scores = (0.0, 2e-10, 0.3, 0.5, 0.9, 1 - 2e-10, 1.0)
    entities = [
        EntitySpec(
            id=f"e{i}",
            true_type=draw(st.sampled_from(types)),
            profile=draw(st.sampled_from(sorted(profiles))),
            prior_sources=((draw(st.sampled_from(scores)), 1.0),),
        )
        for i in range(draw(st.integers(1, 3)))
    ]
    thresholds = sorted(draw(st.lists(st.sampled_from((0.0, 0.2, 0.5, 0.8, 1.0)), min_size=2, max_size=2)))
    baseline = None
    if draw(st.booleans()):
        weights = [draw(st.sampled_from((0, 1, 3))) for _ in types]
        weights[0] += 1
        baseline = TrustState({t: w / sum(weights) for t, w in zip(types, weights)})
    policy = PolicyConfig(
        grant_threshold=thresholds[1],
        deny_threshold=thresholds[0],
        decay_rate=draw(st.sampled_from((0.0, 1e-17, 0.01, 0.3))),
        baseline=baseline,
        observe_while_denied=draw(st.booleans()),
    )
    return Scenario(
        space=TypeSpace(types, trusted),
        profiles=profiles,
        entities=entities,
        policy=policy,
        horizon=draw(st.integers(1, 12)),
        seed=draw(st.integers(0, 2**32)),
    )


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(scenarios())
def test_kernel_matches_fold_of_step(scenario):
    assert kernel_outcome(scenario, scenario.seed) == reference_outcome(scenario, scenario.seed)


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(scenarios(), st.integers(1, 4))
def test_sweep_equals_its_seeds_run_one_at_a_time(scenario, seeds_per_batch):
    seeds = range(scenario.seed, scenario.seed + 5)
    per_seed = 2 * scenario.horizon * len(scenario.entities)
    with mock.patch.object(sim, "_CHUNK_DRAWS", seeds_per_batch * per_seed):
        assert sweep_outcomes(scenario, seeds) == reference_sweep(scenario, seeds)


def test_no_trusted_type_scores_are_int_zero():
    behavior = BehaviorModel(("a",), {("m", "a"): 1.0, ("n", "a"): 1.0})
    evidence = EvidenceModel(("e",), {("a", "m", "e"): 1.0, ("a", "n", "e"): 1.0})
    scenario = Scenario(
        space=TypeSpace(("m", "n"), ()),
        profiles={"p": Profile(behavior, evidence)},
        entities=(EntitySpec("x", "m", "p", ((0.0, 1.0),)),),
        policy=PolicyConfig(0.5, 0.0),
        horizon=2,
        seed=0,
    )
    trace = run(scenario)
    assert '"score_before": 0, "score_after": 0}' in text(trace)
    assert metrics_to_dict(compute_metrics(trace))["entities"]["x"]["trajectory"] == [0, 0]
    assert kernel_outcome(scenario, 0) == reference_outcome(scenario, 0)


def _two_type_scenario(behavior, evidence, score, seed=0, horizon=1):
    return Scenario(
        space=TypeSpace(("A", "B"), {"A"}),
        profiles={"p": Profile(behavior, evidence)},
        entities=(EntitySpec("x", "B", "p", ((score, 1.0),)),),
        policy=PolicyConfig(0.5, 0.0),
        horizon=horizon,
        seed=seed,
    )


def test_in_tolerance_likelihood_is_clamped_before_the_posterior():
    # B always shows "e"; under A its likelihood is -1e-10, which PROB_TOL
    # admits and the model stores as 0. Taken as -1e-10, with 2e-10 of mass
    # on B, it would make the normalizer about 1e-10 and A's posterior
    # about -1; stored as 0, all mass moves to B.
    behavior = BehaviorModel(("a",), {("A", "a"): 1.0, ("B", "a"): 1.0})
    evidence = EvidenceModel(
        ("e", "f"),
        {("a", "A", "e"): -1e-10, ("a", "A", "f"): 1 + 1e-10,
         ("a", "B", "e"): 1.0, ("a", "B", "f"): 0.0},
    )
    scenario = _two_type_scenario(behavior, evidence, 1 - 2e-10)
    outcome = kernel_outcome(scenario, 0)
    assert outcome[0] == "ok"
    assert run(scenario).final.trust["x"].mass == {"A": 0.0, "B": 1.0}
    assert outcome == reference_outcome(scenario, 0)


def test_in_tolerance_baseline_is_clamped_before_attenuation():
    # A baseline of 1 + 1e-9 on A and -1e-9 on B and C is a valid TrustState
    # (its sum is off 1 by 1e-9), stored as {A: 1, B: 0, C: 0}. Taken as
    # given, decaying almost fully onto it and renormalizing would put about
    # -1.000000001e-9 on B.
    types = ("A", "B", "C")
    behavior = BehaviorModel(("a",), {(t, "a"): 1.0 for t in types})
    evidence = EvidenceModel(("e",), {("a", t, "e"): 1.0 for t in types})
    baseline = TrustState({"A": 1 + 1e-9, "B": -1e-9, "C": -1e-9})
    scenario = Scenario(
        space=TypeSpace(types, {"B", "C"}),
        profiles={"p": Profile(behavior, evidence)},
        entities=(EntitySpec("x", "A", "p", ((0.0, 1.0),)),),
        policy=PolicyConfig(0.5, 0.0, decay_rate=50.0, baseline=baseline),
        horizon=2,
        seed=0,
    )
    assert baseline.mass == {"A": 1.0, "B": 0.0, "C": 0.0}
    outcome = kernel_outcome(scenario, 0)
    assert outcome[0] == "ok"
    assert outcome == reference_outcome(scenario, 0)


def test_first_failing_entity_of_a_tick_raises():
    # Both entities draw "b" at tick 1, which their prior says is impossible;
    # the run raises for the one listed first, whatever the listing order.
    behavior = BehaviorModel(
        ("a", "b"), {("A", "a"): 1.0, ("A", "b"): 0.0, ("B", "a"): 0.0, ("B", "b"): 1.0}
    )
    evidence = EvidenceModel(("e",), {(a, t, "e"): 1.0 for a in "ab" for t in "AB"})
    base = _two_type_scenario(behavior, evidence, 1.0)
    for ids in (("x", "y"), ("y", "x")):
        entities = tuple(EntitySpec(i, "B", "p", ((1.0, 1.0),)) for i in ids)
        scenario = Scenario(base.space, base.profiles, entities, base.policy, 1, 0)
        outcome = kernel_outcome(scenario, 0)
        assert outcome[1][:3] == (ZeroProbabilityObservation, 1, ids[0])
        assert outcome == reference_outcome(scenario, 0)


def test_sampling_takes_first_index_where_u_is_below_the_running_sum():
    # Running sums u + 1e-12, u - 1e-12, 1 around the first draw u: the
    # first index with u < sum is 0, while counting sums <= u would give 1.
    scenario = _two_type_scenario(
        BehaviorModel(("a",), {("A", "a"): 1.0, ("B", "a"): 1.0}),
        EvidenceModel(("e",), {("a", "A", "e"): 1.0, ("a", "B", "e"): 1.0}),
        0.5,
    )
    u = entity_rngs(scenario, 0)["x"].random()
    probs = (u + 1e-12, -2e-12, 1 - u - 1e-12 + 2e-12)
    acts = ("first", "second", "third")
    behavior = BehaviorModel(acts, {(t, a): p for t in "AB" for a, p in zip(acts, probs)})
    evidence = EvidenceModel(("e",), {(a, t, "e"): 1.0 for a in acts for t in "AB"})
    scenario = _two_type_scenario(behavior, evidence, 0.5)
    assert run(scenario).records[0].action == "first"
    assert kernel_outcome(scenario, 0) == reference_outcome(scenario, 0)


def _zero_probability_scenario(horizon):
    """Entity x is B, but its prior puts all mass on A, under which B's action
    "b" has probability 0: a seed raises at the first tick x draws "b"."""
    behavior = BehaviorModel(
        ("a", "b"), {("A", "a"): 1.0, ("A", "b"): 0.0, ("B", "a"): 0.9, ("B", "b"): 0.1}
    )
    evidence = EvidenceModel(("e",), {(a, t, "e"): 1.0 for a in "ab" for t in "AB"})
    return _two_type_scenario(behavior, evidence, 1.0, horizon=horizon)


def test_zero_probability_sweep_exits_like_seed_by_seed(tmp_path, capsys):
    scenario = _zero_probability_scenario(horizon=3)
    seeds = range(0, 12)
    expected = reference_sweep(scenario, seeds)
    failing = len(expected) - 1
    assert expected[-1][0] == "error" and expected[-1][1][0] is ZeroProbabilityObservation
    assert failing >= 2, "the sweep must write some traces before the failing seed"
    path = tmp_path / "zero.yaml"
    path.write_text(serialize_scenario(scenario), encoding="utf-8")
    out, metrics = tmp_path / "trace.jsonl", tmp_path / "m.json"
    with mock.patch.object(sim, "_CHUNK_DRAWS", 2 * 3 * 3):  # 3 seeds a batch
        code = main(["run", "--scenario", str(path), "--seeds", "0..11",
                     "--out", str(out), "--metrics", str(metrics)])
    err = capsys.readouterr().err
    assert code == EXIT_RUNTIME
    assert err == f"error: {expected[-1][1][3]}\n"
    assert not metrics.exists()
    written = sorted(p.name for p in tmp_path.glob("trace.seed*.jsonl"))
    assert written == sorted(f"trace.seed{s}.jsonl" for s in seeds[:failing])
    for s in seeds[:failing]:
        records, _ = fold(scenario, s)
        assert (tmp_path / f"trace.seed{s}.jsonl").read_text(encoding="utf-8") == text(records)


def test_scenario_rejects_profile_missing_a_type():
    behavior = BehaviorModel(("a",), {("A", "a"): 1.0})
    evidence = EvidenceModel(("e",), {("a", "A", "e"): 1.0, ("a", "B", "e"): 1.0})
    with pytest.raises(ValidationError) as info:
        _two_type_scenario(behavior, evidence, 0.5)
    assert info.value.key == "profiles.p.behavior"
    behavior = BehaviorModel(("a",), {("A", "a"): 1.0, ("B", "a"): 1.0})
    evidence = EvidenceModel(("e",), {("a", "A", "e"): 1.0})
    with pytest.raises(ValidationError) as info:
        _two_type_scenario(behavior, evidence, 0.5)
    assert info.value.key == "profiles.p.evidence.a"


def test_scenario_rejects_baseline_over_other_types():
    behavior = BehaviorModel(("a",), {("A", "a"): 1.0, ("B", "a"): 1.0})
    evidence = EvidenceModel(("e",), {("a", "A", "e"): 1.0, ("a", "B", "e"): 1.0})
    base = _two_type_scenario(behavior, evidence, 0.5)
    policy = PolicyConfig(0.5, 0.0, decay_rate=0.1, baseline=TrustState({"A": 1.0}))
    with pytest.raises(ValidationError) as info:
        Scenario(base.space, base.profiles, base.entities, policy, 1, 0)
    assert info.value.key == "policy.baseline"
