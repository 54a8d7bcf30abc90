"""`trace.metrics_text` and `emit_metrics` against the document
`json.dump(metrics_to_dict(compute_metrics(trace)), indent=2)` writes, byte
for byte, for one seed and for a sweep's {"seeds": {...}} layout.
"""
import dataclasses
import io
import json

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from test_kernel import scenarios

from ztsim.errors import ZtsimError
from ztsim.sim import EntitySpec, PolicyConfig, Profile, Scenario, compute_metrics, run_seeds
from ztsim.trace import emit_metrics, metrics_text, metrics_to_dict
from ztsim.trust import BehaviorModel, EvidenceModel, TypeSpace

# Ids json.dump escapes (it writes ASCII only, unlike the trace), and ids that
# read as numbers.
IDS = ('say "hi"', "back\\slash", "é", "\U0001f6e1️", "42", "1e3", "tab\tnew\nline")


def expected(docs, seeds=None):
    sink = io.StringIO()
    json.dump(docs[0] if seeds is None else {"seeds": dict(zip(seeds, docs))}, sink, indent=2)
    return sink.getvalue() + "\n"


def written(traces, seeds=None):
    sink = io.StringIO()
    emit_metrics([metrics_text(t, compute_metrics(t)) for t in traces], sink, seeds)
    return sink.getvalue()


def check(scenario, seeds):
    """Each seed's document and the sweep's, over the seeds before any that
    raises; returns the per-seed metrics documents."""
    traces = []
    try:
        traces.extend(run_seeds(scenario, seeds))
    except ZtsimError:
        pass
    docs = [metrics_to_dict(compute_metrics(t)) for t in traces]
    for trace, doc in zip(traces, docs):
        assert written([trace]) == expected([doc])
    if traces:
        assert written(traces, seeds) == expected(docs, seeds[: len(traces)])
    return docs


@st.composite
def relabeled(draw):
    scenario = draw(scenarios())
    n = len(scenario.entities)
    ids = draw(st.lists(st.sampled_from(IDS + ("e0", "e1")), min_size=n, max_size=n, unique=True))
    entities = [dataclasses.replace(e, id=i) for e, i in zip(scenario.entities, ids)]
    return dataclasses.replace(scenario, entities=entities)


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(relabeled())
def test_metrics_text_is_json_dump(scenario):
    check(scenario, list(range(scenario.seed, scenario.seed + 3)))


def test_metrics_text_edge_cases():
    """No trusted type (int 0 scores), entities never detected (null) and
    detected at once, horizon 1, and ids that need escaping."""
    labels = ("a", "b")
    behavior = BehaviorModel(labels, {(t, a): 0.5 for t in ("m", "n") for a in labels})
    evidence = EvidenceModel(labels, {(a, t, v): 0.5 for a in labels for t in ("m", "n") for v in labels})
    for trusted, deny, horizon in (((), 0.0, 1), ((), 0.0, 3), (("m",), 0.5, 1), (("m",), 0.5, 3)):
        entities = [
            EntitySpec(eid, "n", "p", ((0.0 if not trusted else 0.3 if i % 2 else 0.9, 1.0),))
            for i, eid in enumerate(IDS)
        ]
        scenario = Scenario(
            space=TypeSpace(("m", "n"), trusted),
            profiles={"p": Profile(behavior, evidence)},
            entities=entities,
            policy=PolicyConfig(0.8, deny),
            horizon=horizon,
            seed=0,
        )
        docs = check(scenario, [4, 5])
        assert len(docs) == 2
        entries = docs[0]["entities"].values()
        if not trusted:
            assert all(type(s) is int and s == 0 for m in entries for s in m["trajectory"])
        detections = {m["time_to_detection"] for m in entries}
        assert None in detections and (not trusted) == (detections == {None})
