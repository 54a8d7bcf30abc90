"""Newline-delimited JSON output for simulation steps, solver results, and
metrics. Key order is fixed so identical inputs produce byte-identical files.
"""
from __future__ import annotations

import json

from .errors import TraceWriteError
from .sim import DECISIONS, Metrics, SimTrace, StepRecord

TRACE_SCHEMA_VERSION = 1


def step_record_to_dict(record: StepRecord) -> dict:
    return {
        "schema_version": TRACE_SCHEMA_VERSION,
        "tick": record.tick,
        "entity": record.entity_id,
        "decision": record.decision,
        "action": record.action,
        "evidence": record.evidence,
        "score_before": record.score_before,
        "score_after": record.score_after,
    }


def solver_record(kind, **payload) -> dict:
    out = {"schema_version": TRACE_SCHEMA_VERSION, "kind": kind}
    out.update(payload)
    return out


def _dumps(record) -> str:
    if isinstance(record, StepRecord):
        record = step_record_to_dict(record)
    return json.dumps(record, ensure_ascii=False) + "\n"


def _fragments(compiled):
    """JSON text per entity: its id, and a table indexed by
    decision * width + outcome of the `"decision": ..., "action": ...,
    "evidence": ...` text, where outcome is 0 for no observation and
    1 + action * n_evidence + evidence otherwise."""
    n_a, n_e = compiled.cum_evidence.shape[1:3]
    width = 1 + n_a * n_e
    tables = {}
    for labels in zip(compiled.actions, compiled.evidence_values):
        if labels in tables:
            continue
        actions, values = ([json.dumps(x, ensure_ascii=False) for x in xs] for xs in labels)
        table = [None] * (len(DECISIONS) * width)
        for d, name in enumerate(DECISIONS):
            table[d * width] = f'"decision": "{name}", "action": null, "evidence": null'
            for i, a in enumerate(actions):
                for j, e in enumerate(values):
                    table[d * width + 1 + i * n_e + j] = (
                        f'"decision": "{name}", "action": {a}, "evidence": {e}'
                    )
        tables[labels] = table
    ids = [json.dumps(eid, ensure_ascii=False) for eid in compiled.ids]
    return width, n_e, ids, [tables[labels] for labels in zip(compiled.actions, compiled.evidence_values)]


def _sim_lines(trace: SimTrace):
    """The lines `json.dumps` writes for `trace.records`, built from
    precomputed fragments and the repr of each score (a Python float, or int
    0 when no type is trusted), which is how `json.dumps` renders them."""
    width, n_e, ids, tables = _fragments(trace.compiled)
    observed = trace.action >= 0
    codes = trace.decision * width + observed * (1 + trace.action * n_e + trace.evidence)
    rows = zip(codes.tolist(), trace.before.tolist(), trace.after.tolist())
    for tick, (code, before, after) in enumerate(rows, start=1):
        head = f'{{"schema_version": {TRACE_SCHEMA_VERSION}, "tick": {tick}, "entity": '
        for eid, table, c, b, a in zip(ids, tables, code, before, after):
            yield f'{head}{eid}, {table[c]}, "score_before": {b!r}, "score_after": {a!r}}}\n'


def emit_trace(records, sink) -> int:
    """Write one JSON object per line, UTF-8, fixed key order. `records` is a
    SimTrace or an iterable of StepRecords and dicts. Returns the record
    count; a sink failure raises TraceWriteError carrying the partial
    count."""
    lines = _sim_lines(records) if isinstance(records, SimTrace) else map(_dumps, records)
    written = 0
    for line in lines:
        try:
            sink.write(line)
        except OSError as exc:
            raise TraceWriteError(written, exc) from exc
        written += 1
    return written


def metrics_to_dict(metrics: Metrics) -> dict:
    return {
        "schema_version": TRACE_SCHEMA_VERSION,
        "entities": {
            eid: {
                "time_to_detection": m.time_to_detection,
                "false_lockout": m.false_lockout,
                "final_score": m.final_score,
                "trajectory": list(m.trajectory),
            }
            for eid, m in metrics.per_entity.items()
        },
    }
