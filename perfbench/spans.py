"""Span tracing for the traced run, installed from outside the program.

Layers are wrapped by replacing module attributes: the names ``ztsim.cli``
imports, ``ztsim.sim.step`` and ``entity_rngs``, the ``ztsim.trust`` functions
``sim.step`` calls, and ``solve_lp`` as ``games.matrix`` and
``games.stackelberg`` see it. Each span records its name, start, end, parent
span and the id of the operation (CLI call) it belongs to; spans stay in
compact arrays until the run ends. Counts are taken at the same wrappers.
"""
from __future__ import annotations

import os
from array import array
from collections import Counter
from time import perf_counter

import numpy as np


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.op = array("q")
        self.stack = []
        self.counts = Counter()
        self.op_id = 0

    def _name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def span(self, name, fn, after=None):
        """Wrap ``fn`` so each call records a span; ``after(counts, args,
        result)`` then takes counts from the call's arguments and result."""
        nid = self._name_id(name)
        counts = self.counts

        def wrapper(*args, **kwargs):
            idx = len(self.start)
            self.name.append(nid)
            self.parent.append(self.stack[-1] if self.stack else -1)
            self.op.append(self.op_id)
            self.end.append(0.0)
            self.stack.append(idx)
            self.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = perf_counter()
                self.stack.pop()
            if after is not None:
                after(counts, args, result)
            return result

        return wrapper

    def count(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def mark(self):
        """Position to split spans and counts by pass."""
        return len(self.start), Counter(self.counts)

    def layer_times(self, lo, hi):
        """{name: (total seconds, self seconds, calls)} over spans [lo, hi).
        Self time is a span's duration minus the durations of its direct
        children; spans of one thread never overlap their siblings."""
        start = np.frombuffer(self.start, dtype=float)[lo:hi]
        end = np.frombuffer(self.end, dtype=float)[lo:hi]
        dur = end - start
        parent = np.frombuffer(self.parent, dtype=np.int64)[lo:hi]
        names = np.frombuffer(self.name, dtype=np.uint16)[lo:hi]
        child = np.zeros(hi - lo)
        inside = parent >= lo
        np.add.at(child, parent[inside] - lo, dur[inside])
        out = {}
        for nid, name in enumerate(self.names):
            sel = names == nid
            if sel.any():
                out[name] = (float(dur[sel].sum()), float((dur[sel] - child[sel]).sum()), int(sel.sum()))
        return out

    def save(self, path):
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.uint16),
            start=np.frombuffer(self.start, dtype=float),
            end=np.frombuffer(self.end, dtype=float),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            op=np.frombuffer(self.op, dtype=np.int64),
        )


def _count_step(counts, args, result):
    _, records = result
    counts["sim.entity_ticks"] += len(records)
    for r in records:
        counts[f"sim.decide.{r.decision}"] += 1
        if r.action is not None:
            counts["sim.draws"] += 2


def _count_emit(counts, args, result):
    counts["trace.records"] += result


def install(tracer):
    """Patch the program's modules; returns the list of (module, name,
    original) to restore."""
    import ztsim.cli as cli
    import ztsim.games.bayesian as bayesian
    import ztsim.games.matrix as matrix
    import ztsim.games.signaling as signaling
    import ztsim.games.simplex as simplex
    import ztsim.games.stackelberg as stackelberg
    import ztsim.sim as sim
    import ztsim.trust as trust

    patched = []

    def patch(module, attr, wrapper):
        patched.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapper)

    t = tracer
    span = t.span
    counts = t.counts

    def sized(name):
        def after(counts, args, result):
            counts[name] += os.path.getsize(args[0])

        return after

    patch(cli, "cmd_run", span("cli.cmd_run", cli.cmd_run))
    patch(cli, "cmd_solve", span("cli.cmd_solve", cli.cmd_solve))
    patch(cli, "load_scenario", span("scenario.load", cli.load_scenario, sized("scenario.bytes")))
    patch(cli, "load_game", span("gamespec.load", cli.load_game))
    patch(cli, "run", span("sim.run", cli.run))
    patch(cli, "compute_metrics", span("sim.compute_metrics", cli.compute_metrics))
    patch(cli, "metrics_to_dict", span("trace.metrics_to_dict", cli.metrics_to_dict))
    emit = cli.emit_trace

    def emit_counting_bytes(records, sink):
        pos = sink.tell()
        written = emit(records, sink)
        counts["trace.bytes"] += sink.tell() - pos
        return written

    patch(cli, "emit_trace", span("trace.emit", emit_counting_bytes, _count_emit))
    patch(sim, "step", span("sim.step", sim.step, _count_step))
    patch(sim, "entity_rngs", span("sim.entity_rngs", sim.entity_rngs))
    patch(trust, "attenuate", span("trust.attenuate", trust.attenuate))
    patch(trust, "bayes_update", span("trust.bayes_update", trust.bayes_update))
    patch(trust, "trust_score", span("trust.trust_score", trust.trust_score))

    def lp_seen_from(module, caller):
        solve = module.solve_lp

        def solve_lp(*args, **kwargs):
            counts[f"{caller}.lps"] += 1
            try:
                return solve(*args, **kwargs)
            except simplex.InfeasibleLP:
                counts["games.simplex.infeasible"] += 1
                counts[f"{caller}.infeasible"] += 1
                raise

        return span("games.simplex.solve_lp", solve_lp)

    patch(matrix, "solve_lp", lp_seen_from(matrix, "games.matrix"))
    patch(stackelberg, "solve_lp", lp_seen_from(stackelberg, "games.stackelberg"))
    patch(simplex, "_pivot", t.count("games.simplex.pivots", simplex._pivot))
    patch(cli, "solve_zero_sum", span("games.matrix.solve_zero_sum", cli.solve_zero_sum))
    patch(cli, "solve_stackelberg", span("games.stackelberg.solve", cli.solve_stackelberg))

    def count_bne(counts, args, result):
        counts["games.bayesian.equilibria"] += len(result)

    patch(cli, "find_bne", span("games.bayesian.find_bne", cli.find_bne, count_bne))
    patch(bayesian, "_is_bne", t.count("games.bayesian.profiles", bayesian._is_bne))
    patch(
        bayesian,
        "bayes_expected_utility",
        t.count("games.bayesian.expected_utility.calls", bayesian.bayes_expected_utility),
    )

    def count_pbe(counts, args, result):
        spec = args[0]
        counts["games.signaling.profiles"] += len(spec.signals) ** len(spec.types) * len(
            spec.receiver_actions
        ) ** len(spec.signals)
        counts["games.signaling.equilibria"] += len(result)

    patch(cli, "find_pbe", span("games.signaling.find_pbe", cli.find_pbe, count_pbe))
    patch(
        signaling,
        "signal_posterior",
        t.count("games.signaling.signal_posterior.calls", signaling.signal_posterior),
    )
    return patched


def uninstall(patched):
    for module, attr, original in reversed(patched):
        setattr(module, attr, original)


def layer_metrics(times, counts):
    """[(name, unit, value)] of one pass from its span times and counts; with
    no spans and no counts it lists every metric with value 0."""

    def total(name):
        return times.get(name, (0.0, 0.0, 0))[0]

    def self_time(*names):
        return sum(times.get(n, (0.0, 0.0, 0))[1] for n in names)

    def calls(name):
        return times.get(name, (0.0, 0.0, 0))[2]

    def ratio(a, b):
        return a / b if b else 0.0

    zs, st = calls("games.matrix.solve_zero_sum"), calls("games.stackelberg.solve")
    profiles = counts["games.bayesian.profiles"]
    st_lps = counts["games.stackelberg.lps"]
    return [
        ("scenario.load_s", "s", total("scenario.load")),
        ("scenario.bytes", "B", counts["scenario.bytes"]),
        ("gamespec.load_s", "s", total("gamespec.load")),
        ("trust.attenuate_s", "s", total("trust.attenuate")),
        ("trust.attenuate.calls", "count", calls("trust.attenuate")),
        ("trust.bayes_update_s", "s", total("trust.bayes_update")),
        ("trust.bayes_update.calls", "count", calls("trust.bayes_update")),
        ("trust.trust_score_s", "s", total("trust.trust_score")),
        ("trust.trust_score.calls", "count", calls("trust.trust_score")),
        ("sim.step.calls", "count", calls("sim.step")),
        ("sim.step_self_s", "s", self_time("sim.step")),
        ("sim.run_s", "s", total("sim.run")),
        ("sim.entity_ticks", "count", counts["sim.entity_ticks"]),
        ("sim.decide.grant", "count", counts["sim.decide.grant"]),
        ("sim.decide.challenge", "count", counts["sim.decide.challenge"]),
        ("sim.decide.deny", "count", counts["sim.decide.deny"]),
        ("sim.draws", "count", counts["sim.draws"]),
        ("sim.entity_rngs_s", "s", total("sim.entity_rngs")),
        ("sim.compute_metrics_s", "s", total("sim.compute_metrics")),
        ("trace.emit_s", "s", total("trace.emit")),
        ("trace.records", "count", counts["trace.records"]),
        ("trace.bytes", "B", counts["trace.bytes"]),
        ("trace.metrics_to_dict_s", "s", total("trace.metrics_to_dict")),
        ("cli.self_s", "s", self_time("cli.cmd_run", "cli.cmd_solve")),
        ("games.simplex.solve_lp_s", "s", total("games.simplex.solve_lp")),
        ("games.simplex.solve_lp.calls", "count", calls("games.simplex.solve_lp")),
        ("games.simplex.pivots", "count", counts["games.simplex.pivots"]),
        ("games.simplex.infeasible", "count", counts["games.simplex.infeasible"]),
        ("games.matrix.solve_zero_sum_s", "s", total("games.matrix.solve_zero_sum")),
        ("games.matrix.lps_per_solve", "ratio", ratio(counts["games.matrix.lps"], zs)),
        ("games.stackelberg.solve_s", "s", total("games.stackelberg.solve")),
        ("games.stackelberg.lps_per_solve", "ratio", ratio(st_lps, st)),
        (
            "games.stackelberg.feasible_lp_ratio",
            "ratio",
            ratio(st_lps - counts["games.stackelberg.infeasible"], st_lps),
        ),
        ("games.bayesian.find_bne_s", "s", total("games.bayesian.find_bne")),
        ("games.bayesian.profiles", "count", profiles),
        ("games.bayesian.us_per_profile", "us", ratio(total("games.bayesian.find_bne") * 1e6, profiles)),
        ("games.bayesian.expected_utility.calls", "count", counts["games.bayesian.expected_utility.calls"]),
        ("games.bayesian.equilibria_per_profile", "ratio", ratio(counts["games.bayesian.equilibria"], profiles)),
        ("games.signaling.find_pbe_s", "s", total("games.signaling.find_pbe")),
        ("games.signaling.profiles", "count", counts["games.signaling.profiles"]),
        ("games.signaling.signal_posterior.calls", "count", counts["games.signaling.signal_posterior.calls"]),
        ("games.signaling.equilibria", "count", counts["games.signaling.equilibria"]),
    ]

