"""Workload definitions: the generated inputs, the CLI calls of one pass, and
the operations each call covers with the check that decides whether it
failed.

An operation is one scenario run (sim_fleet), one seed of the sweep
(sim_sweep) or one ``ztsim solve`` call (solve_*). In CLI argv, ``{out}``
stands for the directory the measuring process writes its outputs to.
"""
from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

import checks
import inputs

# sim_sweep: seeds per pass. 50 seeds of the 3-entity scenario take about
# 0.2 s here, so a run times many passes of one CLI call each.
SWEEP_SEEDS = 50
SWEEP_SCENARIO = "scenarios/apt_stealth.yaml"
# sha256 of the shipped scenario when the benchmark was written; a result
# records whether the file still matches it.
SWEEP_SCENARIO_SHA256 = "ef1273a0815b80696e6651f0ed8e00bacf8770ade2050d812a68e9651d971f95"
FLEET_ENTITIES_PER_SCENARIO = 500


@dataclass
class Op:
    label: str
    group: str  # failure breakdown key: payoff scale, game kind or scenario
    check: object  # callable(outdir) -> list of failure messages


@dataclass
class Call:
    argv: list
    outputs: list  # output paths, with {out}
    ops: list = field(default_factory=list)


@dataclass
class Workload:
    name: str
    inputs: list  # [(kind, path)] loaded by setup: "scenario" or "game"
    calls: list
    entity_ticks: int = 0  # per pass, sim workloads only

    @property
    def ops_per_pass(self):
        return sum(len(c.ops) for c in self.calls)

    def manifest(self):
        return {
            "inputs": [[k, str(p)] for k, p in self.inputs],
            "calls": [{"argv": c.argv, "outputs": c.outputs} for c in self.calls],
        }


def _out(outdir, path):
    return Path(path.replace("{out}", str(outdir)))


def _sim_check(scenario_path, trace, metrics, seed_key=None):
    def check(outdir):
        doc = checks.load_doc(scenario_path)
        rows = checks.read_jsonl(_out(outdir, trace))
        with open(_out(outdir, metrics), encoding="utf-8") as fh:
            m = json.load(fh)
        if seed_key is not None:
            m = m["seeds"][seed_key]
        return checks.check_sim(doc, rows, m)

    return check


def _solve_check(game_path, out, argv):
    def check(outdir):
        return checks.check_solve(
            checks.load_doc(game_path), checks.read_jsonl(_out(outdir, out)), argv
        )

    return check


def sim_fleet(seed, root, work):
    calls, paths = [], []
    for rate in inputs.FLEET_DECAY_RATES:
        tag = f"fleet_decay{rate:g}"
        path = work / f"{tag}.yaml"
        inputs.write(path, inputs.fleet_scenario(seed, rate, FLEET_ENTITIES_PER_SCENARIO))
        trace, metrics = f"{{out}}/{tag}.jsonl", f"{{out}}/{tag}.json"
        argv = ["run", "--scenario", str(path), "--out", trace, "--metrics", metrics]
        calls.append(Call(argv, [trace, metrics], [Op(tag, tag, _sim_check(path, trace, metrics))]))
        paths.append(("scenario", path))
    ticks = len(calls) * FLEET_ENTITIES_PER_SCENARIO * inputs.FLEET_HORIZON
    return Workload("sim_fleet", paths, calls, ticks)


def sim_sweep(seed, root, work):
    path = root / SWEEP_SCENARIO
    seeds = range(seed, seed + SWEEP_SEEDS)
    argv = [
        "run", "--scenario", str(path), "--seeds", f"{seeds[0]}..{seeds[-1]}",
        "--out", "{out}/trace.jsonl", "--metrics", "{out}/sweep.json",
    ]
    traces = [f"{{out}}/trace.seed{s}.jsonl" for s in seeds]
    ops = [
        Op(f"seed {s}", "apt_stealth", _sim_check(path, t, "{out}/sweep.json", str(s)))
        for s, t in zip(seeds, traces)
    ]
    doc = checks.load_doc(path)
    ticks = len(seeds) * len(doc["entities"]) * doc["run"]["horizon"]
    return Workload("sim_sweep", [("scenario", path)], [Call(argv, traces + ["{out}/sweep.json"], ops)], ticks)


def _solve_workload(name, games, work):
    calls, paths = [], []
    written = {}
    for label, lines, extra, k in games:
        # Signaling games are solved once per off-path rule from one file.
        key = "\n".join(lines)
        if key not in written:
            written[key] = work / f"{label}.yaml"
            inputs.write(written[key], lines)
            paths.append(("game", written[key]))
        path = written[key]
        out = f"{{out}}/{label}.jsonl"
        argv = ["solve", "--game", str(path), "--out", out] + extra
        group = f"1e{k}" if k is not None else label.split("_")[0].rstrip("0123456789")
        calls.append(Call(argv, [out], [Op(label, group, _solve_check(path, out, argv))]))
    return Workload(name, paths, calls)


def solve_lp(seed, root, work):
    return _solve_workload("solve_lp", inputs.solve_games(seed, inputs.LP_SCALES, 2), work)


def solve_lp_scale(seed, root, work):
    return _solve_workload("solve_lp_scale", inputs.solve_games(seed, inputs.LP_SCALES_FULL, 1), work)


def solve_enum(seed, root, work):
    return _solve_workload("solve_enum", inputs.enum_games(seed, 2), work)


def solve(seed, root, work):
    """solve_lp and solve_enum in one pass: the timed workload of
    BENCHMARK.json that covers every solver layer."""
    games = inputs.solve_games(seed, inputs.LP_SCALES, 2) + inputs.enum_games(seed, 2)
    return _solve_workload("solve", games, work)


# BENCHMARK.json lists sim_sweep and solve, which fit runs long enough to be
# steady on a shared machine; the others run by name and in --all (README.md,
# "Workloads").
WORKLOADS = {
    "sim_fleet": sim_fleet,
    "sim_sweep": sim_sweep,
    "solve_lp": solve_lp,
    "solve_enum": solve_enum,
    "solve": solve,
    "solve_lp_scale": solve_lp_scale,
}


def sha256_file(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()
