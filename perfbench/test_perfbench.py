"""Self-tests of the benchmark: deterministic generators, checkers that reject
corrupted outputs, and identical outputs with tracing on and off.

    python3 -m pytest perfbench -q
"""
import copy
import json
import sys
from collections import Counter
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import inputs  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

TESTDATA = HERE / "testdata"


def _cli():
    import ztsim.cli

    return ztsim.cli


def _solve(tmp_path, name, lines, extra=()):
    path = tmp_path / f"{name}.yaml"
    inputs.write(path, lines)
    out = tmp_path / f"{name}.jsonl"
    argv = ["solve", "--game", str(path), "--out", str(out), *extra]
    assert _cli().main(argv) == 0
    return checks.load_doc(path), checks.read_jsonl(out), argv


# --------------------------------------------------------------------------
# Generators


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generators_are_deterministic_per_seed(tmp_path, name):
    def digests(seed, sub):
        work = tmp_path / sub
        work.mkdir()
        wl = workloads.WORKLOADS[name](seed, ROOT, work)
        return [(Path(p).name, workloads.sha256_file(p)) for _, p in wl.inputs]

    first = digests(7, "a")
    assert first == digests(7, "b")
    other = digests(8, "c")
    if name != "sim_sweep":  # the shipped scenario does not depend on the seed
        assert first != other


def test_emitted_floats_read_back_exactly():
    for x in (1e-9, -3.5e9, 0.1, 1e22, 123456.789e-12):
        assert checks.yaml.safe_load(inputs.fnum(x)) == x


# --------------------------------------------------------------------------
# Checkers accept the program's outputs and reject corrupted ones


def _run_fleet(tmp_path, rate):
    path = tmp_path / "fleet.yaml"
    inputs.write(path, inputs.fleet_scenario(5, rate, 40, horizon=12))
    trace, metrics = tmp_path / "t.jsonl", tmp_path / "m.json"
    argv = ["run", "--scenario", str(path), "--out", str(trace), "--metrics", str(metrics)]
    assert _cli().main(argv) == 0
    return checks.load_doc(path), checks.read_jsonl(trace), json.loads(metrics.read_text())


@pytest.mark.parametrize("rate", inputs.FLEET_DECAY_RATES)
def test_sim_checker(tmp_path, rate):
    doc, rows, metrics = _run_fleet(tmp_path, rate)
    assert checks.check_sim(doc, rows, metrics) == []
    decisions = Counter(r["decision"] for r in rows)
    assert set(decisions) == {"grant", "challenge", "deny"}

    def rejects(mutate):
        r, m = copy.deepcopy(rows), copy.deepcopy(metrics)
        mutate(r, m)
        assert checks.check_sim(doc, r, m) != []

    observed = next(i for i, r in enumerate(rows) if r["decision"] != "deny")
    denied = next(i for i, r in enumerate(rows) if r["decision"] == "deny")
    rejects(lambda r, m: r.pop())  # row count
    rejects(lambda r, m: r[observed].update(decision="deny"))  # threshold rule
    rejects(lambda r, m: r[denied].update(action="routine"))  # denied rows observe nothing
    rejects(lambda r, m: r[observed].update(score_after=r[observed]["score_after"] * 0.999))
    rejects(lambda r, m: r[observed].update(score_before=1.5))
    rejects(lambda r, m: r[observed].update(evidence="alarm" if r[observed]["evidence"] != "alarm" else "quiet"))
    first = next(iter(metrics["entities"]))
    rejects(lambda r, m: m["entities"][first].update(final_score=-1.0))


def test_zero_sum_checker(tmp_path):
    d = inputs.Draws("test", 1)
    doc, records, _ = _solve(tmp_path, "zs", inputs.matrix_game(d, 6, 5, 0))
    assert checks.check_zero_sum(doc, records) == []
    bad = copy.deepcopy(records)
    bad[0]["value"] += 0.05
    assert checks.check_zero_sum(doc, bad) != []
    bad = copy.deepcopy(records)
    bad[0]["row_strategy"] = {k: (1.0 if i == 0 else 0.0) for i, k in enumerate(bad[0]["row_strategy"])}
    assert checks.check_zero_sum(doc, bad) != []


def test_zero_sum_checker_flags_the_scale_defect():
    """ztsim 0.1.0's answer for a 12x10 game at payoff scale 1e-9, recorded
    in testdata, violates the bilateral certificate."""
    doc = checks.load_doc(TESTDATA / "zs_scale_1e-9.yaml")
    records = checks.read_jsonl(TESTDATA / "zs_scale_1e-9.ztsim-0.1.0.jsonl")
    errors = checks.check_zero_sum(doc, records)
    assert errors, "the recorded wrong answer passed the certificate"


def test_stackelberg_checker(tmp_path):
    d = inputs.Draws("test", 2)
    doc, records, _ = _solve(tmp_path, "st", inputs.bimatrix_game(d, 5, 6, 0), ["--mode", "mixed"])
    assert checks.check_stackelberg(doc, records) == []
    cols = doc["bimatrix_game"]["col_labels"]
    bad = copy.deepcopy(records)
    bad[0]["follower_action"] = next(c for c in cols if c != records[0]["follower_action"])
    assert checks.check_stackelberg(doc, bad) != []
    bad = copy.deepcopy(records)
    bad[0]["leader_value"] -= 10.0
    assert checks.check_stackelberg(doc, bad) != []


def test_bne_checker(tmp_path):
    d = inputs.Draws("test", 3)
    for _ in range(20):  # find a generated game with at least one equilibrium
        doc, records, _ = _solve(tmp_path, "bne", inputs.bayesian_game(d, (2, 2), (2, 2)))
        if records[0]["count"]:
            break
    assert records[0]["count"] > 0
    assert checks.check_bne(doc, records) == []
    eq = records[1]["strategy"]
    actions = doc["bayesian_game"]["actions"]
    rejected = 0
    for player, tmap in eq.items():
        for ptype, action in tmap.items():
            bad = copy.deepcopy(records)
            bad[1]["strategy"][player][ptype] = next(a for a in actions[player] if a != action)
            rejected += checks.check_bne(doc, bad) != []
    assert rejected > 0
    bad = copy.deepcopy(records)
    bad[0]["count"] += 1
    assert checks.check_bne(doc, bad) != []


@pytest.mark.parametrize("rule", inputs.OFF_PATH_RULES)
def test_pbe_checker(tmp_path, rule):
    d = inputs.Draws("test", 4)
    for _ in range(20):
        doc, records, argv = _solve(tmp_path, "pbe", inputs.signaling_game(d, 2, 2, 2), ["--off-path", rule])
        if records[0]["count"]:
            break
    assert records[0]["count"] > 0
    assert checks.check_solve(doc, records, argv) == []
    signals = doc["signaling_game"]["signals"]
    ractions = doc["signaling_game"]["receiver_actions"]
    rejected = 0
    for s in signals:
        bad = copy.deepcopy(records)
        current = bad[1]["receiver_strategy"][s]
        bad[1]["receiver_strategy"][s] = next(a for a in ractions if a != current)
        rejected += checks.check_pbe(doc, bad, rule) != []
    assert rejected > 0
    bad = copy.deepcopy(records)
    first = signals[0]
    bad[1]["beliefs"][first]["on_path"] = not bad[1]["beliefs"][first]["on_path"]
    assert checks.check_pbe(doc, bad, rule) != []


# --------------------------------------------------------------------------
# Tracing


def test_traced_and_untraced_outputs_match(tmp_path):
    """Every patched layer runs, and the outputs are byte-identical."""
    cli = _cli()
    fleet = tmp_path / "fleet.yaml"
    inputs.write(fleet, inputs.fleet_scenario(9, 0.03, 30, horizon=10))
    calls = [["run", "--scenario", str(fleet), "--out", "{out}/f.jsonl", "--metrics", "{out}/f.json"]]
    for name, lines, extra, _ in inputs.solve_games(9, (0,), 1)[::4] + inputs.enum_games(9, 1)[::4]:
        path = tmp_path / f"{name}.yaml"
        inputs.write(path, lines)
        calls.append(["solve", "--game", str(path), "--out", f"{{out}}/{name}.jsonl", *extra])

    def run_all(outdir):
        outdir.mkdir()
        for argv in calls:
            assert cli.main([a.replace("{out}", str(outdir)) for a in argv]) == 0
        return {p.name: p.read_bytes() for p in sorted(outdir.iterdir())}

    plain = run_all(tmp_path / "plain")
    tracer = spans.Tracer()
    patched = spans.install(tracer)
    try:
        traced = run_all(tmp_path / "traced")
    finally:
        spans.uninstall(patched)
    assert plain == traced
    layers = {name: value for name, _, value in spans.layer_metrics(tracer.layer_times(0, len(tracer.start)), tracer.counts)}
    assert layers["sim.entity_ticks"] == 300
    assert layers["trust.trust_score.calls"] == 600
    assert layers["sim.draws"] == 2 * layers["trust.bayes_update.calls"]
    for name in ("games.simplex.solve_lp.calls", "games.bayesian.profiles", "games.signaling.profiles"):
        assert layers[name] > 0
    assert layers["sim.step_self_s"] < sum(tracer.layer_times(0, len(tracer.start))["sim.step"][:1])


def test_benchmark_json_matches_the_metrics_reported():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    layer = [(n, u) for n, u, _ in spans.layer_metrics({}, Counter())] + [("trace_overhead_s", "s")]
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == layer
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)
