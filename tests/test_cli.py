import itertools
import json
import os
import pathlib
import subprocess
import sys

import pytest
from doc_writer import serialize_game

from ztsim import cli
from ztsim.cli import EXIT_BUDGET, EXIT_OK, EXIT_RUNTIME, EXIT_VALIDATION, main
from ztsim.games import BayesianGameSpec
from ztsim.scenario import load_scenario
from ztsim.sim import compute_metrics, run
from ztsim.trace import metrics_to_dict, step_record_to_dict


REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_solve_non_numeric_payoff_exit_one(game_specs_dir, tmp_path, capsys):
    text = (game_specs_dir / "rock_paper_scissors.yaml").read_text()
    for cell in ("abc", "[1, 2]"):
        path = tmp_path / "bad.yaml"
        path.write_text(text.replace("rock: {rock: 0,", f"rock: {{rock: {cell},", 1))
        code, out, err = run_cli(["solve", "--game", str(path)], capsys)
        assert code == EXIT_VALIDATION
        assert out == ""
        assert err.startswith("error: [matrix_game]")


def test_run_non_numeric_prior_weight_exit_one(scenarios_dir, tmp_path, capsys):
    text = (scenarios_dir / "apt_stealth.yaml").read_text()
    assert "weight: 2.0" in text
    path = tmp_path / "bad.yaml"
    path.write_text(text.replace("weight: 2.0", "weight: abc", 1))
    code, _, err = run_cli(["run", "--scenario", str(path)], capsys)
    assert code == EXIT_VALIDATION
    assert err.startswith("error: [entities[")


def test_run_twice_byte_identical(scenarios_dir, tmp_path, capsys):
    scenario = str(scenarios_dir / "apt_stealth.yaml")
    outs = []
    for name in ("a.jsonl", "b.jsonl"):
        out = tmp_path / name
        code, _, err = run_cli(["run", "--scenario", scenario, "--out", str(out)], capsys)
        assert code == EXIT_OK, err
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_run_seed_override_changes_trace_not_schema(scenarios_dir, tmp_path, capsys):
    scenario = str(scenarios_dir / "apt_stealth.yaml")
    traces, metrics = {}, {}
    for seed in (1, 2):
        out = tmp_path / f"t{seed}.jsonl"
        met = tmp_path / f"m{seed}.json"
        code, _, err = run_cli(
            ["run", "--scenario", scenario, "--seed", str(seed),
             "--out", str(out), "--metrics", str(met)],
            capsys,
        )
        assert code == EXIT_OK, err
        traces[seed] = out.read_text()
        metrics[seed] = json.loads(met.read_text())
    assert traces[1] != traces[2]
    for doc in metrics.values():
        assert set(doc["entities"]) == {"alice", "bob", "implant-7"}
        for entry in doc["entities"].values():
            assert set(entry) == {"time_to_detection", "false_lockout", "final_score", "trajectory"}


def test_run_seed_sweep_writes_per_seed_files(scenarios_dir, tmp_path, capsys):
    scenario = str(scenarios_dir / "deterministic_attacker.yaml")
    out = tmp_path / "trace.jsonl"
    met = tmp_path / "metrics.json"
    code, _, err = run_cli(
        ["run", "--scenario", scenario, "--seeds", "3..5",
         "--out", str(out), "--metrics", str(met)],
        capsys,
    )
    assert code == EXIT_OK, err
    for seed in (3, 4, 5):
        assert (tmp_path / f"trace.seed{seed}.jsonl").exists()
    doc = json.loads(met.read_text())
    assert set(doc["seeds"]) == {"3", "4", "5"} or set(doc["seeds"]) == {3, 4, 5}


def test_run_one_seed_range_is_a_sweep(scenarios_dir, tmp_path, capsys):
    # `--seeds A..A` is laid out as every sweep is: per-seed trace files, a
    # metrics document keyed under "seeds", and no trace on stdout.
    scenario = str(scenarios_dir / "deterministic_attacker.yaml")
    met = tmp_path / "metrics.json"
    code, out, err = run_cli(["run", "--scenario", scenario, "--seeds", "5..5", "--metrics", str(met)], capsys)
    assert (code, out) == (EXIT_OK, ""), err
    assert list(json.loads(met.read_text())["seeds"]) == ["5"]
    out_path = tmp_path / "trace.jsonl"
    code, out, err = run_cli(["run", "--scenario", scenario, "--seeds", "5..5", "--out", str(out_path)], capsys)
    assert (code, out) == (EXIT_OK, ""), err
    assert not out_path.exists()
    trace = [step_record_to_dict(r) for r in run(load_scenario(scenario), 5).records]
    lines = (tmp_path / "trace.seed5.jsonl").read_text().splitlines()
    assert [json.loads(line) for line in lines] == json.loads(json.dumps(trace))


def _stealth_sweep(*argv):
    script = REPO_ROOT / "scripts" / "run_stealth_sweep.py"
    env = {**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")}
    return subprocess.run([sys.executable, str(script), *argv], capture_output=True, text=True, env=env)


@pytest.mark.parametrize("count", ["0", "-3"])
def test_stealth_sweep_script_rejects_a_seed_count_below_one(count):
    proc = _stealth_sweep("--seeds", count)
    assert proc.returncode == 2
    assert f"argument --seeds: must be at least 1, got {count}" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_stealth_sweep_script_without_an_adversary(scenarios_dir, tmp_path):
    text = (scenarios_dir / "apt_stealth.yaml").read_text()
    implant = text[text.index("  - id: implant-7"):text.index("policy:")]
    path = tmp_path / "staff_only.yaml"
    path.write_text(text.replace(implant, ""))
    proc = _stealth_sweep("--seeds", "2", "--scenario", str(path))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.endswith("median adversarial final score: none (no such entity)\n")


def test_run_sweep_bytes_match_json_with_non_ascii_id(scenarios_dir, tmp_path, capsys):
    # The trace writes ids as UTF-8, the metrics document escapes them to ASCII.
    text = (scenarios_dir / "apt_stealth.yaml").read_text(encoding="utf-8")
    assert "id: bob" in text
    path = tmp_path / "ids.yaml"
    path.write_text(text.replace("id: bob", 'id: "b\u00f8b \\"\U0001f6e1\\" \\\\"', 1), encoding="utf-8")
    scenario = load_scenario(path)
    assert 'bøb "\U0001f6e1" \\' in {e.id for e in scenario.entities}
    out, met = tmp_path / "trace.jsonl", tmp_path / "metrics.json"
    code, _, err = run_cli(
        ["run", "--scenario", str(path), "--seeds", "1..3", "--out", str(out), "--metrics", str(met)],
        capsys,
    )
    assert code == EXIT_OK, err
    docs = {}
    for seed in (1, 2, 3):
        trace = run(scenario, seed)
        lines = [json.dumps(step_record_to_dict(r), ensure_ascii=False) + "\n" for r in trace.records]
        assert (tmp_path / f"trace.seed{seed}.jsonl").read_bytes() == "".join(lines).encode("utf-8")
        docs[seed] = metrics_to_dict(compute_metrics(trace))
    assert met.read_bytes() == (json.dumps({"seeds": docs}, indent=2) + "\n").encode("ascii")


def test_run_trace_to_stdout_is_jsonl(scenarios_dir, capsys):
    scenario = str(scenarios_dir / "deterministic_attacker.yaml")
    code, out, _ = run_cli(["run", "--scenario", scenario], capsys)
    assert code == EXIT_OK
    lines = out.splitlines()
    assert len(lines) == 3
    assert json.loads(lines[0])["entity"] == "mallory"


def test_run_missing_file_exit_one_names_path(tmp_path, capsys):
    missing = tmp_path / "ghost.yaml"
    code, _, err = run_cli(["run", "--scenario", str(missing)], capsys)
    assert code == EXIT_VALIDATION
    assert str(missing) in err


def test_run_invalid_document_exit_one(tmp_path, capsys):
    bad = tmp_path / "bad.yaml"
    bad.write_text("schema_version: 1\ntype_space: {types: [], trusted: []}\n")
    code, _, err = run_cli(["run", "--scenario", str(bad)], capsys)
    assert code == EXIT_VALIDATION
    assert "type_space" in err


def test_solve_zero_sum(game_specs_dir, capsys):
    code, out, _ = run_cli(
        ["solve", "--game", str(game_specs_dir / "rock_paper_scissors.yaml")], capsys
    )
    assert code == EXIT_OK
    rec = json.loads(out.splitlines()[0])
    assert rec["kind"] == "zero_sum"
    assert rec["value"] == pytest.approx(0.0, abs=1e-9)
    assert all(w == pytest.approx(1 / 3, abs=1e-9) for w in rec["row_strategy"].values())


def test_solve_stackelberg_modes(game_specs_dir, capsys):
    path = str(game_specs_dir / "commitment_demo.yaml")
    code, out, _ = run_cli(["solve", "--game", path, "--mode", "mixed"], capsys)
    assert code == EXIT_OK
    rec = json.loads(out.splitlines()[0])
    assert rec["kind"] == "stackelberg"
    assert rec["leader_value"] == pytest.approx(3.5, abs=1e-9)
    code, out, _ = run_cli(["solve", "--game", path, "--mode", "pure"], capsys)
    assert json.loads(out.splitlines()[0])["leader_value"] == pytest.approx(3.0)


def test_solve_bne(game_specs_dir, capsys):
    code, out, _ = run_cli(
        ["solve", "--game", str(game_specs_dir / "insider_matching.yaml")], capsys
    )
    assert code == EXIT_OK
    lines = [json.loads(l) for l in out.splitlines()]
    assert lines[0] == {"schema_version": 1, "kind": "bne_summary", "count": 2}
    assert all(rec["kind"] == "bne" for rec in lines[1:])


def test_solve_pbe_off_path_rule(game_specs_dir, capsys):
    code, out, _ = run_cli(
        ["solve", "--game", str(game_specs_dir / "honeypot_signaling.yaml"),
         "--off-path", "prior"],
        capsys,
    )
    assert code == EXIT_OK
    lines = [json.loads(l) for l in out.splitlines()]
    summary = lines[0]
    assert summary["kind"] == "pbe_summary"
    assert summary["count"] == 2
    assert summary["classifications"] == ["pooling"]
    assert summary["off_path_rule"] == "prior"


def test_solve_budget_exceeded_exit_three(tmp_path, capsys):
    # two players, five types, eight actions each: 8^5 squared pure strategy
    # profiles, far past the default enumeration budget
    players = ("p1", "p2")
    types = {p: tuple(f"t{i}" for i in range(5)) for p in players}
    actions = {p: tuple(f"a{i}" for i in range(8)) for p in players}
    prior = {
        tp: 1 / 25 for tp in itertools.product(types["p1"], types["p2"])
    }
    utilities = {
        p: {
            (ap, tp): 0.0
            for ap in itertools.product(actions["p1"], actions["p2"])
            for tp in itertools.product(types["p1"], types["p2"])
        }
        for p in players
    }
    spec = BayesianGameSpec(players, types, actions, prior, utilities)
    path = tmp_path / "huge.yaml"
    path.write_text(serialize_game(spec))
    code, _, err = run_cli(["solve", "--game", str(path)], capsys)
    assert code == EXIT_BUDGET
    assert "budget" in err.lower()


def test_solve_output_file(game_specs_dir, tmp_path, capsys):
    out = tmp_path / "sol.jsonl"
    code, stdout, _ = run_cli(
        ["solve", "--game", str(game_specs_dir / "rock_paper_scissors.yaml"),
         "--out", str(out)],
        capsys,
    )
    assert code == EXIT_OK
    assert stdout == ""
    assert json.loads(out.read_text().splitlines()[0])["kind"] == "zero_sum"


@pytest.mark.parametrize("argv, reason", [
    (["--seed", "-1"], "non-negative"),
    (["--seeds=-2..3"], "non-negative"),
    (["--seeds=-5..-1"], "non-negative"),
    (["--seeds", "1..x"], "--seeds expects A..B with integer bounds, got '1..x'\n"),
    (["--seeds", "1.5..3"], "--seeds expects A..B with integer bounds, got '1.5..3'\n"),
    (["--seeds", "1..3"], "--seeds writes only to --out and --metrics; give one or both\n"),
    (["--seeds", "1..2", "--out", "/"], "--seeds needs an --out path that ends in a file name, got '/'\n"),
    (["--seeds", "5"], "--seeds expects A..B, got '5'\n"),
    (["--seeds", "3..1"], "--seeds range is empty: '3..1'\n"),
], ids=["seed", "seeds-low", "seeds-both", "seeds-word", "seeds-float", "seeds-no-output", "seeds-out-no-name",
        "seeds-one-number", "seeds-empty"])
def test_run_bad_seed_call_exit_one(scenarios_dir, capsys, argv, reason):
    scenario = str(scenarios_dir / "apt_stealth.yaml")
    code, out, err = run_cli(["run", "--scenario", scenario] + argv, capsys)
    assert code == EXIT_VALIDATION
    assert out == ""
    assert err.startswith("error: --seed") and reason in err


def test_run_seed_with_seeds_usage_error(scenarios_dir, capsys):
    scenario = str(scenarios_dir / "apt_stealth.yaml")
    with pytest.raises(SystemExit) as info:
        main(["run", "--scenario", scenario, "--seed", "5", "--seeds", "1..2"])
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "argument --seeds: not allowed with argument --seed" in captured.err


def test_main_builds_its_parser_once(game_specs_dir, monkeypatch, capsys):
    build_parser, built = cli.build_parser, []

    def counting_build_parser():
        built.append(1)
        return build_parser()

    monkeypatch.setattr(cli, "build_parser", counting_build_parser)
    cli._parser.cache_clear()
    game = str(game_specs_dir / "rock_paper_scissors.yaml")
    for _ in range(3):
        assert run_cli(["solve", "--game", game], capsys)[0] == EXIT_OK
    assert len(built) == 1


def test_usage_error_leaves_later_calls_unchanged(scenarios_dir, game_specs_dir, capsys):
    argv = ["solve", "--game", str(game_specs_dir / "insider_matching.yaml")]
    first = run_cli(argv, capsys)
    with pytest.raises(SystemExit) as info:
        main(["run", "--scenario", str(scenarios_dir / "apt_stealth.yaml"),
              "--seed", "5", "--seeds", "1..2"])
    assert info.value.code == 2
    capsys.readouterr()
    assert run_cli(argv, capsys) == first
    assert first[0] == EXIT_OK and first[1]


def test_main_calls_the_current_cmd_solve(game_specs_dir, monkeypatch, capsys):
    # Code that wraps the command functions after import, such as
    # perfbench/spans.py, relies on `main` looking them up on every call.
    argv = ["solve", "--game", str(game_specs_dir / "rock_paper_scissors.yaml"), "--mode", "pure"]
    assert run_cli(argv, capsys)[0] == EXIT_OK
    seen = []
    monkeypatch.setattr(cli, "cmd_solve", lambda args: seen.append(args) or 7)
    assert main(argv) == 7
    assert [(a.command, a.game, a.mode) for a in seen] == [tuple(argv[i] for i in (0, 2, 4))]


@pytest.mark.parametrize("command, flag", [
    ("run", "--out"),
    ("run", "--metrics"),
    ("solve", "--out"),
])
def test_unwritable_output_path_exit_two(scenarios_dir, game_specs_dir, tmp_path, capsys, command, flag):
    missing = tmp_path / "no_such_dir" / "out.jsonl"
    if command == "run":
        argv = ["run", "--scenario", str(scenarios_dir / "deterministic_attacker.yaml")]
        if flag == "--metrics":
            argv += ["--out", str(tmp_path / "trace.jsonl")]
    else:
        argv = ["solve", "--game", str(game_specs_dir / "rock_paper_scissors.yaml")]
    code, out, err = run_cli(argv + [flag, str(missing)], capsys)
    assert code == EXIT_RUNTIME
    assert out == ""
    assert err.startswith("error: ") and str(missing) in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command, flag, source, old, new", [
    ("run", "--scenario", "apt_stealth.yaml", "grant_threshold: 0.8", "grant_threshold: !!float abc"),
    ("solve", "--game", "rock_paper_scissors.yaml", "schema_version: 1", "schema_version: 1\nx: !!int zz"),
    ("run", "--scenario", "apt_stealth.yaml", "horizon: 40", "horizon: !!timestamp abc"),
    ("solve", "--game", "rock_paper_scissors.yaml", "schema_version: 1", "schema_version: 1\nx: !!bool maybe"),
], ids=["run-float-tag", "solve-int-tag", "run-timestamp-tag", "solve-bool-tag"])
def test_unreadable_explicit_tag_exit_one(
    scenarios_dir, game_specs_dir, tmp_path, capsys, command, flag, source, old, new
):
    # PyYAML's constructors raise ValueError, AttributeError or KeyError here, not a YAMLError.
    text = ((scenarios_dir if command == "run" else game_specs_dir) / source).read_text()
    assert old in text
    path = tmp_path / "bad.yaml"
    path.write_text(text.replace(old, new, 1))
    code, out, err = run_cli([command, flag, str(path)], capsys)
    assert code == EXIT_VALIDATION
    assert out == ""
    assert err.startswith("error: ") and "not valid YAML" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command, flag, source", [
    ("run", "--scenario", "apt_stealth.yaml"),
    ("solve", "--game", "rock_paper_scissors.yaml"),
])
def test_invalid_utf8_exit_one(scenarios_dir, game_specs_dir, tmp_path, capsys, command, flag, source):
    data = ((scenarios_dir if command == "run" else game_specs_dir) / source).read_bytes()
    path = tmp_path / "bad.yaml"
    path.write_bytes(data.replace(b"schema_version: 1", b"schema_version: 1\nx: \xff", 1))
    code, out, err = run_cli([command, flag, str(path)], capsys)
    assert code == EXIT_VALIDATION
    assert out == ""
    assert err.startswith("error: ") and "-: not valid YAML" in err
    assert "Traceback" not in err


class _BrokenPipe:
    def write(self, _):
        raise BrokenPipeError("broken pipe")


def test_solve_failing_stdout_exit_two(game_specs_dir, capsys, monkeypatch):
    monkeypatch.setattr("sys.stdout", _BrokenPipe())
    code = main(["solve", "--game", str(game_specs_dir / "rock_paper_scissors.yaml")])
    err = capsys.readouterr().err
    assert code == EXIT_RUNTIME
    assert err.startswith("error: trace sink failed after 0 records: broken pipe")


# Document values Python would coerce silently (a bool as 1 or 0, a quoted
# 'false' as true, a list id as a string) or that cannot run (bad prior
# sources, a negative seed, a NaN decay rate): each must be a validation error
# naming its section.
REJECTED_VALUES = [
    ("scenario", "horizon: 40", "horizon: true", "scenario"),
    ("scenario", "decay_rate: 0.01", "decay_rate: true", "policy"),
    ("scenario", "decay_rate: 0.01", "decay_rate: .nan", "policy"),
    ("scenario", "grant_threshold: 0.8", "grant_threshold: true", "policy"),
    ("scenario", "staff: {routine: 0.95, anomalous: 0.05}",
     "staff: {routine: true, anomalous: 0.0}", "profiles.workstation"),
    ("scenario", "decay_rate: 0.01", "decay_rate: 0.01\n  observe_while_denied: 'false'",
     "policy"),
    ("scenario", "id: bob", "id: [1, 2]", "entities[1]"),
    ("scenario", "seed: 2024", "seed: -1", "scenario"),
    ("scenario", "{score: 0.6, weight: 1.0}", "{score: 0.6, weight: -1.0}", "entities[1]"),
    ("scenario", "{score: 0.6, weight: 1.0}", "{score: 0.6, weight: 0.0}", "entities[1]"),
    ("scenario", "{score: 0.6, weight: 1.0}", "{score: 1.5, weight: 1.0}", "entities[1]"),
    ("game", "rock: {rock: 0,", "rock: {rock: false,", "matrix_game"),
    ("game", "generic}, p: 0.5}\n    - {types: {insider: negligent, auditor: generic}, p: 0.5}",
     "generic}, p: true}\n    - {types: {insider: negligent, auditor: generic}, p: 0}",
     "bayesian_game"),
    ("game", "negligent, auditor: generic}, p: 0.5}",
     "negligent, auditor: generic}, p: 0.5}\n    - {types: {insider: diligent, auditor: generic}, "
     "p: false}", "bayesian_game"),
    ("game", "u: {insider: 3, auditor: 1}}", "u: {insider: .nan, auditor: 1}}",
     "bayesian_game utilities.insider"),
    ("game", "attack: {real: 2, honeypot: -3}", "attack: {real: 2, honeypot: .nan}",
     "signaling_game receiver_utility"),
    ("game", "prior: {real: 0.7, honeypot: 0.3}", "prior: {real: .nan, honeypot: 0.3}",
     "signaling_game prior"),
    ("scenario", "{score: 0.6, weight: 1.0}", "{score: 0.6, weight: .nan}",
     "entities[1] prior[0].weight"),
    ("scenario", "decay_rate: 0.01", "decay_rate: .inf", "policy decay_rate"),
    ("game", "rock: {rock: 0,", "rock: {rock: '1',", "matrix_game payoff"),
    ("game", "rock: {rock: 0,", "rock: {rock: 1" + "0" * 400 + ",", "matrix_game payoff"),
    ("game", "row_labels: [rock, paper, scissors]", "row_labels: [rock, rock, scissors]",
     "matrix_game row_labels"),
    ("scenario", "grant_threshold: 0.8", "grant_threshold: high", "policy grant_threshold"),
    ("game", "generic}, p: 0.5}", "generic}, p: half}", "bayesian_game prior[0].p"),
    ("scenario", "types: [staff, apt]", "types: [[staff], apt]", "type_space types"),
    ("game", "row_labels: [rock, paper, scissors]", "row_labels: [[rock], paper, scissors]",
     "matrix_game row_labels"),
    ("game", "players: [insider, auditor]", "players: [[insider], auditor]",
     "bayesian_game players"),
    ("game", "types: [real, honeypot]", "types: [[real], honeypot]", "signaling_game types"),
    ("scenario", "    evidence:\n      routine:",
     "    evidence:\n      exfiltrate: {staff: {no_alarm: 2.0}}\n      routine:",
     "profiles.workstation evidence.exfiltrate"),
    ("scenario", "        apt: {no_alarm: 0.90, alarm: 0.10}",
     "        apt: {no_alarm: 0.90, alarm: 0.10}\n        ghost: {no_alarm: 5}",
     "profiles.workstation evidence.routine.ghost"),
    ("game", "    scissors: {rock: -1, paper: 1, scissors: 0}",
     "    scissors: {rock: -1, paper: 1, scissors: 0}\n"
     "    lizard: {rock: 0, paper: 0, scissors: 0}",
     "matrix_game payoff.lizard"),
    ("game", "prior: {real: 0.7, honeypot: 0.3}", "prior: {real: 0.7, honeypot: 0.3, ghost: 9}",
     "signaling_game prior.ghost"),
    ("game", "    honeypot:\n      weak: {attack: 2, withdraw: 0}",
     "    ghost:\n      weak: {attack: .nan, withdraw: 0}\n"
     "    honeypot:\n      weak: {attack: 2, withdraw: 0}",
     "signaling_game sender_utility.ghost"),
    ("game", "    honeypot:\n      weak: {attack: 2, withdraw: 0}",
     "    honeypot:\n      loud: {attack: x}\n      weak: {attack: 2, withdraw: 0}",
     "signaling_game sender_utility.honeypot.loud"),
    ("game", "    withdraw: {real: 0, honeypot: 0}",
     "    withdraw: {real: 0, honeypot: 0}\n    flee: {real: 1, honeypot: 1}",
     "signaling_game receiver_utility.flee"),
    ("game", "attack: {real: 2, honeypot: -3}", "attack: {real: 2, honeypot: -3, ghost: 1}",
     "signaling_game receiver_utility.attack.ghost"),
    ("game", "    auditor: [generic]", "    auditor: [generic]\n    ghost: [lurking]",
     "bayesian_game types.ghost"),
    ("game", "u: {insider: 3, auditor: 1}}", "u: {insider: 3, auditor: 1, ghost: .nan}}",
     "bayesian_game utilities[0].u.ghost"),
    ("game", "types: {insider: negligent, auditor: generic}, u: {insider: 3, auditor: 1}}",
     "types: {insider: negligent, auditor: generic}, u: {insider: 3, auditor: 1}}\n"
     "    - {actions: {insider: jump, auditor: comply}, types: {insider: diligent, auditor: generic}, "
     "u: {insider: 9, auditor: 9}}",
     "bayesian_game utilities.insider.('jump', 'comply')"),
    ("game", "types: {insider: diligent, auditor: generic}, u: {insider: 3, auditor: 1}}",
     "types: {insider: diligent, auditor: generic}, u: {insider: 3, auditor: 1}}\n"
     "    - {actions: {insider: comply, auditor: comply}, types: {insider: diligent, auditor: generic}, "
     "u: {insider: 0, auditor: 0}}",
     "bayesian_game utilities[1]"),
    ("scenario", "trusted: [staff]", "trusted: [staff, staff]", "type_space trusted"),
    ("scenario", "decay_rate: 0.01", "decay_rat: 0.5", "policy decay_rat"),
    ("scenario", "trusted: [staff]", "trusted: [staff]\n  trust: [apt]", "type_space trust"),
    ("scenario", "    evidence:\n      routine:", "    evidnce: {}\n    evidence:\n      routine:",
     "profiles.workstation evidnce"),
    ("scenario", "id: bob", "id: bob\n    true-type: apt", "entities[1] true-type"),
    ("scenario", "{score: 0.6, weight: 1.0}", "{score: 0.6, wieght: 1.0}", "entities[1].prior[0] wieght"),
    ("scenario", "seed: 2024", "seeds: 2024", "run seeds"),
    ("scenario", "run:\n  horizon", "runn:\n  horizon", "scenario runn"),
    ("scenario", "schema_version: 1", "schema_version: 1\nextra: 1", "scenario extra"),
    ("game", "schema_version: 1", "schema_version: 1\nextra: 1", "game extra"),
    ("game", "generic}, p: 0.5}", "generic}, p: 0.5, q: 9}", "bayesian_game.prior[0] q"),
    ("game", "  row_labels: [rock, paper, scissors]", "  extra: 1\n  row_labels: [rock, paper, scissors]",
     "matrix_game extra"),
    ("game", "  row_labels: [probe, exploit]", "  extra: 1\n  row_labels: [probe, exploit]",
     "bimatrix_game extra"),
    ("game", "  players: [insider, auditor]", "  players: [insider, auditor]\n  extra: 1",
     "bayesian_game extra"),
    ("game", "  types: [real, honeypot]", "  types: [real, honeypot]\n  extra: 1", "signaling_game extra"),
    ("game", "u: {insider: 3, auditor: 1}}", "u: {insider: 3, auditor: 1}, w: 2}",
     "bayesian_game.utilities[0] w"),
    ("scenario", "\n      - {score: 0.6, weight: 1.0}", " 0.6",
     "entities[1] prior: expected list, got float"),
    ("scenario", "\n      - {score: 0.6, weight: 1.0}", " {score: 0.6, weight: 1.0}",
     "entities[1] prior: expected list, got dict"),
    ("game", "rock: {rock: 0, paper: -1, scissors: 1}", "rock: {rock: 0, paper: -1, scissors: 1, lizard: 2}",
     "matrix_game payoff.rock.lizard: undeclared label 'lizard'"),
    ("game", "rock: {rock: 0, paper: -1, scissors: 1}", "rock: {rock: 0, paper: -1}",
     "matrix_game payoff.rock.scissors: missing"),
    ("game", "rock: {rock: 0, paper: -1, scissors: 1}", "rock: [0, -1, 1]",
     "matrix_game payoff.rock: expected a mapping"),
    ("game", "probe: {patch: 1, monitor: 0}", "probe: {patch: 1, monitr: 0}",
     "bimatrix_game follower_payoff.probe.monitr: undeclared label 'monitr'"),
    ("scenario", "{score: 0.7, weight: 2.0}\n      - {score: 0.8, weight: 1.0}",
     "{score: 0.7, weight: 1.0e+308}\n      - {score: 0.8, weight: 1.0e+308}",
     "entities[0] prior: source weights sum past the largest float"),
    ("scenario", "{score: 0.7, weight: 2.0}", "{score: 0.7, weight: 5.0e-324}",
     "entities[0] prior[0].weight"),
    ("scenario", "apt: {routine: 0.75, anomalous: 0.25}", "apt: {routine: 0.75, anomalous: 0.25, exfil: 0.0}",
     "profiles.workstation behavior.apt.exfil: undeclared label 'exfil'"),
    ("scenario", "apt: {routine: 0.75, anomalous: 0.25}", "apt: {routine: 1.0}",
     "profiles.workstation behavior.apt.anomalous: missing"),
    ("scenario", "staff: {routine: 0.95, anomalous: 0.05}", "staff: {routine: 0.85, anomalous: 0.05}",
     "profiles.workstation behavior.staff: sums to 0.9, expected 1"),
    ("scenario", "id: bob", "id: alice", "scenario entities[1].id: duplicate id 'alice'"),
    ("scenario", "decay_rate: 0.01", "decay_rate: -0.01", "policy decay_rate: must be non-negative, got -0.01"),
    ("scenario", "trusted: [staff]", "trusted: [staff, 1, x]", "type_space trusted: undeclared label 1"),
    ("scenario", "true_type: staff", "true_type: ugly", "scenario entities[0].true_type: undeclared label 'ugly'"),
    ("scenario", "profile: workstation", "profile: nope", "scenario entities[0].profile: undeclared label 'nope'"),
    ("scenario", "profile: workstation", "profile: [workstation]",
     "scenario entities[0].profile: undeclared label ['workstation']"),
]


@pytest.mark.parametrize(
    "kind, old, new, where",
    REJECTED_VALUES,
    ids=["horizon-bool", "decay-bool", "decay-nan", "grant-bool", "behavior-bool", "observe-string",
         "id-list", "seed-negative", "prior-negative-weight", "prior-zero-weights", "prior-score-above-one",
         "payoff-bool", "bayesian-prior-bool", "bayesian-prior-bool-repeated", "utility-nan",
         "receiver-utility-nan", "signaling-prior-nan", "prior-weight-nan", "decay-inf",
         "payoff-quoted", "payoff-huge-int", "row-labels-repeated", "grant-word",
         "bayesian-prior-word", "types-unhashable", "row-labels-unhashable",
         "players-unhashable", "signaling-types-unhashable", "evidence-undeclared-action",
         "evidence-undeclared-type", "payoff-undeclared-row", "signaling-prior-undeclared-type",
         "sender-utility-undeclared-type", "sender-utility-undeclared-signal",
         "receiver-utility-undeclared-action", "receiver-utility-undeclared-type",
         "bayesian-types-undeclared-player", "bayesian-u-undeclared-player",
         "bayesian-utility-undeclared-action", "bayesian-utility-repeated", "trusted-repeated",
         "policy-unknown-key", "type-space-unknown-key", "profile-unknown-key", "entity-unknown-key",
         "prior-unknown-key", "run-unknown-key", "run-misspelt", "scenario-unknown-key",
         "game-unknown-key", "bayesian-prior-unknown-key", "matrix-body-unknown-key",
         "bimatrix-body-unknown-key", "bayesian-body-unknown-key", "signaling-body-unknown-key",
         "bayesian-utility-unknown-key", "prior-scalar", "prior-mapping", "payoff-row-undeclared-col",
         "payoff-row-missing-col", "payoff-row-list", "bimatrix-row-undeclared-col",
         "prior-weights-overflow", "prior-weight-subnormal", "behavior-undeclared-action",
         "behavior-missing-action", "behavior-row-total", "entity-id-repeated", "decay-negative",
         "trusted-mixed-types", "true-type-undeclared", "profile-undeclared", "profile-unhashable"],
)
def test_rejected_document_value_exit_one(
    scenarios_dir, game_specs_dir, tmp_path, capsys, kind, old, new, where
):
    """`where` is the section the diagnostic names, then optionally the key."""
    if kind == "scenario":
        source = scenarios_dir / "apt_stealth.yaml"
    elif "rock" in old:
        source = game_specs_dir / "rock_paper_scissors.yaml"
    elif "honeypot" in old:
        source = game_specs_dir / "honeypot_signaling.yaml"
    elif "probe" in old:
        source = game_specs_dir / "commitment_demo.yaml"
    else:
        source = game_specs_dir / "insider_matching.yaml"
    text = source.read_text()
    assert old in text
    path = tmp_path / "bad.yaml"
    path.write_text(text.replace(old, new, 1))
    flag = "--scenario" if kind == "scenario" else "--game"
    code, out, err = run_cli(["run" if kind == "scenario" else "solve", flag, str(path)], capsys)
    assert code == EXIT_VALIDATION
    assert out == ""
    section, _, key = where.partition(" ")
    assert err.startswith(f"error: [{section}] {key}")
