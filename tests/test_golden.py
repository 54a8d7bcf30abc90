"""Golden digests: sha256 of the CLI's output bytes for every shipped input.

`ztsim run` is pinned for each scenario at its own seed and over the sweep
`--seeds 0..9` (trace files in seed order, then the metrics document).
`ztsim solve` is pinned for each game spec under every `--mode` and
`--off-path` choice. A digest may change only together with a documented
behaviour change; print the current values with

    PYTHONPATH=src python tests/test_golden.py
"""
import hashlib
import itertools
import pathlib

import pytest

from ztsim.cli import EXIT_OK, main

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
SCENARIOS = ("apt_stealth", "deterministic_attacker")
GAMES = ("commitment_demo", "honeypot_signaling", "insider_matching", "rock_paper_scissors")
MODES = ("pure", "mixed")
OFF_PATH = ("uniform", "prior", "pessimistic")

GOLDEN = {
    "run apt_stealth scenario seed": "bb1754fc302140d74df6a21858c1c8f4e8c4cc5e17347d8dc4ee7c20a6502ab5",
    "run apt_stealth seeds 0..9": "fa200fa8a231f70738e47de2286a6ee659148578fbb6ce2026918ef0143e5654",
    "run deterministic_attacker scenario seed": "7fac802119e89ae15c0305360ff11f216fde883e3afb1c9b74212532a865cd94",
    "run deterministic_attacker seeds 0..9": "87abc5b2ad8cb0cc2b20aa5375ec5936ebd27a29b36ce68bb2a3a6c31a9fa856",
    "solve commitment_demo mixed pessimistic": "55f24c407b111ba3385280f68710d27c1150c15227328e674a93208c433181df",
    "solve commitment_demo mixed prior": "55f24c407b111ba3385280f68710d27c1150c15227328e674a93208c433181df",
    "solve commitment_demo mixed uniform": "55f24c407b111ba3385280f68710d27c1150c15227328e674a93208c433181df",
    "solve commitment_demo pure pessimistic": "a980b3210cc6e24623185a2286e75db7cde71f3423cf28232b8b4989a8e01648",
    "solve commitment_demo pure prior": "a980b3210cc6e24623185a2286e75db7cde71f3423cf28232b8b4989a8e01648",
    "solve commitment_demo pure uniform": "a980b3210cc6e24623185a2286e75db7cde71f3423cf28232b8b4989a8e01648",
    "solve honeypot_signaling mixed pessimistic": "6c8bc5ab72b35b527eb2c1e6e642d6b83da303c9354dfa6de69bdcadaac3e99c",
    "solve honeypot_signaling mixed prior": "ffa7c020657a1fcb59607c76dae1ebfa0cf1de5de7eac84df1bcfdd1d5ed19b4",
    "solve honeypot_signaling mixed uniform": "b662824df7357a5bf7ee370865b1006ab7292dab1a009cffde7873968ee83962",
    "solve honeypot_signaling pure pessimistic": "6c8bc5ab72b35b527eb2c1e6e642d6b83da303c9354dfa6de69bdcadaac3e99c",
    "solve honeypot_signaling pure prior": "ffa7c020657a1fcb59607c76dae1ebfa0cf1de5de7eac84df1bcfdd1d5ed19b4",
    "solve honeypot_signaling pure uniform": "b662824df7357a5bf7ee370865b1006ab7292dab1a009cffde7873968ee83962",
    "solve insider_matching mixed pessimistic": "9e8ddc682cc4089b9b920c85cdc7ba4e150fab5aa70df993ca1ad63c37f58fcb",
    "solve insider_matching mixed prior": "9e8ddc682cc4089b9b920c85cdc7ba4e150fab5aa70df993ca1ad63c37f58fcb",
    "solve insider_matching mixed uniform": "9e8ddc682cc4089b9b920c85cdc7ba4e150fab5aa70df993ca1ad63c37f58fcb",
    "solve insider_matching pure pessimistic": "9e8ddc682cc4089b9b920c85cdc7ba4e150fab5aa70df993ca1ad63c37f58fcb",
    "solve insider_matching pure prior": "9e8ddc682cc4089b9b920c85cdc7ba4e150fab5aa70df993ca1ad63c37f58fcb",
    "solve insider_matching pure uniform": "9e8ddc682cc4089b9b920c85cdc7ba4e150fab5aa70df993ca1ad63c37f58fcb",
    "solve rock_paper_scissors mixed pessimistic": "c4a8627a8248e96fe78bad0c965ff4da5986b245ef26fede7fd3b55b8bf3c9de",
    "solve rock_paper_scissors mixed prior": "c4a8627a8248e96fe78bad0c965ff4da5986b245ef26fede7fd3b55b8bf3c9de",
    "solve rock_paper_scissors mixed uniform": "c4a8627a8248e96fe78bad0c965ff4da5986b245ef26fede7fd3b55b8bf3c9de",
    "solve rock_paper_scissors pure pessimistic": "c4a8627a8248e96fe78bad0c965ff4da5986b245ef26fede7fd3b55b8bf3c9de",
    "solve rock_paper_scissors pure prior": "c4a8627a8248e96fe78bad0c965ff4da5986b245ef26fede7fd3b55b8bf3c9de",
    "solve rock_paper_scissors pure uniform": "c4a8627a8248e96fe78bad0c965ff4da5986b245ef26fede7fd3b55b8bf3c9de",
}


def _run_digest(name, sweep, tmp):
    out, met = tmp / "trace.jsonl", tmp / "metrics.json"
    argv = ["run", "--scenario", str(REPO_ROOT / "scenarios" / f"{name}.yaml")]
    argv += ["--out", str(out), "--metrics", str(met)]
    seeds = range(10) if sweep else [None]
    if sweep:
        argv += ["--seeds", "0..9"]
    assert main(argv) == EXIT_OK
    h = hashlib.sha256()
    for seed in seeds:
        trace = out if seed is None else out.with_name(f"trace.seed{seed}.jsonl")
        h.update(trace.read_bytes())
    h.update(met.read_bytes())
    return h.hexdigest()


def _solve_digest(name, mode, off_path, tmp):
    out = tmp / "solve.jsonl"
    argv = ["solve", "--game", str(REPO_ROOT / "game_specs" / f"{name}.yaml")]
    argv += ["--mode", mode, "--off-path", off_path, "--out", str(out)]
    assert main(argv) == EXIT_OK
    return hashlib.sha256(out.read_bytes()).hexdigest()


def _cases():
    for name, sweep in itertools.product(SCENARIOS, (False, True)):
        key = f"run {name} {'seeds 0..9' if sweep else 'scenario seed'}"
        yield key, lambda tmp, n=name, s=sweep: _run_digest(n, s, tmp)
    for name, mode, off_path in itertools.product(GAMES, MODES, OFF_PATH):
        key = f"solve {name} {mode} {off_path}"
        yield key, lambda tmp, n=name, m=mode, o=off_path: _solve_digest(n, m, o, tmp)


CASES = dict(_cases())


@pytest.mark.parametrize("key", sorted(CASES))
def test_golden_digest(key, tmp_path):
    assert CASES[key](tmp_path) == GOLDEN[key]


def test_every_case_is_pinned():
    assert set(GOLDEN) == set(CASES)


if __name__ == "__main__":
    import tempfile

    for key in sorted(CASES):
        with tempfile.TemporaryDirectory() as tmp:
            print(f'    "{key}": "{CASES[key](pathlib.Path(tmp))}",')
