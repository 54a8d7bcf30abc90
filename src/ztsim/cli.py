"""Command-line entry points.

    ztsim run --scenario <path> [--seed N | --seeds A..B] [--out <path>] [--metrics <path>]
    ztsim solve --game <path> [--mode pure|mixed] [--off-path uniform|prior|pessimistic] [--out <path>]

Exit codes: 0 success, 1 validation error, 2 runtime error, 3 enumeration
budget exceeded. Diagnostics go to stderr. All randomness flows from the
scenario seed (or its --seed/--seeds override); the CLI adds no entropy.
"""
from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

from .errors import EnumerationBudgetExceeded, ScenarioFormatError, TraceWriteError, ZtsimError
from .games import (
    BayesianGameSpec,
    BimatrixGame,
    MatrixGame,
    SignalingGameSpec,
    find_bne,
    find_pbe,
    solve_stackelberg,
    solve_zero_sum,
)
from .gamespec import load_game
from .scenario import load_scenario
# cmd_run batches seeds through run_seeds and writes metrics with metrics_text;
# `run` and `metrics_to_dict` stay names here for code that wraps them, such as
# perfbench/spans.py. For the same reason `main` looks up `cmd_run` and
# `cmd_solve` by name at call time, so a wrapper put on either after import runs.
from .sim import compute_metrics, run, run_seeds  # noqa: F401
from .trace import emit_metrics, emit_trace, metrics_text, metrics_to_dict, solver_record  # noqa: F401

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_RUNTIME = 2
EXIT_BUDGET = 3


def _parse_seeds(spec):
    if ".." not in spec:
        raise ValueError(f"--seeds expects A..B, got {spec!r}")
    lo, hi = spec.split("..", 1)
    try:
        lo, hi = int(lo), int(hi)
    except ValueError:
        raise ValueError(f"--seeds expects A..B with integer bounds, got {spec!r}") from None
    if hi < lo:
        raise ValueError(f"--seeds range is empty: {spec!r}")
    if lo < 0:
        raise ValueError(f"--seeds bounds must be non-negative, got {spec!r}")
    return range(lo, hi + 1)


def _seeds(args, scenario):
    if args.seeds is not None:
        return list(_parse_seeds(args.seeds))
    if args.seed is not None and args.seed < 0:
        raise ValueError(f"--seed must be non-negative, got {args.seed}")
    return [args.seed if args.seed is not None else scenario.seed]


def _seeded_path(path, seed):
    p = Path(path)
    return p.with_name(f"{p.stem}.seed{seed}{p.suffix}")


def _write_trace(records, out_path):
    """emit_trace to stdout or to a new file; a file that cannot be opened
    is a sink failure before the first record."""
    if out_path is None:
        return emit_trace(records, sys.stdout)
    try:
        fh = open(out_path, "w", encoding="utf-8", newline="\n")
    except OSError as exc:
        raise TraceWriteError(0, exc) from exc
    with fh:
        return emit_trace(records, fh)


def cmd_run(args) -> int:
    scenario = load_scenario(args.scenario)
    try:
        seeds = _seeds(args, scenario)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION

    sweep = len(seeds) > 1
    chunks = []  # metrics text per seed, written once every seed has run
    try:
        for seed, trace in zip(seeds, run_seeds(scenario, seeds)):
            out_path = args.out
            if out_path is not None and sweep:
                out_path = _seeded_path(out_path, seed)
            if out_path is not None or not sweep:
                _write_trace(trace, out_path)
            if args.metrics is not None:
                chunks.append(metrics_text(trace, compute_metrics(trace)))
    except ZtsimError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME

    if args.metrics is not None:
        try:
            with open(args.metrics, "w", encoding="utf-8", newline="\n") as fh:
                emit_metrics(chunks, fh, seeds if sweep else None)
        except OSError as exc:
            print(f"error: cannot write metrics: {exc}", file=sys.stderr)
            return EXIT_RUNTIME
    return EXIT_OK


def _solve_records(game, mode, off_path):
    if isinstance(game, MatrixGame):
        sol = solve_zero_sum(game)
        yield solver_record(
            "zero_sum",
            value=sol.value,
            row_strategy=dict(zip(game.row_labels, sol.row_strategy.weights)),
            col_strategy=dict(zip(game.col_labels, sol.col_strategy.weights)),
        )
    elif isinstance(game, BimatrixGame):
        sol = solve_stackelberg(game, mode=mode)
        yield solver_record(
            "stackelberg",
            mode=sol.mode,
            leader_strategy=dict(zip(game.row_labels, sol.leader_strategy.weights)),
            follower_action=game.col_labels[sol.follower_action],
            leader_value=sol.leader_value,
            follower_value=sol.follower_value,
        )
    elif isinstance(game, BayesianGameSpec):
        equilibria = find_bne(game)
        yield solver_record("bne_summary", count=len(equilibria))
        for eq in equilibria:
            yield solver_record(
                "bne",
                strategy={p: dict(tmap) for p, tmap in eq.choices},
            )
    elif isinstance(game, SignalingGameSpec):
        results = find_pbe(game, off_path_rule=off_path)
        yield solver_record(
            "pbe_summary",
            count=len(results),
            classifications=sorted({r.classification for r in results}),
            off_path_rule=off_path,
        )
        for r in results:
            yield solver_record(
                "pbe",
                classification=r.classification,
                sender_strategy=dict(r.sender_strategy),
                receiver_strategy=dict(r.receiver_strategy),
                beliefs={
                    s: {
                        "probs": dict(zip(game.types, b.probs)),
                        "on_path": b.on_path,
                    }
                    for s, b in r.beliefs.by_signal
                },
            )
    else:  # pragma: no cover - parse_game only returns the four kinds
        raise ZtsimError(f"unsupported game object {type(game).__name__}")


def cmd_solve(args) -> int:
    game = load_game(args.game)
    try:
        records = list(_solve_records(game, args.mode, args.off_path))
        _write_trace(records, args.out)
    except EnumerationBudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except ZtsimError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="ztsim", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a scenario simulation")
    p_run.add_argument("--scenario", required=True, help="scenario YAML path")
    seeds = p_run.add_mutually_exclusive_group()
    seeds.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    seeds.add_argument("--seeds", default=None, help="seed sweep A..B (inclusive)")
    p_run.add_argument("--out", default=None, help="trace output path (default stdout)")
    p_run.add_argument("--metrics", default=None, help="metrics JSON output path")

    p_solve = sub.add_parser("solve", help="solve a game spec")
    p_solve.add_argument("--game", required=True, help="game spec YAML path")
    p_solve.add_argument("--mode", choices=("pure", "mixed"), default="mixed")
    p_solve.add_argument(
        "--off-path", choices=("uniform", "prior", "pessimistic"), default="uniform"
    )
    p_solve.add_argument("--out", default=None, help="result output path (default stdout)")
    return parser


@functools.cache
def _parser():
    """The parser every `main` call uses, built on the first: parsing leaves
    no state in it. `build_parser` stays uncached, so its callers own theirs."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    command = cmd_run if args.command == "run" else cmd_solve
    try:
        return command(args)
    except ScenarioFormatError as exc:  # raised only while loading the document
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
