#!/usr/bin/env python3
"""A catalog of mutants of `src/ztsim`, each with the tier-1 tests that must
catch it.

An entry names a file under `src/`, a snippet that must occur in it exactly
once, and the snippet's replacement. For each entry the script copies `src/`
to a temporary directory, applies the edit there and runs each named test
with `PYTHONPATH` pointing at the copy. The mutant is killed when every named
test fails, and survives when one passes. A snippet that does not occur
exactly once is an error, so the catalog must follow refactors.

Usage: python3 scripts/mutants.py
Exits 1 on a survivor or a catalog error.
"""
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

REPO_ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    file: str  # relative to src/
    snippet: str
    replacement: str
    tests: tuple  # tier-1 test ids, each of which must fail


class CatalogError(Exception):
    pass


CATALOG = (
    Mutant(
        "off-path pairs share one key",
        "ztsim/games/signaling.py",
        "keys = np.where(masks != 0, masks, -1 - sig)",
        "keys = np.where(masks != 0, masks, -1)",
        (
            "tests/test_pbe_oracle.py::test_find_pbe_matches_per_profile_reference",
            "tests/test_pbe_oracle.py::test_blocks_of_seven_pairs_match_reference",
            "tests/test_pbe_metamorphic.py::test_reordering_signals_keeps_the_pbe_set",
        ),
    ),
    Mutant(
        "off-path normalizer unguarded",
        "ztsim/games/signaling.py",
        "probs /= (left_sum(probs.T) + off_row)[:, None]",
        "probs /= left_sum(probs.T)[:, None]",
        (
            "tests/test_signaling_games.py::test_find_pbe_honeypot_prior_off_path",
            "tests/test_pbe_oracle.py::test_honeypot_game_matches_reference",
        ),
    ),
    Mutant(
        "belief weights built with np.where",
        "ztsim/games/signaling.py",
        "probs = (combo[p] == k[:, None]) * prior",
        "probs = np.where(combo[p] == k[:, None], prior, 0.0)",
        (
            "tests/test_pbe_oracle.py::test_blocks_of_seven_pairs_keep_signed_zeros_and_boundary_gains",
            "tests/test_pbe_oracle.py::test_beliefs_off_path_once_per_signal_and_on_path_as_signal_posterior",
        ),
    ),
    Mutant(
        "sender deviation of exactly EQ_TOL counted",
        "ztsim/games/signaling.py",
        "(gain > current + EQ_TOL)",
        "(gain >= current + EQ_TOL)",
        ("tests/test_pbe_oracle.py::test_blocks_of_seven_pairs_keep_signed_zeros_and_boundary_gains",),
    ),
    Mutant(
        "pessimistic rule keeps the last tied point belief",
        "ztsim/games/signaling.py",
        "worst_gain < best[0] - EQ_TOL",
        "worst_gain <= best[0] + EQ_TOL",
        ("tests/test_pbe_oracle.py::test_pessimistic_rule_computes_point_replies_once_per_spec",),
    ),
    Mutant(
        "sender rows keep their entries without the distribution rule",
        "ztsim/games/signaling.py",
        "distribution(table(row, (spec.signals,), key), key)[signal]",
        "table(row, (spec.signals,), key)[signal]",
        (
            "tests/test_signaling_games.py::test_signal_posterior_rejects_sender_strategy_naming_the_entry[row_total]",
            "tests/test_signaling_games.py::test_signal_posterior_rejects_sender_strategy_naming_the_entry[entry_above_one]",
            "tests/test_signaling_games.py::test_sender_rows_hold_to_prob_tol",
        ),
    ),
    Mutant(
        "receiver belief length left to zip",
        "ztsim/games/signaling.py",
        'distribution(table(dict(enumerate(probs)), (range(len(spec.types)),), "belief"), "belief")',
        'distribution(dict(enumerate(probs)), "belief")',
        (
            "tests/test_signaling_games.py::test_receiver_best_response_takes_one_probability_per_type[too_few]",
            "tests/test_signaling_games.py::test_receiver_best_response_takes_one_probability_per_type[too_many]",
        ),
    ),
    Mutant(
        "simplex without the Bland fallback",
        "ztsim/games/simplex.py",
        "DEGENERATE_RUN = 50",
        "DEGENERATE_RUN = 10**9",
        (
            "tests/test_simplex_oracle.py::test_beale_1955_lp_reaches_its_optimum[fallback]",
            "tests/test_simplex_oracle.py::test_beale_cycling_lp_terminates_through_the_bland_fallback",
        ),
    ),
    Mutant(
        "score text deduplicated by value",
        "ztsim/sim.py",
        "np.unique(scores.view(np.int64), return_inverse=True)",
        "np.unique(scores, return_inverse=True)",
        ("tests/test_kernel.py::test_score_text_gives_each_distinct_score_its_own_repr",),
    ),
    Mutant(
        "class tables gathered by entity index",
        "ztsim/sim.py",
        "cls = np.tile(self.cls, s_count)",
        "cls = np.tile(np.arange(n), s_count)",
        ("tests/test_kernel.py::test_interleaved_classes_match_the_fold",),
    ),
    Mutant(
        "trusted and untrusted counts swapped in the prior rows",
        "ztsim/sim.py",
        "np.where(trusted, self.n_trusted, len(self.types) - self.n_trusted)",
        "np.where(trusted, len(self.types) - self.n_trusted, self.n_trusted)",
        (
            "tests/test_kernel.py::test_prior_rows_are_the_spread_of_the_composed_prior",
            "tests/test_kernel.py::test_interleaved_classes_match_the_fold",
        ),
    ),
    Mutant(
        "distribution total checked above 1 only",
        "ztsim/errors.py",
        "if abs(total - 1.0) > PROB_TOL:",
        "if total - 1.0 > PROB_TOL:",
        (
            "tests/test_signaling_games.py::test_probability_totals_fold_left_to_right_at_the_bound[rejected-prior]",
            "tests/test_signaling_games.py::test_probability_totals_fold_left_to_right_at_the_bound[rejected-trust_state]",
        ),
    ),
    Mutant(
        "probability clamp drops -0.0",
        "ztsim/errors.py",
        "return min(max(p, 0.0), 1.0)",
        "return min(1.0, max(0.0, p))",
        ("tests/test_pbe_oracle.py::test_blocks_of_seven_pairs_keep_signed_zeros_and_boundary_gains",),
    ),
    Mutant(
        "emit_trace counts one record per write",
        "ztsim/trace.py",
        "chunks, size = _sim_ticks(records), len(records.compiled.ids)",
        "chunks, size = _sim_ticks(records), 1",
        ("tests/test_scenario_format.py::test_emit_sim_trace_failure_counts_whole_ticks",),
    ),
)


def apply(mutant, src):
    """Edit the copy of `src/` at `src` as `mutant` says."""
    path = Path(src) / mutant.file
    text = path.read_text(encoding="utf-8")
    count = text.count(mutant.snippet)
    if count != 1:
        raise CatalogError(f"{mutant.name}: snippet occurs {count} times in {mutant.file}, expected once")
    path.write_text(text.replace(mutant.snippet, mutant.replacement), encoding="utf-8")


def run(mutant):
    """'killed' if every named test fails on a mutated copy of `src/`,
    else 'survived'."""
    with tempfile.TemporaryDirectory(prefix="ztsim-mutant-") as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(REPO_ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
        apply(mutant, src)
        # Hypothesis saves the examples that kill a mutant; keep them out of
        # the repository's database, where tier-1 would replay them.
        env = {**os.environ, "PYTHONPATH": str(src), "HYPOTHESIS_STORAGE_DIRECTORY": str(Path(tmp) / ".hypothesis")}
        for test in mutant.tests:
            argv = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", test]
            proc = subprocess.run(argv, cwd=REPO_ROOT, env=env, capture_output=True, text=True)
            if proc.returncode == 0:
                return "survived"
            if proc.returncode != 1:  # not a test failure: a bad id, a collection error
                raise CatalogError(f"{mutant.name}: pytest {test} exited {proc.returncode}\n{proc.stdout}")
    return "killed"


def main():
    start, failed = time.perf_counter(), False
    for mutant in CATALOG:
        try:
            status = run(mutant)
        except CatalogError as exc:
            status, failed = f"error: {exc}", True
        failed |= status == "survived"
        print(f"{status:9} {mutant.name}", flush=True)
    print(f"{time.perf_counter() - start:.1f} s")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
