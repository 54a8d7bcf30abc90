#!/usr/bin/env python3
"""Sweep the stealth scenario over many seeds and summarize how well the
policy separates trusted entities from the implanted adversary.

Usage: python3 scripts/run_stealth_sweep.py [--seeds N] [--scenario PATH]
"""
import argparse
import statistics
from pathlib import Path

from ztsim.scenario import load_scenario
from ztsim.sim import compute_metrics, run_seeds

DEFAULT_SCENARIO = Path(__file__).resolve().parent.parent / "scenarios" / "apt_stealth.yaml"


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", type=int, default=100, help="number of seeds, at least 1")
    parser.add_argument("--scenario", type=Path, default=DEFAULT_SCENARIO)
    args = parser.parse_args()
    if args.seeds < 1:  # no seed leaves the medians below undefined
        parser.error(f"argument --seeds: must be at least 1, got {args.seeds}")

    scenario = load_scenario(args.scenario)
    finals = {e.id: [] for e in scenario.entities}
    detections = {e.id: 0 for e in scenario.entities}
    # One compiled scenario for the whole sweep, as `ztsim run --seeds` does.
    for metrics in map(compute_metrics, run_seeds(scenario, range(args.seeds))):
        for eid, m in metrics.per_entity.items():
            finals[eid].append(m.final_score)
            if m.time_to_detection is not None:
                detections[eid] += 1

    print(f"scenario: {args.scenario.name}  seeds: {args.seeds}  horizon: {scenario.horizon}")
    print(f"{'entity':<12} {'type':<10} {'median final':>12} {'detected runs':>14}")
    for e in scenario.entities:
        print(
            f"{e.id:<12} {e.true_type:<10} "
            f"{statistics.median(finals[e.id]):>12.4f} "
            f"{f'{detections[e.id]}/{args.seeds}':>14}"
        )

    trusted = [s for e in scenario.entities if e.true_type in scenario.space.trusted for s in finals[e.id]]
    hostile = [s for e in scenario.entities if e.true_type not in scenario.space.trusted for s in finals[e.id]]
    print()
    for label, scores in (("trusted", trusted), ("adversarial", hostile)):
        median = f"{statistics.median(scores):.4f}" if scores else "none (no such entity)"
        print(f"{f'median {label} final score:':<32}{median}")


if __name__ == "__main__":
    main()
