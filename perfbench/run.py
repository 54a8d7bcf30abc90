"""ztsim benchmark: drives the real CLI (``ztsim.cli.main``) on seeded,
generated inputs, checks every output, and reports end-to-end metrics or,
with ``--trace 1``, per-layer metrics from a traced run.

    python3 perfbench/run.py --workload solve --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --all --seed 1          # every workload in turn

Run from the repository root. The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics; the lines before
it are the human-readable report and the run's provenance. The full result,
with per-file output digests and failures by group, goes to
``.perfbench_out/result-<workload>-seed<N>-trace<T>.json``.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_ROOT = ROOT / ".perfbench_out"
SETUP_REPS = 4
CHILD_TIMEOUT_S = 150

sys.path.insert(0, str(Path(__file__).resolve().parent))


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


def _benchmark_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _child(*args):
    env = dict(os.environ, PYTHONHASHSEED="0")
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).with_name("child.py")), *map(str, args)],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise BenchError(f"measuring process failed ({proc.returncode}): {proc.stderr[-2000:]}")


def _percentile(values, q):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    idx = max(0, min(len(ordered) - 1, int(round(q / 100.0 * len(ordered) + 0.5)) - 1))
    return ordered[idx]


def _stated_percentile(values):
    """The highest of p90/p99 with at least ten samples beyond it, else the
    maximum."""
    n = len(values)
    for q in (99, 90):
        if n * (100 - q) / 100.0 >= 10:
            return f"p{q}", _percentile(values, q)
    return "max", max(values)


def _git_sha():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        ref = ref[5:]
        ref_file = ROOT / ".git" / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def provenance(workload, seed, seconds, trace, input_digests, output_digests):
    import hashlib

    import numpy
    import yaml

    from workloads import SWEEP_SCENARIO, SWEEP_SCENARIO_SHA256, sha256_file

    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "ztsim").rglob("*.py")):
        src.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())

    def combined(digests):
        h = hashlib.sha256()
        for name in sorted(digests):
            h.update(f"{name} {digests[name]}\n".encode())
        return h.hexdigest()

    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "git_sha": _git_sha(),
        "src_sha256": src.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "pyyaml": yaml.__version__,
        "libyaml": bool(getattr(yaml, "__with_libyaml__", False)),
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "sweep_scenario_pinned": sha256_file(ROOT / SWEEP_SCENARIO) == SWEEP_SCENARIO_SHA256,
        "inputs_sha256": combined(input_digests),
        "outputs_sha256": combined(output_digests),
    }


def _timed(passes):
    return passes[1:]  # the first pass is the warm-up


def _account(wl, result, check_results, label):
    """(attempted, failed, per-group failures, notes) over every pass of one
    measuring process. A call's ops fail in a pass when it exited nonzero, or
    its outputs differ from the checked (last) pass, or the check failed."""
    passes = result["passes"]
    final = passes[-1]["digests"]
    attempted = failed = 0
    by_group = {}
    notes = []
    for p_idx, rec in enumerate(passes):
        for c_idx, call in enumerate(wl.calls):
            rc, digest = rec["rcs"][c_idx], rec["digests"][c_idx]
            for op in call.ops:
                attempted += 1
                errors = check_results[op.label]
                bad = rc != 0 or digest != final[c_idx] or bool(errors)
                if bad:
                    failed += 1
                    by_group[op.group] = by_group.get(op.group, 0) + 1
                    if p_idx == len(passes) - 1 and len(notes) < 20:
                        why = errors[0] if errors else (f"exit {rc}" if rc != 0 else "output differs between passes")
                        notes.append(f"{label} {op.label}: {why}")
    return attempted, failed, by_group, notes


def _check_outputs(wl, result, outdir):
    out = {}
    final_rcs = result["passes"][-1]["rcs"]
    for c_idx, call in enumerate(wl.calls):
        for op in call.ops:
            if final_rcs[c_idx] != 0:
                out[op.label] = [f"exit {final_rcs[c_idx]}"]
                continue
            try:
                out[op.label] = op.check(outdir)
            except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
                out[op.label] = [f"unreadable output: {type(exc).__name__}: {exc}"]
    return out


def _output_digests(wl, outdir):
    from workloads import sha256_file

    digests = {}
    for call in wl.calls:
        for path in call.outputs:
            p = Path(path.replace("{out}", str(outdir)))
            digests[p.name] = sha256_file(p) if p.is_file() else "<missing>"
    return digests


def _metric(value, unit, stat, samples):
    return {"value": value, "unit": unit, "stat": stat, "samples": samples}


def end_to_end(wl, result, setup_values):
    """A pass's time is the sum over its CLI calls of each call's fastest run
    over the timed passes. On a shared machine call times swing up to 2x in
    bursts shorter than a second; the fastest run of each call is the
    steadiest estimate of the program's own cost (README.md, "Statistics")."""
    timed = _timed(result["passes"])
    walls = [p["wall_s"] for p in timed]
    best = sum(min(calls) for calls in zip(*(p["latencies_s"] for p in timed)))
    ops = wl.ops_per_pass
    metrics = {
        "setup_s": _metric(statistics.median(setup_values), "s", "median", setup_values),
        "wall_s": _metric(best, "s", "sum of per-call minima", walls),
        "ops_per_s": _metric(ops / best, "1/s", "ops / wall_s", [ops / w for w in walls]),
        "peak_rss_mb": _metric(result["peak_rss_mb"], "MB", "value", [result["peak_rss_mb"]]),
    }
    if wl.entity_ticks:
        ticks = wl.entity_ticks
        metrics["entity_ticks_per_s"] = _metric(ticks / best, "1/s", "ticks / wall_s", [ticks / w for w in walls])
    else:
        lat_ms = [x * 1000.0 for p in timed for x in p["latencies_s"]]
        metrics["solves_per_s"] = metrics["ops_per_s"]
        metrics["solve_p50_ms"] = _metric(statistics.median(lat_ms), "ms", "median", lat_ms)
        metrics["solve_p90_ms"] = _metric(_percentile(lat_ms, 90), "ms", "p90", lat_ms)
    return metrics


def per_layer(result, untraced):
    """Layer metrics of the fastest traced pass, so that they add up within
    one pass; trace_overhead_s compares it with the fastest untraced pass."""
    from collections import Counter

    import spans

    timed = _timed(result["passes"])
    fastest = min(timed, key=lambda p: p["wall_s"])
    metrics = {}
    for name, unit, _ in spans.layer_metrics({}, Counter()):
        values = [p["layers"][name] for p in timed]
        metrics[name] = _metric(fastest["layers"][name], unit, "fastest pass", values)
    untraced_best = min(p["wall_s"] for p in _timed(untraced["passes"]))
    overheads = [p["wall_s"] - untraced_best for p in timed]
    metrics["trace_overhead_s"] = _metric(fastest["wall_s"] - untraced_best, "s", "fastest pass", overheads)
    return metrics


def _measure_setup(manifest, work, reps, tag):
    values = []
    for i in range(reps):
        path = work / f"setup-{tag}{i}.json"
        _child("setup", manifest, path)
        setup = json.loads(path.read_text())
        if not Path(setup["ztsim"]).resolve().is_relative_to(ROOT / "src"):
            raise BenchError(f"imported ztsim from {setup['ztsim']}, not from {ROOT / 'src'}")
        values.append(setup["setup_s"])
    return values


def run_workload(name, seed, seconds, trace):
    import workloads

    if not (ROOT / "src" / "ztsim" / "__init__.py").is_file():
        raise BenchError(f"no ztsim sources under {ROOT / 'src'}; run from a ztsim checkout")
    OUT_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{name}-seed{seed}-", dir=OUT_ROOT))
    try:
        wl = workloads.WORKLOADS[name](seed, ROOT, work)
        manifest = work / "manifest.json"
        manifest.write_text(json.dumps(wl.manifest()), encoding="utf-8")
        input_digests = {Path(p).name: workloads.sha256_file(p) for _, p in wl.inputs}

        # Half the set-up processes run before and half after the measurement,
        # so they do not all fall into one phase of machine load.
        reps = 0 if trace else SETUP_REPS // 2
        setup_values = _measure_setup(manifest, work, reps, "a")
        runs = [("untraced", work / "out", seconds / 2 if trace else seconds, 0)]
        if trace:
            runs.append(("traced", work / "out_traced", seconds / 2, 1))
        results = {}
        for label, outdir, secs, traced in runs:
            outdir.mkdir()
            args = ["measure", manifest, work / f"{label}.json", outdir, secs, traced]
            if traced:
                args.append(OUT_ROOT / f"{name}.spans.npz")
            _child(*args)
            results[label] = json.loads((work / f"{label}.json").read_text())

        setup_values += _measure_setup(manifest, work, reps, "b")

        checked = _check_outputs(wl, results["untraced"], work / "out")
        attempted = failed = 0
        by_group, notes = {}, []
        for label, *_ in runs:
            a, f, g, n = _account(wl, results[label], checked, label)
            attempted, failed = attempted + a, failed + f
            for k, v in g.items():
                by_group[k] = by_group.get(k, 0) + v
            notes += n
        output_digests = _output_digests(wl, work / "out")
        correct = failed == 0
        if trace:
            traced_digests = _output_digests(wl, work / "out_traced")
            if traced_digests != output_digests:
                correct = False
                notes.append("outputs differ between the traced and the untraced run")

        if trace:
            metrics = per_layer(results["traced"], results["untraced"])
            wanted = [m["name"] for m in _benchmark_spec()["per_layer"]]
        else:
            metrics = end_to_end(wl, results["untraced"], setup_values)
            wanted = [m["name"] for m in _benchmark_spec()["end_to_end"]]
        prov = provenance(name, seed, seconds, trace, input_digests, output_digests)

        print(f"== {name}  seed={seed}  seconds={seconds}  trace={trace}")
        for key, m in metrics.items():
            samples = m["samples"]
            label, stat = _stated_percentile(samples)
            print(
                f"   {key:42s} {m['value']:14.6g} {m['unit']:6s} {m['stat']} of n={len(samples)};"
                f" median {statistics.median(samples):.6g}; {label} {stat:.6g}"
            )
        print(f"   {'failed_frac':42s} {failed / max(attempted, 1):14.6g} {'ratio':6s} {failed} of {attempted} operations")
        for group in sorted(by_group):
            print(f"     failed in {group}: {by_group[group]}")
        for note in notes:
            print(f"     {note}")
        full = {
            "provenance": prov,
            "correct": correct,
            "attempted": attempted,
            "failed": failed,
            "failed_by_group": by_group,
            "notes": notes,
            "metrics": metrics,
            "input_sha256": input_digests,
            "output_sha256": output_digests,
        }
        (OUT_ROOT / f"result-{name}-seed{seed}-trace{trace}.json").write_text(
            json.dumps(full, indent=1), encoding="utf-8"
        )
        print("provenance " + json.dumps(prov))
        return {
            "correct": correct,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": metrics[k]["value"], "unit": metrics[k]["unit"]} for k in wanted},
        }
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main(argv=None):
    import workloads

    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    which = parser.add_mutually_exclusive_group(required=True)
    which.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    which.add_argument("--all", action="store_true", help="run every workload in turn")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        seconds = args.seconds if args.seconds is not None else _benchmark_spec()["run_seconds"]
        if args.workload:
            result = run_workload(args.workload, args.seed, seconds, args.trace)
            print(json.dumps(result))
            return 0
        names = [w["name"] for w in _benchmark_spec()["workloads"]]
        names += [w for w in workloads.WORKLOADS if w not in names]
        ok = True
        for name in names:
            result = run_workload(name, args.seed, seconds, args.trace)
            ok = ok and result["correct"]
            print(json.dumps(result))
        return 0 if ok else 1
    except (BenchError, OSError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
