"""Measuring process, started fresh by run.py for every measurement.

    python3 child.py setup   <manifest.json> <result.json>
    python3 child.py measure <manifest.json> <result.json> <outdir> <seconds> <traced 0|1> [<spans.npz>]

``setup`` times ``import ztsim`` plus one load of every input. ``measure``
runs the workload's CLI calls in passes, one call after the other on one
thread, until ``seconds`` have passed. The first pass is a warm-up and is not
timed. Output digests are taken after each pass, outside the timed region.
"""
import signal
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
# A call that runs longer fails. ztsim 0.1.0's simplex can hang on extreme
# payoff scales (a 16x16 Stackelberg game at 1e9 did not finish in 20 s).
CALL_LIMIT_S = 10.0


class CallTimeout(BaseException):
    """Raised by SIGALRM; not an Exception, so no handler in the program
    swallows it."""


def _on_alarm(signum, frame):
    raise CallTimeout()


def setup(manifest):
    t0 = time.perf_counter()
    import ztsim

    for kind, path in manifest["inputs"]:
        (ztsim.load_scenario if kind == "scenario" else ztsim.load_game)(path)
    return {"setup_s": time.perf_counter() - t0, "ztsim": ztsim.__file__}


def _call(cli, argv):
    signal.setitimer(signal.ITIMER_REAL, CALL_LIMIT_S)
    try:
        return cli.main(argv)
    except CallTimeout:
        return "timeout"
    except SystemExit as exc:  # argparse rejects the argv
        return exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # a traceback the CLI let escape: a failed operation
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return type(exc).__name__
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)


def measure(manifest, outdir, seconds, traced, spans_path):
    import gc
    import hashlib
    import resource

    import ztsim.cli as cli

    signal.signal(signal.SIGALRM, _on_alarm)
    tracer = None
    if traced:
        import spans

        tracer = spans.Tracer()
        spans.install(tracer)
    calls = [
        ([a.replace("{out}", outdir) for a in c["argv"]], [o.replace("{out}", outdir) for o in c["outputs"]])
        for c in manifest["calls"]
    ]
    passes = []
    begin = time.perf_counter()
    while len(passes) < 2 or time.perf_counter() - begin < seconds:
        gc.collect()
        mark = tracer.mark() if tracer else None
        rcs, latencies = [], []
        t_pass = time.perf_counter()
        for i, (argv, _) in enumerate(calls):
            if tracer:
                tracer.op_id = len(passes) * len(calls) + i
            t0 = time.perf_counter()
            rcs.append(_call(cli, argv))
            latencies.append(time.perf_counter() - t0)
        wall = time.perf_counter() - t_pass
        digests = []
        for _, outputs in calls:
            h = hashlib.sha256()
            for path in outputs:
                try:
                    h.update(Path(path).read_bytes())
                except OSError:
                    h.update(b"<missing>")
            digests.append(h.hexdigest())
        record = {
            "wall_s": wall,
            "latencies_s": latencies,
            "rcs": rcs,
            "digests": digests,
        }
        if tracer:
            lo, before = mark
            hi = len(tracer.start)
            layers = spans.layer_metrics(tracer.layer_times(lo, hi), tracer.counts - before)
            record["layers"] = {name: value for name, _, value in layers}
        passes.append(record)
    result = {
        "passes": passes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ztsim": cli.__file__,
    }
    if tracer and spans_path:
        tracer.save(spans_path)
    return result


def main(argv):
    import json

    mode, manifest_path, result_path = argv[:3]
    manifest = json.loads(Path(manifest_path).read_text(encoding="utf-8"))
    if mode == "setup":
        result = setup(manifest)
    else:
        outdir, seconds, traced = argv[3], float(argv[4]), argv[5] == "1"
        result = measure(manifest, outdir, seconds, traced, argv[6] if len(argv) > 6 else None)
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
