"""One benchmark process: set-up, warm-up, the timed loop and the checks.

Started by ``run.py`` in a fresh single-threaded environment. Prints one
JSON object as its last stdout line. ``--setup-only`` stops after the
warm-up and reports set-up time alone; ``--trace 1`` runs the loop under
the span tracer, then replays the same rounds untraced to measure the
tracer's overhead.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from pathlib import Path

import speed
from summary import median, percentile

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"

LATENCY_WINDOWS = 5

# End-to-end metrics: name -> (unit, better). setup_s comes from run.py.
END_TO_END = {
    "checks_per_s": ("1/s", "higher"),
    "states_per_s": ("1/s", "higher"),
    "requests_per_s": ("1/s", "higher"),
    "latency_p50_ms": ("ms", "lower"),
    "latency_p99_ms": ("ms", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}


def run_round(workload, r: int, tracer=None, index=None):
    """Run round ``r`` and check its outputs as soon as it ends, outside the
    timed requests; the outputs are then dropped, so memory does not grow
    with the run. ``index``, a :class:`speed.SpeedIndex`, is sampled
    between requests. Returns (request latencies in seconds, verdict).
    """
    from workloads import Record

    records = []
    for req in workload.round(r):
        if index is not None:
            index.mark()
        if tracer is not None:
            span = tracer.begin_request()
        t0 = time.perf_counter()
        out = req.call()
        latency = time.perf_counter() - t0
        if tracer is not None:
            tracer.close(span)
        records.append(Record(req, latency, out))
    return [rec.latency for rec in records], workload.verify(records)


def run_rounds(workload, seconds: float, index=None):
    """Run whole rounds until ``seconds`` have passed; the rounds' results
    and the loop's wall time."""
    done = []
    t_start = time.perf_counter()
    while time.perf_counter() - t_start < seconds:
        done.append(run_round(workload, len(done), index=index))
    wall = time.perf_counter() - t_start
    if index is not None:
        index.mark(force=True)
    return done, wall


def run_traced(workload, seconds: float, tracer):
    """Run each round traced and then again untraced, until the traced
    rounds add up to ``seconds``. Alternating lets both halves see the same
    host speed. Returns the traced rounds' results and the traced and
    untraced wall times."""
    done = []
    traced = untraced = 0.0
    while traced < seconds:
        r = len(done)
        tracer.install()
        try:
            t0 = time.perf_counter()
            done.append(run_round(workload, r, tracer=tracer))
            traced += time.perf_counter() - t0
        finally:
            tracer.uninstall()
        t0 = time.perf_counter()
        run_round(workload, r)
        untraced += time.perf_counter() - t0
    return done, traced, untraced


def throughput_metrics(rounds, slowness: float = 1.0) -> dict[str, float]:
    """End-to-end metrics of one untraced run, from :func:`run_rounds`, with
    every time divided by ``slowness`` (see :mod:`speed`).

    Besides drifting over minutes, the CPU speed a process gets on a
    shared host can swing by 15 % from one second to the next, so every
    figure is a median over parts of the run: rates over rounds (work done
    / time spent in requests), latency percentiles over LATENCY_WINDOWS
    runs of consecutive rounds.
    """
    busy = [sum(latencies) / slowness for latencies, _ in rounds]
    k = min(LATENCY_WINDOWS, len(rounds))
    windows = [
        [
            latency * 1e3 / slowness
            for latencies, _ in rounds[i * len(rounds) // k : (i + 1) * len(rounds) // k]
            for latency in latencies
        ]
        for i in range(k)
    ]
    return {
        "checks_per_s": median(v.checks / b for (_, v), b in zip(rounds, busy)),
        "states_per_s": median(v.states / b for (_, v), b in zip(rounds, busy)),
        "requests_per_s": median(len(lat) / b for (lat, _), b in zip(rounds, busy)),
        "latency_p50_ms": median(percentile(w, 50) for w in windows),
        "latency_p99_ms": median(percentile(w, 99) for w in windows),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def _import_program():
    """Import entrobox from this checkout's ``src``, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import entrobox

    if Path(entrobox.__file__).resolve().parent.parent != src.resolve():
        raise SystemExit(f"entrobox imported from {entrobox.__file__}, not {src}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0", type=float, required=True, help="wall clock at spawn")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    _import_program()
    import workloads

    workdir = OUT_DIR / f"{args.workload}-{os.getpid()}"
    workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
    try:
        g0 = time.time()
        warm = workload.warmup_inputs()
        input_s = time.time() - g0
        workload.warmup(warm)
        setup_s = time.time() - args.t0 - input_s
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0

        workload.prepare()
        if args.trace:
            import tracing

            tracer = tracing.Tracer()
            rounds, wall, untraced_wall = run_traced(workload, args.seconds, tracer)
            metrics = tracer.metrics(wall, untraced_wall)
            units = {k: u for k, (u, _) in tracing.PER_LAYER.items()}
            tracer.write(OUT_DIR / f"trace-{args.workload}.npz")
        else:
            index = speed.SpeedIndex()
            rounds, wall = run_rounds(workload, args.seconds, index=index)
        verdicts = [v for _, v in rounds]
        wrong = [w for v in verdicts for w in v.wrong] + workload.sample_check()
    finally:
        workload.cleanup()

    extra = {}
    if not args.trace:
        slowness = index.slowness()
        metrics = throughput_metrics(rounds, slowness)
        units = {k: u for k, (u, _) in END_TO_END.items()}
        extra = {"slowness": slowness, "unscaled": throughput_metrics(rounds)}
    for line in wrong[:20]:
        print(f"wrong output: {line}", file=sys.stderr)
    print(
        json.dumps(
            {
                "setup_s": setup_s,
                "correct": not wrong,
                "attempted": sum(v.attempted for v in verdicts),
                "failed": sum(v.failed for v in verdicts),
                "rounds": len(rounds),
                "requests": sum(len(lat) for lat, _ in rounds),
                "wall_s": wall,
                "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
                **extra,
            }
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
