"""entrobox benchmark entry point.

    python3 perfbench/run.py --workload {sweep,eval} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout. Each workload runs in a fresh worker
process with one thread (ENTROBOX_THREADS unset, BLAS pinned to one
thread). With ``--trace 0`` the end-to-end metrics are printed, their
times divided by the host slowness measured during the run (speed.py);
set-up time is the median over SETUP_REPEATS set-up-only processes and
the measuring one. With ``--trace 1`` a traced worker prints the per-layer
metrics. The last stdout line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

from summary import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("sweep", "eval")
SETUP_REPEATS = 4
# Every run, set-up processes included, must end well inside 180 s.
DEADLINE_S = 170.0


def worker_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("ENTROBOX_THREADS", None)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def spawn(args: argparse.Namespace, deadline: float, *extra: str) -> dict:
    """Run one worker to completion; its last stdout line, parsed."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise TimeoutError("no time left for another worker")
    cmd = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        *extra,
    ]
    proc = subprocess.run(
        cmd + ["--t0", repr(time.time())],
        cwd=ROOT,
        env=worker_env(),
        stdout=subprocess.PIPE,
        text=True,
        timeout=remaining,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "entrobox" / "__init__.py").is_file():
        print(f"error: no entrobox sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    try:
        setups = []
        if not args.trace:
            setups = [spawn(args, deadline, "--setup-only") for _ in range(SETUP_REPEATS)]
        result = spawn(args, deadline)
    except (RuntimeError, TimeoutError, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    metrics = result["metrics"]
    print(
        f"{args.workload}: {result['requests']} requests in {result['rounds']} rounds, "
        f"{result['wall_s']:.2f} s",
        file=sys.stderr,
    )
    if not args.trace:
        # Set-up ran just before the measuring loop, so the loop's host
        # slowness scales it too.
        setup_s = median(s["setup_s"] for s in setups + [result])
        metrics["setup_s"] = {"value": setup_s / result["slowness"], "unit": "s"}
        unscaled = dict(result["unscaled"], setup_s=setup_s)
        print(
            f"host slowness {result['slowness']:.4f}; unscaled: {json.dumps(unscaled)}",
            file=sys.stderr,
        )
    print(
        json.dumps(
            {
                "correct": result["correct"],
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
