"""Benchmark for relcat: one workload per call, timed end to end.

    python3 relbench/run.py --workload otp --seed 1 --seconds 15 --trace 0

Run from the root of a relcat checkout.  The workload runs in a child
process of its own (`worker.py`) with one thread.  With ``--trace 0`` the
last line printed is a JSON object with the end-to-end metrics wall_s,
peak_rss_mb and setup_s; with ``--trace 1`` it holds the per-layer metrics
instead.  setup_s is the median over fresh interpreters, each importing
relcat and building the workload's inputs.  Times are scaled to a
reference machine speed measured by a calibration loop (see worker.py).
Results go to ``relbench/out/``.  README.md in this directory describes
the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("otp", "dh", "synth", "files")
SETUP_PROBES = 9
WORKER_TIMEOUT_S = 150
PROBE_TIMEOUT_S = 20


def worker(args, extra: list[str], timeout: float) -> dict:
    """Run worker.py to completion and return its last output line."""
    env = dict(os.environ)
    env.update(
        PYTHONHASHSEED="0",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    workdir = HERE / "out" / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    command = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--workdir", str(workdir), *extra,
    ]
    done = subprocess.run(
        command, cwd=ROOT, env=env, stdout=subprocess.PIPE, timeout=timeout, text=True
    )
    if done.returncode != 0:
        raise RuntimeError(f"worker exited with code {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "relcat" / "__init__.py").is_file():
        print(f"error: no relcat sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    extra = ["--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        extra += ["--spans", str(out / f"spans-{args.workload}-seed{args.seed}.tsv.gz")]
    try:
        result = worker(args, extra, WORKER_TIMEOUT_S)
        if not args.trace:
            probes = [worker(args, ["--probe"], PROBE_TIMEOUT_S) for _ in range(SETUP_PROBES)]
            result["metrics"]["setup_s"] = {
                "value": statistics.median(p["setup_s"] for p in probes),
                "unit": "s",
            }
            result["setup_probes"] = probes
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    (out / f"result-{tag}.json").write_text(json.dumps(result, indent=1) + "\n")
    print(json.dumps({key: result[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
