"""ncframes benchmark: one command per workload, results as one JSON line.

Run from the repository root:

    python3 perfbench/run.py --workload bulk-pipeline --seed 1 --seconds 30 --trace 0

Workloads (see workloads.py for why each was chosen): bulk-pipeline,
split-corpus, descent-corpus.  Every workload process is a fresh
interpreter pinned to one BLAS thread that imports ncframes from ./src.

--trace 0 starts eight processes, each timed from spawn until its first
timed job is ready (setup_s is the median); the fourth also runs jobs for
--seconds and reports the end-to-end metrics.  Job times are at reference
speed: scaled by a machine-speed probe (probe.py) that cancels the host's
speed swings; the raw values are in the details line.  --trace 1 runs a
fixed job list untraced and then traced, reports the per-layer metrics
and writes the spans to .perfbench-work/.

The last line of stdout is {"correct", "attempted", "failed", "metrics"};
the line before it holds the environment and per-run details.  The exit
code is non-zero, with no result line, when the run cannot be made.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("bulk-pipeline", "split-corpus", "descent-corpus")
# Set-up is timed in fresh processes before and after the timed one, so
# the samples span the run: the host's speed drifts over tens of seconds.
SETUP_BEFORE, SETUP_AFTER = 3, 4
DEADLINE_S = 170.0


class BenchError(Exception):
    pass


def spawn(args, env, deadline) -> dict:
    """Run one worker to completion and return its result line."""
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), *args, "--spawned-at", repr(time.time())],
        stdout=subprocess.PIPE, env=env, text=True,
    )
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError("worker ran past the deadline")
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def run(opts) -> dict:
    root = Path.cwd()
    if not (root / "src" / "ncframes" / "cli.py").is_file():
        raise BenchError("run from a checkout that holds src/ncframes")
    deadline = time.monotonic() + DEADLINE_S
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    work = root / ".perfbench-work"
    workdir = work / f"{opts.workload}-{opts.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    common = ["--workload", opts.workload, "--seed", str(opts.seed),
              "--seconds", str(opts.seconds), "--workdir", str(workdir)]
    try:
        if opts.trace:
            trace_out = work / f"trace-{opts.workload}-seed{opts.seed}.jsonl"
            result = spawn([*common, "--phase", "trace", "--trace-out", str(trace_out)],
                           env, deadline)
            result["details"]["trace_file"] = str(trace_out.relative_to(root))
        else:
            def setup_s():
                return spawn([*common, "--phase", "setup"], env, deadline)["setup_s"]

            setups = [setup_s() for _ in range(SETUP_BEFORE)]
            result = spawn([*common, "--phase", "timed"], env, deadline)
            setups += [result["setup_s"], *(setup_s() for _ in range(SETUP_AFTER))]
            result["metrics"] = {"setup_s": {"value": statistics.median(setups), "unit": "s"},
                                 **result["metrics"]}
            result["details"]["setup_s_samples"] = setups
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = parser.parse_args()
    if opts.seed < 0 or opts.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    # On SIGTERM, unwind through spawn()'s cleanup, which kills the worker.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    try:
        result = run(opts)
    except (BenchError, OSError, ValueError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"workload": opts.workload, "details": result["details"]}))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
