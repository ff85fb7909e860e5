"""One workload process: set up, signal readiness, then run one phase.

Started by run.py in a fresh interpreter with PYTHONPATH pointing at the
checkout's src/.  Its set-up time runs from --spawned-at (the parent's
time.time() just before the spawn) until the first timed job could start:
imports done, inputs built, one untimed warm-up job run.  It prints one
JSON line with its results when the phase ends.

Phases:
  setup  report the set-up time only; run.py takes the median of several.
  timed  run units of jobs until --seconds have passed and at least
         MIN_JOBS jobs are done; report the end-to-end metrics.

Job times are reported at reference speed (probe.py), beside their raw
values.  Set-up time is raw: it is mostly imports and file reads, which
the probe does not track (over ten runs its spread was 0.24 scaled, 0.10
raw).
  trace  run a fixed list of jobs three times: to warm up, untraced and
         traced; report the per-layer metrics and write the spans.
"""

import os

# BLAS reads these once, when numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import metrics  # noqa: E402
from probe import SpeedProbe  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, run_jobs  # noqa: E402

HERE = Path(__file__).resolve().parent

# p90 needs MIN_TAIL = 10 samples beyond it.
MIN_JOBS = 100


def environment(seed: int) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "nproc": len(os.sched_getaffinity(0)),
        "commit": git_commit(Path.cwd()),
        "seed": seed,
    }


def git_commit(root: Path) -> str:
    """The checked-out commit, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def timed_phase(workload, seconds: float, probe: SpeedProbe):
    results = []
    start = time.perf_counter()
    cycle = 0
    while True:
        for unit in workload.units(cycle):
            results += run_jobs(unit, probe=probe)
            wall = time.perf_counter() - start
            if wall >= seconds and len(results) >= MIN_JOBS:
                return results, wall
        cycle += 1


def trace_phase(workload, trace_out: Path, probe: SpeedProbe):
    jobs = [job for cycle in range(workload.trace_cycles)
            for unit in workload.units(cycle) for job in unit]
    run_jobs(jobs)  # keeps first-use costs out of both measured passes
    untraced = run_jobs(jobs, probe=probe)
    tracer = Tracer()
    tracer.install()
    try:
        traced = run_jobs(jobs, tracer, probe)
    finally:
        tracer.uninstall()
    tracer.write(trace_out)
    mismatched = sum(a.record != b.record for a, b in zip(untraced, traced))
    return untraced, traced, tracer, mismatched


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--phase", choices=("setup", "timed", "trace"), required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--trace-out", type=Path)
    parser.add_argument("--spawned-at", type=float, required=True)
    args = parser.parse_args()

    digests = json.loads((HERE / "gen_digests.json").read_text())
    workload = WORKLOADS[args.workload](args.seed, args.workdir, digests)
    workload.warmup()
    setup_s = time.time() - args.spawned_at
    if args.phase == "setup":
        print(json.dumps({"setup_s": setup_s}), flush=True)
        return

    details = {"environment": environment(args.seed)}
    probe = SpeedProbe()
    if args.phase == "timed":
        results, wall = timed_phase(workload, args.seconds, probe)
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        found = metrics.end_to_end(results, peak_mb)
        attempted = len(results)
        failed = sum(not r.ok for r in results)
        details["jobs"] = attempted
        details["wall_s"] = wall
        details["raw"] = {k: v["value"] for k, v in
                          metrics.end_to_end(results, peak_mb, scaled=False).items()}
        details["scale_p50"] = statistics.median(r.scale for r in results)
        details["command_ms_p50"] = metrics.command_medians(results)
    else:
        untraced, traced, tracer, mismatched = trace_phase(workload, args.trace_out, probe)
        found = metrics.per_layer(tracer, untraced, traced)
        attempted = len(untraced) + len(traced)
        failed = sum(not r.ok for r in untraced + traced) + mismatched
        details["traced_vs_untraced_mismatches"] = mismatched
        details["spans"] = len(tracer.spans)
        details["breakdown"] = metrics.breakdown(tracer, traced)
    recorded = getattr(workload, "digests_recorded", None)
    if recorded is not None:
        details["gen_digests"] = "recorded" if recorded else "first-in-run"
    print(json.dumps({"setup_s": setup_s, "attempted": attempted, "failed": failed,
                      "metrics": found, "details": details}), flush=True)


if __name__ == "__main__":
    sys.exit(main())
