"""End-to-end and per-layer metrics computed from job results and spans."""

from __future__ import annotations

import json
import statistics
from collections import defaultdict

from tracer import self_times

# A percentile is reported only with at least this many samples beyond it.
MIN_TAIL = 10

COMMANDS = ("gen", "verify", "analyze", "factorize", "minimize")

# Functions reported with .calls and .self_s in a traced run.
FUNCTIONS = (
    "module.matmul",
    "module.adjoint",
    "module.norm",
    "module.flatten",
    "module.from_flat",
    "module.entry",
    "module.from_entries",
    "module.coordinate_projection",
    "module.complete_to_unitary",
    "io.save_frame",
    "io.load_frame",
    "io.encode_amatrix",
    "frames.check_tight",
    "frames.factorize",
    "frames.random_tight_frame",
    "frames.is_spherical",
    "decomposition.split_equivalence",
    "decomposition.range_projection",
    "decomposition.commutation_residual",
    "decomposition.ortho_decompose",
    "optimize.minimize",
)


def percentile(values, pct: int) -> float:
    """Nearest-rank percentile; needs MIN_TAIL samples above the rank."""
    n = len(values)
    rank = -(-pct * n // 100)  # ceil(pct * n / 100) in integers
    if n - rank < MIN_TAIL or rank < 1:
        raise ValueError(
            f"p{pct} of {n} samples has {n - rank} beyond it; need {MIN_TAIL}"
        )
    return sorted(values)[rank - 1]


def _metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(results, peak_rss_mb: float, scaled: bool = True) -> dict:
    """Metrics of the untraced timed phase (set-up time is added by the caller).

    Job times are taken at reference speed (see probe.py) unless `scaled`
    is false; jobs_per_s is jobs over their summed job time.
    """
    ms = [r.seconds * (r.scale if scaled else 1.0) * 1000.0 for r in results]
    failed = sum(not r.ok for r in results)
    return {
        "jobs_per_s": _metric(1000.0 * len(ms) / sum(ms), "1/s"),
        "job_ms_p50": _metric(percentile(ms, 50), "ms"),
        "job_ms_p90": _metric(percentile(ms, 90), "ms"),
        "ok_rate": _metric(1.0 - failed / len(results), "ratio"),
        "peak_rss_mb": _metric(peak_rss_mb, "MB"),
    }


def command_medians(results) -> dict[str, float]:
    """Median job time per command, in ms at reference speed."""
    by_command = defaultdict(list)
    for r in results:
        by_command[r.command].append(r.seconds * r.scale * 1000.0)
    return {c: statistics.median(v) for c, v in by_command.items()}


def _ratio(num, den):
    return num / den if den else 0.0


def per_layer(tracer, untraced, traced) -> dict:
    """Per-layer metrics of a traced pass over the jobs that `untraced` also ran.

    Job-level numbers (command medians, tracing overhead) are at reference
    speed like the end-to-end metrics; span times are raw.  Rates use span
    time: matmul flop over matmul self time, io bytes over the full
    save_frame / load_frame time, which includes the encode or decode
    those calls make.
    """
    spans = tracer.spans
    calls = defaultdict(int)
    self_s = defaultdict(float)
    total_s = defaultdict(float)
    for (name, start, end, _, _), own in zip(spans, self_times(spans)):
        calls[name] += 1
        self_s[name] += own
        total_s[name] += end - start
    out = {}
    for name in FUNCTIONS:
        out[f"{name}.calls"] = _metric(calls[name], "count")
        out[f"{name}.self_s"] = _metric(self_s[name], "s")

    flop, nbytes = tracer.work.get("module.matmul", (0, 0))
    out["module.matmul.gflop_computed"] = _metric(flop / 1e9, "GFLOP")
    out["module.matmul.gflops_computed"] = _metric(
        _ratio(flop / 1e9, self_s["module.matmul"]), "GFLOP/s")
    out["module.matmul.gbyte_computed"] = _metric(nbytes / 1e9, "GB")
    out["module.matmul.gbyte_per_s_computed"] = _metric(
        _ratio(nbytes / 1e9, self_s["module.matmul"]), "GB/s")

    written = tracer.work.get("io.save_frame", (0,))[0]
    read = tracer.work.get("io.load_frame", (0,))[0]
    out["io.bytes_written"] = _metric(written, "B")
    out["io.bytes_read"] = _metric(read, "B")
    out["io.write_mb_per_s"] = _metric(_ratio(written / 1e6, total_s["io.save_frame"]), "MB/s")
    out["io.read_mb_per_s"] = _metric(_ratio(read / 1e6, total_s["io.load_frame"]), "MB/s")

    out["cli.self_s"] = _metric(_layer_sum(self_s, "cli"), "s")
    out["algebra.calls"] = _metric(_layer_sum(calls, "algebra"), "count")
    out["algebra.self_s"] = _metric(_layer_sum(self_s, "algebra"), "s")

    out["frames.check_tight.per_split"] = _metric(
        _ratio(calls["frames.check_tight"], calls["decomposition.split_equivalence"]), "ratio")
    analyze_jobs = sum(r.command == "analyze" for r in traced)
    out["decomposition.ortho_decompose.per_analyze"] = _metric(
        _ratio(calls["decomposition.ortho_decompose"], analyze_jobs), "ratio")

    descents = [json.loads(r.record) for r in traced
                if r.command == "minimize" and str(r.record).startswith("{")]
    iterations = sum(d["iterations"] for d in descents)
    minimize_jobs = sum(r.command == "minimize" for r in traced)
    out["optimize.iterations"] = _metric(iterations, "count")
    out["optimize.ms_per_iteration"] = _metric(
        _ratio(1000.0 * total_s["optimize.minimize"], iterations), "ms")
    out["optimize.converged_ratio"] = _metric(
        _ratio(sum(d["converged"] for d in descents), minimize_jobs), "ratio")

    medians = command_medians(untraced)
    for command in COMMANDS:
        out[f"cli.{command}.ms_p50"] = _metric(medians.get(command, 0.0), "ms")
    out["trace.overhead_ratio"] = _metric(
        sum(r.seconds * r.scale for r in traced) / sum(r.seconds * r.scale for r in untraced),
        "ratio")
    return out


def _layer_sum(table, layer):
    return sum(v for name, v in table.items() if name.startswith(layer + "."))


def breakdown(tracer, traced, top: int = 8) -> dict:
    """Per command: job time and the functions with the most self time."""
    own = defaultdict(lambda: defaultdict(float))
    for (name, _, _, _, job), s in zip(tracer.spans, self_times(tracer.spans)):
        own[traced[job].command][name] += s
    out = {}
    for command, table in own.items():
        job_s = sum(r.seconds for r in traced if r.command == command)
        ranked = sorted(table.items(), key=lambda kv: -kv[1])[:top]
        out[command] = {"job_s": job_s, "self_s": dict(ranked)}
    return out
