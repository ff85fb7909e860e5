"""Tests of the benchmark harness's own logic.

    python3 -m pytest perfbench/tests -q
"""

import inspect
import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import ncframes  # noqa: E402
import metrics  # noqa: E402
from tracer import Tracer, self_times  # noqa: E402
from workloads import WORKLOADS, JobResult, run_jobs  # noqa: E402


def test_percentile_needs_ten_samples_beyond():
    values = list(range(100, 0, -1))
    assert metrics.percentile(values, 90) == 90
    assert metrics.percentile(values, 50) == 50
    with pytest.raises(ValueError):
        metrics.percentile(values[:99], 90)
    assert metrics.percentile(list(range(1, 21)), 50) == 10
    with pytest.raises(ValueError):
        metrics.percentile(list(range(1, 20)), 50)


def test_self_time_subtracts_direct_children():
    spans = [
        ("outer", 0.0, 10.0, -1, 0),
        ("a", 1.0, 3.0, 0, 0),
        ("b", 4.0, 7.0, 0, 0),
        ("b.inner", 4.5, 5.5, 2, 0),
        ("next", 11.0, 12.0, -1, 1),
    ]
    assert self_times(spans) == pytest.approx([5.0, 2.0, 2.0, 1.0, 1.0])


def _namespaces():
    """Every ncframes module dict and every class dict defined in them."""
    out = {}
    for name, mod in list(sys.modules.items()):
        if name == "ncframes" or name.startswith("ncframes."):
            out[name] = dict(vars(mod))
            for attr, obj in vars(mod).items():
                if inspect.isclass(obj):
                    out[f"{name}:{attr}"] = dict(vars(obj))
    return out


def test_tracer_wraps_every_reference_and_restores_every_attribute():
    before = _namespaces()
    original = ncframes.frames.check_tight
    tracer = Tracer()
    tracer.install()
    try:
        for ns in (ncframes, ncframes.cli, ncframes.frames, ncframes.decomposition):
            assert ns.check_tight is not original
        assert ncframes.cli.run_minimize is not ncframes.optimize.minimize.__wrapped__
        F = ncframes.random_tight_frame(ncframes.AlgebraSpec((1,)), 4, 2, 1.0, 0)
        tracer.job = 7
        ncframes.decomposition.split_equivalence(F, (1, 2))
    finally:
        tracer.uninstall()
    after = _namespaces()
    assert before.keys() == after.keys()
    for key, table in before.items():
        assert table.keys() == after[key].keys(), key
        for attr, value in table.items():
            assert after[key][attr] is value, f"{key}.{attr} not restored"

    names = [span[0] for span in tracer.spans]
    assert names[0] == "frames.random_tight_frame"
    split = names.index("decomposition.split_equivalence")
    check = names.index("frames.check_tight", split)
    assert tracer.spans[check][3] == split
    assert tracer.spans[split][4] == 7
    assert "module.matmul" in names and "module.norm" in names
    assert tracer.work["module.matmul"][0] > 0


# Short prefixes of each workload's jobs keep this test quick.
PREFIX = {"bulk-pipeline": 4, "split-corpus": 40, "descent-corpus": 4}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_and_untraced_runs_agree(name, tmp_path):
    digests = json.loads((BENCH / "gen_digests.json").read_text())
    workload = WORKLOADS[name](3, tmp_path, digests)
    jobs = [job for unit in workload.units(0) for job in unit][: PREFIX[name]]
    untraced = run_jobs(jobs)
    tracer = Tracer()
    tracer.install()
    try:
        traced = run_jobs(jobs, tracer)
    finally:
        tracer.uninstall()
    assert all(r.ok for r in untraced + traced)
    assert [r.record for r in untraced] == [r.record for r in traced]

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    layer = metrics.per_layer(tracer, untraced, traced)
    assert sorted(layer) == sorted(m["name"] for m in declared["per_layer"])
    for m in declared["per_layer"]:
        assert layer[m["name"]]["unit"] == m["unit"]


def test_end_to_end_metrics_match_benchmark_json():
    results = [JobResult("gen", ms / 1000.0, True, None) for ms in range(1, 101)]
    found = metrics.end_to_end(results, peak_rss_mb=80.0)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    names = {"setup_s", *found}
    assert names == {m["name"] for m in declared}
    assert found["jobs_per_s"]["value"] == pytest.approx(1000 / 50.5)
    assert found["job_ms_p90"]["value"] == pytest.approx(90.0)


def test_run_refuses_a_directory_without_the_package(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "split-corpus",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
