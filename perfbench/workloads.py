"""The three benchmark workloads, their seeded inputs and their output checks.

A workload hands out units: lists of jobs that run back to back because a
later job reads what an earlier one wrote.  A job is one in-process call of
`ncframes.cli.main(argv)` with its output captured, or, in split-corpus,
one library call `split_equivalence(F, I)`.  Every job carries a check of
its output against something the job itself did not compute; a job that
raises, exits with the wrong code or fails its check counts as failed.

Seeds: every input is derived from the workload seed (a non-negative
integer), so one seed always gives the same inputs.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import ncframes
import ncframes.cli

# factorize must rebuild F from (b, U) to this residual.
RECONSTRUCTION_BOUND = 1e-9


@dataclass(frozen=True)
class Job:
    command: str
    call: Callable[[], object]
    check: Callable[[object], tuple[bool, object]]


@dataclass(frozen=True)
class JobResult:
    command: str
    seconds: float
    ok: bool
    record: object  # what the job produced, for traced/untraced comparison
    scale: float = 1.0  # seconds * scale is the time at reference speed


def run_jobs(jobs, tracer=None, probe=None) -> list[JobResult]:
    """Run jobs in order, timing only the call; checks run outside the timing.

    With a SpeedProbe, each result carries the probe's scale factor for
    the moment the job started.
    """
    results = []
    for index, job in enumerate(jobs):
        if tracer is not None:
            tracer.job = index
        scale = probe.before_job() if probe is not None else 1.0
        start = time.perf_counter()
        try:
            raw = job.call()
            seconds = time.perf_counter() - start
            ok, record = job.check(raw)
        except Exception as exc:  # a crash or unreadable output fails the job, not the run
            seconds = time.perf_counter() - start
            ok, record = False, repr(exc)
        results.append(JobResult(job.command, seconds, ok, record, scale))
    return results


def run_cli(argv) -> tuple[int, str]:
    """One CLI invocation in this interpreter: (exit code, stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = ncframes.cli.main([str(a) for a in argv])
    return code, out.getvalue()


def _cli_job(argv, check) -> Job:
    return Job(argv[0], lambda: run_cli(argv), check)


def _sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _exit_ok(result) -> tuple[bool, object]:
    code, out = result
    return code == 0, out


class BulkPipeline:
    """gen -> verify -> analyze -> factorize on mid and large frames, via disk.

    The module einsum product, io encode/decode and complete_to_unitary do
    most of the work; optimize does none.  Writes (gen, factorize) run beside
    reads (verify, analyze), so an io change that helps one side and costs
    the other shows up.  One unit is one pass over all shapes.
    """

    name = "bulk-pipeline"
    SHAPES = (("2", 48, 24), ("1", 128, 64), ("2,1", 48, 24), ("3,2", 48, 24))
    trace_cycles = 1

    def __init__(self, seed: int, workdir: Path, recorded_digests: dict):
        self.seed = seed
        self.workdir = workdir
        # Seeded gen output must stay byte-identical: compare against the
        # recorded sha256 when this seed has one, else against the first
        # output of this run.
        self.digests_recorded = str(seed) in recorded_digests
        self.expected = dict(recorded_digests.get(str(seed), {}))
        jobs = []
        for i, (alg, k, n) in enumerate(self.SHAPES):
            frame = workdir / f"frame{i}.json"
            unitary = workdir / f"unitary{i}.json"
            key = f"{alg}/{k}/{n}"
            jobs += [
                _cli_job(
                    ["gen", "--algebra", alg, "--k", k, "--n", n, "--seed", seed, "--out", frame],
                    self._check_gen(key, frame),
                ),
                _cli_job(["verify", frame], _check_verify),
                _cli_job(["analyze", frame], _check_unsplit(k)),
                _cli_job(["factorize", frame, "--out", unitary], _check_factorize(unitary)),
            ]
        self._jobs = jobs

    def _check_gen(self, key, path):
        def check(result):
            code, out = result
            if code != 0:
                return False, out
            digest = _sha256(path)
            return digest == self.expected.setdefault(key, digest), digest

        return check

    def warmup(self):
        alg, k, n = self.SHAPES[0]
        run_cli(["gen", "--algebra", alg, "--k", k, "--n", n, "--seed", self.seed,
                 "--out", self.workdir / "warmup.json"])

    def units(self, cycle: int):
        return [self._jobs]


def _check_verify(result):
    code, out = result
    return code == 0 and json.loads(out)["is_tight"], out


def _check_unsplit(k):
    # A normal-form frame from a Haar-random unitary has no zero Gram
    # entries, so its finest ortho-decomposition is the single block.
    def check(result):
        code, out = result
        if code != 0:
            return False, out
        doc = json.loads(out)
        whole = doc["partition"] == [list(range(1, k + 1))]
        return whole and doc["tightness"]["is_tight"], out

    return check


def _check_factorize(unitary):
    def check(result):
        code, out = result
        if code != 0:
            return False, out
        residual = json.loads(out)["reconstruction_residual"]
        return residual <= RECONSTRUCTION_BOUND, (out, _sha256(unitary))

    return check


class SplitCorpus:
    """Exhaustive split_equivalence over every column subset of small frames.

    Thousands of ~1 ms calls, so per-call overhead in decomposition,
    range_projection, norm and validation dominates; no io, no optimize.
    Direct sums of random parts have a known split structure: a subset
    splits exactly when it is a union of the parts, which is the oracle the
    verdict is checked against.  The call order is shuffled by the seed so
    that any prefix of a pass has the corpus's mix of sizes.
    """

    name = "split-corpus"
    SPECS = ((1,), (2,), (1, 1), (2, 1))
    RANDOM = ((4, 2), (5, 3), (6, 4), (7, 4), (8, 5))
    SUMS = (((2, 1), (3, 2)), ((4, 3), (3, 2)), ((3, 2), (3, 1), (2, 1)))
    trace_cycles = 1

    def __init__(self, seed: int, workdir: Path, recorded_digests: dict):
        frame_seeds = itertools.count(seed * 1000)
        corpus = []  # (frame, column groups of its direct-sum parts)
        for dims in self.SPECS:
            spec = ncframes.AlgebraSpec(dims)
            for k, n in self.RANDOM:
                F = ncframes.random_tight_frame(spec, k, n, 1.0, next(frame_seeds))
                corpus.append((F, [set(range(1, k + 1))]))
            for parts in self.SUMS:
                frames = [ncframes.random_tight_frame(spec, k, n, 1.0, next(frame_seeds))
                          for k, n in parts]
                groups, first = [], 1
                for k, _ in parts:
                    groups.append(set(range(first, first + k)))
                    first += k
                corpus.append((ncframes.direct_sum_frames(frames, 1.0), groups))
        jobs = []
        for F, groups in corpus:
            for size in range(F.k + 1):
                for subset in itertools.combinations(range(1, F.k + 1), size):
                    chosen = set(subset)
                    splits = all(g <= chosen or not g & chosen for g in groups)
                    jobs.append(_split_job(F, subset, splits))
        order = np.random.default_rng(seed).permutation(len(jobs))
        self._jobs = [jobs[i] for i in order]

    def warmup(self):
        run_jobs(self._jobs[:1])

    def units(self, cycle: int):
        return [[job] for job in self._jobs]


def _split_job(F, subset, splits) -> Job:
    def call():
        return ncframes.decomposition.split_equivalence(F, subset)

    def check(report):
        ok = report.agree and report.splits == splits
        return ok, (report.commutes, report.splits)

    return Job("split", call, check)


class DescentCorpus:
    """minimize --tight-tol T, then verify and analyze at --tol T, per shape.

    The optimizer's gradient, per-column retraction and backtracking do the
    work; io and the module product do little.  Every chain gets its own
    optimizer seed, so a run averages over many descents.  The cheap verify
    and analyze jobs put p50 among jobs whose cost depends on the shape
    alone, and p90 falls inside the (2,1) descents, not on the edge between
    two shapes.  The chain sets --tol to --tight-tol explicitly: under the
    default --tol 1e-9 the minimize outputs are reported not tight.
    """

    name = "descent-corpus"
    SHAPES = (("1", 5, 3), ("2", 6, 4), ("2", 8, 6), ("2,1", 12, 8), ("3,2", 24, 16))
    TOL = "1e-8"
    trace_cycles = 4

    def __init__(self, seed: int, workdir: Path, recorded_digests: dict):
        self.seed = seed
        self.workdir = workdir

    def _chain(self, shape, chain_seed, path):
        alg, k, n = shape
        return [
            _cli_job(["minimize", "--algebra", alg, "--k", k, "--n", n, "--seed", chain_seed,
                      "--tight-tol", self.TOL, "--out", path], _exit_ok),
            _cli_job(["verify", path, "--tol", self.TOL], _check_verify),
            _cli_job(["analyze", path, "--tol", self.TOL], _check_admissible),
        ]

    def warmup(self):
        run_jobs(self._chain(self.SHAPES[0], 0, self.workdir / "warmup.json"))

    def units(self, cycle: int):
        first = (self.seed * 1000 + cycle) * len(self.SHAPES)
        return [self._chain(shape, first + i, self.workdir / f"descent{i}.json")
                for i, shape in enumerate(self.SHAPES)]


def _check_admissible(result):
    code, out = result
    return code == 0 and json.loads(out)["partition_admissible"], out


WORKLOADS = {w.name: w for w in (BulkPipeline, SplitCorpus, DescentCorpus)}
