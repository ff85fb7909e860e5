"""Command-line interface: gen, verify, analyze, factorize, partitions,
minimize, selftest.

Exit codes: 0 success (or tight), 1 property failure (not tight, not
converged, selftest failure), 2 I/O or parse error, 3 invalid arguments.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import itertools
import json
import math
import sys

import numpy as np

from . import io
from .algebra import AlgebraSpec, ShapeError
from .decomposition import (
    commutation_residual,
    count_partitions,
    divisibility_check,
    direct_sum_frames,
    enumerate_partitions,
    ortho_decompose,
    restrict,
    split_equivalence,
)
from .frames import (
    Frame,
    NotTightError,
    check_tight,
    factorize,
    is_spherical,
    random_tight_frame,
)
from .optimize import OptimizerConfig, minimize as run_minimize

__all__ = ["main"]


class UsageError(Exception):
    """Invalid command-line arguments (exit code 3)."""


class ArgumentParser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _checked(convert, ok, what: str):
    """An argparse type that converts text and rejects values failing ok.

    A rejected value goes through parser.error, so it exits 3 before the
    command runs or writes anything.
    """

    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            value = None
        if value is None or not ok(value):
            raise argparse.ArgumentTypeError(f"expected {what}, got {text!r}")
        return value

    return parse


# comparisons written so that NaN fails them
_positive_float = _checked(float, lambda x: 0 < x < math.inf, "a finite positive number")
_positive_int = _checked(int, lambda x: x >= 1, "an integer >= 1")
_seed = _checked(int, lambda x: x >= 0, "a non-negative integer")
_algebra = _checked(
    lambda text: AlgebraSpec(tuple(int(x) for x in text.split(","))),
    lambda spec: True,  # AlgebraSpec rejects empty or non-positive sizes itself
    "comma-separated block sizes >= 1, e.g. 1 or 2,1",
)

# the most partitions `partitions` lists; the count grows like Bell(k), and
# listing k = 11 (678570) took 46 s and 1.9 GB, so larger counts need --count-only
MAX_LISTED_PARTITIONS = 200_000


def _emit(doc: dict, mode: str):
    if mode == "json":
        print(json.dumps(doc, indent=2))
    else:
        for key, value in doc.items():
            print(f"{key}: {value}")


def _add_common(parser: ArgumentParser):
    parser.add_argument("--tol", type=_positive_float, default=1e-9)
    parser.add_argument("--output", choices=("json", "text"), default="json")


# -- subcommands -----------------------------------------------------------


def cmd_gen(args) -> int:
    if args.k < args.n:
        raise UsageError(f"need k >= n, got k={args.k}, n={args.n}")
    F = random_tight_frame(args.algebra, args.k, args.n, args.b, args.seed)
    io.save_frame(
        args.out,
        F,
        metadata={"generator": "gen", "seed": args.seed, "b": args.b},
    )
    report = check_tight(F, args.tol)
    _emit(io.encode_tightness_report(report), args.output)
    return 0


def cmd_verify(args) -> int:
    F = io.load_frame(args.path)
    report = check_tight(F, args.tol)
    _emit(io.encode_tightness_report(report), args.output)
    return 0 if report.is_tight else 1


def cmd_analyze(args) -> int:
    F = io.load_frame(args.path)
    report = check_tight(F, args.tol)
    if not report.is_tight:
        _emit(io.encode_tightness_report(report), args.output)
        return 1
    sigma = ortho_decompose(F, args.tol)
    div = divisibility_check(sigma, F.k, F.n)
    spherical = is_spherical(F, args.tol)
    blocks_doc = []
    for blk, flag in zip(sigma.blocks, div.per_block):
        sub = check_tight(restrict(F, blk), args.tol)
        blocks_doc.append(
            {
                "columns": list(blk),
                "size": len(blk),
                "b": sub.b,
                "commutation_residual": commutation_residual(F, blk),
                "size_divisible": flag,
            }
        )
    doc = {
        "tightness": io.encode_tightness_report(report),
        "spherical": dataclasses.asdict(spherical),
        "partition": [list(blk) for blk in sigma.blocks],
        "blocks": blocks_doc,
        "d": div.d,
        "kprime": div.kprime,
        "partition_admissible": div.all_divisible,
    }
    _emit(doc, args.output)
    return 0


def cmd_factorize(args) -> int:
    F = io.load_frame(args.path)
    try:
        result = factorize(F, args.tol)
    except NotTightError as exc:
        _emit({"error": str(exc), "residual": exc.residual}, args.output)
        return 1
    doc = io.encode_amatrix(result.unitary)
    doc["b"] = result.b
    io.write_json(args.out, doc)
    _emit(
        {
            "b": result.b,
            "reconstruction_residual": result.reconstruction_residual,
            "unitary_written_to": args.out,
        },
        args.output,
    )
    return 0


def cmd_partitions(args) -> int:
    if args.k % args.kprime != 0:
        raise UsageError(f"kprime={args.kprime} does not divide k={args.k}")
    count = count_partitions(args.k, args.kprime)
    if args.count_only:
        _emit({"k": args.k, "kprime": args.kprime, "count": count}, args.output)
    elif count > MAX_LISTED_PARTITIONS:
        raise UsageError(
            f"{count} partitions exceed the listing limit of "
            f"{MAX_LISTED_PARTITIONS}; use --count-only"
        )
    else:
        parts = enumerate_partitions(args.k, args.kprime)
        doc = {
            "k": args.k,
            "kprime": args.kprime,
            "count": len(parts),
            "partitions": [[list(blk) for blk in p.blocks] for p in parts],
        }
        _emit(doc, args.output)
    return 0


def cmd_minimize(args) -> int:
    if args.k < args.n:
        raise UsageError(f"need k >= n, got k={args.k}, n={args.n}")
    config = OptimizerConfig(
        step_size=args.step_size,
        max_iters=args.max_iters,
        tight_tol=args.tight_tol,
        seed=args.seed,
        radius=args.radius,
    )
    trace = run_minimize(args.algebra, args.k, args.n, config)
    io.save_frame(
        args.out,
        trace.frame,
        metadata={"generator": "minimize", "seed": args.seed},
    )
    log = [list(entry) for entry in trace.iterates[::50]]
    if list(trace.iterates[-1]) not in log:
        log.append(list(trace.iterates[-1]))
    doc = {
        "config": dataclasses.asdict(config),
        "converged": trace.converged,
        "iterations": trace.iterates[-1][0],
        "final_potential": trace.final_potential,
        "final_residual": trace.final_residual,
        "iterate_log": log,
        "stop_reason": trace.stop_reason,
        "candidates": trace.candidates,
        "backtracks": trace.backtracks,
        "rerandomizations": trace.rerandomizations,
    }
    if trace.failure:
        doc["failure"] = trace.failure
    if args.trace_out:
        full = dict(doc)
        full["frame"] = io.encode_frame_file(trace.frame)
        io.write_json(args.trace_out, full)
    _emit(doc, args.output)
    return 0 if trace.converged else 1


# -- selftest --------------------------------------------------------------


def _selftest_cstar(num: int) -> dict:
    rng = np.random.default_rng(12345)
    worst = {"cstar_identity": 0.0, "submult": 0.0, "adjoint_norm": 0.0, "trace_cyc": 0.0}
    specs = [AlgebraSpec((1,)), AlgebraSpec((2,)), AlgebraSpec((2, 1))]
    for i in range(num):
        spec = specs[i % len(specs)]
        a = spec.random_element(rng)
        b = spec.random_element(rng)
        na = a.norm()
        worst["cstar_identity"] = max(
            worst["cstar_identity"],
            abs((a.adjoint() * a).norm() - na**2) / max(1.0, na**2),
        )
        worst["submult"] = max(
            worst["submult"], (a * b).norm() - na * b.norm()
        )
        worst["adjoint_norm"] = max(
            worst["adjoint_norm"], abs(a.adjoint().norm() - na)
        )
        worst["trace_cyc"] = max(
            worst["trace_cyc"],
            abs((a * b).normalized_trace() - (b * a).normalized_trace()),
        )
    passed = all(v <= 1e-10 for v in worst.values())
    return {"passed": passed, "worst": worst, "elements": num}


def _equivalence_corpus(kmax: int) -> list[Frame]:
    corpus: list[Frame] = []
    specs = [AlgebraSpec((1,)), AlgebraSpec((2,)), AlgebraSpec((1, 1))]
    seed = 0
    for spec in specs:
        for k, n in [(3, 2), (4, 3), (kmax, kmax - 2), (4, 4)]:
            if k > kmax:
                continue
            corpus.append(random_tight_frame(spec, k, n, 1.0, seed))
            seed += 1
        a = random_tight_frame(spec, 2, 1, 1.0, seed)
        b = random_tight_frame(spec, 3, 2, 1.0, seed + 1)
        seed += 2
        corpus.append(direct_sum_frames([a, b], 1.0))
    return corpus


def _selftest_equivalence(kmax: int) -> dict:
    disagreements = []
    checked = 0
    for fi, F in enumerate(_equivalence_corpus(kmax)):
        for size in range(F.k + 1):
            for I in itertools.combinations(range(1, F.k + 1), size):
                checked += 1
                if not split_equivalence(F, I, 1e-9).agree:
                    disagreements.append(
                        {"frame": fi, "subset": list(I)}
                    )
    return {
        "passed": not disagreements,
        "checked": checked,
        "disagreements": disagreements,
    }


def _selftest_divisibility(quick: bool) -> dict:
    violations = []
    checked = 0
    cases = [(3, 2), (4, 2), (5, 3)] if quick else [(3, 2), (4, 2), (5, 3), (6, 4), (8, 6)]
    for spec_dims in [(1,), (2,)]:
        spec = AlgebraSpec(spec_dims)
        for k, n in cases:
            for seed in range(3 if quick else 6):
                trace = run_minimize(spec, k, n, OptimizerConfig(seed=seed))
                if not trace.converged:
                    continue
                sigma = ortho_decompose(trace.frame)
                rep = divisibility_check(sigma, k, n)
                checked += 1
                if not rep.all_divisible:
                    violations.append(
                        {
                            "spec": list(spec_dims),
                            "k": k,
                            "n": n,
                            "seed": seed,
                            "blocks": [list(b) for b in sigma.blocks],
                        }
                    )
    return {"passed": not violations, "checked": checked, "violations": violations}


def cmd_selftest(args) -> int:
    kmax = 8 if args.full else 6
    suites = {
        "cstar": _selftest_cstar(1000 if args.full else 200),
        "equivalence": _selftest_equivalence(kmax),
        "divisibility": _selftest_divisibility(quick=not args.full),
    }
    passed = all(s["passed"] for s in suites.values())
    _emit({"passed": passed, "scale": "full" if args.full else "quick", "suites": suites}, args.output)
    return 0 if passed else 1


# -- entry point -----------------------------------------------------------


@functools.cache
def build_parser() -> ArgumentParser:
    """The argument parser, built on first use and shared by every main call."""
    parser = ArgumentParser(prog="ncframes")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a seeded random tight frame")
    p.add_argument(
        "--algebra", type=_algebra, required=True, help="block sizes, e.g. 1 or 2,1"
    )
    p.add_argument("--k", type=_positive_int, required=True)
    p.add_argument("--n", type=_positive_int, required=True)
    p.add_argument("--b", type=_positive_float, default=1.0)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--out", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("verify", help="check tightness of a frame file")
    p.add_argument("path")
    _add_common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("analyze", help="tightness, sphericality, decomposition")
    p.add_argument("path")
    _add_common(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("factorize", help="recover b and the unitary factor")
    p.add_argument("path")
    p.add_argument("--out", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_factorize)

    p = sub.add_parser("partitions", help="enumerate admissible partitions")
    p.add_argument("--k", type=_positive_int, required=True)
    p.add_argument("--kprime", type=_positive_int, required=True)
    p.add_argument("--count-only", action="store_true")
    _add_common(p)
    p.set_defaults(func=cmd_partitions)

    p = sub.add_parser("minimize", help="build a spherical tight frame by descent")
    p.add_argument("--algebra", type=_algebra, required=True)
    p.add_argument("--k", type=_positive_int, required=True)
    p.add_argument("--n", type=_positive_int, required=True)
    p.add_argument("--step-size", type=_positive_float, default=0.05)
    p.add_argument("--max-iters", type=_positive_int, default=20000)
    p.add_argument("--tight-tol", type=_positive_float, default=1e-9)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--radius", type=_positive_float, default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--trace-out", default=None)
    _add_common(p)
    p.set_defaults(func=cmd_minimize)

    p = sub.add_parser("selftest", help="run the built-in verification suites")
    p.add_argument("--full", action="store_true")
    _add_common(p)
    p.set_defaults(func=cmd_selftest)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (io.FormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (NotTightError, ShapeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
