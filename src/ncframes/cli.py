"""Command-line interface: gen, verify, analyze, factorize, partitions,
minimize, selftest.

Exit codes: 0 success (or tight), 1 property failure (not tight, not
converged, selftest failure), 2 I/O or parse error, 3 invalid arguments.

A shape outside 1 <= n <= k exits 3, and so does a frame past the size
budget (_check_budget): the largest square matrix over A a command builds
may hold at most MAX_SIDE**2 complex entries, side * sqrt(sum_j m_j^2) <=
MAX_SIDE.  The side is k for gen and minimize, n for verify, and max(n, k)
for analyze and factorize.  gen and minimize check it before they compute,
and the reading commands once the frame is loaded, before they compute or
write.  They also refuse, before opening it, a file longer than any frame
file inside the budget can be.  That bounds what json.load builds from a
file, but not yet the tree itself: about 8.5 times a gen file and 25 times
a file of short numbers.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import itertools
import json
import math
import os
import sys

import numpy as np

from . import io
from .algebra import AlgebraSpec, ShapeError, Verdict, _check_k_n
from .decomposition import (
    commutation_residual,
    count_partitions,
    divisibility_check,
    direct_sum_frames,
    enumerate_partitions,
    ortho_decompose,
    range_constant,
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
from .module import AMatrix
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

# the most labels (count * k) `partitions` lists, so at most 181818 partitions
# for k >= 11 and Bell(10) = 115975 below; 1804188 (k = 12, k' = 2) took 7 s, 342 MB
MAX_LISTED_LABELS = 2_000_000
# the most blocks k / k' whose count it computes: the recurrence adds up to
# k / k' terms at each of k / k' steps, 0.9 s at 256 blocks of 6 (3013 digits)
MAX_COUNTED_BLOCKS = 256
# the size budget (see _check_budget): no command builds a side x side
# matrix over A with side * sqrt(sum_j m_j^2) above this, side * m_j for one
# summand; gen at the bound on one BLAS thread (n = k = 2000 over C, 1414
# over C + C, 1000 over M_2 or C^4) peaked at 345, 290, 345 and 255 MB max
# RSS (getrusage of the child), against 722, 713, 699 and 725 MB when the
# whole file text was built before writing
MAX_SIDE = 2000


def _emit(doc: dict, mode: str):
    if mode == "json":
        print(json.dumps(doc, indent=2))
    else:
        for key, value in doc.items():
            print(f"{key}: {value}")


def _check_budget(spec: AlgebraSpec | None = None, side: int = 0, name: str = "k", path=None):
    """Refuse (exit 3), before it is allocated or written, what is past the size budget.

    With spec: a side x side matrix over spec (side called name) with over
    MAX_SIDE**2 complex entries.  With path, before it is opened: a frame
    file longer than that of any frame with at most MAX_SIDE**2 [re, im]
    pairs n * k * sum_j m_j^2, as every frame inside a side of max(n, k) is.
    """
    limit = MAX_SIDE**2
    if path is not None:
        # a pair prints in at most 1 + 24 + 2 + 24 + 1 bytes (a float's repr
        # has at most 24) and ", " after it; each summand's list, entry and
        # column adds at most "[]" and ", ", and none is more often than
        # pairs; the algebra list takes at most 3 bytes a pair, and 2**16
        # bytes hold the other keys and gen's metadata
        cap = 69 * limit + 2**16
        size = os.stat(path).st_size
        if size > cap:
            raise UsageError(
                f"frame too large: the file has {size} bytes, more than the {cap} "
                f"of any frame inside the budget of {MAX_SIDE}"
            )
    elif side**2 * sum(m * m for m in spec.summand_dims) > limit:
        raise UsageError(f"frame too large: {name} * sqrt(sum of m_j^2) exceeds {MAX_SIDE}")


def _check_shape(args):
    """Refuse (exit 3) a shape outside 1 <= n <= k, or whose k x k unitary is past the budget."""
    try:
        _check_k_n(args.k, args.n)
    except ShapeError as exc:
        raise UsageError(str(exc)) from None
    _check_budget(args.algebra, args.k)


def _load_frame(path, side: str) -> Frame:
    """The frame file at path, refused (exit 3) past the budget of the
    command's largest square matrix, of side "n" or "max(n, k)"."""
    _check_budget(path=path)
    F = io.load_frame(path)
    _check_budget(F.spec, F.n if side == "n" else max(F.n, F.k), side)
    return F


def _add_common(parser: ArgumentParser, tol: bool = True):
    if tol:
        parser.add_argument("--tol", type=_positive_float, default=1e-9)
    parser.add_argument("--output", choices=("json", "text"), default="json")


# -- subcommands -----------------------------------------------------------


def cmd_gen(args) -> int:
    _check_shape(args)
    if not Verdict("b", args.b, args.tol, floor=True).holds:
        raise UsageError(
            f"b {args.b:g} is too small: it is not above --tol {args.tol:g}, "
            "so check_tight reports no such frame tight"
        )
    # the trace of FF* in summand j is n * m_j * b, and the reader refuses a
    # file where it overflows; the margin covers the rounding of that sum
    if not args.n * max(args.algebra.summand_dims) * args.b < (1 - 1e-6) * sys.float_info.max:
        raise UsageError(f"b {args.b:g} is too large: the trace n*m*b of FF* overflows")
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
    F = _load_frame(args.path, "n")
    report = check_tight(F, args.tol)
    _emit(io.encode_tightness_report(report), args.output)
    return 0 if report.is_tight else 1


def cmd_analyze(args) -> int:
    F = _load_frame(args.path, "max(n, k)")
    report = check_tight(F, args.tol)
    if not report.is_tight:
        _emit(io.encode_tightness_report(report), args.output)
        return 1
    sigma = ortho_decompose(F, args.tol)
    div = divisibility_check(sigma, F.k, F.n)
    spherical = is_spherical(F, args.tol)
    blocks_doc = []
    for blk, flag in zip(sigma.blocks, div.per_block):
        b = report.b if len(blk) == F.k else range_constant(F, blk, args.tol)
        blocks_doc.append(
            {
                "columns": list(blk),
                "size": len(blk),
                "b": b,
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
    F = _load_frame(args.path, "max(n, k)")
    try:
        result = factorize(F, args.tol)
    except NotTightError as exc:
        _emit({"error": str(exc), "residual": exc.residual}, args.output)
        return 1
    io.save_amatrix(args.out, result.unitary, b=result.b)
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
    blocks = args.k // args.kprime
    if blocks > MAX_COUNTED_BLOCKS:
        raise UsageError(f"k / kprime = {blocks} exceeds the limit of {MAX_COUNTED_BLOCKS}")
    # the count is at most blocks**k: a partition puts each of the k labels
    # in one of its at most k / kprime blocks
    digits = sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits
    if args.k * math.log10(blocks) >= digits:
        raise UsageError(f"the count may have more than the {digits} digits Python prints")
    count = count_partitions(args.k, args.kprime)
    if args.count_only:
        _emit({"k": args.k, "kprime": args.kprime, "count": count}, args.output)
    elif count * args.k > MAX_LISTED_LABELS:
        raise UsageError(
            f"{count} partitions of {args.k} labels list {count * args.k} labels, over "
            f"the limit of {MAX_LISTED_LABELS}; use --count-only"
        )
    else:
        doc = {
            "k": args.k,
            "kprime": args.kprime,
            "count": count,
            "partitions": [
                [list(blk) for blk in p.blocks]
                for p in enumerate_partitions(args.k, args.kprime)
            ],
        }
        _emit(doc, args.output)
    return 0


def cmd_minimize(args) -> int:
    _check_shape(args)
    if args.trace_out and os.path.realpath(args.trace_out) == os.path.realpath(args.out):
        raise UsageError("--trace-out names the same file as --out, which would lose the frame")
    config = OptimizerConfig(
        step_size=args.step_size,
        max_iters=args.max_iters,
        tight_tol=args.tight_tol,
        seed=args.seed,
        radius=args.radius,
    )
    try:
        config.radius_for(args.algebra, args.k, args.n)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    trace = run_minimize(args.algebra, args.k, args.n, config)
    io.save_frame(
        args.out,
        trace.frame,
        metadata={"generator": "minimize", "seed": args.seed},
    )
    doc = {
        "config": dataclasses.asdict(config),
        "converged": trace.converged,
        "iterations": trace.iterations,
        "final_potential": trace.final_potential,
        "final_residual": trace.final_residual,
        "iterate_log": [list(entry) for entry in trace.iterates],
        "stop_reason": trace.stop_reason,
        "candidates": trace.candidates,
        "backtracks": trace.backtracks,
        "rerandomizations": trace.rerandomizations,
    }
    if trace.failure:
        doc["failure"] = trace.failure
    if args.trace_out:
        io.save_with_frame(args.trace_out, doc, trace.frame)
    _emit(doc, args.output)
    return 0 if trace.converged else 1


# -- selftest --------------------------------------------------------------


def _selftest_cstar(num: int) -> dict:
    rng = np.random.default_rng(12345)
    worst = {"cstar_identity": 0.0, "submult": 0.0, "adjoint_norm": 0.0, "trace_cyc": 0.0}
    specs = [AlgebraSpec((1,)), AlgebraSpec((2,)), AlgebraSpec((2, 1))]
    for i in range(num):
        spec = specs[i % len(specs)]
        a = AMatrix.random(spec, 1, 1, rng)
        b = AMatrix.random(spec, 1, 1, rng)
        na = a.norm()
        worst["cstar_identity"] = max(
            worst["cstar_identity"],
            abs((a.H @ a).norm() - na**2) / max(1.0, na**2),
        )
        worst["submult"] = max(
            worst["submult"], (a @ b).norm() - na * b.norm()
        )
        worst["adjoint_norm"] = max(
            worst["adjoint_norm"], abs(a.H.norm() - na)
        )
        worst["trace_cyc"] = max(
            worst["trace_cyc"],
            abs((a @ b).normalized_trace() - (b @ a).normalized_trace()),
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
    _add_common(p, tol=False)
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
    _add_common(p, tol=False)
    p.set_defaults(func=cmd_minimize)

    p = sub.add_parser("selftest", help="run the built-in verification suites")
    p.add_argument("--full", action="store_true")
    _add_common(p, tol=False)
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
