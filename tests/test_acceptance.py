"""End-to-end acceptance suite.

Each test prints one PASS/FAIL line; run with `pytest tests/test_acceptance.py -v -s`.
All tolerances are fixed here, not configurable.
"""

import itertools
import json
import time
from pathlib import Path

import numpy as np

from ncframes import (
    AlgebraSpec,
    AMatrix,
    Frame,
    OptimizerConfig,
    check_tight,
    direct_sum_frames,
    divisibility_check,
    enumerate_partitions,
    factorize,
    frame_potential,
    is_spherical,
    minimize,
    ortho_decompose,
    potential_gradient,
    random_tight_frame,
    scalar_definition_check,
    split_equivalence,
)
from ncframes.cli import main as cli_main
from ncframes.io import load_frame, save_frame
from conftest import enumerate_set_partitions

FIXTURES = Path(__file__).parent / "fixtures"
ARTIFACTS = Path(__file__).parent / "artifacts"

NORMAL_FORM_SPECS = [(1,), (2,), (3,), (1, 1), (2, 1)]


def _report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num} ({name}): {status} {detail}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def _normal_form_cases():
    """200 deterministic (spec, k, n, b, seed) tuples."""
    cases = []
    rng = np.random.default_rng(20240824)
    bs = [0.5, 1.0, 2.0]
    for seed in range(200):
        dims = NORMAL_FORM_SPECS[seed % len(NORMAL_FORM_SPECS)]
        k = int(rng.integers(2, 11))
        n = int(rng.integers(1, k))
        b = bs[seed % 3]
        cases.append((AlgebraSpec(dims), k, n, b, seed))
    return cases


def _optimizer_outputs(count, tight_tol=1e-10):
    outs = []
    shapes = [((1,), 3, 2), ((1,), 4, 2), ((1,), 5, 3), ((2,), 3, 2), ((2,), 4, 2)]
    seed = 0
    while len(outs) < count:
        dims, k, n = shapes[len(outs) % len(shapes)]
        trace = minimize(
            AlgebraSpec(dims), k, n,
            OptimizerConfig(seed=seed, tight_tol=tight_tol),
        )
        seed += 1
        if trace.converged:
            outs.append(trace.frame)
    return outs


def test_criterion_1_normal_form_soundness():
    t0 = time.time()
    worst_res, worst_b = 0.0, 0.0
    for spec, k, n, b, seed in _normal_form_cases():
        F = random_tight_frame(spec, k, n, b, seed)
        rep = check_tight(F)
        assert rep.is_tight
        worst_res = max(worst_res, rep.residual)
        worst_b = max(worst_b, abs(rep.b - b) / b)
    elapsed = time.time() - t0
    ok = worst_res < 1e-10 and worst_b < 1e-10 and elapsed < 10
    _report(1, "normal-form soundness", ok,
            f"residual {worst_res:.2e}, b-dev {worst_b:.2e}, {elapsed:.1f}s")


def test_criterion_2_factorization_round_trip():
    t0 = time.time()
    frames = [
        random_tight_frame(spec, k, n, b, seed)
        for spec, k, n, b, seed in _normal_form_cases()
    ]
    frames += [f for f in _optimizer_outputs(50)]
    worst_unitary, worst_recon = 0.0, 0.0
    for F in frames:
        result = factorize(F, tol=1e-6)
        U = result.unitary
        eye = AMatrix.identity(F.spec, F.k)
        u_res = max((U @ U.H - eye).norm(), (U.H @ U - eye).norm())
        worst_unitary = max(worst_unitary, u_res)
        worst_recon = max(worst_recon, result.reconstruction_residual)
    elapsed = time.time() - t0
    ok = worst_unitary < 1e-10 and worst_recon < 1e-8 and elapsed < 30
    _report(2, "factorization round trip", ok,
            f"unitary {worst_unitary:.2e}, recon {worst_recon:.2e}, {elapsed:.1f}s")


def _equivalence_corpus():
    corpus = []
    for dims in [(1,), (2,), (1, 1)]:
        spec = AlgebraSpec(dims)
        # generic tight frames
        for i, (k, n) in enumerate(
            [(3, 2), (4, 2), (4, 3), (5, 3), (6, 4), (7, 5), (8, 5), (8, 6)]
        ):
            for b in (1.0, 2.0):
                corpus.append(random_tight_frame(spec, k, n, b, seed=100 + i))
        # boundary k = n
        for n in (2, 3, 4):
            corpus.append(Frame(AMatrix.identity(spec, n)))
            corpus.append(random_tight_frame(spec, n, n, 1.5, seed=n))
        # block fixtures
        for sa, sb in [(1, 2), (3, 4)]:
            corpus.append(
                direct_sum_frames(
                    [
                        random_tight_frame(spec, 2, 1, 1.0, seed=sa),
                        random_tight_frame(spec, 3, 2, 1.0, seed=sb),
                    ],
                    b=1.0,
                )
            )
            corpus.append(
                direct_sum_frames(
                    [
                        random_tight_frame(spec, 4, 2, 0.5, seed=sa),
                        random_tight_frame(spec, 4, 3, 0.5, seed=sb),
                    ],
                    b=0.5,
                )
            )
    return corpus


def test_criterion_3_split_equivalence_exhaustive():
    t0 = time.time()
    corpus = _equivalence_corpus()
    assert len(corpus) >= 60
    disagreements = []
    checked = 0
    for fi, F in enumerate(corpus):
        for size in range(F.k + 1):
            for I in itertools.combinations(range(1, F.k + 1), size):
                rep = split_equivalence(F, I, tol=1e-9)
                checked += 1
                if not rep.agree:
                    disagreements.append((fi, I))
    elapsed = time.time() - t0
    ok = not disagreements and elapsed < 300
    _report(3, "split equivalence exhaustive", ok,
            f"{len(corpus)} frames, {checked} subsets, "
            f"{len(disagreements)} disagreements, {elapsed:.1f}s")


def _spherical_corpus():
    """>= 500 strict-spherical tight frames with k <= 12 over [1] and [2]."""
    frames = []
    shapes_scalar = [(3, 2), (4, 2), (5, 3), (6, 4), (7, 5), (8, 6), (12, 8)]
    shapes_m2 = [(3, 2), (4, 2), (5, 3)]
    for dims, shapes, seeds in [
        ((1,), shapes_scalar, 20),
        ((2,), shapes_m2, 15),
    ]:
        spec = AlgebraSpec(dims)
        for k, n in shapes:
            for seed in range(seeds):
                trace = minimize(
                    spec, k, n, OptimizerConfig(seed=seed, tight_tol=1e-9)
                )
                if trace.converged:
                    frames.append((spec, k, n, ("opt", seed), trace.frame))
    # direct sums of parts with a common column radius (equal n_i / k_i)
    part_shapes = [(3, 2), (6, 4)]
    for dims in [(1,), (2,)]:
        spec = AlgebraSpec(dims)
        pool = {
            shape: [
                minimize(spec, *shape, OptimizerConfig(seed=s, tight_tol=1e-10)).frame
                for s in range(40, 47)
            ]
            for shape in part_shapes
        }
        for (ka, na), (kb, nb) in itertools.product(part_shapes, repeat=2):
            if ka + kb > 12:
                continue
            for fa, fb in itertools.product(pool[(ka, na)], pool[(kb, nb)]):
                frames.append(
                    (
                        spec,
                        ka + kb,
                        na + nb,
                        ("sum", (ka, na, kb, nb)),
                        direct_sum_frames([fa, fb], b=1.0),
                    )
                )
    return frames


def test_criterion_4_divisibility_claim():
    t0 = time.time()
    corpus = _spherical_corpus()
    assert len(corpus) >= 500, f"corpus has only {len(corpus)} frames"
    violations = []
    for spec, k, n, origin, F in corpus:
        assert is_spherical(F, tol=1e-5).is_spherical
        sigma = ortho_decompose(F)
        rep = divisibility_check(sigma, k, n)
        if not rep.all_divisible:
            violations.append(
                {
                    "spec": list(spec.summand_dims),
                    "k": k,
                    "n": n,
                    "origin": list(map(str, origin)),
                    "blocks": [list(b) for b in sigma.blocks],
                    "kprime": rep.kprime,
                }
            )
    if violations:
        ARTIFACTS.mkdir(exist_ok=True)
        out = ARTIFACTS / "divisibility_counterexamples.json"
        out.write_text(json.dumps(violations, indent=2))
    elapsed = time.time() - t0
    ok = not violations and elapsed < 600
    _report(4, "block-size divisibility", ok,
            f"{len(corpus)} frames, {len(violations)} violations, {elapsed:.1f}s")


def test_criterion_5_partition_enumeration():
    t0 = time.time()
    mismatches = 0
    for k in range(1, 9):
        for kprime in range(1, k + 1):
            if k % kprime:
                continue
            ours = sorted(list(p.blocks) for p in enumerate_partitions(k, kprime))
            oracle = sorted(
                sorted(tuple(sorted(b)) for b in p)
                for p in enumerate_set_partitions(list(range(1, k + 1)))
                if all(len(b) % kprime == 0 for b in p)
            )
            if ours != oracle:
                mismatches += 1
    spot = (
        len(list(enumerate_partitions(4, 2))) == 4
        and len(list(enumerate_partitions(6, 3))) == 11
    )
    elapsed = time.time() - t0
    ok = mismatches == 0 and spot and elapsed < 10
    _report(5, "partition enumeration", ok,
            f"{mismatches} mismatches, spot values {'ok' if spot else 'bad'}, "
            f"{elapsed:.1f}s")


def test_criterion_6_optimizer_success_rate():
    cases = [((1,), 3, 2), ((1,), 4, 2), ((1,), 5, 3), ((1,), 6, 4),
             ((2,), 3, 2), ((2,), 4, 2)]
    all_ok = True
    details = []
    for dims, k, n in cases:
        spec = AlgebraSpec(dims)
        hits = 0
        worst_time = 0.0
        for seed in range(20):
            t0 = time.time()
            trace = minimize(spec, k, n, OptimizerConfig(seed=seed))
            worst_time = max(worst_time, time.time() - t0)
            if trace.converged and trace.final_residual < 1e-6:
                hits += 1
        case_ok = hits >= 18 and worst_time < 5.0
        all_ok = all_ok and case_ok
        details.append(f"{dims}x({k},{n})={hits}/20")
    _report(6, "optimizer success rate", all_ok, " ".join(details))


def test_criterion_7_gradient_check():
    t0 = time.time()
    h = 1e-5
    worst = 0.0
    rng = np.random.default_rng(7)
    specs = [AlgebraSpec((1,)), AlgebraSpec((2,)), AlgebraSpec((1, 1))]
    for i in range(50):
        spec = specs[i % 3]
        n, k = 2, 3
        F = Frame(AMatrix.random(spec, n, k, rng))
        analytic = potential_gradient(F).blocks
        fd_err = 0.0
        scale = 0.0
        base_blocks = [b.copy() for b in F.matrix.blocks]
        for j, blk in enumerate(base_blocks):
            for p in range(blk.shape[0]):
                for q in range(blk.shape[1]):
                    for direction in (1.0, 1.0j):
                        def value(sign):
                            mod = [b.copy() for b in base_blocks]
                            mod[j][p, q] += sign * h * direction
                            return frame_potential(
                                Frame(AMatrix(spec, n, k, tuple(mod)))
                            )

                        fd = (value(+1) - value(-1)) / (2 * h)
                        a = analytic[j][p, q]
                        a = a.real if direction == 1.0 else a.imag
                        fd_err = max(fd_err, abs(fd - a))
                        scale = max(scale, abs(a))
        worst = max(worst, fd_err / max(1.0, scale))
    elapsed = time.time() - t0
    ok = worst < 1e-6 and elapsed < 30
    _report(7, "gradient finite differences", ok,
            f"relative error {worst:.2e}, {elapsed:.1f}s")


def test_criterion_8_cstar_layer():
    t0 = time.time()
    rng = np.random.default_rng(8)
    specs = [AlgebraSpec((1,)), AlgebraSpec((2,)), AlgebraSpec((2, 1))]
    worst = {"identity": 0.0, "submult": 0.0, "involution": 0.0, "trace": 0.0}
    for i in range(1000):
        spec = specs[i % 3]
        a = AMatrix.random(spec, 1, 1, rng)
        b = AMatrix.random(spec, 1, 1, rng)
        na, nb = a.norm(), b.norm()
        worst["identity"] = max(
            worst["identity"],
            abs((a.adjoint() @ a).norm() - na**2) / max(1.0, na**2),
        )
        worst["submult"] = max(
            worst["submult"], ((a @ b).norm() - na * nb) / max(1.0, na * nb)
        )
        assert a.adjoint().adjoint().allclose(a, tol=0.0)
        worst["involution"] = max(
            worst["involution"], abs(a.adjoint().norm() - na) / max(1.0, na)
        )
        worst["trace"] = max(
            worst["trace"],
            abs((a @ b).normalized_trace() - (b @ a).normalized_trace())
            / max(1.0, na * nb),
        )
    elapsed = time.time() - t0
    ok = all(v <= 1e-10 for v in worst.values()) and elapsed < 10
    _report(8, "C*-layer properties", ok,
            f"worst {max(worst.values()):.2e}, {elapsed:.1f}s")


def test_criterion_9_scalar_definition_diagnostic():
    t0 = time.time()
    scalar = AlgebraSpec((1,))
    worst_dev = 0.0
    for seed, (k, n, b) in enumerate([(4, 2, 1.0), (5, 3, 1.5), (7, 4, 0.5)]):
        F = random_tight_frame(scalar, k, n, b, seed)
        rep = scalar_definition_check(F, b, num_samples=10_000, seed=seed)
        worst_dev = max(worst_dev, rep.max_equality_deviation)
        assert rep.inequality_violations == 0
    m2 = AlgebraSpec((2,))
    violations = 0
    for seed, (k, n, b) in enumerate([(4, 2, 1.0), (5, 3, 2.0)]):
        F = random_tight_frame(m2, k, n, b, seed)
        rep = scalar_definition_check(F, b, num_samples=10_000, seed=seed)
        violations += rep.inequality_violations
    witness = json.loads((FIXTURES / "strict_inequality_witness.json").read_text())
    witness_ok = witness["delta"] > 0.1
    elapsed = time.time() - t0
    ok = worst_dev < 1e-9 and violations == 0 and witness_ok and elapsed < 60
    _report(9, "scalar-definition diagnostic", ok,
            f"scalar dev {worst_dev:.2e}, M2 violations {violations}, "
            f"witness delta {witness['delta']:.2f}, {elapsed:.1f}s")


def test_criterion_10_cli_contract(tmp_path, capsys):
    t0 = time.time()
    checks = []

    fpath = str(tmp_path / "f.json")
    checks.append(cli_main(["gen", "--algebra", "1", "--k", "3", "--n", "2",
                            "--b", "1.5", "--seed", "7", "--out", fpath]) == 0)
    checks.append(cli_main(["verify", fpath]) == 0)
    # perturbed frame -> exit 1
    F = load_frame(fpath)
    blocks = [arr.copy() for arr in F.matrix.blocks]
    blocks[0][0, 0] += 0.1
    bad = Frame(AMatrix(F.spec, F.n, F.k, tuple(blocks)))
    bpath = tmp_path / "bad.json"
    save_frame(bpath, bad)
    checks.append(cli_main(["verify", str(bpath)]) == 1)
    # truncated -> 2; bad args -> 3
    tpath = tmp_path / "trunc.json"
    tpath.write_text('{"algebra": [1]')
    checks.append(cli_main(["verify", str(tpath)]) == 2)
    checks.append(cli_main(["gen", "--algebra", "1", "--k", "2", "--n", "3",
                            "--out", fpath]) == 3)
    checks.append(cli_main(["partitions", "--k", "5", "--kprime", "2"]) == 3)
    checks.append(cli_main(["factorize", fpath, "--out",
                            str(tmp_path / "u.json")]) == 0)
    checks.append(cli_main(["analyze", fpath]) == 0)
    capsys.readouterr()

    # golden round trip: regenerating with the same seed is byte-identical
    f2 = str(tmp_path / "f2.json")
    cli_main(["gen", "--algebra", "2,1", "--k", "4", "--n", "2", "--seed", "9",
              "--out", f2])
    f3 = str(tmp_path / "f3.json")
    cli_main(["gen", "--algebra", "2,1", "--k", "4", "--n", "2", "--seed", "9",
              "--out", f3])
    checks.append(Path(f2).read_bytes() == Path(f3).read_bytes())
    reread = load_frame(f2)
    save_frame(tmp_path / "f4.json", reread, metadata={"generator": "gen",
                                                       "seed": 9, "b": 1.0})
    d2 = json.loads(Path(f2).read_text())
    d4 = json.loads((tmp_path / "f4.json").read_text())
    checks.append(d2["columns"] == d4["columns"])
    capsys.readouterr()

    st0 = time.time()
    checks.append(cli_main(["selftest"]) == 0)
    selftest_time = time.time() - st0
    checks.append(selftest_time < 60)
    capsys.readouterr()

    elapsed = time.time() - t0
    ok = all(checks)
    _report(10, "CLI contract", ok,
            f"{sum(checks)}/{len(checks)} checks, selftest {selftest_time:.1f}s, "
            f"{elapsed:.1f}s")
