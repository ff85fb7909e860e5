import argparse
import contextlib
import io
import json
import math
import os
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ncframes import cli, count_partitions
from ncframes.cli import main
from ncframes.io import load_frame, save_frame
from conftest import make_mercedes, perturbed_direct_sum

PACKAGE_ROOT = Path(cli.__file__).resolve().parent.parent


def run(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr().out
    return rc, out


class TestGen:
    def test_gen_then_verify(self, tmp_path, capsys):
        path = str(tmp_path / "f.json")
        rc, out = run(capsys, "gen", "--algebra", "1", "--k", "3", "--n", "2",
                      "--b", "1.5", "--seed", "7", "--out", path)
        assert rc == 0
        assert json.loads(out)["is_tight"]
        rc, out = run(capsys, "verify", path)
        assert rc == 0
        assert json.loads(out)["b"] == pytest.approx(1.5)

    def test_gen_k_less_than_n(self, tmp_path, capsys):
        rc, _ = run(capsys, "gen", "--algebra", "1", "--k", "2", "--n", "3",
                    "--out", str(tmp_path / "f.json"))
        assert rc == 3

    def test_gen_deterministic_bytes(self, tmp_path, capsys):
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        run(capsys, "gen", "--algebra", "2,1", "--k", "4", "--n", "2",
            "--seed", "5", "--out", str(p1))
        run(capsys, "gen", "--algebra", "2,1", "--k", "4", "--n", "2",
            "--seed", "5", "--out", str(p2))
        assert p1.read_bytes() == p2.read_bytes()

    # sha256 of gen output recorded with the 4-index layout and the
    # per-element encoder; pins frame bytes across implementations
    GOLDEN = [
        ("1", 5, 3, 0, "1.0",
         "a4339e2d91aa2faed96ee0ab57799bda3aefb77245a61817cf17d8a740eb380c"),
        ("2,1", 4, 2, 7, "1.5",
         "d98f60b2d9bc6b67f349446459c5857b8b4eb9dea31da60d717a11ac398ff9fa"),
        ("3,2", 6, 4, 11, "1.0",
         "73c22a4818134978199d19d30a441d94e087c63f96cbc95d4cd8324532b1429c"),
    ]

    @pytest.mark.parametrize("algebra,k,n,seed,b,digest", GOLDEN)
    def test_gen_golden_bytes(self, tmp_path, capsys, algebra, k, n, seed, b, digest):
        import hashlib

        path = tmp_path / "g.json"
        rc, _ = run(capsys, "gen", "--algebra", algebra, "--k", str(k),
                    "--n", str(n), "--seed", str(seed), "--b", b, "--out", str(path))
        assert rc == 0
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


class TestVerify:
    def test_perturbed_frame_fails(self, tmp_path, capsys):
        F = make_mercedes()
        blocks = [arr.copy() for arr in F.matrix.blocks]
        blocks[0][0, 0] += 0.1
        from ncframes import AMatrix, Frame

        bad = Frame(AMatrix(F.spec, 2, 3, tuple(blocks)))
        path = tmp_path / "bad.json"
        save_frame(path, bad)
        rc, out = run(capsys, "verify", str(path))
        assert rc == 1
        assert not json.loads(out)["is_tight"]

    @pytest.mark.parametrize("command", ["verify", "analyze"])
    @pytest.mark.parametrize("bad", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_entry_exit_2(self, tmp_path, capsys, command, bad):
        path = tmp_path / "f.json"
        run(capsys, "gen", "--algebra", "2,1", "--k", "3", "--n", "2",
            "--out", str(path))
        doc = json.loads(path.read_text())
        doc["columns"][1][0][0][2][1] = "BAD"
        path.write_text(json.dumps(doc).replace('"BAD"', bad))
        rc, _ = run(capsys, command, str(path))
        assert rc == 2

    @pytest.mark.parametrize("command", ["verify", "analyze", "factorize"])
    @pytest.mark.parametrize("doc, kind", [([1, 2], "list"), ("frame", "str"), (7, "int"), (None, "NoneType")])
    def test_document_not_an_object_exit_2(self, tmp_path, capsys, command, doc, kind):
        path = tmp_path / "f.json"
        path.write_text(json.dumps(doc))
        extra = ["--out", str(tmp_path / "u.json")] if command == "factorize" else []
        assert main([command, str(path), *extra]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: bad frame file: expected a JSON object, got {kind}\n"

    @pytest.mark.parametrize(
        "key, value, message",
        [("algebra", {"a": 1}, "bad algebra spec: expected a JSON array, got dict"),
         ("columns", "a", "expected a JSON array, got str"),
         ("columns", ["a"], "expected a JSON array, got str")],
    )
    def test_object_or_string_for_an_array_exit_2(self, tmp_path, capsys, key, value, message):
        # an object's keys or a string's characters are not read as items
        doc = {"algebra": [1], "n": 1, "k": 1, "columns": [[[[[1.0, 0.0]]]]], "kind": "frame"}
        path = tmp_path / "f.json"
        path.write_text(json.dumps(doc))
        assert run(capsys, "analyze", str(path))[0] == 0
        path.write_text(json.dumps({**doc, key: value}))
        assert main(["analyze", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: bad frame file: {message}\n"

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("command", ["verify", "analyze", "factorize"])
    def test_overflowing_entry_exit_2(self, tmp_path, capsys, command):
        # 1e308 is finite, but its square, a term of trace(FF*), is not
        path = tmp_path / "f.json"
        run(capsys, "gen", "--algebra", "1", "--k", "3", "--n", "2",
            "--out", str(path))
        doc = json.loads(path.read_text())
        doc["columns"][0][0][0][0][0] = 1e308
        path.write_text(json.dumps(doc))
        extra = ["--out", str(tmp_path / "u.json")] if command == "factorize" else []
        rc, _ = run(capsys, command, str(path), *extra)
        assert rc == 2

    @pytest.mark.filterwarnings("error")
    def test_large_finite_scale_still_verifies(self, tmp_path, capsys):
        path = tmp_path / "f.json"
        run(capsys, "gen", "--algebra", "1", "--k", "3", "--n", "2",
            "--out", str(path))
        doc = json.loads(path.read_text())
        doc["columns"] = json.loads(
            json.dumps(doc["columns"]), parse_float=lambda t: 1e100 * float(t)
        )
        path.write_text(json.dumps(doc))
        rc, out = run(capsys, "verify", str(path))
        assert rc == 0
        assert json.loads(out)["b"] == pytest.approx(1e200)

    def test_truncated_file(self, tmp_path, capsys):
        path = tmp_path / "t.json"
        path.write_text('{"algebra": [1]')
        rc, _ = run(capsys, "verify", str(path))
        assert rc == 2


class TestAnalyze:
    def test_tiny_tol_prints_no_warning(self, tmp_path):
        # the Gram entries of this exactly tight frame square past the float
        # range at this bound; they are edges, and a child process with
        # Python's default warning filters prints no overflow warning
        from ncframes import AlgebraSpec, AMatrix, Frame

        path = tmp_path / "quarters.json"
        save_frame(path, Frame(AMatrix(AlgebraSpec((1,)), 1, 4, (np.full((1, 4), 0.5),))))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join([str(PACKAGE_ROOT), env.get("PYTHONPATH", "")])
        proc = subprocess.run(
            [sys.executable, "-m", "ncframes.cli", "analyze", str(path), "--tol", "1e-200"],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert (proc.returncode, proc.stderr) == (0, "")
        assert json.loads(proc.stdout)["partition"] == [[1, 2, 3, 4]]

    def test_double_mercedes(self, tmp_path, capsys):
        from ncframes import direct_sum_frames

        ds = direct_sum_frames([make_mercedes(), make_mercedes()], b=1.5)
        path = tmp_path / "ds.json"
        save_frame(path, ds)
        rc, out = run(capsys, "analyze", str(path))
        assert rc == 0
        doc = json.loads(out)
        assert doc["partition"] == [[1, 2, 3], [4, 5, 6]]
        assert all(b["size_divisible"] for b in doc["blocks"])
        assert doc["kprime"] == 3

    def test_orthonormal_basis_singletons(self, tmp_path, capsys):
        from ncframes import AMatrix, AlgebraSpec, Frame

        spec = AlgebraSpec((1,))
        path = tmp_path / "onb.json"
        save_frame(path, Frame(AMatrix.identity(spec, 4)))
        rc, out = run(capsys, "analyze", str(path))
        assert rc == 0
        assert json.loads(out)["partition"] == [[1], [2], [3], [4]]

    def test_not_tight_exit_1(self, tmp_path, capsys):
        from ncframes import AlgebraSpec, AMatrix, Frame

        spec = AlgebraSpec((1,))
        rng = np.random.default_rng(0)
        path = tmp_path / "r.json"
        save_frame(path, Frame(AMatrix.random(spec, 2, 4, rng)))
        rc, _ = run(capsys, "analyze", str(path))
        assert rc == 1

    @pytest.mark.parametrize("tol", ["1e-6", "1e-8"])
    def test_perturbed_direct_sum_splits_at_its_tol(self, tmp_path, capsys, tol):
        # residual 2.4e-9 and cross Gram entries up to 1.6e-9: tight at tol,
        # so the coupling lies below the edge threshold tol * b as well
        F = perturbed_direct_sum([make_mercedes(), make_mercedes()], 1.5, 1e-9)
        path = tmp_path / "p.json"
        save_frame(path, F)
        rc, out = run(capsys, "analyze", str(path), "--tol", tol)
        assert rc == 0
        assert json.loads(out)["partition"] == [[1, 2, 3], [4, 5, 6]]

    def test_single_block_reuses_the_full_tightness_report(
        self, tmp_path, capsys, monkeypatch
    ):
        # the block covering all k columns is F itself, so its b is the one
        # analyze already measured; check_tight then runs in analyze and in
        # ortho_decompose only
        from ncframes import AlgebraSpec, decomposition, random_tight_frame

        path = tmp_path / "f.json"
        save_frame(path, random_tight_frame(AlgebraSpec((2, 1)), 5, 3, 1.25, seed=4))
        sizes = []
        for module in (cli, decomposition):
            real = module.check_tight

            def counted(F, tol, real=real):
                sizes.append(F.k)
                return real(F, tol)

            monkeypatch.setattr(module, "check_tight", counted)
        rc, out = run(capsys, "analyze", str(path))
        assert rc == 0
        doc = json.loads(out)
        assert doc["partition"] == [[1, 2, 3, 4, 5]]
        assert doc["blocks"][0]["b"] == doc["tightness"]["b"]
        assert sizes == [5, 5]

    @pytest.mark.parametrize("dims", [(1,), (2,), (2, 1)])
    def test_block_residuals_match_commutation_residual_bit_for_bit(
        self, tmp_path, capsys, dims
    ):
        # each block's printed residual is commutation_residual's value in
        # every bit: roundoff on a direct sum rotated by a left unitary, and
        # an exact 0.0 on the exact direct sum
        from ncframes import (
            AlgebraSpec, Frame, commutation_residual, direct_sum_frames,
            random_tight_frame, random_unitary,
        )

        spec = AlgebraSpec(dims)
        shapes = [(3, 2), (4, 3), (2, 1)]
        parts = [random_tight_frame(spec, k, n, 1.0, seed) for seed, (k, n) in enumerate(shapes)]
        exact = direct_sum_frames(parts, 1.0)
        V = random_unitary(spec, exact.n, np.random.default_rng(5))
        path = tmp_path / "f.json"
        printed = {}
        for name, F in (("exact", exact), ("rotated", Frame(V @ exact.matrix))):
            save_frame(path, F)
            rc, out = run(capsys, "analyze", str(path))
            doc = json.loads(out)
            assert rc == 0
            assert doc["partition"] == [[1, 2, 3], [4, 5, 6, 7], [8, 9]]
            F = load_frame(path)
            printed[name] = [blk["commutation_residual"] for blk in doc["blocks"]]
            assert printed[name] == [commutation_residual(F, blk) for blk in doc["partition"]]
            if name == "exact":
                assert out.count('"commutation_residual": 0.0,') == 3
        assert printed["exact"] == [0.0] * 3
        assert 0.0 < max(printed["rotated"]) <= 1e-14


class TestFactorize:
    def test_scaled_coisometry(self, tmp_path, capsys):
        from ncframes import AlgebraSpec, Frame, canonical_coisometry

        spec = AlgebraSpec((1,))
        F = Frame(np.sqrt(2.0) * canonical_coisometry(spec, 3, 2))
        fpath, upath = tmp_path / "f.json", tmp_path / "u.json"
        save_frame(fpath, F)
        rc, out = run(capsys, "factorize", str(fpath), "--out", str(upath))
        assert rc == 0
        doc = json.loads(out)
        assert doc["b"] == pytest.approx(2.0)
        assert doc["reconstruction_residual"] < 1e-8
        udoc = json.loads(upath.read_text())
        assert udoc["b"] == pytest.approx(2.0)
        from ncframes.io import decode_amatrix
        from ncframes import is_unitary

        assert is_unitary(decode_amatrix(udoc), 1e-10)

    def test_not_tight_exit_1(self, tmp_path, capsys):
        from ncframes import AlgebraSpec, AMatrix, Frame

        rng = np.random.default_rng(1)
        path = tmp_path / "r.json"
        save_frame(path, Frame(AMatrix.random(AlgebraSpec((1,)), 2, 4, rng)))
        rc, _ = run(capsys, "factorize", str(path), "--out", str(tmp_path / "u.json"))
        assert rc == 1

    def test_constant_below_tol_is_named(self, tmp_path, capsys):
        from ncframes import AlgebraSpec, random_tight_frame

        path = tmp_path / "f.json"
        save_frame(path, random_tight_frame(AlgebraSpec((1,)), 3, 2, 5e-10))
        rc, out = run(capsys, "factorize", str(path), "--out", str(tmp_path / "u.json"))
        assert rc == 1
        error = json.loads(out)["error"]
        assert error == "frame is not tight: b 5.000e-10 is not above tol 1.000e-09"
        assert not (tmp_path / "u.json").exists()


# the exit-1 stdout of the commands that need a tight frame, byte for byte, on
# two diagonal frames over C whose numbers are exact: diag(1, 2) fails its
# residual, and diag(sqrt(4e-10), sqrt(6e-10)) has b = 5e-10 below tol with a
# residual within it; factorize's "residual" is the tightness residual in both
_REPORT = (
    '{{\n  "b": {b},\n  "residual": {res},\n  "is_tight": false,\n'
    '  "per_summand_b": [\n    {b}\n  ]\n}}\n'
)
NOT_TIGHT_STDOUT = {
    "residual": (
        [1.0, 2.0],
        _REPORT.format(b="2.5", res="1.5"),
        '{\n  "error": "frame is not tight: residual 1.500e+00 exceeds tol 2.500e-09",\n'
        '  "residual": 1.5\n}\n',
    ),
    "b": (
        [math.sqrt(4e-10), math.sqrt(6e-10)],
        _REPORT.format(b="5e-10", res="9.999999999999996e-11"),
        '{\n  "error": "frame is not tight: b 5.000e-10 is not above tol 1.000e-09",\n'
        '  "residual": 9.999999999999996e-11\n}\n',
    ),
}


@pytest.mark.parametrize("failed", sorted(NOT_TIGHT_STDOUT))
def test_not_tight_stdout_is_pinned(tmp_path, capsys, failed):
    from ncframes import AlgebraSpec, AMatrix, Frame

    diag, report, error = NOT_TIGHT_STDOUT[failed]
    path, out = tmp_path / "f.json", tmp_path / "u.json"
    save_frame(path, Frame(AMatrix(AlgebraSpec((1,)), 2, 2, (np.diag(diag),))))
    assert run(capsys, "verify", str(path)) == (1, report)
    assert run(capsys, "analyze", str(path)) == (1, report)
    assert run(capsys, "factorize", str(path), "--out", str(out)) == (1, error)
    assert not out.exists()


class TestTextOutput:
    def test_verify_prints_key_value_lines(self, tmp_path, capsys):
        path = tmp_path / "f.json"
        save_frame(path, make_mercedes())
        rc, out = run(capsys, "verify", str(path), "--output", "text")
        assert rc == 0
        lines = out.splitlines()
        assert [line.split(": ", 1)[0] for line in lines] == [
            "b", "residual", "is_tight", "per_summand_b"
        ]
        assert "is_tight: True" in lines
        assert float(lines[0].split(": ")[1]) == pytest.approx(1.5)

    def test_partitions_prints_key_value_lines(self, capsys):
        rc, out = run(capsys, "partitions", "--k", "4", "--kprime", "2", "--output", "text")
        assert rc == 0
        assert out == (
            "k: 4\nkprime: 2\ncount: 4\npartitions: [[[1, 2], [3, 4]], [[1, 2, 3, 4]], "
            "[[1, 3], [2, 4]], [[1, 4], [2, 3]]]\n"
        )


class TestPartitions:
    def test_counts(self, capsys):
        rc, out = run(capsys, "partitions", "--k", "4", "--kprime", "2",
                      "--count-only")
        assert rc == 0
        assert json.loads(out)["count"] == 4
        rc, out = run(capsys, "partitions", "--k", "6", "--kprime", "3",
                      "--count-only")
        assert json.loads(out)["count"] == 11

    def test_listing_canonical(self, capsys):
        rc, out = run(capsys, "partitions", "--k", "4", "--kprime", "2")
        doc = json.loads(out)
        assert doc["partitions"][0] == [[1, 2], [3, 4]]

    def test_invalid_kprime(self, capsys):
        rc, _ = run(capsys, "partitions", "--k", "5", "--kprime", "2")
        assert rc == 3

    def test_count_only_by_recurrence(self, capsys):
        import time

        start = time.perf_counter()
        rc, out = run(capsys, "partitions", "--k", "30", "--kprime", "1",
                      "--count-only")
        elapsed = time.perf_counter() - start
        assert rc == 0
        assert json.loads(out)["count"] == 846749014511809332450147  # Bell(30)
        assert elapsed < 1.0

    @pytest.mark.parametrize("k", ["12", "30"])
    def test_listing_beyond_cap_exits_3_at_once(self, capsys, k):
        import time

        start = time.perf_counter()
        rc = main(["partitions", "--k", k, "--kprime", "1"])
        elapsed = time.perf_counter() - start
        captured = capsys.readouterr()
        assert rc == 3
        assert captured.out == ""
        assert "--count-only" in captured.err
        assert elapsed < 1.0

    @pytest.mark.parametrize(
        "argv",
        [
            ["--k", "2000", "--kprime", "1", "--count-only"],  # the count took 11.5 s at 1000
            ["--k", "20000", "--kprime", "10000", "--count-only"],  # 6019 digits
            ["--k", "100000000", "--kprime", "100000000"],  # one partition of 1e8 labels
            ["--k", "100000000000000000000", "--kprime", "100000000000000000000"],
        ],
        ids=" ".join,
    )
    def test_unbounded_work_exits_3_at_once(self, capsys, argv):
        start = time.perf_counter()
        rc = main(["partitions"] + argv)
        elapsed = time.perf_counter() - start
        captured = capsys.readouterr()
        assert (rc, captured.out) == (3, "")
        assert captured.err.startswith("error:")
        assert elapsed < 1.0

    @pytest.mark.parametrize(
        "k,kprime,count,refused",
        [
            (256, 1, None, ["--k", "257", "--kprime", "1"]),  # the most blocks counted
            # one block or two; the bound 2^k has 4300 digits at k = 14284 and
            # 4301 at 14286, so the first count prints and the second is refused
            (14284, 7142, math.comb(14283, 7141) + 1, ["--k", "14286", "--kprime", "7143"]),
            (10**20, 10**20, 1, ["--k", "100000000000000000000", "--kprime", "1"]),
        ],
    )
    def test_count_limits_are_tight(self, capsys, k, kprime, count, refused):
        start = time.perf_counter()
        rc, out = run(capsys, "partitions", "--k", str(k), "--kprime", str(kprime),
                      "--count-only")
        assert rc == 0
        assert json.loads(out)["count"] == (count or count_partitions(k, kprime))
        assert run(capsys, "partitions", *refused, "--count-only") == (3, "")
        assert time.perf_counter() - start < 1.0

    def test_label_cap_is_inclusive(self, capsys, monkeypatch):
        # 4 partitions of 4 labels
        monkeypatch.setattr(cli, "MAX_LISTED_LABELS", 16)
        rc, out = run(capsys, "partitions", "--k", "4", "--kprime", "2")
        assert rc == 0 and len(json.loads(out)["partitions"]) == 4
        monkeypatch.setattr(cli, "MAX_LISTED_LABELS", 15)
        rc, out = run(capsys, "partitions", "--k", "4", "--kprime", "2")
        assert (rc, out) == (3, "")

    def test_label_cap_alone_decides_every_listing(self, capsys, monkeypatch):
        # the listing itself is stubbed out: this checks the refusal rule only
        monkeypatch.setattr(cli, "enumerate_partitions", lambda k, kprime: iter(()))
        for k in range(1, 61):
            for kprime in (d for d in range(1, k + 1) if k % d == 0):
                rc, _ = run(capsys, "partitions", "--k", str(k), "--kprime", str(kprime))
                over = count_partitions(k, kprime) * k > cli.MAX_LISTED_LABELS
                assert rc == (3 if over else 0), (k, kprime)


class TestArgumentContract:
    GEN = ["gen", "--algebra", "1", "--k", "3", "--n", "2"]
    MIN = ["minimize", "--algebra", "1", "--k", "3", "--n", "2"]
    BAD = [
        GEN + ["--b", "nan"],
        GEN + ["--b", "inf"],
        GEN + ["--b", "-1"],
        GEN + ["--b", "one"],
        GEN + ["--tol", "0"],
        GEN + ["--tol", "nan"],
        GEN + ["--seed", "-1"],
        ["gen", "--algebra", "1", "--k", "3", "--n", "0"],
        ["gen", "--algebra", "1", "--k", "0", "--n", "0"],
        MIN + ["--step-size", "nan"],
        MIN + ["--radius", "nan"],
        MIN + ["--radius", "0"],
        MIN + ["--tight-tol", "inf"],
        MIN + ["--max-iters", "0"],
        MIN + ["--seed", "-1"],
    ] + [
        [command, "--algebra", algebra, "--k", "3", "--n", "2"]
        for command in ("gen", "minimize")
        for algebra in ("x", "0", "2,,1", "")
    ]

    @pytest.mark.parametrize("argv", BAD, ids=" ".join)
    def test_bad_number_exits_3_before_writing(self, tmp_path, capsys, argv):
        out = tmp_path / "f.json"
        rc = main(argv + ["--out", str(out)])
        captured = capsys.readouterr()
        assert rc == 3
        assert captured.out == ""
        assert captured.err.startswith("error: argument")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["verify", "analyze", "factorize"])
    @pytest.mark.parametrize("tol", ["nan", "0", "-1", "inf"])
    def test_bad_tol_exits_3(self, tmp_path, capsys, command, tol):
        path = tmp_path / "f.json"
        assert main(self.GEN + ["--out", str(path)]) == 0
        capsys.readouterr()
        extra = ["--out", str(tmp_path / "u.json")] if command == "factorize" else []
        rc = main([command, str(path), "--tol", tol] + extra)
        captured = capsys.readouterr()
        assert rc == 3
        assert captured.out == ""
        assert captured.err.startswith("error: argument --tol")
        assert not (tmp_path / "u.json").exists()

    @pytest.mark.parametrize("k", ["0", "-2"])
    def test_partitions_nonpositive_k_exits_3(self, capsys, k):
        assert main(["partitions", "--k", k, "--kprime", "1"]) == 3

    # no frame of these constants could load or verify: n*m*b overflows the
    # trace of FF* that the reader checks, or b is at most --tol
    @pytest.mark.parametrize(
        "algebra,k,n,b,tol",
        [
            ("2", "4", "2", "1.7e308", None),
            ("1", "3", "2", "1e308", None),
            ("3,2", "6", "4", "1.5e307", None),
            ("1", "2", "1", "1e-300", None),
            ("1", "3", "2", "1e-9", None),
            ("2,1", "4", "2", "1e-4", "1e-4"),
        ],
    )
    def test_gen_unloadable_b_exits_3_before_writing(
        self, tmp_path, capsys, algebra, k, n, b, tol
    ):
        out = tmp_path / "f.json"
        extra = ["--tol", tol] if tol else []
        rc = main(["gen", "--algebra", algebra, "--k", k, "--n", n, "--b", b,
                   "--out", str(out)] + extra)
        captured = capsys.readouterr()
        assert rc == 3
        assert captured.out == ""
        assert captured.err.startswith("error: b")
        assert not out.exists()

    @pytest.mark.parametrize("algebra,k,n", [("1", 3, 2), ("2,1", 4, 2), ("3,2", 6, 4)])
    def test_gen_largest_b_round_trips(self, tmp_path, capsys, algebra, k, n):
        # gen accepts b exactly while n * max m_j * b < (1 - 1e-6) * max float
        nm = n * max(int(m) for m in algebra.split(","))
        bound = (1 - 1e-6) * sys.float_info.max
        b = bound / nm
        while not nm * b < bound:
            b = math.nextafter(b, 0.0)
        gen = ["gen", "--algebra", algebra, "--k", str(k), "--n", str(n)]
        path, refused = tmp_path / "f.json", tmp_path / "g.json"
        rc, _ = run(capsys, *gen, "--b", repr(math.nextafter(b, math.inf)),
                    "--out", str(refused))
        assert rc == 3 and not refused.exists()
        rc, out = run(capsys, *gen, "--b", repr(b), "--out", str(path))
        assert rc == 0 and json.loads(out)["is_tight"]
        rc, out = run(capsys, "verify", str(path))
        assert rc == 0
        assert json.loads(out)["b"] == pytest.approx(b, rel=1e-12)

    @pytest.mark.parametrize(
        "argv",
        [
            ["partitions", "--k", "4", "--kprime", "2"],
            ["selftest"],
            ["minimize", "--algebra", "1", "--k", "5", "--n", "3", "--out", "m.json"],
        ],
        ids=" ".join,
    )
    def test_tol_is_not_an_option_where_nothing_reads_it(
        self, tmp_path, monkeypatch, capsys, argv
    ):
        monkeypatch.chdir(tmp_path)
        rc = main(argv + ["--tol", "1e-9"])
        captured = capsys.readouterr()
        assert rc == 3
        assert captured.out == ""
        assert captured.err.startswith("error: unrecognized arguments: --tol")
        assert list(tmp_path.iterdir()) == []

    # unchecked, these reach numpy's allocator (2.84 PiB, or "array is too big")
    @pytest.mark.parametrize("command", ["gen", "minimize"])
    @pytest.mark.parametrize(
        "algebra,k",
        [("10000000", "2"), ("1", "3000000000"), ("1", "2001"), ("1,1", "1415"),
         ("100000000000000000000", "1"), (",".join(["1"] * 100), "201")],
        ids=["m-1e7", "k-3e9", "k-2001", "two-summands", "m-1e20", "100-summands"],
    )
    def test_oversized_shape_exits_3_before_writing(
        self, tmp_path, capsys, command, algebra, k
    ):
        out = tmp_path / "f.json"
        rc = main([command, "--algebra", algebra, "--k", k, "--n", "1", "--out", str(out)])
        captured = capsys.readouterr()
        assert (rc, captured.out) == (3, "")
        assert captured.err.startswith("error: frame too large")
        assert not out.exists()

    def test_shape_cap_is_inclusive(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "MAX_SIDE", 6)
        out = str(tmp_path / "f.json")
        assert main(["gen", "--algebra", "2", "--k", "3", "--n", "1", "--out", out]) == 0
        assert main(["gen", "--algebra", "1,1", "--k", "4", "--n", "1", "--out", out]) == 0
        capsys.readouterr()
        assert main(["gen", "--algebra", "2,1", "--k", "3", "--n", "1", "--out", out]) == 3
        assert main(["minimize", "--algebra", "1", "--k", "7", "--n", "1", "--out", out]) == 3

    @pytest.mark.parametrize("command", ["gen", "minimize"])
    def test_shape_outside_one_to_k_exits_3_with_the_library_message(
        self, tmp_path, capsys, command
    ):
        out = tmp_path / "f.json"
        rc = main([command, "--algebra", "1", "--k", "2", "--n", "3", "--out", str(out)])
        captured = capsys.readouterr()
        assert (rc, captured.out) == (3, "")
        assert captured.err == "error: need 1 <= n <= k, got k=2, n=3\n"
        assert not out.exists()

    # n = 1, k = 50 000 (wide) and n = 50 000, k = 1 (tall) over C, every
    # entry 1.0: under 1 MB each, yet FF*, the Gram F*F or the unitary is
    # 50 000 x 50 000, the 37.3 GiB that numpy's allocator refuses
    BIG_SIDE = 50_000

    @staticmethod
    def _run_capped(tmp_path, argv):
        """(exit code, stderr) of the CLI in a child on one BLAS thread with 4 GB of address space."""
        child = (
            "import resource, sys\n"
            "resource.setrlimit(resource.RLIMIT_AS, (4 * 10**9, 4 * 10**9))\n"
            "from ncframes.cli import main\n"
            "sys.exit(main(sys.argv[1:]))\n"
        )
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
        env["PYTHONPATH"] = os.pathsep.join([str(PACKAGE_ROOT), env.get("PYTHONPATH", "")])
        proc = subprocess.run(
            [sys.executable, "-c", child, *argv],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
        )
        return proc.returncode, proc.stderr

    def _big_file(self, tmp_path, n, k):
        path = tmp_path / "big.json"
        column = [[[[1.0, 0.0]]]] * n
        doc = {"algebra": [1], "n": n, "k": k, "columns": [column] * k, "kind": "frame"}
        path.write_text(json.dumps(doc))
        return str(path)

    def test_wide_frame_verifies_within_the_budget(self, tmp_path):
        path = self._big_file(tmp_path, 1, self.BIG_SIDE)
        assert self._run_capped(tmp_path, ["verify", path]) == (0, "")

    @pytest.mark.parametrize(
        "n,k,command",
        [(1, BIG_SIDE, "analyze"), (1, BIG_SIDE, "factorize"),
         (BIG_SIDE, 1, "verify"), (BIG_SIDE, 1, "analyze"), (BIG_SIDE, 1, "factorize")],
        ids=["wide-analyze", "wide-factorize", "tall-verify", "tall-analyze", "tall-factorize"],
    )
    def test_frame_file_past_the_budget_exits_3_before_allocating(self, tmp_path, n, k, command):
        path = self._big_file(tmp_path, n, k)
        out = tmp_path / "u.json"
        argv = [command, path] + (["--out", str(out)] if command == "factorize" else [])
        rc, err = self._run_capped(tmp_path, argv)
        assert rc == 3
        assert err.startswith("error: frame too large")
        assert "Traceback" not in err
        assert not out.exists()

    # with MAX_SIDE 60, the largest frame gen makes over each algebra: n = k
    # with k * sqrt(sum of m_j^2) <= 60
    LARGEST = [("1", 60), ("2", 30), ("1,1", 42), ("2,1", 26)]

    @staticmethod
    def _reads(path, out):
        """The argv of verify, analyze and factorize on path."""
        return [["verify", path], ["analyze", path], ["factorize", path, "--out", out]]

    @pytest.mark.parametrize("b", ["1.0", "1e300"])
    @pytest.mark.parametrize("algebra,k", LARGEST)
    def test_largest_frame_inside_the_budget_is_read(
        self, tmp_path, capsys, monkeypatch, algebra, k, b
    ):
        monkeypatch.setattr(cli, "MAX_SIDE", 60)
        path = str(tmp_path / "f.json")
        argv = ["gen", "--algebra", algebra, "--k", str(k), "--n", str(k), "--b", b]
        assert main(argv + ["--out", path]) == 0
        # at b = 1e300 the floats print at their longest, and the pairs alone
        # stay within the cap's 69 bytes each
        assert os.path.getsize(path) <= 69 * 60**2
        for reading in self._reads(path, str(tmp_path / "u.json")):
            assert main(reading) == 0
        capsys.readouterr()

    @pytest.mark.parametrize("algebra,k", LARGEST)
    def test_one_row_or_column_more_exits_3(self, tmp_path, capsys, monkeypatch, algebra, k):
        from ncframes import AlgebraSpec, random_tight_frame

        monkeypatch.setattr(cli, "MAX_SIDE", 60)
        spec = AlgebraSpec(tuple(int(m) for m in algebra.split(",")))
        wide, square = str(tmp_path / "wide.json"), str(tmp_path / "square.json")
        save_frame(wide, random_tight_frame(spec, k + 1, k))
        save_frame(square, random_tight_frame(spec, k + 1, k + 1))
        # verify builds the n x n FF* only, so one column more is still inside
        assert main(["verify", wide]) == 0
        capsys.readouterr()
        out = str(tmp_path / "u.json")
        for argvs in [self._reads(wide, out)[1:], self._reads(square, out)]:
            for argv in argvs:
                assert main(argv) == 3
                captured = capsys.readouterr()
                assert captured.out == ""
                assert captured.err.startswith("error: frame too large")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["square.json", "wide.json"]

    def test_file_past_the_byte_cap_exits_3_before_it_is_read(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "MAX_SIDE", 6)
        cap = 69 * 6**2 + 2**16
        path = tmp_path / "f.json"
        assert main(["gen", "--algebra", "1", "--k", "3", "--n", "2", "--out", str(path)]) == 0
        text = path.read_text()
        path.write_text(text + " " * (cap - len(text)))  # trailing whitespace is valid JSON
        for argv in self._reads(str(path), str(tmp_path / "u.json")):
            assert main(argv) == 0
        capsys.readouterr()
        path.write_text(text + " " * (cap + 1 - len(text)))
        (tmp_path / "u.json").unlink()

        def unread(_path):
            raise AssertionError("the file was read")

        monkeypatch.setattr(cli.io, "_read_json", unread)
        for argv in self._reads(str(path), str(tmp_path / "u.json")):
            assert main(argv) == 3
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith(f"error: frame too large: the file has {cap + 1} bytes")
        assert [p.name for p in tmp_path.iterdir()] == ["f.json"]

    @pytest.mark.parametrize("radius", ["1e200", "1e155", "1.7e308", "1e-300", "1e-320"])
    def test_overflowing_radius_exits_3_before_writing(self, tmp_path, capsys, radius):
        # the potential of 3 columns at the large radii is past the float
        # range; at the small ones b = 3r/2 is below --tight-tol, so no
        # output could ever verify
        out = tmp_path / "f.json"
        rc = main(self.MIN + ["--radius", radius, "--out", str(out)])
        captured = capsys.readouterr()
        assert rc == 3
        assert captured.out == ""
        assert captured.err.startswith("error: radius")
        assert not out.exists()

    # b = 3r/2 is 9e-10 at 6e-10, just below the default tight_tol 1e-9
    @pytest.mark.parametrize("radius", [1e200, 1e-300, 1e-320, 6e-10])
    def test_library_minimize_rejects_overflowing_radius(self, radius):
        from ncframes import AlgebraSpec, OptimizerConfig, minimize

        with pytest.raises(ValueError, match="^radius"):
            minimize(AlgebraSpec((1,)), 3, 2, OptimizerConfig(radius=radius))

    def test_overflowing_step_stalls_without_warning(self, tmp_path, capsys):
        # every candidate overflows, so none decreases the potential
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc, out = run(capsys, *self.MIN, "--step-size", "1e300", "--max-iters", "5",
                          "--out", str(tmp_path / "m.json"))
        assert rc == 1
        assert json.loads(out)["stop_reason"] == "stalled"


class TestMinimize:
    @pytest.mark.parametrize("trace", ["m.json", "./m.json", "sub/../m.json"])
    def test_trace_out_onto_out_is_refused(self, tmp_path, monkeypatch, trace):
        # the trace document would overwrite the frame, so both are refused
        # before either is written
        monkeypatch.chdir(tmp_path)
        (tmp_path / "sub").mkdir()
        rc, out, err = _run_quietly(["minimize", "--algebra", "1", "--k", "3", "--n", "2",
                                     "--out", "m.json", "--trace-out", trace])
        assert (rc, out) == (3, "")
        assert err == "error: --trace-out names the same file as --out, which would lose the frame\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["sub"]

    def test_converges_and_writes(self, tmp_path, capsys):
        path = tmp_path / "m.json"
        rc, out = run(capsys, "minimize", "--algebra", "1", "--k", "3",
                      "--n", "2", "--seed", "0", "--out", str(path))
        assert rc == 0
        doc = json.loads(out)
        assert doc["converged"]
        F = load_frame(path)
        from ncframes import check_tight, is_spherical

        assert check_tight(F, 1e-6).is_tight
        assert is_spherical(F, 1e-6).is_spherical

    def test_deterministic(self, tmp_path, capsys):
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        run(capsys, "minimize", "--algebra", "1", "--k", "4", "--n", "2",
            "--seed", "3", "--out", str(p1))
        run(capsys, "minimize", "--algebra", "1", "--k", "4", "--n", "2",
            "--seed", "3", "--out", str(p2))
        assert p1.read_bytes() == p2.read_bytes()

    # sha256 of the minimize output and of its --trace-out, recorded with
    # each line search started at the Barzilai-Borwein step, the
    # stop_reason and counter keys in the report, and the default
    # --tight-tol 1e-9
    GOLDEN = [
        ("1", 5, 3, 0,
         "479ef6df695ef2b6ef5c83107c3f20d037ab3a003c461f7fb693c4550f414c20",
         "43c65514149531ed1cc7698fa29eb27607d4ac3b458ea712fbefd9cba775bd2a"),
        ("2", 6, 4, 1,
         "2f89aff9e597584e28a6b34ada0c471cdb51200695b840b7281fb87bd88b79af",
         "c244d091e6e67c670f6aa411d87b5dd9160c9b5b54c2f84ea0752a46eb9561eb"),
        ("2,1", 12, 8, 3,
         "2efc3bb1fc31b8f8a3b98af71ba406e0682a7b1ffc24066c1b83b1f89d358e0f",
         "a174f7fc4467fd3411ac494f7a4a4ec42c621b9790eb3f59139a067670cb694e"),
        # 113 iterations: log entries 0, 50, 100 and 113
        ("2", 6, 4, 14,
         "8e3c82cbd621bcdb128cccb3723adadd78178acfe95ce9c0ebadc0d191fe288c",
         "8f00fb763c39dcf0d3de453e871da62da1c190a8eff1fe77b92b9a76e4494be1"),
        # 3 x 3 summand blocks; 33 iterations
        ("3,2", 24, 16, 0,
         "ae3342b677c832a17c90d0de450e3ed00a0a24aa4de9537e36d4f402f446a5ee",
         "45269b58b2cb1c1a09e8a6870176414d61e3d2f3d3e26bf988c63e4b23774419"),
    ]

    @pytest.mark.parametrize("algebra,k,n,seed,digest,trace_digest", GOLDEN)
    def test_minimize_golden_bytes(
        self, tmp_path, capsys, algebra, k, n, seed, digest, trace_digest
    ):
        import hashlib

        path, trace = tmp_path / "m.json", tmp_path / "t.json"
        rc, _ = run(capsys, "minimize", "--algebra", algebra, "--k", str(k),
                    "--n", str(n), "--seed", str(seed), "--out", str(path),
                    "--trace-out", str(trace))
        assert rc == 0
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest
        assert hashlib.sha256(trace.read_bytes()).hexdigest() == trace_digest

    def test_budget_golden_bytes(self, tmp_path, capsys):
        # stops by max_iters at iteration 7, whose residual is not logged
        # by the stride: the log is iterations 0 and 7
        import hashlib

        path, trace = tmp_path / "m.json", tmp_path / "t.json"
        rc, out = run(capsys, "minimize", "--algebra", "2", "--k", "6", "--n", "4",
                      "--seed", "14", "--max-iters", "7", "--out", str(path),
                      "--trace-out", str(trace))
        assert rc == 1
        assert [entry[0] for entry in json.loads(out)["iterate_log"]] == [0, 7]
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "ddfa0b648cda4d8303abe9a8737e43979a46ccc825cbf7c4e30fb53ac67c1e84")
        assert hashlib.sha256(trace.read_bytes()).hexdigest() == (
            "ed04ac629d01867224cedcae17eb774ddca64f4141ce57c39427b277ab760de9")

    def test_default_round_trip(self, tmp_path, capsys):
        # minimize stops at the 1e-9 that verify and analyze check by default
        path = str(tmp_path / "m.json")
        for argv in (
            ["minimize", "--algebra", "1", "--k", "5", "--n", "3", "--out", path],
            ["verify", path],
            ["analyze", path],
        ):
            rc, _ = run(capsys, *argv)
            assert rc == 0, argv

    @pytest.mark.parametrize("radius", ["1e20", "1e100"])
    def test_huge_radius_round_trip(self, tmp_path, capsys, radius):
        # the descent runs at b = 1, so its first step does not depend on
        # the radius, and the scaled output verifies at the default --tol
        path = str(tmp_path / "m.json")
        rc, out = run(capsys, "minimize", "--algebra", "1", "--k", "3", "--n", "2",
                      "--seed", "0", "--radius", radius, "--out", path)
        assert rc == 0
        assert json.loads(out)["stop_reason"] == "converged"
        rc, out = run(capsys, "verify", path)
        assert rc == 0
        assert json.loads(out)["b"] == pytest.approx(1.5 * float(radius), rel=1e-9)

    def test_iteration_budget_exhausted(self, tmp_path, capsys):
        rc, _ = run(capsys, "minimize", "--algebra", "1", "--k", "3", "--n", "2",
                    "--max-iters", "1", "--tight-tol", "1e-14",
                    "--out", str(tmp_path / "m.json"))
        assert rc == 1

    @pytest.mark.parametrize(
        "extra,rc_want,reason",
        [([], 0, "converged"), (["--max-iters", "1", "--tight-tol", "1e-14"], 1, "max_iters")],
    )
    def test_reports_stop_reason_and_counters(self, tmp_path, capsys, extra, rc_want, reason):
        rc, out = run(capsys, "minimize", "--algebra", "2", "--k", "3", "--n", "2",
                      "--out", str(tmp_path / "m.json"), *extra)
        doc = json.loads(out)
        assert rc == rc_want
        assert doc["stop_reason"] == reason
        assert doc["converged"] == (reason == "converged")
        assert "failure" not in doc
        assert doc["rerandomizations"] == 0
        assert doc["candidates"] == doc["backtracks"] + doc["iterations"] >= 1


class TestSelftest:
    def test_quick_passes(self, capsys):
        rc, out = run(capsys, "selftest")
        assert rc == 0
        doc = json.loads(out)
        assert doc["passed"]
        assert set(doc["suites"]) == {"cstar", "equivalence", "divisibility"}

    def test_fault_injection_reports_subset(self, capsys, monkeypatch):
        import dataclasses

        from ncframes import cli

        real = cli.split_equivalence
        first = []

        def faulty(F, I, tol):
            # flip the commutation side for frame 0, subset (1,)
            rep = real(F, I, tol)
            if not first:
                first.append(F)
            if F is first[0] and tuple(I) == (1,):
                return dataclasses.replace(rep, commutes=not rep.commutes)
            return rep

        monkeypatch.setattr(cli, "split_equivalence", faulty)
        rc, out = run(capsys, "selftest")
        assert rc == 1
        doc = json.loads(out)
        assert not doc["passed"]
        assert doc["suites"]["equivalence"]["disagreements"][0]["subset"] == [1]


# -- fuzzing the argument contract -------------------------------------------

_HUGE = ["10000000", "100000000000000000000"]
_NUMBERS = st.sampled_from(["1", "2", "3", "4", "0", "-1", "nan", "inf", "1e-9", "x", ""] + _HUGE)
_ALGEBRAS = st.sampled_from(["1", "2", "2,1", "x", "0", "2,,1", "", "-1"] + _HUGE)
_EXTRA = st.lists(
    st.sampled_from(
        ["--tol", "--b", "--seed", "--output", "json", "text", "--bogus", "--help"]
    )
    | _NUMBERS,
    max_size=4,
)


def _run_quietly(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(argv)
        except SystemExit as exc:  # --help
            rc = exc.code
    return rc, out.getvalue(), err.getvalue()


def _check_contract(rc, out, err):
    assert rc in (0, 1, 2, 3)
    assert "Traceback" not in err
    if rc in (2, 3):
        assert err.startswith("error:")
    if rc == 3:
        assert out == ""


@pytest.fixture(scope="module")
def fuzz_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    assert main(["gen", "--algebra", "2,1", "--k", "3", "--n", "2",
                 "--out", str(root / "frame.json")]) == 0
    (root / "text.json").write_text("not json")
    (root / "binary.json").write_bytes(b"\xff\xfe\x00")
    (root / "deep.json").write_text("[" * 100000 + "]" * 100000)
    (root / "truncated.json").write_text('{"algebra": [1], "n": 2')
    (root / "bad_shape.json").write_text('{"algebra": [1], "n": Infinity, "k": 1}')
    return root


@settings(max_examples=60, deadline=None, database=None)
@given(_ALGEBRAS, _NUMBERS, _NUMBERS, _EXTRA)
def test_fuzzed_gen_argv_keeps_exit_codes(fuzz_files, algebra, k, n, extra):
    argv = ["gen", "--algebra", algebra, "--k", k, "--n", n]
    argv += extra + ["--out", str(fuzz_files / "gen.json")]
    _check_contract(*_run_quietly(argv))


@settings(max_examples=60, deadline=None, database=None)
@given(
    st.sampled_from(
        ["frame.json", "text.json", "binary.json", "deep.json", "truncated.json",
         "bad_shape.json", "missing.json", "."]
    ),
    _EXTRA,
)
def test_fuzzed_verify_argv_keeps_exit_codes(fuzz_files, name, extra):
    _check_contract(*_run_quietly(["verify", str(fuzz_files / name)] + extra))


def test_analyze_reports_each_block_constant_on_its_range(tmp_path, capsys):
    # both parts are tight with b = 1.5 on their own ranges, C^2 and C^4;
    # over the whole C^6 their traces would read 0.5 and 1.0
    from ncframes import AlgebraSpec, direct_sum_frames, random_tight_frame

    spec = AlgebraSpec((1,))
    parts = [random_tight_frame(spec, 3, 2, 1.5, 1), random_tight_frame(spec, 6, 4, 1.5, 2)]
    path = tmp_path / "sum.json"
    save_frame(path, direct_sum_frames(parts, 1.5))
    rc, out = run(capsys, "analyze", str(path))
    assert rc == 0
    doc = json.loads(out)
    assert doc["partition"] == [[1, 2, 3], [4, 5, 6, 7, 8, 9]]
    assert [blk["b"] for blk in doc["blocks"]] == [pytest.approx(1.5, abs=1e-12)] * 2


class _RecordingNamespace(argparse.Namespace):
    """A Namespace that adds each attribute read to `reads` once that is set."""

    reads = None

    def __getattribute__(self, name):
        reads = object.__getattribute__(self, "reads")
        if reads is not None:
            reads.add(name)
        return object.__getattribute__(self, name)


@pytest.mark.parametrize(
    "argv",
    [
        ["gen", "--algebra", "1", "--k", "3", "--n", "2", "--out", "f.json"],
        ["verify", "f.json"],
        ["analyze", "f.json"],
        ["factorize", "f.json", "--out", "u.json"],
        ["partitions", "--k", "4", "--kprime", "2"],
        ["minimize", "--algebra", "1", "--k", "3", "--n", "2", "--out", "m.json",
         "--trace-out", "t.json"],
        ["selftest"],
    ],
    ids=lambda argv: argv[0],
)
def test_every_parsed_option_is_read(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    assert main(["gen", "--algebra", "1", "--k", "3", "--n", "2", "--out", "f.json"]) == 0
    args = cli.build_parser().parse_args(argv, namespace=_RecordingNamespace())
    parsed = set(vars(args)) - {"func", "command"}
    args.reads = set()
    assert args.func(args) == 0
    capsys.readouterr()
    assert parsed - args.reads == set()
