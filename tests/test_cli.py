import contextlib
import io
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ncframes import cli
from ncframes.cli import main
from ncframes.io import load_frame, save_frame
from conftest import make_mercedes, perturbed_direct_sum


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

    def test_cap_is_inclusive(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "MAX_LISTED_PARTITIONS", 4)
        rc, out = run(capsys, "partitions", "--k", "4", "--kprime", "2")
        assert rc == 0
        assert json.loads(out)["count"] == 4
        rc, out = run(capsys, "partitions", "--k", "6", "--kprime", "2")
        assert (rc, out) == (3, "")


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


class TestMinimize:
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

_NUMBERS = st.sampled_from(["1", "2", "3", "4", "0", "-1", "nan", "inf", "1e-9", "x", ""])
_ALGEBRAS = st.sampled_from(["1", "2", "2,1", "x", "0", "2,,1", "", "-1"])
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
