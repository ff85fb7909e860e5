import json

import numpy as np
import pytest

from ncframes.cli import main
from ncframes.io import load_frame, save_frame
from conftest import make_mercedes


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

    # sha256 of the minimize output and of its --trace-out, recorded with the
    # optimizer running on per-summand helper copies of the AMatrix algebra
    GOLDEN = [
        ("1", 5, 3, 0,
         "20655c10efafd47c175e6e78fe5972a054c8e094be1f76922273aa8ecc4706d0",
         "992d75b63d0286a3389cf35e01f17642d1d00e40868166b83f53b27dd03a04ce"),
        ("2", 6, 4, 1,
         "249898d6fec622a04c760dfcfae89bc09dfcc147ee792533fbe11c36c07438d3",
         "723c7548f176871bf5bf141962c322efc204c0f042b2be5c5de0bfc991da9546"),
        ("2,1", 12, 8, 3,
         "e3ce8de4b91aad2fb7e38588652d920713ffd0a02bf0f5473103b9e103edf3f3",
         "8c4c5cad5f9f8b1745280fd42eaa79d9f5ea27d131c3ae72db50093d20d85911"),
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

    def test_iteration_budget_exhausted(self, tmp_path, capsys):
        rc, _ = run(capsys, "minimize", "--algebra", "1", "--k", "3", "--n", "2",
                    "--max-iters", "1", "--tight-tol", "1e-14",
                    "--out", str(tmp_path / "m.json"))
        assert rc == 1


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
