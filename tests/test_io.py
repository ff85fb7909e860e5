import copy
import hashlib
import itertools
import json
import os
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import ncframes
from ncframes import (
    AMatrix, AlgebraSpec, Frame, canonical_coisometry, direct_sum_frames, random_tight_frame,
)
from ncframes import io
from ncframes.cli import main
from ncframes.io import (
    FormatError,
    _json_int,
    decode_amatrix,
    decode_frame_file,
    decode_spec,
    encode_spec,
    load_frame,
    save_amatrix,
    save_frame,
    save_with_frame,
)


# -- the nested-list encoder, kept as the reference for the writer ------------


def _pairs(blocks):
    """[re, im] pair lists of (..., m, m) blocks, each block row-major."""
    pairs = np.stack([blocks.real, blocks.imag], axis=-1)
    return pairs.reshape(blocks.shape[:-2] + (-1, 2)).tolist()


def encode_element(elem):
    return [_pairs(b) for b in elem.blocks]


def reference_entries(M):
    """Row-major list of the entry encodings, one array pass per summand."""
    per_summand = [_pairs(grid) for grid in M.grids]
    return [list(entry) for row in zip(*per_summand) for entry in zip(*row)]


def reference_amatrix_doc(M, **extra):
    return {
        "algebra": list(M.spec.summand_dims),
        "rows": M.rows,
        "cols": M.cols,
        "entries": reference_entries(M),
        **extra,
    }


def reference_frame_doc(F, metadata=None):
    entries = reference_entries(F.matrix)
    doc = {
        "algebra": list(F.spec.summand_dims),
        "n": F.n,
        "k": F.k,
        "columns": [entries[j :: F.k] for j in range(F.k)],
        "kind": "frame",
    }
    if metadata:
        doc["metadata"] = metadata
    return doc


def load_amatrix(path):
    return decode_amatrix(json.loads(path.read_text()))


def amatrix_doc(tmp_path, M):
    """The document save_amatrix writes for M."""
    path = tmp_path / "matrix.json"
    save_amatrix(path, M)
    return json.loads(path.read_text())


def frame_doc(F):
    """The document save_frame writes for F."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "frame.json"
        save_frame(path, F)
        return json.loads(path.read_text())


def test_spec_round_trip():
    spec = AlgebraSpec((2, 1))
    assert decode_spec(encode_spec(spec)) == spec


def test_bad_spec():
    with pytest.raises(FormatError):
        decode_spec([2, 0])


def test_amatrix_round_trip(tmp_path, mixed_spec):
    rng = np.random.default_rng(0)
    M = AMatrix.random(mixed_spec, 2, 3, rng)
    back = decode_amatrix(amatrix_doc(tmp_path, M))
    for a, b in zip(M.blocks, back.blocks):
        np.testing.assert_array_equal(a, b)


def test_frame_file_round_trip_bit_identical(tmp_path, mixed_spec):
    F = random_tight_frame(mixed_spec, 4, 2, b=1.5, seed=3)
    path = tmp_path / "frame.json"
    save_frame(path, F, metadata={"seed": 3})
    back = load_frame(path)
    for a, b in zip(F.matrix.blocks, back.matrix.blocks):
        np.testing.assert_array_equal(a, b)
    # writing the reread frame reproduces the numeric payload exactly
    path2 = tmp_path / "frame2.json"
    save_frame(path2, back, metadata={"seed": 3})
    d1 = json.loads(path.read_text())
    d2 = json.loads(path2.read_text())
    assert d1["columns"] == d2["columns"]


def test_frame_file_shape_mismatch(mixed_spec):
    F = random_tight_frame(mixed_spec, 3, 2, seed=0)
    doc = frame_doc(F)
    doc["k"] = 5
    with pytest.raises(FormatError):
        decode_frame_file(doc)


def test_truncated_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"algebra": [1], "n": 2')
    with pytest.raises(FormatError):
        load_frame(path)


def test_whole_array_encoding_matches_per_entry(tmp_path, mixed_spec):
    rng = np.random.default_rng(1)
    M = AMatrix.random(mixed_spec, 2, 3, rng)
    entries = [encode_element(M.entry(i, j)) for i in range(2) for j in range(3)]
    assert amatrix_doc(tmp_path, M)["entries"] == entries
    F = Frame(M)
    columns = [[encode_element(M.entry(i, j)) for i in range(2)] for j in range(3)]
    assert frame_doc(F)["columns"] == columns


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), "1.0", None])
def test_bad_entry_rejected(tmp_path, mixed_spec, bad):
    F = random_tight_frame(mixed_spec, 3, 2, seed=0)
    doc = frame_doc(F)
    doc["columns"][2][1][1][0][0] = bad
    with pytest.raises(FormatError):
        decode_frame_file(doc)
    mdoc = amatrix_doc(tmp_path, F.matrix)
    mdoc["entries"][4][0][3][1] = bad
    with pytest.raises(FormatError):
        decode_amatrix(mdoc)


def test_wrong_summand_count_rejected(mixed_spec):
    F = random_tight_frame(mixed_spec, 3, 2, seed=0)
    doc = frame_doc(F)
    doc["columns"][0][0].append(doc["columns"][0][0][1])
    with pytest.raises(FormatError):
        decode_frame_file(doc)


def test_wrong_block_size_rejected(m2_spec):
    F = random_tight_frame(m2_spec, 3, 2, seed=0)
    doc = frame_doc(F)
    doc["columns"][2][1][0].pop()
    with pytest.raises(FormatError):
        decode_frame_file(doc)


@pytest.mark.parametrize("dims", [(1,), (2,), (2, 1), (3, 1, 2)])
def test_element_round_trip_bit_identical(tmp_path, dims):
    x = AMatrix.random(AlgebraSpec(dims), 1, 1, np.random.default_rng(2))
    back = decode_amatrix(amatrix_doc(tmp_path, AMatrix.from_entries([[x]]))).entry(0, 0)
    for a, b in zip(x.blocks, back.blocks):
        assert a.tobytes() == b.tobytes()


def test_load_amatrix_rebuilds_frame_from_factorize_output(tmp_path, capsys):
    frame, unitary = tmp_path / "f.json", tmp_path / "u.json"
    assert main(["gen", "--algebra", "2,1", "--k", "5", "--n", "3", "--b", "1.7",
                 "--seed", "4", "--out", str(frame)]) == 0
    assert main(["factorize", str(frame), "--out", str(unitary)]) == 0
    capsys.readouterr()
    F = load_frame(frame)
    U = load_amatrix(unitary)
    b = json.loads(unitary.read_text())["b"]
    W = canonical_coisometry(F.spec, F.k, F.n)
    assert (F.matrix - np.sqrt(b) * (W @ U)).norm() <= 1e-9


# Seeded gen and factorize bytes are fixed for one BLAS build and thread
# count: on the 3,2 48/24 frame, random_unitary's QR of the 144 x 144 and
# 96 x 96 blocks and factorize's completion both round differently on one
# thread than on two.  The goldens below run the CLI in a child process with
# every BLAS pool pinned to one thread, the setting perfbench runs at.
ONE_THREAD_CLI = """
import contextlib, io, json, sys
from ncframes.cli import main

runs = []
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runs.append([main(argv), out.getvalue()])
print(json.dumps(runs))
"""


def _cli_on_one_thread(cwd, *argvs):
    """[exit code, stdout] of each CLI run, in order, in a child process on one BLAS thread."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    package_root = Path(ncframes.__file__).resolve().parent.parent
    env["PYTHONPATH"] = os.pathsep.join([str(package_root), env.get("PYTHONPATH", "")])
    proc = subprocess.run(
        [sys.executable, "-c", ONE_THREAD_CLI, json.dumps(argvs)],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


# sha256 of the factorize unitary file, recorded with the nested-list
# encoder and json.dumps on one BLAS thread; pins matrix-file bytes across
# implementations
FACTORIZE_GOLDEN = [
    ("2,1", 5, 3, 4, "1.7",
     "ffe3bec845aa477b1419a8d505f5809e7fe0df1783e1be9ddd58e51cd2ff2a8d"),
    ("3,2", 48, 24, 1, "1.0",
     "4f2837eb02d9a5b439eb853c82e6ed55f1149fa3a99921fe495d059f826c977c"),
]


@pytest.mark.parametrize("algebra,k,n,seed,b,digest", FACTORIZE_GOLDEN)
def test_factorize_golden_bytes(tmp_path, algebra, k, n, seed, b, digest):
    runs = _cli_on_one_thread(
        tmp_path,
        ["gen", "--algebra", algebra, "--k", str(k), "--n", str(n), "--b", b,
         "--seed", str(seed), "--out", "f.json"],
        ["factorize", "f.json", "--out", "u.json"],
    )
    assert [code for code, _ in runs] == [0, 0]
    assert hashlib.sha256((tmp_path / "u.json").read_bytes()).hexdigest() == digest


# sha256 of factorize's stdout and --out file for the gen --algebra 3,2
# --k 48 --n 24 --seed 1 frame on one BLAS thread, both paths relative to
# the working directory; recorded with the unitary check on both sides and
# the product [I_n | 0] U
FACTORIZE_STDOUT_GOLDEN = "04cc78235538f8dcc7c3503729fef79899cef2ae5867cb191d0d2fa2caf1362d"
FACTORIZE_OUT_GOLDEN = "4f2837eb02d9a5b439eb853c82e6ed55f1149fa3a99921fe495d059f826c977c"


def test_factorize_golden_stdout(tmp_path):
    runs = _cli_on_one_thread(
        tmp_path,
        ["gen", "--algebra", "3,2", "--k", "48", "--n", "24", "--seed", "1", "--out", "f.json"],
        ["factorize", "f.json", "--out", "u.json"],
    )
    assert [code for code, _ in runs] == [0, 0]
    out = runs[1][1]
    assert hashlib.sha256(out.encode()).hexdigest() == FACTORIZE_STDOUT_GOLDEN
    assert hashlib.sha256((tmp_path / "u.json").read_bytes()).hexdigest() == FACTORIZE_OUT_GOLDEN


# sha256 of the direct sum of gen --algebra 2,1 --b 1.5 frames 3/2 (seed 1)
# and 4/3 (seed 2), of analyze's stdout on it (two blocks) and of
# factorize's --out file, all on one BLAS thread
DIRECT_SUM_GOLDEN = (
    "8cf78201003c3fc7e2b5b0ffb730d9f772506d1e6432a83974986be5877c85f4",
    "2c2b6997c75d6af11053ed06267bc990727bd0c06cf491ec85321409af108dbb",
    "ee5135933bbdf671862b34b1831bafaf5555742153df16fc09c29b9a75b2e3e4",
)


def test_multi_block_analyze_and_factorize_golden(tmp_path):
    gens = [["gen", "--algebra", "2,1", "--k", str(k), "--n", str(n), "--b", "1.5",
             "--seed", str(seed), "--out", f"part{seed}.json"]
            for seed, (k, n) in enumerate([(3, 2), (4, 3)], start=1)]
    assert [code for code, _ in _cli_on_one_thread(tmp_path, *gens)] == [0, 0]
    parts = [load_frame(tmp_path / f"part{seed}.json") for seed in (1, 2)]
    save_frame(tmp_path / "f.json", direct_sum_frames(parts, 1.5))
    runs = _cli_on_one_thread(
        tmp_path, ["analyze", "f.json"], ["factorize", "f.json", "--out", "u.json"]
    )
    assert [code for code, _ in runs] == [0, 0]
    assert len(json.loads(runs[0][1])["blocks"]) == 2
    digests = [hashlib.sha256(data).hexdigest() for data in
               ((tmp_path / "f.json").read_bytes(), runs[0][1].encode(),
                (tmp_path / "u.json").read_bytes())]
    assert tuple(digests) == DIRECT_SUM_GOLDEN


# -- the writer against the reference encoder ----------------------------------

WRITER_SPECS = [(1,), (2,), (2, 1), (3, 1, 2)]
SHAPES = list(itertools.product(range(1, 8), range(1, 5)))  # 1x1 to 7x4
AWKWARD_TEXT = {"note": "100% %r %%s %(x)s", "nul": "\u0000", "text": "ü ∑ 😀", "%r": ["%"]}
SPECIAL_VALUES = [-0.0, 5e-324, 9.99e-05, 1e16, 1.7976931348623157e308]
# (dims, rows, cols) whose files take several pieces of io._PIECE_FLOATS
# (4096) floats.  An outer item is a frame column, 2 * rows * sum(m^2)
# floats, or a matrix row, 2 * cols * sum(m^2) floats.
PIECE_SHAPES = [
    ((1,), 3, 1500),  # frame: 682 columns a piece, 136 in the last; matrix: a row a piece
    ((3, 1, 2), 160, 3),  # frame: a 4480-float column, more than a piece; matrix: 48 rows, 16 last
    ((2, 1), 40, 40),  # 10 columns or rows a piece, none partial
    ((2,), 2, 600),  # frame: 256 columns a piece, 88 in the last; matrix: a 4800-float row
]


def _random_matrix(dims, rows, cols, seed=0):
    return AMatrix.random(AlgebraSpec(dims), rows, cols, np.random.default_rng(seed))


def _with_values(M, values):
    """M with the first numbers of its first block set to values (re and -im), as many as fit."""
    blocks = [blk.copy() for blk in M.blocks]
    flat = blocks[0].reshape(-1)
    flat[: len(values)] = [complex(v, -v) for v in values[: flat.size]]
    return AMatrix(M.spec, M.rows, M.cols, tuple(blocks))


@pytest.mark.parametrize("dims", WRITER_SPECS)
def test_writer_bytes_equal_reference(tmp_path, dims):
    path = tmp_path / "out.json"
    for rows, cols in SHAPES:
        M = _random_matrix(dims, rows, cols)
        save_frame(path, Frame(M), metadata={"seed": 3})
        assert path.read_text() == json.dumps(reference_frame_doc(Frame(M), {"seed": 3})) + "\n"
        save_amatrix(path, M, b=1.5)
        assert path.read_text() == json.dumps(reference_amatrix_doc(M, b=1.5)) + "\n"
        assert frame_doc(Frame(M)) == reference_frame_doc(Frame(M))


@pytest.mark.parametrize("dims", WRITER_SPECS)
def test_writer_escapes_metadata(tmp_path, dims):
    M = _random_matrix(dims, 3, 2)
    path = tmp_path / "out.json"
    save_frame(path, Frame(M), metadata=AWKWARD_TEXT)
    expected = json.dumps(reference_frame_doc(Frame(M), AWKWARD_TEXT)) + "\n"
    assert path.read_bytes() == expected.encode()
    assert json.loads(path.read_text())["metadata"] == AWKWARD_TEXT
    save_amatrix(path, M, **AWKWARD_TEXT)
    expected = json.dumps(reference_amatrix_doc(M, **AWKWARD_TEXT)) + "\n"
    assert path.read_bytes() == expected.encode()


@pytest.mark.parametrize("dims", WRITER_SPECS)
def test_writer_special_values(tmp_path, dims):
    M = _with_values(_random_matrix(dims, 2, 3), SPECIAL_VALUES)
    path = tmp_path / "out.json"
    save_frame(path, Frame(M))
    text = path.read_text()
    assert text == json.dumps(reference_frame_doc(Frame(M))) + "\n"
    assert "-0.0" in text and "5e-324" in text and "9.99e-05" in text and "1e+16" in text
    save_amatrix(path, M)
    assert path.read_text() == json.dumps(reference_amatrix_doc(M)) + "\n"


@pytest.mark.parametrize("dims,rows,cols", PIECE_SHAPES)
def test_writer_bytes_equal_reference_across_pieces(tmp_path, dims, rows, cols):
    M = _random_matrix(dims, rows, cols, seed=rows)
    F = Frame(M)
    # head, tail and two or more pieces of the payload between them
    assert len(list(io._frame_pieces(F, None))) > 3
    assert len(list(io._amatrix_pieces(M, {}))) > 3
    path = tmp_path / "out.json"
    save_frame(path, F, metadata={"seed": 3})
    assert path.read_bytes() == (json.dumps(reference_frame_doc(F, {"seed": 3})) + "\n").encode()
    save_amatrix(path, M, b=1.5)
    assert path.read_bytes() == (json.dumps(reference_amatrix_doc(M, b=1.5)) + "\n").encode()
    doc = {"log": [[0, 1.5]], "end": "0}"}
    save_with_frame(path, doc, F)
    assert path.read_bytes() == (json.dumps({**doc, "frame": reference_frame_doc(F)}) + "\n").encode()


def _with_last_entry(M, value):
    """M with the last number of its last summand set to value (re and -im)."""
    blocks = [blk.copy() for blk in M.blocks]
    blocks[-1][-1, -1] = complex(value, -value)
    return AMatrix(M.spec, M.rows, M.cols, tuple(blocks))


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
@pytest.mark.parametrize("dims", WRITER_SPECS)
def test_writer_refuses_non_finite_before_opening(tmp_path, dims, bad):
    # the second matrix's frame and matrix files take several pieces, and its
    # only bad number sits in the last of each
    for M in [_with_values(_random_matrix(dims, 2, 3), [1.0, bad]),
              _with_last_entry(_random_matrix(dims, 40, 300), bad)]:
        path = tmp_path / "out.json"
        with pytest.raises(ValueError):
            save_frame(path, Frame(M))
        assert not path.exists()
        with pytest.raises(ValueError):
            save_amatrix(path, M, b=1.0)
        assert not path.exists()
        with pytest.raises(ValueError):
            save_with_frame(path, {"x": 1}, Frame(M))
        assert not path.exists()


def test_writers_peak_memory_does_not_grow_with_the_file(tmp_path):
    M = _random_matrix((1,), 256, 512)
    F = Frame(M)
    writers = {
        "save_frame": lambda path: save_frame(path, F),
        "save_amatrix": lambda path: save_amatrix(path, M),
        "save_with_frame": lambda path: save_with_frame(path, {"x": 1}, F),
    }
    for name, write in writers.items():
        path = tmp_path / f"{name}.json"
        tracemalloc.start()
        try:
            write(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert path.stat().st_size > 6_000_000
        assert peak < 1_000_000, (name, peak)


@pytest.mark.parametrize("key", ["algebra", "rows", "cols", "entries"])
def test_save_amatrix_refuses_reserved_keys(tmp_path, key):
    path = tmp_path / "out.json"
    with pytest.raises(ValueError):
        save_amatrix(path, _random_matrix((2, 1), 2, 2), **{key: "payload"})
    assert not path.exists()


@pytest.mark.parametrize("dims", WRITER_SPECS)
def test_save_with_frame_bytes_equal_reference(tmp_path, dims):
    path = tmp_path / "out.json"
    for rows, cols in [(1, 1), (3, 2), (7, 4)]:
        F = Frame(_random_matrix(dims, rows, cols))
        doc = {"frame_count": 0, "log": [[0, 1.5]], **AWKWARD_TEXT, "end": "0}"}
        save_with_frame(path, doc, F)
        expected = json.dumps({**doc, "frame": reference_frame_doc(F)}) + "\n"
        assert path.read_bytes() == expected.encode()


def test_save_with_frame_refuses_a_frame_key(tmp_path):
    path = tmp_path / "out.json"
    with pytest.raises(ValueError):
        save_with_frame(path, {"frame": 1, "x": 2}, Frame(_random_matrix((2, 1), 2, 2)))
    assert not path.exists()


@pytest.mark.parametrize("dims", WRITER_SPECS)
def test_writer_reload_bit_identical(tmp_path, dims):
    path = tmp_path / "out.json"
    # the largest double is left out: its M M* overflows, which the decoder refuses
    for rows, cols in SHAPES:
        M = _with_values(_random_matrix(dims, rows, cols, seed=rows * cols), SPECIAL_VALUES[:4])
        save_frame(path, Frame(M))
        back = load_frame(path).matrix
        assert [b.tobytes() for b in back.blocks] == [b.tobytes() for b in M.blocks]
        # products of a transposed layout round differently in the last bits
        assert all(b.flags.c_contiguous for b in back.blocks)
        save_amatrix(path, M)
        back = load_amatrix(path)
        assert [b.tobytes() for b in back.blocks] == [b.tobytes() for b in M.blocks]


@pytest.mark.parametrize("field", ["n", "k"])
@pytest.mark.parametrize(
    "value", [float("inf"), float("nan"), 1e300, [3], None, 2.7, True, "2"]
)
def test_non_integer_shape_rejected(mixed_spec, field, value):
    doc = frame_doc(random_tight_frame(mixed_spec, 3, 2, seed=0))
    doc[field] = value
    with pytest.raises(FormatError):
        decode_frame_file(doc)


@pytest.mark.parametrize("field", ["rows", "cols"])
@pytest.mark.parametrize("delta", [0.5, 0.0])
def test_amatrix_non_integer_shape_rejected(tmp_path, mixed_spec, field, delta):
    rng = np.random.default_rng(0)
    doc = amatrix_doc(tmp_path, AMatrix.random(mixed_spec, 2, 3, rng))
    doc[field] += delta  # 2.5 or 2.0, 3.5 or 3.0: floats, not JSON integers
    with pytest.raises(FormatError):
        decode_amatrix(doc)


@pytest.mark.parametrize("dims", [[2.0, 1], [True, 1], "21"])
def test_non_integer_block_size_rejected(dims):
    with pytest.raises(FormatError):
        decode_spec(dims)


@pytest.mark.parametrize(
    "payload", [b"\xff\xfe\x00{", b"[" * 100000 + b"]" * 100000], ids=["non-utf8", "deep"]
)
def test_unreadable_json_is_a_format_error(tmp_path, payload):
    path = tmp_path / "bad.json"
    path.write_bytes(payload)
    with pytest.raises(FormatError):
        load_frame(path)


def test_files_are_read_as_utf8_whatever_the_locale(tmp_path):
    F = random_tight_frame(AlgebraSpec((2, 1)), 3, 2, seed=0)
    doc = reference_frame_doc(F, {"text": AWKWARD_TEXT["text"]})
    (tmp_path / "f.json").write_bytes(json.dumps(doc, ensure_ascii=False).encode("utf-8"))
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("LC_") and key not in ("LANG", "PYTHONUTF8")}
    package_root = Path(ncframes.__file__).resolve().parent.parent
    env.update(LC_ALL="C", PYTHONCOERCECLOCALE="0", PYTHONPATH=str(package_root))
    proc = subprocess.run(
        [sys.executable, "-X", "utf8=0", "-m", "ncframes.cli", "verify", "f.json"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


# -- the flat decoder against the nested one it replaced -----------------------


def reference_number(value):
    """The number rule: a JSON number, true or false, as its float()."""
    if isinstance(value, bool) or type(value) in (int, float):
        return float(value)  # OverflowError for an integer too large
    raise FormatError("block entries must be numbers")


def reference_decode_grids(data, spec, outer, inner, transpose=False):
    """The nested decoder: one np.asarray per summand over the nested entry
    lists, its dtype inferred level by level, and the number rule applied
    to each number where numpy finds no numeric dtype."""
    if len(data) != outer or set(map(len, data)) != {inner}:
        raise FormatError("payload shape does not match the header")
    entries = list(itertools.chain.from_iterable(data))
    if set(map(len, entries)) != {spec.num_summands}:
        raise FormatError("wrong number of blocks")
    grids = []
    for j, m in enumerate(spec.summand_dims):
        arr = np.asarray([entry[j] for entry in entries])
        if arr.dtype == object:
            arr = np.array([[[reference_number(x) for x in pair] for pair in entry[j]] for entry in entries])
        if arr.dtype.kind not in "biuf":
            raise FormatError("block entries must be numbers")
        if arr.shape != (outer * inner, m * m, 2):
            raise FormatError(f"summand {j} data has shape {arr.shape}")
        arr = arr.reshape(outer, inner, m * m, 2)
        if transpose:
            arr = arr.swapaxes(0, 1)
        arr = arr.astype(float, order="C")
        if not np.isfinite(arr).all():
            raise FormatError("non-finite matrix entry")
        flat = arr.ravel()
        with np.errstate(over="ignore"):
            power = flat @ flat
        if not np.isfinite(power):
            raise FormatError(f"summand {j} entries too large: trace of M M* overflows")
        grids.append(arr.view(complex).reshape(arr.shape[:2] + (m, m)))
    return grids


def reference_decode(doc):
    """The frame or matrix doc decodes to through the nested decoder."""
    spec = decode_spec(doc["algebra"])
    if "columns" in doc:
        k, n = _json_int(doc["k"]), _json_int(doc["n"])
        return Frame(AMatrix.from_grids(spec, reference_decode_grids(doc["columns"], spec, k, n, True)))
    rows, cols = _json_int(doc["rows"]), _json_int(doc["cols"])
    nested = [doc["entries"][i * cols : (i + 1) * cols] for i in range(rows)]
    return AMatrix.from_grids(spec, reference_decode_grids(nested, spec, rows, cols))


def _blocks(decoded):
    M = decoded.matrix if isinstance(decoded, Frame) else decoded
    return [b.tobytes() for b in M.blocks], [b.flags.c_contiguous for b in M.blocks]


def _with_ints_and_bools(doc):
    """doc with a few numbers of its payload replaced by ints and bools."""
    doc = copy.deepcopy(doc)
    payload = doc["columns"] if "columns" in doc else [doc["entries"]]
    entry = payload[-1][-1]
    entry[0][0] = [True, False]
    entry[-1][-1] = [-3, 2**53 + 1]
    return doc


DECODE_SPECS = [(1,), (2,), (2, 1), (3, 2)]


@pytest.mark.parametrize("dims", DECODE_SPECS)
@pytest.mark.parametrize("seed", range(3))
def test_flat_decode_matches_nested_decode_bit_for_bit(tmp_path, dims, seed):
    spec = AlgebraSpec(dims)
    F = random_tight_frame(spec, 5, 3, 1.7, seed=seed)
    M = AMatrix.random(spec, 3, 4, np.random.default_rng(seed))
    docs = [frame_doc(F), amatrix_doc(tmp_path, M)]
    for doc in docs + [_with_ints_and_bools(d) for d in docs]:
        decode = decode_frame_file if "columns" in doc else decode_amatrix
        assert _blocks(decode(copy.deepcopy(doc))) == _blocks(reference_decode(doc))


def test_true_and_false_load_as_one_and_zero(tmp_path, mixed_spec):
    F = random_tight_frame(mixed_spec, 3, 2, seed=0)
    for doc in (frame_doc(F), amatrix_doc(tmp_path, F.matrix)):
        doc = _with_ints_and_bools(doc)
        M = decode_frame_file(doc).matrix if "columns" in doc else decode_amatrix(doc)
        assert M.entry(M.rows - 1, M.cols - 1).blocks[0][0, 0] == 1.0 + 0.0j


def _set_pair(value):
    def edit(payload):
        payload[1][0][0][2] = value

    return edit


def _set_number(value):
    def edit(payload):
        payload[1][0][0][2][0] = value

    return edit


def _edit_block(method, *args):
    def edit(payload):
        getattr(payload[1][0][0], method)(*args)

    return edit


def _nest_every_pair(payload):
    for column in payload:
        for entry in column:
            entry[0] = [[[re], [im]] for re, im in entry[0]]


# payload edits the decoder must refuse, on a (2, 1) payload whose first
# summand holds m^2 = 4 pairs per entry
MALFORMED = {
    "numeric string": _set_pair(["1.5", 0.0]),
    "null": _set_number(None),
    "scalar for a pair": _set_pair(0.5),
    "triple": _set_pair([0.5, 0.5, 0.5]),
    "pair nested deeper": _set_pair([[0.5, 0.5]]),
    "pair of one-element lists": _set_pair([[0.5], [0.5]]),
    "every pair nested deeper": _nest_every_pair,
    "m^2 + 1 pairs": _edit_block("append", [0.0, 0.0]),
    "m^2 - 1 pairs": _edit_block("pop"),
    "ragged column": lambda payload: payload[1].pop(),
    "integer too large for a float": _set_number(2**1024),
    "a summand short": lambda payload: payload[1][0].pop(),
    "a summand over": lambda payload: payload[1][0].append([[0.0, 0.0]]),
}


def _malformed_docs(tmp_path, edit):
    """A frame doc and a matrix doc, each with edit applied to its payload."""
    F = random_tight_frame(AlgebraSpec((2, 1)), 3, 2, seed=0)
    fdoc = frame_doc(F)
    edit(fdoc["columns"])
    mdoc = amatrix_doc(tmp_path, F.matrix.H)  # 3 x 2: rows stand in for columns
    rows = [mdoc["entries"][i * 2 : (i + 1) * 2] for i in range(3)]
    edit(rows)
    mdoc["entries"] = list(itertools.chain.from_iterable(rows))
    return fdoc, mdoc


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_payload_is_a_format_error(tmp_path, capsys, case):
    fdoc, mdoc = _malformed_docs(tmp_path, MALFORMED[case])
    with pytest.raises(FormatError):
        decode_frame_file(fdoc)
    with pytest.raises(FormatError):
        decode_amatrix(mdoc)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(fdoc))
    assert main(["verify", str(path)]) == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("doc", [[1, 2], [], "frame", 7, None], ids=repr)
def test_document_that_is_not_an_object_is_named_as_such(doc):
    kind = type(doc).__name__
    with pytest.raises(FormatError, match=f"^bad frame file: expected a JSON object, got {kind}$"):
        decode_frame_file(doc)
    with pytest.raises(FormatError, match=f"^bad matrix encoding: expected a JSON object, got {kind}$"):
        decode_amatrix(doc)


# the number rule: a JSON number loads when its float() is finite; the
# largest integer that rounds to a finite float
LARGEST_FINITE_INT = 2**1024 - 2**970 - 1


@pytest.mark.parametrize(
    "value",
    [2**63 - 1, 2**63, 2**64 - 1, 2**64, -(2**63), -(2**63) - 1, 10**24, -(10**24), 1e20, True],
    ids=repr,
)
def test_every_number_with_a_finite_float_loads_as_that_float(tmp_path, capsys, value):
    # either side of the int64 and uint64 bounds numpy's dtypes once drew
    fdoc, mdoc = _malformed_docs(tmp_path, _set_number(value))
    F, M = decode_frame_file(fdoc), decode_amatrix(mdoc)
    # _set_number sets the real part of pair 2, row 1 column 0 of the m = 2
    # block, in frame column 1 (matrix row 1), entry row 0 (matrix column 0)
    assert F.matrix.grids[0][0, 1, 1, 0].real == float(value)
    assert M.grids[0][1, 0, 1, 0].real == float(value)
    path = tmp_path / "big.json"
    path.write_text(json.dumps(fdoc))
    assert main(["verify", str(path)]) in (0, 1)
    capsys.readouterr()


@pytest.mark.parametrize("sign", [1, -1])
def test_an_integer_too_large_for_a_float_is_refused_as_such(tmp_path, capsys, sign):
    assert float(LARGEST_FINITE_INT) == np.finfo(float).max
    # the largest such integer loads as a number, and is then too large for M M*
    fdoc, mdoc = _malformed_docs(tmp_path, _set_number(sign * LARGEST_FINITE_INT))
    for decode, doc in ((decode_frame_file, fdoc), (decode_amatrix, mdoc)):
        with pytest.raises(FormatError, match=r"trace of M M\* overflows"):
            decode(doc)
    fdoc, mdoc = _malformed_docs(tmp_path, _set_number(sign * (LARGEST_FINITE_INT + 1)))
    for decode, doc in ((decode_frame_file, fdoc), (decode_amatrix, mdoc)):
        with pytest.raises(FormatError, match="integer entry too large for a float"):
            decode(doc)
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(fdoc))
    assert main(["verify", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "too large for a float" in captured.err


# -- fuzzing the decoder ------------------------------------------------------

_BASE = frame_doc(random_tight_frame(AlgebraSpec((2, 1)), 2, 1, seed=0))


def _paths(doc, prefix=()):
    """Every path (a tuple of keys and indices) into a JSON document."""
    yield prefix
    children = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in children:
        yield from _paths(value, prefix + (key,))


_JSON = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-3, 3)
    | st.sampled_from([10**6, 2**70, 1e308])
    | st.floats()
    | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)


def _mutate(doc, path, action, value):
    """Replace, delete or append at path; a path a previous edit broke is skipped."""
    if not path:
        return value if action == "replace" else doc
    parent = doc
    try:
        for key in path[:-1]:
            parent = parent[key]
        if action == "replace":
            parent[path[-1]] = value
        elif action == "delete":
            del parent[path[-1]]
        else:
            parent[path[-1]].append(value)
    except (KeyError, IndexError, TypeError, AttributeError):
        pass
    return doc


@settings(max_examples=80, deadline=None, database=None)
@given(
    st.lists(
        st.tuples(
            st.sampled_from(list(_paths(_BASE))),
            st.sampled_from(["replace", "delete", "append"]),
            _JSON,
        ),
        min_size=1,
        max_size=3,
    )
)
def test_fuzzed_frame_document_decodes_or_raises_format_error(edits):
    doc = copy.deepcopy(_BASE)
    for path, action, value in edits:
        doc = _mutate(doc, path, action, value)
    try:
        F = decode_frame_file(doc)
    except FormatError:
        return
    assert isinstance(F, Frame)


def _refused(decode, doc):
    try:
        return decode(doc)
    except (FormatError, KeyError, TypeError, ValueError, IndexError, OverflowError):
        return None


@settings(max_examples=80, deadline=None, database=None)
@given(
    st.lists(
        st.tuples(
            st.sampled_from(list(_paths(_BASE))),
            st.sampled_from(["replace", "delete", "append"]),
            _JSON,
        ),
        min_size=1,
        max_size=3,
    )
)
def test_fuzzed_frame_document_decodes_as_the_nested_decoder(edits):
    doc = copy.deepcopy(_BASE)
    for path, action, value in edits:
        doc = _mutate(doc, path, action, value)
    flat = _refused(decode_frame_file, copy.deepcopy(doc))
    nested = _refused(reference_decode, doc)
    assert (flat is None) == (nested is None)
    if flat is not None:
        assert _blocks(flat) == _blocks(nested)


@pytest.mark.parametrize("n,k,columns", [(0, 2, [[], []]), (2, 0, []), (-1, -1, [])])
def test_frame_file_with_a_non_positive_shape_is_refused_by_name(tmp_path, capsys, n, k, columns):
    # a header with no columns or no rows has no blocks to count: its shape
    # is what is wrong, as for a matrix file's rows and cols
    path = tmp_path / "f.json"
    path.write_text(json.dumps({"algebra": [1], "n": n, "k": k, "columns": columns}))
    assert main(["verify", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: bad frame file: n and k must be positive, got {n} and {k}\n"
