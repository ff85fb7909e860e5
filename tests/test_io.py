import copy
import hashlib
import itertools
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ncframes import AMatrix, AlgebraSpec, Frame, canonical_coisometry, random_tight_frame
from ncframes.cli import main
from ncframes.io import (
    FormatError,
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


# sha256 of the factorize unitary file, recorded with the nested-list
# encoder and json.dumps; pins matrix-file bytes across implementations
FACTORIZE_GOLDEN = [
    ("2,1", 5, 3, 4, "1.7",
     "ffe3bec845aa477b1419a8d505f5809e7fe0df1783e1be9ddd58e51cd2ff2a8d"),
    ("3,2", 48, 24, 1, "1.0",
     "0407af622237dcae054ff1ef77a779c0a7cdfa12d070123ef22e9bab52754639"),
]


@pytest.mark.parametrize("algebra,k,n,seed,b,digest", FACTORIZE_GOLDEN)
def test_factorize_golden_bytes(tmp_path, capsys, algebra, k, n, seed, b, digest):
    frame, unitary = tmp_path / "f.json", tmp_path / "u.json"
    assert main(["gen", "--algebra", algebra, "--k", str(k), "--n", str(n), "--b", b,
                 "--seed", str(seed), "--out", str(frame)]) == 0
    assert main(["factorize", str(frame), "--out", str(unitary)]) == 0
    capsys.readouterr()
    assert hashlib.sha256(unitary.read_bytes()).hexdigest() == digest


# -- the one-pass writer against the reference encoder ------------------------

WRITER_SPECS = [(1,), (2,), (2, 1), (3, 1, 2)]
SHAPES = list(itertools.product(range(1, 8), range(1, 5)))  # 1x1 to 7x4
AWKWARD_TEXT = {"note": "100% %r %%s %(x)s", "nul": "\u0000", "text": "ü ∑ 😀", "%r": ["%"]}
SPECIAL_VALUES = [-0.0, 5e-324, 9.99e-05, 1e16, 1.7976931348623157e308]


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


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
@pytest.mark.parametrize("dims", WRITER_SPECS)
def test_writer_refuses_non_finite_before_opening(tmp_path, dims, bad):
    M = _with_values(_random_matrix(dims, 2, 3), [1.0, bad])
    path = tmp_path / "out.json"
    with pytest.raises(ValueError):
        save_frame(path, Frame(M))
    assert not path.exists()
    with pytest.raises(ValueError):
        save_amatrix(path, M, b=1.0)
    assert not path.exists()


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
