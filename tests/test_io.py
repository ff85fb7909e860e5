import copy
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ncframes import AMatrix, AlgebraSpec, Frame, canonical_coisometry, random_tight_frame
from ncframes.cli import main
from ncframes.io import (
    FormatError,
    decode_amatrix,
    decode_element,
    decode_frame_file,
    decode_spec,
    encode_amatrix,
    encode_element,
    encode_frame_file,
    encode_spec,
    load_amatrix,
    load_frame,
    save_frame,
)


def test_spec_round_trip():
    spec = AlgebraSpec((2, 1))
    assert decode_spec(encode_spec(spec)) == spec


def test_bad_spec():
    with pytest.raises(FormatError):
        decode_spec([2, 0])


def test_amatrix_round_trip(mixed_spec):
    rng = np.random.default_rng(0)
    M = AMatrix.random(mixed_spec, 2, 3, rng)
    back = decode_amatrix(json.loads(json.dumps(encode_amatrix(M))))
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
    doc = encode_frame_file(F)
    doc["k"] = 5
    with pytest.raises(FormatError):
        decode_frame_file(doc)


def test_truncated_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"algebra": [1], "n": 2')
    with pytest.raises(FormatError):
        load_frame(path)


def test_whole_array_encoding_matches_per_entry(mixed_spec):
    from ncframes.io import encode_element

    rng = np.random.default_rng(1)
    M = AMatrix.random(mixed_spec, 2, 3, rng)
    entries = [encode_element(M.entry(i, j)) for i in range(2) for j in range(3)]
    assert encode_amatrix(M)["entries"] == entries
    F = Frame(M)
    columns = [[encode_element(M.entry(i, j)) for i in range(2)] for j in range(3)]
    assert encode_frame_file(F)["columns"] == columns


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), "1.0", None])
def test_bad_entry_rejected(mixed_spec, bad):
    F = random_tight_frame(mixed_spec, 3, 2, seed=0)
    doc = json.loads(json.dumps(encode_frame_file(F)))
    doc["columns"][2][1][1][0][0] = bad
    with pytest.raises(FormatError):
        decode_frame_file(doc)
    mdoc = json.loads(json.dumps(encode_amatrix(F.matrix)))
    mdoc["entries"][4][0][3][1] = bad
    with pytest.raises(FormatError):
        decode_amatrix(mdoc)


def test_wrong_summand_count_rejected(mixed_spec):
    F = random_tight_frame(mixed_spec, 3, 2, seed=0)
    doc = encode_frame_file(F)
    doc["columns"][0][0].append(doc["columns"][0][0][1])
    with pytest.raises(FormatError):
        decode_frame_file(doc)


def test_wrong_block_size_rejected(m2_spec):
    F = random_tight_frame(m2_spec, 3, 2, seed=0)
    doc = encode_frame_file(F)
    doc["columns"][2][1][0].pop()
    with pytest.raises(FormatError):
        decode_frame_file(doc)


@pytest.mark.parametrize("dims", [(1,), (2,), (2, 1), (3, 1, 2)])
def test_element_round_trip_bit_identical(dims):
    x = AlgebraSpec(dims).random_element(np.random.default_rng(2))
    back = decode_element(json.loads(json.dumps(encode_element(x))), x.spec)
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


@pytest.mark.parametrize("field", ["n", "k"])
@pytest.mark.parametrize(
    "value", [float("inf"), float("nan"), 1e300, [3], None, 2.7, True, "2"]
)
def test_non_integer_shape_rejected(mixed_spec, field, value):
    doc = json.loads(json.dumps(encode_frame_file(random_tight_frame(mixed_spec, 3, 2, seed=0))))
    doc[field] = value
    with pytest.raises(FormatError):
        decode_frame_file(doc)


@pytest.mark.parametrize("field", ["rows", "cols"])
@pytest.mark.parametrize("delta", [0.5, 0.0])
def test_amatrix_non_integer_shape_rejected(mixed_spec, field, delta):
    rng = np.random.default_rng(0)
    doc = json.loads(json.dumps(encode_amatrix(AMatrix.random(mixed_spec, 2, 3, rng))))
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

_BASE = json.loads(
    json.dumps(encode_frame_file(random_tight_frame(AlgebraSpec((2, 1)), 2, 1, seed=0)))
)


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
