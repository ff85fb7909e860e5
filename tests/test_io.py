import json

import numpy as np
import pytest

from ncframes import AMatrix, AlgebraSpec, Frame, random_tight_frame
from ncframes.io import (
    FormatError,
    decode_amatrix,
    decode_frame_file,
    decode_spec,
    encode_amatrix,
    encode_frame_file,
    encode_spec,
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
