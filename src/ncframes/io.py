"""JSON interchange for algebras, matrices, frames and reports.

Complex numbers are written as [re, im] pairs and matrix blocks row-major,
so files are language-neutral and diff-able; Python's shortest-repr float
serialization makes read/write round trips bit-identical on the numeric
payload.  Frame files carry the algebra, the shape, the k columns (each a
list of n element encodings) and optional metadata.  Each summand is
encoded and decoded as one array; decoding rejects with FormatError a
payload of the wrong shape, with a shape or block size that is not a
JSON integer, with a non-finite entry, or with entries so large that the
trace of M M* overflows (so M M* cannot be formed finitely).
"""

from __future__ import annotations

import json
from typing import Any

import numpy as np

from .algebra import AlgebraElement, AlgebraSpec
from .frames import Frame, TightnessReport
from .module import AMatrix

__all__ = [
    "FormatError",
    "encode_spec",
    "decode_spec",
    "encode_element",
    "decode_element",
    "encode_amatrix",
    "decode_amatrix",
    "encode_frame_file",
    "decode_frame_file",
    "encode_tightness_report",
    "load_frame",
    "save_frame",
    "load_amatrix",
    "write_json",
]


class FormatError(ValueError):
    """The JSON document does not match the documented shapes."""


def encode_spec(spec: AlgebraSpec) -> list[int]:
    return list(spec.summand_dims)


def _json_int(value: Any) -> int:
    """value itself if it is a JSON integer; floats, bools and strings fail."""
    if type(value) is not int:
        raise FormatError(f"expected an integer, got {value!r}")
    return value


def decode_spec(data: Any) -> AlgebraSpec:
    try:
        return AlgebraSpec(tuple(_json_int(m) for m in data))
    except (TypeError, ValueError, OverflowError) as exc:
        raise FormatError(f"bad algebra spec: {exc}") from exc


def _pairs(blocks: np.ndarray) -> list:
    """[re, im] pair lists of (..., m, m) blocks, each block row-major."""
    pairs = np.stack([blocks.real, blocks.imag], axis=-1)
    return pairs.reshape(blocks.shape[:-2] + (-1, 2)).tolist()


def _encode_entries(M: AMatrix) -> list:
    """Row-major list of the entry encodings, one array pass per summand."""
    per_summand = [_pairs(grid) for grid in M.grids]
    return [list(entry) for row in zip(*per_summand) for entry in zip(*row)]


def _decode_entries(entries: list, spec: AlgebraSpec, rows: int, cols: int) -> AMatrix:
    """Inverse of _encode_entries; rejects wrong shapes and non-finite values."""
    if len(entries) != rows * cols:
        raise FormatError("entry count does not match shape")
    if any(len(e) != spec.num_summands for e in entries):
        raise FormatError("wrong number of blocks")
    grids = []
    for j, m in enumerate(spec.summand_dims):
        arr = np.asarray([e[j] for e in entries])
        if arr.dtype.kind not in "biuf":
            raise FormatError("block entries must be numbers")
        if arr.shape != (rows * cols, m * m, 2):
            raise FormatError(f"summand {j} data has shape {arr.shape}")
        arr = arr.astype(float)
        if not np.isfinite(arr).all():
            raise FormatError("non-finite matrix entry")
        flat = arr.ravel()
        with np.errstate(over="ignore"):
            power = flat @ flat  # trace of the summand's M M*
        if not np.isfinite(power):
            raise FormatError(f"summand {j} entries too large: trace of M M* overflows")
        grids.append(arr.view(complex).reshape(rows, cols, m, m))
    return AMatrix.from_grids(spec, grids)


def encode_element(elem: AlgebraElement) -> list:
    return [_pairs(b) for b in elem.blocks]


def decode_element(data: Any, spec: AlgebraSpec) -> AlgebraElement:
    try:
        return _decode_entries([data], spec, 1, 1).entry(0, 0)
    except (TypeError, ValueError, IndexError) as exc:
        raise FormatError(f"bad element encoding: {exc}") from exc


def encode_amatrix(M: AMatrix) -> dict:
    return {
        "algebra": encode_spec(M.spec),
        "rows": M.rows,
        "cols": M.cols,
        "entries": _encode_entries(M),
    }


def decode_amatrix(data: Any) -> AMatrix:
    try:
        spec = decode_spec(data["algebra"])
        rows, cols = _json_int(data["rows"]), _json_int(data["cols"])
        return _decode_entries(data["entries"], spec, rows, cols)
    except (KeyError, TypeError, ValueError, IndexError, OverflowError) as exc:
        raise FormatError(f"bad matrix encoding: {exc}") from exc


def encode_frame_file(F: Frame, metadata: dict | None = None) -> dict:
    entries = _encode_entries(F.matrix)
    doc = {
        "algebra": encode_spec(F.spec),
        "n": F.n,
        "k": F.k,
        "columns": [entries[j :: F.k] for j in range(F.k)],
        "kind": "frame",
    }
    if metadata:
        doc["metadata"] = metadata
    return doc


def decode_frame_file(data: Any) -> Frame:
    try:
        spec = decode_spec(data["algebra"])
        n, k = _json_int(data["n"]), _json_int(data["k"])
        columns = data["columns"]
        if len(columns) != k or any(len(col) != n for col in columns):
            raise FormatError("column shape does not match n, k")
        entries = [col[i] for i in range(n) for col in columns]
        return Frame(_decode_entries(entries, spec, n, k))
    except (KeyError, TypeError, ValueError, IndexError, OverflowError) as exc:
        raise FormatError(f"bad frame file: {exc}") from exc


def encode_tightness_report(report: TightnessReport) -> dict:
    return {
        "b": report.b,
        "residual": report.residual,
        "is_tight": report.is_tight,
        "per_summand_b": list(report.per_summand_b),
    }


def write_json(path, doc):
    """Write doc as one line of JSON.

    json.dumps runs the C encoder; json.dump into a file does not.
    """
    with open(path, "w") as fh:
        fh.write(json.dumps(doc) + "\n")


def _read_json(path) -> Any:
    try:
        with open(path) as fh:
            return json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        raise FormatError(f"not valid JSON: {exc}") from exc


def save_frame(path, F: Frame, metadata: dict | None = None):
    write_json(path, encode_frame_file(F, metadata))


def load_frame(path) -> Frame:
    return decode_frame_file(_read_json(path))


def load_amatrix(path) -> AMatrix:
    return decode_amatrix(_read_json(path))
