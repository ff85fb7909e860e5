"""JSON interchange for algebras, matrices, frames and reports.

Complex numbers are written as [re, im] pairs and matrix blocks row-major,
so files are language-neutral and diff-able; Python's shortest-repr float
serialization makes read/write round trips bit-identical on the numeric
payload.  Frame files carry the algebra, the shape, the k columns (each a
list of n element encodings) and optional metadata; matrix files carry the
algebra, the shape and the row-major entries.

A file is written in bounded pieces, between the head and the tail of the
json.dumps text of the rest of the document.  A piece covers as many of the
payload's outer items (a frame's columns, a matrix's rows of entries) as
fit in _PIECE_FLOATS floats, or one item if that holds more: it fills a
"%r" template of those items' nesting with their floats in file order by
one string formatting.  So a writer holds one piece of text at a time, not
the file.  "%r" calls float.__repr__, as json.dumps does, so the bytes
equal json.dumps of the nested lists plus a newline.  save_with_frame
writes the same frame pieces into another document as its last key.  A
non-finite entry raises ValueError before the file is opened, and so does
a reserved key.  Files are read and written as UTF-8 whatever the locale.

Decoding is flat.  The reader nests by the writer's shape, (k, n) for a
frame's columns and (rows*cols,) for a matrix's entries: each level must be
a JSON array of the header's count (a string or object is refused, not
read as items).  Per summand it then checks with
one set of lengths per level that every entry holds m*m pairs and every
pair two numbers, builds the summand from one np.array call over the
chained numbers, and hands it to from_grids.  The number rule: any JSON
number whose float() is finite loads, as that float, and true and false
read as 1.0 and 0.0; a string (even "1.5"), a null or a list where a number
belongs is refused rather than converted, and so is an integer too large
for a float.  On a payload of floats that one call gives float64 at once.
Only when numpy can hold the list in no numeric dtype (an integer beyond
int64 and uint64, or a value that is no number) are the numbers converted
one by one.  The decoder also rejects with FormatError a document that is
not a JSON object, a payload of the wrong shape, a shape or block size that
is not a JSON integer, a non-finite entry, and entries so large that the
trace of M M* overflows (so M M* cannot be formed finitely).
"""

from __future__ import annotations

import json
from itertools import chain
from operator import itemgetter
from typing import Any, Iterable, Iterator, Sequence

import numpy as np

from .algebra import AlgebraSpec
from .frames import Frame, TightnessReport
from .module import AMatrix

__all__ = [
    "FormatError",
    "encode_spec",
    "decode_spec",
    "decode_amatrix",
    "decode_frame_file",
    "encode_tightness_report",
    "load_frame",
    "save_frame",
    "save_amatrix",
    "save_with_frame",
]


class FormatError(ValueError):
    """The JSON document does not match the documented shapes."""


def encode_spec(spec: AlgebraSpec) -> list[int]:
    return list(spec.summand_dims)


def _json_number(value: Any) -> float:
    """float(value) for a JSON number, true or false; anything else fails."""
    if type(value) not in (float, int, bool):
        raise FormatError("block entries must be numbers")
    try:
        return float(value)
    except OverflowError:
        raise FormatError("integer entry too large for a float") from None


def _json_int(value: Any) -> int:
    """value itself if it is a JSON integer; floats, bools and strings fail."""
    if type(value) is not int:
        raise FormatError(f"expected an integer, got {value!r}")
    return value


def _json(data: Any, kind: type) -> Any:
    """data itself if it is a JSON object (kind dict) or array (kind list)."""
    if not isinstance(data, kind):
        name = "object" if kind is dict else "array"
        raise FormatError(f"expected a JSON {name}, got {type(data).__name__}")
    return data


def decode_spec(data: Any) -> AlgebraSpec:
    try:
        return AlgebraSpec(tuple(_json_int(m) for m in _json(data, list)))
    except (TypeError, ValueError, OverflowError) as exc:
        raise FormatError(f"bad algebra spec: {exc}") from exc


# -- writing ---------------------------------------------------------------

# stands in for the payload in the json.dumps text of the rest of a document
_PAYLOAD = "payload"
# the floats a piece of the payload holds, or one outer item's if that is more
_PIECE_FLOATS = 4096


def _list(items) -> str:
    return "[" + ", ".join(items) + "]"


def _entries(dims: tuple[int, ...], count: int) -> str:
    """The "%r" text of count comma-separated entries over A.

    An entry is one list per summand of its m*m [re, im] pairs, row-major.
    """
    return ", ".join([_list(_list(["[%r, %r]"] * (m * m)) for m in dims)] * count)


def _render(doc: dict, spec: AlgebraSpec, grids: Sequence[np.ndarray], item: str) -> Iterator[str]:
    """The text of json.dumps(doc) in pieces, the entries of grids as a list at _PAYLOAD.

    grids holds, per summand, an array of m x m entries in file order whose
    axis 0 runs over the list's items; item is the "%r" text of one item.
    The non-finite check and json.dumps run before this returns, so they
    raise before a file is opened.
    """
    # min and max propagate NaN and reach any infinity, and unlike isfinite
    # they allocate no array the size of a grid
    bounds = [f(part) for g in grids for part in (g.real, g.imag) for f in (np.min, np.max)]
    if not np.isfinite(bounds).all():
        raise ValueError("cannot write a non-finite matrix entry")
    # every key before the payload holds integers, so the first match is the payload
    head, tail = json.dumps(doc).split(json.dumps(_PAYLOAD), 1)
    count = len(grids[0])
    step = _PIECE_FLOATS // (2 * sum(g[0].size for g in grids)) or 1  # items a piece
    dims = spec.summand_dims

    def pieces():
        yield head + "["
        for start in range(0, count, step):
            values = np.concatenate(
                [g[start : start + step].reshape(-1, m * m) for m, g in zip(dims, grids)], axis=1
            ).view(float)
            text = ", ".join([item] * min(step, count - start)) % tuple(values.ravel().tolist())
            yield ", " + text if start else text
        yield "]" + tail

    return pieces()


def _frame_pieces(F: Frame, metadata: dict | None) -> Iterator[str]:
    doc = {
        "algebra": encode_spec(F.spec),
        "n": F.n,
        "k": F.k,
        "columns": _PAYLOAD,
        "kind": "frame",
    }
    if metadata:
        doc["metadata"] = metadata
    grids = [g.swapaxes(0, 1) for g in F.matrix.grids]
    return _render(doc, F.spec, grids, _list([_entries(F.spec.summand_dims, F.n)]))


def _amatrix_pieces(M: AMatrix, extra: dict) -> Iterator[str]:
    doc = {
        "algebra": encode_spec(M.spec),
        "rows": M.rows,
        "cols": M.cols,
        "entries": _PAYLOAD,
    }
    if doc.keys() & extra.keys():
        raise ValueError(f"extra keys {sorted(doc.keys() & extra.keys())} are reserved")
    doc.update(extra)
    # the entries are one flat list, written a row of the matrix at a time
    return _render(doc, M.spec, M.grids, _entries(M.spec.summand_dims, M.cols))


def _write(path, pieces: Iterable[str]):
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(pieces)
        fh.write("\n")


def save_frame(path, F: Frame, metadata: dict | None = None):
    _write(path, _frame_pieces(F, metadata))


def save_amatrix(path, M: AMatrix, **extra):
    """Write M as a matrix file; the keys of extra follow the entries."""
    _write(path, _amatrix_pieces(M, extra))


def save_with_frame(path, doc: dict, F: Frame):
    """Write doc with F's frame file document as a last "frame" key."""
    if "frame" in doc:
        raise ValueError('doc already has a "frame" key')
    text = json.dumps({**doc, "frame": 0})
    _write(path, chain([text[: -len("0}")]], _frame_pieces(F, None), ["}"]))


# -- reading ---------------------------------------------------------------


def _decode_grids(data: Any, spec: AlgebraSpec, shape: tuple[int, ...]) -> list[np.ndarray]:
    """Per summand, the shape + (m, m) array of the entries nested in data.

    Each level along shape, as the writer nests it, must be a JSON array of
    its count of items.  Rejects wrong shapes, non-numeric or non-finite
    values, and entries so large that the trace of the summand's M M* overflows.
    """
    entries = [data]
    for count in shape:
        if {len(_json(items, list)) for items in entries} != {count}:
            raise FormatError("payload shape does not match the header")
        entries = list(chain.from_iterable(entries))
    if set(map(len, entries)) != {spec.num_summands}:
        raise FormatError("wrong number of blocks")
    grids = []
    for j, m in enumerate(spec.summand_dims):
        blocks = list(map(itemgetter(j), entries))
        if set(map(len, blocks)) != {m * m}:
            raise FormatError(f"summand {j} entries do not hold {m * m} pairs each")
        pairs = list(chain.from_iterable(blocks))
        if set(map(len, pairs)) != {2}:
            raise FormatError(f"summand {j} holds a number that is not an [re, im] pair")
        # one flat list: numpy infers the dtype of the whole summand at once
        numbers = list(chain.from_iterable(pairs))
        arr = np.array(numbers)
        if arr.dtype == object:  # a huge integer or a value that is no number
            arr = np.array([_json_number(x) for x in numbers])
        if arr.dtype.kind not in "biuf" or arr.ndim != 1:
            raise FormatError("block entries must be numbers")
        arr = arr.reshape(*shape, m * m, 2).astype(float, copy=False)
        if not np.isfinite(arr).all():
            raise FormatError("non-finite matrix entry")
        flat = arr.ravel()
        with np.errstate(over="ignore"):
            power = flat @ flat  # trace of the summand's M M*
        if not np.isfinite(power):
            raise FormatError(f"summand {j} entries too large: trace of M M* overflows")
        grids.append(arr.view(complex).reshape(*shape, m, m))
    return grids


def decode_amatrix(data: Any) -> AMatrix:
    try:
        data = _json(data, dict)
        spec = decode_spec(data["algebra"])
        rows, cols = _json_int(data["rows"]), _json_int(data["cols"])
        if rows < 1 or cols < 1:  # two negatives would multiply to a count
            raise FormatError(f"rows and cols must be positive, got {rows} and {cols}")
        grids = _decode_grids(data["entries"], spec, (rows * cols,))
        return AMatrix.from_grids(spec, [g.reshape(rows, cols, *g.shape[1:]) for g in grids])
    except (KeyError, TypeError, ValueError, IndexError, OverflowError) as exc:
        raise FormatError(f"bad matrix encoding: {exc}") from exc


def decode_frame_file(data: Any) -> Frame:
    try:
        data = _json(data, dict)
        spec = decode_spec(data["algebra"])
        n, k = _json_int(data["n"]), _json_int(data["k"])
        if n < 1 or k < 1:
            raise FormatError(f"n and k must be positive, got {n} and {k}")
        grids = _decode_grids(data["columns"], spec, (k, n))
        return Frame(AMatrix.from_grids(spec, [g.swapaxes(0, 1) for g in grids]))
    except (KeyError, TypeError, ValueError, IndexError, OverflowError) as exc:
        raise FormatError(f"bad frame file: {exc}") from exc


def encode_tightness_report(report: TightnessReport) -> dict:
    return {
        "b": report.b,
        "residual": report.residual,
        "is_tight": report.is_tight,
        "per_summand_b": list(report.per_summand_b),
    }


def _read_json(path) -> Any:
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        raise FormatError(f"not valid JSON: {exc}") from exc


def load_frame(path) -> Frame:
    return decode_frame_file(_read_json(path))
