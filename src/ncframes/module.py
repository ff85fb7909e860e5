"""Matrices and vectors over a block C*-algebra.

An r x c AMatrix over A = ⊕_j M_{m_j}(C) is stored as one complex
(r*m_j) x (c*m_j) array per summand, whose (i, p) block of size m_j x m_j
is summand j of the entry (i, p).  This realization is a *-isomorphism onto
its image, so products are one matrix product per summand, the adjoint is
the conjugate transpose, the operator norm is the largest summand spectral
norm, entries are slices, the leading rows [I_n | 0] M are a slice too,
and a column selection is one gather per summand.
This module is the only code that indexes inside a summand block, and in
it grids and its inverse from_grids are the one map between entries and
block positions.  The others reach entries through grids, column Grams and
entry norms, and take column subsets with select_columns.  Two loops work
on bare summand blocks: the descent in optimize (_column_grams, which
column_grams also calls, and _scale_columns, the block of M diag(w_1, ...))
and the split pass in decomposition (_column_sides, select_columns' gather).

Shapes and indices are validated at the boundary.  Every AMatrix, the
result of an operation too, is built by the constructor, which checks the
block count and each block's shape and stores complex arrays; a block that
is one already, a view such as an entry's included, is stored as it is.
Its rows and cols check (_checked_shape) also runs first in diagonal,
zeros, identity and random, before they allocate, and _indices refuses
bool and float indices.  Equality is identity: == and hash are object's,
and allclose(other, 0.0) is the one comparison of values.

An element of A is the 1 x 1 AMatrix, since M_1(A) = A: entry(i, j) returns
one, from_entries assembles a grid of them, and the C*-algebra operations
(product @, adjoint, norm, is_positive, normalized_trace) are those of
M_n(A) at n = 1.  Vectors in A^n are AMatrix values with a single column;
the A-valued inner product is conjugate-linear in the first argument,
<v, w> = sum_i v_i* w_i (right-module convention).

complete_to_unitary, behind the normal form F = sqrt(b) [I_n | 0] U, needs
numpy only: greedy column pivoting of the projector P = I - M*M picks the
column whose residual is longest, and because P*P = P those squared
residuals are the diagonal of P's Schur complement, so the pivots come from
a pivoted Cholesky of P and one unpivoted QR of the pivot columns.  Exact
ties, as on symmetric frames, go to the lowest index rather than to
whichever column roundoff favours.  A refusal raises NotCoisometricError
from the Verdict that failed: ||MM* - I|| within tol, a pivot remainder
above 0, or the last pivot of R above 1e-8.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .algebra import (
    AlgebraSpec, ShapeError, Verdict, _as_int, _check_k_n, _check_positive, _complex_gaussian,
    _largest_norm, _scaled_tol, _spectral_norm, _spectral_norms,
)

__all__ = [
    "AMatrix",
    "NotCoisometricError",
    "inner_product",
    "is_unitary",
    "is_partial_isometry",
    "complete_to_unitary",
]


class NotCoisometricError(ValueError):
    """Input rows are not orthonormal over A, so no unitary completion exists;
    verdict is the failed condition, which the message names."""

    def __init__(self, verdict: Verdict):
        self.verdict = verdict
        super().__init__(f"matrix is not a coisometry: {verdict}")


def _indices(indices, ndim: int = 1):
    """indices as an intp array with ndim axes, or an int at ndim 0; ShapeError
    for another nesting and for bools and floats, rather than a mask or a cut."""
    idx = np.asarray(indices)
    if idx.ndim != ndim or (idx.size and idx.dtype.kind not in "iu"):
        what = "a flat list of integer indices" if ndim else "an integer index"
        raise ShapeError(f"expected {what}, got {indices!r}")
    return idx.astype(np.intp, copy=False) if ndim else int(idx)


def _column_stack(block: np.ndarray, m: int) -> np.ndarray:
    """The (cols, rows*m, m) view stacking the column blocks of a summand block."""
    return block.reshape(-1, block.shape[1] // m, m).transpose(1, 0, 2)


def _column_grams(block: np.ndarray, m: int) -> np.ndarray:
    """The (cols, m, m) stack of the column pairings <M_i, M_i> of a summand block."""
    c = _column_stack(block, m)
    return c.conj().transpose(0, 2, 1) @ c


def _scale_columns(block: np.ndarray, m: int, w: np.ndarray) -> np.ndarray:
    """The summand block of M diag(w_1, ..., w_cols), w a (cols, m, m) stack."""
    # a product in another layout rounds differently, and minimize's
    # outputs are pinned to these bits
    return (_column_stack(block, m) @ w).transpose(1, 0, 2).reshape(block.shape)


def _gather_columns(block: np.ndarray, m: int, idx: np.ndarray) -> np.ndarray | None:
    """The columns at idx (indices or a boolean mask) of a summand block, None
    for none: one gather on the (cols, m, rows*m) view of its transpose, laid
    out as block[:, positions] is, which sets how products round."""
    cols = block.T.reshape(-1, m, len(block))[idx]
    return cols.reshape(-1, len(block)).T if len(cols) else None


def _column_sides(M: "AMatrix", mask: np.ndarray) -> list[tuple]:
    """Per summand, the bare blocks of M's columns where the boolean mask holds
    and of the rest, as select_columns lays them out; None for an empty side."""
    rest = ~mask
    return [
        (_gather_columns(blk, m, mask), _gather_columns(blk, m, rest))
        for m, blk in zip(M.spec.summand_dims, M.blocks)
    ]


def _checked_shape(rows, cols) -> tuple[int, int]:
    """rows and cols as ints; ShapeError unless both are positive integers.

    The public constructor calls this, and so do the builders that allocate
    from rows and cols before they do, so a bad shape gets the same error
    from each of them.
    """
    try:
        rows, cols = _as_int(rows, "rows"), _as_int(cols, "cols")
    except TypeError as exc:
        raise ShapeError(str(exc)) from None
    if rows < 1 or cols < 1:
        raise ShapeError("matrix dimensions must be positive")
    return rows, cols


@dataclass(frozen=True, eq=False)
class AMatrix:
    """An r x c matrix with entries in ⊕_j M_{m_j}(C), one flat block per summand."""

    spec: AlgebraSpec
    rows: int
    cols: int
    blocks: tuple[np.ndarray, ...] = field(repr=False)

    def __post_init__(self):
        dims = self.spec.summand_dims
        rows, cols = _checked_shape(self.rows, self.cols)
        if len(self.blocks) != len(dims):
            raise ShapeError("wrong number of summand blocks")
        arrays = []
        for m, blk in zip(dims, self.blocks):
            a = np.asarray(blk, dtype=complex)
            if a.shape != (rows * m, cols * m):
                raise ShapeError(
                    f"summand block has shape {a.shape}, expected ({rows * m}, {cols * m})"
                )
            arrays.append(a)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "blocks", tuple(arrays))

    # -- constructors ------------------------------------------------------

    @classmethod
    def diagonal(
        cls, spec: AlgebraSpec, rows: int, cols: int, indices: Iterable[int] = ()
    ) -> "AMatrix":
        """The rows x cols matrix with 1_A at (i, i) for i in indices, else 0."""
        rows, cols = _checked_shape(rows, cols)
        idx = _indices(list(indices))
        dims = spec.summand_dims
        M = cls(spec, rows, cols, tuple(np.zeros((rows * m, cols * m), complex) for m in dims))
        for m, g in zip(dims, M.grids):
            g[idx, idx] = np.eye(m)
        return M

    @classmethod
    def zeros(cls, spec: AlgebraSpec, rows: int, cols: int) -> "AMatrix":
        return cls.diagonal(spec, rows, cols)

    @classmethod
    def identity(cls, spec: AlgebraSpec, n: int) -> "AMatrix":
        n, _ = _checked_shape(n, n)
        return cls.diagonal(spec, n, n, range(n))

    @classmethod
    def from_entries(cls, entries: Sequence[Sequence["AMatrix"]]) -> "AMatrix":
        """Build from a non-empty row-major grid of elements of A, each a 1 x 1
        AMatrix, sharing one spec."""
        rows = len(entries)
        cols = len(entries[0]) if rows else 0
        if cols == 0:
            raise ShapeError("entry grid is empty")
        first = entries[0][0]  # its type is checked before its spec is read
        for i, row in enumerate(entries):
            if len(row) != cols:
                raise ShapeError("ragged entry grid")
            for j, elem in enumerate(row):
                if not isinstance(elem, AMatrix):
                    raise TypeError(f"entry ({i}, {j}) is {type(elem).__name__}, not AMatrix")
                if elem.spec != first.spec:
                    raise ShapeError("entries belong to different algebras")
                if (elem.rows, elem.cols) != (1, 1):
                    raise ShapeError(f"entry ({i}, {j}) is {elem.rows}x{elem.cols}, not 1x1")
        return cls.from_grids(
            first.spec,
            [np.array([[elem.blocks[j] for elem in row] for row in entries])
             for j in range(first.spec.num_summands)],
        )

    @classmethod
    def random(
        cls, spec: AlgebraSpec, rows: int, cols: int, rng: np.random.Generator
    ) -> "AMatrix":
        """Standard complex Gaussian entries: real then imaginary parts per summand."""
        rows, cols = _checked_shape(rows, cols)
        return cls(
            spec,
            rows,
            cols,
            tuple(_complex_gaussian(rng, (rows * m, cols * m)) for m in spec.summand_dims),
        )

    @classmethod
    def from_grids(cls, spec: AlgebraSpec, grids: Sequence[np.ndarray]) -> "AMatrix":
        """Inverse of grids: C-contiguous blocks from one (rows, cols, m, m) array per summand."""
        if len(grids) != spec.num_summands:
            raise ShapeError("wrong number of summand grids")
        rows, cols = grids[0].shape[:2]
        dims = spec.summand_dims
        for m, g in zip(dims, grids):
            if g.shape != (rows, cols, m, m):
                raise ShapeError(f"summand grid has shape {g.shape}, not {(rows, cols, m, m)}")
        # products round by memory order, and swapped grids over a 1 x 1
        # summand reshape to a Fortran-ordered view
        blocks = (g.swapaxes(1, 2).reshape(rows * m, cols * m) for m, g in zip(dims, grids))
        return cls(spec, rows, cols, tuple(map(np.ascontiguousarray, blocks)))

    # -- entries and columns -----------------------------------------------

    @property
    def grids(self) -> tuple[np.ndarray, ...]:
        """Per summand, a (rows, cols, m, m) view whose [i, j] is entry (i, j).

        The views share memory with the blocks, so writes land in the matrix.
        """
        return tuple(
            blk.reshape(self.rows, m, self.cols, m).swapaxes(1, 2)
            for m, blk in zip(self.spec.summand_dims, self.blocks)
        )

    def entry(self, i: int, j: int) -> "AMatrix":
        """Entry (i, j), an element of A: the 1 x 1 AMatrix on the grids views,
        so writes to its blocks land in this matrix."""
        i, j = _indices(i, 0), _indices(j, 0)  # a slice would not give m x m
        return AMatrix(self.spec, 1, 1, tuple(g[i, j] for g in self.grids))

    def column(self, j: int) -> "AMatrix":
        return self.select_columns([j])

    def column_grams(self) -> tuple[np.ndarray, ...]:
        """Per summand, the (cols, m, m) stack of the pairings <M_i, M_i>."""
        return tuple(_column_grams(blk, m) for m, blk in zip(self.spec.summand_dims, self.blocks))

    def entry_norms(self) -> np.ndarray:
        """The (rows, cols) array of entry C*-norms ||M_ij||."""
        return np.max([_spectral_norms(g) for g in self.grids], axis=0)

    def top_rows(self, n: int) -> "AMatrix":
        """The first n rows, [I_n | 0] M, taken as a view of the leading n*m
        rows of each summand block rather than computed as a product."""
        n = _indices(n, 0)
        if not 1 <= n <= self.rows:
            raise ShapeError(f"cannot take {n} leading rows of {self.rows}")
        blocks = tuple(blk[: n * m] for m, blk in zip(self.spec.summand_dims, self.blocks))
        return AMatrix(self.spec, n, self.cols, blocks)

    def select_columns(self, indices: Sequence[int]) -> "AMatrix":
        """The columns at indices, in that order and with any repeats."""
        idx = _indices(indices)
        if not len(idx):
            raise ShapeError("select_columns needs a non-empty list of column indices")
        blocks = tuple(
            _gather_columns(blk, m, idx) for m, blk in zip(self.spec.summand_dims, self.blocks)
        )
        return AMatrix(self.spec, self.rows, len(idx), blocks)

    # -- algebra -----------------------------------------------------------

    def _check_same_spec(self, other: "AMatrix"):
        if self.spec != other.spec:
            raise ShapeError("matrices over different algebras")

    def _check_square(self, what: str):
        if self.rows != self.cols:
            raise ShapeError(f"{what} expects a square matrix")

    def _blockwise(self, op, other: "AMatrix", what: str) -> "AMatrix":
        self._check_same_spec(other)
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ShapeError(f"shape mismatch in {what}")
        return AMatrix(self.spec, self.rows, self.cols, tuple(map(op, self.blocks, other.blocks)))

    def __add__(self, other: "AMatrix") -> "AMatrix":
        return self._blockwise(operator.add, other, "addition")

    def __sub__(self, other: "AMatrix") -> "AMatrix":
        return self._blockwise(operator.sub, other, "subtraction")

    def __neg__(self) -> "AMatrix":
        return AMatrix(self.spec, self.rows, self.cols, tuple(-a for a in self.blocks))

    def __mul__(self, scalar) -> "AMatrix":
        s = complex(scalar)
        return AMatrix(self.spec, self.rows, self.cols, tuple(s * a for a in self.blocks))

    __rmul__ = __mul__

    def __matmul__(self, other: "AMatrix") -> "AMatrix":
        self._check_same_spec(other)
        if self.cols != other.rows:
            raise ShapeError(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        blocks = tuple(a @ b for a, b in zip(self.blocks, other.blocks))
        return AMatrix(self.spec, self.rows, other.cols, blocks)

    def adjoint(self) -> "AMatrix":
        """Conjugate transpose over A: (M*)_ij = (M_ji)*."""
        return AMatrix(self.spec, self.cols, self.rows, tuple(a.conj().T for a in self.blocks))

    @property
    def H(self) -> "AMatrix":
        return self.adjoint()

    def norm(self) -> float:
        """Operator norm: the largest summand spectral norm, NaN if any is NaN
        (a non-finite block, see algebra._spectral_norm)."""
        return _largest_norm([_spectral_norm(a) for a in self.blocks])

    def is_positive(self, tol: float = 1e-9) -> bool:
        """Positivity in the C*-algebra M_n(A), for square M only: per summand
        block, Hermitian within tol and smallest eigenvalue >= -tol.  A block
        that is not finite has a NaN Hermitian defect, so M is not positive."""
        self._check_square("is_positive")
        _check_positive(tol, "tol")
        for a in self.blocks:
            with np.errstate(invalid="ignore", over="ignore"):  # inf - inf reads NaN
                defect = _spectral_norm(a - a.conj().T)
            if not defect <= tol:  # written so that NaN fails
                return False
            herm = (a + a.conj().T) / 2
            if float(np.linalg.eigvalsh(herm)[0]) < -tol:
                return False
        return True

    def normalized_trace(self) -> complex:
        """Sum of the summand-block traces divided by rows * sum_j m_j, so 1 at
        the identity; square M only."""
        self._check_square("normalized_trace")
        tr = sum(complex(np.trace(a)) for a in self.blocks)
        return tr / (self.rows * sum(self.spec.summand_dims))

    def allclose(self, other: "AMatrix", tol: float = 1e-12) -> bool:
        self._check_same_spec(other)
        if (self.rows, self.cols) != (other.rows, other.cols):
            return False
        return all(
            np.allclose(a, b, rtol=0.0, atol=tol)
            for a, b in zip(self.blocks, other.blocks)
        )


def inner_product(v: AMatrix, w: AMatrix) -> AMatrix:
    """A-valued pairing <v, w> = sum_i v_i* w_i for column vectors in A^n,
    an element of A: the 1 x 1 AMatrix v* w."""
    if v.cols != 1 or w.cols != 1:
        raise ShapeError("inner_product expects column vectors")
    return v.H @ w  # @ refuses vectors of another algebra or length


def is_unitary(M: AMatrix, tol: float = 1e-9) -> bool:
    """True iff ||MM* - I|| <= tol, which bounds ||M*M - I|| by the same number.

    One side decides both: M is square, so each summand block M_j is a
    square matrix, and with its singular value decomposition
    M_j = P diag(s_i) Q*, both M_j M_j* - I = P diag(s_i^2 - 1) P* and
    M_j* M_j - I = Q diag(s_i^2 - 1) Q* are Hermitian with eigenvalues
    s_i^2 - 1, so ||MM* - I|| = ||M*M - I|| = max_{i, j} |s_i^2 - 1|.  In
    floating point the two computed norms differ by roundoff only.
    """
    M._check_square("is_unitary")
    _check_positive(tol, "tol")
    return _coisometry_residual(M) <= tol


def _coisometry_residual(M: AMatrix) -> float:
    """||MM* - I||, the distance of M's rows from an orthonormal set over A;
    NaN, with no RuntimeWarning, for a matrix that is not finite."""
    with np.errstate(invalid="ignore", over="ignore"):
        return (M @ M.H - AMatrix.identity(M.spec, M.rows)).norm()


def is_partial_isometry(M: AMatrix, tol: float = 1e-9) -> bool:
    """True iff ||M M* M - M|| <= tol * max(1, ||M||); False for a matrix that
    is not finite, whose defect is NaN."""
    _check_positive(tol, "tol")
    with np.errstate(invalid="ignore", over="ignore"):  # an infinite entry measures NaN
        defect = (M @ M.H @ M - M).norm()
    return defect <= _scaled_tol(tol, M.norm())


def _greedy_pivots(proj: np.ndarray, want: int) -> np.ndarray:
    """The first want column pivots of a greedy pivoted QR of a projector.

    Greedy pivoting (Businger & Golub 1965) takes next the column whose
    residual after the chosen ones is longest.  For a Hermitian projector
    P = P*P the squared residual norms are the diagonal of the Schur
    complement of the chosen columns in P, so the rule is pivoted Cholesky
    of P (Higham 1990): the largest remaining diagonal entry, one
    left-looking column per pivot.

    Ties go to the lowest index, and remainders within 1e-12 of the largest
    count as tied.  Symmetric frames (Mercedes, harmonic, equal-norm) tie
    exactly, and there LAPACK's pivoted QR picks by the roundoff of its
    column-norm downdates, so it may choose another, equally long column;
    the two rules agree in exact arithmetic and wherever the longest
    residual leads by more than roundoff, as on generic frames.

    Raises NotCoisometricError, instead of dividing, when the largest
    remainder is not above 0.  On a projector the remainders stay in
    [0, 1]; an input far from one (an indefinite I - M*M at a loose tol)
    may overflow them instead, and the inf or NaN that leaves ends in a
    rejected pivot or in the rank guard on R.
    """
    rest = proj.diagonal().real.copy()
    chol = np.zeros((proj.shape[0], want), dtype=complex)
    piv = np.zeros(want, dtype=np.intp)
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(want):
            top = float(rest.max())  # NaN, should one appear, fails the floor too
            remainder = Verdict("pivot remainder", top, 0.0, floor=True)
            if not remainder.holds:
                raise NotCoisometricError(remainder)
            p = int(np.argmax(rest >= top - 1e-12))
            col = (proj[:, p] - chol[:, :j] @ chol[p, :j].conj()) / np.sqrt(rest[p])
            chol[:, j] = col
            rest -= col.real**2 + col.imag**2
            rest[p] = -np.inf
            piv[j] = p
    return piv


def complete_to_unitary(M: AMatrix, tol: float = 1e-9) -> AMatrix:
    """Extend a coisometric n x k matrix to a k x k unitary over A.

    The first n rows of the result equal M; the remaining rows are a
    deterministic orthonormal basis of the orthogonal complement of the row
    space.  Per summand, the (k - n) * m greedy pivots of the projector
    P = I - M*M (the column longest after the chosen ones, lowest index on
    ties up to 1e-12) are found by pivoted Cholesky of P, which on a
    projector is, in exact arithmetic, the rule of LAPACK's pivoted QR of P
    (see _greedy_pivots for ties); the added rows are the conjugated
    Q of a QR of the pivot columns, each row's leading entry made real
    positive.  For [I | 0] the added rows are the trailing standard basis
    rows in ascending order.

    Raises
    ------
    ShapeError
        Unless 1 <= n <= k.
    NotCoisometricError
        If ||MM* - I|| > tol, or if the projector's rank falls short of
        (k - n) * m: the pivot search meets a remainder not above 0, or the
        last pivot in R is not above 1e-8.  The message names the failed
        condition, its measured value and its bound.
    """
    _check_positive(tol, "tol")
    n, k = M.rows, M.cols
    _check_k_n(k, n)
    residual = Verdict("||MM* - I||", _coisometry_residual(M), tol)
    if not residual.holds:
        raise NotCoisometricError(residual)
    out_blocks = []
    for m, flat in zip(M.spec.summand_dims, M.blocks):
        want = (k - n) * m
        if want == 0:
            out_blocks.append(flat)
            continue
        proj = np.eye(k * m, dtype=complex) - flat.conj().T @ flat
        q, r = np.linalg.qr(proj[:, _greedy_pivots(proj, want)])
        pivot = Verdict("last pivot", float(abs(r[want - 1, want - 1])), 1e-8, floor=True)
        if not pivot.holds:
            raise NotCoisometricError(pivot)
        extra = q.conj().T
        # a unit row always has an entry above 1e-12; the first becomes real
        # positive, and + 0.0 clears the -0.0 a negative phase leaves on zeros
        lead = extra[np.arange(want), (np.abs(extra) > 1e-12).argmax(axis=1)]
        extra = extra * (np.abs(lead) / lead)[:, None] + 0.0
        out_blocks.append(np.vstack([flat, extra]))
    return AMatrix(M.spec, k, k, tuple(out_blocks))
