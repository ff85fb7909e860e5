"""Matrices and vectors over a block C*-algebra.

An r x c AMatrix over A = ⊕_j M_{m_j}(C) is stored as one complex
(r*m_j) x (c*m_j) array per summand, whose (i, p) block of size m_j x m_j
is summand j of the entry (i, p).  This realization is a *-isomorphism onto
its image, so products are one matrix product per summand, the adjoint is
the conjugate transpose, the operator norm is the largest summand spectral
norm, entries are slices and a column selection is one gather per summand.
This module is the only code that indexes inside a summand block: the
others reach entries through the (rows, cols, m, m) grids view, column
Grams, column scaling and entry norms.

Vectors in A^n are AMatrix values with a single column; the A-valued inner
product is conjugate-linear in the first argument, <v, w> = sum_i v_i* w_i
(right-module convention).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np
import scipy.linalg

from .algebra import (
    AlgebraElement, AlgebraSpec, ShapeError, _complex_gaussian, _spectral_norm, _spectral_norms
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
    """Input rows are not orthonormal over A, so no unitary completion exists."""

    def __init__(self, residual: float, tol: float):
        self.residual = residual
        self.tol = tol
        super().__init__(
            f"matrix is not a coisometry: ||MM* - I|| = {residual:.3e} > tol = {tol:.3e}"
        )


def _spread(indices: Sequence[int], m: int) -> np.ndarray:
    """Flat row/column positions of the entry indices for block size m."""
    idx = np.asarray(indices, dtype=np.intp).reshape(-1, 1)
    return (idx * m + np.arange(m)).ravel()


@dataclass(frozen=True)
class AMatrix:
    """An r x c matrix with entries in ⊕_j M_{m_j}(C), one flat block per summand."""

    spec: AlgebraSpec
    rows: int
    cols: int
    blocks: tuple[np.ndarray, ...] = field(repr=False)

    def __post_init__(self):
        dims = self.spec.summand_dims
        if self.rows < 1 or self.cols < 1:
            raise ShapeError("matrix dimensions must be positive")
        if len(self.blocks) != len(dims):
            raise ShapeError("wrong number of summand blocks")
        arrays = []
        for m, blk in zip(dims, self.blocks):
            a = np.asarray(blk, dtype=complex)
            if a.shape != (self.rows * m, self.cols * m):
                raise ShapeError(
                    f"summand block has shape {a.shape}, expected "
                    f"({self.rows * m}, {self.cols * m})"
                )
            arrays.append(a)
        object.__setattr__(self, "blocks", tuple(arrays))

    # -- constructors ------------------------------------------------------

    @classmethod
    def diagonal(
        cls, spec: AlgebraSpec, rows: int, cols: int, indices: Iterable[int] = ()
    ) -> "AMatrix":
        """The rows x cols matrix with 1_A at (i, i) for i in indices, else 0."""
        idx = list(indices)
        blocks = []
        for m in spec.summand_dims:
            blk = np.zeros((rows * m, cols * m), dtype=complex)
            pos = _spread(idx, m)
            blk[pos, pos] = 1.0
            blocks.append(blk)
        return cls(spec, rows, cols, tuple(blocks))

    @classmethod
    def zeros(cls, spec: AlgebraSpec, rows: int, cols: int) -> "AMatrix":
        return cls.diagonal(spec, rows, cols)

    @classmethod
    def identity(cls, spec: AlgebraSpec, n: int) -> "AMatrix":
        return cls.diagonal(spec, n, n, range(n))

    @classmethod
    def from_entries(
        cls, entries: Sequence[Sequence[AlgebraElement]]
    ) -> "AMatrix":
        """Build from a row-major grid of algebra elements sharing one spec."""
        rows = len(entries)
        cols = len(entries[0])
        spec = entries[0][0].spec
        for row in entries:
            if len(row) != cols:
                raise ShapeError("ragged entry grid")
            if any(elem.spec != spec for elem in row):
                raise ShapeError("entries belong to different algebras")
        blocks = tuple(
            np.block([[elem.blocks[j] for elem in row] for row in entries])
            for j in range(spec.num_summands)
        )
        return cls(spec, rows, cols, blocks)

    @classmethod
    def random(
        cls, spec: AlgebraSpec, rows: int, cols: int, rng: np.random.Generator
    ) -> "AMatrix":
        """Standard complex Gaussian entries: real then imaginary parts per summand."""
        return cls(
            spec,
            rows,
            cols,
            tuple(_complex_gaussian(rng, (rows * m, cols * m)) for m in spec.summand_dims),
        )

    @classmethod
    def from_grids(cls, spec: AlgebraSpec, grids: Sequence[np.ndarray]) -> "AMatrix":
        """Inverse of grids: build from one (rows, cols, m, m) array per summand."""
        rows, cols = grids[0].shape[:2]
        return cls(
            spec,
            rows,
            cols,
            tuple(
                g.swapaxes(1, 2).reshape(rows * m, cols * m)
                for m, g in zip(spec.summand_dims, grids)
            ),
        )

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

    def entry(self, i: int, j: int) -> AlgebraElement:
        return AlgebraElement(self.spec, tuple(g[i, j] for g in self.grids))

    def column(self, j: int) -> "AMatrix":
        return self.select_columns([j])

    def _column_stacks(self) -> list[np.ndarray]:
        """Per summand, a (cols, rows*m, m) view stacking the column blocks."""
        return [
            blk.reshape(-1, self.cols, m).transpose(1, 0, 2)
            for m, blk in zip(self.spec.summand_dims, self.blocks)
        ]

    def column_grams(self) -> tuple[np.ndarray, ...]:
        """Per summand, the (cols, m, m) stack of the pairings <M_i, M_i>."""
        return tuple(c.conj().transpose(0, 2, 1) @ c for c in self._column_stacks())

    def scale_columns(self, w: Sequence[np.ndarray]) -> "AMatrix":
        """M diag(w_1, ..., w_cols), with w one (cols, m, m) stack per summand."""
        return AMatrix(
            self.spec,
            self.rows,
            self.cols,
            tuple(
                (c @ wj).transpose(1, 0, 2).reshape(self.rows * m, self.cols * m)
                for m, c, wj in zip(self.spec.summand_dims, self._column_stacks(), w)
            ),
        )

    def entry_norms(self) -> np.ndarray:
        """The (rows, cols) array of entry C*-norms ||M_ij||."""
        return np.max([_spectral_norms(g) for g in self.grids], axis=0)

    def select_columns(self, indices: Sequence[int]) -> "AMatrix":
        idx = list(indices)
        return AMatrix(
            self.spec,
            self.rows,
            len(idx),
            tuple(
                blk[:, _spread(idx, m)]
                for m, blk in zip(self.spec.summand_dims, self.blocks)
            ),
        )

    # -- algebra -----------------------------------------------------------

    def _check_same_spec(self, other: "AMatrix"):
        if self.spec != other.spec:
            raise ShapeError("matrices over different algebras")

    def __add__(self, other: "AMatrix") -> "AMatrix":
        self._check_same_spec(other)
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ShapeError("shape mismatch in addition")
        return AMatrix(
            self.spec,
            self.rows,
            self.cols,
            tuple(a + b for a, b in zip(self.blocks, other.blocks)),
        )

    def __sub__(self, other: "AMatrix") -> "AMatrix":
        self._check_same_spec(other)
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ShapeError("shape mismatch in subtraction")
        return AMatrix(
            self.spec,
            self.rows,
            self.cols,
            tuple(a - b for a, b in zip(self.blocks, other.blocks)),
        )

    def __mul__(self, scalar) -> "AMatrix":
        return AMatrix(
            self.spec,
            self.rows,
            self.cols,
            tuple(complex(scalar) * a for a in self.blocks),
        )

    __rmul__ = __mul__

    def __matmul__(self, other: "AMatrix") -> "AMatrix":
        self._check_same_spec(other)
        if self.cols != other.rows:
            raise ShapeError(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        return AMatrix(
            self.spec,
            self.rows,
            other.cols,
            tuple(a @ b for a, b in zip(self.blocks, other.blocks)),
        )

    def adjoint(self) -> "AMatrix":
        """Conjugate transpose over A: (M*)_ij = (M_ji)*."""
        return AMatrix(
            self.spec, self.cols, self.rows, tuple(a.conj().T for a in self.blocks)
        )

    @property
    def H(self) -> "AMatrix":
        return self.adjoint()

    def norm(self) -> float:
        """Operator norm: the largest summand spectral norm."""
        return max(_spectral_norm(a) for a in self.blocks)

    def allclose(self, other: "AMatrix", tol: float = 1e-12) -> bool:
        self._check_same_spec(other)
        if (self.rows, self.cols) != (other.rows, other.cols):
            return False
        return all(
            np.allclose(a, b, rtol=0.0, atol=tol)
            for a, b in zip(self.blocks, other.blocks)
        )


def inner_product(v: AMatrix, w: AMatrix) -> AlgebraElement:
    """A-valued pairing <v, w> = sum_i v_i* w_i for column vectors in A^n."""
    if v.cols != 1 or w.cols != 1:
        raise ShapeError("inner_product expects column vectors")
    if v.spec != w.spec or v.rows != w.rows:
        raise ShapeError("vectors must share algebra and length")
    return (v.H @ w).entry(0, 0)


def is_unitary(M: AMatrix, tol: float = 1e-9) -> bool:
    """True iff both ||MM* - I|| and ||M*M - I|| are at most tol."""
    if M.rows != M.cols:
        raise ShapeError("is_unitary expects a square matrix")
    if not 0 < tol < np.inf:  # written so that NaN fails
        raise ValueError("tol must be finite and positive")
    eye = AMatrix.identity(M.spec, M.rows)
    return (M @ M.H - eye).norm() <= tol and (M.H @ M - eye).norm() <= tol


def is_partial_isometry(M: AMatrix, tol: float = 1e-9) -> bool:
    """True iff ||M M* M - M|| <= tol * max(1, ||M||)."""
    if not 0 < tol < np.inf:  # written so that NaN fails
        raise ValueError("tol must be finite and positive")
    defect = (M @ M.H @ M - M).norm()
    return defect <= tol * max(1.0, M.norm())


def complete_to_unitary(M: AMatrix, tol: float = 1e-9) -> AMatrix:
    """Extend a coisometric n x k matrix to a k x k unitary over A.

    The first n rows of the result equal M; the remaining rows are a
    deterministic orthonormal basis of the orthogonal complement of the row
    space: per summand, the leading columns of a LAPACK pivoted QR of the
    projector I - M*M (largest column first, lowest-index tie-break), with
    each added row's leading entry made real positive.  For [I | 0] the
    added rows are the trailing standard basis rows in ascending order.

    Raises
    ------
    NotCoisometricError
        If ||MM* - I|| > tol, or if the projector's rank falls short of
        (k - n) * m, its last pivot in R being below 1e-8.
    """
    if not 0 < tol < np.inf:  # written so that NaN fails
        raise ValueError("tol must be finite and positive")
    n, k = M.rows, M.cols
    if n > k:
        raise ShapeError("completion needs at least as many columns as rows")
    eye = AMatrix.identity(M.spec, n)
    residual = (M @ M.H - eye).norm()
    if residual > tol:
        raise NotCoisometricError(residual, tol)
    out_blocks = []
    for m, flat in zip(M.spec.summand_dims, M.blocks):
        want = (k - n) * m
        if want == 0:
            out_blocks.append(flat)
            continue
        proj = np.eye(k * m, dtype=complex) - flat.conj().T @ flat
        q, r, _ = scipy.linalg.qr(proj, mode="economic", pivoting=True)
        pivot = float(abs(r[want - 1, want - 1]))
        if pivot < 1e-8:
            raise NotCoisometricError(pivot, 1e-8)
        extra = q[:, :want].conj().T
        # a unit row always has an entry above 1e-12; the first becomes real
        # positive, and + 0.0 clears the -0.0 a negative phase leaves on zeros
        lead = extra[np.arange(want), (np.abs(extra) > 1e-12).argmax(axis=1)]
        extra = extra * (np.abs(lead) / lead)[:, None] + 0.0
        out_blocks.append(np.vstack([flat, extra]))
    return AMatrix(M.spec, k, k, tuple(out_blocks))
