"""Finite-dimensional C*-algebras as direct sums of complex matrix blocks.

An algebra is described by its block sizes [m_1, ..., m_s]; an element is a
block-diagonal complex matrix stored as one dense block per summand.  The
operator norm, involution, positivity and the normalized trace are all
computed blockwise.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "ShapeError",
    "AlgebraSpec",
    "AlgebraElement",
]


class ShapeError(ValueError):
    """Operands do not conform (different algebra or incompatible shapes)."""


def _spectral_norm(a: np.ndarray) -> float:
    """Largest singular value of a 2-D array.

    The same value as np.linalg.norm(a, 2), which computes these singular
    values and takes their maximum, without that wrapper's dispatch cost.
    """
    return float(np.linalg.svd(a, compute_uv=False)[0])


def _spectral_norms(stack: np.ndarray) -> np.ndarray:
    """Largest singular value of each matrix in a (..., p, q) stack."""
    return np.linalg.svd(stack, compute_uv=False)[..., 0]


def _complex_gaussian(rng: np.random.Generator, shape) -> np.ndarray:
    """Standard complex Gaussian array: all real parts drawn, then all imaginary."""
    re = rng.standard_normal(shape)
    im = rng.standard_normal(shape)
    return (re + 1j * im) / np.sqrt(2.0)


@dataclass(frozen=True)
class AlgebraSpec:
    """Block structure of a finite-dimensional C*-algebra.

    Parameters
    ----------
    summand_dims : tuple of int
        Sizes m_j >= 1 of the matrix blocks, in order.
    """

    summand_dims: tuple[int, ...]

    def __post_init__(self):
        dims = tuple(int(m) for m in self.summand_dims)
        if len(dims) < 1:
            raise ValueError("algebra needs at least one summand")
        if any(m < 1 for m in dims):
            raise ValueError(f"block sizes must be positive, got {dims}")
        object.__setattr__(self, "summand_dims", dims)

    @property
    def num_summands(self) -> int:
        return len(self.summand_dims)

    def identity(self) -> "AlgebraElement":
        return AlgebraElement(
            self, tuple(np.eye(m, dtype=complex) for m in self.summand_dims)
        )

    def zero(self) -> "AlgebraElement":
        return AlgebraElement(
            self, tuple(np.zeros((m, m), dtype=complex) for m in self.summand_dims)
        )

    def from_scalar(self, z: complex) -> "AlgebraElement":
        """The element z * 1_A."""
        return AlgebraElement(
            self, tuple(z * np.eye(m, dtype=complex) for m in self.summand_dims)
        )

    def random_element(self, rng: np.random.Generator) -> "AlgebraElement":
        """Independent standard complex Gaussian entries per block."""
        return AlgebraElement(
            self, tuple(_complex_gaussian(rng, (m, m)) for m in self.summand_dims)
        )


@dataclass(frozen=True)
class AlgebraElement:
    """An element of ⊕_j M_{m_j}(C), one complex block per summand.

    Values are treated as immutable; operations return new elements.
    """

    spec: AlgebraSpec
    blocks: tuple[np.ndarray, ...] = field(repr=False)

    def __post_init__(self):
        dims = self.spec.summand_dims
        if len(self.blocks) != len(dims):
            raise ShapeError(
                f"expected {len(dims)} blocks, got {len(self.blocks)}"
            )
        blocks = []
        for m, blk in zip(dims, self.blocks):
            arr = np.asarray(blk, dtype=complex)
            if arr.shape != (m, m):
                raise ShapeError(f"block has shape {arr.shape}, expected ({m}, {m})")
            blocks.append(arr)
        object.__setattr__(self, "blocks", tuple(blocks))

    def _check_same_spec(self, other: "AlgebraElement"):
        if self.spec != other.spec:
            raise ShapeError("elements belong to different algebras")

    def _blockwise(self, op, other: "AlgebraElement") -> "AlgebraElement":
        self._check_same_spec(other)
        return AlgebraElement(self.spec, tuple(map(op, self.blocks, other.blocks)))

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        return self._blockwise(operator.add, other)

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        return self._blockwise(operator.sub, other)

    def __neg__(self) -> "AlgebraElement":
        return AlgebraElement(self.spec, tuple(-a for a in self.blocks))

    def __mul__(self, other) -> "AlgebraElement":
        if isinstance(other, AlgebraElement):
            return self._blockwise(operator.matmul, other)
        return AlgebraElement(self.spec, tuple(complex(other) * a for a in self.blocks))

    __rmul__ = __mul__

    def adjoint(self) -> "AlgebraElement":
        """Blockwise conjugate transpose."""
        return AlgebraElement(self.spec, tuple(a.conj().T for a in self.blocks))

    def norm(self) -> float:
        """The C*-norm: the largest singular value over all blocks."""
        return max(_spectral_norm(a) for a in self.blocks)

    def is_positive(self, tol: float = 1e-9) -> bool:
        """Hermitian within tol and smallest eigenvalue >= -tol, per block."""
        if not 0 < tol < np.inf:  # written so that NaN fails
            raise ValueError("tol must be finite and positive")
        for a in self.blocks:
            if _spectral_norm(a - a.conj().T) > tol:
                return False
            herm = (a + a.conj().T) / 2
            if float(np.linalg.eigvalsh(herm)[0]) < -tol:
                return False
        return True

    def normalized_trace(self) -> complex:
        """Sum of block traces divided by sum of block sizes."""
        tr = sum(complex(np.trace(a)) for a in self.blocks)
        return tr / sum(self.spec.summand_dims)

    def allclose(self, other: "AlgebraElement", tol: float = 1e-12) -> bool:
        self._check_same_spec(other)
        return all(
            np.allclose(a, b, rtol=0.0, atol=tol)
            for a, b in zip(self.blocks, other.blocks)
        )
