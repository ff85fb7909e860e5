"""Finite-dimensional C*-algebras as direct sums of complex matrix blocks.

An algebra A = ⊕_j M_{m_j}(C) is described by its block sizes
[m_1, ..., m_s].  Its elements are not a type of their own: since
M_1(A) = A, an element of A is the 1 x 1 AMatrix of the module layer,
one (m_j, m_j) block per summand.  This module holds the spec, the
dense kernels (spectral norms, complex Gaussian draws) the other layers
compute with, and the tolerance rule: _scaled_tol computes every bound,
and a Verdict carries a measured value and its bound from a check to the
error that names them.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ShapeError",
    "AlgebraSpec",
    "Verdict",
]


class ShapeError(ValueError):
    """Operands do not conform (different algebra or incompatible shapes)."""


def _check_positive(value: float, name: str) -> None:
    """Raise ValueError unless value is finite and positive; NaN fails too."""
    if not 0 < value < np.inf:  # written so that NaN fails
        raise ValueError(f"{name} must be finite and positive")


def _check_k_n(k: int, n: int) -> None:
    """Raise ShapeError unless 1 <= n <= k: a frame is k columns in A^n."""
    if not 1 <= n <= k:
        raise ShapeError(f"need 1 <= n <= k, got k={k}, n={n}")


def _as_int(value, what: str) -> int:
    """value as an int by operator.index; floats, strings and bools raise TypeError."""
    # operator.index refuses floats and strings, but bool is an int subclass
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise TypeError(f"{what} must be an integer, got {value!r}")


def _scaled_tol(tol: float, scale: float, factor: float = 1.0) -> float:
    """The bound of every verdict, tol * max(1, |scale|) * factor: absolute below scale 1."""
    return tol * (max(1.0, abs(scale)) * factor)


@dataclass(frozen=True)
class Verdict:
    """A measured quantity held to a bound, kept together so that a failure
    can name both: it holds when measured <= bound, or for a floor when
    measured > bound, and a NaN holds neither."""

    name: str
    measured: float
    bound: float
    floor: bool = False

    @property
    def holds(self) -> bool:
        return self.measured > self.bound if self.floor else self.measured <= self.bound

    def __str__(self) -> str:
        failed = "is not above" if self.floor else "exceeds"
        return f"{self.name} {self.measured:.3e} {failed} tol {self.bound:.3e}"


def _spectral_norm(a: np.ndarray) -> float:
    """Largest singular value of a 2-D array, or NaN for one that is not finite.

    The same value as np.linalg.norm(a, 2), which computes these singular
    values and takes their maximum, without that wrapper's dispatch cost.
    LAPACK returns NaN for an infinite entry and refuses a NaN one, which
    numpy raises as LinAlgError; that refusal reads NaN, so every verdict
    on the value fails.  The entries are inspected only after a refusal,
    so a finite array pays nothing.
    """
    try:
        return float(np.linalg.svd(a, compute_uv=False)[0])
    except np.linalg.LinAlgError:
        if np.isfinite(a).all():
            raise
        return np.nan


def _largest_norm(norms: list[float]) -> float:
    """The largest of some norms, NaN if any is NaN (a non-finite block, see
    _spectral_norm): max drops a NaN that follows a number, and the sum is
    NaN when any term is."""
    total = sum(norms)
    return max(norms) if total == total else np.nan


def _spectral_norms(stack: np.ndarray) -> np.ndarray:
    """Largest singular value of each matrix in a (..., p, q) stack; NaN for
    a matrix that is not finite, as _spectral_norm gives."""
    try:
        return np.linalg.svd(stack, compute_uv=False)[..., 0]
    except np.linalg.LinAlgError:
        # one refused matrix fails the whole call, so measure each alone
        flat = stack.reshape(-1, *stack.shape[-2:])
        return np.array([_spectral_norm(a) for a in flat]).reshape(stack.shape[:-2])


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
        Sizes m_j >= 1 of the matrix blocks, in order.  Each is read by
        operator.index: a float, string or bool raises TypeError.
    """

    summand_dims: tuple[int, ...]

    def __post_init__(self):
        dims = tuple(_as_int(m, "block size") for m in self.summand_dims)
        if len(dims) < 1:
            raise ValueError("algebra needs at least one summand")
        if any(m < 1 for m in dims):
            raise ValueError(f"block sizes must be positive, got {dims}")
        object.__setattr__(self, "summand_dims", dims)

    @property
    def num_summands(self) -> int:
        return len(self.summand_dims)
