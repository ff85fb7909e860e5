"""Tight frames over a block C*-algebra: testing, normal form, factorization.

A frame is an n x k matrix F over A whose columns f_1, ..., f_k live in A^n.
Tightness is the operator condition F F* = b I for a positive constant b;
equivalently b^{-1/2} F is a coisometry, so every tight frame factors as
sqrt(b) * [I_n | 0] * U for a k x k unitary U over A.  The scalar-norm form
of the condition, b ||<v,v>|| = sum_i ||<v,f_i>||^2, is kept as a Monte
Carlo diagnostic; in the scalar algebra the two conditions coincide, while
over matrix blocks the sum can strictly dominate.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .algebra import AlgebraSpec, ShapeError, _spectral_norm
from .module import AMatrix, complete_to_unitary, is_unitary

__all__ = [
    "Frame",
    "TightnessReport",
    "SphericalReport",
    "ScalarCheckReport",
    "FactorizationResult",
    "NotTightError",
    "frame_operator",
    "gram_matrix",
    "check_tight",
    "scalar_definition_check",
    "is_spherical",
    "canonical_coisometry",
    "canonical_frame",
    "factorize",
    "random_tight_frame",
    "random_unitary",
]


class NotTightError(ValueError):
    """Raised when an operation requires a tight frame but the input is not."""

    def __init__(self, residual: float, tol: float):
        self.residual = residual
        self.tol = tol
        super().__init__(
            f"frame is not tight: residual {residual:.3e} exceeds tol {tol:.3e}"
        )


@dataclass(frozen=True)
class Frame:
    """k columns in A^n, stored as the n x k matrix [f_1, ..., f_k]."""

    matrix: AMatrix

    @property
    def spec(self) -> AlgebraSpec:
        return self.matrix.spec

    @property
    def n(self) -> int:
        return self.matrix.rows

    @property
    def k(self) -> int:
        return self.matrix.cols

    def column(self, i: int) -> AMatrix:
        return self.matrix.column(i)


@dataclass(frozen=True)
class TightnessReport:
    b: float
    residual: float
    is_tight: bool
    per_summand_b: tuple[float, ...]


@dataclass(frozen=True)
class SphericalReport:
    is_spherical: bool
    radius: float
    deviation: float
    mode: str


@dataclass(frozen=True)
class ScalarCheckReport:
    max_equality_deviation: float
    inequality_violations: int
    num_samples: int


@dataclass(frozen=True)
class FactorizationResult:
    b: float
    unitary: AMatrix
    reconstruction_residual: float


def frame_operator(F: Frame) -> AMatrix:
    """The n x n operator S = F F*."""
    return F.matrix @ F.matrix.H


def gram_matrix(F: Frame) -> AMatrix:
    """The k x k Gram matrix G = F* F."""
    return F.matrix.H @ F.matrix


def check_tight(F: Frame, tol: float = 1e-9) -> TightnessReport:
    """Estimate the frame constant and measure the defect ||FF* - bI||.

    Per summand j the constant is estimated as the normalized trace of the
    frame operator's summand block; the single constant b is their mean.  The
    frame is reported tight when the worst-summand residual is within
    tol * max(1, b), the per-summand estimates agree to the same tolerance,
    and b > tol.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    n = F.n
    S = frame_operator(F)
    per_b = []
    for m, blk in zip(F.spec.summand_dims, S.blocks):
        per_b.append(float(np.trace(blk).real) / (n * m))
    b = float(np.mean(per_b))
    residual = max(
        _spectral_norm(blk - b * np.eye(blk.shape[0]))
        for blk in S.blocks
    )
    scale = max(1.0, abs(b))
    spread = max(abs(bj - b) for bj in per_b)
    is_tight = residual <= tol * scale and spread <= tol * scale and b > tol
    return TightnessReport(b, residual, is_tight, tuple(per_b))


def _column_pairings(F: Frame, vflat: list[np.ndarray]) -> np.ndarray:
    """Per-sample norms ||<v, f_i>|| for a batch of vectors in A^n.

    vflat holds one array of shape (B, n*m_j, m_j) per summand; the result
    has shape (B, k) with the C*-norm already maximized over summands.
    """
    k = F.k
    fblocks = F.matrix.blocks
    batch = vflat[0].shape[0]
    norms = np.zeros((batch, k))
    for m, fb, vb in zip(F.spec.summand_dims, fblocks, vflat):
        cols = fb.reshape(fb.shape[0], k, m).transpose(1, 0, 2)  # (k, n*m, m)
        pair = np.einsum("bpx,kpy->bkxy", vb.conj(), cols)  # (B, k, m, m)
        svals = np.linalg.svd(pair, compute_uv=False)[..., 0]
        norms = np.maximum(norms, svals)
    return norms


def scalar_definition_check(
    F: Frame,
    b: float,
    num_samples: int = 1000,
    seed: int = 0,
    tol: float = 1e-9,
) -> ScalarCheckReport:
    """Monte Carlo check of the scalar-norm tightness condition.

    Samples random v in A^n and evaluates
    Delta(v) = sum_i ||<v, f_i>||^2 - b * ||<v, v>||.
    Reports the largest |Delta| and the count of samples with
    Delta < -tol; for a tight frame the inequality Delta >= 0 holds up to
    roundoff, with equality in the scalar algebra.
    """
    rng = np.random.default_rng(seed)
    n = F.n
    vflat = []
    for m in F.spec.summand_dims:
        re = rng.standard_normal((num_samples, n * m, m))
        im = rng.standard_normal((num_samples, n * m, m))
        vflat.append((re + 1j * im) / np.sqrt(2.0))
    pair_norms = _column_pairings(F, vflat)
    lhs = np.sum(pair_norms**2, axis=1)
    self_norm = np.zeros(num_samples)
    for vb in vflat:
        g = np.einsum("bpx,bpy->bxy", vb.conj(), vb)
        svals = np.linalg.svd(g, compute_uv=False)[..., 0]
        self_norm = np.maximum(self_norm, svals)
    delta = lhs - b * self_norm
    return ScalarCheckReport(
        max_equality_deviation=float(np.max(np.abs(delta))),
        inequality_violations=int(np.sum(delta < -tol)),
        num_samples=num_samples,
    )


def is_spherical(
    F: Frame, tol: float = 1e-9, mode: str = "strict"
) -> SphericalReport:
    """Test whether all columns have the same length over A.

    strict mode requires every <f_i, f_i> to equal r * 1_A for one common
    r > 0; equal_norm mode only requires the norms ||<f_i, f_i>|| to agree.
    """
    if mode not in ("strict", "equal_norm"):
        raise ValueError(f"unknown mode {mode!r}")
    k = F.k
    # per summand, the k diagonal blocks <f_i, f_i> as one (k, m, m) stack
    diag = [
        np.einsum("iaib->iab", blk.reshape(k, m, k, m))
        for m, blk in zip(F.spec.summand_dims, gram_matrix(F).blocks)
    ]
    if mode == "strict":
        traces = sum(np.trace(d, axis1=1, axis2=2) for d in diag)
        r = float(np.mean((traces / sum(F.spec.summand_dims)).real))
        deviation = max(
            float(np.max(np.linalg.norm(d - r * np.eye(d.shape[1]), 2, axis=(1, 2))))
            for d in diag
        )
        ok = deviation <= tol * max(1.0, abs(r)) and r > tol
        return SphericalReport(ok, r, deviation, mode)
    norms = np.max([np.linalg.norm(d, 2, axis=(1, 2)) for d in diag], axis=0)
    r = float(np.mean(norms))
    deviation = float(np.max(np.abs(norms - r)))
    ok = deviation <= tol * max(1.0, abs(r)) and r > tol
    return SphericalReport(ok, r, deviation, mode)


def canonical_coisometry(spec: AlgebraSpec, k: int, n: int) -> AMatrix:
    """The n x k matrix [I_n | 0] over A; the model coisometry."""
    if k < n:
        raise ShapeError(f"need k >= n, got k={k}, n={n}")
    return AMatrix.diagonal(spec, n, k, range(n))


def canonical_frame(
    spec: AlgebraSpec, k: int, n: int, b: float, U: AMatrix, tol: float = 1e-9
) -> Frame:
    """The normal-form tight frame sqrt(b) * [I_n | 0] * U.

    U must be a k x k unitary over A; the result always passes check_tight
    with constant b.
    """
    if b <= 0:
        raise ValueError("frame constant b must be positive")
    if U.rows != k or U.cols != U.rows:
        raise ShapeError(f"U must be {k}x{k}")
    if not is_unitary(U, tol):
        raise ValueError("U is not unitary within tolerance")
    W = canonical_coisometry(spec, k, n)
    return Frame(np.sqrt(b) * (W @ U))


def factorize(F: Frame, tol: float = 1e-9) -> FactorizationResult:
    """Recover (b, U) with F = sqrt(b) * [I_n | 0] * U for a tight frame.

    The rescaled matrix b^{-1/2} F is polished to an exact coisometry per
    summand (singular values snapped to 1) before the unitary completion,
    so U is unitary to machine precision even when the tightness residual
    sits at the tolerance.
    """
    report = check_tight(F, tol)
    if not report.is_tight:
        raise NotTightError(report.residual, tol)
    b = report.b
    G = (1.0 / np.sqrt(b)) * F.matrix
    polished = []
    for blk in G.blocks:
        u, _, vh = np.linalg.svd(blk, full_matrices=False)
        polished.append(u @ vh)
    Gp = AMatrix(F.spec, F.n, F.k, tuple(polished))
    U = complete_to_unitary(Gp, tol=max(tol, 1e-8))
    W = canonical_coisometry(F.spec, F.k, F.n)
    recon = (F.matrix - np.sqrt(b) * (W @ U)).norm()
    return FactorizationResult(b, U, recon)


def random_unitary(
    spec: AlgebraSpec, k: int, rng: np.random.Generator
) -> AMatrix:
    """Haar-ish k x k unitary over A: per-summand QR of a complex Gaussian.

    The diagonal of R is made real positive so the factor is unique and
    seed-reproducible.
    """
    blocks = []
    for m in spec.summand_dims:
        dim = k * m
        z = (
            rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        ) / np.sqrt(2.0)
        q, r = np.linalg.qr(z)
        phases = np.diagonal(r) / np.abs(np.diagonal(r))
        blocks.append(q * phases)
    return AMatrix(spec, k, k, tuple(blocks))


def random_tight_frame(
    spec: AlgebraSpec, k: int, n: int, b: float = 1.0, seed: int = 0
) -> Frame:
    """A seeded tight frame drawn through the normal form."""
    if k < n:
        raise ShapeError(f"need k >= n, got k={k}, n={n}")
    rng = np.random.default_rng(seed)
    U = random_unitary(spec, k, rng)
    return canonical_frame(spec, k, n, b, U)
