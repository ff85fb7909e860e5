"""Tight frames over a block C*-algebra: testing, normal form, factorization.

A frame is an n x k matrix F over A whose columns f_1, ..., f_k live in A^n.
Tightness is the operator condition F F* = b I for a positive constant b;
equivalently b^{-1/2} F is a coisometry, so every tight frame factors as
sqrt(b) * [I_n | 0] * U for a k x k unitary U over A.  The scalar-norm form
of the condition, b ||<v,v>|| = sum_i ||<v,f_i>||^2, is kept as a Monte
Carlo diagnostic; in the scalar algebra the two conditions coincide, while
over matrix blocks the sum can strictly dominate.

check_tight's report keeps the three Verdicts it decides by, and every
operation that needs a tight frame raises NotTightError from the first that
failed.  A frame with a NaN or infinite entry measures NaN, so it is
neither tight nor spherical, and the arithmetic on its way to that NaN
(inf - inf, inf * 0) runs under np.errstate, so it raises no RuntimeWarning.

canonical_frame checks that the caller's U is unitary before it takes the
normal form; random_tight_frame takes the same step unchecked, on a QR
factor that is unitary by construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .algebra import (
    AlgebraSpec, ShapeError, Verdict, _check_positive, _complex_gaussian, _scaled_tol,
    _spectral_norm, _spectral_norms,
)
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
    """Raised when an operation requires a tight frame but the input is not.

    verdict is the failed condition, which the message names, and tol is its
    bound.  residual is the frame's tightness residual, or |b_part - b| when
    direct_sum_frames meets a part tight with another constant.
    """

    def __init__(self, verdict: Verdict, residual: float):
        self.verdict = verdict
        self.residual = residual
        self.tol = verdict.bound
        super().__init__(f"frame is not tight: {verdict}")


@dataclass(frozen=True)
class Frame:
    """k columns in A^n, stored as the n x k matrix [f_1, ..., f_k].

    _tightness is check_tight's memo: per tol, a byte snapshot of the
    summand blocks beside the report computed from them.  A new Frame, even
    over the same matrix, starts with an empty memo; it takes no part in
    construction, equality or repr.
    """

    matrix: AMatrix
    _tightness: dict = field(default_factory=dict, init=False, repr=False, compare=False)

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
    """check_tight's measurements; is_tight joins the verdicts."""

    b: float
    residual: float
    is_tight: bool
    per_summand_b: tuple[float, ...]
    verdicts: tuple[Verdict, ...] = field(default=(), repr=False, compare=False)


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
    frame is reported tight when b > tol, the worst-summand residual is within
    tol * max(1, b) and the per-summand estimates agree to the same tolerance;
    the report keeps these three Verdicts in that order.

    The report is memoized on F per tol, beside a copy of the bytes of F's
    summand blocks; it is reused only while those bytes compare equal, so a
    write into the blocks in place (through AMatrix.grids, say) gets a fresh
    report.  A caller that runs split_equivalence over many column subsets
    of one frame then pays for FF* and its SVDs once, and ortho_decompose
    reuses the check its caller already made.
    """
    _check_positive(tol, "tol")
    snapshot = tuple(x.tobytes() for x in F.matrix.blocks)
    cached = F._tightness.get(tol)
    if cached is not None and cached[0] == snapshot:
        return cached[1]
    n = F.n
    per_b, defects = [], []
    with np.errstate(invalid="ignore", over="ignore"):  # an infinite entry measures NaN
        for m, x in zip(F.spec.summand_dims, F.matrix.blocks):
            s = x @ x.conj().T  # summand block of the frame operator FF*
            per_b.append(float(np.trace(s).real) / (n * m))
            defects.append(s)
        b = float(np.mean(per_b))
        for d in defects:
            d.flat[:: d.shape[0] + 1] -= b
        residual = max(_spectral_norm(d) for d in defects)
    spread = max(abs(bj - b) for bj in per_b)
    bound = _scaled_tol(tol, b)
    verdicts = (
        Verdict("b", b, tol, floor=True),
        Verdict("residual", residual, bound),
        Verdict("spread", spread, bound),
    )
    is_tight = all(v.holds for v in verdicts)
    report = TightnessReport(b, residual, is_tight, tuple(per_b), verdicts)
    F._tightness[tol] = (snapshot, report)
    return report


def _require_tight(report: TightnessReport) -> TightnessReport:
    """report if all its verdicts hold, else NotTightError from the first that failed."""
    for verdict in report.verdicts:
        if not verdict.holds:
            raise NotTightError(verdict, report.residual)
    return report


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
    _check_positive(b, "frame constant b")
    _check_positive(num_samples, "num_samples")
    _check_positive(tol, "tol")
    rng = np.random.default_rng(seed)
    # sample s, drawn entry by entry per summand, is column s of V
    draws = [_complex_gaussian(rng, (num_samples, F.n, m, m)) for m in F.spec.summand_dims]
    V = AMatrix.from_grids(F.spec, [z.swapaxes(0, 1) for z in draws])
    lhs = np.sum((V.H @ F.matrix).entry_norms() ** 2, axis=1)
    self_norm = np.max([_spectral_norms(g) for g in V.column_grams()], axis=0)
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
    _check_positive(tol, "tol")
    with np.errstate(invalid="ignore", over="ignore"):  # an infinite entry measures NaN
        grams = F.matrix.column_grams()
        if mode == "strict":
            traces = sum(np.trace(g, axis1=1, axis2=2) for g in grams)
            r = float(np.mean((traces / sum(F.spec.summand_dims)).real))
            deviation = max(
                float(np.max(_spectral_norms(g - r * np.eye(g.shape[1])))) for g in grams
            )
        else:
            norms = np.max([_spectral_norms(g) for g in grams], axis=0)
            r = float(np.mean(norms))
            deviation = float(np.max(np.abs(norms - r)))
    ok = deviation <= _scaled_tol(tol, r) and Verdict("r", r, tol, floor=True).holds
    return SphericalReport(ok, r, deviation, mode)


def _check_k_n(k: int, n: int) -> None:
    if k < n:
        raise ShapeError(f"need k >= n, got k={k}, n={n}")


def canonical_coisometry(spec: AlgebraSpec, k: int, n: int) -> AMatrix:
    """The n x k matrix [I_n | 0] over A; the model coisometry.

    The library never multiplies by it: [I_n | 0] U is U.top_rows(n).
    """
    _check_k_n(k, n)
    return AMatrix.diagonal(spec, n, k, range(n))


def canonical_frame(
    spec: AlgebraSpec, k: int, n: int, b: float, U: AMatrix, tol: float = 1e-9
) -> Frame:
    """The normal-form tight frame sqrt(b) * [I_n | 0] * U.

    U must be a k x k unitary over A; the result always passes check_tight
    with constant b.  [I_n | 0] U is U.top_rows(n), with no product: each
    entry of the product is one entry of U plus exact zeros, so the two
    agree bit for bit except in the sign of an entry that is zero.
    """
    _check_positive(b, "frame constant b")
    if U.rows != k or U.cols != U.rows:
        raise ShapeError(f"U must be {k}x{k}")
    if not is_unitary(U, tol):
        raise ValueError("U is not unitary within tolerance")
    _check_k_n(k, n)
    return _normal_form(b, U, n)


def _normal_form(b: float, U: AMatrix, n: int) -> Frame:
    """sqrt(b) * [I_n | 0] * U for a unitary U the caller vouches for, unchecked."""
    return Frame(np.sqrt(b) * U.top_rows(n))


def factorize(F: Frame, tol: float = 1e-9) -> FactorizationResult:
    """Recover (b, U) with F = sqrt(b) * [I_n | 0] * U for a tight frame.

    The rescaled matrix b^{-1/2} F is polished to an exact coisometry per
    summand (singular values snapped to 1) before the unitary completion,
    so U is unitary to machine precision even when the tightness residual
    sits at the tolerance.
    """
    b = _require_tight(check_tight(F, tol)).b
    G = (1.0 / np.sqrt(b)) * F.matrix
    polished = []
    for blk in G.blocks:
        u, _, vh = np.linalg.svd(blk, full_matrices=False)
        polished.append(u @ vh)
    Gp = AMatrix(F.spec, F.n, F.k, tuple(polished))
    U = complete_to_unitary(Gp, tol=max(tol, 1e-8))
    recon = (F.matrix - np.sqrt(b) * U.top_rows(F.n)).norm()
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
        q, r = np.linalg.qr(_complex_gaussian(rng, (k * m, k * m)))
        phases = np.diagonal(r) / np.abs(np.diagonal(r))
        blocks.append(q * phases)
    return AMatrix(spec, k, k, tuple(blocks))


def random_tight_frame(
    spec: AlgebraSpec, k: int, n: int, b: float = 1.0, seed: int = 0
) -> Frame:
    """A seeded tight frame drawn through the normal form: canonical_frame's
    frame for U = random_unitary of the seeded generator, bit for bit, but
    without its is_unitary check, as a QR factor is unitary by construction."""
    _check_k_n(k, n)
    _check_positive(b, "frame constant b")
    return _normal_form(b, random_unitary(spec, k, np.random.default_rng(seed)), n)
