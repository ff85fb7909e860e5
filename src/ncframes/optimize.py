"""Construction of strict-spherical tight frames by frame-potential descent.

Projected gradient descent on the frame potential sum_ij ||<f_i, f_j>||_HS^2
with a retraction that renormalizes every column to <f_i, f_i> = r * 1_A
after each step.  At the default radius r = n/k the minimizers are tight
with constant b = 1; any r > 0 gives b = k r / n.  Each line search starts
at the Barzilai-Borwein step <s, s> / <s, y> (Barzilai & Borwein, IMA J.
Numer. Anal. 8, 1988), where s and y are the changes in iterate and gradient
between the last two accepted iterates, and backtracks by halving until the
potential strictly decreases.  Runs are bit-reproducible for a fixed seed,
and the trace says why the run stopped and how many candidates it tried.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .algebra import AlgebraSpec, _complex_gaussian, _spectral_norm
from .frames import Frame
from .module import AMatrix

__all__ = [
    "OptimizerConfig",
    "OptimizerTrace",
    "DegenerateColumnError",
    "frame_potential",
    "potential_gradient",
    "retract_spherical",
    "minimize",
]


class DegenerateColumnError(ValueError):
    """A column Gram is numerically singular, so it cannot be renormalized."""

    def __init__(self, column: int):
        self.column = column
        super().__init__(f"column {column} has a singular Gram block")


@dataclass(frozen=True)
class OptimizerConfig:
    step_size: float = 0.05
    max_iters: int = 20000
    tight_tol: float = 1e-9
    seed: int = 0
    radius: float | None = None  # None -> n/k, making b = 1

    def __post_init__(self):
        # written so that NaN fails the range tests
        if not (0 < self.step_size < np.inf and 0 < self.tight_tol < np.inf):
            raise ValueError("step_size and tight_tol must be finite and positive")
        if not self.max_iters >= 1:
            raise ValueError("max_iters must be at least 1")
        if self.radius is not None and not 0 < self.radius < np.inf:
            raise ValueError("radius must be finite and positive")


@dataclass(frozen=True)
class OptimizerTrace:
    """A finished descent: its iterates, final frame, and why it stopped.

    stop_reason is "converged" (the residual reached tight_tol), "stalled"
    (no step length decreased the potential), "max_iters" (the iteration
    budget ran out) or "degenerate" (the start kept a degenerate column
    after every re-randomization).
    candidates counts retracted trial points, backtracks the halvings among
    them, and rerandomizations the redrawn start columns.
    """

    iterates: tuple[tuple[int, float, float], ...] = field(repr=False)
    frame: Frame
    stop_reason: str
    candidates: int = 0
    backtracks: int = 0
    rerandomizations: int = 0

    @property
    def converged(self) -> bool:
        return self.stop_reason == "converged"

    @property
    def failure(self) -> str | None:
        if self.stop_reason == "degenerate":
            return "persistent degenerate columns"
        return None

    @property
    def final_potential(self) -> float:
        return self.iterates[-1][1]

    @property
    def final_residual(self) -> float:
        return self.iterates[-1][2]


def _defects(F: Frame, b_target: float) -> tuple[float, list[np.ndarray]]:
    """(sum_j ||S_j - b I||_F^2, [S_j - b I]) against the target b.

    Under the spherical constraint trace(S_j) is pinned at k*m_j*r, so the
    excess orders iterates exactly like the raw potential while staying
    accurate near zero, where the raw potential difference drowns in
    roundoff.
    """
    excess = 0.0
    defects = []
    for x in F.matrix.blocks:
        d = x @ x.conj().T
        d.flat[:: d.shape[0] + 1] -= b_target
        excess += float(np.sum(np.abs(d) ** 2))
        defects.append(d)
    return excess, defects


def _residual(defects: list[np.ndarray]) -> float:
    """Tightness residual max_j ||S_j - b I||_2 of the defects from _defects."""
    return max(_spectral_norm(d) for d in defects)


def _real_inner(a: AMatrix, b: AMatrix) -> float:
    """Real inner product Re sum_j vdot(a_j, b_j) over the summand blocks."""
    return sum(float(np.vdot(x, y).real) for x, y in zip(a.blocks, b.blocks))


def frame_potential(F: Frame) -> float:
    """Sum over summands of the squared Frobenius norm of the Gram matrix."""
    total = 0.0
    for x in F.matrix.blocks:
        g = x.conj().T @ x
        total += float(np.sum(np.abs(g) ** 2))
    return total


def potential_gradient(F: Frame) -> AMatrix:
    """Gradient of the frame potential: per summand 4 * X * (X^H X)."""
    return AMatrix(
        F.spec, F.n, F.k, tuple(4.0 * x @ (x.conj().T @ x) for x in F.matrix.blocks)
    )


def retract_spherical(F: Frame, r: float, tol: float = 1e-12) -> Frame:
    """Rescale each column to <f_i, f_i> = r * 1_A via inverse square roots.

    Per summand, one eigh over the stacked column Grams.  Raises
    DegenerateColumnError if some column Gram block has an eigenvalue at or
    below tol.
    """
    if not 0 < r < np.inf:  # written so that NaN fails
        raise ValueError("radius must be finite and positive")
    weights = []
    for g in F.matrix.column_grams():
        vals, vecs = np.linalg.eigh((g + g.conj().transpose(0, 2, 1)) / 2)
        bad = np.nonzero(vals[:, 0] <= tol)[0]
        if bad.size:
            raise DegenerateColumnError(int(bad[0]))
        scale = (vals / r) ** -0.5
        weights.append((vecs * scale[:, None, :]) @ vecs.conj().transpose(0, 2, 1))
    return Frame(F.matrix.scale_columns(weights))


def minimize(
    spec: AlgebraSpec, k: int, n: int, config: OptimizerConfig | None = None
) -> OptimizerTrace:
    """Descend the frame potential to a strict-spherical tight frame.

    Each iteration takes a gradient step, retracts back to the spherical
    constraint, and halves the step (at most 60 times) until the potential
    strictly decreases.  The first trial step is the Barzilai-Borwein step
    <s, s> / <s, y> from the last two accepted iterates, in the real inner
    product Re sum_j vdot over summands; on the first iteration, and when
    <s, y> <= 0, it is twice the last accepted step, which starts at
    config.step_size.  The run stops once the tightness residual drops
    below config.tight_tol, when no step length decreases the potential,
    or when the iteration budget is exhausted.  Start columns whose Gram
    degenerates are re-randomized (at most 10 times in total) from the same
    seeded stream.
    """
    if k < n:
        raise ValueError(f"need k >= n, got k={k}, n={n}")
    if config is None:
        config = OptimizerConfig()
    r = config.radius if config.radius is not None else n / k
    dims = spec.summand_dims
    rng = np.random.default_rng(config.seed)
    degen_tol = 1e-10
    rerandomizations = 0

    X = AMatrix.random(spec, n, k, rng)
    while True:
        try:
            F = retract_spherical(Frame(X), r, degen_tol)
            break
        except DegenerateColumnError as exc:
            if rerandomizations == 10:
                return OptimizerTrace(
                    iterates=((0, float("nan"), float("nan")),),
                    frame=Frame(X),
                    stop_reason="degenerate",
                    rerandomizations=rerandomizations,
                )
            rerandomizations += 1
            for m, grid in zip(dims, X.grids):
                grid[:, exc.column] = _complex_gaussian(rng, (n, m, m))

    b_target = k * r / n
    # potential at the constraint is this constant plus the excess
    pot_floor = sum((k * r) ** 2 * m / n for m in dims)
    excess, defects = _defects(F, b_target)
    res = _residual(defects)
    iterates = [(0, pot_floor + excess, res)]
    step = config.step_size
    previous = None  # (iterate, gradient) at the last accepted iterate
    candidates = 0
    stalled = False

    it = 0
    while res > config.tight_tol and it < config.max_iters:
        it += 1
        grad = potential_gradient(F)
        trial = step * 2.0
        if previous is not None:
            s, y = F.matrix - previous[0], grad - previous[1]
            sy = _real_inner(s, y)
            if sy > 0:
                trial = _real_inner(s, s) / sy
        previous = (F.matrix, grad)
        accepted = None
        for _ in range(60):
            candidates += 1
            try:
                cand = retract_spherical(Frame(F.matrix - trial * grad), r, degen_tol)
            except DegenerateColumnError:
                trial *= 0.5
                continue
            cand_excess, cand_defects = _defects(cand, b_target)
            if cand_excess < excess:
                accepted = (cand, cand_excess, cand_defects, trial)
                break
            trial *= 0.5
        if accepted is None:
            # no decrease found at any step length: stationary to roundoff
            stalled = True
            break
        F, excess, defects, step = accepted
        # only accepted iterates pay for the SVD behind the stopping test
        res = _residual(defects)
        iterates.append((it, pot_floor + excess, res))

    if res <= config.tight_tol:
        stop_reason = "converged"
    else:
        stop_reason = "stalled" if stalled else "max_iters"
    return OptimizerTrace(
        iterates=tuple(iterates),
        frame=F,
        stop_reason=stop_reason,
        candidates=candidates,
        # every candidate but the accepted ones was followed by a halving
        backtracks=candidates - (len(iterates) - 1),
        rerandomizations=rerandomizations,
    )
