"""Construction of strict-spherical tight frames by frame-potential descent.

Projected gradient descent on the frame potential sum_ij ||<f_i, f_j>||_HS^2
with a retraction that renormalizes every column to <f_i, f_i> = r * 1_A
after each step.  At the default radius r = n/k the minimizers are tight
with constant b = 1; any r > 0 gives b = k r / n.  Backtracking line search
keeps the potential non-increasing along accepted steps, and runs are
bit-reproducible for a fixed seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .algebra import AlgebraSpec
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
    tight_tol: float = 1e-8
    seed: int = 0
    radius: float | None = None  # None -> n/k, making b = 1

    def __post_init__(self):
        if self.step_size <= 0 or self.tight_tol <= 0 or self.max_iters < 1:
            raise ValueError("step_size, tight_tol, max_iters must be positive")
        if self.radius is not None and self.radius <= 0:
            raise ValueError("radius must be positive")


@dataclass(frozen=True)
class OptimizerTrace:
    iterates: tuple[tuple[int, float, float], ...] = field(repr=False)
    frame: Frame
    converged: bool
    failure: str | None = None

    @property
    def final_potential(self) -> float:
        return self.iterates[-1][1]

    @property
    def final_residual(self) -> float:
        return self.iterates[-1][2]


# -- helpers on the summand blocks of the frame matrix ----------------------


def _potential_flat(flats: list[np.ndarray]) -> float:
    total = 0.0
    for x in flats:
        g = x.conj().T @ x
        total += float(np.sum(np.abs(g) ** 2))
    return total


def _gradient_flat(flats: list[np.ndarray]) -> list[np.ndarray]:
    return [4.0 * x @ (x.conj().T @ x) for x in flats]


def _excess_stats(
    flats: list[np.ndarray], dims, b_target: float
) -> tuple[float, float]:
    """(sum_j ||S_j - b I||_F^2, max_j ||S_j - b I||_2) against the target b.

    Under the spherical constraint trace(S_j) is pinned at k*m_j*r, so the
    excess orders iterates exactly like the raw potential while staying
    accurate near zero, where the raw potential difference drowns in
    roundoff.
    """
    excess = 0.0
    res = 0.0
    for m, x in zip(dims, flats):
        s = x @ x.conj().T
        d = s - b_target * np.eye(s.shape[0])
        excess += float(np.sum(np.abs(d) ** 2))
        res = max(res, float(np.linalg.norm(d, 2)))
    return excess, res


def _retract_flat(
    flats: list[np.ndarray], dims, k: int, r: float, tol: float
) -> list[np.ndarray]:
    """Per summand, one stacked Gram and eigh over the k column blocks."""
    out = []
    for m, x in zip(dims, flats):
        cols = x.reshape(-1, k, m).transpose(1, 0, 2)  # (k, n*m, m)
        g = cols.conj().transpose(0, 2, 1) @ cols
        vals, vecs = np.linalg.eigh((g + g.conj().transpose(0, 2, 1)) / 2)
        bad = np.nonzero(vals[:, 0] <= tol)[0]
        if bad.size:
            raise DegenerateColumnError(int(bad[0]))
        scale = (vals / r) ** -0.5
        w = (vecs * scale[:, None, :]) @ vecs.conj().transpose(0, 2, 1)
        out.append((cols @ w).transpose(1, 0, 2).reshape(x.shape))
    return out


# -- public operations on frames -------------------------------------------


def frame_potential(F: Frame) -> float:
    """Sum over summands of the squared Frobenius norm of the Gram matrix."""
    return _potential_flat(list(F.matrix.blocks))


def potential_gradient(F: Frame) -> AMatrix:
    """Gradient of the frame potential: per summand 4 * X * (X^H X)."""
    return AMatrix(F.spec, F.n, F.k, tuple(_gradient_flat(list(F.matrix.blocks))))


def retract_spherical(F: Frame, r: float, tol: float = 1e-12) -> Frame:
    """Rescale each column to <f_i, f_i> = r * 1_A via inverse square roots.

    Raises DegenerateColumnError if some column Gram block has an
    eigenvalue at or below tol.
    """
    if r <= 0:
        raise ValueError("radius must be positive")
    flats = _retract_flat(list(F.matrix.blocks), F.spec.summand_dims, F.k, r, tol)
    return Frame(AMatrix(F.spec, F.n, F.k, tuple(flats)))


def minimize(
    spec: AlgebraSpec, k: int, n: int, config: OptimizerConfig | None = None
) -> OptimizerTrace:
    """Descend the frame potential to a strict-spherical tight frame.

    Each iteration takes a gradient step, retracts back to the spherical
    constraint, and halves the step until the potential decreases; the run
    stops once the tightness residual drops below config.tight_tol or the
    iteration budget is exhausted.  Columns whose Gram degenerates are
    re-randomized (at most 10 times in total) from the same seeded stream.
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

    def rerandomize(flats: list[np.ndarray], col: int):
        nonlocal rerandomizations
        rerandomizations += 1
        if rerandomizations > 10:
            return False
        for m, x in zip(dims, flats):
            re = rng.standard_normal((n * m, m))
            im = rng.standard_normal((n * m, m))
            x[:, col * m : (col + 1) * m] = (re + 1j * im) / np.sqrt(2.0)
        return True

    flats = list(AMatrix.random(spec, n, k, rng).blocks)
    while True:
        try:
            flats = _retract_flat(flats, dims, k, r, degen_tol)
            break
        except DegenerateColumnError as exc:
            if not rerandomize(flats, exc.column):
                return OptimizerTrace(
                    iterates=((0, float("nan"), float("nan")),),
                    frame=Frame(AMatrix(spec, n, k, tuple(flats))),
                    converged=False,
                    failure="persistent degenerate columns",
                )

    b_target = k * r / n
    # potential at the constraint is this constant plus the excess
    pot_floor = sum((k * r) ** 2 * m / n for m in dims)
    excess, res = _excess_stats(flats, dims, b_target)
    iterates = [(0, pot_floor + excess, res)]
    step = config.step_size
    converged = res <= config.tight_tol
    failure = None

    it = 0
    while not converged and it < config.max_iters:
        it += 1
        grad = _gradient_flat(flats)
        trial = step * 2.0
        accepted = None
        for _ in range(60):
            try:
                cand = _retract_flat(
                    [x - trial * g for x, g in zip(flats, grad)],
                    dims,
                    k,
                    r,
                    degen_tol,
                )
            except DegenerateColumnError:
                trial *= 0.5
                continue
            cand_excess, cand_res = _excess_stats(cand, dims, b_target)
            if cand_excess < excess:
                accepted = (cand, cand_excess, cand_res, trial)
                break
            trial *= 0.5
        if accepted is None:
            # no decrease found at any step length: stationary to roundoff
            break
        flats, excess, res, step = accepted
        iterates.append((it, pot_floor + excess, res))
        converged = res <= config.tight_tol

    return OptimizerTrace(
        iterates=tuple(iterates),
        frame=Frame(AMatrix(spec, n, k, tuple(flats))),
        converged=converged,
        failure=failure,
    )
