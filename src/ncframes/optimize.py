"""Construction of strict-spherical tight frames by frame-potential descent.

Projected gradient descent on the frame potential sum_ij ||<f_i, f_j>||_HS^2
with a retraction that renormalizes every column to <f_i, f_i> = r * 1_A
after each step.  At the default radius r = n/k the minimizers are tight
with constant b = 1; any r > 0 gives b = k r / n, and minimize descends at
b = 1 and scales the result once.  The loop works on bare summand blocks
through one block-level gradient, retraction and defect routine each; the
public potential_gradient and retract_spherical wrap the same routines.
Each line search starts at the Barzilai-Borwein step <s, s> / <s, y>
(Barzilai & Borwein, IMA J. Numer. Anal. 8, 1988), where s and y are the
changes in iterate and gradient between the last two accepted iterates,
and backtracks by halving until the potential decreases by more than
roundoff.  Runs are bit-reproducible for a fixed seed, and the trace says
why the run stopped and how many candidates it tried.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .algebra import (
    AlgebraSpec, Verdict, _check_k_n, _check_positive, _complex_gaussian, _scaled_tol,
    _spectral_norm,
)
from .frames import Frame
from .module import AMatrix, _column_grams, _scale_columns

__all__ = [
    "OptimizerConfig",
    "OptimizerTrace",
    "DegenerateColumnError",
    "frame_potential",
    "potential_gradient",
    "retract_spherical",
    "minimize",
]


# Relative decrease of the excess below which a candidate counts as roundoff
# and is rejected; minimize's docstring gives the reason for the value.
_ROUNDOFF_MARGIN = 1e-10

# The summand blocks of an n x k matrix over A, in the AMatrix.blocks layout.
Blocks = Sequence[np.ndarray]

# The iterate log keeps the start, every _LOG_STRIDE-th accepted iterate and
# the last one.
_LOG_STRIDE = 50


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
        _check_positive(self.step_size, "step_size")
        _check_positive(self.tight_tol, "tight_tol")
        if not self.max_iters >= 1:
            raise ValueError("max_iters must be at least 1")
        if self.radius is not None:
            _check_positive(self.radius, "radius")

    def radius_for(self, spec: AlgebraSpec, k: int, n: int) -> float:
        """The column radius r of a k-column descent on A^n: radius, or n/k.

        Raises ValueError when the frame constant b = k r / n is at or below
        tight_tol, since check_tight reports no such frame tight, and when
        the bound (k r)^2 * sum_j m_j on the potential of every spherical
        frame at radius r is not a finite float, since the excess could then
        not order the iterates.
        """
        r = self.radius if self.radius is not None else n / k
        if not Verdict("k*r/n", k * r / n, self.tight_tol, floor=True).holds:
            raise ValueError(
                f"radius {r:g} is too small: the frame constant k*r/n = {k * r / n:g} "
                f"is not above tight_tol {self.tight_tol:g}"
            )
        try:
            ceiling = (k * r) ** 2 * sum(spec.summand_dims)
        except OverflowError:
            ceiling = np.inf
        if not ceiling < np.inf:
            raise ValueError(f"radius {r:g} is too large: the potential of {k} columns overflows")
        return r


@dataclass(frozen=True)
class OptimizerTrace:
    """A finished descent: its iterate log, final frame, and why it stopped.

    iterates is the log of (iteration, potential, residual) triples: the
    start (iteration 0), every 50th accepted iterate and the last one, each
    with its exact tightness residual max_j ||S_j - b I||_2.  iterations
    counts the accepted iterates.
    stop_reason is "converged" (the residual reached the stop threshold
    tight_tol * max(1, b), which check_tight uses), "stalled"
    (no step length decreased the potential by more than roundoff),
    "max_iters" (the iteration budget ran out) or "degenerate" (the start
    kept a degenerate column after every re-randomization).
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
    def iterations(self) -> int:
        return self.iterates[-1][0]

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


def _defects(blocks: Blocks, b_target: float) -> tuple[float, list[np.ndarray], float]:
    """(sum_j ||S_j - b I||_F^2, [S_j - b I], floor) against the target b.

    Under the spherical constraint trace(S_j) is pinned at k*m_j*r, so the
    excess orders iterates exactly like the raw potential while staying
    accurate near zero, where the raw potential difference drowns in
    roundoff.  floor is max_j ||S_j - b I||_F / sqrt(n m_j), a lower bound
    on the residual _residual(defects), since S_j - b I has rank at most
    n m_j.
    """
    # summed one term at a time: sum() of floats is compensated on newer
    # Pythons and would change the bits of the excess
    excess = 0.0
    floor = 0.0
    defects = []
    for x in blocks:
        d = x @ x.conj().T
        d.flat[:: d.shape[0] + 1] -= b_target
        sq = float(np.sum(np.abs(d) ** 2))
        excess += sq
        floor = max(floor, sq / d.shape[0])
        defects.append(d)
    return excess, defects, floor**0.5


def _residual(defects: list[np.ndarray]) -> float:
    """Tightness residual max_j ||S_j - b I||_2 of the defects from _defects."""
    return max(_spectral_norm(d) for d in defects)


def _real_inner(a: Blocks, b: Blocks) -> float:
    """Real inner product Re sum_j vdot(a_j, b_j) over the summand blocks."""
    return sum(float(np.vdot(x, y).real) for x, y in zip(a, b))


def _gradient(blocks: Blocks) -> Blocks:
    """Per summand block X, the frame potential's gradient 4 * X * (X^H X)."""
    return tuple(4.0 * x @ (x.conj().T @ x) for x in blocks)


def _retract(blocks: Blocks, dims: tuple[int, ...], r: float, tol: float) -> Blocks:
    """The summand blocks of retract_spherical at radius r."""
    out = []
    for m, x in zip(dims, blocks):
        g = _column_grams(x, m)
        vals, vecs = np.linalg.eigh((g + g.conj().transpose(0, 2, 1)) / 2)
        bad = np.nonzero(vals[:, 0] <= tol)[0]
        if bad.size:
            raise DegenerateColumnError(int(bad[0]))
        scale = (vals / r) ** -0.5
        w = (vecs * scale[:, None, :]) @ vecs.conj().transpose(0, 2, 1)
        out.append(_scale_columns(x, m, w))
    return tuple(out)


def frame_potential(F: Frame) -> float:
    """Sum over summands of the squared Frobenius norm of the Gram matrix."""
    total = 0.0
    for x in F.matrix.blocks:
        g = x.conj().T @ x
        total += float(np.sum(np.abs(g) ** 2))
    return total


def potential_gradient(F: Frame) -> AMatrix:
    """Gradient of the frame potential: per summand 4 * X * (X^H X)."""
    return AMatrix(F.spec, F.n, F.k, _gradient(F.matrix.blocks))


def retract_spherical(F: Frame, r: float, tol: float = 1e-12) -> Frame:
    """Rescale each column to <f_i, f_i> = r * 1_A via inverse square roots.

    Per summand, one eigh over the stacked column Grams; minimize's loop
    runs the same block-level retraction.  Raises DegenerateColumnError if
    some column Gram block has an eigenvalue at or below tol, naming the
    first such column of the first summand that has one.
    """
    _check_positive(r, "radius")
    _check_positive(tol, "tol")
    blocks = _retract(F.matrix.blocks, F.spec.summand_dims, r, tol)
    return Frame(AMatrix(F.spec, F.n, F.k, blocks))


def minimize(
    spec: AlgebraSpec, k: int, n: int, config: OptimizerConfig | None = None
) -> OptimizerTrace:
    """Descend the frame potential to a strict-spherical tight frame.

    The descent runs at unit scale, the radius r0 = n/k where b = 1, and the
    result is scaled once: F = sqrt(c) F0 with c = r / r0 for the requested
    radius r.  The potential is homogeneous, so F0 minimizes at r0 exactly
    when F does at r, F's potential is c^2 times F0's and its residual c
    times F0's; at the default radius c = 1 and the scaling is skipped.
    Step lengths, config.step_size among them, are thus those of the unit
    scale descent, whatever the radius.

    Each iteration takes a gradient step, retracts back to the spherical
    constraint, and halves the step (at most 60 times) until the potential
    decreases by more than roundoff: a candidate is accepted only when its
    excess (see _defects) is below (1 - 1e-10) times the current one.  The
    excess is a sum of squared defect entries, each a dot product accurate
    to a few ulps per term, so at a point that does not move, such as a
    stationary start whose steps the retraction undoes, repeated evaluations
    differ by far less than 1e-10 relative, while every accepted decrease in
    descents of five shapes from (1,) 5 x 3 to (3, 2) 24 x 16, over 18
    seeds, was at least 8e-4 relative.  The first trial step is the
    Barzilai-Borwein step <s, s> / <s, y> from the last two accepted
    iterates, in the real inner product Re sum_j vdot over summands; on the
    first iteration, and when <s, y> <= 0, it is twice the last accepted
    step, which starts at config.step_size.  The run stops once the
    tightness residual max_j ||S_j - b I||_2 of F is at most
    config.tight_tol * max(1, b), the threshold check_tight holds a tight
    frame to (F0's residual is held to that threshold divided by c), when
    no step length decreases the potential by more than roundoff, or when
    the iteration budget is exhausted.  The residual takes one SVD per
    summand, so it is computed only on the iterates the log keeps (see
    OptimizerTrace) and where the Frobenius floor from _defects does not
    already exceed the threshold; the frames and the log are those of a
    run that computes it on every accepted iterate.  The iterate, its
    gradient and the trial points are bare summand blocks; the output frame
    is the one validated AMatrix built.  Start columns whose Gram
    degenerates are re-randomized (at most 10 times in total) from the same
    seeded stream.  Raises ShapeError unless 1 <= n <= k, or when the radius
    makes b at most tight_tol or the potential overflow (see
    OptimizerConfig.radius_for).
    """
    _check_k_n(k, n)
    if config is None:
        config = OptimizerConfig()
    r0 = n / k
    c = config.radius_for(spec, k, n) / r0
    dims = spec.summand_dims
    rng = np.random.default_rng(config.seed)
    degen_tol = 1e-10
    rerandomizations = 0

    X = AMatrix.random(spec, n, k, rng)
    while True:
        try:
            x = retract_spherical(Frame(X), r0, degen_tol).matrix.blocks
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

    b_target = k * r0 / n
    # check_tight's tol * max(1, b) at radius r, held by the unit-scale residual
    threshold = _scaled_tol(config.tight_tol, c * b_target) / c
    # res_floor <= res holds in exact arithmetic; the margin keeps a floor
    # rounded up past the threshold from skipping a residual at it
    skip_above = threshold * (1.0 + 1e-12)
    # potential at the constraint is this constant plus the excess
    pot_floor = sum((k * r0) ** 2 * m / n for m in dims)
    excess, defects, _ = _defects(x, b_target)
    res = _residual(defects)
    log = [(0, pot_floor + excess, res)]
    step = config.step_size
    previous = None  # (iterate, gradient) at the last accepted iterate
    candidates = 0
    stalled = False

    it = 0  # accepted iterates
    # an overflowing candidate has a non-finite excess, which is never below
    # the current one, so it is rejected like any other non-decrease
    with np.errstate(over="ignore", invalid="ignore"):
        while res > threshold and it < config.max_iters:
            grad = _gradient(x)
            trial = step * 2.0
            if previous is not None:
                s = [a - b for a, b in zip(x, previous[0])]
                y = [a - b for a, b in zip(grad, previous[1])]
                sy = _real_inner(s, y)
                if sy > 0:
                    trial = _real_inner(s, s) / sy
            previous = (x, grad)
            accepted = None
            for _ in range(60):
                candidates += 1
                t = complex(trial)  # as AMatrix's trial * grad multiplies
                try:
                    cand = _retract(
                        [a - t * g for a, g in zip(x, grad)], dims, r0, degen_tol
                    )
                except DegenerateColumnError:
                    trial *= 0.5
                    continue
                cand_excess, cand_defects, cand_floor = _defects(cand, b_target)
                if cand_excess < excess * (1.0 - _ROUNDOFF_MARGIN):
                    accepted = (cand, cand_excess, cand_defects, cand_floor, trial)
                    break
                trial *= 0.5
            if accepted is None:
                # no decrease beyond roundoff at any step length
                stalled = True
                break
            x, excess, defects, res_floor, step = accepted
            it += 1
            logged = it % _LOG_STRIDE == 0
            if logged or res_floor <= skip_above:
                res = _residual(defects)
            else:
                res = np.inf  # res >= res_floor > threshold: go on
            if logged:
                log.append((it, pot_floor + excess, res))

    if res == np.inf:
        # the last iterate's residual was skipped
        res = _residual(defects)
    if log[-1][0] != it:
        log.append((it, pot_floor + excess, res))
    if res <= threshold:
        stop_reason = "converged"
    else:
        stop_reason = "stalled" if stalled else "max_iters"
    if c != 1.0:  # a complex product by 1.0 could flip the signs of zeros
        x = tuple(np.sqrt(c) * a for a in x)
    return OptimizerTrace(
        iterates=tuple((i, c * c * p, c * e) for i, p, e in log),
        frame=Frame(AMatrix(spec, n, k, x)),
        stop_reason=stop_reason,
        candidates=candidates,
        # every candidate but the accepted ones was followed by a halving
        backtracks=candidates - it,
        rerandomizations=rerandomizations,
    )
