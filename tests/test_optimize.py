import numpy as np
import pytest

from ncframes import optimize
from ncframes import (
    AlgebraSpec,
    AMatrix,
    Frame,
    OptimizerConfig,
    check_tight,
    frame_potential,
    gram_matrix,
    is_spherical,
    minimize,
    potential_gradient,
    random_tight_frame,
    retract_spherical,
)


class TestFramePotential:
    def test_orthonormal_basis(self, scalar_spec):
        F = Frame(AMatrix.identity(scalar_spec, 4))
        assert frame_potential(F) == pytest.approx(4.0)

    def test_mercedes_meets_lower_bound(self, mercedes):
        # Gram entries: 3 diagonal ones plus 6 off-diagonals of modulus 1/2
        assert frame_potential(mercedes) == pytest.approx(4.5, abs=1e-12)
        assert frame_potential(mercedes) == pytest.approx(3**2 / 2)  # k^2 / n

    def test_zero_frame(self, m2_spec):
        assert frame_potential(Frame(AMatrix.zeros(m2_spec, 2, 3))) == 0.0

    def test_matches_gram_frobenius(self, mixed_spec):
        rng = np.random.default_rng(0)
        F = Frame(AMatrix.random(mixed_spec, 2, 4, rng))
        expected = sum(
            float(np.sum(np.abs(blk) ** 2))
            for blk in gram_matrix(F).blocks
        )
        assert frame_potential(F) == pytest.approx(expected)

    def test_lower_bound_property(self):
        for dims in [(1,), (2,), (1, 1)]:
            spec = AlgebraSpec(dims)
            rng = np.random.default_rng(1)
            for _ in range(20):
                F = Frame(AMatrix.random(spec, 3, 5, rng))
                bound = sum(
                    float(np.trace(blk).real) ** 2 / (3 * m)
                    for m, blk in zip(dims, gram_matrix(F).blocks)
                )
                assert frame_potential(F) >= bound - 1e-9


class TestGradient:
    def test_zero_frame_zero_gradient(self, m2_spec):
        g = potential_gradient(Frame(AMatrix.zeros(m2_spec, 2, 3)))
        assert g.norm() == 0.0

    @pytest.mark.parametrize("dims", [(1,), (2,), (1, 1)])
    def test_finite_difference_agreement(self, dims):
        spec = AlgebraSpec(dims)
        rng = np.random.default_rng(2)
        h = 1e-5
        for _ in range(5):
            F = Frame(AMatrix.random(spec, 2, 3, rng))
            grad = potential_gradient(F).blocks
            for j, blk in enumerate(F.matrix.blocks):
                # central finite differences in a few random coordinates
                coords = [
                    (rng.integers(blk.shape[0]), rng.integers(blk.shape[1]))
                    for _ in range(4)
                ]
                for p, q in coords:
                    for direction in (1.0, 1.0j):
                        def perturbed(sign):
                            blocks = [
                                b.copy() for b in F.matrix.blocks
                            ]
                            blocks[j][p, q] += sign * h * direction
                            return frame_potential(
                                Frame(
                                    AMatrix(spec, 2, 3, tuple(blocks))
                                )
                            )

                        fd = (perturbed(+1) - perturbed(-1)) / (2 * h)
                        analytic = grad[j][p, q]
                        value = (
                            analytic.real if direction == 1.0 else analytic.imag
                        )
                        assert abs(fd - value) <= 1e-6 * max(1.0, abs(value))

    def test_projected_gradient_small_at_minimizer(self, scalar_spec):
        trace = minimize(
            scalar_spec, 4, 2, OptimizerConfig(seed=0, tight_tol=1e-12)
        )
        F = trace.frame
        grad = potential_gradient(F)
        # remove the radial (per-column normalization) component per column
        flats = [blk.copy() for blk in grad.blocks]
        fblk = F.matrix.blocks
        for m, g, x in zip(scalar_spec.summand_dims, flats, fblk):
            for i in range(F.k):
                col = x[:, i * m : (i + 1) * m]
                gcol = g[:, i * m : (i + 1) * m]
                # subtract projection onto the column's own direction
                coef = np.linalg.pinv(col.conj().T @ col) @ (col.conj().T @ gcol)
                g[:, i * m : (i + 1) * m] = gcol - col @ coef
        projected = max(np.linalg.norm(g, 2) for g in flats)
        assert projected <= 1e-6


class TestRetraction:
    def test_idempotent_on_spherical(self, mercedes):
        again = retract_spherical(mercedes, 1.0)
        assert (again.matrix - mercedes.matrix).norm() <= 1e-12

    def test_scalar_column_halved(self, scalar_spec):
        F = Frame(2.0 * AMatrix.identity(scalar_spec, 1))
        out = retract_spherical(F, 1.0)
        assert out.matrix.entry(0, 0).blocks[0][0, 0] == pytest.approx(1.0)

    def test_m2_output_strict_spherical(self, m2_spec):
        rng = np.random.default_rng(3)
        F = Frame(AMatrix.random(m2_spec, 3, 4, rng))
        out = retract_spherical(F, 0.7)
        rep = is_spherical(out, tol=1e-10)
        assert rep.is_spherical
        assert rep.radius == pytest.approx(0.7, abs=1e-10)
        # eigendecomposition oracle on one column
        g = gram_matrix(out).entry(1, 1).blocks[0]
        np.testing.assert_allclose(np.linalg.eigvalsh(g), [0.7, 0.7], atol=1e-10)


    def test_matches_per_column_reference(self):
        # reference: the per-column loop, one eigh per column block
        rng = np.random.default_rng(6)
        for dims in [(1,), (2,), (2, 1), (3, 2)]:
            spec = AlgebraSpec(dims)
            F = Frame(AMatrix.random(spec, 3, 4, rng))
            expected = []
            for m, x in zip(dims, F.matrix.blocks):
                y = x.copy()
                for i in range(F.k):
                    col = y[:, i * m : (i + 1) * m]
                    g = col.conj().T @ col
                    vals, vecs = np.linalg.eigh((g + g.conj().T) / 2)
                    w = (vecs * (vals / 0.6) ** -0.5) @ vecs.conj().T
                    y[:, i * m : (i + 1) * m] = col @ w
                expected.append(y)
            out = retract_spherical(F, 0.6)
            for a, b in zip(out.matrix.blocks, expected):
                np.testing.assert_array_equal(a, b)

    def test_degenerate_column_reports_first_index(self, mixed_spec):
        from ncframes import DegenerateColumnError

        rng = np.random.default_rng(4)
        M = AMatrix.random(mixed_spec, 2, 5, rng)
        blocks = [b.copy() for b in M.blocks]
        # summand 0 (m = 2): column 3 rank-deficient; summand 1: column 1 zero
        blocks[0][:, 7] = blocks[0][:, 6]
        blocks[1][:, 1] = 0.0
        with pytest.raises(DegenerateColumnError) as info:
            retract_spherical(Frame(AMatrix(mixed_spec, 2, 5, tuple(blocks))), 1.0)
        assert info.value.column == 3

    @pytest.mark.parametrize("r", [float("nan"), float("inf"), 0.0, -1.0])
    def test_rejects_bad_radius(self, mercedes, r):
        with pytest.raises(ValueError, match="radius"):
            retract_spherical(mercedes, r)


class TestRerandomization:
    @staticmethod
    def _patch(monkeypatch, failing, column):
        """Make the retraction raise DegenerateColumnError(column) on the
        calls numbered in failing (from 1); record every matrix it is given."""
        seen = []
        real = optimize.retract_spherical

        def retract(F, r, tol=1e-12):
            seen.append([blk.copy() for blk in F.matrix.blocks])
            if len(seen) in failing:
                raise optimize.DegenerateColumnError(column)
            return real(F, r, tol)

        monkeypatch.setattr(optimize, "retract_spherical", retract)
        return seen

    @pytest.mark.parametrize("dims", [(1,), (2,), (2, 1)])
    def test_redraws_reported_column_from_the_same_stream(self, monkeypatch, dims):
        spec = AlgebraSpec(dims)
        k, n, col = 5, 3, 2
        seen = self._patch(monkeypatch, {1}, col)
        trace = minimize(spec, k, n, OptimizerConfig(seed=3, max_iters=3))
        # reference: the start draw, then per summand one (n*m, m) column
        # block, real parts then imaginary parts, from the same generator
        rng = np.random.default_rng(3)
        start = AMatrix.random(spec, n, k, rng)
        expected = [blk.copy() for blk in start.blocks]
        for m, blk in zip(dims, expected):
            re = rng.standard_normal((n * m, m))
            im = rng.standard_normal((n * m, m))
            blk[:, col * m : (col + 1) * m] = (re + 1j * im) / np.sqrt(2.0)
        for first, start_blk, second, want in zip(seen[0], start.blocks, seen[1], expected):
            np.testing.assert_array_equal(first, start_blk)
            np.testing.assert_array_equal(second, want)
            assert not np.array_equal(second, first)
        assert trace.failure is None
        assert trace.iterations == 3

    def test_persistent_degenerate_columns(self, monkeypatch, mixed_spec):
        seen = self._patch(monkeypatch, range(1, 100), 0)
        trace = minimize(mixed_spec, 4, 2, OptimizerConfig(seed=0))
        assert len(seen) == 11  # the start point and 10 redraws
        assert trace.failure == "persistent degenerate columns"
        assert not trace.converged
        assert len(trace.iterates) == 1 and np.isnan(trace.final_residual)
        for blk, last in zip(trace.frame.matrix.blocks, seen[-1]):
            np.testing.assert_array_equal(blk, last)

    def test_persistent_degenerate_columns_stop_reason(self, monkeypatch, mixed_spec):
        self._patch(monkeypatch, range(1, 100), 0)
        trace = minimize(mixed_spec, 4, 2, OptimizerConfig(seed=0))
        assert trace.stop_reason == "degenerate"
        assert trace.rerandomizations == 10
        assert (trace.candidates, trace.backtracks) == (0, 0)

    def test_redraw_counted(self, monkeypatch, mixed_spec):
        self._patch(monkeypatch, {1, 2}, 1)
        trace = minimize(mixed_spec, 4, 2, OptimizerConfig(seed=0))
        assert trace.rerandomizations == 2
        assert trace.stop_reason == "converged"


class TestConfig:
    @pytest.mark.parametrize(
        "field,value",
        [
            ("step_size", float("nan")),
            ("step_size", float("inf")),
            ("step_size", 0.0),
            ("tight_tol", float("nan")),
            ("tight_tol", float("inf")),
            ("tight_tol", -1e-8),
            ("radius", float("nan")),
            ("radius", float("inf")),
            ("radius", 0.0),
            ("max_iters", 0),
        ],
    )
    def test_rejects_non_finite_or_non_positive(self, field, value):
        with pytest.raises(ValueError):
            OptimizerConfig(**{field: value})


class TestMinimize:
    @pytest.mark.parametrize("k,n", [(0, 0), (3, 0), (2, 3)])
    def test_rejects_shapes_outside_one_to_k(self, k, n):
        with pytest.raises(ValueError, match="^need 1 <= n <= k"):
            minimize(AlgebraSpec((1,)), k, n)

    def test_scalar_case_reaches_bound(self, scalar_spec):
        trace = minimize(scalar_spec, 3, 2, OptimizerConfig(seed=1, tight_tol=1e-10))
        assert trace.converged
        rep = check_tight(trace.frame)
        assert rep.is_tight
        assert rep.b == pytest.approx(1.0, abs=1e-6)  # b = k r / n with r = n/k
        bound = 3**2 * (2 / 3) ** 2 / 2  # k^2 r^2 / n, one scalar summand
        assert trace.final_potential == pytest.approx(bound, abs=1e-6)

    def test_square_case_gives_scaled_unitary(self, scalar_spec):
        from ncframes import is_unitary

        trace = minimize(scalar_spec, 3, 3, OptimizerConfig(seed=2))
        assert trace.converged
        assert is_unitary(trace.frame.matrix, 1e-5)

    def test_deterministic(self, m2_spec):
        t1 = minimize(m2_spec, 4, 2, OptimizerConfig(seed=7))
        t2 = minimize(m2_spec, 4, 2, OptimizerConfig(seed=7))
        assert t1.iterates == t2.iterates
        for a, b in zip(t1.frame.matrix.blocks, t2.frame.matrix.blocks):
            np.testing.assert_array_equal(a, b)

    def test_monotone_potential(self, mixed_spec):
        config = OptimizerConfig(seed=4)
        trace = minimize(mixed_spec, 5, 3, config)
        # the log keeps a few iterates; the reference keeps every one
        iterates, F, _, _ = _minimize_per_candidate_residual(mixed_spec, 5, 3, config)
        assert trace.iterates == _log_positions(iterates)
        assert len(trace.iterates) > 3  # some middle entries
        for a, b in zip(trace.frame.matrix.blocks, F.matrix.blocks):
            assert a.tobytes() == b.tobytes()
        pots = [p for _, p, _ in iterates]
        assert all(b <= a for a, b in zip(pots, pots[1:]))

    def test_spherical_radius_b_relation(self, m2_spec):
        r = 0.8
        trace = minimize(
            m2_spec, 5, 3, OptimizerConfig(seed=5, radius=r, tight_tol=1e-9)
        )
        assert trace.converged
        rep = check_tight(trace.frame)
        assert rep.b == pytest.approx(5 * r / 3, abs=1e-8)
        assert is_spherical(trace.frame, tol=1e-8).is_spherical

    def test_output_feeds_decomposition(self, scalar_spec):
        from ncframes import divisibility_check, ortho_decompose

        trace = minimize(scalar_spec, 6, 4, OptimizerConfig(seed=6))
        sigma = ortho_decompose(trace.frame)
        admissible = divisibility_check(sigma, 6, 4).all_divisible
        assert admissible


class TestStopReason:
    @pytest.mark.parametrize("dims", [(1,), (2,), (2, 1)])
    def test_stationary_start_stalls(self, monkeypatch, dims):
        # columns 1_A e_0, 1_A e_0, 1_A e_1 at radius 1: S = diag(2, 1) is
        # not tight, yet each column is an eigenvector of S, so the gradient
        # 4 S X is radial and the retraction undoes every step
        spec = AlgebraSpec(dims)
        one, zero = AMatrix.identity(spec, 1), AMatrix.zeros(spec, 1, 1)
        start = AMatrix.from_entries([[one, one, zero], [zero, zero, one]])
        monkeypatch.setattr(
            AMatrix, "random", classmethod(lambda cls, spec, rows, cols, rng: start)
        )
        trace = minimize(spec, 3, 2, OptimizerConfig(radius=1.0))
        assert trace.stop_reason == "stalled"
        assert not trace.converged and trace.failure is None
        # the last line search tried and halved all 60 of its candidates
        accepted = trace.iterations
        assert trace.backtracks >= 60
        assert trace.candidates == trace.backtracks + accepted
        assert trace.final_residual == pytest.approx(0.5, abs=1e-12)


class TestStopThreshold:
    @pytest.mark.parametrize("dims,k,n", [((1,), 3, 2), ((2,), 4, 2)])
    def test_converged_outputs_are_tight_at_every_radius(self, dims, k, n):
        # the stop threshold is check_tight's tol * max(1, b), b = k r / n; the
        # descent runs at b = 1 and is scaled once, so huge radii converge too
        spec = AlgebraSpec(dims)
        for radius in [1e-6, 1e-3, 1.0, 1e3, 1e6, 1e9, 1e12, 1e20, 1e50, 1e100]:
            for seed in range(3):
                config = OptimizerConfig(seed=seed, radius=radius)
                trace = minimize(spec, k, n, config)
                if radius >= 1e9:
                    assert trace.converged, (radius, seed)
                if trace.converged:
                    rep = check_tight(trace.frame, config.tight_tol)
                    assert rep.is_tight, (radius, seed)
                    assert rep.b == pytest.approx(k * radius / n, rel=1e-9)


def _minimize_per_candidate_residual(spec, k, n, config):
    """The descent loop with one spectral-norm residual per backtracking
    candidate, each line search started at the Barzilai-Borwein step.
    Kept as the reference for bit-identical iterates and frames; returns
    every iterate, the final frame, the number of candidates tried, and per
    iterate the Frobenius floor max_j ||S_j - b I||_F / sqrt(n m_j).
    """
    r = config.radius if config.radius is not None else n / k
    rng = np.random.default_rng(config.seed)
    rerandomizations = 0

    def stats(F, b):
        excess, res, floor = 0.0, 0.0, 0.0
        for x in F.matrix.blocks:
            s = x @ x.conj().T
            d = s - b * np.eye(s.shape[0])
            frob2 = float(np.sum(np.abs(d) ** 2))
            excess += frob2
            res = max(res, float(np.linalg.norm(d, 2)))
            floor = max(floor, float(np.sqrt(frob2 / s.shape[0])))
        return excess, res, floor

    X = AMatrix.random(spec, n, k, rng)
    while True:
        try:
            F = retract_spherical(Frame(X), r, 1e-10)
            break
        except optimize.DegenerateColumnError as exc:
            rerandomizations += 1
            assert rerandomizations <= 10
            for m, x in zip(spec.summand_dims, X.blocks):
                re = rng.standard_normal((n * m, m))
                im = rng.standard_normal((n * m, m))
                x[:, exc.column * m : (exc.column + 1) * m] = (re + 1j * im) / np.sqrt(2.0)
    b = k * r / n
    threshold = config.tight_tol * max(1.0, b)
    pot_floor = sum((k * r) ** 2 * m / n for m in spec.summand_dims)
    excess, res, floor = stats(F, b)
    iterates = [(0, pot_floor + excess, res)]
    floors = [floor]
    step = config.step_size
    last = None  # blocks of the previous accepted iterate and its gradient
    candidates = 0
    it = 0
    while res > threshold and it < config.max_iters:
        it += 1
        grad = potential_gradient(F)
        trial = step * 2.0
        if last is not None:
            ss = sy = 0.0
            for x, x0, g, g0 in zip(F.matrix.blocks, last[0], grad.blocks, last[1]):
                dx, dg = x - x0, g - g0
                ss += float(np.vdot(dx, dx).real)
                sy += float(np.vdot(dx, dg).real)
            if sy > 0:
                trial = ss / sy
        last = (F.matrix.blocks, grad.blocks)
        accepted = None
        for _ in range(60):
            candidates += 1
            try:
                cand = retract_spherical(Frame(F.matrix - trial * grad), r, 1e-10)
            except optimize.DegenerateColumnError:
                trial *= 0.5
                continue
            cand_excess, cand_res, cand_floor = stats(cand, b)
            if cand_excess < excess:
                accepted = (cand, cand_excess, cand_res, cand_floor, trial)
                break
            trial *= 0.5
        if accepted is None:
            break
        F, excess, res, floor, step = accepted
        iterates.append((it, pot_floor + excess, res))
        floors.append(floor)
    return tuple(iterates), F, candidates, floors


def _log_positions(iterates):
    """The entries of a full iterate path that minimize's log keeps: the
    start, every _LOG_STRIDE-th iterate and the last one."""
    log = [entry for entry in iterates if entry[0] % optimize._LOG_STRIDE == 0]
    if log[-1] != iterates[-1]:
        log.append(iterates[-1])
    return tuple(log)


def _predicted_residuals(floors, threshold, stride):
    """How many tightness residuals minimize computes along a path with
    these Frobenius floors: the start, each logged iterate, each iterate
    whose floor does not already exceed the threshold, and the last."""
    last = len(floors) - 1
    taken = {0, last}
    taken.update(i for i in range(1, last) if i % stride == 0 or floors[i] <= threshold * (1 + 1e-12))
    return len(taken)


DESCENT_SHAPES = [((1,), 5, 3), ((2,), 6, 4), ((2,), 8, 6), ((2, 1), 12, 8), ((3, 2), 24, 16)]


class TestAcceptedResidual:
    @pytest.mark.parametrize("dims,k,n", DESCENT_SHAPES)
    def test_matches_per_candidate_reference(self, dims, k, n):
        spec = AlgebraSpec(dims)
        for seed in range(4):
            config = OptimizerConfig(seed=seed, tight_tol=1e-8)
            trace = minimize(spec, k, n, config)
            iterates, F, _, _ = _minimize_per_candidate_residual(spec, k, n, config)
            assert trace.iterates == _log_positions(iterates)
            assert trace.iterations == iterates[-1][0]
            for a, b in zip(trace.frame.matrix.blocks, F.matrix.blocks):
                assert a.tobytes() == b.tobytes()
            pots = [p for _, p, _ in iterates]
            assert all(b <= a for a, b in zip(pots, pots[1:]))

    @staticmethod
    def _count_svds(monkeypatch):
        calls = []
        real = optimize._spectral_norm

        def counting(a):
            calls.append(a.shape)
            return real(a)

        monkeypatch.setattr(optimize, "_spectral_norm", counting)
        return calls

    @pytest.mark.parametrize(
        "dims,k,n,seed,max_iters",
        [
            ((1,), 5, 3, 1, 20000),
            ((2,), 6, 4, 1, 20000),  # 61 iterations: one middle log entry
            ((2, 1), 12, 8, 1, 20000),
            ((2, 1), 5, 3, 4, 20000),  # 116 iterations: two middle log entries
            ((2,), 6, 4, 14, 7),  # ends by max_iters on a skipped iterate
        ],
    )
    def test_svds_only_where_logged_or_near_the_threshold(
        self, monkeypatch, dims, k, n, seed, max_iters
    ):
        spec = AlgebraSpec(dims)
        config = OptimizerConfig(seed=seed, tight_tol=1e-8, max_iters=max_iters)
        iterates, _, _, floors = _minimize_per_candidate_residual(spec, k, n, config)
        calls = self._count_svds(monkeypatch)
        trace = minimize(spec, k, n, config)
        assert trace.iterations == len(floors) - 1
        predicted = _predicted_residuals(floors, config.tight_tol, optimize._LOG_STRIDE)
        assert predicted < len(iterates)
        assert len(calls) == predicted * spec.num_summands
        assert trace.final_residual == iterates[-1][2]

    @pytest.mark.parametrize("rel", [1 + 1e-13, 1 - 1e-13])
    def test_svd_at_a_floor_on_the_threshold(self, monkeypatch, rel):
        # tight_tol on one iterate's floor, to within 1e-13: the 1e-12
        # margin makes that iterate take its residual either way
        spec = AlgebraSpec((2,))
        _, _, _, floors = _minimize_per_candidate_residual(
            spec, 6, 4, OptimizerConfig(seed=1, tight_tol=1e-8)
        )
        edge = 23
        assert floors[edge] < floors[edge - 1] and edge % optimize._LOG_STRIDE
        config = OptimizerConfig(seed=1, tight_tol=floors[edge] * rel)
        iterates, _, _, floors = _minimize_per_candidate_residual(spec, 6, 4, config)
        assert len(iterates) > edge + 1
        calls = self._count_svds(monkeypatch)
        minimize(spec, 6, 4, config)
        predicted = _predicted_residuals(floors, config.tight_tol, optimize._LOG_STRIDE)
        assert len(calls) == predicted * spec.num_summands
        # the edge iterate is the first past the start whose floor is taken
        assert all(f > config.tight_tol * (1 + 1e-12) for f in floors[1:edge])


class TestStepRule:
    @pytest.mark.parametrize("dims,k,n", DESCENT_SHAPES)
    def test_candidates_match_reference(self, dims, k, n):
        spec = AlgebraSpec(dims)
        for seed in range(2):
            config = OptimizerConfig(seed=seed, tight_tol=1e-8)
            trace = minimize(spec, k, n, config)
            _, _, candidates, _ = _minimize_per_candidate_residual(spec, k, n, config)
            assert trace.candidates == candidates
            assert trace.backtracks == candidates - trace.iterations

    def test_few_rejected_candidates(self):
        # a line search that starts at a well-scaled step rarely backtracks:
        # about 1.2 candidates per iteration here, against 2.0 when every
        # search starts at twice the last accepted step
        candidates = iterations = 0
        for dims, k, n in DESCENT_SHAPES:
            spec = AlgebraSpec(dims)
            for seed in range(4):
                trace = minimize(spec, k, n, OptimizerConfig(seed=seed, tight_tol=1e-8))
                assert trace.converged
                candidates += trace.candidates
                iterations += trace.iterates[-1][0]
        assert candidates <= 1.5 * iterations


@pytest.mark.parametrize("dims", [(1,), (2,), (2, 1)])
@pytest.mark.parametrize("radius", [1.0, None])
def test_stationary_start_accepts_no_roundoff_step(monkeypatch, dims, radius):
    # from 1_A e_0, 1_A e_0, 1_A e_1 every step is undone by the retraction,
    # so candidates differ from the start by a few ulps at most; none of
    # them may pass for a decrease
    spec = AlgebraSpec(dims)
    one, zero = AMatrix.identity(spec, 1), AMatrix.zeros(spec, 1, 1)
    start = AMatrix.from_entries([[one, one, zero], [zero, zero, one]])
    monkeypatch.setattr(AMatrix, "random", classmethod(lambda cls, spec, rows, cols, rng: start))
    trace = minimize(spec, 3, 2, OptimizerConfig(radius=radius))
    assert trace.stop_reason == "stalled"
    assert trace.iterations == 0
    assert trace.candidates == trace.backtracks == 60
