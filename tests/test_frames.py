import math

import numpy as np
import pytest

from ncframes import (
    AlgebraSpec,
    AMatrix,
    Frame,
    NotTightError,
    canonical_coisometry,
    canonical_frame,
    check_tight,
    commutation_residual,
    factorize,
    frame_operator,
    gram_matrix,
    is_partial_isometry,
    is_spherical,
    is_unitary,
    random_tight_frame,
    random_unitary,
    range_constant,
    scalar_definition_check,
)
from conftest import scalar_frame


class TestFrameOperator:
    def test_canonical_coisometry(self, mixed_spec):
        F = Frame(canonical_coisometry(mixed_spec, 4, 2))
        assert frame_operator(F).allclose(AMatrix.identity(mixed_spec, 2), tol=1e-14)

    def test_repeated_basis_vector(self):
        F = scalar_frame([[1], [1]])  # e1 twice in C^1
        S = frame_operator(F)
        assert S.entry(0, 0).blocks[0][0, 0] == pytest.approx(2.0)

    def test_self_adjoint_positive(self, m2_spec):
        rng = np.random.default_rng(0)
        F = Frame(AMatrix.random(m2_spec, 2, 4, rng))
        S = frame_operator(F)
        assert S.H.allclose(S, tol=1e-12)
        # eigenvalue oracle on the flat view
        for blk in S.blocks:
            assert np.linalg.eigvalsh(blk).min() >= -1e-10


class TestCheckTight:
    def test_canonical_frames_are_tight(self, mixed_spec):
        rng = np.random.default_rng(1)
        for b in (0.5, 1.0, 2.0):
            U = random_unitary(mixed_spec, 5, rng)
            F = canonical_frame(mixed_spec, 5, 3, b, U)
            report = check_tight(F)
            assert report.is_tight
            assert abs(report.b - b) <= 1e-10 * b

    def test_mercedes_constant(self, mercedes):
        # oracle: FF* of three unit vectors at 120-degree spacing is (3/2) I
        report = check_tight(mercedes)
        assert report.is_tight
        assert report.b == pytest.approx(1.5, abs=1e-12)

    def test_non_tight_detected(self):
        F = scalar_frame([[1, 0], [0, 1], [1, 0]])  # S = diag(2, 1)
        report = check_tight(F)
        assert not report.is_tight

    def test_per_summand_disagreement_is_not_tight(self):
        spec = AlgebraSpec((1, 1))
        # identity columns scaled differently per summand
        e1 = AMatrix(
            spec, 1, 1, (np.array([[1.0]], dtype=complex), np.array([[2.0]], dtype=complex))
        )
        F = Frame(AMatrix.from_entries([[e1]]))
        report = check_tight(F)
        assert not report.is_tight
        assert report.per_summand_b == (1.0, 4.0)


class TestScalarDefinitionCheck:
    def test_scalar_tight_frame_equality(self, scalar_spec):
        F = random_tight_frame(scalar_spec, 5, 3, b=1.5, seed=2)
        rep = scalar_definition_check(F, 1.5, num_samples=2000, seed=0)
        assert rep.max_equality_deviation <= 1e-9
        assert rep.inequality_violations == 0

    def test_canonical_basis_vector_zero_deviation(self, scalar_spec):
        F = Frame(canonical_coisometry(scalar_spec, 4, 2))
        rep = scalar_definition_check(F, 1.0, num_samples=500, seed=1)
        assert rep.inequality_violations == 0

    def test_matrix_block_strict_inequality_witness(self, m2_spec):
        # frame [E11, E22] in A^1 over M2: FF* = I, but for v = 1_A the
        # pairings have disjoint supports, so the scalar sum strictly
        # dominates: 1 + 1 > 1.
        e11 = np.zeros((2, 2), dtype=complex)
        e11[0, 0] = 1
        e22 = np.zeros((2, 2), dtype=complex)
        e22[1, 1] = 1
        F = Frame(
            AMatrix.from_entries(
                [[AMatrix(m2_spec, 1, 1, (e11,)), AMatrix(m2_spec, 1, 1, (e22,))]]
            )
        )
        report = check_tight(F)
        assert report.is_tight and report.b == pytest.approx(1.0)
        from ncframes import inner_product

        v = AMatrix.identity(m2_spec, 1)
        total = sum(
            inner_product(v, F.matrix.column(i)).norm() ** 2 for i in range(2)
        )
        delta = total - report.b * inner_product(v, v).norm()
        assert delta == pytest.approx(1.0)
        rep = scalar_definition_check(F, report.b, num_samples=2000, seed=3)
        assert rep.inequality_violations == 0
        assert rep.max_equality_deviation > 0.1


    @pytest.mark.parametrize("dims", [(1,), (2,), (2, 1), (3, 1, 2)])
    def test_samples_match_per_vector_reference(self, dims):
        # reference: the same seeded draws, per summand (samples, n*m, m)
        # real then imaginary parts, paired one vector at a time
        from ncframes import inner_product

        spec = AlgebraSpec(dims)
        F = Frame(AMatrix.random(spec, 2, 3, np.random.default_rng(0)))
        rng = np.random.default_rng(4)
        draws = []
        for m in dims:
            re = rng.standard_normal((40, 2 * m, m))
            im = rng.standard_normal((40, 2 * m, m))
            draws.append((re + 1j * im) / np.sqrt(2.0))
        sums, selfs = [], []
        for s in range(40):
            v = AMatrix(spec, 2, 1, tuple(d[s] for d in draws))
            sums.append(sum(inner_product(v, F.column(i)).norm() ** 2 for i in range(3)))
            selfs.append(inner_product(v, v).norm())
        b = float(np.median(np.array(sums) / np.array(selfs)))  # both signs occur
        deltas = [t - b * u for t, u in zip(sums, selfs)]
        rep = scalar_definition_check(F, b, num_samples=40, seed=4)
        assert rep.max_equality_deviation == pytest.approx(
            max(abs(d) for d in deltas), rel=1e-12
        )
        assert rep.inequality_violations == sum(d < -1e-9 for d in deltas)
        assert 0 < rep.inequality_violations < 40


class TestIsSpherical:
    def test_canonical_coisometry_not_spherical(self, scalar_spec):
        F = Frame(canonical_coisometry(scalar_spec, 4, 2))
        assert not is_spherical(F, mode="strict").is_spherical
        assert not is_spherical(F, mode="equal_norm").is_spherical

    def test_mercedes_strict(self, mercedes):
        rep = is_spherical(mercedes, mode="strict")
        assert rep.is_spherical
        assert rep.radius == pytest.approx(1.0, abs=1e-12)

    def test_generic_canonical_frame_not_spherical(self, m2_spec):
        F = random_tight_frame(m2_spec, 5, 2, b=1.0, seed=4)
        rep = is_spherical(F)
        assert rep.deviation > 1e-3  # generic columns have unequal lengths

    def test_matches_per_column_reference(self):
        # reference: the pairings <f_i, f_i> = sum_p (F_pi)* F_pi per column,
        # summed in plain numpy over the (m, m) entries of each summand
        rng = np.random.default_rng(5)
        for dims in [(1,), (2,), (2, 1), (3, 1, 2)]:
            spec = AlgebraSpec(dims)
            F = Frame(AMatrix.random(spec, 3, 5, rng))
            diag = [
                [sum(g[p, i].conj().T @ g[p, i] for p in range(F.n)) for g in F.matrix.grids]
                for i in range(F.k)
            ]
            r = float(np.mean([sum(np.trace(b).real for b in d) / sum(dims) for d in diag]))
            dev = max(
                float(np.linalg.norm(b - r * np.eye(b.shape[0]), 2))
                for d in diag
                for b in d
            )
            rep = is_spherical(F, mode="strict")
            assert rep.radius == pytest.approx(r, rel=1e-14)
            assert rep.deviation == pytest.approx(dev, rel=1e-12)
            norms = [max(np.linalg.norm(b, 2) for b in d) for d in diag]
            rn = float(np.mean(norms))
            rep = is_spherical(F, mode="equal_norm")
            assert rep.radius == pytest.approx(rn, rel=1e-14)
            assert rep.deviation == pytest.approx(
                max(abs(x - rn) for x in norms), rel=1e-12, abs=1e-15
            )


class TestCanonicalForm:
    def test_w_matrix_values(self, scalar_spec):
        W = canonical_coisometry(scalar_spec, 3, 2)
        np.testing.assert_array_equal(
            W.blocks[0], np.array([[1, 0, 0], [0, 1, 0]], dtype=complex)
        )
        Wn = canonical_coisometry(scalar_spec, 3, 3)
        assert Wn.allclose(AMatrix.identity(scalar_spec, 3), tol=0.0)
        assert (W @ W.H).allclose(AMatrix.identity(scalar_spec, 2), tol=0.0)

    def test_w_matrix_requires_wide(self, scalar_spec):
        from ncframes import ShapeError

        with pytest.raises(ShapeError):
            canonical_coisometry(scalar_spec, 2, 3)

    def test_identity_unitary(self, m2_spec):
        F = canonical_frame(m2_spec, 4, 2, 2.0, AMatrix.identity(m2_spec, 4))
        expected = np.sqrt(2.0) * canonical_coisometry(m2_spec, 4, 2)
        assert F.matrix.allclose(expected, tol=1e-14)

    def test_rejects_non_unitary(self, m2_spec):
        with pytest.raises(ValueError):
            canonical_frame(m2_spec, 4, 2, 1.0, 2.0 * AMatrix.identity(m2_spec, 4))

    @pytest.mark.parametrize(
        "dims,k,n", [((1,), 5, 3), ((2,), 4, 2), ((2, 1), 6, 4), ((3, 2), 5, 5), ((1, 1), 7, 1), ((3,), 3, 2)]
    )
    @pytest.mark.parametrize("b", [1.0, 2.0, 0.37])
    def test_rows_of_u_equal_the_product_bit_for_bit(self, dims, k, n, b):
        # the frame is U's first n rows, each entry of the product [I_n | 0] U
        # is one of them plus exact zeros, and a Haar U has no zero entry
        spec = AlgebraSpec(dims)
        W = canonical_coisometry(spec, k, n)
        for seed in range(4):
            U = random_unitary(spec, k, np.random.default_rng(seed))
            product = np.sqrt(b) * (W @ U)
            F = canonical_frame(spec, k, n, b, U)
            assert [x.tobytes() for x in F.matrix.blocks] == [x.tobytes() for x in product.blocks]
            result = factorize(F)
            W_U = np.sqrt(result.b) * (W @ result.unitary)
            assert result.reconstruction_residual == (F.matrix - W_U).norm()

    def test_frame_needs_k_at_least_n(self, scalar_spec):
        from ncframes import ShapeError

        with pytest.raises(ShapeError, match=r"^need 1 <= n <= k, got k=2, n=3$"):
            canonical_frame(scalar_spec, 2, 3, 1.0, AMatrix.identity(scalar_spec, 2))

    def test_square_case_orthonormal_basis(self, scalar_spec):
        F = canonical_frame(scalar_spec, 3, 3, 1.0, AMatrix.identity(scalar_spec, 3))
        assert frame_operator(F).allclose(AMatrix.identity(scalar_spec, 3), tol=0.0)


class TestFactorize:
    def test_scaled_coisometry(self, scalar_spec):
        F = Frame(np.sqrt(2.0) * canonical_coisometry(scalar_spec, 3, 2))
        result = factorize(F)
        assert result.b == pytest.approx(2.0)
        assert result.unitary.allclose(AMatrix.identity(scalar_spec, 3), tol=1e-12)

    def test_round_trip(self, mixed_spec):
        rng = np.random.default_rng(5)
        for seed in range(10):
            U0 = random_unitary(mixed_spec, 4, rng)
            F = canonical_frame(mixed_spec, 4, 2, 1.5, U0)
            result = factorize(F)
            assert is_unitary(result.unitary, 1e-10)
            assert result.reconstruction_residual <= 1e-8

    def test_mercedes(self, mercedes):
        result = factorize(mercedes)
        assert result.b == pytest.approx(1.5, abs=1e-12)
        assert is_unitary(result.unitary, 1e-10)
        assert result.reconstruction_residual < 1e-10

    def test_not_tight_raises_with_residual(self):
        F = scalar_frame([[1, 0], [0, 1], [1, 0]])
        with pytest.raises(NotTightError) as err:
            factorize(F)
        assert err.value.residual > 0.1

    def test_tightness_iff_partial_isometry(self, m2_spec):
        rng = np.random.default_rng(6)
        for seed in range(5):
            F = random_tight_frame(m2_spec, 5, 3, b=2.0, seed=seed)
            report = check_tight(F)
            G = (1.0 / np.sqrt(report.b)) * F.matrix
            assert is_partial_isometry(G, 1e-9)
        loose = Frame(AMatrix.random(m2_spec, 3, 5, rng))
        report = check_tight(loose)
        assert not report.is_tight
        G = (1.0 / np.sqrt(report.b)) * loose.matrix
        assert not is_partial_isometry(G, 1e-9)


class TestRandomTightFrame:
    def test_always_tight(self, mixed_spec):
        for seed in range(10):
            F = random_tight_frame(mixed_spec, 6, 4, b=0.5, seed=seed)
            assert check_tight(F).is_tight

    def test_deterministic(self, m2_spec):
        F1 = random_tight_frame(m2_spec, 4, 2, seed=9)
        F2 = random_tight_frame(m2_spec, 4, 2, seed=9)
        for a, b in zip(F1.matrix.blocks, F2.matrix.blocks):
            np.testing.assert_array_equal(a, b)

    def test_square_gives_scaled_unitary(self, scalar_spec):
        F = random_tight_frame(scalar_spec, 3, 3, b=4.0, seed=0)
        assert is_unitary(0.5 * F.matrix, 1e-10)


class TestUnitaryInvariance:
    def test_left_right_unitary_invariance(self, m2_spec):
        rng = np.random.default_rng(7)
        F = random_tight_frame(m2_spec, 5, 3, b=1.0, seed=11)
        U = random_unitary(m2_spec, 5, rng)
        V = random_unitary(m2_spec, 3, rng)
        before = check_tight(F)
        after = check_tight(Frame(V @ F.matrix @ U))
        assert abs(after.b - before.b) <= 1e-10
        assert abs(after.residual - before.residual) <= 1e-10


def test_mercedes_gram_offdiagonals(mercedes):
    # |<f_i, f_j>| = 1/2 for distinct unit vectors at 120 degrees
    G = gram_matrix(mercedes)
    for i in range(3):
        for j in range(3):
            expected = 1.0 if i == j else 0.5
            assert abs(G.entry(i, j).blocks[0][0, 0]) == pytest.approx(expected)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), 0.0, -1.0])
def test_check_tight_rejects_bad_tol(mixed_spec, bad):
    F = random_tight_frame(mixed_spec, 3, 2, seed=0)
    with pytest.raises(ValueError, match="tol"):
        check_tight(F, bad)


@pytest.mark.parametrize("mode", ["strict", "equal_norm"])
@pytest.mark.parametrize("bad", [float("nan"), float("inf"), 0.0, -1.0])
def test_is_spherical_rejects_bad_tol(mixed_spec, bad, mode):
    # a spherical frame, so a silent False could only come from the tol
    F = random_tight_frame(mixed_spec, 3, 3, seed=0)
    assert is_spherical(F, 1e-9, mode).is_spherical
    with pytest.raises(ValueError, match="tol"):
        is_spherical(F, bad, mode)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), 0.0, -1.0])
def test_random_tight_frame_rejects_bad_constant(mixed_spec, bad):
    with pytest.raises(ValueError, match="frame constant"):
        random_tight_frame(mixed_spec, 3, 2, b=bad)


# The benchmark's frame shapes: (algebra, k, n).  Bulk: gen and the commands
# after it; split: the specs of the exhaustive split pass with its random
# shapes and its direct-sum parts; descent: minimize's shapes.
BULK_SHAPES = [((2,), 48, 24), ((1,), 128, 64), ((2, 1), 48, 24), ((3, 2), 48, 24)]
SPLIT_SHAPES = [
    (dims, k, n)
    for dims in [(1,), (2,), (1, 1), (2, 1)]
    for k, n in [(4, 2), (5, 3), (6, 4), (7, 4), (8, 5), (2, 1), (3, 2), (4, 3), (3, 1)]
]
DESCENT_SHAPES = [((1,), 5, 3), ((2,), 6, 4), ((2,), 8, 6), ((2, 1), 12, 8), ((3, 2), 24, 16)]


@pytest.mark.parametrize("dims,k,n", BULK_SHAPES + SPLIT_SHAPES + DESCENT_SHAPES)
def test_random_tight_frame_is_the_checked_normal_form(dims, k, n):
    # random_tight_frame skips canonical_frame's is_unitary, since its QR
    # factor is unitary by construction; this holds that factor to 1e-12
    # and the frame to canonical_frame's on the same U, bit for bit
    spec = AlgebraSpec(dims)
    for seed in range(10):
        U = random_unitary(spec, k, np.random.default_rng(seed))
        assert is_unitary(U, 1e-12)
        for b in (1.0, 2.0):
            F = random_tight_frame(spec, k, n, b, seed)
            checked = canonical_frame(spec, k, n, b, U)
            assert [x.tobytes() for x in F.matrix.blocks] == [
                x.tobytes() for x in checked.matrix.blocks
            ]


def _with_entry(M, value, summand=0):
    """A copy of M whose first number in the given summand block is value."""
    blocks = [x.copy() for x in M.blocks]
    blocks[summand][0, 0] = value
    return AMatrix(M.spec, M.rows, M.cols, tuple(blocks))


@pytest.mark.parametrize("dims", [(1,), (2,), (1, 1)])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_non_finite_entries_get_a_false_verdict(dims, value):
    # LAPACK refuses a NaN entry and gives NaN singular values for an
    # infinite one; either way the measured value is NaN and every verdict
    # fails, with no LinAlgError.  The arithmetic on an infinite entry
    # (inf - inf, inf * 0) runs under np.errstate, so these calls raise no
    # RuntimeWarning under the suite's warnings-as-errors either
    spec = AlgebraSpec(dims)
    last = spec.num_summands - 1  # over C + C the entry sits in the second summand
    F = random_tight_frame(spec, 3, 3, 1.0, 1)  # tight, spherical, unitary
    M = _with_entry(F.matrix, value, last)
    bad = Frame(M)
    with np.errstate(invalid="ignore"):  # building this input is numpy arithmetic
        gram = M @ M.H
    report = check_tight(bad)
    spherical = [is_spherical(bad, mode=mode) for mode in ("strict", "equal_norm")]
    positive = gram.is_positive(), _with_entry(F.matrix @ F.matrix.H, value, last).is_positive()
    assert (report.is_tight, math.isnan(report.residual)) == (False, True)
    assert [(s.is_spherical, math.isnan(s.deviation)) for s in spherical] == [(False, True)] * 2
    assert positive == (False, False)
    assert (is_partial_isometry(M), is_unitary(M)) == (False, False)
    # an element of A with the entry: neither positive, a partial isometry
    # nor unitary
    E = _with_entry(AMatrix.identity(spec, 1), value, last)
    assert (E.is_positive(), is_partial_isometry(E), is_unitary(E)) == (False, False, False)
    # analyze's per-block measures have no tightness gate, so they meet such
    # a frame too; the entry sits in the first column of I, whose
    # complement is not empty
    G = Frame(_with_entry(random_tight_frame(spec, 4, 2, 1.0, 1).matrix, value, last))
    measures = commutation_residual(G, (1, 2)), range_constant(G, (1, 2))
    assert [math.isnan(x) for x in measures] == [True, True]
    # the same calls on F itself hold
    assert check_tight(F).is_tight and is_spherical(F).is_spherical
    assert (F.matrix @ F.matrix.H).is_positive() and is_partial_isometry(F.matrix)
    assert is_unitary(F.matrix) and AMatrix.identity(spec, 1).is_positive()


def test_a_non_finite_summand_is_not_outvoted_by_a_finite_one():
    # the norm of a matrix over C + C is the larger summand norm; a NaN in
    # the second summand must not lose to the first summand's number
    spec = AlgebraSpec((1, 1))
    U = random_unitary(spec, 3, np.random.default_rng(0))
    M = _with_entry(U, np.nan, summand=1)
    assert math.isnan(M.norm())
    assert not is_partial_isometry(M)
    assert not is_unitary(M)
    # entry norms are measured one entry at a time, so only the NaN one is NaN
    norms = M.entry_norms()
    assert np.isnan(norms[0, 0]) and np.isfinite(np.delete(norms.ravel(), 0)).all()
