import numpy as np
import pytest

from ncframes import (
    AlgebraSpec,
    AMatrix,
    NotCoisometricError,
    ShapeError,
    canonical_coisometry,
    complete_to_unitary,
    coordinate_projection,
    inner_product,
    is_partial_isometry,
    is_unitary,
)


def _std_basis(spec, n, i):
    entries = [[spec.zero()] for _ in range(n)]
    entries[i][0] = spec.identity()
    return AMatrix.from_entries(entries)


def scalar_vector(spec, values):
    return AMatrix.from_entries([[spec.from_scalar(z)] for z in values])


class TestInnerProduct:
    def test_standard_basis_orthonormal(self, mixed_spec):
        n = 3
        for i in range(n):
            for j in range(n):
                ip = inner_product(
                    _std_basis(mixed_spec, n, i), _std_basis(mixed_spec, n, j)
                )
                expected = mixed_spec.identity() if i == j else mixed_spec.zero()
                assert ip.allclose(expected)

    def test_zero_vector(self, m2_spec):
        v = AMatrix.zeros(m2_spec, 4, 1)
        assert inner_product(v, v).allclose(m2_spec.zero())

    def test_scalar_convention_oracle(self, scalar_spec):
        # independent scalar-arithmetic oracle for sum_i conj(v_i) * w_i
        v = [1, 1j]
        w = [1j, 1]
        expected = sum(complex(a).conjugate() * complex(b) for a, b in zip(v, w))
        assert expected == 0
        ip = inner_product(
            scalar_vector(scalar_spec, v), scalar_vector(scalar_spec, w)
        )
        assert ip.blocks[0][0, 0] == pytest.approx(expected)

    def test_conjugate_symmetry_and_positivity(self, mixed_spec):
        rng = np.random.default_rng(0)
        for _ in range(100):
            v = AMatrix.random(mixed_spec, 3, 1, rng)
            w = AMatrix.random(mixed_spec, 3, 1, rng)
            assert inner_product(v, w).adjoint().allclose(
                inner_product(w, v), tol=1e-12
            )
            assert inner_product(v, v).is_positive(1e-9)

    def test_right_linearity(self, mixed_spec):
        rng = np.random.default_rng(1)
        for _ in range(50):
            v = AMatrix.random(mixed_spec, 3, 1, rng)
            w = AMatrix.random(mixed_spec, 3, 1, rng)
            a = mixed_spec.random_element(rng)
            scaled = w @ AMatrix.from_entries([[a]])
            lhs = inner_product(v, scaled)
            rhs = inner_product(v, w) * a
            assert (lhs - rhs).norm() <= 1e-10

    def test_cauchy_schwarz(self, m2_spec):
        rng = np.random.default_rng(2)
        for _ in range(200):
            v = AMatrix.random(m2_spec, 3, 1, rng)
            w = AMatrix.random(m2_spec, 3, 1, rng)
            lhs = inner_product(v, w).norm() ** 2
            rhs = inner_product(v, v).norm() * inner_product(w, w).norm()
            assert lhs <= rhs + 1e-9

    def test_length_mismatch(self, m2_spec):
        with pytest.raises(ShapeError):
            inner_product(AMatrix.zeros(m2_spec, 2, 1), AMatrix.zeros(m2_spec, 3, 1))


def _entrywise_product(M, N):
    """Oracle: (MN)_ij = sum_p M_ip N_pj, summed with AlgebraElement arithmetic."""
    grid = []
    for i in range(M.rows):
        row = []
        for j in range(N.cols):
            acc = M.spec.zero()
            for p in range(M.cols):
                acc = acc + M.entry(i, p) * N.entry(p, j)
            row.append(acc)
        grid.append(row)
    return grid


MIXED_SPECS = [AlgebraSpec(d) for d in [(1,), (2,), (2, 1), (3, 1, 2)]]


class TestFlatten:
    """The storage is the flat realization: one (r*m, c*m) block per summand.

    Products, adjoints and norms are checked against entrywise
    AlgebraElement arithmetic, which never touches the flat blocks.
    """

    def test_identity_flattens_to_identity(self, m2_spec):
        eye = AMatrix.identity(m2_spec, 2)
        np.testing.assert_array_equal(eye.blocks[0], np.eye(4))
        for i in range(2):
            for j in range(2):
                expected = m2_spec.identity() if i == j else m2_spec.zero()
                assert eye.entry(i, j).allclose(expected, tol=0.0)

    def test_round_trip_bit_identical(self, mixed_spec):
        rng = np.random.default_rng(3)
        M = AMatrix.random(mixed_spec, 3, 4, rng)
        back = AMatrix.from_entries(
            [[M.entry(i, j) for j in range(4)] for i in range(3)]
        )
        for a, b in zip(M.blocks, back.blocks):
            np.testing.assert_array_equal(a, b)

    def test_flatten_multiplicative(self):
        rng = np.random.default_rng(4)
        for spec in MIXED_SPECS:
            for _ in range(5):
                M = AMatrix.random(spec, 2, 3, rng)
                N = AMatrix.random(spec, 3, 4, rng)
                prod = M @ N
                for i, row in enumerate(_entrywise_product(M, N)):
                    for j, expected in enumerate(row):
                        assert prod.entry(i, j).allclose(expected, tol=1e-12)

    def test_flatten_preserves_adjoint_and_norm(self):
        rng = np.random.default_rng(5)
        for spec in MIXED_SPECS:
            M = AMatrix.random(spec, 3, 2, rng)
            MH = M.H
            assert (MH.rows, MH.cols) == (2, 3)
            for i in range(2):
                for j in range(3):
                    assert MH.entry(i, j).allclose(M.entry(j, i).adjoint(), tol=0.0)
            # the C*-norm of a 1x1 matrix is the norm of its entry
            v = M.column(0).select_columns([0])
            e = AMatrix.from_entries([[v.entry(1, 0)]])
            assert e.norm() == pytest.approx(v.entry(1, 0).norm(), rel=1e-12)
            # ||M||^2 = ||M* M|| (C*-identity)
            assert (MH @ M).norm() == pytest.approx(M.norm() ** 2, rel=1e-12)

    def test_coisometry_flat_rank(self, mixed_spec):
        W = canonical_coisometry(mixed_spec, 5, 3)
        for m, blk in zip(mixed_spec.summand_dims, W.blocks):
            svals = np.linalg.svd(blk, compute_uv=False)
            assert np.sum(svals > 1e-12) == 3 * m

    def test_columns_are_entry_slices(self, mixed_spec):
        rng = np.random.default_rng(7)
        M = AMatrix.random(mixed_spec, 2, 5, rng)
        S = M.select_columns([3, 0])
        for i in range(2):
            assert S.entry(i, 0).allclose(M.entry(i, 3), tol=0.0)
            assert S.entry(i, 1).allclose(M.entry(i, 0), tol=0.0)
            assert M.column(4).entry(i, 0).allclose(M.entry(i, 4), tol=0.0)

    def test_wrong_block_shape_rejected(self, mixed_spec):
        with pytest.raises(ShapeError):
            AMatrix(mixed_spec, 2, 2, (np.zeros((4, 4)), np.zeros((2, 3))))


class TestAdjoint:
    def test_involution_and_identity(self, m2_spec):
        rng = np.random.default_rng(6)
        M = AMatrix.random(m2_spec, 3, 2, rng)
        assert M.H.H.allclose(M, tol=0.0)
        eye = AMatrix.identity(m2_spec, 3)
        assert eye.H.allclose(eye, tol=0.0)


class TestUnitaryPredicates:
    def test_identity_is_unitary(self, mixed_spec):
        assert is_unitary(AMatrix.identity(mixed_spec, 3))

    def test_diagonal_phases(self, scalar_spec):
        phases = [np.exp(1j * t) for t in (0.3, 1.2, -2.0)]
        entries = [
            [scalar_spec.from_scalar(phases[i] if i == j else 0) for j in range(3)]
            for i in range(3)
        ]
        assert is_unitary(AMatrix.from_entries(entries))

    def test_qr_factor_is_unitary(self, mixed_spec):
        rng = np.random.default_rng(7)
        blocks = []
        for m in mixed_spec.summand_dims:
            z = rng.standard_normal((3 * m, 3 * m)) + 1j * rng.standard_normal(
                (3 * m, 3 * m)
            )
            q, _ = np.linalg.qr(z)
            # QR orthogonality oracle
            np.testing.assert_allclose(q.conj().T @ q, np.eye(3 * m), atol=1e-12)
            blocks.append(q)
        Q = AMatrix(mixed_spec, 3, 3, tuple(blocks))
        assert is_unitary(Q, 1e-10)

    def test_non_square_rejected(self, m2_spec):
        with pytest.raises(ShapeError):
            is_unitary(AMatrix.zeros(m2_spec, 2, 3))

    def test_partial_isometries(self, mixed_spec):
        W = canonical_coisometry(mixed_spec, 4, 2)
        assert is_partial_isometry(W)
        assert is_partial_isometry(AMatrix.identity(mixed_spec, 3))
        assert not is_partial_isometry(2.0 * AMatrix.identity(mixed_spec, 3))


class TestCompleteToUnitary:
    def test_canonical_completion_is_identity(self, mixed_spec):
        W = canonical_coisometry(mixed_spec, 4, 2)
        U = complete_to_unitary(W)
        assert U.allclose(AMatrix.identity(mixed_spec, 4), tol=0.0)

    def test_scalar_row(self, scalar_spec):
        M = AMatrix.from_entries(
            [[scalar_spec.from_scalar(1), scalar_spec.from_scalar(0)]]
        )
        U = complete_to_unitary(M)
        assert U.allclose(AMatrix.identity(scalar_spec, 2), tol=1e-12)

    def test_random_coisometry_roundtrip(self, mixed_spec):
        # construct M as the top rows of a random unitary, then complete
        from ncframes import random_unitary

        rng = np.random.default_rng(8)
        for _ in range(10):
            V = random_unitary(mixed_spec, 4, rng)
            blocks = [blk[: 2 * m] for m, blk in zip(
                mixed_spec.summand_dims, V.blocks
            )]
            M = AMatrix(mixed_spec, 2, 4, tuple(blocks))
            U = complete_to_unitary(M)
            assert is_unitary(U, 1e-10)
            top = [blk[: 2 * m] for m, blk in zip(
                mixed_spec.summand_dims, U.blocks
            )]
            for a, b in zip(top, M.blocks):
                np.testing.assert_allclose(a, b, atol=1e-8)

    def test_rejects_non_coisometry(self, m2_spec):
        M = 2.0 * canonical_coisometry(m2_spec, 3, 2)
        with pytest.raises(NotCoisometricError):
            complete_to_unitary(M)


class TestCoordinateProjection:
    def test_full_and_empty(self, mixed_spec):
        k = 4
        assert coordinate_projection(mixed_spec, k, range(k)).allclose(
            AMatrix.identity(mixed_spec, k)
        )
        assert coordinate_projection(mixed_spec, k, []).allclose(
            AMatrix.zeros(mixed_spec, k, k)
        )

    def test_idempotent_self_adjoint(self, m2_spec):
        Q = coordinate_projection(m2_spec, 5, [0, 2, 3])
        assert (Q @ Q).allclose(Q, tol=1e-14)
        assert Q.H.allclose(Q, tol=0.0)

    def test_intersection_law(self, scalar_spec):
        k = 6
        I, J = {0, 1, 3, 4}, {1, 2, 4, 5}
        QI = coordinate_projection(scalar_spec, k, I)
        QJ = coordinate_projection(scalar_spec, k, J)
        QIJ = coordinate_projection(scalar_spec, k, I & J)
        assert (QI @ QJ).allclose(QIJ, tol=1e-14)

    def test_out_of_range(self, scalar_spec):
        with pytest.raises(IndexError):
            coordinate_projection(scalar_spec, 3, [3])
