import numpy as np
import pytest

from ncframes import (
    AlgebraElement,
    AlgebraSpec,
    AMatrix,
    NotCoisometricError,
    ShapeError,
    canonical_coisometry,
    complete_to_unitary,
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

    @staticmethod
    def _partial_identity(spec, k, cols):
        """The len(cols) x k matrix with 1_A at (i, cols[i]), else 0."""
        blocks = []
        for m in spec.summand_dims:
            blk = np.zeros((len(cols) * m, k * m), dtype=complex)
            for i, c in enumerate(cols):
                blk[i * m : (i + 1) * m, c * m : (c + 1) * m] = np.eye(m)
            blocks.append(blk)
        return AMatrix(spec, len(cols), k, tuple(blocks))

    @pytest.mark.parametrize("dims", [(1,), (2,), (2, 1), (3, 2)])
    @pytest.mark.parametrize("k,cols", [(4, [0, 1]), (4, [2, 3]), (6, [5, 2])])
    def test_partial_identity_completes_with_standard_rows(self, dims, k, cols):
        # the added rows are the unused standard basis rows in ascending
        # order, bit for bit (so no -0.0 either)
        spec = AlgebraSpec(dims)
        U = complete_to_unitary(self._partial_identity(spec, k, cols))
        rest = [c for c in range(k) if c not in cols]
        expected = self._partial_identity(spec, k, cols + rest)
        assert all(
            a.tobytes() == b.tobytes() for a, b in zip(U.blocks, expected.blocks)
        )

    @staticmethod
    def _gram_schmidt_completion(flat, want):
        """Reference: pivoted modified Gram-Schmidt on the columns of I - M*M
        (largest residual first, lowest index on ties), rows phase-fixed one
        at a time."""
        residuals = np.eye(flat.shape[1]) - flat.conj().T @ flat
        rows = []
        for _ in range(want):
            norms = np.linalg.norm(residuals, axis=0)
            j = int(np.argmax(norms))
            q = residuals[:, j] / norms[j]
            for prev in rows:
                q = q - prev.conj() * (prev @ q)
            q = q / np.linalg.norm(q)
            residuals = residuals - np.outer(q, q.conj() @ residuals)
            row = q.conj()
            pivot = row[np.nonzero(np.abs(row) > 1e-12)[0][0]]
            rows.append(row * (abs(pivot) / pivot))
        return np.array(rows)

    @pytest.mark.parametrize("dims", [(1,), (2,), (2, 1), (3, 2)])
    def test_added_rows_match_reference_and_properties(self, dims):
        from ncframes import random_unitary

        spec = AlgebraSpec(dims)
        rng = np.random.default_rng(4)
        k, n = 5, 2
        for _ in range(3):
            V = random_unitary(spec, k, rng)
            M = AMatrix(spec, n, k, tuple(
                blk[: n * m] for m, blk in zip(dims, V.blocks)
            ))
            U = complete_to_unitary(M)
            for m, blk, top in zip(dims, U.blocks, M.blocks):
                extra = blk[n * m :]
                lead = extra[
                    np.arange(len(extra)), (np.abs(extra) > 1e-12).argmax(axis=1)
                ]
                assert np.all(lead.real > 0)
                assert np.all(np.abs(lead.imag) <= 1e-15 * lead.real)
                np.testing.assert_allclose(extra @ top.conj().T, 0, atol=1e-12)
                ref = self._gram_schmidt_completion(top, (k - n) * m)
                np.testing.assert_allclose(extra, ref, rtol=0, atol=1e-12)

    def test_repeat_calls_bit_equal(self, mixed_spec):
        from ncframes import random_unitary

        V = random_unitary(mixed_spec, 6, np.random.default_rng(2))
        M = AMatrix(mixed_spec, 3, 6, tuple(
            blk[: 3 * m] for m, blk in zip(mixed_spec.summand_dims, V.blocks)
        ))
        first, second = complete_to_unitary(M), complete_to_unitary(M)
        assert all(
            a.tobytes() == b.tobytes() for a, b in zip(first.blocks, second.blocks)
        )

    def test_rejects_non_coisometry(self, m2_spec):
        M = 2.0 * canonical_coisometry(m2_spec, 3, 2)
        with pytest.raises(NotCoisometricError):
            complete_to_unitary(M)


class TestDiagonal:
    # AMatrix.diagonal(spec, k, k, I) is the coordinate projection Q_I
    def test_full_and_empty(self, mixed_spec):
        k = 4
        assert AMatrix.diagonal(mixed_spec, k, k, range(k)).allclose(
            AMatrix.identity(mixed_spec, k)
        )
        assert AMatrix.diagonal(mixed_spec, k, k, []).allclose(
            AMatrix.zeros(mixed_spec, k, k)
        )

    def test_idempotent_self_adjoint(self, m2_spec):
        Q = AMatrix.diagonal(m2_spec, 5, 5, [0, 2, 3])
        assert (Q @ Q).allclose(Q, tol=1e-14)
        assert Q.H.allclose(Q, tol=0.0)

    def test_intersection_law(self, scalar_spec):
        k = 6
        I, J = {0, 1, 3, 4}, {1, 2, 4, 5}
        QI = AMatrix.diagonal(scalar_spec, k, k, I)
        QJ = AMatrix.diagonal(scalar_spec, k, k, J)
        QIJ = AMatrix.diagonal(scalar_spec, k, k, I & J)
        assert (QI @ QJ).allclose(QIJ, tol=1e-14)


ACCESSOR_SPECS = [(1,), (2,), (2, 1), (3, 1, 2)]


def _views(M):
    """M, its adjoint (a transposed layout) and its first two columns as
    strided slices of M's blocks."""
    dims = M.spec.summand_dims
    cut = AMatrix(M.spec, M.rows, 2, tuple(b[:, : 2 * m] for m, b in zip(dims, M.blocks)))
    return [M, M.H, cut]


class TestBlockAccessors:
    """grids, from_grids, column_grams, scale_columns and entry_norms
    against entrywise AlgebraElement arithmetic."""

    @pytest.mark.parametrize("dims", ACCESSOR_SPECS)
    def test_entry_norms_match_element_norms(self, dims):
        rng = np.random.default_rng(11)
        for M in _views(AMatrix.random(AlgebraSpec(dims), 3, 4, rng)):
            norms = M.entry_norms()
            assert norms.shape == (M.rows, M.cols)
            for i in range(M.rows):
                for j in range(M.cols):
                    assert norms[i, j] == pytest.approx(M.entry(i, j).norm(), rel=1e-14)

    @pytest.mark.parametrize("dims", ACCESSOR_SPECS)
    def test_column_grams_match_inner_products(self, dims):
        rng = np.random.default_rng(12)
        for M in _views(AMatrix.random(AlgebraSpec(dims), 3, 4, rng)):
            grams = M.column_grams()
            assert len(grams) == len(dims)
            for i in range(M.cols):
                ref = inner_product(M.column(i), M.column(i))
                for g, blk in zip(grams, ref.blocks):
                    np.testing.assert_allclose(g[i], blk, rtol=0, atol=1e-13)

    @pytest.mark.parametrize("dims", ACCESSOR_SPECS)
    def test_scale_columns_matches_diagonal_product(self, dims):
        spec = AlgebraSpec(dims)
        rng = np.random.default_rng(13)
        M = AMatrix.random(spec, 3, 4, rng)
        w = [spec.random_element(rng) for _ in range(4)]
        D = AMatrix.from_entries(
            [[w[i] if i == j else spec.zero() for j in range(4)] for i in range(4)]
        )
        stacks = [np.stack([x.blocks[s] for x in w]) for s in range(len(dims))]
        assert M.scale_columns(stacks).allclose(M @ D, tol=1e-13)

    @pytest.mark.parametrize("dims", ACCESSOR_SPECS)
    def test_grids_round_trip_and_write_through(self, dims):
        spec = AlgebraSpec(dims)
        rng = np.random.default_rng(14)
        for M in _views(AMatrix.random(spec, 3, 4, rng)):
            grids = M.grids
            for m, g in zip(dims, grids):
                assert g.shape == (M.rows, M.cols, m, m)
            for i in range(M.rows):
                for j in range(M.cols):
                    assert AlgebraElement(spec, tuple(g[i, j] for g in grids)).allclose(
                        M.entry(i, j), tol=0.0
                    )
            back = AMatrix.from_grids(spec, grids)
            for a, b in zip(M.blocks, back.blocks):
                np.testing.assert_array_equal(a, b)
            # a write through the views lands in the matrix, nowhere else
            expected = [M.entry(i, j) for i in range(M.rows) for j in range(M.cols)]
            x = spec.random_element(rng)
            for g, blk in zip(M.grids, x.blocks):
                g[M.rows - 1, 0] = blk
            expected[(M.rows - 1) * M.cols] = x
            got = [M.entry(i, j) for i in range(M.rows) for j in range(M.cols)]
            assert all(a.allclose(b, tol=0.0) for a, b in zip(got, expected))


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), 0.0, -1.0])
def test_complete_to_unitary_rejects_bad_tol(mixed_spec, tol):
    M = canonical_coisometry(mixed_spec, 4, 2)
    with pytest.raises(ValueError, match="tol"):
        complete_to_unitary(M, tol=tol)


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), 0.0, -1.0])
def test_is_unitary_rejects_bad_tol(mixed_spec, tol):
    eye = AMatrix.identity(mixed_spec, 2)
    assert is_unitary(eye, 1e-9)
    with pytest.raises(ValueError, match="tol"):
        is_unitary(eye, tol)


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), 0.0, -1.0])
def test_is_partial_isometry_rejects_bad_tol(mixed_spec, tol):
    W = canonical_coisometry(mixed_spec, 4, 2)
    assert is_partial_isometry(W, 1e-9)
    with pytest.raises(ValueError, match="tol"):
        is_partial_isometry(W, tol)
