import itertools

import numpy as np
import pytest

from ncframes import (
    AlgebraSpec,
    AMatrix,
    Frame,
    NotCoisometricError,
    ShapeError,
    canonical_coisometry,
    complete_to_unitary,
    factorize,
    inner_product,
    is_partial_isometry,
    is_unitary,
    random_tight_frame,
)
from ncframes import module
from ncframes.module import _column_sides, _scale_columns


def _std_basis(spec, n, i):
    entries = [[AMatrix.zeros(spec, 1, 1)] for _ in range(n)]
    entries[i][0] = AMatrix.identity(spec, 1)
    return AMatrix.from_entries(entries)


def scalar_vector(spec, values):
    return AMatrix.from_entries([[z * AMatrix.identity(spec, 1)] for z in values])


class TestInnerProduct:
    def test_standard_basis_orthonormal(self, mixed_spec):
        n = 3
        for i in range(n):
            for j in range(n):
                ip = inner_product(
                    _std_basis(mixed_spec, n, i), _std_basis(mixed_spec, n, j)
                )
                expected = (
                    AMatrix.identity(mixed_spec, 1) if i == j else AMatrix.zeros(mixed_spec, 1, 1)
                )
                assert ip.allclose(expected)

    def test_zero_vector(self, m2_spec):
        v = AMatrix.zeros(m2_spec, 4, 1)
        assert inner_product(v, v).allclose(AMatrix.zeros(m2_spec, 1, 1))

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
            a = AMatrix.random(mixed_spec, 1, 1, rng)
            scaled = w @ AMatrix.from_entries([[a]])
            lhs = inner_product(v, scaled)
            rhs = inner_product(v, w) @ a
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
    """Oracle: (MN)_ij = sum_p M_ip N_pj, summed in numpy over the (m, m)
    entries of the grids, one summand at a time."""
    out = []
    for gm, gn in zip(M.grids, N.grids):
        acc = np.zeros((M.rows, N.cols) + gm.shape[2:], dtype=complex)
        for i in range(M.rows):
            for j in range(N.cols):
                for p in range(M.cols):
                    acc[i, j] += gm[i, p] @ gn[p, j]
        out.append(acc)
    return out


MIXED_SPECS = [AlgebraSpec(d) for d in [(1,), (2,), (2, 1), (3, 1, 2)]]


class TestFlatten:
    """The storage is the flat realization: one (r*m, c*m) block per summand.

    Products, adjoints and norms are checked against entrywise numpy
    arithmetic on the (m, m) entries, which never touches the flat blocks.
    """

    def test_identity_flattens_to_identity(self, m2_spec):
        eye = AMatrix.identity(m2_spec, 2)
        np.testing.assert_array_equal(eye.blocks[0], np.eye(4))
        for i in range(2):
            for j in range(2):
                expected = np.eye(2) if i == j else np.zeros((2, 2))
                np.testing.assert_array_equal(eye.entry(i, j).blocks[0], expected)

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
                for got, expected in zip(prod.grids, _entrywise_product(M, N)):
                    np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12)

    def test_flatten_preserves_adjoint_and_norm(self):
        rng = np.random.default_rng(5)
        for spec in MIXED_SPECS:
            M = AMatrix.random(spec, 3, 2, rng)
            MH = M.H
            assert (MH.rows, MH.cols) == (2, 3)
            for i in range(2):
                for j in range(3):
                    for a, b in zip(MH.entry(i, j).blocks, M.entry(j, i).blocks):
                        np.testing.assert_array_equal(a, b.conj().T)
            # the C*-norm of a 1x1 matrix is the largest spectral norm of its blocks
            e = AMatrix.from_entries([[M.column(0).entry(1, 0)]])
            ref = max(np.linalg.norm(b, 2) for b in e.blocks)
            assert e.norm() == pytest.approx(ref, rel=1e-12)
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
        S = M.select_columns([3, 0, 3])  # in the order given, repeats kept
        assert S.cols == 3
        for i in range(2):
            assert S.entry(i, 0).allclose(M.entry(i, 3), tol=0.0)
            assert S.entry(i, 1).allclose(M.entry(i, 0), tol=0.0)
            assert S.entry(i, 2).allclose(M.entry(i, 3), tol=0.0)
            assert M.column(4).entry(i, 0).allclose(M.entry(i, 4), tol=0.0)

    def test_wrong_block_shape_rejected(self, mixed_spec):
        with pytest.raises(ShapeError):
            AMatrix(mixed_spec, 2, 2, (np.zeros((4, 4)), np.zeros((2, 3))))


def _wrong_blocks(spec):
    """name -> a call of a public constructor with a wrong block count or shape."""
    rng = np.random.default_rng(3)
    good = AMatrix.random(spec, 2, 3, rng)
    blocks, grids = good.blocks, good.grids
    other = AMatrix.identity(AlgebraSpec((2,)), 1)
    return {
        "init, a block short": lambda: AMatrix(spec, 2, 3, blocks[:1]),
        "init, a block over": lambda: AMatrix(spec, 2, 3, blocks + blocks[:1]),
        "init, block of another summand": lambda: AMatrix(spec, 2, 3, (blocks[0], blocks[0])),
        "init, transposed block": lambda: AMatrix(spec, 2, 3, (blocks[0].T, blocks[1])),
        "from_grids, a grid short": lambda: AMatrix.from_grids(spec, grids[:1]),
        "from_grids, a grid over": lambda: AMatrix.from_grids(spec, grids + grids[:1]),
        "from_grids, grid of another summand": lambda: AMatrix.from_grids(spec, (grids[0], grids[0])),
        # reshapes to the right block size, so only the shape check refuses it
        "from_grids, rows and cols swapped": lambda: AMatrix.from_grids(
            spec, (grids[0], grids[1].swapaxes(0, 1))
        ),
        "from_entries, entry not 1x1": lambda: AMatrix.from_entries([[good.entry(0, 0), good.column(0)]]),
        "from_entries, entry of another algebra": lambda: AMatrix.from_entries([[good.entry(0, 0), other]]),
        "diagonal, no rows": lambda: AMatrix.diagonal(spec, 0, 3),
        "zeros, no columns": lambda: AMatrix.zeros(spec, 2, 0),
        "identity, size 0": lambda: AMatrix.identity(spec, 0),
        "random, no rows": lambda: AMatrix.random(spec, 0, 3, rng),
        # blocks of the right shape, so only the integer check refuses these
        "init, float rows": lambda: AMatrix(spec, 2.0, 3, blocks),
        "init, float cols": lambda: AMatrix(spec, 2, np.float64(3.0), blocks),
        "init, bool rows": lambda: AMatrix(
            spec, True, 3, tuple(b[: b.shape[0] // 2] for b in blocks)
        ),
    }


@pytest.mark.parametrize("case", sorted(_wrong_blocks(AlgebraSpec((2, 1)))))
def test_public_constructors_check_blocks(mixed_spec, case):
    # every AMatrix, the results of operations too, is built by the
    # constructor, so its checks refuse wrong blocks from any builder
    with pytest.raises(ShapeError):
        _wrong_blocks(mixed_spec)[case]()


# the builders that allocate their blocks from rows and cols, as
# (spec, rows, cols) -> AMatrix; identity takes its one size from rows
BUILDERS = {
    "diagonal": AMatrix.diagonal,
    "zeros": AMatrix.zeros,
    "identity": lambda spec, rows, cols: AMatrix.identity(spec, rows),
    "random": lambda spec, rows, cols: AMatrix.random(spec, rows, cols, np.random.default_rng(0)),
}


@pytest.mark.parametrize(
    "bad, message",
    [(2.0, "rows must be an integer, got 2.0"), (True, "rows must be an integer, got True"),
     (0, "dimensions must be positive"), (-1, "dimensions must be positive")],
    ids=repr,
)
@pytest.mark.parametrize("builder", sorted(BUILDERS))
def test_builders_check_the_shape_before_allocating(mixed_spec, builder, bad, message):
    # numpy allocating first would raise its own TypeError for 2.0 and
    # ValueError for -1; the constructor's ShapeError comes from one helper
    with pytest.raises(ShapeError, match=message):
        BUILDERS[builder](mixed_spec, bad, 3)
    if builder != "identity":
        with pytest.raises(ShapeError, match=message.replace("rows", "cols")):
            BUILDERS[builder](mixed_spec, 2, bad)


def test_numpy_integer_dimensions_are_stored_as_ints(mixed_spec):
    M = AMatrix.random(mixed_spec, 2, 3, np.random.default_rng(3))
    N = AMatrix(mixed_spec, np.int64(2), np.uint8(3), M.blocks)
    assert (type(N.rows), type(N.cols)) == (int, int)
    assert (N.rows, N.cols) == (2, 3)


def test_operations_on_valid_matrices_give_valid_matrices(mixed_spec):
    # every result an operation builds passed the constructor, which kept
    # its complex blocks as the same objects, views included
    rng = np.random.default_rng(5)
    M, N = AMatrix.random(mixed_spec, 2, 3, rng), AMatrix.random(mixed_spec, 2, 3, rng)
    results = [M @ N.H, M.H, M + N, M - N, -M, 2 * M, M * 0.5j, M.entry(1, 2),
               M.top_rows(1), M.select_columns([2, 0, 2]), M.column(1)]
    for R in results:
        checked = AMatrix(R.spec, R.rows, R.cols, R.blocks)
        assert all(a is b for a, b in zip(R.blocks, checked.blocks))
        assert all(a.dtype == complex for a in R.blocks)


@pytest.mark.parametrize("dims", [(1,), (2,), (2, 1)])
def test_equality_is_identity_and_allclose_compares_values(dims):
    # a value == over the tuples of blocks would ask numpy for the truth
    # value of an array; == and hash are identity, and allclose(., 0.0) is
    # the one comparison of values
    spec = AlgebraSpec(dims)
    M, N = AMatrix.identity(spec, 2), AMatrix.identity(spec, 2)
    assert [M == M, M == N, M != N, M == 1] == [True, False, True, False]
    assert M.allclose(N, 0.0) and hash(M) == hash(M)
    # a Frame compares its matrix by identity, so one over M is one value
    F = Frame(M)
    assert (Frame(M) == F, Frame(N) == F) == (True, False)
    assert len({F, Frame(M), Frame(N)}) == 2
    # and so do the results that hold a matrix
    assert (factorize(F) == factorize(F)) is False
    assert factorize(F).unitary.allclose(factorize(F).unitary, 0.0)


# a bool mask, a bool and a float are no indices: numpy would read the mask
# as positions 1, 0, 1 and truncate 1.5 to 1
NON_INTEGER_INDICES = [np.array([True, False, True]), [True, False, True], [1.5], [0, 1.0]]


@pytest.mark.parametrize("indices", [[], [[0, 1]]] + NON_INTEGER_INDICES)
def test_select_columns_refuses_no_columns_and_nested_indices(mixed_spec, indices):
    with pytest.raises(ShapeError):
        AMatrix.zeros(mixed_spec, 2, 3).select_columns(indices)


@pytest.mark.parametrize("indices", [[[0, 1]]] + NON_INTEGER_INDICES, ids=repr)
def test_diagonal_refuses_nested_and_non_integer_indices(mixed_spec, indices):
    with pytest.raises(ShapeError):
        AMatrix.diagonal(mixed_spec, 3, 3, indices)


@pytest.mark.parametrize("index", [True, False, 1.0, 1.5, [1], "1", slice(0, 1)], ids=repr)
def test_entry_and_top_rows_refuse_non_integer_indices(mixed_spec, index):
    M = AMatrix.random(mixed_spec, 3, 3, np.random.default_rng(0))
    with pytest.raises(ShapeError):
        M.entry(index, 2)
    with pytest.raises(ShapeError):
        M.entry(2, index)
    with pytest.raises(ShapeError):
        M.top_rows(index)


def test_numpy_integer_indices_are_read_as_ints(mixed_spec):
    M = AMatrix.random(mixed_spec, 3, 3, np.random.default_rng(0))
    assert M.entry(np.int64(1), np.uint8(2)).allclose(M.entry(1, 2), tol=0.0)
    assert M.top_rows(np.int32(2)).allclose(M.top_rows(2), tol=0.0)
    assert M.select_columns(np.flatnonzero([True, False, True])).allclose(
        M.select_columns([0, 2]), tol=0.0
    )
    D = AMatrix.diagonal(mixed_spec, 3, 3, np.array([2, 0], dtype=np.uint16))
    assert D.allclose(AMatrix.diagonal(mixed_spec, 3, 3, [0, 2]), tol=0.0)


class TestEntries:
    """An element of A is the 1 x 1 AMatrix: entry returns one, from_entries
    assembles a grid of them."""

    def test_entry_is_a_write_through_view(self, mixed_spec):
        M = AMatrix.random(mixed_spec, 2, 3, np.random.default_rng(9))
        e = M.entry(1, 2)
        assert (e.rows, e.cols) == (1, 1)
        for blk in e.blocks:
            blk[0, 0] = 7.0
        for g in M.grids:
            assert g[1, 2, 0, 0] == 7.0

    def test_empty_grid_rejected(self):
        for grid in ([], [[]]):
            with pytest.raises(ShapeError, match="empty"):
                AMatrix.from_entries(grid)

    def test_entry_must_be_one_by_one(self, mixed_spec):
        one = AMatrix.identity(mixed_spec, 1)
        with pytest.raises(ShapeError, match=r"entry \(1, 0\) is 2x1"):
            AMatrix.from_entries([[one, one], [AMatrix.zeros(mixed_spec, 2, 1), one]])

    def test_entry_must_be_a_matrix(self, mixed_spec):
        one = AMatrix.identity(mixed_spec, 1)
        with pytest.raises(TypeError, match=r"entry \(0, 0\) is float, not AMatrix"):
            AMatrix.from_entries([[1.0]])
        with pytest.raises(TypeError, match=r"entry \(1, 1\) is ndarray"):
            AMatrix.from_entries([[one, one], [one, np.eye(3)]])


class TestAdjoint:
    def test_involution_and_identity(self, m2_spec):
        rng = np.random.default_rng(6)
        M = AMatrix.random(m2_spec, 3, 2, rng)
        assert M.H.H.allclose(M, tol=0.0)
        eye = AMatrix.identity(m2_spec, 3)
        assert eye.H.allclose(eye, tol=0.0)


class TestTopRows:
    def test_equals_the_product_with_the_model_coisometry(self, mixed_spec):
        M = AMatrix.random(mixed_spec, 5, 3, np.random.default_rng(4))
        for n in range(1, 6):
            top = M.top_rows(n)
            assert (top.rows, top.cols) == (n, 3)
            assert top.allclose(canonical_coisometry(mixed_spec, 5, n) @ M, tol=0.0)

    @pytest.mark.parametrize("n", [0, -1, 6])
    def test_rejects_rows_it_does_not_have(self, mixed_spec, n):
        with pytest.raises(ShapeError):
            AMatrix.zeros(mixed_spec, 5, 3).top_rows(n)


class TestUnitaryPredicates:
    def test_identity_is_unitary(self, mixed_spec):
        assert is_unitary(AMatrix.identity(mixed_spec, 3))

    def test_diagonal_phases(self, scalar_spec):
        phases = [np.exp(1j * t) for t in (0.3, 1.2, -2.0)]
        entries = [
            [(phases[i] if i == j else 0) * AMatrix.identity(scalar_spec, 1) for j in range(3)]
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

    @pytest.mark.parametrize("dims", [(1,), (2,), (2, 1), (3, 1, 2)])
    @pytest.mark.parametrize("side", [-1, 1])
    def test_verdict_at_tol_matches_svd(self, dims, side):
        # M = Q diag(sqrt(1 + eps), 1, ...) has rank-one defects MM* - I and
        # M*M - I of norm eps, where the Frobenius and spectral norms agree,
        # so a Frobenius shortcut must not change the verdict; eps sits a
        # relative 1e-12 on either side of tol
        spec = AlgebraSpec(dims)
        rng = np.random.default_rng(3)
        tol = 0.1
        eps = tol * (1 + side * 1e-12)
        blocks = []
        for m in dims:
            z = rng.standard_normal((3 * m, 3 * m)) + 1j * rng.standard_normal((3 * m, 3 * m))
            q, _ = np.linalg.qr(z)
            blocks.append(q * np.sqrt(np.r_[1 + eps, np.ones(3 * m - 1)]))
        M = AMatrix(spec, 3, 3, tuple(blocks))
        eye = np.eye(3 * max(dims))
        svd_verdict = all(
            np.linalg.norm(d - eye[: len(d), : len(d)], 2) <= tol
            for b in blocks
            for d in (b @ b.conj().T, b.conj().T @ b)
        )
        assert svd_verdict == (side < 0)
        assert is_unitary(M, tol) == svd_verdict

    @pytest.mark.parametrize("dims", [(1,), (2,), (2, 1), (3, 2)])
    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("side", [-1, 1])
    def test_one_sided_verdict_matches_two_sided_svd(self, dims, seed, side):
        # M_j = P diag(s) Q* with independent Haar P, Q is far from normal,
        # and both defects MM* - I and M*M - I have eigenvalues s_i^2 - 1,
        # so one side decides; tol sits a relative 1e-12 on either side of
        # the exact largest |s_i^2 - 1|, far above the roundoff of either
        spec = AlgebraSpec(dims)
        rng = np.random.default_rng(seed)
        size = 3 * max(dims)
        s = np.sqrt(1 + rng.uniform(-0.05, 0.05, size))
        defect = float(np.max(np.abs(s**2 - 1)))
        tol = defect * (1 + side * 1e-12)

        def haar(d):
            z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            return np.linalg.qr(z)[0]

        # the largest summand takes every s_i, the others a prefix
        blocks = [haar(3 * m) * s[: 3 * m] @ haar(3 * m).conj().T for m in dims]
        big = blocks[int(np.argmax(dims))]
        assert np.linalg.norm(big @ big.conj().T - big.conj().T @ big, 2) > 1e-3  # not normal
        two_sided = all(
            np.linalg.norm(d - np.eye(len(d)), 2) <= tol
            for b in blocks
            for d in (b @ b.conj().T, b.conj().T @ b)
        )
        assert two_sided == (side > 0)
        assert is_unitary(AMatrix(spec, 3, 3, tuple(blocks)), tol) == two_sided

    @pytest.mark.parametrize("dims", [(1,), (2, 1), (3, 2, 1)])
    def test_one_spectral_norm_per_summand(self, dims, monkeypatch):
        calls = []
        spectral_norm = module._spectral_norm
        monkeypatch.setattr(module, "_spectral_norm", lambda a: calls.append(a.shape) or spectral_norm(a))
        assert is_unitary(AMatrix.identity(AlgebraSpec(dims), 4))
        assert calls == [(4 * m, 4 * m) for m in dims]

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
            [[AMatrix.identity(scalar_spec, 1), AMatrix.zeros(scalar_spec, 1, 1)]]
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
    """grids, from_grids, column_grams, entry_norms, select_columns and the
    block function _scale_columns against entrywise references."""

    @pytest.mark.parametrize("dims", ACCESSOR_SPECS)
    def test_entry_norms_match_element_norms(self, dims):
        rng = np.random.default_rng(11)
        for M in _views(AMatrix.random(AlgebraSpec(dims), 3, 4, rng)):
            norms = M.entry_norms()
            assert norms.shape == (M.rows, M.cols)
            for i in range(M.rows):
                for j in range(M.cols):
                    ref = max(np.linalg.norm(g[i, j], 2) for g in M.grids)
                    assert norms[i, j] == pytest.approx(ref, rel=1e-14)

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
        w = [AMatrix.random(spec, 1, 1, rng) for _ in range(4)]
        zero = AMatrix.zeros(spec, 1, 1)
        D = AMatrix.from_entries(
            [[w[i] if i == j else zero for j in range(4)] for i in range(4)]
        )
        for s, (m, blk, want) in enumerate(zip(dims, M.blocks, (M @ D).blocks)):
            stack = np.stack([x.blocks[s] for x in w])
            np.testing.assert_allclose(_scale_columns(blk, m, stack), want, rtol=0, atol=1e-13)

    @pytest.mark.parametrize("dims", ACCESSOR_SPECS)
    def test_select_columns_is_the_position_gather(self, dims):
        # products of the selected columns round by their memory layout, so
        # select_columns gives blk[:, positions]'s bytes and strides
        rng = np.random.default_rng(15)
        for M in _views(AMatrix.random(AlgebraSpec(dims), 3, 4, rng)):
            picks = [[M.cols - 1, 0, M.cols - 1]]  # out of order, with a repeat
            picks += [rng.integers(0, M.cols, size=3) for _ in range(6)]
            for idx in picks:
                for m, blk, got in zip(dims, M.blocks, M.select_columns(idx).blocks):
                    want = blk[:, (np.asarray(idx)[:, None] * m + np.arange(m)).ravel()]
                    assert (got.shape, got.strides) == (want.shape, want.strides)
                    assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("dims", [(1,), (2,), (2, 1), (3, 2)])
    def test_column_sides_are_select_columns_of_the_mask_and_its_complement(self, dims):
        # the split pass gathers both sides of a column mask as bare blocks:
        # each is select_columns' block bit for bit, None for an empty side
        spec = AlgebraSpec(dims)
        for k in range(1, 7):
            M = random_tight_frame(spec, k, (k + 1) // 2, seed=k).matrix
            for bits in itertools.product((False, True), repeat=k):
                mask = np.array(bits)
                sides = _column_sides(M, mask)
                assert len(sides) == spec.num_summands
                for keep, got in zip((mask, ~mask), zip(*sides)):
                    if not keep.any():
                        assert all(y is None for y in got), bits
                        continue
                    want = M.select_columns(np.flatnonzero(keep)).blocks
                    for y, w in zip(got, want):
                        assert (y.dtype, y.shape, y.strides) == (w.dtype, w.shape, w.strides)
                        assert y.tobytes() == w.tobytes(), bits

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
                    assert AMatrix(spec, 1, 1, tuple(g[i, j] for g in grids)).allclose(
                        M.entry(i, j), tol=0.0
                    )
            back = AMatrix.from_grids(spec, grids)
            for a, b in zip(M.blocks, back.blocks):
                np.testing.assert_array_equal(a, b)
            # a write through the views lands in the matrix, nowhere else
            expected = [M.entry(i, j) for i in range(M.rows) for j in range(M.cols)]
            x = AMatrix.random(spec, 1, 1, rng)
            for g, blk in zip(M.grids, x.blocks):
                g[M.rows - 1, 0] = blk
            expected[(M.rows - 1) * M.cols] = x
            got = [M.entry(i, j) for i in range(M.rows) for j in range(M.cols)]
            assert all(a.allclose(b, tol=0.0) for a, b in zip(got, expected))

    @pytest.mark.parametrize("dims", ACCESSOR_SPECS)
    def test_from_grids_blocks_are_c_contiguous_for_any_layout(self, dims):
        # swapped grids, as scalar_definition_check and the frame decoder
        # pass, reshape to a Fortran-ordered view over a 1 x 1 summand;
        # products round by memory order, so from_grids makes them C-ordered
        spec = AlgebraSpec(dims)
        M = AMatrix.random(spec, 3, 4, np.random.default_rng(16))
        swapped = [np.ascontiguousarray(g.swapaxes(0, 1)).swapaxes(0, 1) for g in M.grids]
        for grids in (M.grids, swapped, [np.asfortranarray(g) for g in M.grids]):
            back = AMatrix.from_grids(spec, grids)
            assert all(b.flags.c_contiguous for b in back.blocks)
            assert [b.tobytes() for b in back.blocks] == [a.tobytes() for a in M.blocks]


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
