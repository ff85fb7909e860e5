import numpy as np
import pytest

from ncframes import AlgebraSpec, AMatrix, ShapeError


def test_spec_validation():
    with pytest.raises(ValueError):
        AlgebraSpec(())
    with pytest.raises(ValueError):
        AlgebraSpec((2, 0))
    spec = AlgebraSpec((2, 1))
    assert spec.summand_dims == (2, 1)
    assert spec.num_summands == 2


@pytest.mark.parametrize("size", [2.5, 2.0, np.float64(2.0), "2", True, np.True_])
def test_block_sizes_must_be_integers(size):
    # a truncating int() would read 2.5 as M_2 and True as the scalar algebra
    with pytest.raises(TypeError):
        AlgebraSpec((size,))
    with pytest.raises(TypeError):
        AlgebraSpec((1, size))


def test_numpy_integer_block_sizes_are_ints():
    spec = AlgebraSpec((np.int64(2), np.uint8(1)))
    assert spec == AlgebraSpec((2, 1))
    assert all(type(m) is int for m in spec.summand_dims)


def test_add_identity_and_inverse(mixed_spec):
    rng = np.random.default_rng(0)
    a = AMatrix.random(mixed_spec, 1, 1, rng)
    zero = AMatrix.zeros(mixed_spec, 1, 1)
    assert (a + zero).allclose(a)
    assert (a + (-a)).allclose(zero)


def test_scalar_algebra_arithmetic(scalar_spec):
    one = AMatrix.identity(scalar_spec, 1)
    a = (2 + 3j) * one
    b = (1 - 1j) * one
    assert (a + b).blocks[0][0, 0] == 3 + 2j
    assert a.adjoint().blocks[0][0, 0] == 2 - 3j
    assert ((3 + 4j) * one).norm() == pytest.approx(5.0)


def test_mul_identity_and_nilpotent(m2_spec):
    rng = np.random.default_rng(1)
    a = AMatrix.random(m2_spec, 1, 1, rng)
    assert (a @ AMatrix.identity(m2_spec, 1)).allclose(a)
    nil = AMatrix(m2_spec, 1, 1, (np.array([[0, 1], [0, 0]], dtype=complex),))
    assert (nil @ nil).allclose(AMatrix.zeros(m2_spec, 1, 1))


def test_spec_mismatch_raises(scalar_spec, m2_spec):
    a = AMatrix.identity(scalar_spec, 1)
    b = AMatrix.identity(m2_spec, 1)
    with pytest.raises(ShapeError):
        a + b
    with pytest.raises(ShapeError):
        a @ b


def test_adjoint_of_product(mixed_spec):
    rng = np.random.default_rng(2)
    for _ in range(20):
        a = AMatrix.random(mixed_spec, 1, 1, rng)
        b = AMatrix.random(mixed_spec, 1, 1, rng)
        # oracle: direct blockwise computation
        expected = AMatrix(
            mixed_spec,
            1,
            1,
            tuple(
                (x @ y).conj().T for x, y in zip(a.blocks, b.blocks)
            ),
        )
        assert (a @ b).adjoint().allclose(expected)
        assert (a @ b).adjoint().allclose(b.adjoint() @ a.adjoint())


def test_norm_values(m2_spec):
    assert AMatrix.identity(m2_spec, 1).norm() == pytest.approx(1.0)
    a = AMatrix(m2_spec, 1, 1, (np.array([[0, 2], [0, 0]], dtype=complex),))
    # singular values {2, 0} by direct SVD
    assert sorted(np.linalg.svd(a.blocks[0], compute_uv=False)) == [0.0, 2.0]
    assert a.norm() == pytest.approx(2.0)


def test_positivity(scalar_spec, m2_spec):
    rng = np.random.default_rng(3)
    assert AMatrix.identity(m2_spec, 1).is_positive(1e-9)
    assert not (-1 * AMatrix.identity(scalar_spec, 1)).is_positive(1e-9)
    for _ in range(20):
        a = AMatrix.random(m2_spec, 1, 1, rng)
        assert (a.adjoint() @ a).is_positive(1e-9)


def test_normalized_trace():
    spec = AlgebraSpec((1, 1))
    e = AMatrix(
        spec, 1, 1, (np.array([[2.0]], dtype=complex), np.array([[4.0]], dtype=complex))
    )
    assert e.normalized_trace() == pytest.approx(3.0)
    assert AMatrix.identity(spec, 1).normalized_trace() == pytest.approx(1.0)


def test_trace_of_positive_is_nonnegative(mixed_spec):
    rng = np.random.default_rng(4)
    for _ in range(50):
        a = AMatrix.random(mixed_spec, 1, 1, rng)
        sq = a.adjoint() @ a
        # oracle: eigenvalues of each hermitian block
        eigs = np.concatenate([np.linalg.eigvalsh(b) for b in sq.blocks])
        assert eigs.min() >= -1e-10
        assert sq.normalized_trace().real >= -1e-10


@pytest.mark.parametrize("dims", [(1,), (2,), (3,), (1, 1), (2, 1)])
def test_cstar_identity_property(dims):
    spec = AlgebraSpec(dims)
    rng = np.random.default_rng(5)
    for _ in range(200):
        a = AMatrix.random(spec, 1, 1, rng)
        lhs = (a.adjoint() @ a).norm()
        assert abs(lhs - a.norm() ** 2) <= 1e-10 * max(1.0, a.norm() ** 2)


def test_submultiplicativity_and_involution(mixed_spec):
    rng = np.random.default_rng(6)
    for _ in range(200):
        a = AMatrix.random(mixed_spec, 1, 1, rng)
        b = AMatrix.random(mixed_spec, 1, 1, rng)
        assert (a @ b).norm() <= a.norm() * b.norm() + 1e-10
        assert a.adjoint().adjoint().allclose(a, tol=0.0)  # bit-identical
        assert abs(a.adjoint().norm() - a.norm()) <= 1e-12


def test_trace_cyclicity(mixed_spec):
    rng = np.random.default_rng(7)
    for _ in range(200):
        a = AMatrix.random(mixed_spec, 1, 1, rng)
        b = AMatrix.random(mixed_spec, 1, 1, rng)
        assert abs((a @ b).normalized_trace() - (b @ a).normalized_trace()) <= 1e-10


def test_spectral_norm_equals_numpy_2_norm():
    from ncframes.algebra import _spectral_norm

    rng = np.random.default_rng(8)
    shapes = [(r, c) for r in (1, 2, 3, 7, 16, 48) for c in (1, 2, 5, 16, 48)]
    for r, c in shapes:
        real = rng.standard_normal((r, c))
        for a in (real, real + 1j * rng.standard_normal((r, c)), np.zeros((r, c))):
            assert _spectral_norm(a) == np.linalg.norm(a, 2)


def test_spectral_norms_are_per_matrix_norms():
    from ncframes.algebra import _spectral_norm, _spectral_norms

    rng = np.random.default_rng(9)
    stack = rng.standard_normal((3, 4, 2, 2)) + 1j * rng.standard_normal((3, 4, 2, 2))
    norms = _spectral_norms(stack)
    assert norms.shape == (3, 4)
    for idx in np.ndindex(3, 4):
        assert norms[idx] == _spectral_norm(stack[idx])


def test_complex_gaussian_draws_real_then_imaginary_parts():
    from ncframes.algebra import _complex_gaussian

    z = _complex_gaussian(np.random.default_rng(10), (3, 2, 2))
    rng = np.random.default_rng(10)
    re = rng.standard_normal((3, 2, 2))
    im = rng.standard_normal((3, 2, 2))
    np.testing.assert_array_equal(z, (re + 1j * im) / np.sqrt(2.0))
    # a random element of A (a 1 x 1 matrix) keeps the per-block stream:
    # block 0 first, then block 1
    a = AMatrix.random(AlgebraSpec((2, 1)), 1, 1, np.random.default_rng(10))
    rng = np.random.default_rng(10)
    for m, blk in zip((2, 1), a.blocks):
        re = rng.standard_normal((m, m))
        im = rng.standard_normal((m, m))
        np.testing.assert_array_equal(blk, (re + 1j * im) / np.sqrt(2.0))


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), 0.0, -1.0])
def test_is_positive_rejects_bad_tol(mixed_spec, tol):
    with pytest.raises(ValueError, match="tol"):
        AMatrix.identity(mixed_spec, 1).is_positive(tol)


def test_star_between_elements_is_not_a_product(mixed_spec):
    # * scales by a complex number; the product over A is @, and an old
    # element product written a * b must fail rather than compute something
    rng = np.random.default_rng(11)
    a = AMatrix.random(mixed_spec, 1, 1, rng)
    b = AMatrix.random(mixed_spec, 1, 1, rng)
    with pytest.raises(TypeError):
        a * b


@pytest.mark.parametrize("dims", [(1,), (2,), (2, 1), (3, 1, 2)])
def test_matrix_positivity_and_trace(dims):
    # M_n(A) is itself a C*-algebra: M M* is positive, and the normalized
    # trace is 1 at the identity
    spec = AlgebraSpec(dims)
    M = AMatrix.random(spec, 3, 2, np.random.default_rng(12))
    assert (M @ M.H).is_positive()
    assert not (-(M @ M.H)).is_positive()
    assert AMatrix.identity(spec, 3).normalized_trace() == 1
    # oracle: the trace of every summand block over 3 * sum_j m_j
    P = M @ M.H
    expected = sum(np.trace(b) for b in P.blocks) / (3 * sum(dims))
    assert P.normalized_trace() == pytest.approx(expected, rel=1e-14)


def test_positivity_and_trace_need_a_square_matrix(mixed_spec):
    M = AMatrix.random(mixed_spec, 3, 2, np.random.default_rng(13))
    with pytest.raises(ShapeError):
        M.is_positive()
    with pytest.raises(ShapeError):
        M.normalized_trace()
