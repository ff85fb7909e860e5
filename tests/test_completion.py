"""The numpy pivoted completion against LAPACK's pivoted QR (scipy).

complete_to_unitary finds its pivots by pivoted Cholesky of the projector
P = I - M*M and orthonormalizes the pivot columns with an unpivoted QR.
scipy.linalg.qr(P, pivoting=True) is the independent oracle: its pivots
must be the same, and its first columns of Q, phase-fixed the same way,
must give the same added rows.  scipy is imported here only.
"""

import warnings

import numpy as np
import pytest
import scipy.linalg
from conftest import make_mercedes

from ncframes import (
    AlgebraSpec, AMatrix, direct_sum_frames, factorize, random_tight_frame, random_unitary
)
from ncframes.module import (
    NotCoisometricError, _greedy_pivots, complete_to_unitary, is_unitary
)

SPECS = [(1,), (2,), (2, 1), (3, 2), (3,)]
# the shapes of the bulk-pipeline benchmark workload
BULK_SHAPES = [((2,), 48, 24), ((1,), 128, 64), ((2, 1), 48, 24), ((3, 2), 48, 24)]


def _scipy_rows(flat, want):
    """The added rows of the LAPACK pivoted-QR completion, and its pivots."""
    proj = np.eye(flat.shape[1], dtype=complex) - flat.conj().T @ flat
    q, _, piv = scipy.linalg.qr(proj, mode="economic", pivoting=True)
    extra = q[:, :want].conj().T
    lead = extra[np.arange(want), (np.abs(extra) > 1e-12).argmax(axis=1)]
    return extra * (np.abs(lead) / lead)[:, None] + 0.0, piv[:want]


def _top_rows(spec, U, n):
    return AMatrix(
        spec, n, U.cols, tuple(b[: n * m] for m, b in zip(spec.summand_dims, U.blocks))
    )


@pytest.mark.parametrize("dims", SPECS)
def test_pivots_and_rows_match_scipy(dims):
    spec = AlgebraSpec(dims)
    rng = np.random.default_rng(sum(dims))
    blocks = 0
    for k in range(2, 13):
        for n in range(1, k):
            M = _top_rows(spec, random_unitary(spec, k, rng), n)
            U = complete_to_unitary(M)
            for m, flat, out in zip(dims, M.blocks, U.blocks):
                want = (k - n) * m
                proj = np.eye(k * m, dtype=complex) - flat.conj().T @ flat
                rows, piv = _scipy_rows(flat, want)
                np.testing.assert_array_equal(_greedy_pivots(proj, want), piv)
                np.testing.assert_allclose(out[n * m :], rows, rtol=0, atol=1e-13)
                blocks += 1
    # 66 (k, n) pairs per summand: 462 blocks over the five specs
    assert blocks == 66 * len(dims)


@pytest.mark.parametrize("dims,k,n", BULK_SHAPES)
def test_factorize_matches_scipy_on_bulk_shapes(dims, k, n):
    spec = AlgebraSpec(dims)
    result = factorize(random_tight_frame(spec, k, n, 1.0, 1))
    for m, out in zip(dims, result.unitary.blocks):
        rows, _ = _scipy_rows(out[: n * m], (k - n) * m)
        np.testing.assert_allclose(out[n * m :], rows, rtol=0, atol=1e-13)


def _scalar_coisometry(spec, rows):
    """The coisometry with scalar entries rows[i][j] (times 1 in each summand)."""
    return AMatrix.from_entries([[z * AMatrix.identity(spec, 1) for z in row] for row in rows])


def _tied_coisometries(spec):
    """Coisometries of symmetric frames, whose projector columns tie exactly."""
    mercedes = make_mercedes(spec)
    for copies in (1, 2, 3):
        F = direct_sum_frames([mercedes] * copies, 1.5)
        yield f"mercedes x{copies}", np.sqrt(2 / 3) * F.matrix
    for k in range(3, 9):
        angles = np.pi * np.arange(k) / k  # equal-norm real frame in R^2
        yield f"real 2x{k}", _scalar_coisometry(
            spec, np.sqrt(2 / k) * np.vstack([np.cos(angles), np.sin(angles)])
        )
        for n in range(1, k):
            for shift in (0, 1):  # harmonic: n rows of the k-point DFT
                dft = np.exp(2j * np.pi * np.outer(np.arange(shift, n + shift), np.arange(k)) / k)
                yield f"harmonic {n}x{k}+{shift}", _scalar_coisometry(spec, dft / np.sqrt(k))


def _residuals(proj, chosen):
    """Squared residual norms of proj's columns after the chosen columns."""
    rest = proj
    if chosen:
        q, _ = np.linalg.qr(proj[:, chosen])
        rest = proj - q @ (q.conj().T @ proj)
    return np.sum(np.abs(rest) ** 2, axis=0)


@pytest.mark.parametrize("dims", SPECS)
def test_exact_ties_go_to_the_lowest_index(dims):
    # the rule, recomputed from scratch: each pivot is the lowest index
    # whose residual is within 1e-12 of the longest.  Where LAPACK's pivots
    # differ, its first different pick ties with ours, so both are greedy.
    spec = AlgebraSpec(dims)
    differ = 0
    for name, M in _tied_coisometries(spec):
        U = complete_to_unitary(M)
        assert is_unitary(U, 1e-12), name
        for m, flat, out in zip(dims, M.blocks, U.blocks):
            np.testing.assert_array_equal(out[: M.rows * m], flat)
            want = (M.cols - M.rows) * m
            proj = np.eye(M.cols * m, dtype=complex) - flat.conj().T @ flat
            ours = _greedy_pivots(proj, want).tolist()
            for j in range(want):
                res = _residuals(proj, ours[:j])
                res[ours[:j]] = -np.inf
                assert ours[j] == int(np.argmax(res >= res.max() - 1e-12)), (name, j)
            theirs = _scipy_rows(flat, want)[1].tolist()
            if ours != theirs:
                differ += 1
                j = next(i for i, (a, b) in enumerate(zip(ours, theirs)) if a != b)
                res = _residuals(proj, ours[:j])
                assert abs(res[ours[j]] - res[theirs[j]]) <= 1e-12, (name, j)
    # the ties are real: LAPACK breaks some of them differently
    assert differ > 0


def _no_warning_completion(M, tol):
    """complete_to_unitary(M, tol) with warnings raised; None if it refuses."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return complete_to_unitary(M, tol=tol)
        except NotCoisometricError:
            return None


@pytest.mark.parametrize("seed", range(20))
def test_loose_tol_on_random_non_coisometry(seed):
    # rows scaled off orthonormal: I - M*M is no projector and may be
    # indefinite, so the completion either refuses or returns finite rows
    spec = AlgebraSpec((2, 1))
    rng = np.random.default_rng(seed)
    M = (1 + 0.3 * rng.standard_normal()) * _top_rows(spec, random_unitary(spec, 4, rng), 2)
    U = _no_warning_completion(M, 0.9)
    assert U is None or all(np.isfinite(b).all() for b in U.blocks)


@pytest.mark.parametrize("square,refused", [(0.5, False), (1.6, True), (1.9, True)])
def test_loose_tol_on_scaled_mercedes(square, refused):
    # MM* = square * I passes tol = 0.9; above 1.5 every diagonal entry of
    # I - M*M = I - square * (2/3 on the diagonal) is negative
    mercedes = make_mercedes()
    M = np.sqrt(square / 1.5) * mercedes.matrix
    U = _no_warning_completion(M, 0.9)
    assert (U is None) == refused


def test_zero_remainder_is_refused_without_warning():
    # I - M*M = diag(0, 1, 1, 1) exactly: the fourth pivot's remainder is 0
    proj = np.diag([0.0, 1.0, 1.0, 1.0]).astype(complex)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NotCoisometricError):
            _greedy_pivots(proj, 4)


@pytest.mark.parametrize("tol,message", [
    (1.0, "||MM* - I|| 1.420e+00 exceeds tol 1.000e+00"),
    # ||MM* - I|| passes tol = 2, but I - M*M = [[-0.21, -1.21], [-1.21, -0.21]]
    # has no positive diagonal entry, so the first pivot is refused
    (2.0, "pivot remainder -2.100e-01 is not above tol 0.000e+00"),
])
def test_refusal_names_the_condition_that_failed(tol, message):
    M = AMatrix(AlgebraSpec((1,)), 1, 2, (np.array([[1.1, 1.1]]),))
    with pytest.raises(NotCoisometricError) as exc:
        complete_to_unitary(M, tol=tol)
    assert str(exc.value) == f"matrix is not a coisometry: {message}"
    assert str(exc.value.verdict) == message and not exc.value.verdict.holds
