import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ncframes import (
    AlgebraSpec,
    AMatrix,
    Frame,
    NotTightError,
    Partition,
    canonical_coisometry,
    check_tight,
    commutation_residual,
    count_partitions,
    direct_sum_frames,
    divisibility_check,
    enumerate_partitions,
    gram_matrix,
    minimize,
    ortho_decompose,
    random_tight_frame,
    range_projection,
    restrict,
    split_equivalence,
)
from conftest import enumerate_set_partitions, make_mercedes, perturbed_direct_sum


def orthonormal_basis_frame(spec, n):
    return Frame(AMatrix.identity(spec, n))


class TestPartitionType:
    def test_canonical_ordering(self):
        p = Partition(5, ((4, 2), (5,), (3, 1)))
        assert p.blocks == ((1, 3), (2, 4), (5,))

    def test_invalid_partitions(self):
        with pytest.raises(ValueError):
            Partition(3, ((1, 2),))  # not covering
        with pytest.raises(ValueError):
            Partition(3, ((1, 2), (2, 3)))  # overlapping


class TestCommutationResidual:
    def test_trivial_subsets(self, mercedes):
        assert commutation_residual(mercedes, []) == 0.0
        assert commutation_residual(mercedes, range(1, 4)) == 0.0

    def test_orthogonal_groups(self, mercedes):
        # two orthogonal column groups from a direct sum
        ds = direct_sum_frames([mercedes, make_mercedes()], b=1.5)
        assert commutation_residual(ds, [1, 2, 3]) <= 1e-12

    def test_mercedes_single_column(self, mercedes):
        # Gram off-diagonals have magnitude 1/2 (oracle), so cutting out one
        # column leaves a commutator of that size
        res = commutation_residual(mercedes, [1])
        assert res == pytest.approx(np.sqrt(2) * 0.5, rel=1e-9)


    @pytest.mark.parametrize("dims", [(1,), (2,), (2, 1)])
    def test_matches_projection_commutator(self, dims):
        # the Gram block ||F_I* F_Ic|| against ||Q_I G - G Q_I|| built from Q_I
        spec = AlgebraSpec(dims)
        frames = [
            random_tight_frame(spec, 5, 3, seed=7),
            direct_sum_frames(
                [random_tight_frame(spec, 3, 2, seed=1),
                 random_tight_frame(spec, 2, 1, seed=2)],
                1.0,
            ),
        ]
        for F in frames:
            G = gram_matrix(F)
            for size in range(F.k + 1):
                for I in itertools.combinations(range(1, F.k + 1), size):
                    Q = AMatrix.diagonal(spec, F.k, F.k, [i - 1 for i in I])
                    ref = (Q @ G - G @ Q).norm()
                    assert commutation_residual(F, I) == pytest.approx(
                        ref, rel=1e-12, abs=1e-15
                    )


class TestOrthoDecompose:
    def test_orthonormal_basis_splits_to_singletons(self, m2_spec):
        F = orthonormal_basis_frame(m2_spec, 3)
        assert ortho_decompose(F).blocks == ((1,), (2,), (3,))

    def test_mercedes_indecomposable(self, mercedes):
        assert ortho_decompose(mercedes).blocks == ((1, 2, 3),)

    def test_direct_sum_of_two(self, mercedes):
        ds = direct_sum_frames([mercedes, make_mercedes()], b=1.5)
        assert ortho_decompose(ds).blocks == ((1, 2, 3), (4, 5, 6))

    def test_requires_tight(self, scalar_spec):
        rng = np.random.default_rng(0)
        with pytest.raises(NotTightError):
            ortho_decompose(Frame(AMatrix.random(scalar_spec, 2, 4, rng)))

    def test_union_of_blocks_commutes(self, mixed_spec):
        F = random_tight_frame(mixed_spec, 6, 4, seed=1)
        part = ortho_decompose(F)
        k = F.k
        for r in range(1, part.num_blocks + 1):
            for combo in itertools.combinations(part.blocks, r):
                I = sorted(itertools.chain.from_iterable(combo))
                assert commutation_residual(F, I) <= k * k * 1e-9

    def test_permutation_equivariance(self, m2_spec):
        base = random_tight_frame(m2_spec, 3, 2, seed=3)
        ds = direct_sum_frames([base, orthonormal_basis_frame(m2_spec, 2)], b=1.0)
        perm = [3, 5, 1, 4, 2]  # image of column i at position perm.index
        k = ds.k
        P = AMatrix.zeros(m2_spec, k, k)
        summands = [arr.copy() for arr in P.blocks]
        for src, dst in enumerate(perm):
            for m, arr in zip(m2_spec.summand_dims, summands):
                arr[src * m : (src + 1) * m, (dst - 1) * m : dst * m] = np.eye(m)
        Pi = AMatrix(m2_spec, k, k, tuple(summands))
        permuted = Frame(ds.matrix @ Pi)
        sig_perm = ortho_decompose(permuted)
        # relabel: column i of F lands at position perm[i-1] in the product
        expected = ortho_decompose(ds).relabeled(perm)
        assert sig_perm == expected


class TestOneTolerance:
    """ortho_decompose(F, tol) cuts edges at the bound check_tight(F, tol) uses."""

    @settings(max_examples=60, deadline=None, database=None)
    @given(
        st.sampled_from([(1,), (2,), (2, 1)]),
        st.sampled_from([1e-9, 1e-8, 1e-6]),
        st.floats(0.5, 50),
        st.floats(0.0, 0.1),
        st.integers(0, 2**20),
    )
    def test_perturbed_direct_sum_splits(self, dims, tol, b, frac, seed):
        spec = AlgebraSpec(dims)
        parts = [random_tight_frame(spec, 3, 2, b, seed + i) for i in range(2)]
        F = perturbed_direct_sum(parts, b, frac * tol, np.random.default_rng(seed))
        assert check_tight(F, tol).is_tight
        assert ortho_decompose(F, tol).blocks == ((1, 2, 3), (4, 5, 6))

    @pytest.mark.parametrize("tol", [1e-9, 1e-8])
    def test_unions_of_blocks_are_the_commuting_subsets(self, mercedes, tol):
        # independent oracle: split_equivalence measures ||Q_I G - G Q_I||
        frames = [Frame(AMatrix.identity(AlgebraSpec((2,)), 3))]
        for dims in [(1,), (2,), (2, 1)]:
            spec = AlgebraSpec(dims)
            frames.append(random_tight_frame(spec, 5, 3, seed=21))
            frames.append(random_tight_frame(spec, 6, 4, seed=22))
            frames.append(
                direct_sum_frames(
                    [random_tight_frame(spec, 2, 1, seed=23),
                     Frame(AMatrix.identity(spec, 1)),
                     random_tight_frame(spec, 3, 2, seed=24)],
                    1.0,
                )
            )
        frames.append(perturbed_direct_sum([mercedes, make_mercedes()], 1.5, tol / 10))
        frames.append(minimize(AlgebraSpec((1,)), 6, 4).frame)
        for F in frames:
            blocks = [set(blk) for blk in ortho_decompose(F, tol).blocks]
            for size in range(F.k + 1):
                for I in itertools.combinations(range(1, F.k + 1), size):
                    union = all(blk <= set(I) or not blk & set(I) for blk in blocks)
                    assert union == split_equivalence(F, I, tol).commutes, (F.k, I)


class TestRestrictAndRange:
    def test_restrict_all_and_single(self, mercedes):
        assert restrict(mercedes, [1, 2, 3]).matrix.allclose(mercedes.matrix, tol=0.0)
        single = restrict(mercedes, [2])
        assert single.k == 1

    def test_restrict_composition(self, mixed_spec):
        F = random_tight_frame(mixed_spec, 6, 3, seed=4)
        once = restrict(restrict(F, [2, 3, 5, 6]), [1, 3])  # picks columns 2, 5
        direct = restrict(F, [2, 5])
        assert once.matrix.allclose(direct.matrix, tol=0.0)

    def test_restrict_empty_raises(self, mercedes):
        with pytest.raises(ValueError):
            restrict(mercedes, [])

    def test_range_projection_full_span(self, m2_spec):
        F = random_tight_frame(m2_spec, 4, 2, seed=5)
        P = range_projection(F)
        assert P.allclose(AMatrix.identity(m2_spec, 2), tol=1e-10)

    def test_range_projection_single_column(self, scalar_spec):
        one, zero = scalar_spec.identity(), scalar_spec.zero()
        F = Frame(AMatrix.from_entries([[one], [zero], [zero]]))  # e1 in C^3
        P = range_projection(F)
        expected = np.diag([1.0, 0.0, 0.0]).astype(complex)
        np.testing.assert_allclose(P.blocks[0], expected, atol=1e-12)

    def test_projection_fixes_frame(self, mixed_spec):
        rng = np.random.default_rng(6)
        F = Frame(AMatrix.random(mixed_spec, 4, 2, rng))
        P = range_projection(F)
        assert (P @ F.matrix - F.matrix).norm() <= 1e-9
        # SVD oracle: P is idempotent and self-adjoint
        assert (P @ P - P).norm() <= 1e-10
        assert (P.H - P).norm() <= 1e-12


class TestSplitEquivalence:
    def test_block_fixture_both_true(self, mercedes):
        ds = direct_sum_frames([mercedes, make_mercedes()], b=1.5)
        rep = split_equivalence(ds, [1, 2, 3])
        assert rep.commutes and rep.splits

    def test_mercedes_single_both_false(self, mercedes):
        rep = split_equivalence(mercedes, [1])
        assert not rep.commutes and not rep.splits
        # f_2, f_3 span C^2, so P + Pc - I is the rank-one projection P
        assert rep.closure_residual == pytest.approx(1.0)

    def test_closure_residual_within_threshold_on_direct_sums(self):
        for dims in [(1,), (2,), (2, 1)]:
            spec = AlgebraSpec(dims)
            parts = [
                random_tight_frame(spec, 2, 1, seed=10),
                random_tight_frame(spec, 3, 2, seed=11),
                random_tight_frame(spec, 4, 3, seed=12),
            ]
            F = direct_sum_frames(parts, b=1.0)
            threshold = 1e-9 * max(1.0, float(F.k))  # tol * max(1, b) * max(1, k)
            for I in ([1, 2], [3, 4, 5], [6, 7, 8, 9], [1, 2, 6, 7, 8, 9]):
                rep = split_equivalence(F, I)
                assert rep.splits
                assert 0.0 <= rep.closure_residual <= threshold

    def test_exhaustive_small_corpus(self):
        corpus = []
        for dims in [(1,), (2,), (1, 1)]:
            spec = AlgebraSpec(dims)
            corpus.append(random_tight_frame(spec, 4, 2, seed=7))
            corpus.append(Frame(AMatrix.identity(spec, 3)))
            corpus.append(
                direct_sum_frames(
                    [
                        random_tight_frame(spec, 2, 1, seed=8),
                        random_tight_frame(spec, 3, 2, seed=9),
                    ],
                    b=1.0,
                )
            )
        for F in corpus:
            for size in range(F.k + 1):
                for I in itertools.combinations(range(1, F.k + 1), size):
                    rep = split_equivalence(F, I)
                    assert rep.agree, (F.spec, F.k, F.n, I)


class TestDivisibility:
    def test_spec_examples(self):
        p = Partition(6, ((1, 2, 3), (4, 5), (6,)))
        rep = divisibility_check(p, 6, 4)
        assert (rep.d, rep.kprime) == (2, 3)
        assert rep.per_block == (True, False, False)

    def test_square_case_everything_passes(self):
        p = Partition(4, ((1,), (2,), (3,), (4,)))
        rep = divisibility_check(p, 4, 4)
        assert rep.kprime == 1 and rep.all_divisible

    def test_coprime_case(self):
        whole = Partition(5, (tuple(range(1, 6)),))
        assert divisibility_check(whole, 5, 3).all_divisible
        split = Partition(5, ((1, 2), (3, 4, 5)))
        assert not divisibility_check(split, 5, 3).all_divisible


class TestEnumeratePartitions:
    def test_whole_set_only(self):
        assert len(enumerate_partitions(4, 4)) == 1

    def test_counts_against_oracle(self):
        for k in range(1, 9):
            for kprime in range(1, k + 1):
                if k % kprime:
                    continue
                ours = enumerate_partitions(k, kprime)
                oracle = [
                    sorted(tuple(sorted(b)) for b in p)
                    for p in enumerate_set_partitions(list(range(1, k + 1)))
                    if all(len(b) % kprime == 0 for b in p)
                ]
                assert len(ours) == len(oracle)
                assert sorted(list(p.blocks) for p in ours) == sorted(oracle)

    def test_spot_values(self):
        four = enumerate_partitions(4, 2)
        assert len(four) == 4
        assert [list(map(list, p.blocks)) for p in four] == [
            [[1, 2], [3, 4]],
            [[1, 2, 3, 4]],
            [[1, 3], [2, 4]],
            [[1, 4], [2, 3]],
        ]
        assert len(enumerate_partitions(6, 3)) == 11

    def test_bell_numbers_when_unconstrained(self):
        bells = [1, 1, 2, 5, 15, 52, 203, 877, 4140]
        for k in range(1, 9):
            assert len(enumerate_partitions(k, 1)) == bells[k]

    def test_invalid_kprime(self):
        with pytest.raises(ValueError):
            enumerate_partitions(5, 2)

    def test_count_matches_enumeration(self):
        for k in range(1, 11):
            for kprime in range(1, k + 1):
                if k % kprime == 0:
                    expected = len(enumerate_partitions(k, kprime))
                    assert count_partitions(k, kprime) == expected, (k, kprime)
        assert count_partitions(30, 1) == 846749014511809332450147  # Bell(30)
        with pytest.raises(ValueError):
            count_partitions(5, 2)


class TestClassify:
    # the partition and its admissibility flag, as analyze reports them
    @staticmethod
    def classify(F):
        sigma = ortho_decompose(F)
        return sigma, divisibility_check(sigma, F.k, F.n).all_divisible

    def test_generic_frame_single_block(self, m2_spec):
        F = random_tight_frame(m2_spec, 5, 3, seed=10)
        sigma, admissible = self.classify(F)
        assert sigma.blocks == (tuple(range(1, 6)),)
        assert admissible  # whole set is always a multiple of k'

    def test_orthonormal_basis(self, scalar_spec):
        F = Frame(AMatrix.identity(scalar_spec, 4))
        sigma, admissible = self.classify(F)
        assert sigma.num_blocks == 4 and admissible

    def test_double_mercedes_fixture(self, mercedes):
        ds = direct_sum_frames([mercedes, make_mercedes()], b=1.5)
        sigma, admissible = self.classify(ds)
        assert sigma.blocks == ((1, 2, 3), (4, 5, 6))
        assert admissible  # k=6, n=4, k'=3 divides both block sizes


class TestDirectSum:
    def test_sum_of_bases(self, m2_spec):
        a = Frame(AMatrix.identity(m2_spec, 2))
        b = Frame(AMatrix.identity(m2_spec, 3))
        ds = direct_sum_frames([a, b], b=1.0)
        assert ds.matrix.allclose(AMatrix.identity(m2_spec, 5), tol=0.0)

    def test_single_part_identity_embedding(self, mercedes):
        ds = direct_sum_frames([mercedes], b=1.5)
        assert ds.matrix.allclose(mercedes.matrix, tol=0.0)

    def test_tight_with_shared_constant(self, mercedes):
        ds = direct_sum_frames([mercedes, make_mercedes()], b=1.5)
        rep = check_tight(ds)
        assert rep.is_tight and rep.b == pytest.approx(1.5)

    def test_mismatched_constant_rejected(self, mercedes, scalar_spec):
        other = Frame(AMatrix.identity(scalar_spec, 2))  # b = 1 != 3/2
        with pytest.raises(NotTightError):
            direct_sum_frames([mercedes, other], b=1.5)
