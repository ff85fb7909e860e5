"""Independent oracles for the decomposition verdicts.

The Naimark complement of a tight frame F = sqrt(b) [I_n | 0] U is
C = sqrt(b) [0 | I_{k-n}] U, the other k - n rows of the same unitary.  C is
tight with the same b and C*C = bI - F*F, so every off-diagonal Gram entry
of C is minus that of F: the two frames have the same ortho-decomposition,
the same (commutes, splits) verdict on every column subset, and a
strict-spherical F of radius r has a complement of radius b - r.  On a
block I of the decomposition F_I* F_I has eigenvalues 0 and b only, so
C_I* C_I = bI - F_I* F_I has the complementary eigenspaces: per summand,
the ranks of F_I and C_I add up to |I| m_j.  The
corpus frames are random or exact direct sums, with every residual either
near roundoff or of order 1, so the verdicts are compared with no margin.

Rows S of the Sylvester Hadamard matrix H_8 form a tight frame over the
scalar algebra with b = 8 and an integer Gram matrix, so its edges, its
components and whether G_{I, I^c} = 0 are decided exactly in Python ints.
"""

import itertools

import numpy as np
import pytest

from ncframes import (
    AlgebraSpec,
    AMatrix,
    Frame,
    OptimizerConfig,
    check_tight,
    direct_sum_frames,
    factorize,
    is_spherical,
    minimize,
    ortho_decompose,
    random_tight_frame,
    range_constant,
    restrict,
    split_equivalence,
)
from ncframes.decomposition import _side_spectrum
from conftest import scalar_frame

# the split-corpus of the benchmark: its specs, random (k, n) shapes and
# direct sums of random parts
SPECS = ((1,), (2,), (1, 1), (2, 1))
RANDOM = ((4, 2), (5, 3), (6, 4), (7, 4), (8, 5))
SUMS = (((2, 1), (3, 2)), ((4, 3), (3, 2)), ((3, 2), (3, 1), (2, 1)))


def naimark_complement(F: Frame) -> Frame:
    """sqrt(b) times rows n, ..., k - 1 of the unitary that factorizes F."""
    result = factorize(F)
    bottom = [g[F.n :] for g in result.unitary.grids]
    return Frame(np.sqrt(result.b) * AMatrix.from_grids(F.spec, bottom))


def _corpus():
    seeds = itertools.count(100)
    for dims in SPECS:
        spec = AlgebraSpec(dims)
        for k, n in RANDOM:
            yield f"{dims} {k}/{n}", random_tight_frame(spec, k, n, 1.0, next(seeds))
        for parts in SUMS:
            frames = [random_tight_frame(spec, k, n, 1.0, next(seeds)) for k, n in parts]
            yield f"{dims} sum {parts}", direct_sum_frames(frames, 1.0)


CORPUS = dict(_corpus())


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_naimark_complement_decomposes_like_the_frame(name):
    F = CORPUS[name]
    C = naimark_complement(F)
    assert (C.n, C.k) == (F.k - F.n, F.k)
    frame, complement = check_tight(F), check_tight(C)
    assert complement.is_tight
    assert abs(complement.b - frame.b) <= 1e-9 * max(1.0, frame.b)
    assert ortho_decompose(C) == ortho_decompose(F)
    for size in range(F.k + 1):
        for I in itertools.combinations(range(1, F.k + 1), size):
            f, c = split_equivalence(F, I), split_equivalence(C, I)
            assert (c.commutes, c.splits) == (f.commutes, f.splits), I


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_naimark_ranks_fill_each_block_and_its_range_constant_is_b(name):
    F = CORPUS[name]
    C = naimark_complement(F)
    b = check_tight(F).b
    blocks = ortho_decompose(F).blocks
    for I in blocks:
        ranks = [
            [_side_spectrum(y, 1e-9, b)[0] for y in restrict(G, I).matrix.blocks]
            for G in (F, C)
        ]
        assert [r + rc for r, rc in zip(*ranks)] == [len(I) * m for m in F.spec.summand_dims], I
        if len(blocks) > 1:  # a proper block: F_I is tight with F's b on its own range
            for G in (F, C):
                assert abs(range_constant(G, I) - b) <= 1e-12, I


@pytest.mark.parametrize(
    "dims, k, n, radius",
    [((1,), 5, 3, 0.6), ((1,), 4, 2, None), ((2,), 4, 2, None), ((2, 1), 6, 4, 2.0)],
)
def test_naimark_complement_of_a_spherical_frame_has_radius_b_minus_r(dims, k, n, radius):
    trace = minimize(AlgebraSpec(dims), k, n, OptimizerConfig(seed=1, radius=radius))
    assert trace.converged
    F = trace.frame
    b = check_tight(F).b
    r = is_spherical(F).radius
    sphere = is_spherical(naimark_complement(F))
    assert sphere.is_spherical
    assert sphere.radius == pytest.approx(b - r, rel=1e-8, abs=1e-9)


def _sylvester(order: int) -> list[list[int]]:
    """H[s][i] = (-1)^popcount(s & i), the Sylvester Hadamard matrix of a power of 2."""
    return [[(-1) ** bin(s & i).count("1") for i in range(order)] for s in range(order)]


def _exact_components(G: list[list[int]]) -> tuple[tuple[int, ...], ...]:
    """The 1-based vertex sets of the graph with an edge wherever G_ij != 0."""
    k = len(G)
    label = list(range(k))
    changed = True
    while changed:  # each vertex takes the smallest label among its neighbours
        changed = False
        for i in range(k):
            for j in range(k):
                if G[i][j] != 0 and label[j] < label[i]:
                    label[i], changed = label[j], True
    return tuple(
        tuple(i + 1 for i in range(k) if label[i] == root) for root in sorted(set(label))
    )


# subgroups of Z_2^3, as row indices of H_8, and sets that are not
HADAMARD_ROWS = [
    (0, 1),
    (0, 1, 2, 3),
    (0, 3, 5, 6),
    tuple(range(8)),
    (1, 2),
    (1, 2, 4, 7),
    (0, 1, 2),
]


@pytest.mark.parametrize("rows", HADAMARD_ROWS)
def test_hadamard_frames_decompose_exactly(rows):
    H = _sylvester(8)
    F = scalar_frame([[H[s][i] for s in rows] for i in range(8)])
    G = [[sum(H[s][i] * H[s][j] for s in rows) for j in range(8)] for i in range(8)]
    tight = check_tight(F)
    assert tight.is_tight and tight.b == 8.0
    assert ortho_decompose(F).blocks == _exact_components(G)
    for size in range(9):
        for I in itertools.combinations(range(8), size):
            rest = set(range(8)) - set(I)
            exact = all(G[i][j] == 0 for i in I for j in rest)
            report = split_equivalence(F, [i + 1 for i in I])
            assert (report.commutes, report.splits) == (exact, exact), I
