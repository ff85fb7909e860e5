"""The one-pass split verdict, check_tight and the component search against
reference implementations kept here.

reference_split_equivalence is the AMatrix formulation split_equivalence
had before it became one pass over the summand blocks, and it shares no
code with that pass beyond check_tight's b: it builds the range
projections P and Pc, forms Q_I G - G Q_I from the Gram matrix and a
coordinate projection, and takes every residual as a spectral norm.  The
arithmetic differs (tightness read off singular values, closure and
overlap off one eigvalsh of P + Pc - I, in place of products and SVDs of
the projections), so residuals are held to 1e-12 and verdicts to equality.

array_split_equivalence and array_range_constant are the one-pass bodies
as they stood with the rank, the tightness residuals and the closure
residual taken by numpy array operations, and the overlap read off the
closure's eigvalsh.  The library now reads them off the singular values in
one Python loop and off the ends of eigvalsh's ascending output; both do
the same float64 operations, so every report field and every range constant
must equal these bit for bit.  The overlap is also held to ||U_r* Uc_rc||,
the SVD it was taken from before, and to cos(theta) on ranges built to
meet at a principal angle theta.
"""

import itertools
import math
from collections import Counter

import numpy as np
import pytest
from scipy.sparse.csgraph import connected_components

import ncframes
from ncframes import (
    AlgebraSpec,
    AMatrix,
    Frame,
    check_tight,
    commutation_residual,
    direct_sum_frames,
    frame_operator,
    gram_matrix,
    random_tight_frame,
    range_constant,
    restrict,
    split_equivalence,
)
from ncframes.cli import _equivalence_corpus
from ncframes.decomposition import SplitEquivalenceReport
from ncframes.decomposition import _components
from conftest import make_mercedes, perturbed_direct_sum

RESIDUALS = (
    "commutation_residual",
    "sub_tight_residual",
    "comp_tight_residual",
    "range_overlap",
    "closure_residual",
)


def reference_range_projection(F, tol):
    blocks = []
    for blk in F.matrix.blocks:
        u, s, _ = np.linalg.svd(blk, full_matrices=False)
        ur = u[:, : int(np.sum(s > tol * max(1.0, s[0])))]
        blocks.append(ur @ ur.conj().T)
    return AMatrix(F.spec, F.n, F.n, tuple(blocks))


def reference_split_equivalence(F, I, tol=1e-9):
    """(commutes, splits, residuals by name, threshold) from AMatrix algebra."""
    b = check_tight(F, tol).b
    idx = sorted(set(int(i) for i in I))
    comp = sorted(set(range(1, F.k + 1)) - set(idx))
    threshold = tol * (max(1.0, b) * max(1.0, float(F.k)))
    zero = AMatrix.zeros(F.spec, F.n, F.n)

    def side(cols):
        if not cols:
            return zero, 0.0
        sub = restrict(F, cols).matrix
        P = reference_range_projection(restrict(F, cols), tol)
        return P, (sub @ sub.H - b * P).norm()

    P, sub_res = side(idx)
    Pc, comp_res = side(comp)
    G = gram_matrix(F)
    Q = AMatrix.diagonal(F.spec, F.k, F.k, [i - 1 for i in idx])
    residuals = {
        "commutation_residual": (Q @ G - G @ Q).norm(),
        "sub_tight_residual": sub_res,
        "comp_tight_residual": comp_res,
        "range_overlap": (P @ Pc).norm(),
        "closure_residual": (P + Pc - AMatrix.identity(F.spec, F.n)).norm(),
    }
    commutes = residuals["commutation_residual"] <= threshold
    splits = all(residuals[name] <= threshold for name in RESIDUALS[1:])
    return commutes, splits, residuals, threshold


def rotated_mercedes_sum(theta):
    """Direct sum of two Mercedes frames with columns 1 and 4 rotated by theta.

    The rotation is a unitary on the right, so the frame stays exactly tight
    while the cross Gram entries grow like theta.
    """
    F = direct_sum_frames([make_mercedes(), make_mercedes()], b=1.5)
    R = np.eye(6, dtype=complex)
    c, s = math.cos(theta), math.sin(theta)
    R[[0, 0, 3, 3], [0, 3, 0, 3]] = [c, -s, s, c]
    return Frame(F.matrix @ AMatrix(F.spec, 6, 6, (R,)))


def corpus():
    """pytest params (frame, tol); every frame is tight at its tol."""
    cases = []
    for seed, dims in enumerate([(1,), (2,), (1, 1), (2, 1), (3, 1, 2)]):
        spec = AlgebraSpec(dims)
        seed *= 10
        parts = [random_tight_frame(spec, k, n, seed=seed + 2 + i)
                 for i, (k, n) in enumerate([(3, 2), (2, 1), (2, 1)])]
        frames = {
            "random-4x2": random_tight_frame(spec, 4, 2, seed=seed),
            "random-7x4": random_tight_frame(spec, 7, 4, seed=seed + 1),
            "basis-3": Frame(AMatrix.identity(spec, 3)),
            "sum-7x4": direct_sum_frames(parts, 1.0),
        }
        for name, F in frames.items():
            cases.append(pytest.param(F, 1e-9, id=f"{dims}-{name}"))
        pair = [random_tight_frame(spec, 3, 2, 1.5, seed + i) for i in (5, 6)]
        for eps, tol in ((1e-11, 1e-9), (2e-10, 1e-9), (1e-7, 1e-6)):
            F = perturbed_direct_sum(pair, 1.5, eps, np.random.default_rng(seed))
            cases.append(pytest.param(F, tol, id=f"{dims}-perturbed-{eps:g}-tol-{tol:g}"))
    for theta in (1e-9, 2e-9, 3e-9, 5e-9, 1e-8, 3e-8):
        cases.append(pytest.param(rotated_mercedes_sum(theta), 1e-9, id=f"mercedes-theta-{theta:g}"))
    # exactly tight, and on I = {1, 3} F_I F_I* = diag(1, lam): the singular
    # value sqrt(lam) falls under the rank cut at tol 1e-2, so that side's
    # tightness residual is the cut s^2 = lam, not a kept |s^2 - b|
    lam = 1e-5
    cut = np.array([[1.0, 0.0, 0.0], [0.0, math.sqrt(1 - lam), math.sqrt(lam)]])
    cases.append(pytest.param(Frame(AMatrix(AlgebraSpec((1,)), 2, 3, (cut,))), 1e-2, id="cut-singular-value"))
    return cases


@pytest.mark.parametrize("F, tol", corpus())
def test_split_equivalence_matches_reference_on_every_subset(F, tol):
    assert check_tight(F, tol).is_tight
    for size in range(F.k + 1):
        for I in itertools.combinations(range(1, F.k + 1), size):
            rep = split_equivalence(F, I, tol)
            commutes, splits, residuals, threshold = reference_split_equivalence(F, I, tol)
            assert (rep.commutes, rep.splits) == (commutes, splits), I
            assert rep.threshold == threshold
            for name in RESIDUALS:
                assert abs(getattr(rep, name) - residuals[name]) <= 1e-12, (I, name)


def test_rotated_mercedes_band_keeps_its_verdicts():
    # the band between the edge and the split thresholds (commutes but does
    # not split at theta = 3e-9) is still open; the verdicts must not move
    verdicts = []
    for theta in (1e-9, 3e-9, 3e-8):
        rep = split_equivalence(rotated_mercedes_sum(theta), [1, 2, 3])
        verdicts.append((rep.commutes, rep.splits))
        assert rep.threshold == 1e-9 * 1.5 * 6
    assert verdicts == [(True, True), (True, False), (False, False)]


def array_rank(s, tol):
    return int(np.count_nonzero(s > tol * max(1.0, float(s[0]))))


def _sides(F, I):
    """The summand blocks of the columns in I and of the rest, None for no columns."""
    labels = set(I)
    mask = np.array([i in labels for i in range(1, F.k + 1)], dtype=bool)
    return tuple(
        F.matrix.select_columns(np.flatnonzero(keep)).blocks if keep.any() else None
        for keep in (mask, ~mask)
    )


def _norm2(a):
    return float(np.linalg.svd(a, compute_uv=False)[0])


def array_split_equivalence(F, I, tol=1e-9):
    b = check_tight(F, tol).b
    threshold = tol * (max(1.0, b) * max(1.0, float(F.k)))
    sides = _sides(F, I)
    present = [(side, blocks) for side, blocks in enumerate(sides) if blocks is not None]

    comm = max(_norm2(y.conj().T @ yc) for y, yc in zip(*sides)) if len(present) == 2 else 0.0
    overlap = closure = 0.0
    tight = [0.0, 0.0]
    for j, x in enumerate(F.matrix.blocks):
        bases = []
        for side, blocks in present:
            u, s, _ = np.linalg.svd(blocks[j], full_matrices=False)
            r = array_rank(s, tol)
            eig = s * s
            eig[:r] -= b
            tight[side] = max(tight[side], float(np.abs(eig).max()))
            bases.append(u[:, :r])
        w = np.hstack(bases) if len(bases) == 2 else bases[0]
        gap = w @ w.conj().T
        gap.flat[:: x.shape[0] + 1] -= 1.0
        ev = np.linalg.eigvalsh(gap)
        closure = max(closure, float(np.abs(ev).max()))
        if len(bases) == 2 and bases[0].shape[1] and bases[1].shape[1]:
            overlap = max(overlap, float(ev[-1]))
    sub_res, comp_res = tight
    return SplitEquivalenceReport(
        commutes=comm <= threshold,
        splits=all(v <= threshold for v in (sub_res, comp_res, overlap, closure)),
        commutation_residual=comm,
        sub_tight_residual=sub_res,
        comp_tight_residual=comp_res,
        range_overlap=overlap,
        closure_residual=closure,
        threshold=threshold,
    )


def array_range_constant(F, I, tol=1e-9):
    per_b = []
    for y in restrict(F, I).matrix.blocks:
        rank = array_rank(np.linalg.svd(y, compute_uv=False), tol)
        if rank:
            per_b.append(float(np.vdot(y, y).real) / rank)
    return float(np.mean(per_b)) if per_b else 0.0


def _subsets(k):
    for size in range(k + 1):
        yield from itertools.combinations(range(1, k + 1), size)


def with_zero_column(F):
    """F with a zero column appended: still tight, and a side holding only
    that column has the zero range."""
    blocks = tuple(np.hstack((y, np.zeros((y.shape[0], m))))
                   for y, m in zip(F.matrix.blocks, F.spec.summand_dims))
    return Frame(AMatrix(F.spec, F.n, F.k + 1, blocks))


BIT_CORPUS = corpus() + [
    pytest.param(F, 1e-9, id=f"selftest-{i}") for i, F in enumerate(_equivalence_corpus(8))
] + [
    pytest.param(with_zero_column(random_tight_frame(AlgebraSpec(dims), k, n, seed=3)), 1e-9,
                 id=f"{dims}-zero-column")
    for dims, k, n in (((1,), 5, 3), ((2, 1), 4, 2))
]


@pytest.mark.parametrize("F, tol", BIT_CORPUS)
def test_split_reports_and_range_constants_equal_the_array_bodies_bit_for_bit(F, tol):
    for I in _subsets(F.k):
        rep = split_equivalence(F, I, tol)
        ref = array_split_equivalence(F, I, tol)
        # repr tells -0.0 from 0.0, which == does not
        assert rep == ref and repr(rep) == repr(ref), I
        if I:
            got, want = range_constant(F, I, tol), array_range_constant(F, I, tol)
            assert got.hex() == want.hex(), I


@pytest.mark.parametrize("F, tol", BIT_CORPUS)
def test_commutation_residual_equals_the_array_reference_bit_for_bit(F, tol):
    # analyze prints commutation_residual(F, block) for each block, so this
    # pins its per-block residual together with the split pass: the largest
    # over the summands of ||y* yc||, 0.0 for an empty side
    for I in _subsets(F.k):
        sides = _sides(F, I)
        if sides[0] is None or sides[1] is None:
            want = 0.0
        else:
            want = max(_norm2(y.conj().T @ yc) for y, yc in zip(*sides))
        got = commutation_residual(F, I)
        assert (type(got), repr(got)) == (float, repr(want)), I
        assert got == split_equivalence(F, I, tol).commutation_residual, I


@pytest.mark.parametrize("F, tol", corpus()[:4] + BIT_CORPUS[-2:])
def test_split_queries_build_no_matrices(F, tol, monkeypatch):
    # once check_tight is memoized, a query gathers its column sides as bare
    # summand blocks: no AMatrix is built, and every AMatrix, an
    # operation's result too, passes through the constructor
    check_tight(F, tol)
    built = Counter()
    post_init = AMatrix.__post_init__

    def counted_post_init(self):
        built["AMatrix"] += 1
        post_init(self)

    monkeypatch.setattr(AMatrix, "__post_init__", counted_post_init)
    for I in _subsets(F.k):
        split_equivalence(F, I, tol)
    assert built == Counter()
    # the counter sees an operation's result and a builder's
    F.matrix.select_columns([0])
    AMatrix.zeros(F.spec, 1, 1)
    assert built == Counter({"AMatrix": 2})


def overlap_by_svd(F, I, tol):
    """max ||U_r* Uc_rc|| over the summands where both ranges are nonzero,
    None where there is no such summand."""
    sides = _sides(F, I)
    if sides[0] is None or sides[1] is None:
        return None
    norms = []
    for y, yc in zip(*sides):
        bases = []
        for blk in (y, yc):
            u, s, _ = np.linalg.svd(blk, full_matrices=False)
            bases.append(u[:, : array_rank(s, tol)])
        if bases[0].shape[1] and bases[1].shape[1]:
            norms.append(_norm2(bases[0].conj().T @ bases[1]))
    return max(norms, default=None)


@pytest.mark.parametrize("F, tol", BIT_CORPUS)
def test_range_overlap_is_the_norm_of_the_basis_product(F, tol):
    # P + Pc - I has the eigenvalues +-cos of the principal angles, and 1, 0
    # and -1 (Halmos' two subspaces), so once both ranges are nonzero its
    # largest is ||P Pc|| = ||U_r* Uc_rc||; otherwise the overlap stays 0.0
    for I in _subsets(F.k):
        got, want = split_equivalence(F, I, tol).range_overlap, overlap_by_svd(F, I, tol)
        if want is None:
            assert repr(got) == "0.0", I
        else:
            assert abs(got - want) <= 1e-13, I


@pytest.mark.parametrize("thetas", [(1.2, 1.4), (1.5, 1.25), (math.pi / 2,) * 2])
def test_range_overlap_is_the_cosine_of_the_principal_angle(thetas):
    # per summand j, F = [e1, y e2, e^{ij} (cos t_j e1 + sin t_j e3), y e2]
    # times 1_{m_j}, at tol 0.6 > y = 0.55: each side's singular value y is
    # cut, so span{e1} and the third column are the ranges, which meet at
    # the principal angle t_j, and e2 lies in neither.  P + Pc - I then has
    # the eigenvalues +-cos t_j and -1, so the closure reads 1 while the
    # overlap is max_j cos t_j.  FF* has the eigenvalues 1 +- cos t_j and
    # 2 y^2, within tol of b for cos t_j < 0.46 only: in a frame tight to a
    # small tol the two range projections commute, and every principal
    # angle is 0 or pi / 2
    spec, y = AlgebraSpec((1, 2)), 0.55
    grids = []
    for j, (m, t) in enumerate(zip(spec.summand_dims, thetas)):
        f = np.zeros((3, 4), dtype=complex)
        f[0, 0] = 1.0
        f[1, 1] = f[1, 3] = y
        f[:, 2] = np.exp(1j * j) * np.array([math.cos(t), 0.0, math.sin(t)])
        grids.append(np.einsum("ip,ab->ipab", f, np.eye(m)))
    rep = split_equivalence(Frame(AMatrix.from_grids(spec, grids)), [1, 2], tol=0.6)
    assert abs(rep.range_overlap - max(math.cos(t) for t in thetas)) <= 1e-14
    assert abs(rep.closure_residual - 1.0) <= 1e-14


@pytest.mark.parametrize("F, tol", corpus())
def test_lapack_calls_per_query(F, tol, monkeypatch):
    # per summand: an SVD with U of each column side that has columns, one
    # eigvalsh, which also gives the overlap, and the commutator's SVD when
    # both sides have columns; values-only SVDs carry compute_uv=False
    expected = []
    for I in _subsets(F.k):
        present = [blocks for blocks in _sides(F, I) if blocks is not None]
        calls = Counter()
        for j in range(F.spec.num_summands):
            calls["svd with U"] += len(present)
            calls["eigvalsh"] += 1
            calls["svd"] += len(present) == 2
        expected.append(calls)
    check_tight(F, tol)  # memoized on F, so the queries below reuse it

    calls = Counter()
    svd, eigvalsh = np.linalg.svd, np.linalg.eigvalsh

    def counted_svd(*args, **kwargs):
        calls["svd with U" if kwargs.get("compute_uv", True) else "svd"] += 1
        return svd(*args, **kwargs)

    def counted_eigvalsh(*args, **kwargs):
        calls["eigvalsh"] += 1
        return eigvalsh(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted_svd)
    monkeypatch.setattr(np.linalg, "eigvalsh", counted_eigvalsh)
    got = []
    for I in _subsets(F.k):
        calls.clear()
        split_equivalence(F, I, tol)
        got.append(Counter(calls))
    assert got == expected


def reference_check_tight(F, tol):
    S = frame_operator(F)
    per_b = [
        float(np.trace(blk).real) / (F.n * m)
        for m, blk in zip(F.spec.summand_dims, S.blocks)
    ]
    b = float(np.mean(per_b))
    residual = max(np.linalg.norm(blk - b * np.eye(blk.shape[0]), 2) for blk in S.blocks)
    scale = max(1.0, abs(b))
    spread = max(abs(bj - b) for bj in per_b)
    is_tight = residual <= tol * scale and spread <= tol * scale and b > tol
    return ncframes.TightnessReport(b, residual, is_tight, tuple(per_b))


@pytest.mark.parametrize("dims", [(1,), (2,), (1, 1), (2, 1), (3, 1, 2)])
def test_check_tight_equals_frame_operator_reference(dims):
    spec = AlgebraSpec(dims)
    rng = np.random.default_rng(len(dims))
    frames = [random_tight_frame(spec, k, n, b, seed)
              for seed, (k, n, b) in enumerate([(3, 2, 1.0), (6, 4, 2.5), (5, 5, 0.3)])]
    frames += [Frame(AMatrix.random(spec, n, k, rng)) for n, k in [(2, 3), (3, 7), (1, 1)]]
    for F in frames:
        for tol in (1e-9, 1e-2):
            assert check_tight(F, tol) == reference_check_tight(F, tol)


def _canonical(labels):
    groups = {}
    for vertex, label in enumerate(labels):
        groups.setdefault(int(label), []).append(vertex)
    return sorted(groups.values())


@pytest.mark.parametrize("k", [0, 1, 2, 5, 13, 40])
def test_components_match_scipy(k):
    rng = np.random.default_rng(k)
    for density in (0.0, 0.02, 0.08, 0.3, 1.0):
        upper = np.triu(rng.random((k, k)) < density, 1)
        adj = upper | upper.T
        _, labels = connected_components(adj, directed=False)
        assert _components(adj) == _canonical(labels), density
