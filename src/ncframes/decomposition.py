"""Ortho-decomposition of tight frames and the block-size divisibility lattice.

A tight frame splits across a column subset I exactly when its Gram matrix
F*F commutes with the coordinate projection Q_I; the finest such splitting
is read off as the connected components (a breadth-first search) of the
support graph of the Gram off-diagonal.  split_equivalence measures both
sides of that equivalence for one subset in one loop over the summands.
Per summand it gathers the two column sides of the subset's mask as bare
blocks (module._column_sides), and takes the commutator norm ||F_I* F_Ic||
for one side of the equivalence; for the other, one spectrum per column
side (_side_spectrum: the SVD giving its range, rank and tightness on that
range), then one eigvalsh of P + Pc - I, for the range projections P and
Pc.  Each residual is folded into its running maximum.  The eigvalsh's
ends give how far P + Pc falls short of the identity, and its largest
value is also the overlap ||P Pc|| of the two ranges: by Halmos'
two-subspace theorem (Trans. AMS 144, 1969) the eigenvalues of
P + Pc - I are +-cos of the principal angles between the ranges,
together with 1, 0 and -1.  One tolerance tol means the same in
every verdict here: a frame is tight when ||FF* - bI|| <= tol * max(1, b)
(check_tight), a Gram entry is an edge when its norm exceeds that same
bound (ortho_decompose), and split_equivalence allows k times it.  An edge
is decided per summand from the bracket ||X||_2 <= ||X||_F <= sqrt(m) ||X||_2
on the entry's m x m block X: a Frobenius norm at most the bound, or
above sqrt(m) times it, settles the entry, and only the entries in between
pay for an SVD, so the graph is exactly the one the entry norms give.  The
block sizes of a strict-spherical tight frame are proved to be multiples of
k' = k / gcd(k, n), which picks out the admissible partitions enumerated
here, when some summand of A is 1 x 1; over M_2 a frame with k = 8, n = 3
has blocks of 4, and k'' = lcm_j k / gcd(k, n m_j) is the general divisor
(ROADMAP.md, item 1).

Index sets and partition blocks use 1-based column labels {1, ..., k}
throughout this module, matching the usual f_1, ..., f_k numbering; the
underlying matrices are 0-indexed.  A label is an int or a numpy integer: a
bool, float or str raises TypeError instead of naming a column.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .algebra import (
    Verdict, _as_int, _check_positive, _scaled_tol, _spectral_norm, _spectral_norms,
)
from .frames import (
    Frame,
    NotTightError,
    _require_tight,
    check_tight,
    gram_matrix,
)
from .module import AMatrix, _column_sides

__all__ = [
    "Partition",
    "DivisibilityReport",
    "SplitEquivalenceReport",
    "commutation_residual",
    "ortho_decompose",
    "restrict",
    "range_constant",
    "split_equivalence",
    "divisibility_check",
    "enumerate_partitions",
    "count_partitions",
    "direct_sum_frames",
]


@dataclass(frozen=True)
class Partition:
    """A partition of {1, ..., k} into disjoint blocks, canonically ordered."""

    k: int
    blocks: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        k = _as_int(self.k, "partition size k")
        if k < 0:  # k = 0 has the one empty partition
            raise ValueError(f"partition size k {k} is negative")
        blocks = tuple(
            tuple(sorted(_as_int(i, "column label") for i in blk)) for blk in self.blocks
        )
        if not all(blocks):
            raise ValueError("empty block in partition")
        labels = [i for blk in blocks for i in blk]
        if len(set(labels)) != len(labels):
            raise ValueError("blocks are not disjoint")
        if set(labels) != set(range(1, k + 1)):
            raise ValueError(f"blocks do not cover 1..{k}")
        object.__setattr__(self, "k", k)
        # disjoint blocks sort by their smallest label
        object.__setattr__(self, "blocks", tuple(sorted(blocks)))


@dataclass(frozen=True)
class DivisibilityReport:
    d: int
    kprime: int
    per_block: tuple[bool, ...]

    @property
    def all_divisible(self) -> bool:
        return all(self.per_block)


@dataclass(frozen=True)
class SplitEquivalenceReport:
    """Both sides of the commutation/splitting equivalence for one subset."""

    commutes: bool
    splits: bool
    commutation_residual: float
    sub_tight_residual: float
    comp_tight_residual: float
    range_overlap: float
    closure_residual: float
    threshold: float  # tol * max(1, b) * k, the bound of every verdict

    @property
    def agree(self) -> bool:
        return self.commutes == self.splits


def _column_mask(I: Iterable[int], k: int) -> np.ndarray:
    """The boolean mask over columns 0, ..., k - 1 of the 1-based labels I."""
    labels = {_as_int(i, "column label") for i in I}
    if labels and (min(labels) < 1 or max(labels) > k):
        raise IndexError(f"index set {sorted(labels)} out of range for k={k}")
    return np.array([i in labels for i in range(1, k + 1)], dtype=bool)


def commutation_residual(F: Frame, I: Iterable[int]) -> float:
    """||Q_I (F*F) - (F*F) Q_I|| for the coordinate projection onto I.

    The commutator has the Gram block F_I* F_{I^c} and minus its adjoint as
    its only nonzero blocks, so its norm is ||F_I* F_{I^c}||, the largest
    over the summands; it is 0 when I or its complement is empty.
    """
    mask = _column_mask(I, F.k)
    if mask.all() or not mask.any():
        return 0.0
    return max(_spectral_norm(y.conj().T @ yc) for y, yc in _column_sides(F.matrix, mask))


def ortho_decompose(F: Frame, tol: float = 1e-9) -> Partition:
    """Finest splitting of a tight frame into mutually orthogonal column groups.

    Raises NotTightError unless check_tight(F, tol) passes.  Columns i and j
    are joined when ||<f_i, f_j>|| exceeds tol * max(1, b), the bound that
    check_tight held ||FF* - bI|| to, and the blocks are the connected
    components of that graph.  A union I of blocks then has commutation
    residual at most (k / 2) * tol * max(1, b), within split_equivalence's
    bound, since every entry of F_I* F_{I^c} is a dropped edge.
    """
    report = _require_tight(check_tight(F, tol))
    adj = _edges(gram_matrix(F), _scaled_tol(tol, report.b))
    np.fill_diagonal(adj, False)
    blocks = [tuple(i + 1 for i in blk) for blk in _components(adj)]
    return Partition(F.k, tuple(blocks))


# Relative slack on both ends of the Frobenius bracket in _edges: far above
# the few ulps of roundoff in either norm, so no entry the bracket settles
# could fall on the other side of t by its singular value.
_BRACKET_MARGIN = 1e-12


def _edges(G: AMatrix, t: float) -> np.ndarray:
    """G.entry_norms() > t, with an SVD only where the bracket cannot decide.

    Per summand, an m x m entry X has ||X||_2 <= ||X||_F <= sqrt(m) ||X||_2,
    so ||X||_F <= t settles ||X||_2 <= t and ||X||_F > sqrt(m) t settles
    ||X||_2 > t.  The entries are divided by t before squaring, so neither
    test underflows or overflows near the bound.
    """
    adj = np.zeros((G.rows, G.cols), dtype=bool)
    for m, g in zip(G.spec.summand_dims, G.grids):
        z = g / t
        fro = np.sqrt(np.sum(z.real**2 + z.imag**2, axis=(2, 3)))
        adj |= fro > math.sqrt(m) * (1.0 + _BRACKET_MARGIN)
        undecided = ~adj & (fro > 1.0 - _BRACKET_MARGIN)
        if undecided.any():
            adj[undecided] = _spectral_norms(g[undecided]) > t
    return adj


def _components(adj: np.ndarray) -> list[list[int]]:
    """Connected components of a symmetric boolean adjacency matrix.

    Breadth-first search, one frontier per step; each component is listed
    ascending, the components in order of their smallest vertex.
    """
    seen = np.zeros(adj.shape[0], dtype=bool)
    components = []
    for start in range(adj.shape[0]):
        if seen[start]:
            continue
        seen[start] = True
        frontier = [start]
        component = [start]
        while frontier:
            frontier = np.flatnonzero(adj[frontier].any(axis=0) & ~seen).tolist()
            seen[frontier] = True
            component += frontier
        components.append(sorted(component))
    return components


def restrict(F: Frame, I: Iterable[int]) -> Frame:
    """Sub-frame of the columns labelled I (1-based), ascending, repeats dropped."""
    mask = _column_mask(I, F.k)
    if not mask.any():
        raise ValueError("cannot restrict to an empty index set")
    return Frame(F.matrix.select_columns(np.flatnonzero(mask)))


def _side_spectrum(y: np.ndarray, tol: float, b: float) -> tuple[int, float, np.ndarray]:
    """(rank, residual, U_r) of a summand block y of one column side, from
    one SVD y = U S V* and one pass over its descending singular values.

    The rank r counts the values above tol * max(1, s_max); the rest count
    as zero, and U_r, the leading r left singular vectors, spans the
    block's range.  The residual is max(|s_i^2 - b| over the kept values,
    s_i^2 over the rest), the largest |eigenvalue| of y y* - b P for P the
    projection onto that range.  Python floats round as numpy's float64
    does, so this equals the array arithmetic bit for bit.
    """
    u, s, _ = np.linalg.svd(y, full_matrices=False)
    values = s.tolist()
    cut = _scaled_tol(tol, values[0])
    rank = 0
    residual = 0.0
    for v in values:
        sq = v * v
        if v > cut:  # LAPACK sorts s descending, so the kept values lead
            rank += 1
            sq = abs(sq - b)
        if sq > residual:
            residual = sq
    return rank, residual, u[:, :rank]


def range_constant(F: Frame, I: Iterable[int], tol: float = 1e-9) -> float:
    """The constant b of the columns I as a tight frame on their own range.

    Per summand, trace(F_I F_I*) divided by the rank of F_I (by
    _side_spectrum), averaged over the summands where that rank is
    positive; 0.0 when it is zero in all of them.  For the columns of a
    block of a tight frame's ortho-decomposition this is the frame's b,
    where check_tight(restrict(F, I)) would divide by the full n * m_j.
    """
    _check_positive(tol, "tol")
    blocks = restrict(F, I).matrix.blocks
    ranks = [_side_spectrum(y, tol, 0.0)[0] for y in blocks]
    per_b = [float(np.vdot(y, y).real) / r for y, r in zip(blocks, ranks) if r]
    return float(np.mean(per_b)) if per_b else 0.0


def split_equivalence(
    F: Frame, I: Iterable[int], tol: float = 1e-9
) -> SplitEquivalenceReport:
    """Evaluate both sides of the splitting criterion for a column subset.

    Left side: the Gram matrix commutes with Q_I within tolerance.  Right
    side, computed independently: the columns in I form a tight frame with
    the same constant b on the range of their own projection, the
    complementary columns do the same on an orthogonal range, and the two
    range projections sum to the identity.  Every residual is compared
    against threshold = tol * max(1, b) * k.

    One loop over the summands.  Per summand, both column sides come from
    the column mask as bare blocks (module._column_sides), F_I = U S V*
    and F_Ic = Uc Sc Vc* are their SVDs (_side_spectrum), r and rc their
    ranks (singular values above tol * max(1, s_max)), and
    P = U_r U_r*, Pc = Uc_rc Uc_rc* the projections onto their ranges:

    - commutation_residual: ||F_I* F_Ic||, the norm of Q_I G - G Q_I;
    - range_overlap: ||P Pc|| = ||U_r* Uc_rc||, read as the largest
      eigenvalue of P + Pc - I when both ranges are nonzero, and 0.0 when
      either is zero.  By Halmos' two-subspace theorem those eigenvalues
      are +-cos of the principal angles between the ranges, 1 on their
      intersection, 0 where one range meets the other's complement and -1
      off both, so with both ranges nonzero the largest is ||P Pc||;
    - sub_tight_residual and comp_tight_residual: the largest |eigenvalue|
      of F_I F_I* - b P and of F_Ic F_Ic* - b Pc.  F_I F_I* = U S^2 U* and
      P = U_r U_r* share eigenvectors, so the eigenvalues are
      {s_i^2 - b}_{i<r} together with {s_i^2}_{i>=r} (and zeros), read off
      the singular values without forming either matrix;
    - closure_residual: the largest |eigenvalue| of P + Pc - I, from the
      same eigvalsh.  It is measured, not derived from the ranks and the
      overlap, since it is the check that the two ranges fill A^n.

    Each is folded into its running maximum over the summands.  An empty
    side has no columns and a zero projection, so it contributes 0 to
    every residual but closure.
    """
    b = _require_tight(check_tight(F, tol)).b
    threshold = _scaled_tol(tol, b, F.k)
    comm = sub_res = comp_res = overlap = closure = 0.0
    for y, yc in _column_sides(F.matrix, _column_mask(I, F.k)):
        rank = rank_c = 0
        if y is not None:
            rank, res, w = _side_spectrum(y, tol, b)
            sub_res = max(sub_res, res)
        if yc is not None:
            rank_c, res, wc = _side_spectrum(yc, tol, b)
            comp_res = max(comp_res, res)
            if y is None:
                w = wc
            else:
                comm = max(comm, _spectral_norm(y.conj().T @ yc))
                w = np.concatenate((w, wc), axis=1)
        gap = w @ w.conj().T  # P + Pc, as [U_r Uc_rc][U_r Uc_rc]*
        gap.flat[:: len(gap) + 1] -= 1.0
        ev = np.linalg.eigvalsh(gap)  # ascending, so its largest |value| is at an end
        closure = max(closure, float(max(-ev[0], ev[-1])))
        if rank and rank_c:  # both ranges nonzero
            overlap = max(overlap, float(ev[-1]))

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


def divisibility_check(p: Partition, k: int, n: int) -> DivisibilityReport:
    """Flag each block whose size is a multiple of k' = k / gcd(k, n).

    For a strict-spherical tight frame every flag holds when some summand of
    A is 1 x 1.  Over summands that are all larger the rule is not proved and
    can fail; item 1 of ROADMAP.md gives k'' = lcm_j k / gcd(k, n m_j).
    """
    if p.k != k:
        raise ValueError(f"partition is over {p.k} elements, expected {k}")
    d = math.gcd(k, n)
    kprime = k // d
    flags = tuple(len(blk) % kprime == 0 for blk in p.blocks)
    return DivisibilityReport(d, kprime, flags)


def enumerate_partitions(k: int, kprime: int) -> Iterator[Partition]:
    """Iterate over the partitions of {1, ..., k} into blocks of sizes kprime * j.

    Canonical order: each block is listed with its elements ascending,
    blocks are ordered by smallest element, and the partitions themselves
    come out sorted lexicographically.  The block holding the smallest
    element is chosen from one itertools.combinations stream per admissible
    size; each stream is lexicographic and a prefix sorts first, so
    heapq.merge of the streams yields the blocks in lexicographic order
    without storing or sorting them, and builds only blocks of an allowed
    size.
    """
    if kprime < 1 or k % kprime != 0:
        raise ValueError(f"kprime={kprime} does not divide k={k}")

    def grow(remaining: tuple[int, ...]):
        if not remaining:
            yield ()
            return
        anchor, rest = remaining[0], remaining[1:]
        sizes = range(kprime, len(remaining) + 1, kprime)
        for extra in heapq.merge(*(itertools.combinations(rest, s - 1) for s in sizes)):
            taken = set(extra)
            left = tuple(i for i in rest if i not in taken)
            for tail in grow(left):
                yield ((anchor,) + extra,) + tail

    # a generator expression, so that a bad kprime raises at the call
    return (Partition(k, blocks) for blocks in grow(tuple(range(1, k + 1))))


def count_partitions(k: int, kprime: int) -> int:
    """How many partitions enumerate_partitions(k, kprime) yields, by recurrence.

    The block holding element 1 has some size s = j * kprime; choosing its
    other s - 1 elements and partitioning the remaining k - s gives
    a(k) = sum_j C(k - 1, s - 1) * a(k - s) with a(0) = 1, in exact integers.
    """
    if k < 0 or kprime < 1 or k % kprime != 0:
        raise ValueError(f"kprime={kprime} does not divide k={k}")
    counts = [1]  # counts[i]: admissible partitions of i * kprime elements
    for i in range(1, k // kprime + 1):
        size = i * kprime
        counts.append(
            sum(
                math.comb(size - 1, j * kprime - 1) * counts[i - j]
                for j in range(1, i + 1)
            )
        )
    return counts[-1]


def direct_sum_frames(
    parts: Sequence[Frame], b: float, tol: float = 1e-9
) -> Frame:
    """Embed tight frames on A^{n_i} block-diagonally into one frame.

    Every part must be tight with the same constant b; the result is tight
    with that constant and its ortho-decomposition refines (or equals) the
    partition into the parts' column groups.  A part tight with another
    constant raises NotTightError naming |b_part - b| against tol * max(1, b).
    """
    _check_positive(b, "frame constant b")
    if not parts:
        raise ValueError("need at least one frame")
    spec = parts[0].spec
    for part in parts:
        if part.spec != spec:
            raise ValueError("parts live over different algebras")
        report = _require_tight(check_tight(part, tol))
        mismatch = Verdict("|b_part - b|", abs(report.b - b), _scaled_tol(tol, b))
        if not mismatch.holds:
            raise NotTightError(mismatch, mismatch.measured)
    n_total = sum(p.n for p in parts)
    k_total = sum(p.k for p in parts)
    out = AMatrix.zeros(spec, n_total, k_total)
    r0 = c0 = 0
    for part in parts:
        for dst, src in zip(out.grids, part.matrix.grids):
            dst[r0 : r0 + part.n, c0 : c0 + part.k] = src
        r0 += part.n
        c0 += part.k
    return Frame(out)
