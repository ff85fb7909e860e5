"""Ortho-decomposition of tight frames and the block-size divisibility lattice.

A tight frame splits across a column subset I exactly when its Gram matrix
F*F commutes with the coordinate projection Q_I; the finest such splitting
is read off as the connected components of the support graph of the Gram
off-diagonal.  One tolerance tol means the same in every verdict here: a
frame is tight when ||FF* - bI|| <= tol * max(1, b) (check_tight), a Gram
entry is an edge when its norm exceeds that same bound (ortho_decompose),
and split_equivalence allows k times it.  Block sizes of a strict-spherical
tight frame are forced to be multiples of k' = k / gcd(k, n), which picks
out the admissible partitions enumerated here.

Index sets and partition blocks use 1-based column labels {1, ..., k}
throughout this module, matching the usual f_1, ..., f_k numbering; the
underlying matrices are 0-indexed.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np
from scipy.sparse.csgraph import connected_components

from .frames import (
    Frame,
    NotTightError,
    check_tight,
    gram_matrix,
)
from .module import AMatrix

__all__ = [
    "Partition",
    "DivisibilityReport",
    "SplitEquivalenceReport",
    "commutation_residual",
    "ortho_decompose",
    "restrict",
    "range_projection",
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
        blocks = tuple(
            tuple(sorted(int(i) for i in blk)) for blk in self.blocks
        )
        blocks = tuple(sorted(blocks, key=lambda blk: blk[0]))
        seen: set[int] = set()
        for blk in blocks:
            if not blk:
                raise ValueError("empty block in partition")
            if seen & set(blk):
                raise ValueError("blocks are not disjoint")
            seen |= set(blk)
        if seen != set(range(1, self.k + 1)):
            raise ValueError(f"blocks do not cover 1..{self.k}")
        object.__setattr__(self, "blocks", blocks)

    @property
    def num_blocks(self) -> int:
        return len(self.blocks)

    def block_sizes(self) -> tuple[int, ...]:
        return tuple(len(blk) for blk in self.blocks)

    def relabeled(self, perm: Sequence[int]) -> "Partition":
        """Apply a relabeling i -> perm[i-1] (perm is a 1-based image list)."""
        return Partition(
            self.k, tuple(tuple(perm[i - 1] for i in blk) for blk in self.blocks)
        )


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

    @property
    def agree(self) -> bool:
        return self.commutes == self.splits


def _to_zero_based(I: Iterable[int], k: int) -> list[int]:
    idx = sorted(set(int(i) for i in I))
    if idx and (idx[0] < 1 or idx[-1] > k):
        raise IndexError(f"index set {idx} out of range for k={k}")
    return [i - 1 for i in idx]


def commutation_residual(F: Frame, I: Iterable[int]) -> float:
    """||Q_I (F*F) - (F*F) Q_I|| for the coordinate projection onto I.

    The commutator has the Gram block F_I* F_{I^c} and minus its adjoint as
    its only nonzero blocks, so its norm is ||F_I* F_{I^c}||, which is what
    is computed; it is 0 when I or its complement is empty.
    """
    idx = _to_zero_based(I, F.k)
    comp = sorted(set(range(F.k)) - set(idx))
    if not idx or not comp:
        return 0.0
    return (F.matrix.select_columns(idx).H @ F.matrix.select_columns(comp)).norm()


def ortho_decompose(F: Frame, tol: float = 1e-9) -> Partition:
    """Finest splitting of a tight frame into mutually orthogonal column groups.

    Raises NotTightError unless check_tight(F, tol) passes.  Columns i and j
    are joined when ||<f_i, f_j>|| exceeds tol * max(1, b), the bound that
    check_tight held ||FF* - bI|| to, and the blocks are the connected
    components of that graph.  A union I of blocks then has commutation
    residual at most (k / 2) * tol * max(1, b), within split_equivalence's
    bound, since every entry of F_I* F_{I^c} is a dropped edge.
    """
    report = check_tight(F, tol)
    if not report.is_tight:
        raise NotTightError(report.residual, tol)
    adj = gram_matrix(F).entry_norms() > tol * max(1.0, report.b)
    np.fill_diagonal(adj, False)
    num, labels = connected_components(adj, directed=False)
    blocks = [
        tuple(int(i) + 1 for i in np.nonzero(labels == c)[0]) for c in range(num)
    ]
    return Partition(F.k, tuple(blocks))


def restrict(F: Frame, I: Iterable[int]) -> Frame:
    """Sub-frame of the columns indexed by I (1-based), order preserved."""
    idx = _to_zero_based(I, F.k)
    if not idx:
        raise ValueError("cannot restrict to an empty index set")
    return Frame(F.matrix.select_columns(idx))


def range_projection(F: Frame, tol: float = 1e-9) -> AMatrix:
    """Orthogonal projection onto the column space of F, per summand.

    Computed from the SVD of each summand block of the frame matrix with
    singular values below tol * max(1, s_max) treated as zero.
    """
    blocks = []
    for blk in F.matrix.blocks:
        u, s, _ = np.linalg.svd(blk, full_matrices=False)
        if s.size:
            rank = int(np.sum(s > tol * max(1.0, s[0])))
        else:
            rank = 0
        ur = u[:, :rank]
        blocks.append(ur @ ur.conj().T)
    return AMatrix(F.spec, F.n, F.n, tuple(blocks))


def _tight_on_range_residual(
    sub: Frame | None, b: float, P: AMatrix
) -> float:
    """||Fsub Fsub* - b P|| per summand, maximized; empty sub means Fsub = 0."""
    if sub is None:
        return b * P.norm()
    S = sub.matrix @ sub.matrix.H
    return (S - b * P).norm()


def split_equivalence(
    F: Frame, I: Iterable[int], tol: float = 1e-9
) -> SplitEquivalenceReport:
    """Evaluate both sides of the splitting criterion for a column subset.

    Left side: the Gram matrix commutes with Q_I within tolerance.  Right
    side, computed independently: the columns in I form a tight frame with
    the same constant b on the range of their own projection, the
    complementary columns do the same on an orthogonal range, and the two
    range projections sum to the identity.
    """
    report = check_tight(F, tol)
    if not report.is_tight:
        raise NotTightError(report.residual, tol)
    b = report.b
    k = F.k
    idx = sorted(set(int(i) for i in I))
    comp = sorted(set(range(1, k + 1)) - set(idx))
    scale = max(1.0, b) * max(1.0, float(k))
    threshold = tol * scale

    comm = commutation_residual(F, idx)
    commutes = comm <= threshold

    zero = AMatrix.zeros(F.spec, F.n, F.n)
    if idx:
        sub = restrict(F, idx)
        P = range_projection(sub, tol)
    else:
        sub, P = None, zero
    if comp:
        csub = restrict(F, comp)
        Pc = range_projection(csub, tol)
    else:
        csub, Pc = None, zero

    sub_res = _tight_on_range_residual(sub, b, P)
    comp_res = _tight_on_range_residual(csub, b, Pc)
    overlap = (P @ Pc).norm()
    eye = AMatrix.identity(F.spec, F.n)
    closure = (P + Pc - eye).norm()
    splits = (
        sub_res <= threshold
        and comp_res <= threshold
        and overlap <= threshold
        and closure <= threshold
    )
    return SplitEquivalenceReport(
        commutes=commutes,
        splits=splits,
        commutation_residual=comm,
        sub_tight_residual=sub_res,
        comp_tight_residual=comp_res,
        range_overlap=overlap,
        closure_residual=closure,
    )


def divisibility_check(p: Partition, k: int, n: int) -> DivisibilityReport:
    """Flag each block whose size is a multiple of k' = k / gcd(k, n)."""
    if p.k != k:
        raise ValueError(f"partition is over {p.k} elements, expected {k}")
    d = math.gcd(k, n)
    kprime = k // d
    flags = tuple(len(blk) % kprime == 0 for blk in p.blocks)
    return DivisibilityReport(d, kprime, flags)


def enumerate_partitions(k: int, kprime: int) -> list[Partition]:
    """All partitions of {1, ..., k} with every block size a multiple of kprime.

    Canonical order: each block is listed with its elements ascending,
    blocks are ordered by smallest element, and the partitions themselves
    come out sorted lexicographically.
    """
    if kprime < 1 or k % kprime != 0:
        raise ValueError(f"kprime={kprime} does not divide k={k}")

    def grow(remaining: tuple[int, ...]):
        if not remaining:
            yield ()
            return
        anchor, rest = remaining[0], remaining[1:]
        for size in range(kprime, len(remaining) + 1, kprime):
            for extra in itertools.combinations(rest, size - 1):
                block = (anchor,) + extra
                left = tuple(i for i in rest if i not in set(extra))
                for tail in grow(left):
                    yield (block,) + tail

    parts = [Partition(k, blocks) for blocks in grow(tuple(range(1, k + 1)))]
    parts.sort(key=lambda p: p.blocks)
    return parts


def count_partitions(k: int, kprime: int) -> int:
    """len(enumerate_partitions(k, kprime)), without building the partitions.

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
    partition into the parts' column groups.
    """
    if not parts:
        raise ValueError("need at least one frame")
    spec = parts[0].spec
    for part in parts:
        if part.spec != spec:
            raise ValueError("parts live over different algebras")
        report = check_tight(part, tol)
        if not report.is_tight or abs(report.b - b) > tol * max(1.0, b):
            raise NotTightError(report.residual, tol)
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
