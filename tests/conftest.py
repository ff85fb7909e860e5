import math

import numpy as np
import pytest

from ncframes import AlgebraSpec, AMatrix, Frame, direct_sum_frames


@pytest.fixture
def scalar_spec():
    return AlgebraSpec((1,))


@pytest.fixture
def m2_spec():
    return AlgebraSpec((2,))


@pytest.fixture
def mixed_spec():
    return AlgebraSpec((2, 1))


def make_mercedes(spec=None):
    """Three unit vectors in C^2 at 90, 210, 330 degrees; tight with b = 3/2."""
    if spec is None:
        spec = AlgebraSpec((1,))
    angles = [math.pi / 2, 7 * math.pi / 6, 11 * math.pi / 6]
    grid = [
        [spec.from_scalar(math.cos(a)) for a in angles],
        [spec.from_scalar(math.sin(a)) for a in angles],
    ]
    return Frame(AMatrix.from_entries(grid))


@pytest.fixture
def mercedes():
    return make_mercedes()


def perturbed_direct_sum(parts, b, eps, rng=None):
    """Direct sum of two equal-shape tight frames plus eps * P with ||P|| = 1.

    P is C = [[0, F_a], [F_b, 0]], plus a standard Gaussian draw when rng is
    given, scaled to norm 1.  C writes each part's columns into the other's
    rows, so alone it makes the cross Gram block
    eps (F_a* F_a + F_b* F_b) / ||C||.
    """
    F = direct_sum_frames(parts, b)
    n, k = parts[0].n, parts[0].k
    P = AMatrix.zeros(F.spec, F.n, F.k)
    for dst, fa, fb in zip(P.grids, parts[0].matrix.grids, parts[1].matrix.grids):
        dst[:n, k:] = fa
        dst[n:, :k] = fb
    if rng is not None:
        P = P + AMatrix.random(F.spec, F.n, F.k, rng)
    return Frame(F.matrix + (eps / P.norm()) * P)


def scalar_frame(columns):
    """Frame over the scalar algebra from a list of columns of complex numbers."""
    spec = AlgebraSpec((1,))
    n = len(columns[0])
    grid = [
        [spec.from_scalar(columns[j][i]) for j in range(len(columns))]
        for i in range(n)
    ]
    return Frame(AMatrix.from_entries(grid))


def enumerate_set_partitions(elements):
    """Independent oracle: all partitions of a list, by recursive insertion."""
    if not elements:
        yield []
        return
    first, rest = elements[0], elements[1:]
    for smaller in enumerate_set_partitions(rest):
        for i in range(len(smaller)):
            yield smaller[:i] + [[first] + smaller[i]] + smaller[i + 1 :]
        yield [[first]] + smaller
