"""check_tight's per-frame memo: reused while the frame's bytes are unchanged,
recomputed after any write, kept per tol and never shared between frames."""

import itertools

import pytest

from ncframes import AlgebraSpec, Frame, check_tight, frames, random_tight_frame, split_equivalence
from test_split_pass import reference_check_tight


@pytest.fixture
def frame():
    return random_tight_frame(AlgebraSpec((2, 1)), 5, 3, 1.25, seed=3)


def test_repeated_check_reuses_the_report(frame):
    first = check_tight(frame)
    assert check_tight(frame) is first
    assert first == reference_check_tight(frame, 1e-9)


def test_write_through_grids_gives_a_fresh_report(frame):
    before = check_tight(frame)
    assert before.is_tight
    frame.matrix.grids[0][0, 0] *= 2.0  # the grids are views of the blocks
    after = check_tight(frame)
    assert after == reference_check_tight(frame, 1e-9)
    assert not after.is_tight and after != before


def test_each_tol_has_its_own_entry(frame):
    frame.matrix.grids[1][1, 2] += 1e-6  # tight at 1e-2 but not at 1e-9
    reports = {tol: check_tight(frame, tol) for tol in (1e-9, 1e-2)}
    assert set(frame._tightness) == {1e-9, 1e-2}
    for tol, report in reports.items():
        assert report == reference_check_tight(frame, tol)
    assert [reports[tol].is_tight for tol in (1e-9, 1e-2)] == [False, True]


def test_copy_starts_with_an_empty_memo(frame):
    report = check_tight(frame)
    copy = Frame(frame.matrix)
    assert copy._tightness == {}
    assert copy == frame
    assert check_tight(copy) == report


def test_split_pass_measures_the_frame_once(frame, monkeypatch):
    # one spectral norm per summand for the whole frame, however many
    # subsets are tested against it
    calls = []
    real = frames._spectral_norm

    def counted(a):
        calls.append(a.shape)
        return real(a)

    monkeypatch.setattr(frames, "_spectral_norm", counted)
    for size in range(frame.k + 1):
        for I in itertools.combinations(range(1, frame.k + 1), size):
            split_equivalence(frame, I)
    assert len(calls) == frame.spec.num_summands
