"""One rule per tolerance decision.

Every public function that takes a tol refuses a NaN, infinite or
non-positive one, and every operation that needs a tight frame raises the
same NotTightError, naming the condition that failed and carrying its
threshold as tol.
"""

import inspect
import math

import numpy as np
import pytest

import ncframes
from ncframes import (
    AlgebraSpec,
    AMatrix,
    Frame,
    NotTightError,
    canonical_coisometry,
    canonical_frame,
    check_tight,
    complete_to_unitary,
    direct_sum_frames,
    factorize,
    is_partial_isometry,
    is_spherical,
    is_unitary,
    ortho_decompose,
    random_tight_frame,
    range_constant,
    retract_spherical,
    scalar_definition_check,
    split_equivalence,
)
from ncframes.cli import main

SPEC = AlgebraSpec((2, 1))
F = random_tight_frame(SPEC, 4, 2, 1.0, seed=3)
W = canonical_coisometry(SPEC, 3, 2)
U = AMatrix.identity(SPEC, 3)

# one valid call per public function (or method) with a tol parameter
CALLS = {
    "check_tight": lambda tol: check_tight(F, tol),
    "is_spherical": lambda tol: is_spherical(F, tol),
    "is_unitary": lambda tol: is_unitary(U, tol),
    "is_partial_isometry": lambda tol: is_partial_isometry(W, tol),
    "complete_to_unitary": lambda tol: complete_to_unitary(W, tol),
    "canonical_frame": lambda tol: canonical_frame(SPEC, 3, 2, 1.0, U, tol),
    "factorize": lambda tol: factorize(F, tol),
    "ortho_decompose": lambda tol: ortho_decompose(F, tol),
    "split_equivalence": lambda tol: split_equivalence(F, [1], tol),
    "direct_sum_frames": lambda tol: direct_sum_frames([F], 1.0, tol),
    "range_constant": lambda tol: range_constant(F, [1, 2], tol),
    "retract_spherical": lambda tol: retract_spherical(F, 0.5, tol),
    "scalar_definition_check": lambda tol: scalar_definition_check(F, 1.0, 4, 0, tol),
    "AMatrix.is_positive": lambda tol: U.is_positive(tol),
}


def _takes_tol(func) -> bool:
    return inspect.isfunction(func) and "tol" in inspect.signature(func).parameters


def _public_tol_callables() -> set[str]:
    names = set()
    for name, value in vars(ncframes).items():
        if name.startswith("_") or inspect.ismodule(value):
            continue
        if _takes_tol(value):
            names.add(name)
        if inspect.isclass(value):
            names.update(
                f"{name}.{attr}"
                for attr, member in vars(value).items()
                if not attr.startswith("_") and _takes_tol(member)
            )
    # allclose compares entries within tol, and tol = 0 asks for equality
    return names - {"AMatrix.allclose"}


def test_sweep_covers_every_public_tol():
    assert _public_tol_callables() == set(CALLS)


@pytest.mark.parametrize("name", sorted(CALLS))
def test_valid_tol_is_accepted(name):
    CALLS[name](1e-9)


@pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1.0])
@pytest.mark.parametrize("name", sorted(CALLS))
def test_invalid_tol_raises(name, tol):
    with pytest.raises(ValueError, match="tol must be finite and positive"):
        CALLS[name](tol)


# every operation that needs a tight frame, called on a frame G
GATES = {
    "factorize": lambda G, tol: factorize(G, tol),
    "ortho_decompose": lambda G, tol: ortho_decompose(G, tol),
    "split_equivalence": lambda G, tol: split_equivalence(G, [1], tol),
    "direct_sum_frames": lambda G, tol: direct_sum_frames([G, G], 100.0, tol),
}


@pytest.mark.parametrize("gate", sorted(GATES))
def test_residual_failure_reports_the_scaled_threshold(gate):
    rng = np.random.default_rng(5)
    tight = random_tight_frame(SPEC, 4, 2, 100.0, seed=1)
    G = Frame(tight.matrix + 1e-6 * AMatrix.random(SPEC, 2, 4, rng))
    tol = 1e-9
    report = check_tight(G, tol)
    assert report.b == pytest.approx(100.0, rel=1e-6) and not report.is_tight
    with pytest.raises(NotTightError) as exc:
        GATES[gate](G, tol)
    assert exc.value.tol == tol * max(1.0, report.b)
    assert exc.value.residual == report.residual
    assert str(exc.value) == (
        f"frame is not tight: residual {report.residual:.3e} exceeds tol {exc.value.tol:.3e}"
    )


@pytest.mark.parametrize("gate", sorted(GATES))
def test_constant_failure_names_b_and_tol(gate):
    G = random_tight_frame(SPEC, 4, 2, 5e-10, seed=1)
    report = check_tight(G, 1e-9)
    assert report.residual <= 1e-9 and not report.is_tight
    with pytest.raises(NotTightError) as exc:
        GATES[gate](G, 1e-9)
    assert exc.value.tol == 1e-9
    assert str(exc.value) == "frame is not tight: b 5.000e-10 is not above tol 1.000e-09"


@pytest.mark.parametrize("rel", [-1e-12, 0.0, 1e-12])
def test_constant_above_tol_is_one_rule(tmp_path, capsys, rel):
    # check_tight's b > tol term, gen's --b and the optimizer's frame
    # constant k r / n all ask the same predicate, so at b = tol (1 + rel)
    # they accept or refuse together
    G = random_tight_frame(SPEC, 4, 2, 1e-3, seed=1)
    b = check_tight(G, 1e-9).b
    tol = b / (1 + rel)
    above = b > tol
    assert above == (rel > 0)
    # G's residual and spread are far below tol, so only the b term decides
    assert check_tight(G, tol).is_tight == above

    out = tmp_path / "f.json"
    code = main(
        ["gen", "--algebra", "2,1", "--k", "4", "--n", "2", "--b", repr(b), "--tol", repr(tol),
         "--out", str(out)]
    )
    err = capsys.readouterr().err
    assert code == (0 if above else 3) and out.exists() == above
    if not above:
        assert f"is not above --tol {tol:g}" in err

    config = ncframes.OptimizerConfig(tight_tol=tol, radius=b)
    if above:
        assert config.radius_for(SPEC, 1, 1) == b
    else:
        with pytest.raises(ValueError, match=f"is not above tight_tol {tol:g}"):
            config.radius_for(SPEC, 1, 1)


# the calls that take a frame constant b beside a frame; direct_sum_frames
# checks it before any part, so a bad b is not reported as a part that is
# not tight with it
B_CALLS = {
    "direct_sum_frames": lambda b: direct_sum_frames([F], b),
    "scalar_definition_check": lambda b: scalar_definition_check(F, b, 4),
}


@pytest.mark.parametrize("b", [math.nan, math.inf, 0.0, -1.0])
@pytest.mark.parametrize("name", sorted(B_CALLS))
def test_invalid_constant_raises(name, b):
    with pytest.raises(ValueError, match="frame constant b must be finite and positive"):
        B_CALLS[name](b)


@pytest.mark.parametrize("num_samples", [0, -1])
def test_scalar_check_refuses_no_samples(num_samples):
    with pytest.raises(ValueError, match="num_samples must be finite and positive"):
        scalar_definition_check(F, 1.0, num_samples)
