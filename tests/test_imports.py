"""The runtime imports numpy and the standard library only, and the public
surface is what the modules' __all__ lists say.

scipy costs more than the rest of `import ncframes.cli` together, so it
stays a test-only dependency: the CLI must run every frame command without
loading it, and no module of the package may import anything else.
"""

import ast
import importlib
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ncframes

PACKAGE = Path(ncframes.__file__).resolve().parent

SCRIPT = """
import contextlib, io, json, sys
from ncframes.cli import main

d = sys.argv[1]
frame, unitary, minimized = d + "/f.json", d + "/u.json", d + "/m.json"
runs = [
    ["gen", "--algebra", "2,1", "--k", "4", "--n", "2", "--seed", "1", "--out", frame],
    ["verify", frame],
    ["analyze", frame],
    ["factorize", frame, "--out", unitary],
    ["minimize", "--algebra", "1", "--k", "3", "--n", "2", "--out", minimized],
]
with contextlib.redirect_stdout(io.StringIO()):
    codes = [main(argv) for argv in runs]
loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
print(json.dumps({"codes": codes, "scipy": loaded}))
"""


def test_cli_commands_leave_scipy_unloaded(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(PACKAGE.parent), env.get("PYTHONPATH", "")])
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(tmp_path)],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["codes"] == [0, 0, 0, 0, 0]
    assert doc["scipy"] == []


def _absolute_imports(path: Path):
    """(line, top-level module) of every non-relative import in a source file."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.split(".")[0]


def test_package_imports_only_stdlib_numpy_and_itself():
    allowed = set(sys.stdlib_module_names) | {"numpy", "ncframes"}
    foreign = [
        f"{path.name}:{line} imports {name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for line, name in _absolute_imports(path)
        if name not in allowed
    ]
    assert foreign == []


# the modules whose __all__ the package namespace re-exports
LIBRARY = ("algebra", "module", "frames", "decomposition", "optimize")


@pytest.mark.parametrize("name", LIBRARY + ("io", "cli"))
def test_every_listed_name_resolves(name):
    mod = importlib.import_module(f"ncframes.{name}")
    assert len(set(mod.__all__)) == len(mod.__all__)
    assert [attr for attr in mod.__all__ if not hasattr(mod, attr)] == []


def test_package_reexports_exactly_the_library_lists():
    listed = {}
    for name in LIBRARY:
        mod = importlib.import_module(f"ncframes.{name}")
        listed.update((attr, getattr(mod, attr)) for attr in mod.__all__)
    public = {
        attr: value
        for attr, value in vars(ncframes).items()
        if not attr.startswith("_") and not inspect.ismodule(value)
    }
    assert sorted(public) == sorted(listed)
    assert all(public[attr] is listed[attr] for attr in listed)


def _owned_nodes(path: Path):
    """(innermost enclosing function, node) of each node inside a function of a source file."""
    owner = {}
    # ast.walk is breadth-first, so an inner function overwrites its outer one
    for func in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner.update((node, func.name) for node in ast.walk(func))
    return [(name, node) for node, name in owner.items()]


def _raise_sites():
    """(file, innermost enclosing function, exception) of each raise in the package."""
    for path in sorted(PACKAGE.glob("*.py")):
        for name, node in _owned_nodes(path):
            if isinstance(node, ast.Raise) and node.exc is not None:
                yield path.name, name, node.exc


def test_each_tolerance_rule_is_raised_in_one_place():
    sites = list(_raise_sites())
    # the "finite and positive" rule lives in algebra._check_positive only
    positive = [
        (path, func) for path, func, exc in sites
        if any(isinstance(n, ast.Constant) and "finite and positive" in str(n.value)
               for n in ast.walk(exc))
    ]
    assert positive == [("algebra.py", "_check_positive")]
    # NotTightError is raised by the tightness gate, and by direct_sum_frames
    # when a part is tight with another constant
    gates = [
        (path, func) for path, func, exc in sites
        if isinstance(exc, ast.Call) and getattr(exc.func, "id", None) == "NotTightError"
    ]
    assert {site for site in gates if site[0] == "frames.py"} == {("frames.py", "_require_tight")}
    assert [site for site in gates if site[0] != "frames.py"] == [
        ("decomposition.py", "direct_sum_frames")
    ]


def test_matrix_shape_rule_is_raised_in_one_place():
    # the constructor and the builders that allocate from rows and cols all
    # refuse a bad shape through module._checked_shape
    sites = [
        (path, func) for path, func, exc in _raise_sites()
        if any(isinstance(n, ast.Constant) and "dimensions must be positive" in str(n.value)
               for n in ast.walk(exc))
    ]
    assert sites == [("module.py", "_checked_shape")]


# the private block helpers of module.py that other modules may call
BLOCK_HELPERS = {"_column_grams", "_scale_columns", "_column_sides"}


def test_only_module_expands_columns_to_block_positions():
    # module.py alone turns column indices into positions inside a summand
    # block: elsewhere no private name is imported from it but BLOCK_HELPERS,
    # and no np.repeat or np.kron expands labels per summand.  Within the
    # package, grids and from_grids are the one map between entries and
    # block positions: no index arithmetic (_spread), no np.block assembly,
    # and the decoders nest by the writer's shape, with no transpose flag
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for node in ast.walk(tree):
            if _identifier(node) == "_spread" or (
                isinstance(node, ast.Attribute) and node.attr == "block"
            ):
                found.append(f"{path.name}:{node.lineno} uses {_identifier(node)}")
            if isinstance(node, ast.FunctionDef) and node.name == "_decode_grids":
                params = [arg.arg for arg in node.args.args + node.args.kwonlyargs]
                if params != ["data", "spec", "shape"]:
                    found.append(f"{path.name}:{node.lineno} _decode_grids takes {params}")
        if path.name == "module.py":
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module == "module":
                found += [
                    f"{path.name}:{node.lineno} imports {alias.name}"
                    for alias in node.names
                    if alias.name.startswith("_") and alias.name not in BLOCK_HELPERS
                ]
            name = getattr(node, "attr", getattr(node, "id", None))
            if name in ("repeat", "kron"):
                found.append(f"{path.name}:{node.lineno} uses {name}")
    assert found == []


def test_only_module_builds_unchecked_matrices():
    # module._trusted skips the public constructor's block count, shape and
    # dtype checks, which hold only for the results of AMatrix operations
    # on valid operands: no other module may import, call or name it
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "module.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [alias.name.rsplit(".", 1)[-1] for alias in node.names]
            else:
                names = [getattr(node, "attr", getattr(node, "id", None))]
            if "_trusted" in names:
                found.append(f"{path.name}:{node.lineno} uses _trusted")
    assert found == []


def test_every_scaled_bound_comes_from_one_function():
    # tol * max(1, |x|) is computed by algebra._scaled_tol alone; the
    # selftest's relative error divides by max(1, |a|^2), which is no bound
    sites = sorted(
        f"{path.name}:{func}"
        for path in sorted(PACKAGE.glob("*.py"))
        for func, node in _owned_nodes(path)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "max"
        and node.args and isinstance(node.args[0], ast.Constant) and node.args[0].value == 1
    )
    assert sites == ["algebra.py:_scaled_tol", "cli.py:_selftest_cstar"]


def _is_tol(node) -> bool:
    """Whether an operand names a tolerance: tol, a name ending in _tol, or a bound."""
    name = getattr(node, "attr", getattr(node, "id", None))
    return name is not None and (name in ("tol", "bound") or name.endswith("_tol"))


def test_every_floor_above_a_tol_is_verdict_holds():
    # the strict floor x > tol is written once, in algebra.Verdict.holds:
    # check_tight's b, is_spherical's r, gen's --b, the optimizer's k r / n
    # and the pivots of complete_to_unitary all ask a floor Verdict.
    # is_positive's Hermitian test is a ceiling written "not x <= tol", so
    # that the NaN defect of a non-finite block fails it
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for func, node in _owned_nodes(path):
            if not isinstance(node, ast.Compare):
                continue
            # the operand held below: right of a >, left of a <
            operands = [node.left, *node.comparators]
            floors = [x for op, x in zip(node.ops, operands[1:]) if isinstance(op, ast.Gt)]
            floors += [x for op, x in zip(node.ops, operands) if isinstance(op, ast.Lt)]
            if any(map(_is_tol, floors)):
                found.append(f"{path.name}:{func}")
    assert sorted(found) == ["algebra.py:holds"]


def test_tolerance_failures_are_raised_from_verdicts():
    from ncframes.algebra import Verdict
    from ncframes.frames import NotTightError, _require_tight
    from ncframes.module import NotCoisometricError

    # the tightness gate reads the failed verdict off the report, with no tol
    # to recompute a bound from
    assert list(inspect.signature(_require_tight).parameters) == ["report"]
    # both errors are built from the verdict that failed, which names itself
    for error in (NotTightError, NotCoisometricError):
        first = next(iter(inspect.signature(error).parameters.values()))
        assert (first.name, first.annotation) == ("verdict", "Verdict")
    verdict = Verdict("residual", 2.0, 1.0)
    assert str(verdict) == "residual 2.000e+00 exceeds tol 1.000e+00"
    assert str(NotTightError(verdict, 2.0)) == f"frame is not tight: {verdict}"
    assert str(NotCoisometricError(verdict)) == f"matrix is not a coisometry: {verdict}"
    # no module imports a private name from frames but the tightness gate,
    # which factorize and decomposition's gates share
    private = [
        (path.name, alias.name)
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module == "frames"
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert private == [("decomposition.py", "_require_tight")]


def _identifier(node):
    """The name a node defines, imports, reads or takes as an attribute, if any."""
    return getattr(node, "name", getattr(node, "attr", getattr(node, "id", None)))


def test_column_side_spectra_are_read_at_one_svd_site():
    # decomposition takes a column side's rank, tightness residual and range
    # basis from the one SVD in _side_spectrum; the commutator norm goes
    # through algebra._spectral_norm, and the overlap is read off the
    # closure's eigvalsh
    path = PACKAGE / "decomposition.py"
    tree = ast.parse(path.read_text(), str(path))
    assert sum(_identifier(node) == "svd" for node in ast.walk(tree)) == 1
    assert [func for func, node in _owned_nodes(path) if _identifier(node) == "svd"] == [
        "_side_spectrum"
    ]
    stale = [
        module.name
        for module in sorted(PACKAGE.glob("*.py"))
        if any(_identifier(node) == "_rank_and_residual"
               for node in ast.walk(ast.parse(module.read_text(), str(module))))
    ]
    assert stale == []


def test_random_tight_frame_takes_the_unchecked_normal_form():
    # its QR factor is unitary by construction, so random_tight_frame skips
    # canonical_frame's is_unitary; tests/test_frames.py holds the factor to
    # 1e-12 and the frame to canonical_frame's bits instead
    called = {
        _identifier(node.func)
        for owner, node in _owned_nodes(PACKAGE / "frames.py")
        if owner == "random_tight_frame" and isinstance(node, ast.Call)
    }
    assert "_normal_form" in called
    assert called.isdisjoint({"canonical_frame", "is_unitary"})
