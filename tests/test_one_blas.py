"""krlslab does its BLAS work through scipy, never through numpy.

numpy and scipy each load their own OpenBLAS with its own thread pool, and a
fit that switches between them leaves one pool spinning on the cores the
other needs. Every product, dot and norm therefore calls
``scipy.linalg.blas``, the library behind scipy's LAPACK. This test walks the
syntax tree of every module and fails on a numpy product, norm or
numpy.linalg call. It also keeps every factorization in ``linalg``: no other
module may reach scipy's LAPACK, through ``scipy.linalg.lapack`` or any
other ``scipy.linalg`` function, and every Cholesky factorization, full
(potrf) or packed (pftrf), is called from ``linalg._cholesky_solve``.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

_SRC = Path(__file__).resolve().parents[1] / "src" / "krlslab"

# numpy functions that reach numpy's BLAS, besides every numpy.linalg function
_NUMPY_BLAS = {
    "dot", "matmul", "inner", "vdot", "einsum", "tensordot", "vecdot", "matvec", "vecmat",
}

# (module, source line) -> why the numpy product stays
_ALLOWED = {
    ("kernels.py", "return a @ a.T"): (
        "gram's exact symmetry relies on numpy forming x @ x.T as a symmetric "
        "product, which gemm does not promise; one call per Gram matrix"
    ),
}


def _numpy_blas_uses(path: Path):
    """(line number, source line) of every matmul and numpy BLAS call in path."""
    source = path.read_text(encoding="utf-8")
    lines = source.splitlines()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            found = True
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            func = node.func
            owner = ast.unparse(func.value)
            found = (
                func.attr == "dot"
                or (owner in ("np", "numpy") and func.attr in _NUMPY_BLAS)
                # a numpy.linalg exception class is raised, not a BLAS call
                or (
                    owner in ("np.linalg", "numpy.linalg")
                    and not isinstance(getattr(np.linalg, func.attr, None), type)
                )
            )
        else:
            found = False
        if found:
            yield node.lineno, lines[node.lineno - 1].strip()


def _lapack_uses(path: Path):
    """(line number, source line) of every import or attribute in path that
    reaches scipy.linalg other than through its blas module."""
    source = path.read_text(encoding="utf-8")
    lines = source.splitlines()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            found = node.level == 0 and (
                (module == "scipy" and any(a.name == "linalg" for a in node.names))
                or (module == "scipy.linalg" and any(a.name != "blas" for a in node.names))
                or (module.startswith("scipy.linalg.") and module != "scipy.linalg.blas")
            )
        elif isinstance(node, ast.Import):
            found = any(a.name.startswith("scipy.linalg") and a.name != "scipy.linalg.blas"
                        for a in node.names)
        elif isinstance(node, ast.Attribute):
            found = ast.unparse(node.value) == "scipy.linalg" and node.attr != "blas"
        else:
            found = isinstance(node, ast.Name) and node.id == "lapack"
        if found:
            yield node.lineno, lines[node.lineno - 1].strip()


# Cholesky routines that would open a second solve path beside linalg's one
_OTHER_CHOLESKY = ("cho_factor", "cho_solve", "potrs")


def _factorization_calls(path: Path):
    """(enclosing function, line number, source line) of every call in path
    whose callee names potrf or pftrf; the function is None at module level."""
    source = path.read_text(encoding="utf-8")
    lines = source.splitlines()
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Call) and any(
            routine in ast.unparse(node.func) for routine in ("potrf", "pftrf")
        ):
            found.append((function, node.lineno, lines[node.lineno - 1].strip()))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(source), None)
    return found


def _other_cholesky_uses(path: Path):
    """(line number, source line) of every name, attribute, import or string
    in path, docstrings aside, that names a routine of _OTHER_CHOLESKY."""
    source = path.read_text(encoding="utf-8")
    lines = source.splitlines()
    tree = ast.parse(source)
    docstrings = {
        id(node.body[0].value) for node in ast.walk(tree)
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
        and node.body and isinstance(node.body[0], ast.Expr)
        and isinstance(node.body[0].value, ast.Constant)
    }
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names = [node.id]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [a.name for a in node.names] + [getattr(node, "module", None) or ""]
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names = [] if id(node) in docstrings else [node.value]
        else:
            names = []
        if any(routine in name for name in names for routine in _OTHER_CHOLESKY):
            yield node.lineno, lines[node.lineno - 1].strip()


def test_one_cholesky_solve():
    # linalg._cholesky_solve is the package's one Cholesky solve: it makes
    # every factorization call, one dpotrf and one spftrf
    calls = [
        (path.name, function, line)
        for path in sorted(_SRC.glob("*.py"))
        for function, _, line in _factorization_calls(path)
    ]
    assert len(calls) == 2
    assert {(name, function) for name, function, _ in calls} == {("linalg.py", "_cholesky_solve")}
    offenders = [
        f"{path.name}:{lineno}: {line}"
        for path in sorted(_SRC.glob("*.py"))
        for lineno, line in _other_cholesky_uses(path)
    ]
    assert offenders == []


@pytest.mark.parametrize(
    "snippet, function",
    [("c = lapack.spftrf(n, a)", None), ("c = lapack.dpotrf(a)", None),
     ("def helper(n, a):\n    return lapack.spftrf(n, a)", "helper"),
     ("def _cholesky_solve(n, a):\n    return getattr(lapack, 'spotrf')(a)", "_cholesky_solve")],
    ids=["spftrf", "dpotrf", "spftrf-in-helper", "potrf-by-name"],
)
def test_factorization_guard_sees_every_call(tmp_path, snippet, function):
    # a stray packed factorization outside _cholesky_solve is caught, with
    # the function it sits in
    path = tmp_path / "mod.py"
    path.write_text(f"{snippet}\n")
    ((found, _, line),) = _factorization_calls(path)
    assert found == function and line == snippet.splitlines()[-1].strip()


@pytest.mark.parametrize(
    "snippet",
    ["from scipy.linalg import cho_factor", "c = scipy.linalg.cho_factor(a)",
     "x = cho_solve(c, b)", "x = lapack.dpotrs(c, b)", "x = getattr(lapack, 'spotrs')(c, b)"],
)
def test_cholesky_guard_sees_other_solves(tmp_path, snippet):
    path = tmp_path / "mod.py"
    path.write_text(f'"""Mentions cho_factor and potrs in a docstring."""\n{snippet}\n')
    assert {line for _, line in _other_cholesky_uses(path)} == {snippet}


def test_only_linalg_calls_lapack():
    offenders = [
        f"{path.name}:{lineno}: {line}"
        for path in sorted(_SRC.glob("*.py"))
        if path.name != "linalg.py"
        for lineno, line in _lapack_uses(path)
    ]
    assert offenders == []
    # and the guard sees linalg's own factorizations
    assert list(_lapack_uses(_SRC / "linalg.py"))


@pytest.mark.parametrize(
    "snippet",
    ["from scipy.linalg import lapack", "from scipy.linalg import blas, cho_factor",
     "from scipy.linalg.lapack import dpotrf", "from scipy import linalg",
     "import scipy.linalg", "import scipy.linalg.lapack", "y = scipy.linalg.eigh(a)",
     "y = scipy.linalg.lapack.dpotrf(a)", "y = lapack.dpotrf(a)"],
)
def test_lapack_guard_sees_lapack(tmp_path, snippet):
    path = tmp_path / "mod.py"
    path.write_text(f"{snippet}\n")
    assert [line for _, line in _lapack_uses(path)] == [snippet]


@pytest.mark.parametrize(
    "snippet",
    ["from scipy.linalg import blas", "from scipy.linalg.blas import dgemm",
     "from . import linalg", "y = linalg.spd_solve(a, 0.0, b)", "y = blas.dgemm(1.0, a, b)"],
)
def test_lapack_guard_passes_blas_and_krlslab_linalg(tmp_path, snippet):
    path = tmp_path / "mod.py"
    path.write_text(f"{snippet}\n")
    assert list(_lapack_uses(path)) == []


def test_only_scipy_blas_in_package():
    offenders = [
        f"{path.name}:{lineno}: {line}"
        for path in sorted(_SRC.glob("*.py"))
        for lineno, line in _numpy_blas_uses(path)
        if (path.name, line) not in _ALLOWED
    ]
    assert offenders == []


@pytest.mark.parametrize("module, line", sorted(_ALLOWED))
def test_allowed_products_still_exist(module, line):
    # a stale entry would let the same line back in elsewhere unnoticed
    assert line in [found for _, found in _numpy_blas_uses(_SRC / module)]


@pytest.mark.parametrize(
    "snippet",
    ["y = a @ b", "a @= b", "y = np.dot(a, b)", "y = a.dot(b)", "y = np.linalg.norm(a)",
     "y = np.einsum('i,i', a, b)", "y = numpy.matmul(a, b)", "y = np.tensordot(a, b)",
     "y = np.linalg.solve(a, b)", "y = np.linalg.cholesky(a)", "y = np.linalg.eigh(a)",
     "y = np.linalg.inv(a)", "y = np.linalg.lstsq(a, b)", "y = numpy.linalg.multi_dot([a, b])",
     "y = np.vecdot(a, b)", "y = np.matvec(a, b)", "y = np.vecmat(a, b)"],
)
def test_guard_sees_numpy_blas(tmp_path, snippet):
    path = tmp_path / "mod.py"
    path.write_text(f"import numpy as np\n{snippet}\n")
    assert [line for _, line in _numpy_blas_uses(path)] == [snippet]


def test_guard_passes_linalg_exceptions(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text(
        "import numpy as np\ntry:\n    raise np.linalg.LinAlgError('x')\n"
        "except np.linalg.LinAlgError:\n    pass\n"
    )
    assert list(_numpy_blas_uses(path)) == []
