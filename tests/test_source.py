"""Checks on the library source itself."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "convexproj"


def test_no_assert_statements():
    # `python -O` strips asserts; a check in the library must raise a CoordinateError
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_package_namespace_holds_only_the_version():
    # each name has one import path: the module that defines it
    tree = ast.parse((SRC / "__init__.py").read_text())
    imports = [node.lineno for node in ast.walk(tree)
               if isinstance(node, (ast.Import, ast.ImportFrom))]
    bound = {node.id for node in ast.walk(tree)
             if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)}
    bound |= {node.name for node in ast.walk(tree)
              if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))}
    assert imports == []
    assert bound == {"__version__"}


def test_only_errors_module_relocates_errors():
    # `raise type(err)(...)` rebuilds an error with a new message; errors.located
    # is the one place that prefixes a location
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py")) if path.name != "errors.py"
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
        and isinstance(node.exc.func, ast.Call)
        and isinstance(node.exc.func.func, ast.Name) and node.exc.func.func.id == "type"
    ]
    assert found == []


def test_flag_kernel_does_no_numpy_arithmetic():
    # the invariants are computed on float triples; numpy only holds the stored vectors
    tree = ast.parse((SRC / "flags.py").read_text())
    found = sorted(
        f"np.{node.attr}:{node.lineno}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
        and node.value.id == "np"
        and node.attr in {"dot", "outer", "linalg", "eye", "isfinite", "all"}
    )
    assert found == []
