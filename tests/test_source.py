"""Checks on the library source itself."""

import ast
import dataclasses
import importlib
from collections.abc import Sequence
from pathlib import Path

import pytest

from convexproj import errors, flags, pants, spectral, surface
from convexproj.flags import oracle_check, reconstruct_monodromy
from convexproj.pants import FGPants

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


def test_numpy_read_only_by_the_wedges():
    # the flag values are float triples; numpy only builds wedge2's ndarray, so
    # deferring its import touches these two functions and nothing else
    tree = ast.parse((SRC / "flags.py").read_text())
    inside = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node.name in {"wedge2", "wedge3"}:
            inside.update(map(id, ast.walk(node)))
    found = [f"flags.py:{node.lineno}" for node in ast.walk(tree)
             if isinstance(node, ast.Name) and node.id == "np" and id(node) not in inside]
    assert found == []


def test_traced_names_resolve():
    # perfbench/tracer.py wraps these names at every binding; a renamed one
    # would only show in the benchmark harness's own tests
    tree = ast.parse((SRC.parent.parent / "perfbench" / "tracer.py").read_text())
    traced = next(ast.literal_eval(node.value) for node in tree.body
                  if isinstance(node, ast.Assign)
                  and [target.id for target in node.targets] == ["TRACED"])
    missing = []
    for module_name, attrs in traced.items():
        module = importlib.import_module(f"convexproj.{module_name}")
        for attr in attrs:
            owner, _, method = attr.rpartition(".")
            if owner:
                cls = getattr(module, owner, None)
                found = cls is not None and callable(vars(cls).get(method))
            else:
                found = callable(getattr(module, attr, None))
            if not found:
                missing.append(f"{module_name}.{attr}")
    assert missing == []
    # the tracer's COUNTERS read len(result.branches) and len() of each entry
    report = oracle_check(FGPants((-1.0,) * 3, (-1.0,) * 3, 0.0, 0.0))
    branches = reconstruct_monodromy(report.config, report.eigen).branches
    assert isinstance(branches, Sequence) and len(branches) == 3
    assert all(isinstance(entry, Sequence) and len(entry) >= 1 for entry in branches)


def _parsed_modules():
    return [(path.name, ast.parse(path.read_text(), filename=str(path)))
            for path in sorted(SRC.glob("*.py"))]


def test_edge_tol_read_only_in_check_window():
    # the window's edge tolerance belongs to its one check
    found = []
    for name, tree in _parsed_modules():
        inside = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and node.name == "check_window":
                inside.update(map(id, ast.walk(node)))
        found += [
            f"{name}:{node.lineno}" for node in ast.walk(tree)
            if (isinstance(node, ast.Name) and node.id == "EDGE_TOL"
                and isinstance(node.ctx, ast.Load)
                or isinstance(node, ast.Attribute) and node.attr == "EDGE_TOL")
            and id(node) not in inside
        ]
    assert found == []


def test_every_import_is_used():
    # a name imported into a library module and never read is left over
    unused = []
    for name, tree in _parsed_modules():
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                for alias in node.names:
                    imported[alias.asname or alias.name] = node.lineno
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{name}:{line} {bound}" for bound, line in imported.items()
                   if bound not in read]
    assert unused == []


def test_every_error_class_is_used():
    # an error class that no other module reads is left over from its last raise
    read = {node.id for name, tree in _parsed_modules() if name != "errors.py"
            for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    classes = {name for name, value in vars(errors).items()
               if isinstance(value, type) and issubclass(value, errors.CoordinateError)}
    assert sorted(classes - read) == []


def _imports(tree) -> set[str]:
    """The top-level packages a module imports, and each convexproj module
    it imports by its file name."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found.update(alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.add(node.module.partition(".")[0])
        elif isinstance(node, ast.ImportFrom):
            names = [node.module] if node.module else [alias.name for alias in node.names]
            found.update(f"{name}.py" for name in names)
    return found


def test_numpy_stays_off_the_cli_path():
    # only flags and sampling import numpy, and the CLI never reaches sampling,
    # so taking numpy off `import convexproj.cli` is a change to flags alone
    imports = {name: _imports(tree) for name, tree in _parsed_modules()}
    assert sorted(name for name, found in imports.items() if "numpy" in found) == [
        "flags.py", "sampling.py"]
    reached, frontier = {"cli.py"}, ["cli.py"]
    while frontier:
        for name in {found for found in imports[frontier.pop()] if found in imports} - reached:
            reached.add(name)
            frontier.append(name)
    assert "flags.py" in reached
    assert "sampling.py" not in reached


# What a check or kernel returns, with its fields in order.
RESULT_RECORDS = {
    spectral.WindowCheck: ("lower", "upper", "failures"),
    spectral.EigenTriple: ("lam", "mu", "nu"),
    spectral.LengthPair: ("ell1", "ell2"),
    pants.DomainCheck: ("lengths", "failures"),
    pants.ConsistencyReport: ("crossratios", "residuals", "max_residual"),
    flags.OracleReport: ("sigma1_residuals", "sigma2_residuals", "tau_plus_residual",
                         "tau_sum_residual", "max_residual", "config", "eigen"),
    flags.MonodromyBranch: ("rows", "flag_residual"),
    flags.MonodromyResult: ("branches",),
    surface.CurveClosure: ("plus_lengths", "minus_lengths", "residuals"),
    surface.ClosureReport: ("curves",),
    surface.CoordinateCount: ("goldman_total", "bd_raw", "closure_constraints"),
}


@pytest.mark.parametrize("record", RESULT_RECORDS, ids=lambda record: record.__name__)
def test_results_are_named_tuples(record):
    # a record that a check or kernel returns is a NamedTuple; one a caller
    # builds and the class checks is a frozen dataclass
    assert issubclass(record, tuple) and not dataclasses.is_dataclass(record)
    assert record._fields == RESULT_RECORDS[record]
    assert record.__doc__
