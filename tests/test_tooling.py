"""Checks over the package source itself."""

import ast
import importlib
import inspect
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import copa
from copa import errors

ERROR_CLASSES = {
    name
    for name, value in vars(errors).items()
    if isinstance(value, type) and issubclass(value, errors.CopaError)
}


def _raised(path: Path):
    """(line, name) for every raise in the file; a bare raise names nothing."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Raise):
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            yield node.lineno, exc.id if isinstance(exc, ast.Name) else ast.dump(exc)


def test_every_raise_names_a_copa_error():
    sources = sorted(Path(copa.__file__).parent.glob("*.py"))
    raised = [(path.name, line, name) for path in sources for line, name in _raised(path)]
    assert len(raised) > 50
    stray = [
        f"{file}:{line} raises {name}" for file, line, name in raised if name not in ERROR_CLASSES
    ]
    assert not stray, stray


def test_the_package_imports_only_the_standard_library():
    """Every absolute import in the package names a standard-library module;
    relative imports stay inside copa."""
    foreign = []
    for path in sorted(Path(copa.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            foreign += [
                f"{path.name}:{node.lineno} imports {name}"
                for name in names
                if name.split(".")[0] not in sys.stdlib_module_names
            ]
    assert not foreign, foreign


def test_the_oracles_import_nothing_from_the_package():
    """The references in oracles.py are written from the definitions, so
    they stay independent of the code they check only while they import no
    copa module."""
    path = Path(__file__).parent / "oracles.py"
    imported = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            imported += [(node.lineno, alias.name) for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            imported.append((node.lineno, "." * node.level + (node.module or "")))
    assert imported, "no imports found"
    package = [
        f"oracles.py:{line} imports {name}"
        for line, name in imported
        if name.startswith(".") or name.split(".")[0] == "copa"
    ]
    assert not package, package


def _annotation_strings(tree: ast.AST):
    """Every string constant inside an annotation, parsed as an expression."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotation = node.returns
        elif isinstance(node, (ast.arg, ast.AnnAssign)):
            annotation = node.annotation
        else:
            continue
        for sub in ast.walk(annotation) if annotation else ():
            if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                yield ast.parse(sub.value, mode="eval")


def test_every_import_is_used():
    """An imported name is referenced as a Name (the base of an Attribute
    included) or inside a quoted annotation; __init__.py re-exports, and
    `from __future__ import annotations` is exempt."""
    unused = []
    for path in sorted(Path(copa.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import) or (
                isinstance(node, ast.ImportFrom) and node.module != "__future__"
            ):
                for alias in node.names:
                    imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        used = {
            node.id
            for root in (tree, *_annotation_strings(tree))
            for node in ast.walk(root)
            if isinstance(node, ast.Name)
        }
        unused += [
            f"{path.name}:{line} imports {name}"
            for name, line in imported.items()
            if name not in used
        ]
    assert not unused, unused


def test_only_the_partition_check_raises_the_component_errors():
    """ZeroPartError, MinimumPartError and ResidueError come from the one
    part-sequence check in partitions.py, so no second validator grows."""
    component = {"ZeroPartError", "MinimumPartError", "ResidueError"}
    sites = {
        path.name
        for path in Path(copa.__file__).parent.glob("*.py")
        for _, name in _raised(path)
        if name in component
    }
    assert sites == {"partitions.py"}, sites


# The other arguments of the public functions that take a plain partition
# as `parts`; a new parameter name fails the guard below until it is named.
_OTHER_ARGUMENTS = {"cell": (1, 1), "ground_count": 1}
_TAKES_PARTS = {
    f"{module.__name__}.{name}": value
    for info in pkgutil.iter_modules(copa.__path__)
    for module in [importlib.import_module(f"copa.{info.name}")]
    for name, value in vars(module).items()
    if not name.startswith("_")
    and inspect.isfunction(value)
    and value.__module__ == module.__name__
    and "parts" in inspect.signature(value).parameters
}


def test_the_guard_finds_the_partition_entry_points():
    assert {"copa.partitions.is_rim_cell", "copa.bijections.rim_cell_to_cp001"} <= set(
        _TAKES_PARTS
    )


@pytest.mark.parametrize("name", sorted(_TAKES_PARTS))
@pytest.mark.parametrize("parts", ([1, 3], [2.5]))
def test_every_public_function_taking_parts_checks_them(name, parts):
    """No entry point skips the one validator: an out-of-order partition
    and a part that is not an integer are refused with a CopaError."""
    function = _TAKES_PARTS[name]
    others = {
        p: _OTHER_ARGUMENTS[p] for p in inspect.signature(function).parameters if p != "parts"
    }
    with pytest.raises(errors.CopaError):
        function(parts, **others)


def test_verify_counts_through_the_public_api():
    """verify.py imports no underscore name from another copa module and
    reads no underscore attribute of one it imports whole, so the suites
    run the counters the CLI runs and only the arithmetic modules know the
    layout of their memos."""
    path = Path(copa.__file__).parent / "verify.py"
    tree = ast.parse(path.read_text(encoding="utf-8"))
    modules, private = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            for alias in node.names:
                if node.module is None:
                    modules.add(alias.asname or alias.name)
                elif alias.name.startswith("_"):
                    private.append(f"{node.lineno}: from .{node.module} import {alias.name}")
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in modules
            and node.attr.startswith("_")
        ):
            private.append(f"{node.lineno}: {node.value.id}.{node.attr}")
    assert modules and not private, private


def test_only_the_series_module_imports_its_private_names():
    """No other copa module imports an underscore name from .series, so the
    layout of the store and of the rows stays series.py's own."""
    private = []
    for path in sorted(Path(copa.__file__).parent.glob("*.py")):
        if path.name == "series.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.level, node.module) in (
                (1, "series"),
                (0, "copa.series"),
            ):
                private += [
                    f"{path.name}:{node.lineno} imports {alias.name}"
                    for alias in node.names
                    if alias.name.startswith("_")
                ]
    assert not private, private


def test_only_the_series_module_reads_the_rows():
    """No other copa module reads a series' rows or family or adopts rows
    through _of_rows, so the layout of the rows stays series.py's own."""
    layout = {"rows", "family", "_of_rows"}
    sites = {
        path.name: [
            f"{node.lineno}: .{node.attr}"
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.Attribute) and node.attr in layout
        ]
        for path in sorted(Path(copa.__file__).parent.glob("*.py"))
    }
    assert sites.pop("series.py")
    assert not any(sites.values()), {name: found for name, found in sites.items() if found}


def test_the_marked_product_does_not_read_the_double_sum():
    """gf-triple and --crosscheck compare the product form with the double
    sum, so the product's builder must name neither the double sum nor a
    reader of it; otherwise the comparison checks a series against itself."""
    tree = ast.parse((Path(copa.__file__).parent / "series.py").read_text(encoding="utf-8"))
    (product,) = [
        node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == "_product"
    ]
    forbidden = {"_double_sum", "_gf_double_sum_cached", "gf_double_sum", "count_cell"}
    named = [
        f"{node.lineno}: {name}"
        for node in ast.walk(product)
        for name in (getattr(node, "id", None), getattr(node, "attr", None))
        if name in forbidden
    ]
    assert not named, named


def test_the_closed_forms_do_not_read_the_series_engine():
    """The formula counting path is checked against the series, so
    count_formula names nothing that enumeration.py imports from .series,
    and partitions.py, whose tables it reads, imports nothing from there."""
    package = Path(copa.__file__).parent
    tree = ast.parse((package / "enumeration.py").read_text(encoding="utf-8"))
    from_series = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "series"
        for alias in node.names
    }
    assert from_series, "enumeration.py imports nothing from .series"
    (formula,) = [
        node
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name == "count_formula"
    ]
    named = [
        f"enumeration.py:{node.lineno}: {node.id}"
        for node in ast.walk(formula)
        if isinstance(node, ast.Name) and node.id in from_series | {"series"}
    ]
    for node in ast.walk(ast.parse((package / "partitions.py").read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and node.module:
            modules = [node.module]
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            modules = [alias.name for alias in node.names]
        else:
            continue
        named += [
            f"partitions.py:{node.lineno}: {m}" for m in modules if m.split(".")[-1] == "series"
        ]
    assert not named, named


# Modules a counting call never runs, and what importing them would load.
_DEFERRED_MODULES = {"copa.bijections", "copa.diagrams", "copa.reporting", "copa.verify"}
_HEAVY_STDLIB = {"dataclasses", "inspect"}
_DEFERRED_NAMES = {
    "bijections": (
        "copartition_to_eo", "copartition_to_pair", "cp001_to_rim_cell", "cp111_to_partition",
        "enumerate_eo_star", "eo_crank", "eo_to_copartition", "inverse_match_table", "is_eo_star",
        "pair_to_copartition", "partition_to_cp111", "render_pair_merge", "rim_cell_to_cp001",
    ),
    "diagrams": ("diagram_cells", "render_ascii", "render_diagram", "render_svg"),
    "reporting": ("VerificationReport",),
    "verify": ("SUITES", "run_all", "run_suite"),
}


def _loaded_by(code: str) -> set[str]:
    """The modules a fresh interpreter holds after running code, less those
    it holds after running nothing."""

    def loaded(code: str) -> set[str]:
        script = f"{code}\nimport sys\nprint(*sys.modules)"
        env = {**os.environ, "PYTHONPATH": str(Path(copa.__file__).parent.parent)}
        done = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60
        )
        assert done.returncode == 0, done.stderr
        return set(done.stdout.splitlines()[-1].split())

    return loaded(code) - loaded("")


def test_importing_the_package_loads_only_the_counting_core():
    loaded = _loaded_by("import copa")
    core = {"errors", "partitions", "copartitions", "series", "enumeration"}
    assert {"copa", *(f"copa.{name}" for name in core)} <= loaded
    assert not loaded & (_DEFERRED_MODULES | _HEAVY_STDLIB | {"json"})


@pytest.mark.parametrize(
    "argv",
    [
        ["count", "--a", "1", "--b", "1", "--m", "2", "--n", "30"],
        ["series", "--kind", "product", "--a", "1", "--b", "2", "--m", "4", "--order", "20"],
        ["table", "--a", "1", "--b", "1", "--m", "2", "--max-n", "10", "--format", "json"],
    ],
    ids=lambda argv: argv[0],
)
def test_counting_commands_load_only_what_they_run(argv):
    loaded = _loaded_by(f"import copa.cli\nassert copa.cli.main({argv!r}) == 0")
    assert not loaded & (_DEFERRED_MODULES | _HEAVY_STDLIB)


def test_every_deferred_name_is_its_modules_own():
    star: dict = {}
    exec("from copa import *", star)
    listed = dir(copa)
    for module, names in _DEFERRED_NAMES.items():
        source = importlib.import_module(f"copa.{module}")
        assert module in listed and getattr(copa, module) is source
        for name in names:
            assert getattr(copa, name) is getattr(source, name) is star[name], name
            assert name in vars(copa) and name in listed, name
    with pytest.raises(AttributeError):
        copa.no_such_name
