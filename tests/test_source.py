"""Source hygiene of the erwlab package."""

import ast
import importlib
from pathlib import Path
from types import FunctionType

import erwlab


def test_modules_use_every_name_they_import():
    # __init__.py is exempt: its imports are the package's public names
    for path in sorted(Path(erwlab.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        imported = {(alias.asname or alias.name).split(".")[0]
                    for node in ast.walk(tree)
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                    and getattr(node, "module", None) != "__future__"
                    for alias in node.names}
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        assert imported <= used, (path.name, sorted(imported - used))


# Exported names that only tests call, each kept for a reason of its own
_TEST_ONLY_EXPORTS = {
    # the determinism contract's CSV, which tests compare byte for byte
    "summary_to_csv",
    # the definition of run i's stream, which tests/reference.py draws from
    # independently of the kernel's streams
    "make_run_stream",
}


def _exports() -> dict:
    """{name: object} of the package's names and of each module's __all__."""
    exported = {name: value for name, value in vars(erwlab).items()
                if not name.startswith("_") and not isinstance(value, type(erwlab))}
    for path in sorted(Path(erwlab.__file__).parent.glob("*.py")):
        if path.name != "__init__.py":
            module = importlib.import_module(f"erwlab.{path.stem}")
            exported.update((name, getattr(module, name)) for name in module.__all__)
    return exported


def _used_names() -> set:
    """Every name, imported name or attribute that code other than the
    re-exports refers to: the package's modules, demos/ and bench/."""
    root = Path(erwlab.__file__).parent
    sources = [path for path in sorted(root.glob("*.py")) if path.name != "__init__.py"]
    for folder in ("demos", "bench"):
        sources += sorted((root.parents[1] / folder).glob("*.py"))
    used = set()
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    return used


def test_every_exported_name_is_used_by_the_package_a_demo_or_the_benchmark():
    # a name counts as used where code other than its definition and the
    # re-exports refers to it, as a name, an imported name or any attribute
    exported = set(_exports())
    assert sorted(exported - _used_names() - _TEST_ONLY_EXPORTS) == []
    assert _TEST_ONLY_EXPORTS <= exported


def test_every_public_method_of_an_exported_class_is_used():
    # methods, constructors and properties defined by an exported class of
    # the package; one counts as used where any attribute of its name is
    used = _used_names()
    unused = [f"{name}.{attr}"
              for name, cls in sorted(_exports().items())
              if isinstance(cls, type) and cls.__module__.startswith("erwlab")
              for attr, value in vars(cls).items()
              if not attr.startswith("_") and attr not in used
              and isinstance(value, (FunctionType, classmethod, staticmethod, property))]
    assert unused == []


def test_the_oracle_names_no_schedule_variant():
    # the oracle reads M_n through the schedule's structure (split,
    # is_first_block, is_last_window, recent), so it neither reads
    # .variant nor spells out a variant's name
    tree = ast.parse((Path(erwlab.__file__).parent / "oracle.py").read_text())
    names = set(erwlab.MemorySchedule._READS)
    found = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and node.attr == "variant"
             or isinstance(node, ast.Constant) and node.value in names]
    assert found == []
