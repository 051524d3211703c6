"""Source hygiene of the erwlab package."""

import ast
import importlib
from pathlib import Path

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


def test_every_exported_name_is_used_by_the_package_a_demo_or_the_benchmark():
    # the package's names and each module's __all__; a name counts as used
    # where code other than its definition and the re-exports refers to it,
    # as a name, an imported name or any attribute of that name
    root = Path(erwlab.__file__).parent
    modules = [path for path in sorted(root.glob("*.py")) if path.name != "__init__.py"]
    sources = list(modules)
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
    exported = {name for name in vars(erwlab) if not name.startswith("_")
                and not isinstance(getattr(erwlab, name), type(erwlab))}
    for path in modules:
        exported |= set(importlib.import_module(f"erwlab.{path.stem}").__all__)
    assert sorted(exported - used - _TEST_ONLY_EXPORTS) == []
    assert _TEST_ONLY_EXPORTS <= exported
