"""Source hygiene of the erwlab package."""

import ast
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
