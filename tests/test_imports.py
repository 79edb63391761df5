"""Every name a module imports is used in that module."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _checked_files():
    package = sorted((ROOT / "src" / "fanning").glob("*.py"))
    files = [path for path in package if path.name != "__init__.py"]
    for directory in ("tests", "tools"):
        files.extend(sorted((ROOT / directory).glob("*.py")))
    return files


def unused_imports(source):
    """``(line, name)`` of each name bound by an import and never read."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported.append((node.lineno, alias.asname or alias.name.split(".")[0]))
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    imported.append((node.lineno, alias.asname or alias.name))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [(line, name) for line, name in imported if name not in used]


def test_unused_imports_are_found():
    source = "import os\nimport numpy as np\nfrom math import pi, tau\nprint(np.pi, tau)\n"
    assert unused_imports(source) == [(1, "os"), (3, "pi")]


def test_no_unused_imports():
    found = [
        f"{path.relative_to(ROOT)}:{line}: {name}"
        for path in _checked_files()
        for line, name in unused_imports(path.read_text(encoding="utf-8"))
    ]
    assert found == []
