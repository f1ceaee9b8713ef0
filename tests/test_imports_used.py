"""Every name a ``src/repro`` module imports is used in that module.

Package ``__init__`` modules re-export what they import, so they are
exempt; so are ``from __future__`` imports.  A name counts as used when
the module loads it, bare or as the root of an attribute chain
(``os.path.join`` uses ``os``).
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"


def _unused_imports(tree: ast.Module) -> list[str]:
    bound: dict[str, int] = {}
    loaded: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound.setdefault(name, node.lineno)
        elif isinstance(node, ast.ImportFrom):
            if node.module == "__future__":
                continue
            for alias in node.names:
                if alias.name != "*":
                    bound.setdefault(alias.asname or alias.name, node.lineno)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            loaded.add(node.id)
    return [
        f"{name} (line {line})"
        for name, line in sorted(bound.items(), key=lambda item: item[1])
        if name not in loaded
    ]


def test_no_unused_imports():
    found = []
    for path in sorted(SRC.rglob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [
            f"{path.relative_to(SRC.parent)}: {name}"
            for name in _unused_imports(tree)
        ]
    assert not found, "unused imports:\n" + "\n".join(found)
