import ast
import re
from pathlib import Path

import ertkit

README = Path(__file__).resolve().parent.parent / "README.md"


def test_every_exported_name_resolves():
    assert len(ertkit.__all__) == len(set(ertkit.__all__))
    for name in ertkit.__all__:
        assert getattr(ertkit, name) is not None, name


def test_readme_imports_run():
    lines = re.findall(r"^from ertkit import .*$", README.read_text(), re.M)
    assert len(lines) == 2
    for line in lines:
        exec(line, {})


SRC = Path(__file__).resolve().parent.parent / "src" / "ertkit"


def _unused_imports(source: str) -> list:
    """Names a module imports but never loads: not as a name, not as the
    base of an attribute, not in a quoted annotation and not in `__all__`."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    loaded = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            loaded.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            # quoted annotations, such as a forward reference "Program"
            try:
                quoted = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            loaded.update(
                n.id for n in ast.walk(quoted) if isinstance(n, ast.Name)
            )
    return sorted(
        (line, name) for name, line in imported.items() if name not in loaded
    )


def test_no_unused_imports():
    found = {}
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":  # it imports names to re-export them
            continue
        unused = _unused_imports(path.read_text(encoding="utf-8"))
        if unused:
            found[path.name] = unused
    assert found == {}
