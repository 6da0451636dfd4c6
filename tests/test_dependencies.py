"""The runtime dependencies stay at numpy: every import in the divbs package
is relative, numpy or part of the standard library."""
import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "divbs"


def outside_imports(path: Path) -> list[str]:
    """Modules that a source file imports and that are neither relative,
    numpy nor in the standard library."""
    names = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module)
    return [
        name
        for name in names
        if name.partition(".")[0] != "numpy"
        and name.partition(".")[0] not in sys.stdlib_module_names
    ]


def test_imports_only_numpy_and_stdlib():
    sources = sorted(SRC.glob("*.py"))
    assert len(sources) > 1, f"no package sources under {SRC}"
    found = {path.name: outside_imports(path) for path in sources}
    assert {name: mods for name, mods in found.items() if mods} == {}
