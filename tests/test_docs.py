"""The README's library map names only what its modules define, and every export exists."""

import ast
import importlib
import pkgutil
import re
from pathlib import Path

import octaforms

README = Path(__file__).resolve().parent.parent / "README.md"


def _library_map() -> list[tuple[str, list[str]]]:
    # rows of the table under "## Library map": (module, backticked identifiers)
    section = README.read_text().split("## Library map", 1)[1].split("\n## ", 1)[0]
    rows = []
    for line in section.splitlines():
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if len(cells) != 2 or not cells[0].startswith("`"):
            continue
        names = [n for n in re.findall(r"`([^`]+)`", cells[1]) if n.isidentifier()]
        rows.append((cells[0].strip("`"), names))
    return rows


def test_library_map_names_exist():
    rows = _library_map()
    assert [m for m, _ in rows] == [
        "octaforms.polygonal", "octaforms.escalation", "octaforms.lattice",
        "octaforms.lemmas", "octaforms.tables", "octaforms.fixtures"]
    missing = [(m, n) for m, names in rows for n in names
               if not hasattr(importlib.import_module(m), n)]
    assert missing == []
    assert sum(len(names) for _, names in rows) >= 20  # the parser did find the names


def test_every_exported_name_exists():
    # each module's __all__, and every name the package root imports, is defined
    exported, missing = 0, []
    for info in pkgutil.iter_modules(octaforms.__path__):
        if info.name != "__main__":  # importing it runs the command line
            module = importlib.import_module(f"octaforms.{info.name}")
            names = getattr(module, "__all__", ())
            exported += len(names)
            missing += [(info.name, n) for n in names if not hasattr(module, n)]
    imported = [alias.asname or alias.name
                for node in ast.walk(ast.parse(Path(octaforms.__file__).read_text()))
                if isinstance(node, ast.ImportFrom) for alias in node.names]
    missing += [("octaforms", n) for n in imported if not hasattr(octaforms, n)]
    assert missing == []
    assert exported >= 60 and len(imported) >= 20  # the walk did find the names
