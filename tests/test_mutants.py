"""tools/mutants.json and data_mutants.json stay applicable.

Each code mutation's text and tests exist, and each data mutation's line
occurs in its bundled file.  tools/mutate.py runs the mutants themselves
(about two minutes); this checks in milliseconds that none has gone stale.
"""

import ast
import json
from pathlib import Path

from octaforms import cli

ROOT = Path(__file__).resolve().parent.parent
MUTANTS = json.loads((ROOT / "tools" / "mutants.json").read_text())
DATA_MUTANTS = json.loads((ROOT / "tools" / "data_mutants.json").read_text())
DATA = ROOT / "src" / "octaforms" / "data"


def _test_names(path: Path) -> set[str]:
    # the module-level test functions of a test file
    tree = ast.parse(path.read_text())
    return {node.name for node in tree.body
            if isinstance(node, ast.FunctionDef) and node.name.startswith("test")}


def test_every_mutant_text_occurs_exactly_once():
    counts = {m["id"]: (ROOT / m["file"]).read_text().count(m["old"]) for m in MUTANTS}
    assert {i: n for i, n in counts.items() if n != 1} == {}
    assert len(counts) == len(MUTANTS) >= 40  # ids are unique, and the file was read


def test_every_mutant_selector_names_an_existing_test():
    stale = []
    for m in MUTANTS:
        assert m["tests"], m["id"]
        for selector in m["tests"]:
            file, _, name = selector.partition("::")
            path = ROOT / file
            if not path.is_file() or (name and name.split("[")[0] not in _test_names(path)):
                stale.append((m["id"], selector))
    assert stale == []


def test_every_data_mutant_line_occurs_exactly_once():
    # as a whole line of its bundled file, and the verify target it names exists
    counts = {m["id"]: (DATA / m["file"]).read_text().split("\n").count(m["old"])
              for m in DATA_MUTANTS}
    assert {i: n for i, n in counts.items() if n != 1} == {}
    assert len(counts) == len(DATA_MUTANTS) >= 5
    assert {m["verify"] for m in DATA_MUTANTS} <= set(cli._SUITES)
    assert all(m["new"] != m["old"] and m["exit"] in (1, 2) for m in DATA_MUTANTS)
