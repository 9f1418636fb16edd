"""Re-run the hand mutations of mutants.json: each must fail its tests.

Usage: python tools/mutate.py

Each entry of tools/mutants.json names a file, a text that occurs in it
exactly once, the text that replaces it, and the pytest selectors that are
expected to fail on the mutant.  The repository is copied once into a
temporary directory; the selectors must pass there unmutated, and then each
mutant is applied to the copy, its selectors run with the copy's src/ on
PYTHONPATH, and the file restored.  A mutant is killed when its selectors
fail (pytest exit 1).  An entry marked "equivalent" is a known survivor,
a change no output shows: it is run and reported, and it counts neither
way.

Exit 0 when every other mutant is killed, 1 when one survives, and 2 on an
entry whose text does not occur exactly once or selectors that do not pass
on the unmutated copy.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MUTANTS = Path(__file__).with_name("mutants.json")
SKIP = shutil.ignore_patterns(
    ".git", "__pycache__", ".hypothesis", ".pytest_cache", ".perfbench", "*.egg-info", "build"
)


def run_tests(tree: Path, selectors: list[str]) -> int:
    # pytest's exit code for the selectors, run on tree's own sources; the
    # Hypothesis seed is fixed so that a kill is repeatable
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
           "--hypothesis-seed=0", *selectors]
    done = subprocess.run(cmd, cwd=tree, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL, check=False)
    return done.returncode


def main() -> int:
    mutants = json.loads(MUTANTS.read_text())
    for m in mutants:
        count = (ROOT / m["file"]).read_text().count(m["old"])
        if count != 1:
            print(f"{m['id']}: its old text occurs {count} times in {m['file']}")
            return 2
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp) / "tree"
        shutil.copytree(ROOT, tree, ignore=SKIP)
        selectors = sorted({s for m in mutants for s in m["tests"]})
        if run_tests(tree, selectors) != 0:
            print(f"the unmutated copy fails {selectors}")
            return 2
        survivors = 0
        for m in mutants:
            path = tree / m["file"]
            source = path.read_text()
            path.write_text(source.replace(m["old"], m["new"]))
            try:
                code = run_tests(tree, m["tests"])
            finally:
                path.write_text(source)
            killed = code == 1
            if m.get("equivalent"):
                verdict = "killed (marked equivalent)" if killed else "survived (equivalent)"
            elif killed:
                verdict = "killed"
            else:
                verdict = f"SURVIVED (pytest exit {code})"
                survivors += 1
            print(f"{verdict:28} {m['id']}: {' '.join(m['tests'])}")
    print(f"{len(mutants)} mutants, {survivors} unexpected survivors")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
