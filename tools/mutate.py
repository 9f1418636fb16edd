"""Re-run the hand mutations of mutants.json and data_mutants.json.

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

Each entry of tools/data_mutants.json edits one line of a bundled data
file: the line old, which occurs in it exactly once, becomes new (which may
hold several lines).  The data directory is copied once, and each edit is
run through `octaforms verify <verify>` on the copy, with --data-dir for a
table and --fixtures for the fixture file; the run must exit with the
entry's exit code, and every target must exit 0 on the unedited copy.

Exit 0 when every other mutant is killed and every data mutant exits as
listed, 1 when one survives, and 2 on an entry whose text does not occur
exactly once or tests or verify runs that do not pass unmutated.
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
DATA_MUTANTS = Path(__file__).with_name("data_mutants.json")
DATA = ROOT / "src" / "octaforms" / "data"
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


def run_verify(tree: Path, data: Path, file: str, target: str) -> int:
    # the exit code of `octaforms verify target` on tree's sources, reading
    # the copied data directory (file is the one a data mutant edits)
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    source = ["--fixtures", str(data / file)] if file == "lattice_fixtures.txt" else [
        "--data-dir", str(data)]
    cmd = [sys.executable, "-m", "octaforms", "verify", target, *source]
    done = subprocess.run(cmd, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                          check=False)
    return done.returncode


def run_data_mutants(tree: Path, data: Path, mutants: list[dict]) -> int | None:
    # the number of data mutants whose verify run exits otherwise than
    # listed, or None when a target does not exit 0 on the unedited copy
    targets = {(m["file"], m["verify"]) for m in mutants}
    if any(run_verify(tree, data, file, target) != 0 for file, target in targets):
        return None
    wrong = 0
    for m in mutants:
        path = data / m["file"]
        source = path.read_text()
        path.write_text("\n".join(m["new"] if line == m["old"] else line
                                  for line in source.split("\n")))
        try:
            code = run_verify(tree, data, m["file"], m["verify"])
        finally:
            path.write_text(source)
        ok = code == m["exit"]
        wrong += not ok
        verdict = f"exit {code}" if ok else f"EXIT {code}, NOT {m['exit']}"
        print(f"{verdict:28} {m['id']}: verify {m['verify']} on {m['file']}")
    return wrong


def main() -> int:
    mutants = json.loads(MUTANTS.read_text())
    data_mutants = json.loads(DATA_MUTANTS.read_text())
    for m in mutants:
        count = (ROOT / m["file"]).read_text().count(m["old"])
        if count != 1:
            print(f"{m['id']}: its old text occurs {count} times in {m['file']}")
            return 2
    for m in data_mutants:
        count = (DATA / m["file"]).read_text().split("\n").count(m["old"])
        if count != 1:
            print(f"{m['id']}: its old line occurs {count} times in {m['file']}")
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
        shutil.copytree(DATA, Path(tmp) / "data")
        wrong = run_data_mutants(tree, Path(tmp) / "data", data_mutants)
        if wrong is None:
            print("the unedited data copy fails a verify target")
            return 2
    print(f"{len(mutants)} mutants, {survivors} unexpected survivors")
    print(f"{len(data_mutants)} data mutants, {wrong} with an unexpected exit")
    return 1 if survivors or wrong else 0


if __name__ == "__main__":
    sys.exit(main())
