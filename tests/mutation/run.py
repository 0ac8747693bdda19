"""Mutation check: every mutant in mutants.py must be killed by its tests.

Usage:
    python tests/mutation/run.py

Runs every mutant, one at a time, never in parallel. For each,
``src/`` and ``tests/`` are copied to a temporary directory, the
target text is replaced (it must occur exactly once), and the mutant's
test modules run with ``pytest -x`` in a child process, with the
copy's ``src/`` first on PYTHONPATH, under a timeout of TIMEOUT_S
seconds. Hypothesis runs with a fixed seed (``--hypothesis-seed=0``),
so a verdict does not depend on the draws of one run. A mutant is
killed when its tests fail or time out, and survives when they pass.
First, the same modules run once on an unmutated copy and must pass,
so that every kill is the mutant's doing.

Exits 0 when every mutant is killed, 1 when one survives, and 2 when
the check itself cannot run (a missing or repeated target, a failing
unmutated suite, a collection error).
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from mutants import MUTANTS, Mutant

ROOT = Path(__file__).resolve().parents[2]
TIMEOUT_S = 300


class CheckError(Exception):
    """The check cannot judge a mutant."""


def copy_tree(dest: Path, mutant: Mutant | None) -> None:
    shutil.copytree(ROOT / "src", dest / "src", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copytree(
        ROOT / "tests",
        dest / "tests",
        ignore=shutil.ignore_patterns("__pycache__", "mutation", ".hypothesis"),
    )
    if mutant is None:
        return
    target = dest / "src" / "stonekit" / mutant.path
    text = target.read_text()
    count = text.count(mutant.before)
    if count != 1:
        raise CheckError(f"{mutant.name}: target occurs {count} times in {mutant.path}")
    target.write_text(text.replace(mutant.before, mutant.after))


def run_modules(dest: Path, modules):
    """(returncode or None on timeout, output tail) of pytest -x on the copy."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(dest / "src")
    env.pop("STONE_MAX_LATTICE", None)
    origin = subprocess.run(
        [sys.executable, "-c", "import stonekit; print(stonekit.__file__)"],
        cwd=dest, env=env, capture_output=True, text=True, timeout=60,
    )
    if not origin.stdout.startswith(str(dest)):
        raise CheckError(f"stonekit imports from {origin.stdout.strip()!r}, not the copy")
    command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", "--hypothesis-seed=0"]
    command += [f"tests/{m}" for m in modules]
    try:
        out = subprocess.run(command, cwd=dest, env=env, capture_output=True, text=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, ""
    return out.returncode, "\n".join(out.stdout.splitlines()[-15:])


def judge(mutant: Mutant | None, modules):
    with tempfile.TemporaryDirectory(prefix="stonekit-mutant-") as tmp:
        dest = Path(tmp)
        copy_tree(dest, mutant)
        return run_modules(dest, modules)


def main() -> int:
    modules = sorted({m for mutant in MUTANTS for m in mutant.modules})
    try:
        code, tail = judge(None, modules)
        if code != 0:
            raise CheckError(f"the unmutated modules do not pass (exit {code}):\n{tail}")
        print(f"unmutated: {' '.join(modules)} pass", flush=True)
        survivors = []
        for mutant in MUTANTS:
            start = time.perf_counter()
            code, tail = judge(mutant, mutant.modules)
            elapsed = time.perf_counter() - start
            if code is None:
                verdict = "killed (timeout)"
            elif code == 1:
                verdict = "killed"
            elif code == 0:
                verdict = "SURVIVED"
                survivors.append(mutant.name)
            else:
                raise CheckError(f"{mutant.name}: pytest exit {code}:\n{tail}")
            print(f"{verdict:16} {mutant.name} ({elapsed:.1f} s)", flush=True)
    except CheckError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if survivors:
        print(f"{len(survivors)} of {len(MUTANTS)} mutants survived: {', '.join(survivors)}")
        return 1
    print(f"all {len(MUTANTS)} mutants killed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
