"""Regenerate the golden corpus in this directory from the current tree.

    PYTHONPATH=src python tests/golden/regenerate.py

``sweep_reports.json`` holds ``SweepReport.as_dict()`` for every sweep
tag at seed 7 and its default budget, and at seeds 0 and 5 with small
budgets. A sweep that finds a violation raises, so a tree with a known
violation is never pinned. ``tests/test_golden.py`` replays every entry.
A change may regenerate the corpus only when CHANGES.md says which
outputs changed and why.
"""

from __future__ import annotations

import json
from pathlib import Path

from stonekit import sweep_theorem
from stonekit.conformance import SWEEP_TAGS

HERE = Path(__file__).resolve().parent
SWEEP_REPORTS = HERE / "sweep_reports.json"

_SMALL_BUDGETS = {
    "T33": 3,
    "T42": 100,
    "T47": 100,
    "C48": 100,
    "C49": 100,
    "L51": 2,
    "C54": 2,
    "T62": 3,
}

# (seed, budget per tag); None selects the tag's default budget
_SWEEP_GRID = (
    (7, dict.fromkeys(SWEEP_TAGS)),
    (0, _SMALL_BUDGETS),
    (5, _SMALL_BUDGETS),
)


def sweep_reports() -> list[dict]:
    return [
        sweep_theorem(tag, budget=budgets[tag], seed=seed).as_dict()
        for seed, budgets in _SWEEP_GRID
        for tag in SWEEP_TAGS
    ]


def main() -> None:
    body = json.dumps(sweep_reports(), indent=1, sort_keys=True)
    SWEEP_REPORTS.write_text(body + "\n")
    print(f"wrote {SWEEP_REPORTS}")


if __name__ == "__main__":
    main()
