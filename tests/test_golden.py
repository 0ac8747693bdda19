"""Replay the committed golden corpus against the current tree.

Every entry of ``golden/sweep_reports.json`` names its sweep (tag, seed,
budget); the sweep is run again and its whole report must equal the
pinned one. Regenerate the corpus with ``golden/regenerate.py``.
"""

import json

import pytest

from golden.regenerate import SWEEP_REPORTS
from stonekit import sweep_theorem

PINNED = json.loads(SWEEP_REPORTS.read_text())


@pytest.mark.parametrize(
    "pinned",
    PINNED,
    ids=[f"{r['tag']}-seed{r['seed']}-budget{r['budget']}" for r in PINNED],
)
def test_sweep_report_matches_golden(pinned):
    report = sweep_theorem(pinned["tag"], budget=pinned["budget"], seed=pinned["seed"])
    assert report.as_dict() == pinned
