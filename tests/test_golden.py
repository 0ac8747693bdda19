"""Replay the committed golden corpus against the current tree.

Every entry of ``golden/sweep_reports.json`` names its sweep (tag, seed,
budget); the sweep is run again and its whole report must equal the
pinned one. Every entry of ``golden/cli_outputs.json`` carries its
document; ``analyze --json`` and ``spectrum --dot`` are run on it again
in-process, and exit codes, stdout, stderr and the DOT text must equal
the pinned ones byte for byte. Regenerate the corpus with
``golden/regenerate.py``.
"""

import json

import pytest

from golden.regenerate import CLI_OUTPUTS, SWEEP_REPORTS, run_cli
from stonekit import sweep_theorem

PINNED = json.loads(SWEEP_REPORTS.read_text())
PINNED_CLI = json.loads(CLI_OUTPUTS.read_text())


@pytest.mark.parametrize(
    "pinned",
    PINNED,
    ids=[f"{r['tag']}-seed{r['seed']}-budget{r['budget']}" for r in PINNED],
)
def test_sweep_report_matches_golden(pinned):
    report = sweep_theorem(pinned["tag"], budget=pinned["budget"], seed=pinned["seed"])
    assert report.as_dict() == pinned


@pytest.mark.parametrize("pinned", PINNED_CLI, ids=[e["name"] for e in PINNED_CLI])
def test_cli_output_matches_golden(pinned, tmp_path):
    out = run_cli(pinned["document"], tmp_path)
    assert out == {"analyze": pinned["analyze"], "spectrum": pinned["spectrum"]}
