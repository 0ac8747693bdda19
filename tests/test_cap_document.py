"""A document at the size cap is analyzed in bounded time and memory.

The 1 x 12 all-ones matrix has a 4096-element target lattice, exactly
the default cap. ``analyze --json`` runs on it in one child process
with a 4 s timeout, twice the 2 s acceptance bound, and its stdout must
equal the pinned copy ``golden/analyze_1x12.json`` byte for byte. The
pinned copy was written by the table-based lattices that preceded the
mask representation.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
PINNED = HERE / "golden" / "analyze_1x12.json"
SRC = HERE.parent / "src"
TIMEOUT_S = 4.0


def test_analyze_at_the_cap_matches_the_pinned_bytes(tmp_path):
    doc = tmp_path / "one-by-twelve.json"
    doc.write_text(json.dumps({"kind": "multiplicity", "payload": {"matrix": [[1] * 12]}}))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env.pop("STONE_MAX_LATTICE", None)
    out = subprocess.run(
        [sys.executable, "-c", "from stonekit.cli import main; main()", "analyze", "--json", str(doc)],
        capture_output=True,
        env=env,
        timeout=TIMEOUT_S,
    )
    assert out.returncode == 0, out.stderr
    assert out.stderr == b""
    assert out.stdout == PINNED.read_bytes()
