"""Documents are analyzed in bounded time and memory.

Each document runs through the CLI in one child process at a time, with
a 4 s timeout, at least twice what it takes on 2 vCPUs:

* the 1 x 12 all-ones matrix has a 4096-element target lattice, exactly
  the default cap. ``analyze --json`` must print the pinned copy
  ``golden/analyze_1x12.json`` byte for byte; it was written by the
  table-based lattices that preceded the mask representation;
* a 500-point chain, its points shuffled, as a ``lattice`` document:
  ``analyze --json`` validates it with O(n^2) mask lookups (about
  1.3 s in all), where a bound search per pair costs O(n^3) (about 9 s);
* the identity ``galois`` document on a 40-point chain: ``spectrum
  --dot`` checks the quotient topology over the opens, not over all
  2^40 sets of classes.
"""

import json
import os
import random
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
PINNED = HERE / "golden" / "analyze_1x12.json"
SRC = HERE.parent / "src"
TIMEOUT_S = 4.0


def run_cli(tmp_path, doc, command, *options):
    """stdout of one CLI command on ``doc``, in a child process."""
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env.pop("STONE_MAX_LATTICE", None)
    out = subprocess.run(
        [sys.executable, "-c", "from stonekit.cli import main; main()", command, str(path), *options],
        capture_output=True,
        env=env,
        timeout=TIMEOUT_S,
    )
    assert out.returncode == 0, out.stderr
    assert out.stderr == b""
    return out.stdout


def chain_order(n, seed=None):
    """Cover pairs of an n-point chain, relabeled at random under ``seed``."""
    points = list(range(n))
    if seed is not None:
        random.Random(seed).shuffle(points)
    return {"points": n, "covers": [[points[k], points[k + 1]] for k in range(n - 1)]}


def test_analyze_at_the_cap_matches_the_pinned_bytes(tmp_path):
    doc = {"kind": "multiplicity", "payload": {"matrix": [[1] * 12]}}
    assert run_cli(tmp_path, doc, "analyze", "--json") == PINNED.read_bytes()


def test_shuffled_chain_lattice_document(tmp_path):
    doc = {"kind": "lattice", "payload": {"order": chain_order(500, seed=0)}}
    report = json.loads(run_cli(tmp_path, doc, "analyze", "--json"))
    assert report["sizes"] == {"lattice_a": 500, "lattice_b": 500, "restricted": 500, "induced": 500}
    assert set(report["conditions"].values()) == {True}


def test_chain_galois_document_spectrum(tmp_path):
    order = chain_order(40)
    doc = {"kind": "galois", "payload": {"source": order, "target": order, "lower": list(range(40))}}
    dot = tmp_path / "spectrum.dot"
    run_cli(tmp_path, doc, "spectrum", "--dot", str(dot))
    # a 40-point chain has 39 primes, each its own quasi-orbit class
    classes = re.findall(r"^  s(\d+) -> q(\d+) \[style=dashed\];$", dot.read_text(), re.M)
    assert classes == [(str(k), str(k)) for k in range(39)]
