"""Documents are analyzed in bounded time and memory.

Each document runs through the CLI in one child process at a time, with
a 4 s timeout, at least twice what it takes on 2 vCPUs:

* the 1 x 12 all-ones matrix has a 4096-element target lattice, exactly
  the default cap. ``analyze --json`` must print the pinned copy
  ``golden/analyze_1x12.json`` byte for byte; it was written by the
  table-based lattices that preceded the mask representation;
* a 12-point antichain with 4096 opens, exactly the cap, as an
  ``action`` document under k -> k xor 1: its six orbits give a
  64-element target, the frame of the orbit poset. ``analyze --json``
  and ``spectrum --dot`` each take about 0.2 s in a fresh process;
* a 500-point chain, its points shuffled, as a ``lattice`` document:
  ``analyze --json`` validates it with O(n^2) mask lookups (about
  1.3 s in all), where a bound search per pair costs O(n^3) (about 9 s);
* the identity ``galois`` document on a 40-point chain: ``spectrum
  --dot`` checks the quotient topology over the opens, not over all
  2^40 sets of classes;
* an edgeless 12-vertex ``graph`` document has 4096 admissible pairs,
  exactly the cap. Its pair order is read off the pair codes bit by bit
  (about 0.25 s in all), where deriving and certifying it pair by pair
  took about 13 s. The edgeless 13- and 24-vertex documents are
  refused, with exit 1 and one error line, once their invariant sets,
  enumerated as down-sets of the reach sets, pass the cap (the
  24-vertex one in about 0.2 s; minutes when every vertex set was
  tested for invariance). Only the invariant sets that carry a pair
  count against the cap: the edgeless 24-vertex graph with every vertex
  in J (one pair) and eight disjoint edges (256 pairs among 6561
  invariant sets) are accepted;
* a 2,048-vertex cycle ``graph`` document: its reach sets are the
  closure of the edge rows, taken pivot by pivot (Warshall, about
  0.6 s in all), where a fixpoint loop over every bit of every row
  took about 3.9 s;
* a 400-point chain with M3 on top, as a ``lattice`` document, is
  refused as not distributive, with exit 1 and one error line, under a
  tighter 1.5 s timeout (about 0.3 s on 2 vCPUs): the witness scan
  skips every chain point, comparable with every element, where the
  full n^3 scan took about 3.2 s;
* 6000-point chains, as a ``lattice`` and as an ``action`` document,
  are refused at the schema step, before their closure is taken (26
  and 34 s to a later refusal when the cap applied only to the built
  lattice or space), and so is a 5000-vertex ``graph`` document.
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


def run_child(tmp_path, doc, command, *options, timeout=TIMEOUT_S):
    """One CLI command on ``doc``, in a child process."""
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env.pop("STONE_MAX_LATTICE", None)
    return subprocess.run(
        [sys.executable, "-c", "from stonekit.cli import main; main()", command, str(path), *options],
        capture_output=True,
        env=env,
        timeout=timeout,
    )


def run_cli(tmp_path, doc, command, *options):
    """stdout of one CLI command on ``doc`` that must succeed."""
    out = run_child(tmp_path, doc, command, *options)
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


def test_action_at_the_cap(tmp_path):
    doc = {
        "kind": "action",
        "payload": {"space": {"points": 12, "covers": []}, "generators": [[k ^ 1 for k in range(12)]]},
    }
    report = json.loads(run_cli(tmp_path, doc, "analyze", "--json"))
    assert report["sizes"] == {"lattice_a": 4096, "lattice_b": 64, "restricted": 64, "induced": 64}
    assert set(report["conditions"].values()) == {True}
    assert report["detects"] and report["separates"]
    dot = tmp_path / "spectrum.dot"
    run_cli(tmp_path, doc, "spectrum", "--dot", str(dot))
    text = dot.read_text()
    # the twelve source primes, X minus a point, fall into six
    # quasi-orbit classes, one per orbit {2k, 2k + 1}; each target prime
    # is the set of the orbits but one
    assert len(re.findall(r"^    s\d+ \[label=", text, re.M)) == 12
    targets = re.findall(r'^    t\d+ \[label="(.*)"\];$', text, re.M)
    assert targets == ["{" + ",".join(str(o) for o in range(6) if o != k) + "}" for k in (5, 4, 3, 2, 1, 0)]
    classes = re.findall(r'^    q\d+ \[label="(.*)"\];$', text, re.M)
    assert classes == [f"{{{2 * k},{2 * k + 1}}}" for k in range(6)]
    assert len(re.findall(r'^  t\d+ -> q\d+ \[style=dotted, label="rho"\];$', text, re.M)) == 6


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


def edgeless_graph(vertices):
    return {"kind": "graph", "payload": {"vertices": vertices, "edges": []}}


def test_edgeless_graph_at_the_cap(tmp_path):
    report = json.loads(run_cli(tmp_path, edgeless_graph(12), "analyze", "--json"))
    assert (report["pairs"], report["primes"]) == (4096, 12)


def test_edgeless_graph_past_the_cap_is_refused(tmp_path):
    for vertices in (13, 24):
        out = run_child(tmp_path, edgeless_graph(vertices), "analyze", "--json")
        assert out.returncode == 1
        assert out.stdout == b""
        assert out.stderr == b"error: more than 4096 down-sets; raise STONE_MAX_LATTICE to allow\n"


def test_graphs_with_few_admissible_sets_are_accepted(tmp_path):
    # an edgeless 24-vertex graph with every vertex in J has 2^24
    # invariant sets but one admissible pair; eight disjoint edges, with
    # the default J of their sources, have 3^8 invariant sets and 2^8 pairs
    relative = {"vertices": 24, "edges": [], "j": list(range(24))}
    disjoint = {"vertices": 16, "edges": [[2 * k, 2 * k + 1] for k in range(8)]}
    for payload, pairs in ((relative, 1), (disjoint, 256)):
        report = json.loads(run_cli(tmp_path, {"kind": "graph", "payload": payload}, "analyze", "--json"))
        assert report["pairs"] == pairs


def test_cycle_graph_reach_closure(tmp_path):
    # one reach class holding every vertex: the invariant sets are the
    # empty set and everything, and the pair lattice is a 2-chain
    n = 2048
    doc = {"kind": "graph", "payload": {"vertices": n, "edges": [[k, (k + 1) % n] for k in range(n)]}}
    report = json.loads(run_cli(tmp_path, doc, "analyze", "--json"))
    assert (report["pairs"], report["primes"], report["j"]) == (2, 1, list(range(n)))


def test_chain_with_m3_on_top_is_refused_quickly(tmp_path):
    n = 400
    covers = [[k, k + 1] for k in range(n - 1)]
    # the chain's top is the bottom of M3: atoms n, n + 1, n + 2, top n + 3
    covers += [[n - 1, n + k] for k in range(3)] + [[n + k, n + 3] for k in range(3)]
    doc = {"kind": "lattice", "payload": {"order": {"points": n + 4, "covers": covers}}}
    out = run_child(tmp_path, doc, "analyze", "--json", timeout=1.5)
    assert out.returncode == 1
    assert out.stdout == b""
    assert out.stderr.decode().splitlines() == [
        f"error: source lattice is not distributive at ({n}, {n + 1}, {n + 2})"
    ]


def test_posets_past_the_cap_are_refused_at_the_schema_step(tmp_path):
    chain = chain_order(6000)
    docs = {
        "$.payload.order": {"kind": "lattice", "payload": {"order": chain}},
        "$.payload.space": {"kind": "action", "payload": {"space": chain, "generators": []}},
    }
    for path, doc in docs.items():
        out = run_child(tmp_path, doc, "analyze", "--json")
        assert out.returncode == 1
        assert out.stdout == b""
        assert out.stderr == f"error: {path}.points: 6000 points exceeds the cap of 4096\n".encode()


def test_graph_past_the_cap_is_refused_at_the_schema_step(tmp_path):
    out = run_child(tmp_path, edgeless_graph(5000), "analyze", "--json")
    assert out.returncode == 1
    assert out.stdout == b""
    assert out.stderr == b"error: $.payload.vertices: 5000 vertices exceeds the cap of 4096\n"
