"""Regenerate the golden corpus in this directory from the current tree.

    PYTHONPATH=src python tests/golden/regenerate.py

``sweep_reports.json`` holds ``SweepReport.as_dict()`` for every sweep
tag at seed 7 and its default budget, and at seeds 0 and 5 with small
budgets. A sweep that finds a violation raises, so a tree with a known
violation is never pinned.

``cli_outputs.json`` holds, for every document of ``cli_documents()``,
the document itself, the exit code, stdout and stderr of
``stonekit analyze --json`` and of ``stonekit spectrum --dot``, and the
DOT file text (None when no file is written). The documents are the
paper fixtures, generated matrices with 64-256 element targets, refused
non-frames (whose stderr carries the ``NotAFrame`` witness) and one
document of every other kind.

``tests/test_golden.py`` replays every entry of both files. A change may
regenerate the corpus only when CHANGES.md says which outputs changed
and why.
"""

from __future__ import annotations

import json
import random
import tempfile
from pathlib import Path

from click.testing import CliRunner

from stonekit import (
    EX_74,
    EX_75,
    EX_210,
    EX_211,
    EX_213,
    InstanceGenerator,
    document_for,
    dumps_document,
    gen_inclusion_data,
    j_x,
    sweep_theorem,
)
from stonekit.cli import main as cli_main
from stonekit.conformance import SWEEP_TAGS

HERE = Path(__file__).resolve().parent
SWEEP_REPORTS = HERE / "sweep_reports.json"
CLI_OUTPUTS = HERE / "cli_outputs.json"

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


def _poset(n: int, covers) -> dict:
    return {"points": n, "covers": [list(c) for c in covers]}


def _relabeled(rng: random.Random, n: int, covers) -> dict:
    perm = list(range(n))
    rng.shuffle(perm)
    return _poset(n, sorted((perm[a], perm[b]) for a, b in covers))


def _bottom(poset: dict) -> int:
    uppers = {upper for _, upper in poset["covers"]}
    return next(p for p in range(poset["points"]) if p not in uppers)


_M3 = (5, [(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4)])
_N5 = (5, [(0, 1), (1, 2), (2, 4), (0, 3), (3, 4)])


def cli_documents() -> dict[str, dict]:
    """Every document the CLI corpus pins, by name."""
    rng = random.Random("golden/cli")
    docs = {
        name: document_for(model(), name=name)
        for name, model in (
            ("EX_210", EX_210),
            ("EX_211", EX_211),
            ("EX_213", EX_213),
            ("EX_74", EX_74),
        )
    }
    docs["EX_75"] = document_for((EX_75(), j_x(EX_75())), name="EX_75")
    # two-row matrices over 6-8 columns: targets of 64, 128 and 256 elements
    for cols in (6, 7, 8):
        matrix = [[rng.choice((0, 0, 1, 1, 2)) for _ in range(cols)] for _ in range(2)]
        docs[f"matrix-{cols}"] = {"kind": "multiplicity", "payload": {"matrix": matrix}}
    chain = _poset(3, [(0, 1), (1, 2)])
    for base, (n, covers) in (("M3", _M3), ("N5", _N5)):
        order = _relabeled(rng, n, covers)
        docs[f"refuse-lattice-{base}"] = {"kind": "lattice", "payload": {"order": order}}
    # the lower maps are constant at the bottom, so only the frame check fails
    target = _relabeled(rng, *_N5)
    docs["refuse-galois-target-N5"] = {
        "kind": "galois",
        "payload": {"source": chain, "target": target, "lower": [_bottom(target)] * 3},
    }
    docs["refuse-galois-source-M3"] = {
        "kind": "galois",
        "payload": {"source": _relabeled(rng, *_M3), "target": chain, "lower": [0] * 5},
    }
    docs["lattice"] = {
        "kind": "lattice",
        "payload": {"order": _poset(5, [(0, 1), (0, 2), (1, 3), (2, 3), (3, 4)])},
    }
    docs["galois"] = document_for(
        gen_inclusion_data(InstanceGenerator(seed=3, max_points=4)), name="galois"
    )
    docs["action"] = {
        "kind": "action",
        "payload": {
            "space": _poset(4, [(0, 2), (0, 3), (1, 2), (1, 3)]),
            "generators": [[1, 0, 2, 3], [0, 1, 3, 2]],
        },
    }
    docs["bundle"] = {
        "kind": "bundle",
        "payload": {"total": chain, "base": _poset(2, [(0, 1)]), "proj": [0, 0, 1]},
    }
    docs["graph"] = {
        "kind": "graph",
        "payload": {"vertices": 4, "edges": [[0, 1], [1, 2], [2, 3], [3, 1]]},
    }
    return docs


def run_cli(document: dict, workdir: Path) -> dict:
    """``analyze --json`` and ``spectrum --dot`` on one document, in-process."""
    path = workdir / "doc.json"
    dot = workdir / "doc.dot"
    path.write_text(dumps_document(document))
    dot.unlink(missing_ok=True)
    runner = CliRunner()
    out = {}
    for command, args in (
        ("analyze", ["analyze", str(path), "--json"]),
        ("spectrum", ["spectrum", str(path), "--dot", str(dot)]),
    ):
        result = runner.invoke(cli_main, args)
        out[command] = {
            "code": result.exit_code,
            "stdout": result.stdout,
            "stderr": result.stderr,
        }
    out["spectrum"]["dot"] = dot.read_text() if dot.exists() else None
    return out


def cli_outputs() -> list[dict]:
    with tempfile.TemporaryDirectory() as tmp:
        return [
            {"name": name, "document": doc, **run_cli(doc, Path(tmp))}
            for name, doc in cli_documents().items()
        ]


def _write(path: Path, entries: list[dict]) -> None:
    path.write_text(json.dumps(entries, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path}")


def main() -> None:
    _write(SWEEP_REPORTS, sweep_reports())
    _write(CLI_OUTPUTS, cli_outputs())


if __name__ == "__main__":
    main()
