"""The three benchmark workloads: inputs, timed rounds, output checks.

A workload is driven in rounds. ``setup`` imports stonekit and makes the
inputs from the seed; ``run_round`` performs one round of operations,
timing each call into the program from outside; ``verify`` compares
every output against the oracles in ``oracles.py`` and the paper's
worked values, and returns a list of problems (empty when all agree).

stonekit is imported inside ``setup`` so that its import is part of the
measured set-up time.
"""

from __future__ import annotations

import json
import os
import random
import re
import subprocess
import sys
import time
from dataclasses import dataclass, field

import oracles

HERE = os.path.dirname(os.path.abspath(__file__))
MASK64 = (1 << 64) - 1


@dataclass
class Op:
    """One call into the program: its label, latency and outcome."""

    label: str
    seconds: float
    ok: bool
    output: object = None
    error: str | None = None


@dataclass
class Round:
    index: int
    seconds: float
    ops: list[Op] = field(default_factory=list)


def _timed(label, fn) -> Op:
    t0 = time.perf_counter()
    try:
        out = fn()
    except Exception as exc:  # an operation that fails is counted, not fatal
        return Op(label, time.perf_counter() - t0, False, error=f"{type(exc).__name__}: {exc}")
    return Op(label, time.perf_counter() - t0, True, out)


# -- t62-census ---------------------------------------------------------------------


class T62Census:
    """``sweep_theorem("T62")`` at its default budget: every action of an
    automorphism subgroup of order <= 6 on every labeled poset of up to 5
    points. The census is exhaustive, so the seed only labels the report."""

    name = "t62-census"
    budget = 5

    def setup(self, seed: int, workdir: str) -> dict:
        import stonekit

        return {"sk": stonekit, "seed": seed & MASK64}

    def run_round(self, inputs: dict, index: int, tracer=None) -> Round:
        sk = inputs["sk"]
        if tracer is not None:
            tracer.begin_op("T62")
        t0 = time.perf_counter()
        op = _timed("T62", lambda: sk.sweep_theorem("T62", seed=inputs["seed"]).as_dict())
        return Round(index, time.perf_counter() - t0, [op])

    def verify(self, inputs: dict, rounds: list[Round]) -> list[str]:
        census = oracles.t62_census(self.budget)
        problems = []
        if census["posets"] != list(oracles.LABELED_POSETS[1 : self.budget + 1]):
            problems.append(f"poset oracle disagrees with A001035: {census['posets']}")
        want = {
            "tag": "T62",
            "seed": inputs["seed"],
            "budget": self.budget,
            "checked": census["actions"],
            "applicable": census["actions"],
            "violations": 0,
            "counterexample": None,
        }
        for rnd in rounds:
            for op in rnd.ops:
                if op.ok and op.output != want:
                    problems.append(f"round {rnd.index}: T62 report {op.output} != {want}")
        return problems


# -- theorem-sweeps ---------------------------------------------------------------------


SWEEP_TAGS = ("T33", "T42", "T47", "C48", "C49", "L51", "C54")
RANDOM_BUDGET = 1000
FAMILY_CYCLES = {
    "T42": ("random-galois",),
    "T47": ("random-galois",),
    "C48": ("random-galois", "action", "bundle"),
    "C49": ("random-galois", "action", "bundle"),
}
BUDGETS = {"T33": 5, "L51": 3, "C54": 3, **{t: RANDOM_BUDGET for t in FAMILY_CYCLES}}
VERDICT_SAMPLE = 24  # instances per round whose verdicts are recomputed


def child_seed(seed: int, k: int) -> int:
    """The seed of instance k of a randomized sweep (as conformance derives it)."""
    return (seed ^ (0x9E3779B97F4A7C15 * (k + 1))) & MASK64


class TheoremSweeps:
    """The seven other sweep tags at their default budgets, one sweep seed
    per round, drawn from the run's seed."""

    name = "theorem-sweeps"

    def setup(self, seed: int, workdir: str) -> dict:
        import stonekit

        rng = random.Random(f"{self.name}/{seed}")
        return {"sk": stonekit, "rng": rng, "seeds": []}

    def sweep_seed(self, inputs: dict, index: int) -> int:
        while len(inputs["seeds"]) <= index:
            inputs["seeds"].append(inputs["rng"].getrandbits(64))
        return inputs["seeds"][index]

    def run_round(self, inputs: dict, index: int, tracer=None) -> Round:
        sk = inputs["sk"]
        seed = self.sweep_seed(inputs, index)
        tags = list(SWEEP_TAGS)
        random.Random(f"{self.name}/order/{seed}").shuffle(tags)
        t0 = time.perf_counter()
        ops = []
        for tag in tags:
            if tracer is not None:
                tracer.begin_op(tag)
            ops.append(_timed(tag, lambda: sk.sweep_theorem(tag, seed=seed).as_dict()))
        return Round(index, time.perf_counter() - t0, ops)

    def verify(self, inputs: dict, rounds: list[Round]) -> list[str]:
        sk = inputs["sk"]
        fixed = {
            "T33": oracles.t33_census(5, 3),
            "L51": oracles.matrix_census_count(3),
            "C54": oracles.matrix_census_count(3),
        }
        c54_applicable = sum(
            oracles.MatrixOracle(m).c54_applicable() for m in oracles.matrices(3)
        )
        problems = []
        counted = {}
        for rnd in rounds:
            seed = self.sweep_seed(inputs, rnd.index)
            if seed not in counted:
                counted[seed] = self._applicable_counts(sk, seed, problems)
            applicable = {**fixed, **counted[seed], "C54": c54_applicable, "T47": RANDOM_BUDGET}
            for op in rnd.ops:
                if not op.ok:
                    continue
                tag = op.label
                want = {
                    "tag": tag,
                    "seed": seed,
                    "budget": BUDGETS[tag],
                    "checked": fixed.get(tag, RANDOM_BUDGET),
                    "applicable": applicable[tag],
                    "violations": 0,
                    "counterexample": None,
                }
                if op.output != want:
                    problems.append(f"round {rnd.index}: {tag} report {op.output} != {want}")
        return problems

    def _applicable_counts(self, sk, seed, problems) -> dict:
        """Recount what T42 and C48/C49 find applicable, instance by instance.

        T42 applies where JR holds, C48 and C49 where JR, C1 and MI hold
        (the quasi-orbit map exists). Each instance is rebuilt through
        ``gen_inclusion_data`` and judged by ``oracles.table_verdicts``;
        for a seeded sample the library's own verdicts are compared too.
        """
        sample = random.Random(f"sample/{seed}")
        counts = {}
        for tag, cycle in (("T42", FAMILY_CYCLES["T42"]), ("C48", FAMILY_CYCLES["C48"])):
            picked = set(sample.sample(range(RANDOM_BUDGET), VERDICT_SAMPLE))
            hits = 0
            for k in range(RANDOM_BUDGET):
                gen = sk.InstanceGenerator(
                    seed=child_seed(seed, k), family=cycle[k % len(cycle)], max_points=6
                )
                d = sk.gen_inclusion_data(gen)
                v = verdicts_of(d)
                hits += v["JR"] if tag == "T42" else v["JR"] and v["C1"] and v["MI"]
                if k in picked:
                    problems.extend(
                        f"{tag} instance {k} (seed {seed}): {p}" for p in compare_verdicts(sk, d, v)
                    )
            counts[tag] = hits
        counts["C49"] = counts["C48"]
        return counts


def verdicts_of(d) -> dict:
    gc = d.gc
    a, b = gc.lattice_a, gc.lattice_b
    return oracles.table_verdicts(
        a.meet_table, a.join_table, b.meet_table, b.join_table, gc.lower.values, gc.upper.values
    )


def compare_verdicts(sk, d, v) -> list[str]:
    lib = {
        "JR": sk.check_JR(d),
        "C1": sk.check_C1(d),
        "MIf": sk.check_MIf(d),
        "MI": sk.check_MI(d),
        "C2": sk.check_C2(d) if v["MI"] else None,
        "detects": sk.detects(d.gc),
        "separates": sk.separates(d.gc),
    }
    out = [f"{k}: library {lib[k]}, oracle {v[k]}" for k in lib if lib[k] != v[k]]
    if v["MI"] != (v["MIf"] and v["MI_top"]):
        out.append("oracle: MI differs from MIf plus an induced top")
    return out


# -- cli-docs ---------------------------------------------------------------------------

# The paper's worked examples, written out as documents.
FIXTURES = {
    "EX_210": {"matrix": [[1, 1]], "a_dims": [1], "b_dims": [1, 1]},
    "EX_211": {"matrix": [[1], [1]], "a_dims": [1, 1], "b_dims": [2]},
    "EX_213": {"matrix": [[1, 0], [0, 1], [1, 1]], "a_dims": [1, 1, 1], "b_dims": [2, 2]},
    "EX_74": {
        "matrix": [[1, 0, 1, 1], [0, 1, 1, 1]],
        "a_dims": [1, 1],
        "b_dims": [1, 1, 2, 2],
    },
}
EX_75 = {"vertices": 3, "edges": [[1, 0], [1, 2]]}
# Column counts of the generated matrices: target lattices of 64, 128,
# 256 and 256 elements. Two of the largest keep p90 among them.
GENERATED_COLS = (6, 7, 8, 8)
REFUSAL = re.compile(r"^error: (source|target) lattice is not distributive at \((\d+), (\d+), (\d+)\)$")
NODE = re.compile(r'^\s+([a-z])(\d+) \[label="')


def _nondistributive(rng: random.Random, base: str) -> dict:
    """M3 or N5, padded by short chains below and above, relabeled."""
    if base == "M3":
        n, covers = 5, [(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4)]
    else:
        n, covers = 5, [(0, 1), (1, 2), (2, 4), (0, 3), (3, 4)]
    bottom, top = 0, 4
    for _ in range(rng.randint(0, 2)):
        covers.append((n, bottom))
        bottom, n = n, n + 1
    for _ in range(rng.randint(0, 2)):
        covers.append((top, n))
        top, n = n, n + 1
    return _relabel(rng, n, covers, bottom)


def _chain(rng: random.Random, n: int) -> dict:
    return _relabel(rng, n, [(i, i + 1) for i in range(n - 1)], 0)


def _relabel(rng: random.Random, n: int, covers, bottom: int) -> dict:
    perm = list(range(n))
    rng.shuffle(perm)
    return {
        "order": {"points": n, "covers": sorted([perm[a], perm[b]] for a, b in covers)},
        "bottom": perm[bottom],
    }


def _generated_matrix(rng: random.Random, cols: int) -> list[list[int]]:
    rows = []
    for _ in range(rng.randint(1, 2)):
        row = [0] * cols
        while not any(row):
            row = [rng.choice((0, 0, 1, 1, 2)) for _ in range(cols)]
        rows.append(row)
    return rows


class CliDocs:
    """Fresh-process ``analyze --json`` and ``spectrum --dot`` runs over
    the paper fixtures, generated matrix documents and non-distributive
    documents that must be refused."""

    name = "cli-docs"

    def setup(self, seed: int, workdir: str) -> dict:
        import stonekit

        rng = random.Random(f"{self.name}/{seed}")
        docs = []

        def add(name, kind, payload, meta):
            path = os.path.join(workdir, f"{name}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump({"kind": kind, "name": name, "payload": payload}, fh)
            docs.append({"name": name, "kind": kind, "path": path, **meta})

        for name, payload in FIXTURES.items():
            add(name, "multiplicity", payload, {"role": "fixture", "matrix": payload["matrix"]})
        add("EX_75", "graph", EX_75, {"role": "fixture"})
        for k, cols in enumerate(GENERATED_COLS):
            matrix = _generated_matrix(rng, cols)
            add(f"gen-{cols}-{k}", "multiplicity", {"matrix": matrix}, {"role": "generated", "matrix": matrix})
        for base in ("M3", "N5"):
            lat = _nondistributive(rng, base)
            add(f"refuse-lattice-{base}", "lattice", {"order": lat["order"]}, {"role": "refusal", "side": "source", "order": lat["order"]})
        target = _nondistributive(rng, rng.choice(("M3", "N5")))
        source = _chain(rng, rng.randint(2, 4))
        add(
            "refuse-galois-target",
            "galois",
            {"source": source["order"], "target": target["order"], "lower": [target["bottom"]] * source["order"]["points"]},
            {"role": "refusal", "side": "target", "order": target["order"]},
        )
        source = _nondistributive(rng, rng.choice(("M3", "N5")))
        target = _chain(rng, rng.randint(2, 3))
        add(
            "refuse-galois-source",
            "galois",
            {"source": source["order"], "target": target["order"], "lower": [target["bottom"]] * source["order"]["points"]},
            {"role": "refusal", "side": "source", "order": source["order"]},
        )
        return {"sk": stonekit, "seed": seed, "docs": docs, "workdir": workdir, "trace_files": []}

    def run_round(self, inputs: dict, index: int, tracer=None) -> Round:
        env = dict(os.environ, STONEKIT_PURE="1")
        cmd = [sys.executable, os.path.join(HERE, "cli_main.py")]
        calls = [(doc, command) for doc in inputs["docs"] for command in ("analyze", "spectrum")]
        # A new order every round spreads each kind of call over the run,
        # so a slow spell of the machine does not land on one kind only.
        random.Random(f"{self.name}/order/{inputs['seed']}/{index}").shuffle(calls)
        t0 = time.perf_counter()
        ops = []
        for doc, command in calls:
            dot = os.path.join(inputs["workdir"], f"{doc['name']}.r{index}.dot")
            args = ["analyze", doc["path"], "--json"] if command == "analyze" else ["spectrum", doc["path"], "--dot", dot]
            label = f"{command} {doc['name']}"
            if tracer is not None:
                stem = os.path.join(inputs["trace_dir"], f"op{len(inputs['trace_files']):04d}")
                inputs["trace_files"].append(stem)
                env["PERFBENCH_TRACE"] = stem
            started = time.perf_counter()
            proc = subprocess.run(cmd + args, env=env, capture_output=True, text=True, timeout=120)
            seconds = time.perf_counter() - started
            out = {"code": proc.returncode, "stdout": proc.stdout, "stderr": proc.stderr}
            if args[0] == "spectrum" and os.path.exists(dot):
                with open(dot, encoding="utf-8") as fh:
                    out["dot"] = fh.read()
                os.remove(dot)
            ops.append(Op(label, seconds, self._completed(doc, out), {"doc": doc["name"], **out}))
        return Round(index, time.perf_counter() - t0, ops)

    @staticmethod
    def _completed(doc: dict, out: dict) -> bool:
        """A refusal completes when its witness triple really breaks
        distributivity; anything else completes with exit code 0."""
        if doc["role"] != "refusal":
            return out["code"] == 0
        m = REFUSAL.match(out["stderr"].strip())
        if out["code"] != 1 or m is None or m.group(1) != doc["side"] or "dot" in out:
            return False
        order = oracles.OrderOracle(doc["order"]["points"], doc["order"]["covers"])
        return order.breaks_distributivity(*(int(g) for g in m.groups()[1:]))

    def verify(self, inputs: dict, rounds: list[Round]) -> list[str]:
        sk = inputs["sk"]
        problems = []
        for name in FIXTURES:
            lib = sk.document_for(getattr(sk, name)())["payload"]["matrix"]
            if lib != FIXTURES[name]["matrix"]:
                problems.append(f"library {name} matrix {lib} is not the paper's")
        if sk.document_for((sk.EX_75(), 0))["payload"]["edges"] != EX_75["edges"]:
            problems.append("library EX_75 graph is not the paper's")
        docs = {d["name"]: d for d in inputs["docs"]}
        expected = {}
        for doc in inputs["docs"]:
            if doc["kind"] == "multiplicity":
                expected[doc["name"]] = oracles.MatrixOracle(doc["matrix"])
        pairs, primes = oracles.graph_pairs(EX_75["vertices"], EX_75["edges"])
        for rnd in rounds:
            for op in rnd.ops:
                if not op.ok or docs[op.output["doc"]]["role"] == "refusal":
                    continue
                doc = docs[op.output["doc"]]
                where = f"round {rnd.index}: {op.label}"
                if op.output["stderr"]:
                    problems.append(f"{where}: unexpected stderr {op.output['stderr']!r}")
                if doc["kind"] == "graph":
                    problems.extend(f"{where}: {p}" for p in self._check_graph(op, pairs, primes))
                else:
                    problems.extend(f"{where}: {p}" for p in self._check_matrix(op, doc, expected[doc["name"]]))
        return problems

    @staticmethod
    def _check_graph(op: Op, pairs, primes) -> list[str]:
        out = []
        if len(pairs) != 4 or primes != 2:
            out.append(f"oracle gives {len(pairs)} pairs, {primes} primes; the paper 4 and 2")
        if op.label.startswith("analyze"):
            report = json.loads(op.output["stdout"])
            want = {"kind": "graph", "name": "EX_75", "j": [1], "pairs": len(pairs), "primes": primes}
            if report != want:
                out.append(f"report {report} != {want}")
        else:
            nodes = _dot_nodes(op.output.get("dot", ""))
            if nodes != {"p": primes}:
                out.append(f"DOT nodes {nodes}, want {primes} pair primes")
        return out

    @staticmethod
    def _check_matrix(op: Op, doc: dict, oracle: oracles.MatrixOracle) -> list[str]:
        want = oracle.report()
        cond = want["conditions"]
        out = []
        if op.label.startswith("analyze"):
            report = json.loads(op.output["stdout"])
            for key in ("sizes", "conditions", "detects", "separates", "symmetric"):
                if report.get(key) != want[key]:
                    out.append(f"{key}: {report.get(key)} != {want[key]}")
            if report.get("kind") != "multiplicity" or report.get("name") != doc["name"]:
                out.append(f"kind/name {report.get('kind')}/{report.get('name')}")
            witness = report.get("MIf_witness")
            if cond["MIf"]:
                if witness is not None:
                    out.append("MIf witness printed though MIf holds")
            else:
                meet = sum(1 << j for j in witness or ())
                ind = want["induced"]
                if meet in ind or not any(x & y == meet for x in ind for y in ind):
                    out.append(f"MIf witness {witness} is not an escaping meet of induced sets")
            out.extend(_paper_values(doc["name"], want, report))
        else:
            dot = op.output.get("dot", "")
            nodes = _dot_nodes(dot)
            # A boolean lattice on k atoms has k primes: one node each.
            want_nodes = {"s": oracle.rows, "t": oracle.cols}
            if cond["JR"]:
                want_nodes["q"] = len(oracle.quasi_orbit_class_sizes(want["restricted"]))
            if nodes != want_nodes:
                out.append(f"DOT nodes {nodes} != {want_nodes}")
            dashed = dot.count("[style=dashed]")
            rho = dot.count('label="rho"')
            if dashed != (oracle.rows if cond["JR"] else 0):
                out.append(f"{dashed} quotient edges")
            if rho != (oracle.cols if cond["JR"] and cond["C1"] and cond["MI"] else 0):
                out.append(f"{rho} rho edges")
        return out


def _paper_values(name: str, want: dict, report: dict) -> list[str]:
    """The worked values of the paper's examples."""
    out = []
    if name == "EX_213":
        # restricted = {0, {a1}, {a2}, all}; JR fails; r separates
        if want["restricted"] != [0b000, 0b001, 0b010, 0b111]:
            out.append(f"EX_213 restricted sets {want['restricted']}")
        if report["sizes"]["restricted"] != 4 or report["conditions"]["JR"] is not False or report["separates"] is not True:
            out.append("EX_213: want 4 restricted sets, JR failing, separation")
    if name == "EX_74":
        # only the empty and the full row set are symmetric; the MIf
        # witness meet is {b3, b4}
        if report["symmetric"] != [[], [0, 1]] or report.get("MIf_witness") != [2, 3]:
            out.append(f"EX_74: symmetric {report['symmetric']}, witness {report.get('MIf_witness')}")
    return out


def _dot_nodes(dot: str) -> dict:
    counts: dict[str, int] = {}
    for line in dot.splitlines():
        m = NODE.match(line)
        if m:
            counts[m.group(1)] = counts.get(m.group(1), 0) + 1
    return counts


WORKLOADS = {w.name: w for w in (T62Census(), TheoremSweeps(), CliDocs())}
