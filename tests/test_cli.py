"""CLI surface: analyze reports, DOT export, the sweep driver."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from cli_runner import invoke
from stonekit import (
    EX_74,
    EX_210,
    EX_211,
    EX_213,
    EX_75,
    FiniteGroupAction,
    FinitePoset,
    FiniteT0Space,
    SweepFailed,
    SweepReport,
    InstanceGenerator,
    action_inclusion_data,
    check_C1,
    check_C2,
    check_JR,
    check_MI,
    check_MIf,
    detects,
    document_for,
    dumps_document,
    gen_inclusion_data,
    j_x,
    separates,
    to_inclusion_data,
)
from stonekit._kernels import bits
from stonekit.cli import _set_str, main
from stonekit.lattice import escaping_pair, join_irreducibles


def write_model(tmp_path, name, model):
    path = tmp_path / name
    path.write_text(dumps_document(document_for(model)))
    return str(path)


def write_raw(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


SRC = Path(__file__).resolve().parent.parent / "src"
CHAIN_DOC = '{"kind": "lattice", "payload": {"order": {"points": 2, "covers": [[0, 1]]}}}'


def node_lines(dot, tag):
    return re.findall(rf"^\s+{tag}\d+ \[label=", dot, flags=re.M)


class TestAnalyze:
    def test_separating_fixture_report(self, tmp_path):
        path = write_model(tmp_path, "d.json", to_inclusion_data(EX_213()))
        result = invoke(["analyze", path])
        assert result.exit_code == 0
        assert "JR: fail" in result.output
        assert "C1: n/a (gated on JR)" in result.output
        assert "MIf: pass" in result.output
        assert "separates: yes" in result.output

    def test_matrix_fixture_json(self, tmp_path):
        path = write_model(tmp_path, "m.json", EX_74())
        result = invoke(["analyze", path, "--json"])
        assert result.exit_code == 0
        report = json.loads(result.output)
        assert report["conditions"]["MIf"] is False
        assert report["conditions"]["MI"] is False
        assert report["conditions"]["C2"] is None
        assert report["MIf_witness"] == [2, 3]
        assert report["symmetric"] == [[], [0, 1]]

    def test_identity_lattice_has_every_condition(self, tmp_path):
        path = write_raw(tmp_path, "c.json", CHAIN_DOC)
        result = invoke(["analyze", path, "--json"])
        assert result.exit_code == 0
        report = json.loads(result.output)
        assert report["conditions"] == {
            "JR": True,
            "C1": True,
            "MIf": True,
            "MI": True,
            "C2": True,
        }
        assert report["detects"] and report["separates"]

    def test_graph_report(self, tmp_path):
        path = write_model(tmp_path, "g.json", (EX_75(), j_x(EX_75())))
        result = invoke(["analyze", path])
        assert result.exit_code == 0
        assert "pairs: 4" in result.output
        assert "prime points: 2" in result.output

    def test_output_is_byte_identical(self, tmp_path):
        path = write_model(tmp_path, "m.json", EX_74())
        runs = [
            invoke(["analyze", path, "--json"]).output
            for _ in range(2)
        ]
        assert runs[0] == runs[1]

    def test_missing_file_exits_one(self, tmp_path):
        result = invoke(["analyze", str(tmp_path / "no.json")])
        assert result.exit_code == 1
        assert "error:" in result.output

    def test_parse_error_is_line_anchored(self, tmp_path):
        path = write_raw(tmp_path, "bad.json", '{"kind": "lattice"')
        result = invoke(["analyze", path])
        assert result.exit_code == 1
        assert "line 1" in result.output

    @pytest.mark.parametrize(
        "data, message",
        [
            (b"\xff\xfe" + CHAIN_DOC.encode("utf-16-le"), "not UTF-8 text"),
            (b"[" * 100000 + b"]" * 100000, "nested too deeply"),
        ],
        ids=["utf-16", "deep-nesting"],
    )
    def test_malformed_bytes_are_one_error_line(self, tmp_path, data, message):
        path = tmp_path / "bad.json"
        path.write_bytes(data)
        result = invoke(["analyze", str(path)])
        assert result.exit_code == 1
        assert result.stdout == ""
        assert result.stderr.startswith("error: ") and result.stderr.count("\n") == 1
        assert message in result.stderr

    def test_schema_error_is_path_anchored(self, tmp_path):
        path = write_raw(
            tmp_path,
            "bad.json",
            '{"kind": "multiplicity", "payload": {"matrix": [[1], [1, 0]]}}',
        )
        result = invoke(["analyze", path])
        assert result.exit_code == 1
        assert "$.payload.matrix" in result.output

    @pytest.mark.parametrize(
        "args, key",
        [(["analyze"], "a_dims"), (["spectrum", "--dot", "out.dot"], "b_dims")],
    )
    def test_zero_summand_dimension_is_one_error_line(self, tmp_path, args, key):
        payload = {"matrix": [[1, 0], [0, 1]], key: [0, 1]}
        path = write_raw(
            tmp_path, "zero.json", json.dumps({"kind": "multiplicity", "payload": payload})
        )
        result = invoke([args[0], path, *args[1:]])
        assert result.exit_code == 1
        assert result.stderr.splitlines() == [
            f"error: $.payload.{key}[0]: expected an integer >= 1, got 0"
        ]
        assert "Traceback" not in result.output


def library_report(d):
    """The analyze fields of an InclusionData, from the library alone;
    the witness names the escaping meet by the join-irreducibles below
    it, as indices into join_irreducibles(B)."""
    jr, mi = check_JR(d), check_MI(d)
    report = {
        "sizes": {
            "lattice_a": d.lattice_a.n,
            "lattice_b": d.lattice_b.n,
            "restricted": len(d.restricted),
            "induced": len(d.induced),
        },
        "conditions": {
            "JR": jr,
            "C1": check_C1(d) if jr else None,
            "MIf": check_MIf(d),
            "MI": mi,
            "C2": check_C2(d) if mi else None,
        },
        "detects": detects(d.gc),
        "separates": separates(d.gc),
    }
    b = d.lattice_b
    bad = escaping_pair(b, "meet", d.induced)
    if bad is not None:
        meet = b.meet(*bad)
        below = [j for j in join_irreducibles(b) if b.leq(j, meet)]
        # every element is the join of the join-irreducibles below it
        assert b.big_join(below) == meet
        report["MIf_witness"] = [join_irreducibles(b).index(j) for j in below]
    return report


def round_trip_instances():
    fixtures = [to_inclusion_data(m()) for m in (EX_210, EX_211, EX_213, EX_74)]
    draws = [
        gen_inclusion_data(InstanceGenerator(seed=k, family=family, max_points=5))
        for family in ("random-galois", "action", "bundle", "multiplicity")
        for k in range(40)
    ]
    return fixtures + draws


class TestAgreesWithTheLibrary:
    """Every fixture and sweep-family draw, written by document_for as a
    galois document, gets the library's report from analyze --json,
    whose lattices carry no labels; spectrum --dot runs on each."""

    def test_round_trip_reports_match(self, tmp_path):
        witnesses = 0
        for k, d in enumerate(round_trip_instances()):
            path = write_model(tmp_path, f"d{k}.json", d)
            result = invoke(["analyze", path, "--json"])
            assert result.exit_code == 0, (k, result.output)
            report = json.loads(result.output)
            assert report["kind"] == "galois"
            del report["kind"], report["name"]
            assert report == library_report(d), k
            witnesses += "MIf_witness" in report
            dot = tmp_path / f"d{k}.dot"
            result = invoke(["spectrum", path, "--dot", str(dot)])
            assert result.exit_code == 0, (k, result.output)
            assert dot.read_text().startswith("digraph spectrum {")
        assert witnesses > 0

    def test_unlabeled_witness_in_text_mode(self, tmp_path):
        # EX_74 as a galois document: the crash of the labels lookup
        path = write_model(tmp_path, "ex74.json", to_inclusion_data(EX_74()))
        result = invoke(["analyze", path])
        assert result.exit_code == 0
        assert "MIf: fail (meet {2,3} of induced pair escapes)" in result.output


PAST_THE_CAP = {
    # a 1 x 13 all-ones matrix has an 8192-element target lattice,
    # refused by its shape at the schema step
    "matrix": (
        {"kind": "multiplicity", "payload": {"matrix": [[1] * 13]}},
        "error: $.payload.matrix: 8192 summand sets (1 x 13 matrix) exceeds the cap of 4096",
    ),
    # every point set of a 13-point antichain is open
    "action": (
        {"kind": "action", "payload": {"space": {"points": 13}, "generators": []}},
        "error: more than 4096 down-sets; raise STONE_MAX_LATTICE to allow",
    ),
    # the total space is refused before the projection is checked
    "bundle": (
        {
            "kind": "bundle",
            "payload": {"total": {"points": 13}, "base": {"points": 1}, "proj": [0] * 13},
        },
        "error: more than 4096 down-sets; raise STONE_MAX_LATTICE to allow",
    ),
    # every vertex set of an edgeless graph is invariant
    "graph": (
        {"kind": "graph", "payload": {"vertices": 13, "edges": []}},
        "error: more than 4096 down-sets; raise STONE_MAX_LATTICE to allow",
    ),
}


class TestPastTheCap:
    """Lattices are built after the document is read; a refusal there
    is one error line too, not a traceback."""

    @pytest.mark.parametrize("command", ["analyze", "spectrum"])
    @pytest.mark.parametrize("kind", sorted(PAST_THE_CAP))
    def test_refusal_is_one_error_line(self, tmp_path, monkeypatch, command, kind):
        monkeypatch.delenv("STONE_MAX_LATTICE", raising=False)
        doc, message = PAST_THE_CAP[kind]
        path = write_raw(tmp_path, "big.json", json.dumps(doc))
        dot = tmp_path / "out.dot"
        options = ["--dot", str(dot)] if command == "spectrum" else []
        result = invoke([command, path, *options])
        assert result.exit_code == 1
        assert result.stderr.splitlines() == [message]
        assert "Traceback" not in result.output
        assert not dot.exists()


class TestSpectrum:
    def run_dot(self, tmp_path, doc_path):
        out = tmp_path / "out.dot"
        result = invoke(["spectrum", doc_path, "--dot", str(out)])
        assert result.exit_code == 0
        return out.read_text()

    def test_separating_fixture_has_two_bare_spectra(self, tmp_path):
        path = write_model(tmp_path, "d.json", to_inclusion_data(EX_213()))
        dot = self.run_dot(tmp_path, path)
        assert len(node_lines(dot, "s")) == 3
        assert len(node_lines(dot, "t")) == 2
        assert not node_lines(dot, "q")
        assert "rho" not in dot

    def test_action_collapses_to_one_class(self, tmp_path):
        space = FiniteT0Space(FinitePoset.antichain(3))
        action = FiniteGroupAction(space, ((1, 2, 0),))
        path = write_model(tmp_path, "a.json", action)
        dot = self.run_dot(tmp_path, path)
        assert len(node_lines(dot, "s")) == 3
        assert len(node_lines(dot, "q")) == 1
        assert dot.count("-> q0 [style=dashed]") == 3
        assert dot.count('label="rho"') == 1

    def test_action_target_primes_are_labeled_by_sets_of_orbits(self, tmp_path):
        # two chains 0 < 2 and 1 < 3, swapped, and a fixed point 4: the
        # orbits, numbered by least point, are {0,1} < {2,3} and {4}.
        # Each target prime is a down-set of that orbit poset, printed as
        # the set of orbits it holds, whose union is an invariant open
        doc = {"space": {"points": 5, "covers": [[0, 2], [1, 3]]}, "generators": [[1, 0, 3, 2, 4]]}
        path = write_raw(tmp_path, "a.json", json.dumps({"kind": "action", "payload": doc}))
        dot = self.run_dot(tmp_path, path)
        labels = re.findall(r'^    t\d+ \[label="(.*)"\];$', dot, flags=re.M)
        assert labels == ["{0,1}", "{2}", "{0,2}"]
        space = FiniteT0Space(FinitePoset.from_pairs(5, doc["space"]["covers"]))
        d = action_inclusion_data(FiniteGroupAction(space, doc["generators"]))
        spec = d.spectrum_b
        assert labels == [_set_str(spec.locale.labels[p]) for p in spec.primes]
        orbits = (0b00011, 0b01100, 0b10000)
        unions = [sum(orbits[o] for o in bits(spec.locale.labels[p])) for p in spec.primes]
        assert unions == [0b01111, 0b10000, 0b10011]
        assert unions == [d.lattice_a.labels[d.gc.upper.values[p]] for p in spec.primes]

    def test_single_point_lattice_is_a_single_node(self, tmp_path):
        path = write_raw(tmp_path, "c.json", CHAIN_DOC)
        dot = self.run_dot(tmp_path, path)
        assert len(node_lines(dot, "p")) == 1
        assert dot.startswith("digraph spectrum {")

    def test_graph_documents_render_the_pair_primes(self, tmp_path):
        path = write_model(tmp_path, "g.json", (EX_75(), j_x(EX_75())))
        dot = self.run_dot(tmp_path, path)
        assert len(node_lines(dot, "p")) == 2

    def test_bad_document_exits_one(self, tmp_path):
        path = write_raw(tmp_path, "bad.json", "[]")
        out = tmp_path / "out.dot"
        result = invoke(["spectrum", path, "--dot", str(out)])
        assert result.exit_code == 1
        assert not out.exists()


class TestVerify:
    def test_clean_sweep_prints_report(self):
        result = invoke(["verify", "--suite", "L51"])
        assert result.exit_code == 0
        report = json.loads(result.output)
        assert report["violations"] == 0
        assert report["checked"] == 441

    def test_runs_are_reproducible(self):
        args = ["verify", "--suite", "T42", "--budget", "25", "--seed", "9"]
        a = invoke(args)
        b = invoke(args)
        assert a.exit_code == b.exit_code == 0
        assert a.output == b.output

    def test_unknown_suite_exits_one(self):
        result = invoke(["verify", "--suite", "bogus"])
        assert result.exit_code == 1
        assert "unknown sweep tag" in result.output

    def test_over_cap_budget_exits_one(self):
        result = invoke(["verify", "--suite", "T62", "--budget", "6"])
        assert result.exit_code == 1

    def test_refused_sweep_is_one_error_line(self, monkeypatch):
        # a cap of 2 refuses the first lattice the sweep builds; T47
        # builds the down-set lattices of its instances (T42 decides on
        # points and builds none)
        monkeypatch.setenv("STONE_MAX_LATTICE", "2")
        result = invoke(["verify", "--suite", "T47", "--budget", "5"])
        assert result.exit_code == 1
        assert result.stdout == ""
        assert result.stderr.splitlines() == [
            "error: more than 2 down-sets; raise STONE_MAX_LATTICE to allow"
        ]

    def test_assert_escalates_violations(self, monkeypatch):
        report = SweepReport(
            tag="T42",
            seed=1,
            budget=5,
            checked=3,
            applicable=2,
            violations=1,
            counterexample={"kind": "multiplicity", "payload": {"matrix": [[1]]}},
        )

        def explode(tag, budget=None, seed=0):
            raise SweepFailed("instance violates the equivalence", report=report)

        monkeypatch.setattr("stonekit.cli.sweep_theorem", explode)
        strict = invoke(["verify", "--suite", "T42", "--assert"])
        assert strict.exit_code == 2
        assert json.loads(strict.output)["counterexample"]["kind"] == "multiplicity"
        lax = invoke(["verify", "--suite", "T42"])
        assert lax.exit_code == 0
        assert json.loads(lax.output)["violations"] == 1


class TestUsage:
    """Usage errors are input errors: exit 1, one usage message on
    stderr, nothing on stdout."""

    @pytest.mark.parametrize(
        "args",
        [
            ["verify"],
            ["verify", "--suite", "T42", "--seed", "x"],
            ["verify", "--suite", "T42", "--budget", "1.5"],
            ["bogus"],
            ["analyze"],
            ["spectrum", "doc.json"],
            ["analyze", "doc.json", "--jso"],
            [],
        ],
        ids=["no-suite", "seed", "budget", "subcommand", "no-path", "no-dot", "abbreviation", "empty"],
    )
    def test_usage_error_exits_one(self, args):
        result = invoke(args)
        assert result.exit_code == 1
        assert result.stdout == ""
        assert "error:" in result.stderr
        assert "Traceback" not in result.stderr

    @pytest.mark.parametrize("args", [["--help"], ["verify", "--help"], ["analyze", "-h"]])
    def test_help_exits_zero(self, args):
        result = invoke(args)
        assert result.exit_code == 0
        assert result.stdout.startswith("usage: stonekit")
        assert result.stderr == ""

    def test_options_follow_or_precede_the_path(self, tmp_path):
        path = write_raw(tmp_path, "c.json", CHAIN_DOC)
        before = invoke(["analyze", "--json", path])
        after = invoke(["analyze", path, "--json"])
        assert before.exit_code == after.exit_code == 0
        assert before.stdout == after.stdout


class TestDispatch:
    """perfbench/tracing.py wraps ``main.commands[name].callback``; the
    wrapper must see every command."""

    def test_command_table(self):
        assert set(main.commands) == {"analyze", "spectrum", "verify"}
        for name, command in main.commands.items():
            assert command.name == name

    def test_main_calls_the_table_callback(self, tmp_path, monkeypatch):
        path = write_raw(tmp_path, "c.json", CHAIN_DOC)
        calls = []
        monkeypatch.setattr(
            main.commands["analyze"], "callback", lambda **kw: calls.append(kw)
        )
        result = invoke(["analyze", path, "--json"])
        assert result.exit_code == 0
        assert result.output == ""
        assert calls == [{"path": path, "as_json": True}]


@pytest.mark.parametrize("module", ["stonekit", "stonekit.cli"])
def test_python_m_runs_the_command(module):
    args = ["verify", "--suite", "T42", "--budget", "5", "--seed", "9"]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env.pop("STONE_MAX_LATTICE", None)
    child = subprocess.run(
        [sys.executable, "-m", module, *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert child.returncode == 0, child.stderr
    assert child.stderr == ""
    assert child.stdout == invoke(args).stdout
    assert json.loads(child.stdout)["checked"] == 5
