"""Command line front end.

Three subcommands: ``analyze`` prints a condition report for an
instance document, ``spectrum`` exports prime spectra (and the
quasi-orbit quotient when it exists) as DOT, ``verify`` drives the
sweep engine. Reports carry no timestamps, so output is byte-identical
across runs of the same input. Exit codes: 0 success, 1 input error,
2 a violation under ``verify --assert``.

The parser is the standard library's ``argparse``: the package has no
runtime dependency, and every call of the command is a fresh process,
so start-up is most of what a small document costs.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import contextmanager
from types import SimpleNamespace

from ._kernels import bits
from .documents import compile_document, inclusion_data_for, load_document
from .errors import ConditionViolated, StonekitError, SweepFailed
from .conformance import sweep_theorem
from .galois import detects, separates
from .graph_pairs import j_pairs, pair_prime_space
from .lattice import join_irreducibles
from .multiplicity import is_symmetric
from .quasiorbit import (
    check_C1,
    check_C2,
    check_JR,
    check_MI,
    check_MIf,
    quasi_orbit_map,
    quasi_orbit_space,
)


def _echo(text: str, err: bool = False) -> None:
    # the stream is looked up per call, so a redirection in effect at
    # call time (an in-process test run, say) receives the text
    stream = sys.stderr if err else sys.stdout
    stream.write(text + "\n")
    stream.flush()


def _set_str(mask: int) -> str:
    return "{" + ",".join(str(i) for i in bits(mask)) + "}"


@contextmanager
def _input_errors():
    # One error line and exit 1 for an unreadable file or a refused
    # document, also when the refusal comes while its lattices are
    # built, past the size cap for instance.
    try:
        yield
    except (OSError, StonekitError) as e:
        _echo(f"error: {e}", err=True)
        sys.exit(1)


def _load(path):
    doc = load_document(path)
    return doc, compile_document(doc)


def _condition_report(doc, model) -> dict:
    if doc.kind == "graph":
        graph, jmask = model
        pl = j_pairs(graph, jmask)
        return {
            "kind": "graph",
            "name": doc.name,
            "j": list(bits(jmask)),
            "pairs": len(pl.pairs),
            "primes": len(pair_prime_space(pl).primes),
        }
    d = inclusion_data_for(model)
    jr = check_JR(d)
    mif = check_MIf(d)
    mi = check_MI(d)
    report = {
        "kind": doc.kind,
        "name": doc.name,
        "sizes": {
            "lattice_a": d.lattice_a.n,
            "lattice_b": d.lattice_b.n,
            "restricted": len(d.restricted),
            "induced": len(d.induced),
        },
        "conditions": {
            "JR": jr,
            "C1": check_C1(d) if jr else None,
            "MIf": mif,
            "MI": mi,
            "C2": check_C2(d) if mi else None,
        },
        "detects": detects(d.gc),
        "separates": separates(d.gc),
    }
    if not mif:
        # a down-set lattice names the meet by its label, its set of
        # points; any other lattice by the join-irreducibles below it,
        # as indices into join_irreducibles(B)
        b = d.lattice_b
        meet = b.meet(*d._mif_bad)
        if b.labels is not None:
            witness = bits(b.labels[meet])
        else:
            witness = (k for k, j in enumerate(join_irreducibles(b)) if b.leq(j, meet))
        report["MIf_witness"] = list(witness)
    if doc.kind == "multiplicity":
        rows = len(model.mult)
        report["symmetric"] = [
            list(bits(s)) for s in range(1 << rows) if is_symmetric(model, s)
        ]
    return report


def _flag(value) -> str:
    if value is None:
        return "n/a"
    return "pass" if value else "fail"


def _render_text(report: dict) -> str:
    lines = [f"kind: {report['kind']}"]
    if report["name"] is not None:
        lines.append(f"name: {report['name']}")
    if report["kind"] == "graph":
        lines.append("j: {" + ",".join(str(i) for i in report["j"]) + "}")
        lines.append(f"pairs: {report['pairs']}")
        lines.append(f"prime points: {report['primes']}")
        return "\n".join(lines)
    sizes = report["sizes"]
    lines.append(
        f"lattice A: {sizes['lattice_a']} elements; "
        f"lattice B: {sizes['lattice_b']} elements"
    )
    lines.append(
        f"restricted: {sizes['restricted']}; induced: {sizes['induced']}"
    )
    cond = report["conditions"]
    lines.append(f"JR: {_flag(cond['JR'])}")
    gate = " (gated on JR)" if cond["C1"] is None else ""
    lines.append(f"C1: {_flag(cond['C1'])}{gate}")
    if "MIf_witness" in report:
        meet = "{" + ",".join(str(i) for i in report["MIf_witness"]) + "}"
        lines.append(f"MIf: fail (meet {meet} of induced pair escapes)")
    else:
        lines.append(f"MIf: {_flag(cond['MIf'])}")
    lines.append(f"MI: {_flag(cond['MI'])}")
    gate = " (gated on MI)" if cond["C2"] is None else ""
    lines.append(f"C2: {_flag(cond['C2'])}{gate}")
    lines.append(f"detects: {'yes' if report['detects'] else 'no'}")
    lines.append(f"separates: {'yes' if report['separates'] else 'no'}")
    if "symmetric" in report:
        sets = ", ".join(
            "{" + ",".join(str(i) for i in s) + "}" for s in report["symmetric"]
        )
        lines.append(f"symmetric: {sets}")
    return "\n".join(lines)


def _cluster(lines, tag, title, space, labels):
    lines.append(f"  subgraph cluster_{tag} {{")
    lines.append(f'    label="{title}";')
    for k, text in enumerate(labels):
        lines.append(f'    {tag}{k} [label="{text}"];')
    for x, y in sorted(space.points.covers()):
        lines.append(f"    {tag}{x} -> {tag}{y};")
    lines.append("  }")


def _spectrum_labels(spec):
    labels = spec.locale.labels
    if labels is None:
        return [str(p) for p in spec.primes]
    return [_set_str(labels[p]) for p in spec.primes]


def _dot_text(doc, model) -> str:
    lines = ["digraph spectrum {", "  rankdir=BT;", "  node [shape=box];"]
    if doc.kind == "graph":
        graph, jmask = model
        pl = j_pairs(graph, jmask)
        spec = pair_prime_space(pl)
        labels = [
            f"({_set_str(i)},{_set_str(ip)})"
            for i, ip in (pl.lattice.labels[p] for p in spec.primes)
        ]
        _cluster(lines, "p", "pair primes", spec.space, labels)
    elif doc.kind == "lattice":
        d = model
        _cluster(lines, "p", "primes", d.spectrum_a.space, _spectrum_labels(d.spectrum_a))
    else:
        d = inclusion_data_for(model)
        _cluster(lines, "s", "source primes", d.spectrum_a.space, _spectrum_labels(d.spectrum_a))
        _cluster(lines, "t", "target primes", d.spectrum_b.space, _spectrum_labels(d.spectrum_b))
        if check_JR(d):
            qs = quasi_orbit_space(d)
            _cluster(
                lines,
                "q",
                "quasi-orbit classes",
                qs.quotient,
                [_set_str(c) for c in qs.classes],
            )
            for k, c in enumerate(qs.class_of):
                lines.append(f"  s{k} -> q{c} [style=dashed];")
            try:
                rho = quasi_orbit_map(d)
            except ConditionViolated:
                rho = None
            if rho is not None:
                for k, c in enumerate(rho.values):
                    lines.append(f'  t{k} -> q{c} [style=dotted, label="rho"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def analyze(path, as_json):
    """Print the condition report for an instance document."""
    with _input_errors():
        report = _condition_report(*_load(path))
    if as_json:
        _echo(json.dumps(report, indent=2, sort_keys=True))
    else:
        _echo(_render_text(report))


def spectrum(path, out):
    """Export the prime spectra of a document as a DOT digraph."""
    with _input_errors():
        text = _dot_text(*_load(path))
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def verify(suite, seed, budget, strict):
    """Run one conformance sweep and print its report as JSON."""
    try:
        report = sweep_theorem(suite, budget=budget, seed=seed)
    except ValueError as e:
        _echo(f"error: {e}", err=True)
        sys.exit(1)
    except SweepFailed as e:
        _echo(json.dumps(e.report.as_dict(), indent=2, sort_keys=True))
        sys.exit(2 if strict else 0)
    except StonekitError as e:
        # a refusal while drawing or checking instances, past the size
        # cap for instance; SweepFailed subclasses it, so it goes first
        _echo(f"error: {e}", err=True)
        sys.exit(1)
    _echo(json.dumps(report.as_dict(), indent=2, sort_keys=True))


class _Parser(argparse.ArgumentParser):
    """Usage errors are input errors: exit 1, as 2 is reserved for
    ``verify --assert``. Subcommand parsers are of this class too."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="stonekit",
        description="Finite lattice models of ideal inclusions.",
        allow_abbrev=False,
    )
    commands = parser.add_subparsers(dest="command", metavar="COMMAND", required=True)

    def command(fn):
        doc = fn.__doc__
        return commands.add_parser(fn.__name__, help=doc, description=doc, allow_abbrev=False)

    p = command(analyze)
    p.add_argument("path", metavar="PATH")
    p.add_argument("--json", dest="as_json", action="store_true", help="machine-readable report")
    p = command(spectrum)
    p.add_argument("path", metavar="PATH")
    p.add_argument("--dot", dest="out", required=True, metavar="FILE", help="output DOT file")
    p = command(verify)
    p.add_argument("--suite", required=True, help="sweep tag, e.g. T42")
    p.add_argument("--seed", type=int, default=0, help="default: %(default)s")
    p.add_argument("--budget", type=int)
    p.add_argument("--assert", dest="strict", action="store_true", help="exit 2 on any violation")
    return parser


def main(argv=None):
    """Run the ``stonekit`` command line ``argv`` (default ``sys.argv[1:]``)."""
    args = vars(_parser().parse_args(argv))
    # the callback is looked up per call, so a wrapper put in its place
    # (a tracer's, say) sees every command
    main.commands[args.pop("command")].callback(**args)


main.commands = {
    fn.__name__: SimpleNamespace(name=fn.__name__, callback=fn)
    for fn in (analyze, spectrum, verify)
}


if __name__ == "__main__":
    main()
