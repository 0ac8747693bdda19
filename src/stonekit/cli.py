"""Command line front end.

Three subcommands: ``analyze`` prints a condition report for an
instance document, ``spectrum`` exports prime spectra (and the
quasi-orbit quotient when it exists) as DOT, ``verify`` drives the
sweep engine. Reports carry no timestamps, so output is byte-identical
across runs of the same input. Exit codes: 0 success, 1 input error,
2 a violation under ``verify --assert``.
"""

from __future__ import annotations

import json
import sys

import click

from ._kernels import bits
from .documents import compile_document, inclusion_data_for, load_document
from .errors import (
    ConditionViolated,
    DocumentError,
    StonekitError,
    SweepFailed,
)
from .conformance import sweep_theorem
from .galois import detects, separates
from .graph_pairs import j_pairs, pair_prime_space
from .multiplicity import is_symmetric
from .quasiorbit import (
    _mi_witness,
    check_C1,
    check_C2,
    check_JR,
    check_MI,
    check_MIf,
    quasi_orbit_map,
    quasi_orbit_space,
)

# usage errors are input errors (exit 1); 2 is reserved for --assert
click.UsageError.exit_code = 1


def _set_str(mask: int) -> str:
    return "{" + ",".join(str(i) for i in bits(mask)) + "}"


def _load(path):
    try:
        doc = load_document(path)
        return doc, compile_document(doc)
    except OSError as e:
        click.echo(f"error: {e}", err=True)
        sys.exit(1)
    except (DocumentError, StonekitError) as e:
        click.echo(f"error: {e}", err=True)
        sys.exit(1)


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
        x, y = _mi_witness(d, include_top=False)
        meet = d.lattice_b.meet(x, y)
        report["MIf_witness"] = list(bits(d.lattice_b.labels[meet]))
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


@click.group()
def main():
    """Finite lattice models of ideal inclusions."""


@main.command()
@click.argument("path")
@click.option("--json", "as_json", is_flag=True, help="machine-readable report")
def analyze(path, as_json):
    """Print the condition report for an instance document."""
    doc, model = _load(path)
    report = _condition_report(doc, model)
    if as_json:
        click.echo(json.dumps(report, indent=2, sort_keys=True))
    else:
        click.echo(_render_text(report))


@main.command()
@click.argument("path")
@click.option("--dot", "out", required=True, help="output DOT file")
def spectrum(path, out):
    """Export the prime spectra of a document as a DOT digraph."""
    doc, model = _load(path)
    text = _dot_text(doc, model)
    try:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as e:
        click.echo(f"error: {e}", err=True)
        sys.exit(1)


@main.command()
@click.option("--suite", required=True, help="sweep tag, e.g. T42")
@click.option("--seed", default=0, show_default=True, type=int)
@click.option("--budget", default=None, type=int)
@click.option("--assert", "strict", is_flag=True, help="exit 2 on any violation")
def verify(suite, seed, budget, strict):
    """Run one conformance sweep and print its report as JSON."""
    try:
        report = sweep_theorem(suite, budget=budget, seed=seed)
    except ValueError as e:
        click.echo(f"error: {e}", err=True)
        sys.exit(1)
    except SweepFailed as e:
        click.echo(json.dumps(e.report.as_dict(), indent=2, sort_keys=True))
        sys.exit(2 if strict else 0)
    click.echo(json.dumps(report.as_dict(), indent=2, sort_keys=True))
