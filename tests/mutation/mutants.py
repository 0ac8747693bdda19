"""Hand-written source mutants for the mutation check (see run.py).

Each mutant names one file under ``src/stonekit/``, a target text that
must occur exactly once in it, the text that replaces it, and the test
modules expected to kill it. Every mutant plants a fault in a fast
algorithm that a definitional scan or an oracle in those modules is
meant to catch, or breaks an interface those modules pin. A surviving
mutant marks a missing test: add the test, never delete the mutant.
"""

from typing import NamedTuple


class Mutant(NamedTuple):
    name: str
    path: str
    before: str
    after: str
    modules: tuple[str, ...]


MUTANTS = (
    Mutant(
        "missing-bound-meet-join-swapped",
        "lattice.py",
        "meets, joins = list(_row(meet, x, x)), list(_row(join, x, x))",
        "meets, joins = list(_row(join, x, x)), list(_row(meet, x, x))",
        ("test_lattice.py",),
    ),
    Mutant(
        "irreducibles-row-not-made-strict",
        "lattice.py",
        "if row ^ (1 << x) in index",
        "if row in index",
        ("test_lattice.py", "test_certification.py"),
    ),
    Mutant(
        "row-start-off-by-one",
        "lattice.py",
        "repeat(masks[x]), masks[start:]",
        "repeat(masks[x]), masks[start + 1:]",
        ("test_lattice.py",),
    ),
    Mutant(
        "escaping-pair-reported-backwards",
        "lattice.py",
        "return a, next(b for b, v in zip(elements, landed) if v not in inside)",
        "return next(b for b, v in zip(elements, landed) if v not in inside), a",
        ("test_certification.py", "test_lattice.py", "test_quasiorbit.py"),
    ),
    Mutant(
        "preserves-without-unit-check",
        "lattice.py",
        "if tm[values[si[su]]] != tu:",
        "if False:",
        ("test_galois.py", "test_spectrum.py"),
    ),
    Mutant(
        "inclusion-rows-skip-last-bit-slice",
        "lattice.py",
        "        for s in slices:\n",
        "        for s in slices[:-1]:\n",
        ("test_lattice.py",),
    ),
    Mutant(
        "birkhoff-count-off-by-one",
        "lattice.py",
        "len(opens) == self.n",
        "len(opens) == self.n - 1",
        ("test_certification.py",),
    ),
    Mutant(
        "quotient-t0-count-off-by-one",
        "spectrum.py",
        "if len(set(below)) != len(below):",
        "if len(set(below)) < len(below) - 1:",
        ("test_spectrum.py",),
    ),
    Mutant(
        "birkhoff-capped-below-n",
        "lattice.py",
        "_accel.downset_masks(list(sub.below), self.n)",
        "_accel.downset_masks(list(sub.below), self.n - 1)",
        ("test_certification.py",),
    ),
    Mutant(
        "birkhoff-over-join-irreducibles",
        "lattice.py",
        "ps = meet_irreducibles(self)",
        "ps = join_irreducibles(self)",
        ("test_certification.py", "test_spectrum.py"),
    ),
    Mutant(
        "open-of-without-complement",
        "spectrum.py",
        "tuple(full & ~m for m in under)",
        "tuple(m for m in under)",
        ("test_spectrum.py", "test_certification.py"),
    ),
    Mutant(
        "downsets-ignore-the-cap",
        "lattice.py",
        "_accel.downset_masks(list(poset.below), cap)",
        "_accel.downset_masks(list(poset.below), 1 << poset.n)",
        ("test_spectrum.py", "test_lattice.py"),
    ),
    Mutant(
        "c2-reads-the-kernel-values",
        "quasiorbit.py",
        "_meets_commute(b, self.induced, range(b.n), b, self.induced_covers)",
        "_meets_commute(b, self.induced, range(b.n), b, self.gc.kernel_values())",
        ("test_certification.py",),
    ),
    Mutant(
        "fixed-point-join-side-keeps-ambient-masks",
        "lattice.py",
        'join = order.above() if closes == "join" else',
        'join = order.above() if closes != "join" else',
        ("test_certification.py", "test_lattice.py"),
    ),
    Mutant(
        "invariance-checks-the-first-generator-only",
        "topo_models.py",
        "mask for g in self.generators)",
        "mask for g in self.generators[:1])",
        ("test_topo_models.py",),
    ),
    Mutant(
        "monotone-witness-reports-the-highest-x",
        "_kernels.py",
        "return ((bad & -bad).bit_length() - 1, y)",
        "return (bad.bit_length() - 1, y)",
        ("test_certification.py",),
    ),
    Mutant(
        "invariant-sets-without-the-reach-closure",
        "graph_pairs.py",
        "enumerate(_accel.closure(list(g.range_masks)))",
        "enumerate(m | 1 << v for v, m in enumerate(g.range_masks))",
        ("test_graph_pairs.py",),
    ),
    Mutant(
        "image-skips-the-lowest-index",
        "_kernels.py",
        "    out = 0\n    while mask:\n",
        "    out = 0\n    mask &= mask - 1\n    while mask:\n",
        ("test_kernels.py",),
    ),
    Mutant(
        "inside-tests-the-row-against-the-mask",
        "_kernels.py",
        "        if not row & miss:\n",
        "        if not row & mask:\n",
        ("test_kernels.py",),
    ),
    Mutant(
        "closure-skips-the-last-pivot",
        "_kernels.py",
        "for k in range(len(out)):",
        "for k in range(len(out) - 1):",
        ("test_lattice.py",),
    ),
    Mutant(
        "record-equality-skips-the-last-field",
        "_record.py",
        "return self._values() == other._values()",
        "return self._values()[:-1] == other._values()[:-1]",
        ("test_records.py",),
    ),
    Mutant(
        "record-fields-can-be-assigned",
        "_record.py",
        'raise AttributeError(f"cannot assign to field {name!r}")',
        "object.__setattr__(self, name, value)",
        ("test_records.py",),
    ),
    Mutant(
        "record-constructor-skips-certification",
        "_record.py",
        "        self.__post_init__()\n",
        "",
        ("test_records.py",),
    ),
    Mutant(
        "trusted-record-certifies",
        "_record.py",
        "        return record\n",
        "        record.__post_init__()\n        return record\n",
        ("test_records.py",),
    ),
    Mutant(
        "cli-dispatch-bypasses-the-command-table",
        "cli.py",
        'main.commands[args.pop("command")].callback(**args)',
        '{"analyze": analyze, "spectrum": spectrum, "verify": verify}[args.pop("command")](**args)',
        ("test_cli.py",),
    ),
    Mutant(
        "lattice-constructor-skips-the-bound-check",
        "lattice.py",
        "bad = _missing_bound(meet, join)",
        "bad = None",
        ("test_lattice.py",),
    ),
    Mutant(
        "t62-class-counted-as-one-subgroup",
        "conformance.py",
        "checked += copies * len(conjugates)",
        "checked += copies",
        ("test_conformance.py",),
    ),
    Mutant(
        "t62-one-class-per-subgroup",
        "conformance.py",
        "        for g in auts:\n            inverse",
        "        for g in auts[:1]:\n            inverse",
        ("test_conformance.py",),
    ),
    Mutant(
        "shares-drop-the-last-share",
        "conformance.py",
        "for w in range(1, step):",
        "for w in range(1, step - 1):",
        ("test_conformance.py",),
    ),
    Mutant(
        "shares-merge-ignores-a-violation",
        "conformance.py",
        "return tuple(map(int, data.split())) if data else None",
        "return tuple(map(int, data.split())) if data else (0, 0)",
        ("test_conformance.py",),
    ),
    Mutant(
        "relation-upper-takes-the-image",
        "galois.py",
        "a_index.get(inside(rows, v), -1)",
        "a_index.get(image(rows, v), -1)",
        ("test_relation.py",),
    ),
    Mutant(
        "relation-trusts-values-that-do-not-land",
        "galois.py",
        "            if -1 in values:\n",
        "            if False:\n",
        ("test_relation.py",),
    ),
    Mutant(
        "boolean-lattice-cache-skips-the-cap",
        "lattice.py",
        "if lat is None or lat.n > max_lattice_size():",
        "if lat is None:",
        ("test_multiplicity.py",),
    ),
    Mutant(
        "mif-witness-read-off-lattice-a",
        "cli.py",
        "enumerate(join_irreducibles(b)) if b.leq(j, meet)",
        "enumerate(join_irreducibles(d.lattice_a)) if d.lattice_a.leq(j, meet)",
        ("test_cli.py",),
    ),
    Mutant(
        "pi-drops-the-prime-itself",
        "quasiorbit.py",
        "a.big_join(bits(a.order.below[p] & res))",
        "a.big_join(bits(a.order.below[p] & res & ~(1 << p)))",
        ("test_quasiorbit.py",),
    ),
    Mutant(
        "rho-collapses-onto-one-class",
        "quasiorbit.py",
        "values = tuple(class_over[v] for v in rpm.values)",
        "values = tuple(class_over[rpm.values[0]] for v in rpm.values)",
        ("test_quasiorbit.py",),
    ),
    Mutant(
        "quotient-keeps-unsaturated-opens",
        "spectrum.py",
        "elif c & u:",
        "elif False:",
        ("test_quasiorbit.py", "test_spectrum.py"),
    ),
    Mutant(
        "open-of-puts-each-prime-in-its-own-open",
        "spectrum.py",
        "for i in bits(below[p]):",
        "for i in bits(below[p] & ~(1 << p)):",
        ("test_quasiorbit.py", "test_spectrum.py"),
    ),
    Mutant(
        "point-map-skips-the-last-point",
        "spectrum.py",
        "self.source.points.below, self.target.points.below, self.values",
        "self.source.points.below[:-1], self.target.points.below, self.values",
        ("test_certification.py", "test_spectrum.py"),
    ),
    Mutant(
        "mi-ignores-the-induced-top",
        "quasiorbit.py",
        "if bad is None and not (self._induced_mask >> self.lattice_b.top) & 1:",
        "if bad is None and False:",
        ("test_quasiorbit.py",),
    ),
    Mutant(
        "f-takes-the-interior",
        "quasiorbit.py",
        "values = tuple(map(ind_lat.index_of_label, self.induced_covers))",
        "values = tuple(map(ind_lat.index_of_label, self.gc.kernel_values()))",
        ("test_quasiorbit.py",),
    ),
    Mutant(
        "quotient-classes-in-first-seen-order",
        "quasiorbit.py",
        "tuple(fibers[v] for v in sorted(fibers))",
        "tuple(fibers[v] for v in fibers)",
        ("test_quasiorbit.py",),
    ),
    Mutant(
        "detects-against-the-source-bottom",
        "galois.py",
        "r[y] != r[b.bottom]",
        "r[y] != gc.lattice_a.bottom",
        ("test_quasiorbit.py",),
    ),
    Mutant(
        "separates-counts-the-source",
        "galois.py",
        "len(set(gc.upper.values)) == gc.lattice_b.n",
        "len(set(gc.upper.values)) == gc.lattice_a.n",
        ("test_quasiorbit.py",),
    ),
    Mutant(
        "unit-sends-every-point-to-the-first",
        "spectrum.py",
        "full & ~self.closure(1 << x)",
        "full & ~self.closure(1)",
        ("test_quasiorbit.py",),
    ),
    Mutant(
        "adjunct-reads-the-mirrored-point",
        "spectrum.py",
        "g.target.labels[g.values[i]] >> x) & 1",
        "g.target.labels[g.values[i]] >> (space.n - 1 - x)) & 1",
        ("test_quasiorbit.py",),
    ),
    Mutant(
        "t33-pi-open-read-as-surjective",
        "spectrum.py",
        "pi_open = is_open_map(pi)",
        "pi_open = is_surjective(pi)",
        ("test_quasiorbit.py",),
    ),
)
