"""The census of small connections: points against elements, on every one.

Usage:
    python tests/connection_census.py [K]

Every Galois connection between the down-set frames of two posets on
1..K points (one poset per isomorphism class a side; K = 4 by default,
471,604 connections) is decided twice: on points, as the T42, C48 and
C49 sweeps decide (``quasiorbit.PointRelation``), and on elements,
through the scans of ``InclusionData`` and the element checks of
tests/oracles.py. JR, C1 (under JR), MI, C2 (under MI), separation and
the three sweep checks must agree on every connection, and the failure
and applicable counts must equal the pinned ones. Nothing is strided
or sampled.

The (source, target) pairs are split across the usable CPUs by the
sweep engine's shares (``conformance._in_shares``); when a share meets a
disagreement, the pairs are rerun in this process to name the first
one. Exits 0 when everything agrees and the counts are the pinned
ones, 1 otherwise. Not part of the tier-1 suite: at K = 4 it takes
minutes.
"""

import sys
import time

from oracles import element_check_C48, element_check_C49, element_check_T42
from stonekit import GaloisConnection, InclusionData, downset_lattice, separates
from stonekit.conformance import (
    _check_C48,
    _check_C49,
    _check_T42,
    _in_shares,
    _monotone_values,
    _poset_classes,
)
from stonekit.quasiorbit import (
    PointRelation,
    _holds_C1,
    _holds_C2,
    _holds_JR,
    _holds_MI,
    _holds_separation,
    check_C1,
    check_C2,
    check_JR,
    check_MI,
)

# connections, JR fails, MI fails, C1 fails under JR, C2 fails under MI,
# and the applicable counts of T42, C48 and C49
PINNED = {
    3: (2986, 1518, 1518, 759, 759, 1468, 329, 329),
    4: (471604, 293286, 293286, 136210, 136210, 178318, 15332, 15332),
}


def verdicts(rel: PointRelation, d: InclusionData):
    """(point verdicts, element verdicts) of one connection."""
    jr, mi = check_JR(d), check_MI(d)
    elements = (
        jr,
        mi,
        jr and check_C1(d),
        mi and check_C2(d),
        separates(d.gc),
        element_check_T42(d),
        element_check_C48(d),
        element_check_C49(d),
    )
    jr, mi = _holds_JR(rel), _holds_MI(rel)
    points = (
        jr,
        mi,
        jr and _holds_C1(rel),
        mi and _holds_C2(rel),
        _holds_separation(rel),
        _check_T42(rel),
        _check_C48(rel),
        _check_C49(rel),
    )
    return points, elements


def connections(pairs):
    """(relation, inclusion) of every connection of each (source,
    target) pair, each lattice built once per pair."""
    for source, target in pairs:
        la, lb = downset_lattice(source), downset_lattice(target)
        for values in _monotone_values(source, lb):
            rows = tuple(lb.labels[v] for v in values)
            yield (
                PointRelation(source, target, rows),
                InclusionData(GaloisConnection.from_relation(la, lb, rows)),
            )


def counts(pairs):
    """The census counts over ``pairs``, or None at the first
    disagreement."""
    total = [0] * 8
    for rel, d in connections(pairs):
        points, elements = verdicts(rel, d)
        if points != elements:
            return None
        jr, mi, c1, c2, _, t42, c48, c49 = points
        for k, hit in enumerate(
            (True, not jr, not mi, jr and not c1, mi and not c2, t42[0], c48[0], c49[0])
        ):
            total[k] += hit
        if not (t42[1] and c48[1] and c49[1]):
            return None
    return tuple(total)


def main(argv) -> int:
    k = int(argv[1]) if len(argv) > 1 else 4
    reps = _poset_classes(k)
    pairs = [(source, target) for source in reps for target in reps]
    start = time.perf_counter()
    shares = _in_shares(lambda w, step: counts(pairs[w::step]), len(pairs))
    if shares is None:
        for rel, d in connections(pairs):
            points, elements = verdicts(rel, d)
            if points != elements or not all(check[1] for check in points[5:]):
                print(f"disagreement on {rel}: points {points}, elements {elements}")
                return 1
        print("a share failed, but the serial rerun found no disagreement")
        return 1
    got = tuple(map(sum, zip(*shares)))
    names = ("connections", "JR fails", "MI fails", "C1 fails under JR", "C2 fails under MI",
             "T42 applicable", "C48 applicable", "C49 applicable")
    print(", ".join(f"{name} {count}" for name, count in zip(names, got)))
    print(f"points and elements agree on every connection ({time.perf_counter() - start:.1f} s)")
    if k in PINNED and got != PINNED[k]:
        print(f"counts differ from the pinned {PINNED[k]}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
