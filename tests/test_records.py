"""The value classes behave as frozen records.

Every record lists its fields in ``_fields`` and writes out its own
``__init__``; the shared base derives immutability, equality, hashing
and the repr from that list. Each builder below makes a fresh instance,
so two calls give equal but distinct records.
"""

import subprocess
import sys
from pathlib import Path

import pytest

from stonekit import (
    EX_213,
    AbsenceWitness,
    BundleMap,
    FiniteGraph,
    FiniteGroupAction,
    FinitePoset,
    FiniteT0Space,
    GaloisConnection,
    InclusionData,
    InstanceDocument,
    InstanceGenerator,
    MonotoneMap,
    MultiplicityInclusion,
    PointMap,
    PrimeMapObstruction,
    QuasiOrbitSpace,
    SweepReport,
    Theorem33Report,
    boolean_lattice,
    downset_lattice,
    fixed_points,
    is_frame,
    j_pairs,
    j_x,
    primes,
    quotient_space,
    to_inclusion_data,
    verify_prop26,
)
from stonekit._record import Record
from stonekit.conformance import _GaloisSeed

SRC = Path(__file__).resolve().parent.parent / "src"


def _space():
    return FiniteT0Space.from_poset(FinitePoset.antichain(2))


def _identity():
    lat = boolean_lattice(2)
    return GaloisConnection(MonotoneMap.identity(lat), MonotoneMap.identity(lat))


def _quasi_orbit_space():
    space = _space()
    quotient, class_of = quotient_space(space, (0b11,))
    return QuasiOrbitSpace(space, (0b11,), quotient, class_of)


def _bundle():
    space = _space()
    return BundleMap(space, space, PointMap(space, space, (0, 1)))


BUILDERS = {
    "FinitePoset": lambda: FinitePoset.chain(3),
    "FrameWitness": lambda: is_frame(downset_lattice(FinitePoset.chain(2))),
    "MonotoneMap": lambda: MonotoneMap.identity(boolean_lattice(2)),
    "AbsenceWitness": lambda: AbsenceWitness(MonotoneMap.identity(boolean_lattice(1)), 0, 1, "no adjoint"),
    "GaloisConnection": _identity,
    "FixedPointSublattices": lambda: fixed_points(_identity()),
    "LawReport": lambda: verify_prop26(_identity()),
    "FiniteT0Space": _space,
    "PrimeSpectrum": lambda: primes(boolean_lattice(2)),
    "PointMap": lambda: PointMap(_space(), _space(), (1, 0)),
    "Theorem33Report": lambda: Theorem33Report(True, True, False, True, True, True),
    "InclusionData": lambda: to_inclusion_data(EX_213()),
    "QuasiOrbitSpace": _quasi_orbit_space,
    "PrimeMapObstruction": lambda: PrimeMapObstruction("value-not-prime", (0, 1)),
    "MultiplicityInclusion": lambda: MultiplicityInclusion(((1, 0), (1, 1)), b_dims=(2, 3)),
    "FiniteGroupAction": lambda: FiniteGroupAction(_space(), ((1, 0),)),
    "BundleMap": _bundle,
    "FiniteGraph": lambda: FiniteGraph(3, ((0, 1), (1, 2))),
    "JPairLattice": lambda: j_pairs(FiniteGraph(2, ((0, 1),)), j_x(FiniteGraph(2, ((0, 1),)))),
    "InstanceDocument": lambda: InstanceDocument("graph", {"vertices": 1}, "one"),
    "InstanceGenerator": lambda: InstanceGenerator(seed=3),
    "_GaloisSeed": lambda: _GaloisSeed(FinitePoset.chain(2), FinitePoset.antichain(1), (0, 1)),
    "SweepReport": lambda: SweepReport("T42", 1, 5, 3, 2, 0),
}


def test_every_record_class_has_a_builder():
    assert {cls.__name__ for cls in Record.__subclasses__()} == set(BUILDERS)


@pytest.fixture(params=sorted(BUILDERS))
def pair(request):
    build = BUILDERS[request.param]
    a, b = build(), build()
    assert type(a).__name__ == request.param
    assert a is not b
    return a, b


def test_fields_are_read_only(pair):
    record = pair[0]
    for name in record._fields:
        before = getattr(record, name)
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
        assert getattr(record, name) is before
    with pytest.raises(AttributeError):
        record.extra = 1
    assert "extra" not in vars(record)


def test_equal_fields_make_equal_records(pair):
    a, b = pair
    assert a == b and not a != b
    values = tuple(getattr(a, name) for name in a._fields)
    try:
        expected = hash(values)
    except TypeError:
        # a dict field: neither the record nor its fields hash
        with pytest.raises(TypeError):
            hash(a)
        return
    assert hash(a) == hash(b) == expected


def test_repr_names_the_class_and_every_field(pair):
    record = pair[0]
    body = ", ".join(f"{name}={getattr(record, name)!r}" for name in record._fields)
    assert repr(record) == f"{type(record).__qualname__}({body})"


def test_records_of_different_classes_are_never_equal():
    records = [build() for build in BUILDERS.values()]
    for a in records:
        for b in records:
            if type(a) is not type(b):
                assert a != b and not a == b


def test_a_subclass_with_the_same_fields_is_not_equal():
    class Relabeled(FinitePoset):
        pass

    poset = FinitePoset.chain(2)
    twin = Relabeled(2, poset.below)
    assert twin != poset and poset != twin
    assert twin == Relabeled(2, poset.below)


def test_every_field_takes_part_in_equality():
    # each pair differs in its last field only
    assert InstanceGenerator(0, "random-galois", 4) != InstanceGenerator(0, "random-galois", 3)
    assert FinitePoset.chain(2) != FinitePoset.antichain(2)
    counterexample = {"kind": "graph", "payload": {"vertices": 1}}
    assert SweepReport("T42", 1, 5, 3, 2, 1) != SweepReport("T42", 1, 5, 3, 2, 1, counterexample)


def test_repr_literals():
    assert repr(FinitePoset.chain(2)) == "FinitePoset(n=2, below=(1, 3))"
    assert repr(InstanceGenerator()) == "InstanceGenerator(seed=0, family='random-galois', max_points=4)"
    assert repr(PrimeMapObstruction("restricted-not-frame", ((0, 1, 2),))) == (
        "PrimeMapObstruction(kind='restricted-not-frame', detail=((0, 1, 2),))"
    )


def test_constructors_take_fields_by_position_and_keyword():
    assert SweepReport("T42", 1, 5, 3, 2, 0) == SweepReport(
        tag="T42", seed=1, budget=5, checked=3, applicable=2, violations=0, counterexample=None
    )
    assert InstanceGenerator() == InstanceGenerator(0, "random-galois", 4)
    with pytest.raises(TypeError):
        FinitePoset(1)
    with pytest.raises(TypeError):
        FinitePoset(1, (1,), None)


CERTIFYING = sorted(name for name, build in BUILDERS.items() if "__post_init__" in vars(type(build())))


@pytest.mark.parametrize("name", CERTIFYING)
def test_certification_runs_once_through_the_instance(monkeypatch, name):
    # tracers count certifications by wrapping __post_init__ on the class
    record = BUILDERS[name]()
    cls = type(record)
    calls = []
    real = cls.__post_init__

    def counted(self):
        calls.append(self)
        return real(self)

    monkeypatch.setattr(cls, "__post_init__", counted)
    again = cls(*(getattr(record, f) for f in record._fields))
    assert calls == [again]


def test_cli_import_leaves_dataclasses_unloaded():
    code = "import sys, stonekit.cli; sys.exit('dataclasses' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={"PYTHONPATH": str(SRC), "PATH": ""},
        capture_output=True,
        timeout=30,
    )
    assert out.returncode == 0, out.stderr
