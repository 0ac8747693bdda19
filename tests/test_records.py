"""The value classes behave as frozen records.

Every record lists its fields in ``_fields`` and the defaults of its
trailing fields in ``_defaults``; the shared base derives the
constructor, the uncertified ``_trusted`` constructor, immutability,
equality, hashing and the repr from those two. No record writes its
own ``__init__``. Each builder below makes a fresh instance, so two
calls give equal but distinct records.
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
    FiniteLattice,
    FinitePoset,
    FiniteT0Space,
    FrameWitness,
    GaloisConnection,
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
    is_frame,
    j_pairs,
    j_x,
    primes,
    to_inclusion_data,
)
from oracles import verify_prop26
from stonekit._record import Record
from stonekit.conformance import _GaloisSeed, _Morphism
from stonekit.quasiorbit import PointRelation

SRC = Path(__file__).resolve().parent.parent / "src"


def _space():
    return FiniteT0Space(FinitePoset.antichain(2))


def _identity():
    lat = boolean_lattice(2)
    return GaloisConnection(MonotoneMap.identity(lat), MonotoneMap.identity(lat))


def _quasi_orbit_space():
    return QuasiOrbitSpace(_space(), (0b11,))


def _bundle():
    space = _space()
    return BundleMap(space, space, PointMap(space, space, (0, 1)))


BUILDERS = {
    "FinitePoset": lambda: FinitePoset.chain(3),
    "FiniteLattice": lambda: FiniteLattice(FinitePoset.chain(3), ("a", "b", "c")),
    "FrameWitness": lambda: is_frame(downset_lattice(FinitePoset.chain(2))),
    "MonotoneMap": lambda: MonotoneMap.identity(boolean_lattice(2)),
    "AbsenceWitness": lambda: AbsenceWitness(MonotoneMap.identity(boolean_lattice(1)), 0, 1, "no adjoint"),
    "GaloisConnection": _identity,
    "LawReport": lambda: verify_prop26(_identity()),
    "FiniteT0Space": _space,
    # boolean_lattice keeps one lattice, and so one spectrum, per k
    "PrimeSpectrum": lambda: primes(downset_lattice(FinitePoset.antichain(2))),
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
    "_Morphism": lambda: _Morphism(_identity(), _space()),
    "PointRelation": lambda: PointRelation(FinitePoset.chain(2), FinitePoset.antichain(1), (0, 1)),
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
    assert InstanceGenerator(5, max_points=3) == InstanceGenerator(max_points=3, seed=5) == InstanceGenerator(5, "random-galois", 3)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: FinitePoset(1, (1,), None), r"takes 2 arguments but 3 were given"),
        (lambda: FinitePoset(1), r"missing required argument 'below'"),
        (lambda: FinitePoset(below=(1,)), r"missing required argument 'n'"),
        (lambda: SweepReport("T42", 1, 5, 3, 2), r"missing required argument 'violations'"),
        (lambda: FinitePoset(1, (1,), size=1), r"unexpected keyword argument 'size'"),
        (lambda: InstanceGenerator(family="random-galois", colour=1), r"unexpected keyword argument 'colour'"),
        (lambda: FinitePoset(1, below=(1,), n=1), r"multiple values for argument 'n'"),
        (lambda: InstanceGenerator(3, seed=3), r"multiple values for argument 'seed'"),
    ],
)
def test_constructors_reject_calls_that_do_not_bind(call, message):
    with pytest.raises(TypeError, match=message):
        call()


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_every_split_into_positions_and_keywords_builds_the_same_record(name):
    record = BUILDERS[name]()
    cls, values = type(record), record._values()
    for k in range(len(values) + 1):
        keywords = dict(reversed(list(zip(cls._fields[k:], values[k:]))))
        assert cls(*values[:k], **keywords) == record


def test_defaults_fill_the_trailing_fields():
    assert FrameWitness(True).witness is None
    inclusion = MultiplicityInclusion(((1, 0), (1, 1)))
    assert inclusion.a_dims is None and inclusion.b_dims is None
    assert InstanceDocument("graph", {"vertices": 1}).name is None
    assert SweepReport("T42", 1, 5, 3, 2, 0).counterexample is None
    assert InstanceGenerator(max_points=2) == InstanceGenerator(0, "random-galois", 2)
    for cls in Record.__subclasses__():
        # a default may only follow defaults, as in a def statement
        assert set(cls._defaults) == set(cls._fields[len(cls._fields) - len(cls._defaults):])


def test_no_record_class_writes_its_own_init():
    assert [cls.__name__ for cls in Record.__subclasses__() if "__init__" in vars(cls)] == []


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


@pytest.mark.parametrize("name", CERTIFYING)
def test_trusted_records_skip_certification(monkeypatch, name):
    record = BUILDERS[name]()
    cls = type(record)
    calls = []
    monkeypatch.setattr(cls, "__post_init__", lambda self: calls.append(self))
    trusted = cls._trusted(*record._values())
    assert calls == []
    assert trusted == record and trusted is not record


def test_trusted_records_take_one_value_per_field():
    with pytest.raises(ValueError):
        FinitePoset._trusted(1)
    with pytest.raises(ValueError):
        FinitePoset._trusted(1, (1,), None)


def test_cli_import_leaves_dataclasses_unloaded():
    code = "import sys, stonekit.cli; sys.exit('dataclasses' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={"PYTHONPATH": str(SRC), "PATH": ""},
        capture_output=True,
        timeout=30,
    )
    assert out.returncode == 0, out.stderr
