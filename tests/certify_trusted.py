"""A pytest plugin that certifies every trusted build on the side.

Usage:
    PYTHONPATH=src:tests python -m pytest -p certify_trusted -m "not trusts_by_design" tests/...

The package skips certification where a theorem says it may:
``Record._trusted`` stores fields without ``__post_init__``, and
``FiniteLattice._of`` builds a lattice from operation tables its caller
vouches for. Under this plugin each such build also builds its twin
through the certifying constructor, and at the end of every test the
two are compared: the fields, for a lattice also ``meet_table``,
``join_table``, ``bottom`` and ``top``, and the derived values a
trusted builder stores beside the fields (the transpose of a poset, the
opens of a space, the group of an action). ``PointRelation`` certifies
nothing, so here every one built is checked lawful: one row per source
point, each row a down-set of the target, monotone in the point.

A difference fails the test it arose in. Tests that pin that trusted
builds skip certification, or that count certifications, cannot pass
under the plugin; they carry the ``trusts_by_design`` marker and are
deselected wherever the plugin runs. Nothing under ``src/`` changes.
"""

import pytest

from stonekit._kernels import bits
from stonekit._record import Record
from stonekit.lattice import FiniteLattice
from stonekit.quasiorbit import PointRelation

# what a trusted builder stores beside the fields, per class
_STORED = {
    "FinitePoset": ("_above",),
    "FiniteT0Space": ("opens",),
    "FiniteGroupAction": ("closure",),
}
_LATTICE_PARTS = ("meet_table", "join_table", "bottom", "top")

_pending = []  # (trusted build, its certified twin or the error building it)
_problems = []
_building_twin = [False]


def _twin(build):
    # nested trusted builds inside a certifying constructor are part of
    # that certification, not builds to twin
    _building_twin[0] = True
    try:
        return build()
    except Exception as exc:  # a twin the constructor refuses is a difference
        return exc
    finally:
        _building_twin[0] = False


def _difference(record, twin):
    if isinstance(twin, Exception):
        return f"the certifying constructor refuses it: {twin!r}"
    if twin != record:
        return f"its certified twin differs: {twin!r}"
    name = type(record).__name__
    parts = _LATTICE_PARTS if isinstance(record, FiniteLattice) else ()
    parts += tuple(attr for attr in _STORED.get(name, ()) if attr in vars(record))
    for attr in parts:
        if getattr(record, attr) != getattr(twin, attr):
            return f"{attr} differs from its certified twin's"
    return None


def _lawful(rel):
    source, target, rows = rel.source, rel.target, rel.rows
    if len(rows) != source.n:
        return f"{len(rows)} rows for {source.n} source points"
    full = (1 << target.n) - 1
    for p, row in enumerate(rows):
        if row & ~full or any(target.below[y] & ~row for y in bits(row)):
            return f"row {p} is not a down-set of the target"
        if any(rows[q] & ~row for q in bits(source.below[p])):
            return f"row {p} does not hold the rows of the points below {p}"
    return None


def _check_relation(rel):
    problem = _lawful(rel)
    if problem is not None:
        _problems.append(f"{rel!r}: {problem}")


def _flush():
    for record, twin in _pending:
        problem = _difference(record, twin)
        if problem is not None:
            _problems.append(f"trusted {type(record).__name__}: {problem}")
    _pending.clear()
    found = list(_problems)
    _problems.clear()
    return found


def pytest_configure(config):
    real_trusted = Record._trusted.__func__
    real_of = FiniteLattice._of.__func__

    def trusted(cls, *values):
        record = real_trusted(cls, *values)
        # a lattice is twinned whole, by _of, once its operations are set
        if not _building_twin[0] and not issubclass(cls, FiniteLattice):
            _pending.append((record, _twin(lambda: cls(*values))))
        return record

    def of(cls, order, labels, meet, join):
        lat = real_of(cls, order, labels, meet, join)
        if not _building_twin[0]:
            _pending.append((lat, _twin(lambda: cls(order, labels))))
        return lat

    Record._trusted = classmethod(trusted)
    FiniteLattice._of = classmethod(of)
    PointRelation.__post_init__ = _check_relation


@pytest.fixture(autouse=True)
def _certified_on_the_side():
    # builds made while module fixtures were set up are compared at the
    # end of the first test that uses them
    yield
    found = _flush()
    if found:
        pytest.fail("\n".join(found[:10]), pytrace=False)


def pytest_sessionfinish(session, exitstatus):
    found = _flush()
    if found:
        print("\n".join(["trusted builds that differ:", *found[:10]]))
        session.exitstatus = 1
