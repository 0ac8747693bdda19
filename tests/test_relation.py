"""One relation builder: GaloisConnection.from_relation.

Every model compiler builds its connection as the image and the
interior of one relation. The formulas each compiler used before stay
here as oracles, certified through the checking constructors:

* matrices: the ``induce`` and ``restrict`` tables, checked as a pair;
* actions: saturation below, the certified insertion of the invariant
  opens above;
* bundles: the preimage below, and above the interior of what the image
  of the complement misses;
* random seeds: ``from_lower`` of the unions of the rows.

The builder must agree with them on the sweeps' streams and on every
small instance, and refuse, with a typed witness, a relation whose
values do not land.
"""

from itertools import product

import pytest

from stonekit import (
    AdjunctionFailure,
    BundleMap,
    FiniteGroupAction,
    FinitePoset,
    FiniteT0Space,
    GaloisConnection,
    MonotoneMap,
    MultiplicityInclusion,
    NotContinuous,
    PointMap,
    ShapeMismatch,
    all_posets,
    binary_matrices,
    boolean_lattice,
    compile_document,
    document_for,
    downset_lattice,
    dumps_document,
    induce,
    opens_lattice,
    parse_document,
    restrict,
    small_group_actions,
)
from oracles import invariant_opens, verify_prop26
from stonekit._kernels import image, inside
from stonekit.conformance import _MASK64, InstanceGenerator, _draw, _inclusion, all_spaces
from stonekit.quasiorbit import PointRelation


def matrix_oracle(m):
    a, b = boolean_lattice(m.a_summands), boolean_lattice(m.b_summands)
    lower = MonotoneMap(a, b, tuple(b.index_of_label(induce(m, s)) for s in a.labels))
    upper = MonotoneMap(b, a, tuple(a.index_of_label(restrict(m, t)) for t in b.labels))
    return GaloisConnection(lower, upper)


def action_oracle(act):
    olat = opens_lattice(act.space)
    inv, insertion = invariant_opens(act)
    lower = MonotoneMap(
        olat,
        inv,
        tuple(inv.index_of_label(olat.index_of_label(act.saturate(u))) for u in olat.labels),
    )
    return GaloisConnection(lower, insertion)


def bundle_oracle(bm):
    base_lat, total_lat = opens_lattice(bm.base), opens_lattice(bm.total)
    full_base, full_total = (1 << bm.base.n) - 1, (1 << bm.total.n) - 1
    lower = MonotoneMap(
        base_lat,
        total_lat,
        tuple(total_lat.index_of_label(bm.proj.preimage(u)) for u in base_lat.labels),
    )
    # the interior, in the base, of what the image of the complement misses
    upper = MonotoneMap(
        total_lat,
        base_lat,
        tuple(
            base_lat.index_of_label(
                inside(bm.base.points.below, full_base ^ bm.proj.image_mask(full_total ^ v))
            )
            for v in total_lat.labels
        ),
    )
    return GaloisConnection(lower, upper)


def seed_oracle(seed):
    la, lb = downset_lattice(seed.source), downset_lattice(seed.target)
    values = tuple(lb.index_of_label(image(seed.rows, u)) for u in la.labels)
    return GaloisConnection.from_lower(MonotoneMap(la, lb, values))


ORACLES = {
    PointRelation: seed_oracle,
    MultiplicityInclusion: matrix_oracle,
    FiniteGroupAction: action_oracle,
    BundleMap: bundle_oracle,
}


def assert_matches_the_oracle(instance):
    d = _inclusion(instance)
    assert d.gc == ORACLES[type(instance)](instance)
    assert verify_prop26(d.gc).all_ok
    # the galois export, certified again through from_lower
    rebuilt = compile_document(parse_document(dumps_document(document_for(d)))).gc
    assert rebuilt.lower.values == d.gc.lower.values
    assert rebuilt.upper.values == d.gc.upper.values
    assert rebuilt.lattice_a.order == d.lattice_a.order
    assert rebuilt.lattice_b.order == d.lattice_b.order


class TestAgainstTheOldFormulas:
    @pytest.mark.parametrize("family", ["random-galois", "multiplicity", "action", "bundle"])
    @pytest.mark.parametrize("seed", [0, 7])
    def test_sweep_streams(self, family, seed):
        # the child seeds of a randomized sweep, at its max_points
        for k in range(500):
            child = (seed ^ (0x9E3779B97F4A7C15 * (k + 1))) & _MASK64
            assert_matches_the_oracle(_draw(InstanceGenerator(child, family, 6)))

    def test_every_small_matrix_zero_rows_included(self):
        count = 0
        for m in binary_matrices(3, 3, injective_only=False):
            assert_matches_the_oracle(m)
            count += 1
        assert count == 682

    def test_every_small_action(self):
        count = 0
        for p in all_posets(4):
            for action in small_group_actions(FiniteT0Space(p)):
                assert_matches_the_oracle(action)
                count += 1
        assert count == 426

    def test_every_continuous_map_between_small_spaces(self):
        spaces = all_spaces(3, include_empty=True)
        count = 0
        for total, base in product(spaces, spaces):
            for values in product(range(base.n), repeat=total.n):
                try:
                    proj = PointMap(total, base, values)
                except NotContinuous:
                    continue
                assert_matches_the_oracle(BundleMap(total, base, proj))
                count += 1
        assert count == 4842


CHAIN2 = downset_lattice(FinitePoset.chain(2))  # masks 0, 0b01, 0b11


class TestValuesThatDoNotLand:
    def test_non_monotone_rows_on_the_two_chain(self):
        # point 0 <= point 1 but row 0 holds both points and row 1 only
        # point 0: the interior of {0} is {1}, no down-set
        with pytest.raises(AdjunctionFailure) as ei:
            GaloisConnection.from_relation(CHAIN2, CHAIN2, (0b11, 0b01))
        assert ei.value.witness == ("upper", 1)
        assert not isinstance(ei.value, (KeyError, ValueError))

    def test_a_row_that_is_not_a_down_set(self):
        # the one point of the source goes to {1}, which misses 0 <= 1
        one = downset_lattice(FinitePoset.chain(1))
        with pytest.raises(AdjunctionFailure) as ei:
            GaloisConnection.from_relation(one, CHAIN2, (0b10,))
        assert ei.value.witness == ("lower", 1)
        assert not isinstance(ei.value, (KeyError, ValueError))

    def test_one_row_per_source_point(self):
        with pytest.raises(ShapeMismatch):
            GaloisConnection.from_relation(CHAIN2, CHAIN2, (0b01,))
