"""Actions and bundles: fixtures plus the finite openness laws.

The bundle sweep pins the finite-scale behavior of the preimage
connection: meet closure is automatic (meets of opens are
intersections), openness of the projection forces the second meet
identity, and for surjective projections the two are equivalent, as is
the prime-map route.  The biconditional does NOT extend to
non-surjective projections; a constant map onto an open point is kept
as the regression witness for that boundary.
"""

from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import automorphisms, labeled_posets, posets
from stonekit import (
    BundleMap,
    ClosureTooLarge,
    FiniteGroupAction,
    FinitePoset,
    FiniteT0Space,
    NotContinuous,
    PointMap,
    ShapeMismatch,
    action_inclusion_data,
    action_quasi_orbit_agreement,
    bundle_inclusion_data,
    check_C1,
    check_C2,
    check_JR,
    check_MI,
    invariant_opens,
    is_open_map,
    is_surjective,
    opens_lattice,
    orbit_closure_relation,
    restricted_prime_map,
)
from stonekit.conformance import all_spaces, small_group_actions
from stonekit.topo_models import _interior, group_closure


def discrete(n):
    return FiniteT0Space.from_poset(FinitePoset.antichain(n))


def sierpinski():
    return FiniteT0Space.from_poset(FinitePoset.chain(2))


def vee():
    return FiniteT0Space.from_poset(FinitePoset.from_pairs(3, [(0, 1), (0, 2)]))


@st.composite
def actions(draw, max_points=4):
    p = draw(posets(max_points=max_points))
    gens = draw(st.lists(st.sampled_from(automorphisms(p)), max_size=2))
    return FiniteGroupAction(FiniteT0Space.from_poset(p), tuple(gens))


class TestActionValidation:
    def test_rejects_non_permutation(self):
        with pytest.raises(ShapeMismatch):
            FiniteGroupAction(discrete(2), ((0, 0),))

    def test_rejects_order_breaking_generator(self):
        with pytest.raises(NotContinuous) as ei:
            FiniteGroupAction(sierpinski(), ((1, 0),))
        assert ei.value.witness == (0, 1)

    def test_rotation_closure(self):
        a = FiniteGroupAction(discrete(3), ((1, 2, 0),))
        assert len(a.closure) == 3
        assert tuple(range(3)) in a.closure

    def test_closure_is_a_group(self):
        a = FiniteGroupAction(discrete(3), ((1, 2, 0), (1, 0, 2)))
        assert len(a.closure) == 6
        members = set(a.closure)
        for g in a.closure:
            inverse = tuple(g.index(x) for x in range(3))
            assert inverse in members
            for h in a.closure:
                assert tuple(g[h[x]] for x in range(3)) in members

    def test_order_cap(self):
        # (0 1) and an 8-cycle generate S_8, of order 40320
        swap, cycle = (1, 0, 2, 3, 4, 5, 6, 7), (1, 2, 3, 4, 5, 6, 7, 0)
        with pytest.raises(ClosureTooLarge):
            FiniteGroupAction(discrete(8), (swap, cycle))

    def test_order_cap_is_inclusive(self):
        rotation = ((1, 2, 3, 4, 0),)
        assert len(group_closure(rotation, 5, max_order=5)) == 5
        with pytest.raises(ClosureTooLarge):
            group_closure(rotation, 5, max_order=4)

    def test_no_generators_means_trivial_group(self):
        a = FiniteGroupAction(vee(), ())
        assert a.closure == (tuple(range(3)),)


class TestInvariantOpens:
    def test_swapping_the_arms_keeps_three_opens(self):
        a = FiniteGroupAction(vee(), ((0, 2, 1),))
        inv, insertion = invariant_opens(a)
        olat = opens_lattice(vee())
        assert inv.n == 3 and olat.n == 5
        assert tuple(olat.labels[k] for k in inv.labels) == (0b000, 0b001, 0b111)
        assert insertion.source is inv and insertion.target == olat

    def test_trivial_action_keeps_everything(self):
        a = FiniteGroupAction(sierpinski(), ())
        inv, _ = invariant_opens(a)
        assert inv.n == opens_lattice(sierpinski()).n

    def test_full_swap_keeps_only_the_bounds(self):
        a = FiniteGroupAction(discrete(2), ((1, 0),))
        inv, _ = invariant_opens(a)
        assert inv.n == 2

    @settings(max_examples=60, deadline=None)
    @given(actions())
    def test_members_invariant_under_the_whole_closure(self, a):
        inv, _ = invariant_opens(a)
        olat = opens_lattice(a.space)
        for k in inv.labels:
            u = olat.labels[k]
            assert all(a.image_mask(g, u) == u for g in a.closure)


class TestOrbitClosures:
    def test_transitive_rotation_is_one_class(self):
        a = FiniteGroupAction(discrete(3), ((1, 2, 0),))
        assert orbit_closure_relation(a) == (0b111,)

    def test_trivial_action_separates_t0_points(self):
        a = FiniteGroupAction(sierpinski(), ())
        assert orbit_closure_relation(a) == (0b01, 0b10)

    def test_arm_swap_merges_maxima_only(self):
        a = FiniteGroupAction(vee(), ((0, 2, 1),))
        assert orbit_closure_relation(a) == (0b001, 0b110)

    @settings(max_examples=60, deadline=None)
    @given(actions())
    def test_classes_partition_and_are_stable(self, a):
        classes = orbit_closure_relation(a)
        assert sum(classes) == (1 << a.space.n) - 1
        for x, y in product(range(a.space.n), repeat=2):
            same = a.space.closure(a.orbit_mask(x)) == a.space.closure(
                a.orbit_mask(y)
            )
            together = any((c >> x) & 1 and (c >> y) & 1 for c in classes)
            assert same == together
        for g in a.closure:
            for p in range(a.space.n):
                assert a.space.closure(a.orbit_mask(g[p])) == a.space.closure(
                    a.orbit_mask(p)
                )


class TestRelationRows:
    """Orbits, saturation, image_mask and the bundle interior read the
    relation kernels; the oracles are the unions over group elements and
    the complement of the closure of the complement."""

    def test_orbits_and_saturation_are_unions_over_the_group(self):
        for space in all_spaces(4):
            n = space.n
            for a in small_group_actions(space):
                for p in range(n):
                    want = 0
                    for g in a.closure:
                        want |= 1 << g[p]
                    assert a.orbit_mask(p) == want
                for mask in range(1 << n):
                    saturated = 0
                    for g in a.closure:
                        moved = 0
                        for x in range(n):
                            if (mask >> x) & 1:
                                moved |= 1 << g[x]
                        # bits past the last point are ignored
                        assert a.image_mask(g, mask | 0b101 << n) == moved
                        saturated |= moved
                    assert a.saturate(mask) == saturated

    def test_interior_is_the_complement_of_the_closed_complement(self):
        for space in all_spaces(4, include_empty=True):
            full = (1 << space.n) - 1
            for mask in range(full + 1):
                assert _interior(space, mask) == full ^ space.closure(full ^ mask)


class TestActionCompile:
    def test_restricted_side_is_exactly_the_invariant_opens(self):
        a = FiniteGroupAction(vee(), ((0, 2, 1),))
        d = action_inclusion_data(a)
        inv, _ = invariant_opens(a)
        assert d.restricted == inv.labels

    @settings(max_examples=60, deadline=None)
    @given(actions())
    def test_saturation_insertion_always_satisfies_the_calculus(self, a):
        d = action_inclusion_data(a)
        assert check_JR(d) and check_C1(d)
        assert check_MI(d) and check_C2(d)


class TestAgreement:
    @pytest.mark.parametrize(
        "space, gens",
        [
            (discrete(2), ((1, 0),)),
            (discrete(3), ((1, 2, 0),)),
            (sierpinski(), ()),
            (vee(), ((0, 2, 1),)),
        ],
    )
    def test_fixture_actions_agree(self, space, gens):
        assert action_quasi_orbit_agreement(FiniteGroupAction(space, gens))

    def test_two_chains_swapped(self):
        p = FinitePoset.from_pairs(4, [(0, 1), (2, 3)])
        a = FiniteGroupAction(FiniteT0Space.from_poset(p), ((2, 3, 0, 1),))
        assert orbit_closure_relation(a) == (0b0101, 0b1010)
        assert action_quasi_orbit_agreement(a)

    @settings(max_examples=60, deadline=None)
    @given(actions())
    def test_random_actions_agree(self, a):
        assert action_quasi_orbit_agreement(a)


class TestBundleShape:
    def test_endpoints_must_match(self):
        pm = PointMap(discrete(2), sierpinski(), (0, 1))
        with pytest.raises(ShapeMismatch):
            BundleMap(discrete(2), discrete(2), pm)


class TestBundleCompile:
    def test_identity_bundle_is_the_identity_connection(self):
        space = vee()
        pm = PointMap(space, space, (0, 1, 2))
        d = bundle_inclusion_data(BundleMap(space, space, pm))
        n = opens_lattice(space).n
        assert d.gc.lower.values == tuple(range(n))
        assert d.gc.upper.values == tuple(range(n))

    def test_discrete_pair_over_sierpinski(self):
        pm = PointMap(discrete(2), sierpinski(), (0, 1))
        d = bundle_inclusion_data(BundleMap(discrete(2), sierpinski(), pm))
        assert d.gc.lower.values == (0, 1, 3)
        assert d.gc.upper.values == (0, 1, 0, 2)
        assert check_MI(d) and not check_C2(d)

    def test_collapse_to_a_point(self):
        pt = discrete(1)
        pm = PointMap(vee(), pt, (0, 0, 0))
        d = bundle_inclusion_data(BundleMap(vee(), pt, pm))
        assert d.gc.lower.values == (0, opens_lattice(vee()).n - 1)

    def test_open_non_surjective_projection_still_passes_the_prime_route(self):
        # constant onto the open point: the restricted side collapses,
        # so its prime map is an open surjection while proj misses a point
        pm = PointMap(sierpinski(), sierpinski(), (0, 0))
        d = bundle_inclusion_data(BundleMap(sierpinski(), sierpinski(), pm))
        assert is_open_map(pm) and not is_surjective(pm)
        rpm = restricted_prime_map(d)
        assert isinstance(rpm, PointMap)
        assert is_open_map(rpm) and is_surjective(rpm)
        assert check_C2(d)

    def test_openness_laws_over_all_small_projections(self):
        spaces = [
            FiniteT0Space.from_poset(p)
            for n in (1, 2, 3)
            for p in labeled_posets(n)
        ]
        checked = 0
        for total in spaces:
            for base in spaces:
                for vals in product(range(base.n), repeat=total.n):
                    try:
                        pm = PointMap(total, base, vals)
                    except NotContinuous:
                        continue
                    checked += 1
                    d = bundle_inclusion_data(BundleMap(total, base, pm))
                    assert check_MI(d)
                    c2 = check_C2(d)
                    rpm = restricted_prime_map(d)
                    good = (
                        isinstance(rpm, PointMap)
                        and is_open_map(rpm)
                        and is_surjective(rpm)
                    )
                    assert c2 == good
                    if is_open_map(pm):
                        assert c2
                    if is_surjective(pm):
                        assert is_open_map(pm) == c2
        assert checked == 4818
