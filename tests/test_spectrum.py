"""Prime spectra, point maps and the open-surjection equivalence.

Frozen prime sets were derived once by the definitional scan written
inline here (oracle_primes); the library must keep agreeing with it.
"""

import re

import pytest
from hypothesis import given, settings

import stonekit.conformance as conformance_module
import stonekit.lattice as lattice_module
import stonekit.quasiorbit as quasiorbit_module

from conftest import (
    chain_lattice,
    diamond,
    downset_frames,
    meets_commute_by_table,
    pentagon,
    posets,
    three_atom_diamond,
)
from stonekit import (
    FinitePoset,
    FiniteT0Space,
    InstanceGenerator,
    InvalidTopology,
    JRViolated,
    LatticeTooLarge,
    MonotoneMap,
    NotAFrame,
    NotContinuous,
    NotLocaleMorphism,
    PointMap,
    action_inclusion_data,
    adjunct_point_map,
    all_spaces,
    boolean_lattice,
    gen_inclusion_data,
    is_homeomorphism,
    is_locale_morphism,
    is_open_map,
    is_sober,
    is_spatial,
    is_surjective,
    lower_adjoint,
    opens_lattice,
    point_space,
    primes,
    quasi_orbit_space,
    quotient_space,
    small_group_actions,
    soberification,
    theorem33_check,
)
from oracles import (
    from_opens,
    open_map_by_opens,
    prime_elements,
    quotient_by_from_opens,
    sober_by_scan,
    sublattice,
)
from stonekit.conformance import _poset_classes
from stonekit.lattice import poset_isomorphism


def oracle_primes(lat):
    out = []
    for p in range(lat.n):
        if p == lat.top:
            continue
        if all(
            lat.leq(x, p) or lat.leq(y, p)
            for x in range(lat.n)
            for y in range(lat.n)
            if lat.leq(lat.meet(x, y), p)
        ):
            out.append(p)
    return tuple(out)


def set_partitions(n):
    """Every partition of range(n), as lists of disjoint nonempty masks."""
    if n == 0:
        yield []
        return
    bit = 1 << (n - 1)
    for blocks in set_partitions(n - 1):
        for k in range(len(blocks)):
            yield blocks[:k] + [blocks[k] | bit] + blocks[k + 1 :]
        yield blocks + [bit]


def sierpinski():
    return FiniteT0Space(FinitePoset.chain(2))


def discrete(n):
    return FiniteT0Space(FinitePoset.antichain(n))


class TestSpaceConstruction:
    @settings(max_examples=100)
    @given(posets())
    def test_opens_are_exactly_the_down_sets(self, p):
        space = FiniteT0Space(p)
        expected = [
            m
            for m in range(1 << p.n)
            if all(
                not (m >> x) & 1
                or all((m >> y) & 1 for y in range(p.n) if p.leq(y, x))
                for x in range(p.n)
            )
        ]
        assert list(space.opens) == expected

    def test_from_opens_roundtrip(self):
        space = from_opens(2, [0b00, 0b01, 0b11])
        assert space.points.leq(0, 1)
        assert space.opens == (0, 1, 3)

    def test_from_opens_requires_bounds(self):
        with pytest.raises(InvalidTopology):
            from_opens(2, [0b01, 0b11])

    def test_from_opens_requires_union_closure(self):
        with pytest.raises(InvalidTopology):
            from_opens(3, [0b000, 0b001, 0b010, 0b111])

    def test_from_opens_rejects_non_t0(self):
        with pytest.raises(InvalidTopology, match="T0"):
            from_opens(2, [0b00, 0b11])

    def test_spaces_past_the_cap_are_too_large(self, monkeypatch):
        # 16 opens against a cap of 8: too large, not a broken topology;
        # 8 opens are still allowed
        monkeypatch.setenv("STONE_MAX_LATTICE", "8")
        message = "^more than 8 down-sets; raise STONE_MAX_LATTICE to allow$"
        with pytest.raises(LatticeTooLarge, match=message):
            FiniteT0Space(FinitePoset.antichain(4))
        assert FiniteT0Space(FinitePoset.antichain(3)).opens == tuple(range(8))


class TestPrimes:
    def test_diamond_primes_are_the_coatoms(self):
        spec = primes(boolean_lattice(2))
        assert spec.primes == (1, 2)
        assert spec.open_of == (0, 2, 1, 3)

    def test_three_chain(self):
        spec = primes(chain_lattice(3))
        assert spec.primes == (0, 1)
        # the spectrum of a chain is again a chain
        assert spec.space.points.leq(0, 1)

    def test_four_element_diamond_spectrum_is_discrete(self):
        # the shape of a two-atom restricted sublattice: spectrum has
        # exactly the two middle points and no specialization between them
        spec = primes(diamond())
        assert spec.primes == (1, 2)
        assert poset_isomorphism(spec.space.points, discrete(2).points) is not None

    def test_non_distributive_input_refused(self):
        with pytest.raises(NotAFrame) as ei:
            primes(three_atom_diamond())
        assert ei.value.witness is not None

    def test_prime_scan_works_without_distributivity(self):
        assert prime_elements(three_atom_diamond()) == ()
        assert prime_elements(pentagon()) == (2, 3)

    @settings(max_examples=100)
    @given(downset_frames())
    def test_scan_matches_oracle(self, lat):
        assert prime_elements(lat) == oracle_primes(lat)

    @settings(max_examples=100)
    @given(downset_frames())
    def test_open_translation_preserves_structure(self, lat):
        spec = primes(lat)
        u = spec.open_of
        for x in range(lat.n):
            for y in range(lat.n):
                assert u[lat.join(x, y)] == u[x] | u[y]
                assert u[lat.meet(x, y)] == u[x] & u[y]
        assert u[lat.bottom] == 0
        assert u[lat.top] == (1 << len(spec.primes)) - 1


class TestSpatialSober:
    @settings(max_examples=100)
    @given(downset_frames())
    def test_finite_frames_are_spatial(self, lat):
        assert is_spatial(lat)

    def test_non_frame_is_not_spatial(self):
        assert not is_spatial(three_atom_diamond())

    # is_sober holds by theorem, so these run the definitional scan on
    # the spaces the package builds: any space, and the point spaces
    @settings(max_examples=60)
    @given(posets())
    def test_finite_t0_spaces_are_sober(self, p):
        assert sober_by_scan(FiniteT0Space(p))

    def test_singleton_space_sober(self):
        assert sober_by_scan(discrete(1))

    def test_sober_by_theorem_is_the_definitional_scan(self):
        # every finite T0 space is sober; the scan is the definition
        spaces = all_spaces(4, include_empty=True)
        spaces += [FiniteT0Space(rep) for rep in _poset_classes(5)]
        assert len(spaces) == 243 + 87
        for space in spaces:
            assert is_sober(space) == sober_by_scan(space) is True

    @settings(max_examples=60)
    @given(downset_frames())
    def test_point_spaces_are_sober(self, lat):
        assert sober_by_scan(point_space(lat))


class TestPointMap:
    def test_rejects_order_reversal(self):
        s = sierpinski()
        with pytest.raises(NotContinuous):
            PointMap(s, s, (1, 0))

    def test_rejects_wrong_arity(self):
        s = sierpinski()
        with pytest.raises(NotContinuous):
            PointMap(s, s, (0,))

    def test_preimage_and_image(self):
        f = PointMap(discrete(2), sierpinski(), (0, 1))
        assert f.preimage(0b01) == 0b01
        assert f.image_mask(0b10) == 0b10

    def test_identity_is_open_surjective(self):
        s = sierpinski()
        f = PointMap(s, s, (0, 1))
        assert is_open_map(f) and is_surjective(f) and is_homeomorphism(f)

    def test_open_point_inclusion(self):
        f = PointMap(discrete(1), sierpinski(), (0,))
        assert is_open_map(f)
        assert not is_surjective(f)

    def test_discrete_to_sierpinski_is_not_open(self):
        f = PointMap(discrete(2), sierpinski(), (0, 1))
        assert not is_open_map(f)
        assert is_surjective(f)
        assert not is_homeomorphism(f)


class TestAdjunctMap:
    def test_identity_morphism_gives_soberification(self):
        for p in [FinitePoset.chain(3), FinitePoset.from_pairs(3, [(0, 2), (1, 2)])]:
            space = FiniteT0Space(p)
            lat = opens_lattice(space)
            pi = adjunct_point_map(MonotoneMap.identity(lat), space)
            assert pi.values == soberification(space).values

    def test_swap_invariant_insertion_collapses_both_points(self):
        # invariant opens of the two-point swap are just bottom and top
        space = discrete(2)
        ox = opens_lattice(space)
        inv = sublattice(ox, [ox.bottom, ox.top])
        g = MonotoneMap(inv, ox, tuple(inv.labels))
        pi = adjunct_point_map(g, space)
        assert pi.target.n == 1
        assert pi.values == (0, 0)

    def test_projection_to_sierpinski_recovered(self):
        # total space two discrete points, base Sierpinski, identity on
        # points; G is the preimage map on opens
        base = sierpinski()
        ob = opens_lattice(base)
        ox = opens_lattice(discrete(2))
        g = MonotoneMap(ob, ox, tuple(ox.index_of_label(m) for m in ob.labels))
        pi = adjunct_point_map(g, discrete(2))
        sober = soberification(base)
        assert pi.values == sober.values

    def test_join_escaping_insertion_refused(self):
        # restricted-style sublattice {bottom, two atoms, top} of the
        # 3-cube: the join of the atoms escapes, not a locale morphism
        amb = boolean_lattice(3)
        sub = sublattice(amb, [0, 1, 2, 7])
        g = MonotoneMap(sub, amb, tuple(sub.labels))
        assert not is_locale_morphism(g)
        space = FiniteT0Space(FinitePoset.antichain(3))
        with pytest.raises(NotLocaleMorphism):
            adjunct_point_map(g, space)

    def test_preimage_maps_are_locale_morphisms(self):
        f = PointMap(discrete(2), sierpinski(), (0, 1))
        src = opens_lattice(sierpinski())
        tgt = opens_lattice(discrete(2))
        g = MonotoneMap(
            src, tgt, tuple(tgt.index_of_label(f.preimage(m)) for m in src.labels)
        )
        assert is_locale_morphism(g)


class TestTheorem33:
    def test_identity_all_true(self):
        space = FiniteT0Space(FinitePoset.from_pairs(3, [(0, 2), (1, 2)]))
        lat = opens_lattice(space)
        rep = theorem33_check(MonotoneMap.identity(lat), space)
        assert rep.has_lower_adjoint_F and rep.eq32_holds and rep.g_injective
        assert rep.pi_open and rep.pi_surjective
        assert rep.equivalence_verified

    def test_rotation_invariant_insertion(self):
        # three discrete points rotated cyclically: invariant opens are
        # bottom and top; the insertion has the orbit saturation as F
        space = discrete(3)
        ox = opens_lattice(space)
        inv = sublattice(ox, [ox.bottom, ox.top])
        g = MonotoneMap(inv, ox, tuple(inv.labels))
        rep = theorem33_check(g, space)
        assert rep.has_lower_adjoint_F and rep.eq32_holds and rep.g_injective
        assert rep.pi_open and rep.pi_surjective
        assert rep.equivalence_verified

    def test_half_open_insertion_breaks_the_meet_identity(self):
        # {bottom, one singleton, top} inside the opens of two discrete
        # points: F exists but the identity fails at I = the singleton,
        # V = the other point, and pi is accordingly not open
        space = discrete(2)
        ox = opens_lattice(space)
        sub = sublattice(ox, [ox.bottom, ox.index_of_label(0b01), ox.top])
        g = MonotoneMap(sub, ox, tuple(sub.labels))
        rep = theorem33_check(g, space)
        assert rep.has_lower_adjoint_F
        assert not rep.eq32_holds
        assert rep.g_injective
        assert not rep.pi_open
        assert rep.pi_surjective
        assert rep.equivalence_verified

    def test_eq32_scan_matches_the_pairwise_oracle(self):
        # every morphism of the T33 sweep at its default budget (each
        # preserves meets, so each has F): the shared scan returns the
        # oracle's first (i, v), and the report's eq32 is its verdict
        budget = conformance_module._SWEEPS["T33"][0]
        verdicts = []
        pairs = conformance_module._frame_space_pairs(budget)
        for rel in conformance_module._locale_morphisms(pairs):
            g = quasiorbit_module.relation_inclusion_data(rel).gc.lower
            args = (g.source, range(g.source.n), g.values, g.target, lower_adjoint(g).values)
            want = meets_commute_by_table(*args)
            assert lattice_module._meets_commute(*args) == want
            assert theorem33_check(g, FiniteT0Space(rel.target)).eq32_holds == (want is None)
            verdicts.append(want is None)
        assert verdicts.count(True) and verdicts.count(False)

    def test_non_injective_morphism(self):
        # boolean square onto the opens of a single point: one atom to
        # top, the other to bottom
        space = discrete(1)
        ox = opens_lattice(space)
        g = MonotoneMap(boolean_lattice(2), ox, (0, 1, 0, 1))
        rep = theorem33_check(g, space)
        assert rep.has_lower_adjoint_F and rep.eq32_holds
        assert not rep.g_injective
        assert not rep.pi_surjective
        assert rep.equivalence_verified


class TestStoneRoundTrip:
    @settings(max_examples=60)
    @given(downset_frames())
    def test_opens_of_point_space_recover_the_frame(self, lat):
        assert poset_isomorphism(opens_lattice(point_space(lat)).order, lat.order) is not None

    @settings(max_examples=60)
    @given(posets())
    def test_point_space_of_opens_recovers_the_space(self, p):
        space = FiniteT0Space(p)
        assert poset_isomorphism(point_space(opens_lattice(space)).points, space.points) is not None

    @settings(max_examples=60)
    @given(posets())
    def test_soberification_unit_is_a_homeomorphism(self, p):
        space = FiniteT0Space(p)
        assert is_homeomorphism(soberification(space))

    def test_boolean_cube(self):
        lat = boolean_lattice(3)
        assert poset_isomorphism(point_space(lat).points, discrete(3).points) is not None


class TestQuotient:
    def test_vee_collapses_to_sierpinski(self):
        space = FiniteT0Space(FinitePoset.from_pairs(3, [(0, 2), (1, 2)]))
        q, class_of = quotient_space(space, [0b011, 0b100])
        assert poset_isomorphism(q.points, sierpinski().points) is not None
        assert class_of == (0, 0, 1)

    def test_discrete_identity_partition(self):
        space = discrete(2)
        q, class_of = quotient_space(space, [0b01, 0b10])
        assert poset_isomorphism(q.points, space.points) is not None
        assert class_of == (0, 1)

    def test_rejects_overlap_and_gap(self):
        space = discrete(2)
        with pytest.raises(InvalidTopology):
            quotient_space(space, [0b01, 0b11])
        with pytest.raises(InvalidTopology):
            quotient_space(space, [0b01])

    def test_rejects_non_t0_quotient(self):
        # collapsing top with bottom of the four-point diamond order
        # leaves the two middle classes indistinguishable
        space = FiniteT0Space(
            FinitePoset.from_pairs(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
        )
        with pytest.raises(InvalidTopology):
            quotient_space(space, [0b1001, 0b0010, 0b0100])

    def test_matches_from_opens_on_every_partition(self):
        # all partitions of every labeled space of at most 4 points; the
        # non-T0 quotients must fail with the oracle's message
        outcomes = set()
        for space in all_spaces(4):
            for classes in set_partitions(space.n):
                try:
                    want = quotient_by_from_opens(space, classes)
                except InvalidTopology as e:
                    with pytest.raises(InvalidTopology, match=re.escape(str(e))):
                        quotient_space(space, classes)
                    outcomes.add("not T0")
                    continue
                got = quotient_space(space, classes)
                assert got == want
                assert got[0].opens == want[0].opens
                outcomes.add("T0")
        assert outcomes == {"T0", "not T0"}

    def test_quotients_and_open_maps_read_no_opens(self):
        # a space stored without its opens, which only the constructor
        # enumerates: quotient_space and is_open_map answer on it as on
        # the space itself, so neither lists an open
        verdicts = set()
        for space in all_spaces(3):
            bare = FiniteT0Space._trusted(space.points)
            assert not hasattr(bare, "opens")
            for classes in set_partitions(space.n):
                try:
                    q, class_of = quotient_space(space, classes)
                except InvalidTopology as e:
                    with pytest.raises(InvalidTopology, match=re.escape(str(e))):
                        quotient_space(bare, classes)
                    continue
                assert quotient_space(bare, classes) == (q, class_of)
                want = open_map_by_opens(PointMap(space, q, class_of))
                f = PointMap(bare, FiniteT0Space._trusted(q.points), class_of)
                assert is_open_map(f) == want
                verdicts.add(want)
        assert verdicts == {True, False}

    def test_quasi_orbit_quotients_match_from_opens(self, monkeypatch):
        real = quasiorbit_module.quotient_space
        built = []

        def compared(space, classes):
            got = real(space, classes)
            assert got == quotient_by_from_opens(space, classes)
            built.append(got)
            return got

        monkeypatch.setattr(quasiorbit_module, "quotient_space", compared)
        families = ("random-galois", "multiplicity", "action", "bundle")
        for family in families:
            for seed in range(40):
                d = gen_inclusion_data(InstanceGenerator(seed=seed, family=family))
                try:
                    quasi_orbit_space(d)
                except JRViolated:
                    continue
        for space in all_spaces(4):
            for action in small_group_actions(space):
                quasi_orbit_space(action_inclusion_data(action))
        assert len(built) > 200
