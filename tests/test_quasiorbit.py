"""Condition calculus, pi, F, rho and their theorem cross-checks.

Hand-built fixtures pin every branch of the calculus:

* crossed: the two-atom pattern whose restricted set is not join-closed
  (the canonical refusal instance for quasi-orbit constructions).
* overlapped: the pattern whose induced meets escape (MIf fails).
* chain_segment: a bottom-segment inclusion where binary meet closure
  holds but the induced top is missing (MIf without MI).
* c1_breaker: join-closed restricted set with the meet identity broken,
  so pi exists but is not open.
* m3_closure: a connection on the 3-cube whose restricted sublattice is
  the modular non-distributive five-element lattice; spectra refuse.
* bundle: opens of the two-point discrete space over the Sierpinski
  base; MI holds, C2 fails, rho is surjective but not open.
"""

import pytest
from hypothesis import given, settings

import stonekit.conformance as conformance_module
from conftest import (
    assert_same_lattice,
    chain_lattice,
    connections,
    diamond,
    matrix_connection,
    meets_commute_by_table,
    pin_cpus,
    three_atom_diamond,
)
from stonekit import (
    ConditionViolated,
    F_map,
    FinitePoset,
    FiniteT0Space,
    GaloisConnection,
    InclusionData,
    JRViolated,
    MIViolated,
    MonotoneMap,
    NotAFrame,
    PointMap,
    PrimeMapObstruction,
    QuasiOrbitSpace,
    boolean_lattice,
    check_C1,
    check_C2,
    check_JR,
    check_MI,
    check_MIf,
    downset_lattice,
    homeomorphic,
    induced_prime_map,
    is_frame,
    is_homeomorphism,
    is_open_map,
    is_surjective,
    pi_map,
    quasi_orbit_map,
    quasi_orbit_space,
    restricted_prime_map,
    separates,
    sublattice,
    sweep_theorem,
    verify_prop26,
)

CROSSED = ((1, 0), (0, 1), (1, 1))
OVERLAPPED = ((1, 0, 1, 1), (0, 1, 1, 1))


def data(mult):
    return InclusionData(matrix_connection(mult))


def identity_data(lat=None):
    lat = lat or diamond()
    return InclusionData(GaloisConnection.from_lower(MonotoneMap.identity(lat)))


def chain_segment():
    a, b = chain_lattice(2), chain_lattice(3)
    return InclusionData(GaloisConnection.from_lower(MonotoneMap(a, b, (0, 1))))


def c1_breaker():
    a, b = boolean_lattice(2), chain_lattice(3)
    return InclusionData(GaloisConnection.from_lower(MonotoneMap(a, b, (0, 1, 2, 2))))


def swap_action():
    # two discrete points swapped: source opens against invariant opens
    a, b = boolean_lattice(2), chain_lattice(2)
    return InclusionData(GaloisConnection.from_lower(MonotoneMap(a, b, (0, 1, 1, 1))))


def m3_closure():
    amb = boolean_lattice(3)
    atom_image = {0b001: 0b110, 0b010: 0b101, 0b100: 0b011}
    vals = []
    for m in amb.labels:
        out = 0
        for atom, img in atom_image.items():
            if m & atom:
                out |= img
        vals.append(amb.index_of_label(out))
    return InclusionData(
        GaloisConnection.from_lower(MonotoneMap(amb, amb, tuple(vals)))
    )


def bundle():
    a = downset_lattice(FinitePoset.chain(2))  # opens of the Sierpinski base
    b = boolean_lattice(2)
    i = MonotoneMap(a, b, tuple(b.index_of_label(m) for m in a.labels))
    return InclusionData(GaloisConnection.from_lower(i))


class TestInclusionData:
    def test_rejects_non_frame_carrier(self):
        lat = three_atom_diamond()
        gc = GaloisConnection.from_lower(MonotoneMap.identity(lat))
        with pytest.raises(NotAFrame):
            InclusionData(gc)

    def test_crossed_fixed_point_sets(self):
        d = data(CROSSED)
        assert d.restricted == (0, 1, 2, 7)
        assert d.induced == (0, 1, 2, 3)

    def test_restricted_sublattice_can_be_non_distributive(self):
        d = m3_closure()
        assert d.restricted == (0, 1, 2, 4, 7)
        lat = d.restricted_lattice
        assert lat.n == 5
        assert not is_frame(lat).distributive
        with pytest.raises(NotAFrame):
            d.restricted_spectrum

    def test_m3_restricted_lattice_matches_the_validated_route(self):
        d = m3_closure()
        oracle = sublattice(d.lattice_a, d.restricted)
        assert_same_lattice(d.restricted_lattice, oracle)
        assert_same_lattice(d.induced_lattice, sublattice(d.lattice_b, d.induced))
        assert verify_prop26(d.gc).all_ok
        with pytest.raises(NotAFrame) as ei:
            d.restricted_spectrum
        assert ei.value.witness == is_frame(oracle).witness == (1, 2, 3)


class TestJoinClosure:
    def test_crossed_fails(self):
        d = data(CROSSED)
        assert not check_JR(d)

    def test_single_row_holds(self):
        assert check_JR(data(((1, 1),)))

    def test_identity_holds(self):
        assert check_JR(identity_data())

    def test_zero_row_breaks_the_empty_join(self):
        # a dead summand pulls the closure of bottom above bottom
        d = data(((0,),))
        assert not check_JR(d)
        with pytest.raises(JRViolated) as ei:
            pi_map(d)
        assert ei.value.witness == ()

    def test_bundle_holds(self):
        assert check_JR(bundle())


class TestPiMap:
    def test_refused_without_join_closure(self):
        with pytest.raises(JRViolated) as ei:
            pi_map(data(CROSSED))
        assert ei.value.witness == (1, 2)

    def test_swap_collapses_both_primes(self):
        pi = pi_map(swap_action())
        assert pi.values == (0, 0)
        assert pi.target.n == 1

    def test_identity_is_a_bijection_of_spectra(self):
        pi = pi_map(identity_data())
        assert pi.values == (0, 1)
        assert is_homeomorphism(pi)

    def test_c1_breaker_pi_not_open(self):
        d = c1_breaker()
        pi = pi_map(d)
        assert is_surjective(pi)
        assert not is_open_map(pi)


class TestMeetIdentity:
    def test_identity_holds(self):
        assert check_C1(identity_data())

    def test_single_row_holds(self):
        assert check_C1(data(((1, 1),)))

    def test_breaker_fails(self):
        assert not check_C1(c1_breaker())

    @pytest.mark.parametrize(
        "d",
        [identity_data, lambda: data(((1, 1),)), c1_breaker, swap_action, bundle],
    )
    def test_open_surjection_equivalence(self, d):
        d = d()
        if not check_JR(d):
            pytest.skip("needs join closure")
        pi = pi_map(d)
        assert check_C1(d) == (is_open_map(pi) and is_surjective(pi))


class TestInducedMeets:
    def test_overlapped_binary_meet_escapes(self):
        d = data(OVERLAPPED)
        assert not check_MIf(d)
        assert not check_MI(d)

    def test_two_rows_one_column(self):
        d = data(((1,), (1,)))
        assert check_MIf(d) and check_MI(d)

    def test_crossed_has_everything_induced(self):
        d = data(CROSSED)
        assert check_MIf(d) and check_MI(d)

    def test_binary_closure_without_induced_top(self):
        for d in (chain_segment(), data(((1, 0),))):
            assert check_MIf(d)
            assert not check_MI(d)

    @settings(max_examples=100, deadline=None)
    @given(connections())
    def test_collapse_of_the_two_readings(self, gc):
        d = InclusionData(gc)
        top_induced = d.lattice_b.top in set(d.induced)
        assert check_MI(d) == (check_MIf(d) and top_induced)


class TestLeastCoverMap:
    def test_crossed_cover_is_the_identity(self):
        f = F_map(data(CROSSED))
        assert f.values == (0, 1, 2, 3)
        assert f.target.labels == (0, 1, 2, 3)

    def test_bundle_covers_the_closed_point_by_everything(self):
        d = bundle()
        f = F_map(d)
        amb = tuple(f.target.labels[v] for v in f.values)
        assert amb == (0, 1, 3, 3)

    def test_overlapped_refused_with_the_escaping_pair(self):
        d = data(OVERLAPPED)
        with pytest.raises(MIViolated) as ei:
            F_map(d)
        b = d.lattice_b
        assert tuple(b.labels[x] for x in ei.value.witness) == (0b1101, 0b1110)

    def test_escaping_pair_reported_before_a_missing_top(self):
        # a dead column also keeps the top from being induced
        d = data(((1, 0, 1, 1, 0), (0, 1, 1, 1, 0)))
        b = d.lattice_b
        assert b.top not in d.induced
        with pytest.raises(MIViolated) as ei:
            F_map(d)
        assert tuple(b.labels[x] for x in ei.value.witness) == (0b1101, 0b1110)

    def test_missing_top_reported_as_the_empty_subset(self):
        with pytest.raises(MIViolated) as ei:
            F_map(chain_segment())
        assert ei.value.witness == ()


class TestSecondMeetIdentity:
    def test_identity_holds(self):
        assert check_C2(identity_data())

    def test_crossed_holds(self):
        assert check_C2(data(CROSSED))

    def test_bundle_fails(self):
        assert not check_C2(bundle())

    def test_gated_behind_meet_closure(self):
        with pytest.raises(MIViolated):
            check_C2(data(OVERLAPPED))


class TestQuasiOrbitSpace:
    def test_identity_quotient_is_the_spectrum(self):
        d = identity_data()
        qos = quasi_orbit_space(d)
        assert homeomorphic(qos.quotient, d.spectrum_a.space)
        assert qos.classes == (0b01, 0b10)

    def test_swap_quotient_is_a_point(self):
        qos = quasi_orbit_space(swap_action())
        assert qos.quotient.n == 1
        assert qos.classes == (0b11,)

    def test_refused_without_join_closure(self):
        with pytest.raises(JRViolated):
            quasi_orbit_space(data(CROSSED))

    def test_defined_without_c1(self):
        qos = quasi_orbit_space(c1_breaker())
        assert qos.quotient.n == 2

    def test_tampered_quotient_is_refused(self):
        sierpinski = FiniteT0Space.from_poset(FinitePoset.chain(2))
        discrete = FiniteT0Space.from_poset(FinitePoset.antichain(2))
        classes, class_of = (0b01, 0b10), (0, 1)
        for space in (sierpinski, discrete):
            QuasiOrbitSpace(space, classes, space, class_of)
        # a quotient open whose preimage is not open, then a quotient
        # missing a saturated open while every preimage is open
        for base, quotient in ((sierpinski, discrete), (discrete, sierpinski)):
            with pytest.raises(AssertionError, match="quotient topology"):
                QuasiOrbitSpace(base, classes, quotient, class_of)


class TestRestrictedPrimeMap:
    def test_crossed_is_a_two_point_homeomorphism(self):
        d = data(CROSSED)
        rho = restricted_prime_map(d)
        assert isinstance(rho, PointMap)
        assert rho.source.n == 2 and rho.target.n == 2
        assert is_homeomorphism(rho)
        assert separates(d.gc)

    def test_m3_restricted_lattice_refuses(self):
        ob = restricted_prime_map(m3_closure())
        assert isinstance(ob, PrimeMapObstruction)
        assert ob.kind == "restricted-not-frame"

    def test_chain_segment_hits_the_restricted_top(self):
        ob = restricted_prime_map(chain_segment())
        assert isinstance(ob, PrimeMapObstruction)
        assert ob.kind == "value-not-prime"
        assert ob.detail == (1, 1)

    @pytest.mark.parametrize(
        "d",
        [
            identity_data,
            lambda: data(CROSSED),
            lambda: data(OVERLAPPED),
            lambda: data(((1, 1),)),
            chain_segment,
            bundle,
            swap_action,
        ],
    )
    def test_well_defined_open_surjective_iff_mi_and_c2(self, d):
        d = d()
        rho = restricted_prime_map(d)
        right = (
            isinstance(rho, PointMap)
            and is_open_map(rho)
            and is_surjective(rho)
        )
        left = check_MI(d) and check_C2(d)
        assert left == right


class TestInducedPrimeMap:
    def test_gated_behind_meet_closure(self):
        with pytest.raises(MIViolated):
            induced_prime_map(chain_segment())

    @pytest.mark.parametrize(
        "d", [identity_data, lambda: data(CROSSED), bundle, swap_action]
    )
    def test_diagram_coherence_with_the_restricted_route(self, d):
        # r collapses the two routes: applying r to the induced prime
        # recovers the restricted prime, point for point
        d = d()
        ipm = induced_prime_map(d)
        rpm = restricted_prime_map(d)
        assert isinstance(rpm, PointMap)
        r = d.gc.upper.values
        for k in range(d.spectrum_b.space.n):
            ind_label = d.induced_lattice.labels[d.induced_spectrum.primes[ipm.values[k]]]
            res_label = d.restricted_lattice.labels[d.restricted_spectrum.primes[rpm.values[k]]]
            assert r[ind_label] == res_label


class TestQuasiOrbitMap:
    def test_identity_is_a_homeomorphism(self):
        rho = quasi_orbit_map(identity_data())
        assert is_homeomorphism(rho)

    def test_swap_collapse(self):
        rho = quasi_orbit_map(swap_action())
        assert rho.values == (0,)
        assert is_homeomorphism(rho)

    def test_bundle_surjective_but_not_open(self):
        rho = quasi_orbit_map(bundle())
        assert is_surjective(rho)
        assert not is_open_map(rho)
        assert not is_homeomorphism(rho)

    def test_gates_report_the_first_failure(self):
        with pytest.raises(ConditionViolated) as ei:
            quasi_orbit_map(data(CROSSED))
        assert ei.value.condition == "JR"
        with pytest.raises(ConditionViolated) as ei:
            quasi_orbit_map(c1_breaker())
        assert ei.value.condition == "C1"
        with pytest.raises(ConditionViolated) as ei:
            quasi_orbit_map(chain_segment())
        assert ei.value.condition == "MI"

    def test_refusals_carry_the_witness_of_their_condition(self):
        with pytest.raises(JRViolated) as ei:
            quasi_orbit_map(data(CROSSED))
        assert (ei.value.condition, ei.value.witness) == ("JR", (1, 2))
        d = c1_breaker()
        with pytest.raises(ConditionViolated) as ei:
            quasi_orbit_map(d)
        assert type(ei.value) is ConditionViolated
        assert ei.value.condition == "C1"
        i, j = ei.value.witness
        a, ri = d.lattice_a, d.gc.closure_values()
        assert i in d.restricted
        assert a.meet(i, ri[j]) != ri[a.meet(i, j)]
        with pytest.raises(MIViolated) as ei:
            quasi_orbit_map(chain_segment())
        assert (ei.value.condition, ei.value.witness) == ("MI", ())


@pytest.fixture(scope="module")
def c48_stream():
    """The inclusion of every instance the C48 sweep checks at seed 7."""
    seen = []
    real = conformance_module._inclusion

    def recorded(instance):
        seen.append(real(instance))
        return seen[-1]

    with pytest.MonkeyPatch.context() as mp:
        pin_cpus(mp, 1)
        mp.setattr(conformance_module, "_inclusion", recorded)
        sweep_theorem("C48", seed=7)
    assert len(seen) == 1000
    return seen


class TestMeetIdentityScan:
    """The cached C1 and C2 witnesses against the pair-by-pair oracle:
    the same verdict and the same first pair (I, J)."""

    def test_c1_on_every_join_closed_instance(self, c48_stream):
        verdicts = []
        for d in c48_stream:
            if check_JR(d):
                a = d.lattice_a
                want = meets_commute_by_table(
                    a, d.restricted, range(a.n), a, d.gc.closure_values()
                )
                assert d._c1_bad == want
                assert check_C1(d) == (want is None)
                verdicts.append(want is None)
        assert verdicts.count(True) and verdicts.count(False)

    def test_c2_on_every_meet_closed_instance(self, c48_stream):
        verdicts = []
        for d in c48_stream:
            if check_MI(d):
                b, f = d.lattice_b, F_map(d)
                values = tuple(f.target.labels[v] for v in f.values)
                want = meets_commute_by_table(b, d.induced, range(b.n), b, values)
                assert d._c2_bad == want
                assert check_C2(d) == (want is None)
                verdicts.append(want is None)
        assert verdicts.count(True) and verdicts.count(False)


class TestFixturesAgainstLawReport:
    @pytest.mark.parametrize(
        "d",
        [
            identity_data,
            lambda: data(CROSSED),
            lambda: data(OVERLAPPED),
            chain_segment,
            c1_breaker,
            swap_action,
            m3_closure,
            bundle,
        ],
    )
    def test_every_fixture_is_a_valid_connection(self, d):
        # the eight laws follow from the certified adjunction; the report
        # is the oracle for that certificate
        assert verify_prop26(d().gc).all_ok


@settings(max_examples=80, deadline=None)
@given(connections())
def test_randomized_condition_sweeps(gc):
    d = InclusionData(gc)
    if check_JR(d):
        pi = pi_map(d)
        assert check_C1(d) == (is_open_map(pi) and is_surjective(pi))
        quasi_orbit_space(d)
    rho = restricted_prime_map(d)
    right = isinstance(rho, PointMap) and is_open_map(rho) and is_surjective(rho)
    assert (check_MI(d) and check_C2(d)) == right
