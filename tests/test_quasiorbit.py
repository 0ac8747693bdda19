"""Condition calculus, pi, F, rho and their theorem cross-checks.

Each value is computed by one route in the package; the route it does
not take is an oracle here (TestEachRouteAgainstItsOracle), run on the
sweeps' streams, the T62 representatives, the paper's fixtures and the
census of every connection between frames of posets on at most three
points (``all_connections(3)``), which TestConnectionCensus pins.
TestPointRoute compares the sweeps' verdicts on points (every sweep
that reads a condition or a quasi-orbit class decides on the relation
(P, Q, R) of its instance) with the element route, component by
component, on the same corpus, the T47, C54 and T62 checks verdict for
verdict on their own streams and censuses, and the sides of Theorem 3.3
field by field on every locale morphism of the T33 sweep.

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

from collections import Counter

import pytest
from hypothesis import given, settings

import stonekit.conformance as conformance_module
import stonekit.quasiorbit as quasiorbit_module
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
    EX_74,
    EX_210,
    EX_211,
    EX_213,
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
    boolean_lattice,
    check_C1,
    check_C2,
    check_JR,
    check_MI,
    check_MIf,
    action_inclusion_data,
    action_quasi_orbit_agreement,
    adjunct_point_map,
    all_posets,
    all_spaces,
    binary_matrices,
    detects,
    downset_lattice,
    induced_prime_map,
    is_frame,
    is_homeomorphism,
    is_open_map,
    is_surjective,
    lower_adjoint,
    pi_map,
    quasi_orbit_map,
    quasi_orbit_space,
    restricted_prime_map,
    primes,
    separates,
    small_group_actions,
    soberification,
    sweep_theorem,
    theorem33_check,
    to_inclusion_data,
)
from oracles import (
    adjunct_pi,
    all_connections,
    definitional_open_of,
    element_check_C48,
    element_check_C49,
    element_check_C54,
    element_check_T33,
    element_check_T42,
    element_check_T47,
    element_quasi_orbit_agreement,
    is_adjoint_pair,
    open_map_by_opens,
    opposite,
    quotient_by_from_opens,
    relation_of,
    sublattice,
    verify_prop26,
)
from stonekit.quasiorbit import (
    PointRelation,
    _holds_C1,
    _holds_C2,
    _holds_JR,
    _holds_MI,
    _holds_MIf,
    _holds_separation,
    _pi_is_open,
    _rho,
)
from stonekit.conformance import (
    _MASK64,
    InstanceGenerator,
    _SWEEPS,
    _check_C48,
    _check_C49,
    _check_C54,
    _check_T33,
    _check_T42,
    _check_T47,
    _compile_seed,
    _draw,
    _frame_space_pairs,
    _inclusion,
    _locale_morphisms,
    _poset_classes,
    _relation,
    _subgroup_classes,
    _theorem33_sides,
)
from stonekit._kernels import bits
from stonekit.topo_models import action_relation
from stonekit.lattice import order_automorphisms, poset_isomorphism

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


class TestWholeCarrierCertificates:
    """When r.i (or i.r) is the identity, JR and C1 (or MIf, MI and C2)
    hold by theorem and are decided without a scan; one element short of
    the whole carrier, the scans still run and may fail."""

    def test_identity_connections_decide_without_a_scan(self, monkeypatch):
        def scan(*args):
            raise AssertionError("scanned")

        monkeypatch.setattr(quasiorbit_module, "escaping_pair", scan)
        monkeypatch.setattr(quasiorbit_module, "_meets_commute", scan)
        for d in (identity_data(), identity_data(boolean_lattice(3)), data(((1, 0), (0, 1)))):
            assert len(d.restricted) == d.lattice_a.n and len(d.induced) == d.lattice_b.n
            for check in (check_JR, check_C1, check_MIf, check_MI, check_C2):
                assert check(d)

    def test_all_but_the_bottom_restricted_breaks_the_empty_join(self):
        # i is constant at the bottom, so r.i sends both elements of the
        # two-element chain to its top: one restricted element of two
        a = chain_lattice(2)
        d = InclusionData(GaloisConnection.from_lower(MonotoneMap(a, a, (0, 0))))
        assert len(d.restricted) == a.n - 1
        assert d._jr_bad == ()
        assert not check_JR(d)

    def test_all_but_one_induced_can_break_binary_meets(self):
        # rows {0, 1}, {0, 2}, {1}, {2} over three discrete points: every
        # set but {0} is a union of rows, and {0, 1} & {0, 2} = {0}
        gc = GaloisConnection.from_relation(
            boolean_lattice(4), boolean_lattice(3), (0b011, 0b101, 0b010, 0b100)
        )
        d = InclusionData(gc)
        assert len(d.induced) == d.lattice_b.n - 1
        assert d._mif_bad == (0b011, 0b101)
        assert not check_MIf(d) and not check_MI(d)


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
        assert poset_isomorphism(qos.quotient.points, d.spectrum_a.space.points) is not None
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
    real = conformance_module._relation

    def recorded(instance):
        seen.append(_inclusion(instance))
        return real(instance)

    with pytest.MonkeyPatch.context() as mp:
        pin_cpus(mp, 1)
        mp.setattr(conformance_module, "_relation", recorded)
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


FIXTURES = (
    identity_data,
    lambda: data(CROSSED),
    lambda: data(OVERLAPPED),
    chain_segment,
    c1_breaker,
    swap_action,
    m3_closure,
    bundle,
)


@pytest.fixture(scope="module")
def census_pairs():
    """Every connection between the down-set frames of two posets on
    1..3 points (one poset per isomorphism class a side), as the pair
    (relation on points, inclusion) the sweeps compile a seed to."""
    out = [(seed, _compile_seed(seed)) for seed in all_connections(3)]
    assert len(out) == 2986
    return out


@pytest.fixture(scope="module")
def census(census_pairs):
    return [d for _, d in census_pairs]


@pytest.fixture(scope="module")
def point_corpus(census_pairs):
    """Each inclusion of the corpus with its relation on points: the
    random-galois, action and bundle streams of the sweeps at seeds 0
    and 7 (500 child draws each, at max_points 6) and one action per
    subgroup class on each of the 87 T62 representatives, each compiled
    both ways as the sweeps compile it; the paper's matrix fixtures and
    this module's fixtures, read on points by ``relation_of``; and the
    census."""
    out = []
    for family in ("random-galois", "action", "bundle"):
        for seed in (0, 7):
            for k in range(500):
                child = (seed ^ (0x9E3779B97F4A7C15 * (k + 1))) & _MASK64
                instance = _draw(InstanceGenerator(child, family, 6))
                out.append((_relation(instance), _inclusion(instance)))
    reps = _poset_classes(5)
    assert len(reps) == 87
    for rep in reps:
        space = FiniteT0Space(rep)
        for action, _ in _subgroup_classes(space, order_automorphisms(rep)):
            out.append((action_relation(action), action_inclusion_data(action)))
    fixtures = [to_inclusion_data(m()) for m in (EX_210, EX_211, EX_213, EX_74)]
    fixtures += [fixture() for fixture in FIXTURES]
    out += [(relation_of(d), d) for d in fixtures]
    assert len(out) == 3000 + 226 + 4 + 8
    return out + census_pairs


@pytest.fixture(scope="module")
def route_corpus(point_corpus):
    """The inclusions every construction is compared with its oracle on:
    those of ``point_corpus``, the census included."""
    return [d for _, d in point_corpus]




@pytest.fixture(scope="module")
def t33_morphisms():
    """Every locale morphism the T33 sweep checks at its default budget,
    as (G, X): the lower map of the relation's element connection and
    the space on its target."""
    budget = conformance_module._SWEEPS["T33"][0]
    pairs = conformance_module._frame_space_pairs(budget)
    out = [
        (_compile_seed(rel).gc.lower, FiniteT0Space(rel.target))
        for rel in conformance_module._locale_morphisms(pairs)
    ]
    assert (budget, len(out)) == (5, 1628)
    return out


class TestConnectionCensus:
    """The census pins the condition counts and the sweeps' checks at
    small size, completely rather than by sampling."""

    def test_condition_failures(self, census):
        failures = {
            "JR": sum(not check_JR(d) for d in census),
            "MIf": sum(not check_MIf(d) for d in census),
            "MI": sum(not check_MI(d) for d in census),
            "C1": sum(not check_C1(d) for d in census),
            "C1 under JR": sum(not check_C1(d) for d in census if check_JR(d)),
            "C2 under MI": sum(not check_C2(d) for d in census if check_MI(d)),
        }
        assert failures == {
            "JR": 1518,
            "MIf": 205,
            "MI": 1518,
            "C1": 1284,
            "C1 under JR": 759,
            "C2 under MI": 759,
        }

    def test_sweep_checks_hold_on_every_connection(self, census_pairs):
        # on points, and the element checks as their oracles
        applicable = {}
        for name, check, on_points in (
            ("T42", _check_T42, True),
            ("T47", _check_T47, True),
            ("C48", _check_C48, True),
            ("C49", _check_C49, True),
            ("T42 on elements", element_check_T42, False),
            ("T47 on elements", element_check_T47, False),
            ("C48 on elements", element_check_C48, False),
            ("C49 on elements", element_check_C49, False),
        ):
            verdicts = [check(rel if on_points else d) for rel, d in census_pairs]
            assert all(ok for _, ok in verdicts), name
            applicable[name] = sum(applies for applies, _ in verdicts)
        assert applicable == {
            "T42": 1468,
            "T47": 2986,
            "C48": 329,
            "C49": 329,
            "T42 on elements": 1468,
            "T47 on elements": 2986,
            "C48 on elements": 329,
            "C49 on elements": 329,
        }

    def test_jr_of_the_opposite_connection_is_mi(self, census):
        # between the opposite frames r is the lower map, so d^op's
        # restricted elements are d's induced ones: the JR and MI scans
        # decide the same closure, bottom and top included
        for d in census:
            op = InclusionData(opposite(d.gc))
            assert op.restricted == d.induced
            assert check_JR(op) == check_MI(d)


class TestEachRouteAgainstItsOracle:
    """Each value is computed by one route; the route it does not take
    is the oracle here, on every inclusion of the corpus (the census
    included), on every T33 morphism or on every small space."""

    def test_pi_is_the_adjunct_point_map_of_the_restricted_insertion(self, route_corpus):
        collapsing = 0
        for d in route_corpus:
            if not check_JR(d):
                continue
            pi = pi_map(d)
            assert pi == adjunct_pi(d)
            collapsing += len(set(pi.values)) < len(pi.values)
        assert collapsing

    def test_quasi_orbit_space_is_the_quotient_from_opens(self, route_corpus):
        shapes = set()
        for d in route_corpus:
            if not check_JR(d):
                continue
            qos = quasi_orbit_space(d)
            assert qos.base == d.spectrum_a.space
            pi = pi_map(d)
            assert all(
                len({pi.values[x] for x in range(pi.source.n) if (c >> x) & 1}) == 1
                for c in qos.classes
            )
            want = quotient_by_from_opens(qos.base, qos.classes)
            assert (qos.quotient, qos.class_of) == want
            assert qos.quotient.opens == want[0].opens
            shapes.add(qos.quotient.n < qos.base.n)
        assert shapes == {True, False}

    def test_open_of_is_the_definitional_bijection_onto_the_opens(self, route_corpus):
        seen = {}
        for d in route_corpus:
            for lat in (d.lattice_a, d.lattice_b, d.induced_lattice):
                seen[id(lat)] = lat
            if check_JR(d):
                seen[id(d.restricted_lattice)] = d.restricted_lattice
        frames = 0
        for lat in seen.values():
            if not is_frame(lat).distributive:
                continue
            spec = primes(lat)
            assert spec.open_of == definitional_open_of(lat, spec.primes)
            assert len(set(spec.open_of)) == lat.n
            assert set(spec.open_of) == set(spec.space.opens)
            frames += 1
        assert frames > 1000

    def test_classes_and_rho_are_read_through_the_restricted_spectrum(self, route_corpus):
        # the lattice route: the classes are the fibers of pi_map's prime
        # indices in ascending order, and rho sends q to the class over
        # the restricted prime that restricted_prime_map gives it
        collapsed, images = set(), set()
        for d in route_corpus:
            if not check_JR(d):
                continue
            pi = pi_map(d)
            over = sorted(set(pi.values))
            fibers = tuple(
                sum(1 << x for x, v in enumerate(pi.values) if v == w) for w in over
            )
            assert quasi_orbit_space(d).classes == fibers
            collapsed.add(len(fibers) < pi.source.n)
            try:
                rho = quasi_orbit_map(d)
            except ConditionViolated:
                continue
            rpm = restricted_prime_map(d)
            assert isinstance(rpm, PointMap)
            assert rho.values == tuple(over.index(v) for v in rpm.values)
            images.add(len(set(rho.values)) < rho.source.n)
        assert collapsed == images == {True, False}

    def test_is_open_map_is_the_open_by_open_reading(self, route_corpus, t33_morphisms):
        # openness is decided on points; the maps are those the sweeps
        # ask it of: pi, the restricted prime map and rho on the corpus,
        # and the adjunct point map of every T33 morphism
        maps = []
        for d in route_corpus:
            if check_JR(d):
                maps.append(pi_map(d))
            rpm = restricted_prime_map(d)
            if isinstance(rpm, PointMap):
                maps.append(rpm)
            try:
                maps.append(quasi_orbit_map(d))
            except ConditionViolated:
                pass
        maps += [adjunct_point_map(g, space) for g, space in t33_morphisms]
        verdicts = set()
        for f in maps:
            want = open_map_by_opens(f)
            assert is_open_map(f) == want
            verdicts.add(want)
        assert verdicts == {True, False}

    def test_rho_meets_both_corollaries(self, route_corpus):
        # Corollaries 4.8 and 4.9, which quasi_orbit_map no longer checks
        verdicts = set()
        for d in route_corpus:
            try:
                rho = quasi_orbit_map(d)
            except ConditionViolated:
                continue
            open_onto = is_open_map(rho) and is_surjective(rho)
            assert open_onto == check_C2(d)
            assert is_homeomorphism(rho) == separates(d.gc)
            verdicts.add((open_onto, is_homeomorphism(rho)))
        assert verdicts == {(True, True), (True, False), (False, False)}

    def test_mi_is_the_least_cover_reading(self, route_corpus):
        # MI is decided as MIf plus an induced top; the definition asks
        # for a least induced element above every j
        verdicts = set()
        for d in route_corpus:
            b = d.lattice_b
            above = b.order.above()
            induced = sum(1 << y for y in d.induced)
            least = all(
                any(above[c] & row == row for c in bits(row))
                for row in (above[j] & induced for j in range(b.n))
            )
            assert check_MI(d) == least
            assert least == all((induced >> c) & 1 for c in d.induced_covers)
            verdicts.add((check_MIf(d), least))
        assert verdicts == {(True, True), (True, False), (False, False)}

    def test_f_is_the_lower_adjoint_of_the_induced_insertion(self, route_corpus):
        built = 0
        for d in route_corpus:
            if not check_MI(d):
                with pytest.raises(MIViolated):
                    F_map(d)
                continue
            ind_lat = d.induced_lattice
            insertion = MonotoneMap(ind_lat, d.lattice_b, tuple(ind_lat.labels))
            assert is_adjoint_pair(F_map(d), insertion)
            built += 1
        assert built > 1000

    def test_under_c1_the_quotient_is_the_restricted_spectrum(self, route_corpus):
        # the classes are listed in the order of the pi values they sit
        # over; under C1, pi is an open surjection (Theorem 4.2), so that
        # listing is a homeomorphism onto the restricted spectrum
        collapsed = set()
        for d in route_corpus:
            if not (check_JR(d) and check_C1(d)):
                continue
            pi, qos = pi_map(d), quasi_orbit_space(d)
            comparison = PointMap(qos.quotient, pi.target, tuple(sorted(set(pi.values))))
            assert is_homeomorphism(comparison)
            assert all(pi.values[x] == comparison.values[k] for x, k in enumerate(qos.class_of))
            collapsed.add(qos.quotient.n < qos.base.n)
        assert collapsed == {True, False}

    def test_detection_is_the_fixed_point_reading(self, route_corpus):
        # every y above bottom dominates an induced element above bottom
        verdicts = set()
        for d in route_corpus:
            b, ir = d.lattice_b, d.gc.kernel_values()
            want = all(y == b.bottom or ir[y] != b.bottom for y in range(b.n))
            assert detects(d.gc) == want
            verdicts.add(want)
        assert verdicts == {True, False}

    def test_separation_is_the_fixed_point_reading(self, route_corpus):
        # every element of the target is induced
        verdicts = set()
        for d in route_corpus:
            ir = d.gc.kernel_values()
            want = all(ir[y] == y for y in range(d.lattice_b.n))
            assert separates(d.gc) == want
            verdicts.add(want)
        assert verdicts == {True, False}

    def test_soberification_unit_is_a_homeomorphism(self):
        spaces = all_spaces(4) + [FiniteT0Space(rep) for rep in _poset_classes(5)]
        assert len(spaces) == 242 + 87
        for space in spaces:
            assert is_homeomorphism(soberification(space))

    def test_adjunct_point_map_pulls_each_u_i_back_to_g_i(self, t33_morphisms):
        # Theorem 3.3: G(I) = pi^{-1}(U_I) for every I
        for g, space in t33_morphisms:
            pi = adjunct_point_map(g, space)
            open_of = primes(g.source).open_of
            for i, v in enumerate(g.values):
                assert pi.preimage(open_of[i]) == g.target.labels[v]

    def test_an_open_surjective_pi_sends_each_v_to_u_f_v(self, t33_morphisms):
        # Theorem 3.3: open images are computed by the lower adjoint,
        # pi(V) = U_F(V), whenever pi is an open surjection
        checked = 0
        for g, space in t33_morphisms:
            report = theorem33_check(g, space)
            if not (report.pi_open and report.pi_surjective):
                continue
            pi, f = adjunct_point_map(g, space), lower_adjoint(g)
            open_of = primes(g.source).open_of
            for v, u in enumerate(g.target.labels):
                assert pi.image_mask(u) == open_of[f.values[v]]
            checked += 1
        assert 0 < checked < len(t33_morphisms)


class TestPointRoute:
    """Every sweep that reads a condition or a quasi-orbit class decides
    on the relation (P, Q, R) of its instance
    (``quasiorbit.PointRelation``); every component of the verdicts is
    compared with the element route, on every pair of the point corpus
    (the census included), and the T33, T47, C54 and T62 checks on
    their own enumerations, streams and censuses. The element checks
    are the oracles in tests/oracles.py."""

    def test_every_component_agrees_with_the_element_route(self, point_corpus):
        seen = {}
        for rel, d in point_corpus:
            parts = {
                "JR": (_holds_JR(rel), check_JR(d)),
                "MIf": (_holds_MIf(rel), check_MIf(d)),
                "MI": (_holds_MI(rel), check_MI(d)),
                "separation": (_holds_separation(rel), separates(d.gc)),
                "T42": (_check_T42(rel), element_check_T42(d)),
                "C48": (_check_C48(rel), element_check_C48(d)),
                "C49": (_check_C49(rel), element_check_C49(d)),
            }
            if check_JR(d):
                pi = pi_map(d)
                # pi is onto under JR, which the point route takes as a theorem
                assert is_surjective(pi)
                parts["C1"] = (_holds_C1(rel), check_C1(d))
                parts["pi open"] = (_pi_is_open(rel), is_open_map(pi))
            if check_MI(d):
                parts["C2"] = (_holds_C2(rel), check_C2(d))
            try:
                rho = quasi_orbit_map(d)
            except ConditionViolated:
                rho = None
            if rho is not None:
                mine = _rho(rel)
                parts["classes"] = (mine.target.n, rho.target.n)
                parts["rho fibers"] = (
                    tuple(sorted(mine.values.count(k) for k in range(mine.target.n))),
                    tuple(sorted(rho.values.count(k) for k in range(rho.target.n))),
                )
                parts["rho open onto"] = (
                    is_open_map(mine) and is_surjective(mine),
                    is_open_map(rho) and is_surjective(rho),
                )
                parts["rho homeomorphism"] = (is_homeomorphism(mine), is_homeomorphism(rho))
            for name, (got, want) in parts.items():
                assert got == want, (name, rel)
                seen.setdefault(name, set()).add(want)
        for name in ("JR", "MIf", "MI", "separation", "C1", "pi open", "C2"):
            assert seen[name] == {True, False}, name
        assert seen["rho open onto"] == seen["rho homeomorphism"] == {True, False}
        assert seen["T42"] == seen["C48"] == seen["C49"] == {(True, True), (False, True)}

    def test_the_quasi_orbit_classes_are_the_pi_fibers(self, point_corpus):
        # the fibers of the key K(x) = {j : x in c_j}, as point masks of
        # P, against the fibers of the generator c_x itself (pi(x) = c_x)
        collapsed = set()
        for rel, d in point_corpus:
            if not check_JR(d):
                continue
            gens = rel._generators
            fibers = {}
            for x, cx in enumerate(gens):
                fibers[cx] = fibers.get(cx, 0) | (1 << x)
            assert len(fibers) == quasi_orbit_space(d).quotient.n
            if check_C1(d) and check_MI(d):
                assert _rho(rel).target.n == len(fibers)
            collapsed.add(len(fibers) < rel.source.n)
        assert collapsed == {True, False}

    def test_t33_sides_agree_with_the_element_route(self):
        # every locale morphism of the T33 sweep at its cap, which holds
        # those of its default budget: Eq. (3.2), G injective, pi open and
        # pi onto read on points against theorem33_check, field by field
        morphisms = list(_locale_morphisms(_frame_space_pairs(6)))
        default = set(_locale_morphisms(_frame_space_pairs(5)))
        assert (len(morphisms), len(default)) == (4680, 1628)
        assert default <= set(morphisms)
        seen = Counter()
        for rel in morphisms:
            report = element_check_T33(rel)
            assert report.has_lower_adjoint_F
            want = (report.eq32_holds, report.g_injective, report.pi_open, report.pi_surjective)
            assert _theorem33_sides(rel) == want, rel
            assert _check_T33(rel) == (True, report.equivalence_verified) == (True, True)
            if rel in default:
                seen[want] += 1
        # at the default budget every side is met both ways, and so is
        # each combination of pi open and pi onto
        for k in range(4):
            assert {want[k] for want in seen} == {True, False}
        open_onto = Counter()
        for (_, _, pi_open, pi_onto), count in seen.items():
            open_onto[pi_open, pi_onto] += count
        assert open_onto == {(True, True): 93, (False, False): 1093, (True, False): 338, (False, True): 104}

    def test_t47_on_its_streams_and_the_census(self, census_pairs):
        # MI and C2 decided on points against the element scans, with
        # restricted_prime_map on elements on both sides
        pairs = list(census_pairs)
        for seed in (0, 3, 11, 99):
            for k in range(_SWEEPS["T47"][0]):
                child = (seed ^ (0x9E3779B97F4A7C15 * (k + 1))) & _MASK64
                rel = _draw(InstanceGenerator(child, "random-galois", 6))
                pairs.append((rel, _compile_seed(rel)))
        assert len(pairs) == 2986 + 4000
        lefts = set()
        for rel, d in pairs:
            assert _check_T47(rel) == element_check_T47(d) == (True, True), rel
            left = _holds_MI(rel) and _holds_C2(rel)
            assert left == (check_MI(d) and check_C2(d)), rel
            lefts.add(left)
        assert lefts == {True, False}

    def test_c54_on_every_budget_3_matrix(self):
        verdicts = [(_check_C54(m), element_check_C54(m)) for m in binary_matrices(3, 3)]
        assert all(got == want for got, want in verdicts)
        assert len(verdicts) == 441
        assert sum(applies for (applies, _), _ in verdicts) == 95

    def test_t62_on_every_labeled_action(self):
        count = 0
        for poset in all_posets(5):
            for action in small_group_actions(FiniteT0Space(poset)):
                assert action_quasi_orbit_agreement(action) == element_quasi_orbit_agreement(action) is True
                count += 1
        assert count == 8223

    def test_jr_refuses_an_empty_row(self):
        # the bottom is restricted only when no row is empty
        one = FinitePoset.chain(1)
        for rows in ((0,), (0, 1)):
            rel = PointRelation(FinitePoset.chain(len(rows)), one, rows)
            assert not _holds_JR(rel)
        assert _holds_JR(PointRelation(one, one, (1,)))

    def test_a_key_that_names_no_class_breaks_rho(self):
        # rho's lookup guard: without MI's cover, the point of Q that no
        # row holds has the empty key, which names no class
        one = FinitePoset.chain(1)
        assert _rho(PointRelation(one, one, (1,))).values == (0,)
        uncovered = PointRelation(one, FinitePoset.antichain(2), (0b01,))
        assert _holds_JR(uncovered) and _holds_C1(uncovered) and not _holds_MI(uncovered)
        with pytest.raises(AssertionError, match="names no class"):
            _rho(uncovered)


class TestFixturesAgainstLawReport:
    @pytest.mark.parametrize("d", FIXTURES)
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
