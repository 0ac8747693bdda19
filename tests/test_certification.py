"""Frame certificates, spectra and opens lattices: fast and computed once.

is_frame decides distributivity by Birkhoff's count over the
meet-irreducibles, primes reads its points and opens off the same
Birkhoff dual and is_spatial reads the frame certificate; all three
are checked here against the definitional scans
(``_kernels.distributive_witness``, which stays in the package, and
``prime_elements`` from tests/oracles.py). The fixed-point lattices of a connection are
read off the ambient masks and checked against the validated
``sublattice`` route, with ``verify_prop26`` as the oracle for the
certificate they rely on. The bit-row certification loops (monotone
maps, the adjunction law, continuity, subposets, automorphisms) are
checked against the per-pair definitions they replaced, witnesses
included. The last part pins that each certificate is computed once per
instance and shared by every caller, and that no certificate is
re-checked on the T62 path.
"""

import json
import random
import re
import sys
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import stonekit.galois as galois_module
import stonekit.lattice as lattice_module
import stonekit.quasiorbit as quasiorbit_module
import stonekit.spectrum as spectrum_module
from cli_runner import invoke
from conftest import assert_same_lattice, downset_frames, padded_lattices, pentagon
from stonekit import (
    EX_213,
    AbsenceWitness,
    AdjunctionFailure,
    FiniteGroupAction,
    FiniteLattice,
    FinitePoset,
    FiniteT0Space,
    InclusionData,
    InstanceGenerator,
    GaloisConnection,
    MonotoneMap,
    NotAFrame,
    NotALattice,
    NotAPoset,
    NotContinuous,
    NotMonotone,
    PointMap,
    action_inclusion_data,
    action_quasi_orbit_agreement,
    all_posets,
    downset_lattice,
    gen_inclusion_data,
    is_frame,
    is_locale_morphism,
    is_spatial,
    lower_adjoint,
    opens_lattice,
    primes,
    quasi_orbit_map,
    quasi_orbit_space,
    small_group_actions,
    soberification,
    sweep_theorem,
    to_inclusion_data,
    upper_adjoint,
)
from oracles import invariant_opens, prime_elements, sublattice, verify_prop26
from stonekit import _accel, _kernels
from stonekit.conformance import FAMILIES, order_automorphisms
from stonekit.quasiorbit import PointRelation, check_C1, check_C2, check_JR, check_MI, check_MIf
from stonekit.lattice import (
    fixed_point_lattice,
    join_irreducibles,
    meet_irreducibles,
)


def scan(lat):
    return _kernels.distributive_witness(lat.meet_table, lat.join_table)


def spatial_by_scan(lat):
    # the definition: distinct elements lie below distinct sets of primes
    ps = prime_elements(lat)
    opens = {
        sum(1 << k for k, p in enumerate(ps) if not lat.leq(i, p))
        for i in range(lat.n)
    }
    return len(opens) == lat.n


def downset_count(lat, points):
    # the down-sets of the subposet on ``points``, counted up to n
    masks = _kernels.downset_masks(list(lat.order.subposet(points).below), lat.n)
    return None if masks is None else len(masks)


def assert_agrees_with_scans(lat):
    fw = is_frame(lat)
    want = scan(lat)
    assert fw.distributive == (want is None)
    assert fw.witness == want
    # Birkhoff's count and its order dual decide alike
    assert downset_count(lat, meet_irreducibles(lat)) == downset_count(
        lat, join_irreducibles(lat)
    )
    if fw.distributive:
        assert primes(lat).primes == prime_elements(lat)
        # the opens read off the Birkhoff dual are the down-sets of the
        # prime order, enumerated afresh
        space = primes(lat).space
        assert space.opens == FiniteT0Space(space.points).opens
    else:
        with pytest.raises(NotAFrame) as ei:
            primes(lat)
        assert ei.value.witness == want
    assert is_spatial(lat) == spatial_by_scan(lat)


class TestBirkhoffAgainstScan:
    def test_census_down_set_lattices(self):
        # every labeled poset of at most 5 points: 4,473 frames, whose
        # inclusion orders are built without check_poset
        for p in all_posets(5):
            lat = downset_lattice(p)
            assert is_frame(lat).distributive and scan(lat) is None
            assert _kernels.check_poset(list(lat.order.below)) is None

    def test_census_posets_that_are_lattices(self):
        # labeled lattices of at most 5 points, M3 and N5 among them
        refused = 0
        for p in all_posets(5):
            try:
                lat = FiniteLattice(p)
            except NotALattice:
                continue
            fw = is_frame(lat)
            assert fw.witness == scan(lat)
            assert is_spatial(lat) == spatial_by_scan(lat) == fw.distributive
            refused += not fw.distributive
        assert refused == 120 // 6 + 120  # labelings of M3 and of N5

    @settings(max_examples=200, deadline=None)
    @given(padded_lattices())
    def test_padded_lattices(self, lat):
        assert_agrees_with_scans(lat)

    @settings(max_examples=100, deadline=None)
    @given(downset_frames())
    def test_downset_frames(self, lat):
        assert_agrees_with_scans(lat)

    def test_pentagon_irreducibles(self):
        lat = pentagon()
        assert join_irreducibles(lat) == (1, 2, 3)
        assert meet_irreducibles(lat) == (1, 2, 3)
        # 1 is meet-irreducible but not prime: N5 is no frame
        assert prime_elements(lat) == (2, 3)


def assert_fixed_point_lattices_match_the_oracle(d):
    for got, want in (
        (d.restricted_lattice, sublattice(d.lattice_a, d.restricted)),
        (d.induced_lattice, sublattice(d.lattice_b, d.induced)),
    ):
        assert_same_lattice(got, want)
    assert verify_prop26(d.gc).all_ok


class TestFixedPointLattices:
    @pytest.mark.parametrize("family", FAMILIES)
    def test_generated_families(self, family):
        for seed in range(40):
            for max_points in (3, 5):
                gen = InstanceGenerator(seed=seed, family=family, max_points=max_points)
                assert_fixed_point_lattices_match_the_oracle(gen_inclusion_data(gen))

    def test_small_group_actions(self):
        # every automorphism subgroup of order <= 6 on every space of <= 4 points
        count = 0
        for p in all_posets(4):
            space = FiniteT0Space(p)
            for action in small_group_actions(space):
                d = action_inclusion_data(action)
                assert_fixed_point_lattices_match_the_oracle(d)
                inv, insertion = invariant_opens(action)
                assert_same_lattice(inv, sublattice(opens_lattice(space), inv.labels))
                assert inv == d.restricted_lattice
                assert is_locale_morphism(insertion)
                count += 1
        assert count == 426

    def test_closed_joins_match_the_sublattice(self):
        lat = downset_lattice(FinitePoset.antichain(2))  # 0 < 1, 2 < 3
        # closing joins up to the top keeps the subset a lattice
        closed = fixed_point_lattice(lat, (0, 1, 3), "join")
        assert_same_lattice(closed, sublattice(lat, (0, 1, 3)))


def automorphisms_by_filter(poset):
    # the permutation filter order_automorphisms replaced
    out = []
    for perm in permutations(range(poset.n)):
        ok = True
        for j in range(poset.n):
            moved = 0
            for i in _kernels.bits(poset.below[j]):
                moved |= 1 << perm[i]
            if moved != poset.below[perm[j]]:
                ok = False
                break
        if ok:
            out.append(perm)
    return out


def unordered_pair(src, tgt, values):
    # monotonicity by definition, pair by pair: y-major, x ascending
    for y in range(src.n):
        for x in range(src.n):
            if src.leq(x, y) and not tgt.leq(values[x], values[y]):
                return (x, y)
    return None


def adjunction_break(lower, upper):
    # i(x) <= y iff x <= r(y), pair by pair: x-major, y ascending
    a, b = lower.source, lower.target
    for x in range(a.n):
        for y in range(b.n):
            if b.leq(lower.values[x], y) != a.leq(x, upper.values[y]):
                return (x, y)
    return None


def non_open_preimage(source, target, values):
    # the first open of the target whose preimage is not open
    for u in target.opens:
        pre = sum(1 << x for x, v in enumerate(values) if (u >> v) & 1)
        if pre not in source.opens:
            return u
    return None


def monotone_from(lat, tgt, raw):
    # x -> join of the raw values below x: monotone for any raw table
    below = lat.order.below
    values = (tgt.big_join(raw[y] for y in _kernels.bits(row)) for row in below)
    return MonotoneMap(lat, tgt, tuple(values))


def c1_by_pairs(d):
    a = d.lattice_a
    ri = d.gc.closure_values()
    return all(
        a.meet(i, ri[j]) == ri[a.meet(i, j)] for i in d.restricted for j in range(a.n)
    )


def covers_by_pairs(d):
    # per target element, the meet of the induced elements above it
    b = d.lattice_b
    return tuple(b.big_meet(k for k in d.induced if b.leq(j, k)) for j in range(b.n))


def c2_by_pairs(d):
    b = d.lattice_b
    f = covers_by_pairs(d)
    return all(b.meet(i, f[j]) == f[b.meet(i, j)] for i in d.induced for j in range(b.n))


def assert_monotone_witness(src, tgt, values):
    want = unordered_pair(src.order, tgt.order, values)
    if want is None:
        assert MonotoneMap(src, tgt, values).values == values
    else:
        with pytest.raises(NotMonotone) as ei:
            MonotoneMap(src, tgt, values)
        assert ei.value.witness == want


def assert_adjunction_witness(lower, upper):
    want = adjunction_break(lower, upper)
    if want is None:
        GaloisConnection(lower, upper)
    else:
        with pytest.raises(AdjunctionFailure) as ei:
            GaloisConnection(lower, upper)
        assert ei.value.witness == want
    # synthesis reports the pair the definition finds, or a true adjoint
    up = upper_adjoint(lower)
    if isinstance(up, AbsenceWitness):
        assert (up.x, up.y) == adjunction_break(lower, up.candidate)
    else:
        assert adjunction_break(lower, up) is None
    down = lower_adjoint(upper)
    if isinstance(down, AbsenceWitness):
        assert (down.x, down.y) == adjunction_break(down.candidate, upper)
    else:
        assert adjunction_break(down, upper) is None


def assert_continuity_witness(source, target, values):
    by_pairs = all(
        not source.points.leq(x, y) or target.points.leq(values[x], values[y])
        for x in range(source.n)
        for y in range(source.n)
    )
    want = non_open_preimage(source, target, values)
    assert by_pairs == (want is None)
    if want is None:
        PointMap(source, target, values)
    else:
        with pytest.raises(NotContinuous) as ei:
            PointMap(source, target, values)
        assert ei.value.witness == want


class TestBitRowLoopsAgainstPairLoops:
    def test_automorphisms_match_the_permutation_filter(self):
        # all 4,473 labeled posets of at most 5 points, same list, same order
        posets = all_posets(5)
        assert len(posets) == 4473
        for p in posets:
            assert order_automorphisms(p) == automorphisms_by_filter(p)

    def test_census_subposets_pass_check_poset(self):
        for p in all_posets(5):
            for mask in range(1 << p.n):
                points = list(_kernels.bits(mask))
                sub = p.subposet(points)
                assert _kernels.check_poset(list(sub.below)) is None
                assert sub == FinitePoset(
                    len(points),
                    tuple(
                        sum(1 << k for k, f in enumerate(points) if p.leq(f, e))
                        for e in points
                    ),
                )
            backwards = p.subposet(range(p.n - 1, -1, -1))
            assert _kernels.check_poset(list(backwards.below)) is None

    def test_subposet_refuses_repeated_or_foreign_points(self):
        p = FinitePoset.chain(3)
        for points in ([0, 0], [0, 3], [-1, 1]):
            with pytest.raises(NotAPoset):
                p.subposet(points)

    @settings(max_examples=200, deadline=None)
    @given(padded_lattices(), st.data())
    def test_padded_lattice_maps(self, lat, data):
        draw_table = st.lists(
            st.integers(0, lat.n - 1), min_size=lat.n, max_size=lat.n
        )
        assert_monotone_witness(lat, lat, tuple(data.draw(draw_table)))
        lower = monotone_from(lat, lat, data.draw(draw_table))
        upper = monotone_from(lat, lat, data.draw(draw_table))
        assert_adjunction_witness(lower, upper)
        assert_adjunction_witness(MonotoneMap.identity(lat), upper)

    def test_check_C1_matches_the_pair_loop(self):
        outcomes = set()
        for family in FAMILIES:
            for seed in range(40):
                for max_points in (3, 5):
                    gen = InstanceGenerator(
                        seed=seed, family=family, max_points=max_points
                    )
                    d = gen_inclusion_data(gen)
                    holds = check_C1(d)
                    assert holds == c1_by_pairs(d)
                    outcomes.add(holds)
        assert outcomes == {True, False}

    def test_mi_and_c2_match_the_pair_loops(self):
        outcomes = set()
        for family in FAMILIES:
            for seed in range(40):
                for max_points in (3, 5):
                    gen = InstanceGenerator(seed=seed, family=family, max_points=max_points)
                    d = gen_inclusion_data(gen)
                    covers = covers_by_pairs(d)
                    assert d.induced_covers == covers
                    assert check_MI(d) == (set(covers) <= set(d.induced))
                    if check_MI(d):
                        assert check_C2(d) == c2_by_pairs(d)
                        outcomes.add(check_C2(d))
        assert outcomes == {True, False}

    def test_census_maps(self):
        rng = random.Random(5)
        posets = all_posets(4)
        for p in posets:
            q = rng.choice(posets)
            la, lb = downset_lattice(p), downset_lattice(q)
            for _ in range(3):
                values = tuple(rng.randrange(lb.n) for _ in range(la.n))
                assert_monotone_witness(la, lb, values)
                lower = monotone_from(la, lb, [rng.randrange(lb.n) for _ in range(la.n)])
                upper = monotone_from(lb, la, [rng.randrange(la.n) for _ in range(lb.n)])
                assert_adjunction_witness(lower, upper)
                source = FiniteT0Space(p)
                target = FiniteT0Space(q)
                values = tuple(rng.randrange(q.n) for _ in range(p.n))
                assert_continuity_witness(source, target, values)


def counted(monkeypatch, module, name):
    """Calls of ``module.name``, through every stonekit binding of it."""
    real = getattr(module, name)
    calls = []

    def wrapper(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    for mod in list(sys.modules.values()):
        if getattr(mod, "__name__", "").startswith("stonekit") and (
            getattr(mod, name, None) is real
        ):
            monkeypatch.setattr(mod, name, wrapper)
    return calls


def counted_property(monkeypatch, cls, name):
    """First reads of the cached property ``cls.name``, one per
    computation of its value."""
    prop = cls.__dict__[name]
    real = prop.func
    calls = []

    def wrapper(instance):
        calls.append(instance)
        return real(instance)

    monkeypatch.setattr(prop, "func", wrapper)
    return calls


def vee_action():
    # two maximal points over one minimal point, swapped by the group
    space = FiniteT0Space(FinitePoset.from_pairs(3, [(0, 1), (0, 2)]))
    return FiniteGroupAction(space, ((0, 2, 1),))


class TestCertifyOnce:
    def test_cached_per_instance(self):
        space = vee_action().space
        lat = opens_lattice(space)
        assert opens_lattice(space) is lat
        assert is_frame(lat) is is_frame(lat)
        assert primes(lat) is primes(lat)
        assert is_frame(pentagon()).witness == scan(pentagon())
        n5 = pentagon()
        assert is_frame(n5) is is_frame(n5)

    def test_agreement_builds_no_opens_lattice(self, monkeypatch):
        # the agreement reads the classes off the action's relation on
        # points: no down-set lattice of the space, no distributivity scan
        a = vee_action()
        built = []
        scans = []
        real_downsets = spectrum_module.downset_lattice
        real_scan = _accel.distributive_witness

        def counting_downsets(poset, *masks):
            built.append(poset)
            return real_downsets(poset, *masks)

        def counting_scan(meet, join):
            scans.append(len(meet))
            return real_scan(meet, join)

        monkeypatch.setattr(spectrum_module, "downset_lattice", counting_downsets)
        monkeypatch.setattr(_accel, "distributive_witness", counting_scan)
        assert action_quasi_orbit_agreement(a)
        assert built == []
        assert scans == []

    def test_large_spectrum_runs_no_triple_scan(self, tmp_path, monkeypatch):
        doc = {"kind": "multiplicity", "payload": {"matrix": [[1, 2, 0, 1, 1, 0, 2, 1]]}}
        path = tmp_path / "wide.json"
        path.write_text(json.dumps(doc))
        scans = []
        monkeypatch.setattr(
            _accel, "distributive_witness", lambda meet, join: scans.append(len(meet))
        )
        out = tmp_path / "wide.dot"
        result = invoke(["spectrum", str(path), "--dot", str(out)])
        assert result.exit_code == 0, result.output
        assert scans == []
        # the 256-element target has one prime per column
        assert len(re.findall(r"^\s+t\d+ \[label=", out.read_text(), flags=re.M)) == 8

    def test_soberification_is_built_once_per_space(self, monkeypatch, one_cpu):
        units = counted_property(monkeypatch, FiniteT0Space, "soberification")
        space = vee_action().space
        assert soberification(space) is soberification(space)
        assert units == [space]
        units.clear()
        # the reduced T62 sweep checks 226 actions on its 87 spaces, on
        # points, and builds no unit
        assert sweep_theorem("T62").checked == 8223
        assert units == []

    @pytest.mark.trusts_by_design
    def test_agreement_re_checks_no_certificate(self, monkeypatch):
        a = vee_action()
        laws = counted(monkeypatch, galois_module, "_adjunction_witness")
        tables = counted(monkeypatch, _accel, "bound_tables")
        orders = counted(monkeypatch, _accel, "check_poset")
        assert action_quasi_orbit_agreement(a)
        assert laws == []
        assert tables == []
        assert orders == []

    def test_quasi_orbit_map_builds_pi_once(self, monkeypatch):
        # pi is computed once, as elements of the source; the classes and
        # rho are read off it and r, with no restricted lattice, no
        # restricted spectrum and no restricted prime map
        d = action_inclusion_data(vee_action())
        pis = counted_property(monkeypatch, InclusionData, "_pi")
        lattices = counted_property(monkeypatch, InclusionData, "restricted_lattice")
        spectra = counted_property(monkeypatch, InclusionData, "restricted_spectrum")
        prime_maps = counted(monkeypatch, quasiorbit_module, "restricted_prime_map")
        rho = quasi_orbit_map(d)
        # the quotient is the one quasi_orbit_space builds on its own
        assert rho.target == quasi_orbit_space(d).quotient
        assert pis == [d]
        assert lattices == spectra == prime_maps == []

    def test_each_construction_takes_one_route(self, monkeypatch):
        # pi is not rebuilt as the adjunct point map, rho is compared with
        # neither C2 nor separation, and no continuous map scans preimages
        d = action_inclusion_data(vee_action())
        adjuncts = counted(monkeypatch, spectrum_module, "adjunct_point_map")
        separations = counted(monkeypatch, galois_module, "separates")
        c2 = counted_property(monkeypatch, InclusionData, "_c2_bad")
        preimages = []
        real = PointMap.preimage
        monkeypatch.setattr(PointMap, "preimage", lambda f, u: preimages.append(u) or real(f, u))
        rho = quasi_orbit_map(d)
        assert adjuncts == separations == c2 == preimages == []
        assert rho.target.n == 2

    def test_conditions_are_evaluated_once_per_instance(self, monkeypatch, one_cpu):
        # the C48 check decides on points and compares rho with C2 once:
        # one JR verdict per instance, one C2 verdict and one rho per
        # applicable one, and the generators c_j once per relation
        calls = {
            name: counted(monkeypatch, quasiorbit_module, name)
            for name in ("_holds_JR", "_holds_C1", "_holds_MI", "_holds_C2", "_rho")
        }
        gens = counted_property(monkeypatch, PointRelation, "_generators")
        report = sweep_theorem("C48", seed=7)
        assert (report.checked, report.applicable) == (1000, 575)
        assert len(calls["_holds_JR"]) == 1000
        assert len(calls["_holds_C2"]) == len(calls["_rho"]) == 575
        for name in ("_holds_C1", "_holds_MI"):
            assert len({id(args[0]) for args in calls[name]}) == len(calls[name])
        assert len({id(rel) for rel in gens}) == len(gens) == len(calls["_holds_C1"])

    def test_condition_report_builds_no_fixed_point_lattice(self, monkeypatch):
        # the conditions that analyze reports read the closure and
        # kernel values only: no fixed-point lattice and no F
        d = to_inclusion_data(EX_213())
        lattices = counted(monkeypatch, lattice_module, "fixed_point_lattice")
        f = counted_property(monkeypatch, InclusionData, "_f")
        for check in (check_JR, check_C1, check_MIf, check_MI, check_C2):
            check(d)
        assert check_MI(d)
        assert lattices == f == []

    def test_label_and_prime_indices_match_the_scans(self):
        # the cached dicts against tuple.index: first occurrence wins and
        # a missing label still raises ValueError
        for poset in all_posets(3):
            lat = downset_lattice(poset)
            spec = primes(lat)
            for label in lat.labels:
                assert lat.index_of_label(label) == lat.labels.index(label)
            assert {p: spec.primes.index(p) for p in spec.primes} == spec.prime_index
            with pytest.raises(ValueError):
                lat.index_of_label(1 << poset.n)
        lat = downset_lattice(FinitePoset.chain(2))
        repeated = FiniteLattice(lat.order, ("x", "y", "x"))
        assert repeated.index_of_label("x") == ("x", "y", "x").index("x") == 0

    @pytest.mark.trusts_by_design
    def test_frame_and_spectrum_share_one_birkhoff_dual(self, monkeypatch):
        poset = FinitePoset.from_pairs(4, [(0, 1), (0, 2), (2, 3)])
        lat = FiniteLattice(downset_lattice(poset).order)
        enumerations = counted(monkeypatch, _accel, "downset_masks")
        real_subposet = FinitePoset.subposet
        restrictions = []

        def subposet(self, elements):
            restrictions.append(elements)
            return real_subposet(self, elements)

        monkeypatch.setattr(FinitePoset, "subposet", subposet)
        assert is_frame(lat).distributive
        assert len(enumerations) == len(restrictions) == 1
        # the spectrum reads the dual that is_frame computed
        spec = primes(lat)
        assert len(enumerations) == len(restrictions) == 1
        assert spec.space.opens == downset_lattice(spec.space.points).labels

    def test_constructor_enumerates_the_down_sets_once(self, monkeypatch):
        poset = FinitePoset.from_pairs(3, [(0, 1), (0, 2)])
        calls = counted(monkeypatch, _accel, "downset_masks")
        space = FiniteT0Space(poset)
        # the opens lattice is built from the space's opens
        assert opens_lattice(space).labels == space.opens
        assert len(calls) == 1
        assert space.opens == (0, 1, 3, 5, 7)
