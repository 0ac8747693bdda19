"""Frame certificates, spectra and opens lattices: fast and computed once.

is_frame decides distributivity by Birkhoff's count, primes reads the
meet-irreducibles and is_spatial reads the frame certificate; all
three are checked here against the definitional scans
(``_kernels.distributive_witness`` and ``prime_elements``), which stay
in the package as oracles. The fixed-point lattices of a connection are
read off the ambient tables and checked against the validated
``sublattice`` route, with ``verify_prop26`` as the oracle for the
certificate they rely on. The last part pins that each certificate is
computed once per instance and shared by every caller, and that no
certificate is re-checked on the T62 path.
"""

import json
import re
import sys

import pytest
from click.testing import CliRunner
from hypothesis import given, settings

import stonekit.galois as galois_module
import stonekit.spectrum as spectrum_module
from conftest import downset_frames, padded_lattices, pentagon
from stonekit import (
    FiniteGroupAction,
    FinitePoset,
    FiniteT0Space,
    InstanceGenerator,
    InvalidTopology,
    NotAFrame,
    NotALattice,
    action_inclusion_data,
    action_quasi_orbit_agreement,
    all_posets,
    downset_lattice,
    gen_inclusion_data,
    invariant_opens,
    is_frame,
    is_locale_morphism,
    is_spatial,
    opens_lattice,
    prime_elements,
    primes,
    small_group_actions,
    sublattice,
    validate_lattice,
    verify_prop26,
)
from stonekit import _accel, _kernels
from stonekit.cli import main
from stonekit.conformance import FAMILIES
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


def assert_agrees_with_scans(lat):
    fw = is_frame(lat)
    want = scan(lat)
    assert fw.distributive == (want is None)
    assert fw.witness == want
    if fw.distributive:
        assert primes(lat).primes == prime_elements(lat)
    else:
        with pytest.raises(NotAFrame) as ei:
            primes(lat)
        assert ei.value.witness == want
    assert is_spatial(lat) == spatial_by_scan(lat)


class TestBirkhoffAgainstScan:
    def test_census_down_set_lattices(self):
        # every labeled poset of at most 5 points: 4,473 frames
        for p in all_posets(5):
            lat = downset_lattice(p)
            assert is_frame(lat).distributive and scan(lat) is None

    def test_census_posets_that_are_lattices(self):
        # labeled lattices of at most 5 points, M3 and N5 among them
        refused = 0
        for p in all_posets(5):
            try:
                lat = validate_lattice(p)
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
    assert d.restricted_lattice == sublattice(d.lattice_a, d.restricted)
    assert d.induced_lattice == sublattice(d.lattice_b, d.induced)
    assert verify_prop26(d.gc).all_ok


class TestFixedPointLattices:
    @pytest.mark.parametrize("family", [f for f in FAMILIES if f != "graph"])
    def test_generated_families(self, family):
        for seed in range(40):
            for max_points in (3, 5):
                gen = InstanceGenerator(seed=seed, family=family, max_points=max_points)
                assert_fixed_point_lattices_match_the_oracle(gen_inclusion_data(gen))

    def test_small_group_actions(self):
        # every automorphism subgroup of order <= 6 on every space of <= 4 points
        count = 0
        for p in all_posets(4):
            space = FiniteT0Space.from_poset(p)
            for action in small_group_actions(space):
                d = action_inclusion_data(action)
                assert_fixed_point_lattices_match_the_oracle(d)
                inv, insertion = invariant_opens(action)
                assert inv == sublattice(opens_lattice(space), inv.labels)
                assert inv == d.restricted_lattice
                assert is_locale_morphism(insertion)
                count += 1
        assert count == 426

    def test_escaping_operation_is_refused(self):
        lat = downset_lattice(FinitePoset.antichain(2))  # 0 < 1, 2 < 3
        with pytest.raises(NotALattice) as ei:
            fixed_point_lattice(lat, (0, 1, 2))
        assert ei.value.witness == (1, 2)
        # closing joins up to the top keeps the subset a lattice
        closed = fixed_point_lattice(lat, (0, 1, 3), join_fix=(0, 1, 3, 3))
        assert closed == sublattice(lat, (0, 1, 3))


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


def vee_action():
    # two maximal points over one minimal point, swapped by the group
    space = FiniteT0Space.from_poset(FinitePoset.from_pairs(3, [(0, 1), (0, 2)]))
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

    def test_agreement_builds_the_opens_once(self, monkeypatch):
        a = vee_action()
        built = []
        scans = []
        real_downsets = spectrum_module.downset_lattice
        real_scan = _accel.distributive_witness

        def counting_downsets(poset):
            built.append(poset)
            return real_downsets(poset)

        def counting_scan(meet, join):
            scans.append(len(meet))
            return real_scan(meet, join)

        monkeypatch.setattr(spectrum_module, "downset_lattice", counting_downsets)
        monkeypatch.setattr(_accel, "distributive_witness", counting_scan)
        assert action_quasi_orbit_agreement(a)
        assert sum(p is a.space.points for p in built) == 1
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
        result = CliRunner().invoke(main, ["spectrum", str(path), "--dot", str(out)])
        assert result.exit_code == 0, result.output
        assert scans == []
        # the 256-element target has one prime per column
        assert len(re.findall(r"^\s+t\d+ \[label=", out.read_text(), flags=re.M)) == 8

    def test_agreement_re_checks_no_certificate(self, monkeypatch):
        a = vee_action()
        laws = counted(monkeypatch, galois_module, "verify_prop26")
        tables = counted(monkeypatch, _accel, "bound_tables")
        assert action_quasi_orbit_agreement(a)
        assert laws == []
        assert tables == []

    def test_from_poset_enumerates_the_down_sets_once(self, monkeypatch):
        poset = FinitePoset.from_pairs(3, [(0, 1), (0, 2)])
        calls = counted(monkeypatch, _accel, "downset_masks")
        space = FiniteT0Space.from_poset(poset)
        assert len(calls) == 1
        assert space.opens == (0, 1, 3, 5, 7)
        # the direct constructor still validates what it is given
        with pytest.raises(InvalidTopology):
            FiniteT0Space(FinitePoset.antichain(2), (0, 3))
        assert FiniteT0Space(poset, space.opens) == space
