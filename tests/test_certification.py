"""Frame certificates, spectra and opens lattices: fast and computed once.

is_frame decides distributivity by Birkhoff's count and primes reads
the meet-irreducibles; both are checked here against the definitional
scans (``_kernels.distributive_witness`` and ``prime_elements``), which
stay in the package as oracles. The second half pins that each
certificate is computed once per instance and shared by every caller.
"""

import json
import re

import pytest
from click.testing import CliRunner
from hypothesis import given, settings

import stonekit.spectrum as spectrum_module
from conftest import downset_frames, padded_lattices, pentagon
from stonekit import (
    FiniteGroupAction,
    FinitePoset,
    FiniteT0Space,
    NotAFrame,
    NotALattice,
    action_quasi_orbit_agreement,
    all_posets,
    downset_lattice,
    is_frame,
    opens_lattice,
    prime_elements,
    primes,
    validate_lattice,
)
from stonekit import _accel, _kernels
from stonekit.cli import main
from stonekit.lattice import join_irreducibles, meet_irreducibles


def scan(lat):
    return _kernels.distributive_witness(lat.meet_table, lat.join_table)


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
