"""Acceptance gate: twelve fixed criteria, one line printed per pass.

Each criterion pins worked fixture values exactly or runs a sweep at
its full budget inside a wall-clock bound. Run with ``pytest -s
tests/test_acceptance.py`` to see the lines.
"""

import time
from contextlib import contextmanager

import pytest

from stonekit import (
    EX_74,
    EX_210,
    EX_211,
    EX_213,
    EX_75,
    F_map,
    InstanceGenerator,
    MIViolated,
    all_frames,
    all_spaces,
    check_JR,
    check_MIf,
    gen_inclusion_data,
    homeomorphic,
    induce,
    is_homeomorphism,
    is_join_preserving,
    is_sober,
    is_symmetric,
    j_pairs,
    j_x,
    lattice_isomorphism,
    opens_lattice,
    pair_prime_space,
    point_space,
    restrict,
    restricted_prime_map,
    separates,
    sweep_theorem,
    to_inclusion_data,
    verify_prop26,
)
from stonekit.spectrum import PointMap


def passed(num, text):
    print(f"criterion {num:02d}: PASS: {text}")


@contextmanager
def within(seconds):
    t0 = time.perf_counter()
    yield
    elapsed = time.perf_counter() - t0
    assert elapsed < seconds, f"took {elapsed:.1f}s, budget {seconds}s"


def test_c01_restriction_forgets_separate_columns():
    m = EX_210()
    with within(1.0):
        assert restrict(m, 0b01) == 0
        assert restrict(m, 0b10) == 0
        assert restrict(m, 0b11) == 0b1
        assert restrict(m, 0b01) | restrict(m, 0b10) != restrict(m, 0b11)
        assert not is_join_preserving(to_inclusion_data(m).gc.upper)
    passed(1, "r collapses both columns yet their union restricts to the row")


def test_c02_induction_merges_rows():
    m = EX_211()
    with within(1.0):
        assert induce(m, 0b01) == 0b1
        assert induce(m, 0b10) == 0b1
        assert induce(m, 0b00) == 0
        assert induce(m, 0b01) & induce(m, 0b10) != induce(m, 0b01 & 0b10)
    passed(2, "i sends both rows to the block but the empty meet to bottom")


def test_c03_separating_but_not_join_closed():
    with within(1.0):
        d = to_inclusion_data(EX_213())
        labels = {d.lattice_a.labels[x] for x in d.restricted}
        assert labels == {0b000, 0b001, 0b010, 0b111}
        assert not check_JR(d)
        assert separates(d.gc)
        assert len(d.spectrum_b.primes) == 2
        rho = restricted_prime_map(d)
        assert isinstance(rho, PointMap)
        assert is_homeomorphism(rho)
        # both prime spaces are 2-point discrete
        assert rho.source.points.below == (0b01, 0b10)
        assert rho.target.points.below == (0b01, 0b10)
    passed(3, "restricted = {0,a1,a2,all}, JR fails, rho is a 2-point homeo")


def test_c04_meet_of_induced_escapes():
    with within(1.0):
        m = EX_74()
        d = to_inclusion_data(m)
        assert len(d.restricted) == d.lattice_a.n == 4
        assert [s for s in range(4) if is_symmetric(m, s)] == [0b00, 0b11]
        assert not check_MIf(d)
        with pytest.raises(MIViolated) as excinfo:
            F_map(d)
        x, y = excinfo.value.witness
        assert d.lattice_b.labels[d.lattice_b.meet(x, y)] == 0b1100
    passed(4, "only 0 and the full set are symmetric; witness meet {b3,b4}")


def test_c05_frame_morphism_sweep_exhaustive():
    with within(60.0):
        report = sweep_theorem("T33")
    assert report.violations == 0
    assert report.checked == report.applicable == 1628
    passed(5, "1628 locale morphisms, frames <= 5 onto spaces <= 3, all verified")


def test_c06_pi_open_surjective_iff_c1():
    with within(120.0):
        report = sweep_theorem("T42")
    assert report.violations == 0
    assert report.checked == 1000
    assert report.applicable >= 500
    passed(6, f"{report.applicable}/1000 join-closed instances, equivalence holds")


def test_c07_prime_restriction_iff_mi_and_c2():
    with within(120.0):
        report = sweep_theorem("T47")
    assert report.violations == 0
    assert report.checked == report.applicable == 1000
    passed(7, "1000 instances, prime restriction iff meet closure plus C2")


def test_c08_adjunction_laws_on_generated_and_fixed():
    families = ("random-galois", "multiplicity", "action", "bundle")
    for k in range(1000):
        gen = InstanceGenerator(seed=k, family=families[k % len(families)])
        assert verify_prop26(gen_inclusion_data(gen).gc).all_ok
    for fixture in (EX_210, EX_211, EX_213, EX_74):
        assert verify_prop26(to_inclusion_data(fixture()).gc).all_ok
    passed(8, "adjunction laws hold on 1000 generated connections and 4 fixtures")


def test_c09_matrix_census_sweeps():
    with within(30.0):
        l51 = sweep_theorem("L51")
        c54 = sweep_theorem("C54")
    assert l51.violations == c54.violations == 0
    assert l51.checked == c54.checked == 441
    passed(9, "441 matrices: symmetric round trip and the symmetric-forces chain")


def test_c10_orbit_closure_agreement():
    with within(60.0):
        report = sweep_theorem("T62")
    assert report.violations == 0
    assert report.checked == report.applicable == 8223
    passed(10, "8223 actions on posets <= 5 points, quasi-orbits = orbit closures")


def test_c11_graph_pair_census():
    with within(1.0):
        graph = EX_75()
        pl = j_pairs(graph, j_x(graph))
        assert len(pl.pairs) == 4
        assert len(pair_prime_space(pl).primes) == 2
    passed(11, "4 admissible pairs and a 2-point prime space")


def test_c12_stone_round_trip():
    for lat in all_frames(6):
        assert lattice_isomorphism(opens_lattice(point_space(lat)), lat) is not None
    for space in all_spaces(4):
        assert is_sober(space)
        assert homeomorphic(point_space(opens_lattice(space)), space)
    passed(12, "O(pt(L)) = L for 13 frames; pt(O(X)) = X for 242 sober spaces")
