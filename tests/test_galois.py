"""Adjoint pairs, synthesis, fixed points and the structural law report.

The multiplicity-pattern fixtures are built by the conftest oracle, so
every frozen value here is independent of the package's own model code.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import stonekit.galois as galois_module

from conftest import (
    chain_lattice,
    connections,
    diamond,
    matrix_connection,
    monotone_maps,
    padded_lattices,
)
from stonekit import _kernels
from stonekit.lattice import join_irreducibles, meet_irreducibles
from stonekit import (
    AbsenceWitness,
    AdjunctionFailure,
    GaloisConnection,
    InclusionData,
    MonotoneMap,
    NotMonotone,
    ShapeMismatch,
    boolean_lattice,
    detects,
    is_join_preserving,
    is_meet_preserving,
    lower_adjoint,
    separates,
    upper_adjoint,
)
from oracles import all_frames, is_adjoint_pair, sublattice, verify_prop26
from oracles import monotone_maps as all_monotone_maps

TWO_OVER_ONE = ((1, 1),)          # one source summand hitting two targets
ONE_OVER_TWO = ((1,), (1,))       # two source summands onto one target
CROSSED = ((1, 0), (0, 1), (1, 1))
OVERLAPPED = ((1, 0, 1, 1), (0, 1, 1, 1))


class TestMonotoneMap:
    def test_rejects_order_violation(self):
        lat = chain_lattice(2)
        with pytest.raises(NotMonotone) as ei:
            MonotoneMap(lat, lat, (1, 0))
        assert ei.value.witness == (0, 1)

    def test_rejects_wrong_arity(self):
        with pytest.raises(ShapeMismatch):
            MonotoneMap(chain_lattice(2), chain_lattice(2), (0,))

    def test_rejects_out_of_range_value(self):
        with pytest.raises(ShapeMismatch):
            MonotoneMap(chain_lattice(2), chain_lattice(2), (0, 5))


class TestAdjointPair:
    def test_identity_pair(self):
        lat = diamond()
        ident = MonotoneMap.identity(lat)
        assert is_adjoint_pair(ident, ident)

    def test_constant_top_against_identity_fails(self):
        lat = chain_lattice(2)
        const_top = MonotoneMap(lat, lat, (1, 1))
        assert not is_adjoint_pair(const_top, MonotoneMap.identity(lat))
        with pytest.raises(AdjunctionFailure):
            GaloisConnection(const_top, MonotoneMap.identity(lat))

    def test_shape_gate(self):
        with pytest.raises(ShapeMismatch):
            is_adjoint_pair(
                MonotoneMap.identity(chain_lattice(2)),
                MonotoneMap.identity(chain_lattice(3)),
            )

    def test_one_summand_hitting_two(self):
        gc = matrix_connection(TWO_OVER_ONE)
        assert is_adjoint_pair(gc.lower, gc.upper)
        b = gc.lattice_b
        r = gc.upper.values
        # both singleton targets restrict to nothing; the full set to all
        assert b.labels[0b01] == 1  # sanity on label encoding
        assert gc.lattice_a.labels[r[b.index_of_label(0b01)]] == 0
        assert gc.lattice_a.labels[r[b.index_of_label(0b10)]] == 0
        assert gc.lattice_a.labels[r[b.index_of_label(0b11)]] == 1

    def test_upper_of_that_pair_breaks_joins(self):
        gc = matrix_connection(TWO_OVER_ONE)
        assert is_meet_preserving(gc.upper)
        assert not is_join_preserving(gc.upper)


class TestSynthesis:
    def test_two_summands_onto_one(self):
        gc = matrix_connection(ONE_OVER_TWO)
        a, b = gc.lattice_a, gc.lattice_b
        i = gc.lower.values
        assert a.labels[0b01] == 1
        assert b.labels[i[a.index_of_label(0b01)]] == 1
        assert b.labels[i[a.index_of_label(0b10)]] == 1
        synth = upper_adjoint(gc.lower)
        assert isinstance(synth, MonotoneMap)
        assert synth.values == gc.upper.values
        assert a.labels[synth.values[b.index_of_label(0b1)]] == 0b11

    def test_identity_synthesis(self):
        lat = diamond()
        synth = upper_adjoint(MonotoneMap.identity(lat))
        assert synth.values == tuple(range(lat.n))

    def test_join_breaking_map_has_no_upper(self):
        lat = diamond()
        squash = MonotoneMap(lat, lat, (0, 1, 1, 3))
        out = upper_adjoint(squash)
        assert isinstance(out, AbsenceWitness)
        x, y = out.x, out.y
        assert lat.leq(squash.values[x], y) != lat.leq(x, out.candidate.values[y])

    def test_lower_recovers_induction(self):
        gc = matrix_connection(TWO_OVER_ONE)
        synth = lower_adjoint(gc.upper)
        assert isinstance(synth, MonotoneMap)
        assert synth.values == gc.lower.values

    def test_constant_top_upper_gives_constant_bottom_lower(self):
        a, b = diamond(), chain_lattice(2)
        const_top = MonotoneMap(b, a, (a.top, a.top))
        synth = lower_adjoint(const_top)
        assert isinstance(synth, MonotoneMap)
        assert set(synth.values) == {b.bottom}

    def test_meet_escaping_insertion_has_no_lower(self):
        # induced ideals of the overlapped pattern inside the 4-cube;
        # the meet of the two middles lands outside the four
        amb = boolean_lattice(4)
        ind = sublattice(
            amb,
            [0, amb.index_of_label(0b1101), amb.index_of_label(0b1110), amb.top],
        )
        insertion = MonotoneMap(
            ind, amb, tuple(ind.labels)
        )
        out = lower_adjoint(insertion)
        assert isinstance(out, AbsenceWitness)

    @settings(max_examples=150)
    @given(monotone_maps())
    def test_upper_exists_iff_joins_preserved(self, f):
        out = upper_adjoint(f)
        assert isinstance(out, MonotoneMap) == is_join_preserving(f)

    @settings(max_examples=150)
    @given(monotone_maps())
    def test_candidates_are_the_pointwise_formulas(self, f):
        # r(y) = join of the x with i(x) <= y, and dually for the lower
        # adjoint of r, read pair by pair
        a, b = f.source, f.target
        want_upper = tuple(
            a.big_join(x for x in range(a.n) if b.leq(f.values[x], y)) for y in range(b.n)
        )
        r = upper_adjoint(f)
        assert (r if isinstance(r, MonotoneMap) else r.candidate).values == want_upper
        back = MonotoneMap(b, a, want_upper)
        want_lower = tuple(
            b.big_meet(y for y in range(b.n) if a.leq(x, back.values[y])) for x in range(a.n)
        )
        i = lower_adjoint(back)
        assert (i if isinstance(i, MonotoneMap) else i.candidate).values == want_lower

    @settings(max_examples=150)
    @given(monotone_maps())
    def test_round_trip_when_adjoint_exists(self, f):
        r = upper_adjoint(f)
        if isinstance(r, AbsenceWitness):
            return
        again = lower_adjoint(r)
        assert isinstance(again, MonotoneMap)
        assert again.values == f.values


def preserves_by_tables(f, side):
    """The pair loop over the bound_tables oracle, bounds included: the
    empty join sends bottom to bottom, the empty meet top to top."""
    def tables(lat):
        below = lat.order.below
        meet, join, _ = _kernels.bound_tables(list(below))
        bottom = next(x for x, row in enumerate(below) if row == 1 << x)
        top = below.index((1 << lat.n) - 1)
        return (join, bottom) if side == "join" else (meet, top)

    (op_s, unit_s), (op_t, unit_t) = tables(f.source), tables(f.target)
    v = f.values
    return v[unit_s] == unit_t and all(
        v[op_s[x][y]] == op_t[v[x]][v[y]] for x in range(f.source.n) for y in range(f.source.n)
    )


CENSUS = all_frames(6)


@st.composite
def maps_between_lattices(draw):
    """Monotone maps between padded lattices (M3 and N5 among the bases)
    or census frames. Values are drawn on the join-irreducibles and
    joined upward, or on the meet-irreducibles and met downward, so
    preserving and breaking maps both occur."""
    pick = st.one_of(padded_lattices(), st.sampled_from(CENSUS))
    a, b = draw(pick), draw(pick)
    raw = [draw(st.integers(0, b.n - 1)) for _ in range(a.n)]
    if draw(st.booleans()):
        gens = join_irreducibles(a)
        vals = (b.big_join(raw[j] for j in gens if a.leq(j, x)) for x in range(a.n))
    else:
        gens = meet_irreducibles(a)
        vals = (b.big_meet(raw[m] for m in gens if a.leq(x, m)) for x in range(a.n))
    return MonotoneMap(a, b, tuple(vals))


class TestPreservationAgainstTables:
    """is_join_preserving and is_meet_preserving run one pair scan; the
    table loop is their oracle."""

    def test_every_monotone_map_between_small_census_frames(self):
        small = [lat for lat in CENSUS if lat.n <= 4]
        seen = set()
        for a in small:
            for b in small:
                for vals in all_monotone_maps(a, b):
                    f = MonotoneMap(a, b, vals)
                    got = (is_join_preserving(f), is_meet_preserving(f))
                    assert got == (preserves_by_tables(f, "join"), preserves_by_tables(f, "meet"))
                    seen.add(got)
        assert seen == {(True, True), (True, False), (False, True), (False, False)}

    @settings(max_examples=300, deadline=None)
    @given(maps_between_lattices())
    def test_maps_between_lattices(self, f):
        assert is_join_preserving(f) == preserves_by_tables(f, "join")
        assert is_meet_preserving(f) == preserves_by_tables(f, "meet")


class TestConnectionConstruction:
    def test_post_init_rejects_non_adjoint(self):
        lat = chain_lattice(2)
        with pytest.raises(AdjunctionFailure) as ei:
            GaloisConnection(
                MonotoneMap(lat, lat, (1, 1)), MonotoneMap.identity(lat)
            )
        assert ei.value.witness is not None

    def test_from_lower_rejects_join_breaker(self):
        lat = diamond()
        with pytest.raises(AdjunctionFailure):
            GaloisConnection.from_lower(MonotoneMap(lat, lat, (0, 1, 1, 3)))

    def test_the_law_is_checked_once_per_connection(self, monkeypatch):
        real = galois_module._adjunction_witness
        calls = []

        def counting(lower, upper):
            calls.append(1)
            return real(lower, upper)

        real_monotone = galois_module.monotone_witness
        monotone_calls = []

        def counting_monotone(*args):
            monotone_calls.append(1)
            return real_monotone(*args)

        monkeypatch.setattr(galois_module, "_adjunction_witness", counting)
        monkeypatch.setattr(galois_module, "monotone_witness", counting_monotone)
        gc = matrix_connection(CROSSED)
        calls.clear()
        assert GaloisConnection.from_lower(gc.lower) == gc
        assert len(calls) == 1
        assert GaloisConnection(gc.lower, gc.upper) == gc
        assert len(calls) == 2
        # the relation's law is a theorem: no law scan, no monotone scan
        calls.clear()
        monotone_calls.clear()
        rows = tuple(sum(1 << j for j, x in enumerate(row) if x) for row in CROSSED)
        assert GaloisConnection.from_relation(gc.lattice_a, gc.lattice_b, rows) == gc
        assert (len(calls), len(monotone_calls)) == (0, 0)

    def test_public_constructor_still_refuses_a_bogus_pair(self):
        # a synthesized upper adjoint, paired with a lower map it does
        # not belong to
        gc = matrix_connection(CROSSED)
        bottom = MonotoneMap(gc.lattice_a, gc.lattice_b, (gc.lattice_b.bottom,) * gc.lattice_a.n)
        with pytest.raises(AdjunctionFailure) as ei:
            GaloisConnection(bottom, gc.upper)
        assert ei.value.witness is not None


class TestFixedPoints:
    """The fixed points of r.i and i.r, as InclusionData reads them off
    the closure and kernel values; verify_prop26 certifies that the two
    maps carry them bijectively onto each other."""

    def test_crossed_pattern_restricted_set(self):
        gc = matrix_connection(CROSSED)
        d = InclusionData(gc)
        a, b = gc.lattice_a, gc.lattice_b
        assert {a.labels[x] for x in d.restricted} == {0b000, 0b001, 0b010, 0b111}
        assert {b.labels[y] for y in d.induced} == {0b00, 0b01, 0b10, 0b11}
        assert verify_prop26(gc).fixed_point_iso

    def test_identity_fixes_everything(self):
        lat = diamond()
        gc = GaloisConnection.from_lower(MonotoneMap.identity(lat))
        d = InclusionData(gc)
        assert d.restricted == d.induced == tuple(range(lat.n))
        assert verify_prop26(gc).fixed_point_iso

    def test_overlapped_pattern_all_sources_restricted(self):
        gc = matrix_connection(OVERLAPPED)
        d = InclusionData(gc)
        assert len(d.restricted) == gc.lattice_a.n == 4
        assert verify_prop26(gc).fixed_point_iso

    def test_sets_are_the_fixed_points_of_closure_and_kernel(self):
        for mult in (TWO_OVER_ONE, ONE_OVER_TWO, CROSSED, OVERLAPPED):
            gc = matrix_connection(mult)
            d = InclusionData(gc)
            ri, ir = gc.closure_values(), gc.kernel_values()
            assert d.restricted == tuple(x for x, v in enumerate(ri) if v == x)
            assert d.induced == tuple(y for y, v in enumerate(ir) if v == y)
            assert sorted(gc.lower.values[x] for x in d.restricted) == list(d.induced)
            assert sorted(gc.upper.values[y] for y in d.induced) == list(d.restricted)


class TestLawReport:
    @pytest.mark.parametrize(
        "mult", [TWO_OVER_ONE, ONE_OVER_TWO, CROSSED, OVERLAPPED]
    )
    def test_all_laws_hold_on_pattern_fixtures(self, mult):
        report = verify_prop26(matrix_connection(mult))
        assert report.all_ok, [k for k, v in report.items() if not v]

    def test_identity_connection(self):
        gc = GaloisConnection.from_lower(MonotoneMap.identity(diamond()))
        assert verify_prop26(gc).all_ok

    @settings(max_examples=150)
    @given(connections())
    def test_all_laws_hold_on_synthesized_connections(self, gc):
        report = verify_prop26(gc)
        assert report.all_ok, [k for k, v in report.items() if not v]

    @settings(max_examples=100)
    @given(connections())
    def test_closure_and_kernel_operators(self, gc):
        a, b = gc.lattice_a, gc.lattice_b
        ri = gc.closure_values()
        ir = gc.kernel_values()
        for x in range(a.n):
            assert a.leq(x, ri[x])
            assert ri[ri[x]] == ri[x]
        for y in range(b.n):
            assert b.leq(ir[y], y)
            assert ir[ir[y]] == ir[y]


class TestSeparationAndDetection:
    def test_doubly_covering_pattern(self):
        # r sends both singletons to bottom, so detection fails with
        # separation; in the pattern model the two predicates coincide
        gc = matrix_connection(((1, 1), (1, 1)))
        assert not separates(gc)
        assert not detects(gc)

    def test_crossed_pattern_separates(self):
        gc = matrix_connection(CROSSED)
        assert separates(gc) and detects(gc)

    def test_one_summand_hitting_two(self):
        gc = matrix_connection(TWO_OVER_ONE)
        assert not detects(gc)
        assert not separates(gc)

    def test_detection_without_separation(self):
        # bottom segment of a longer chain: r folds the top two levels
        a, b = chain_lattice(2), chain_lattice(3)
        gc = GaloisConnection.from_lower(MonotoneMap(a, b, (0, 1)))
        assert detects(gc)
        assert not separates(gc)

    @settings(max_examples=150)
    @given(connections())
    def test_characterizations_agree_everywhere(self, gc):
        # each predicate is decided on r; the fixed-point reading on
        # i(r(y)) is the oracle
        b, ir = gc.lattice_b, gc.kernel_values()
        assert detects(gc) == all(y == b.bottom or ir[y] != b.bottom for y in range(b.n))
        assert separates(gc) == all(ir[y] == y for y in range(b.n))
