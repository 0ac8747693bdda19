"""Order and lattice construction against brute-force oracles.

The oracles below recompute bounds, down-sets and distributivity from
the raw order relation alone.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    assert_same_lattice,
    chain_lattice,
    diamond,
    downset_frames,
    lattice_from_pairs,
    padded_lattices,
    pentagon,
    posets,
    three_atom_diamond,
)
from stonekit import (
    FinitePoset,
    all_frames,
    all_posets,
    LatticeTooLarge,
    NotALattice,
    NotAPoset,
    big_join,
    big_meet,
    boolean_lattice,
    downset_lattice,
    is_frame,
    lattice_isomorphism,
    sublattice,
    validate_lattice,
)
from stonekit import _kernels
from stonekit.lattice import (
    fixed_point_lattice,
    join_irreducibles,
    meet_irreducibles,
    poset_isomorphism,
)


def oracle_bounds(poset):
    """glb/lub tables by exhaustive scan; None where no bound exists."""
    n = poset.n
    meet = [[None] * n for _ in range(n)]
    join = [[None] * n for _ in range(n)]
    for x in range(n):
        for y in range(n):
            lows = [z for z in range(n) if poset.leq(z, x) and poset.leq(z, y)]
            best = [z for z in lows if all(poset.leq(w, z) for w in lows)]
            if best:
                meet[x][y] = best[0]
            ups = [z for z in range(n) if poset.leq(x, z) and poset.leq(y, z)]
            best = [z for z in ups if all(poset.leq(z, w) for w in ups)]
            if best:
                join[x][y] = best[0]
    return meet, join


def oracle_downsets(poset):
    out = []
    for m in range(1 << poset.n):
        if all(
            not (m >> x) & 1 or all(
                (m >> y) & 1 for y in range(poset.n) if poset.leq(y, x)
            )
            for x in range(poset.n)
        ):
            out.append(m)
    return out


class TestPosetValidation:
    def test_rejects_missing_reflexivity(self):
        with pytest.raises(NotAPoset, match="reflexive"):
            FinitePoset(2, (0b01, 0b01))

    def test_rejects_broken_antisymmetry(self):
        with pytest.raises(NotAPoset, match="antisymmetric"):
            FinitePoset(2, (0b11, 0b11))

    def test_rejects_broken_transitivity(self):
        with pytest.raises(NotAPoset, match="transitive"):
            FinitePoset(3, (0b001, 0b011, 0b110))

    def test_rejects_out_of_range_bits(self):
        with pytest.raises(NotAPoset):
            FinitePoset(2, (0b101, 0b10))

    def test_from_pairs_closes_transitively(self):
        p = FinitePoset.from_pairs(3, [(0, 1), (1, 2)])
        assert p.leq(0, 2)

    def test_chain_and_antichain(self):
        assert FinitePoset.chain(3).leq(0, 2)
        q = FinitePoset.antichain(3)
        assert not q.leq(0, 2) and q.leq(1, 1)


class TestValidateLattice:
    def test_three_chain_is_min_max(self):
        lat = chain_lattice(3)
        for x in range(3):
            for y in range(3):
                assert lat.meet(x, y) == min(x, y)
                assert lat.join(x, y) == max(x, y)
        assert lat.bottom == 0 and lat.top == 2

    def test_diamond_bounds(self):
        lat = diamond()
        assert lat.meet(1, 2) == 0
        assert lat.join(1, 2) == 3

    def test_unbounded_antichain_rejected(self):
        with pytest.raises(NotALattice):
            validate_lattice(FinitePoset.antichain(2))

    def test_empty_carrier_rejected(self):
        with pytest.raises(NotALattice):
            validate_lattice(FinitePoset.antichain(0))

    def test_label_count_must_match(self):
        with pytest.raises(NotALattice, match="label count"):
            validate_lattice(FinitePoset.chain(3), labels=("a", "b"))

    def test_missing_meet_rejected(self):
        # two minimal and two maximal points: joins of minimals not unique
        p = FinitePoset.from_pairs(4, [(0, 2), (0, 3), (1, 2), (1, 3)])
        with pytest.raises(NotALattice):
            validate_lattice(p)

    @settings(max_examples=200)
    @given(posets())
    def test_tables_match_bound_oracle(self, p):
        meet, join = oracle_bounds(p)
        complete = all(
            meet[x][y] is not None and join[x][y] is not None
            for x in range(p.n)
            for y in range(p.n)
        )
        if not complete:
            with pytest.raises(NotALattice):
                validate_lattice(p)
            return
        lat = validate_lattice(p)
        assert [list(r) for r in lat.meet_table] == meet
        assert [list(r) for r in lat.join_table] == join
        # the operations read masks, not these tables: they agree too
        assert [list(lat.meet_row(x)) for x in range(p.n)] == meet
        assert [list(lat.join_row(x)) for x in range(p.n)] == join
        assert all(p.leq(lat.bottom, x) and p.leq(x, lat.top) for x in range(p.n))

    def test_every_small_poset_against_bound_tables(self):
        # the mask lookups certify exactly what bound_tables does, and
        # refuse with its witness pair
        for p in all_posets(5):
            assert_validated_like_bound_tables(p)

    @settings(max_examples=100, deadline=None)
    @given(padded_lattices(), st.integers(0, 3))
    def test_padded_shapes_against_bound_tables(self, lat, drop):
        # the padded M3/N5 shapes and products, and the same orders with
        # a point removed, which can leave some pair without a bound
        assert_validated_like_bound_tables(lat.order)
        keep = [x for x in range(lat.n) if x != drop % lat.n]
        assert_validated_like_bound_tables(lat.order.subposet(keep))


def assert_validated_like_bound_tables(p):
    meet, join, bad = _kernels.bound_tables(list(p.below))
    if bad is not None:
        with pytest.raises(NotALattice) as caught:
            validate_lattice(p)
        assert caught.value.witness == bad
        return
    lat = validate_lattice(p)
    assert "meet_table" not in vars(lat) and "join_table" not in vars(lat)
    assert lat.meet_table == tuple(map(tuple, meet))
    assert lat.join_table == tuple(map(tuple, join))


class TestBigOps:
    def test_empty_conventions(self):
        lat = diamond()
        assert big_meet(lat, []) == lat.top
        assert big_join(lat, []) == lat.bottom

    def test_complement_pair_joins_to_top(self):
        lat = diamond()
        assert big_join(lat, [1, 2]) == 3

    def test_powerset_meet_is_intersection(self):
        lat = boolean_lattice(3)
        got = big_meet(lat, [lat.index_of_label(0b011), lat.index_of_label(0b110)])
        assert lat.labels[got] == 0b010

    @settings(max_examples=100)
    @given(downset_frames(), posets(max_points=3))
    def test_fold_equals_bound_of_set(self, lat, sel):
        subset = [x % lat.n for x in sel.below]
        j = big_join(lat, subset)
        assert all(lat.leq(x, j) for x in subset)
        assert all(
            not all(lat.leq(x, u) for x in subset) or lat.leq(j, u)
            for u in range(lat.n)
        )
        assert big_join(lat, [subset[0]]) == subset[0]


class TestFrameCheck:
    def test_boolean_is_distributive(self):
        fw = is_frame(boolean_lattice(2))
        assert fw.distributive and fw.witness is None

    def test_pentagon_fails_with_witness(self):
        fw = is_frame(pentagon())
        assert not fw.distributive
        x, y, z = fw.witness
        lat = fw.lattice
        assert lat.meet(x, lat.join(y, z)) != lat.join(lat.meet(x, y), lat.meet(x, z))

    def test_three_atom_diamond_fails(self):
        assert not is_frame(three_atom_diamond()).distributive

    @settings(max_examples=100)
    @given(downset_frames())
    def test_downset_lattices_are_frames(self, lat):
        assert is_frame(lat).distributive


class TestDownsetLattice:
    def test_single_point(self):
        lat = downset_lattice(FinitePoset.chain(1))
        assert lat.n == 2 and lat.labels == (0, 1)

    def test_two_chain(self):
        lat = downset_lattice(FinitePoset.chain(2))
        assert lat.labels == (0b00, 0b01, 0b11)

    def test_two_antichain_is_boolean(self):
        lat = downset_lattice(FinitePoset.antichain(2))
        assert lat.labels == (0, 1, 2, 3)
        assert lattice_isomorphism(lat, boolean_lattice(2)) is not None

    @settings(max_examples=200)
    @given(posets())
    def test_matches_subset_enumeration(self, p):
        lat = downset_lattice(p)
        assert list(lat.labels) == oracle_downsets(p)
        # meet and join are intersection and union of the label masks
        for x in range(lat.n):
            for y in range(lat.n):
                assert lat.labels[lat.meet(x, y)] == lat.labels[x] & lat.labels[y]
                assert lat.labels[lat.join(x, y)] == lat.labels[x] | lat.labels[y]

    def test_size_cap(self, monkeypatch):
        monkeypatch.setenv("STONE_MAX_LATTICE", "8")
        with pytest.raises(LatticeTooLarge):
            downset_lattice(FinitePoset.antichain(4))


class TestLatticeLaws:
    @settings(max_examples=100)
    @given(downset_frames())
    def test_order_agrees_with_operations(self, lat):
        for x in range(lat.n):
            for y in range(lat.n):
                leq = lat.leq(x, y)
                assert leq == (lat.meet(x, y) == x)
                assert leq == (lat.join(x, y) == y)

    @settings(max_examples=100)
    @given(downset_frames())
    def test_absorption(self, lat):
        for x in range(lat.n):
            for y in range(lat.n):
                assert lat.meet(x, lat.join(x, y)) == x
                assert lat.join(x, lat.meet(x, y)) == x


class TestSubAndIso:
    def test_sublattice_keeps_ambient_indices_as_labels(self):
        sub = sublattice(boolean_lattice(2), [0, 1, 3])
        assert sub.labels == (0, 1, 3)
        assert sub.n == 3 and sub.top == 2

    def test_sublattice_rejects_non_lattice_subset(self):
        with pytest.raises(NotALattice):
            sublattice(boolean_lattice(2), [1, 2])

    def test_chain_not_isomorphic_to_diamond(self):
        assert lattice_isomorphism(chain_lattice(4), diamond()) is None

    def test_isomorphism_found_under_relabeling(self):
        a = lattice_from_pairs(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
        b = lattice_from_pairs(4, [(3, 2), (3, 1), (2, 0), (1, 0)])
        f = lattice_isomorphism(a, b)
        assert f is not None
        assert f[a.bottom] == b.bottom and f[a.top] == b.top

    @settings(max_examples=50)
    @given(posets(max_points=4))
    def test_poset_isomorphic_to_itself_reversedly_labeled(self, p):
        rev = [0] * p.n
        perm = list(reversed(range(p.n)))
        for x in range(p.n):
            m = 0
            for y in range(p.n):
                if p.leq(y, x):
                    m |= 1 << perm[y]
            rev[perm[x]] = m
        q = FinitePoset(p.n, tuple(rev))
        assert poset_isomorphism(p, q) is not None


def irreducibles_by_tables(lat):
    """The table scans: x is join-irreducible when the join of everything
    strictly below it falls short of x, and dually."""
    mt, jt = lat.meet_table, lat.join_table
    above = lat.order.above()
    joins, meets = [], []
    for x in range(lat.n):
        j = lat.bottom
        for y in _kernels.bits(lat.order.below[x] & ~(1 << x)):
            j = jt[j][y]
        if j != x:
            joins.append(x)
        m = lat.top
        for y in _kernels.bits(above[x] & ~(1 << x)):
            m = mt[m][y]
        if m != x:
            meets.append(x)
    return tuple(joins), tuple(meets)


MASK_FRAMES = [
    *((f"frame-{k}-{i}", lat) for k in range(1, 7) for i, lat in enumerate(all_frames(k))),
    *((f"boolean-{k}", boolean_lattice(k)) for k in range(7)),
]


class TestMaskFramesAgainstTables:
    """Down-set frames answer from masks; the table forms are the oracle."""

    @pytest.mark.parametrize("lat", [f for _, f in MASK_FRAMES], ids=[i for i, _ in MASK_FRAMES])
    def test_order_rows_are_inclusion(self, lat):
        # the subset test on every pair of masks, and its transpose
        masks = lat.labels
        below = tuple(
            sum(1 << j for j, other in enumerate(masks) if other & ~m == 0) for m in masks
        )
        assert lat.order.below == below
        assert lat.order.above() == tuple(_kernels.transpose(list(below)))

    @pytest.mark.parametrize("lat", [f for _, f in MASK_FRAMES], ids=[i for i, _ in MASK_FRAMES])
    def test_lazy_tables_are_the_validated_tables(self, lat):
        assert_same_lattice(lat, validate_lattice(lat.order, labels=lat.labels))

    @pytest.mark.parametrize("lat", [f for _, f in MASK_FRAMES], ids=[i for i, _ in MASK_FRAMES])
    def test_operations_read_like_the_tables(self, lat):
        validated = validate_lattice(lat.order)
        mt, jt = validated.meet_table, validated.join_table
        for x in range(lat.n):
            assert lat.meet_row(x) == mt[x] and lat.join_row(x) == jt[x]
            for y in range(lat.n):
                assert lat.meet(x, y) == mt[x][y]
                assert lat.join(x, y) == jt[x][y]
        # big meets and joins of the rows, and of the empty subset
        for row in (*lat.order.below, *lat.order.above(), 0):
            xs = list(_kernels.bits(row))
            m, j = lat.top, lat.bottom
            for x in xs:
                m, j = mt[m][x], jt[j][x]
            assert big_meet(lat, xs) == m
            assert big_join(lat, xs) == j

    @pytest.mark.parametrize("lat", [f for _, f in MASK_FRAMES], ids=[i for i, _ in MASK_FRAMES])
    def test_certificate_and_irreducibles_match_the_scans(self, lat):
        scan = _kernels.distributive_witness(lat.meet_table, lat.join_table)
        assert is_frame(lat).distributive == (scan is None)
        assert (join_irreducibles(lat), meet_irreducibles(lat)) == irreducibles_by_tables(lat)

    @pytest.mark.parametrize("lat", [f for _, f in MASK_FRAMES], ids=[i for i, _ in MASK_FRAMES])
    def test_fixed_point_lattices_match_sublattice(self, lat):
        assert_fixed_point_lattices_match_sublattice(lat)


class TestFixedPointLatticesOfNonFrames:
    """The same cases on validated lattices that are not distributive,
    whose join masks are the complements of their up-rows."""

    @pytest.mark.parametrize("build", [pentagon, three_atom_diamond])
    def test_forbidden_sublattices(self, build):
        lat = build()
        assert not is_frame(lat).distributive
        assert_fixed_point_lattices_match_sublattice(lat)

    @settings(max_examples=60, deadline=None)
    @given(padded_lattices())
    def test_padded_lattices(self, lat):
        assert_fixed_point_lattices_match_sublattice(lat)


def assert_fixed_point_lattices_match_sublattice(lat):
    cases = []
    # x -> x \/ a closes onto the up-set of a, x -> x /\ a opens onto
    # the down-set of a, and both sets are closed under both operations
    for a in range(lat.n):
        up = tuple(_kernels.bits(lat.order.above()[a]))
        down = tuple(_kernels.bits(lat.order.below[a]))
        cases.append((up, {"join_fix": tuple(lat.join(x, a) for x in range(lat.n))}))
        cases.append((down, {"meet_fix": tuple(lat.meet(x, a) for x in range(lat.n))}))
        cases.append((up, {}))
    # a meet-closed set with the top is the fixed-point set of a closure
    # whose joins need not be the ambient ones, and dually: the meets of
    # the join-irreducibles, and {a, b, a /\ b, top} for every pair
    seeds = [({*join_irreducibles(lat), lat.top}, {*meet_irreducibles(lat), lat.bottom})]
    seeds += [({a, b, lat.top}, {a, b, lat.bottom}) for a in range(lat.n) for b in range(a)]
    for up_seed, down_seed in seeds:
        moore = _closed(lat, lat.meet, up_seed)
        cases.append((moore, {"join_fix": tuple(
            lat.big_meet(s for s in moore if lat.leq(x, s)) for x in range(lat.n)
        )}))
        dual = _closed(lat, lat.join, down_seed)
        cases.append((dual, {"meet_fix": tuple(
            lat.big_join(s for s in dual if lat.leq(s, x)) for x in range(lat.n)
        )}))
    for elements, kwargs in cases:
        assert_same_lattice(fixed_point_lattice(lat, elements, **kwargs), sublattice(lat, elements))


def _closed(lat, op, seed):
    """The closure of ``seed`` under the binary operation, ascending."""
    out = set(seed)
    while True:
        more = {op(x, y) for x in out for y in out} - out
        if not more:
            return tuple(sorted(out))
        out |= more
