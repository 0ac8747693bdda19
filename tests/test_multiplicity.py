"""Multiplicity-matrix model: formulas, fixtures, and a span oracle.

The oracle realizes the inclusion with genuine block matrices: summands
become matrix blocks, the embedding repeats each block along the
diagonal per its multiplicity, and induction/restriction/symmetry are
read off ideals and one-sided products of those matrices.  The module's
mask formulas must agree with it everywhere.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import matrices, matrix_connection
from stonekit import (
    EX_74,
    EX_210,
    EX_211,
    EX_213,
    FinitePoset,
    LatticeTooLarge,
    MultiplicityInclusion,
    binary_matrices,
    boolean_lattice,
    downset_lattice,
    is_frame,
    check_C1,
    check_JR,
    check_MIf,
    induce,
    is_symmetric,
    restrict,
    to_inclusion_data,
)
from oracles import is_adjoint_pair


def every_mask(n):
    return range(1 << n)


class TestValidation:
    def test_rejects_empty_and_ragged(self):
        with pytest.raises(ValueError):
            MultiplicityInclusion(())
        with pytest.raises(ValueError):
            MultiplicityInclusion(((),))
        with pytest.raises(ValueError):
            MultiplicityInclusion(((1, 0), (1,)))

    def test_rejects_negative_entries(self):
        with pytest.raises(ValueError):
            MultiplicityInclusion(((1, -1),))

    def test_dims_must_match_shape(self):
        with pytest.raises(ValueError):
            MultiplicityInclusion(((1,),), a_dims=(1, 1))
        with pytest.raises(ValueError):
            MultiplicityInclusion(((1,),), b_dims=(0,))

    def test_rows_normalized_to_tuples(self):
        m = MultiplicityInclusion([[2, 0], [0, 1]])
        assert m.mult == ((2, 0), (0, 1))
        assert m.a_summands == 2 and m.b_summands == 2

    def test_injectivity_flag(self):
        assert EX_213().is_injective
        assert not MultiplicityInclusion(((1, 1), (0, 0))).is_injective


class TestInduce:
    def test_both_rows_land_on_the_single_column(self):
        m = EX_211()
        assert induce(m, 0b01) == 0b1
        assert induce(m, 0b10) == 0b1
        assert induce(m, 0) == 0

    def test_crossing_row_hits_both_columns(self):
        assert induce(EX_213(), 0b100) == 0b11

    def test_zero_row_induces_nothing(self):
        m = MultiplicityInclusion(((1, 1), (0, 0)))
        assert induce(m, 0b10) == 0

    def test_mask_range_checked(self):
        with pytest.raises(ValueError):
            induce(EX_210(), 0b10)

    @given(matrices(), st.data())
    def test_join_preserving(self, m, data):
        s = data.draw(st.integers(0, (1 << m.a_summands) - 1))
        t = data.draw(st.integers(0, (1 << m.a_summands) - 1))
        assert induce(m, s | t) == induce(m, s) | induce(m, t)


class TestRestrict:
    def test_single_row_sees_no_proper_column_set(self):
        m = EX_210()
        assert restrict(m, 0b01) == 0
        assert restrict(m, 0b10) == 0
        assert restrict(m, 0b11) == 0b1

    def test_diagonal_rows_come_back(self):
        m = EX_213()
        assert restrict(m, 0b01) == 0b001
        assert restrict(m, 0b10) == 0b010

    def test_full_restricts_to_full_without_zero_rows(self):
        for m in (EX_210(), EX_211(), EX_213(), EX_74()):
            assert restrict(m, (1 << m.b_summands) - 1) == (1 << m.a_summands) - 1

    @given(matrices(), st.data())
    def test_adjunction_law(self, m, data):
        s = data.draw(st.integers(0, (1 << m.a_summands) - 1))
        t = data.draw(st.integers(0, (1 << m.b_summands) - 1))
        assert (induce(m, s) & ~t == 0) == (s & ~restrict(m, t) == 0)


class TestSymmetric:
    def test_empty_set_always_symmetric(self):
        for m in (EX_210(), EX_213(), EX_74()):
            assert is_symmetric(m, 0)

    def test_restricted_without_symmetric(self):
        m = EX_213()
        assert not is_symmetric(m, 0b001)
        assert restrict(m, induce(m, 0b001)) == 0b001

    def test_overlapping_rows_leave_only_the_trivial_ideals(self):
        m = EX_74()
        full = (1 << m.a_summands) - 1
        symmetric = [s for s in every_mask(m.a_summands) if is_symmetric(m, s)]
        assert symmetric == [0, full]

    @settings(max_examples=150)
    @given(matrices())
    def test_symmetric_implies_restricted_when_injective(self, m):
        if not m.is_injective:
            return
        for s in every_mask(m.a_summands):
            if is_symmetric(m, s):
                assert restrict(m, induce(m, s)) == s

    @settings(max_examples=150)
    @given(matrices())
    def test_symmetric_sets_distribute_under_induce(self, m):
        for s in every_mask(m.a_summands):
            if not is_symmetric(m, s):
                continue
            for t in every_mask(m.a_summands):
                assert induce(m, s & t) == induce(m, s) & induce(m, t)


class TestCompile:
    def test_one_summand_across_two_blocks(self):
        d = to_inclusion_data(EX_210())
        assert d.restricted == (0, 1)

    def test_overlap_fixture_fails_binary_meet_closure(self):
        assert not check_MIf(to_inclusion_data(EX_74()))

    def test_identity_matrix_is_identity_connection(self):
        d = to_inclusion_data(MultiplicityInclusion(((1,),)))
        assert d.gc.lower.values == (0, 1)
        assert d.gc.upper.values == (0, 1)

    def test_certified_adjoint_on_a_wide_instance(self):
        m = MultiplicityInclusion(
            tuple(tuple(int(i == j or j == 5) for j in range(6)) for i in range(6))
        )
        d = to_inclusion_data(m)
        assert is_adjoint_pair(d.gc.lower, d.gc.upper)

    @given(matrices(max_rows=4, max_cols=4))
    def test_matches_the_set_comprehension_oracle(self, m):
        d = to_inclusion_data(m)
        gc = matrix_connection(m.mult)
        assert d.gc.lower.values == gc.lower.values
        assert d.gc.upper.values == gc.upper.values

    def test_all_restricted_symmetric_forces_the_conditions(self):
        # exhaustive on the 2x2 shapes; the 3x3 sweep runs in acceptance
        for m in binary_matrices(2, 2):
            d = to_inclusion_data(m)
            all_symmetric = all(
                is_symmetric(m, d.lattice_a.labels[x]) for x in d.restricted
            )
            if all_symmetric:
                assert check_JR(d) and check_C1(d) and check_MIf(d)


class TestBooleanLatticeReuse:
    """boolean_lattice keeps one lattice per k, so matrices of one shape
    share their lattices and each lattice's frame certificate."""

    def test_equal_row_counts_share_lattice_a(self):
        d1 = to_inclusion_data(MultiplicityInclusion(((1, 0), (0, 1))))
        d2 = to_inclusion_data(MultiplicityInclusion(((1,), (1,))))
        assert d1.lattice_a is d2.lattice_a is boolean_lattice(2)
        assert d1.lattice_a is d1.lattice_b
        assert is_frame(d1.lattice_a) is is_frame(d2.lattice_a)

    def test_a_cached_k_refuses_after_the_cap_is_lowered(self, monkeypatch):
        lat = boolean_lattice(3)
        assert boolean_lattice(3) is lat
        monkeypatch.setenv("STONE_MAX_LATTICE", "7")
        with pytest.raises(LatticeTooLarge) as fresh:
            downset_lattice(FinitePoset.antichain(3))
        with pytest.raises(LatticeTooLarge) as cached:
            boolean_lattice(3)
        assert str(cached.value) == str(fresh.value) == (
            "more than 7 down-sets; raise STONE_MAX_LATTICE to allow"
        )
        with pytest.raises(LatticeTooLarge):
            to_inclusion_data(MultiplicityInclusion(((1,), (1,), (1,))))
        monkeypatch.delenv("STONE_MAX_LATTICE")
        assert boolean_lattice(3) is lat


class TestEnumeration:
    def test_counts_without_zero_rows(self):
        assert sum(1 for _ in binary_matrices(2, 2)) == 14
        assert sum(1 for _ in binary_matrices(3, 3)) == 441

    def test_counts_with_zero_rows(self):
        assert sum(1 for _ in binary_matrices(2, 2, injective_only=False)) == 26

    def test_shapes_covered_once(self):
        seen = set()
        for m in binary_matrices(2, 3):
            assert m.mult not in seen
            seen.add(m.mult)
            assert all(any(row) for row in m.mult)


class TestPositivityOnly:
    @given(matrices(max_entry=3))
    def test_entry_magnitude_never_matters(self, m):
        clamped = MultiplicityInclusion(
            tuple(tuple(int(x > 0) for x in row) for row in m.mult)
        )
        for s in every_mask(m.a_summands):
            assert induce(m, s) == induce(clamped, s)
            assert is_symmetric(m, s) == is_symmetric(clamped, s)
        for t in every_mask(m.b_summands):
            assert restrict(m, t) == restrict(clamped, t)


def _embed_blocks(m, dims, selected):
    """The image of an ideal's unit as one matrix per target block.

    Block j stacks each selected summand's identity along the diagonal,
    repeated per its multiplicity; unselected summands contribute zero
    squares of their dimension.
    """
    blocks = []
    for j in range(m.b_summands):
        size = sum(m.mult[i][j] * dims[i] for i in range(m.a_summands))
        out = np.zeros((size, size))
        off = 0
        for i in range(m.a_summands):
            piece = dims[i] * m.mult[i][j]
            if piece and (selected >> i) & 1:
                out[off : off + piece, off : off + piece] = np.kron(
                    np.eye(m.mult[i][j]), np.eye(dims[i])
                )
            off += piece
        blocks.append(out)
    return blocks


def _span_rank(vectors):
    if not vectors:
        return 0
    return np.linalg.matrix_rank(np.stack(vectors))


class TestMatrixUnitOracle:
    """Recompute the three maps from concrete block matrices."""

    def cases(self):
        rng = np.random.default_rng(91)
        for _ in range(12):
            k, l = rng.integers(1, 4, size=2)
            mult = tuple(
                tuple(int(x) for x in rng.integers(0, 3, size=l)) for _ in range(k)
            )
            dims = tuple(int(x) for x in rng.integers(1, 3, size=k))
            yield MultiplicityInclusion(mult, a_dims=dims), dims

    def oracle_induce(self, m, dims, s):
        # the ideal generated by the image is full in every block it meets
        return sum(
            1 << j
            for j, blk in enumerate(_embed_blocks(m, dims, s))
            if blk.any()
        )

    def oracle_restrict(self, m, dims, t):
        out = 0
        for i in range(m.a_summands):
            image = _embed_blocks(m, dims, 1 << i)
            if all(not blk.any() for j, blk in enumerate(image) if not (t >> j) & 1):
                out |= 1 << i
        return out

    def oracle_symmetric(self, m, dims, s):
        # one-sided products agree iff the spans of pB and Bp coincide
        for blk in _embed_blocks(m, dims, s):
            e = blk.shape[0]
            if e == 0 or not blk.any():
                continue
            units = [
                np.outer(np.eye(e)[r], np.eye(e)[c])
                for r in range(e)
                for c in range(e)
            ]
            left = [(blk @ u).ravel() for u in units]
            right = [(u @ blk).ravel() for u in units]
            rank_l, rank_r = _span_rank(left), _span_rank(right)
            if not (rank_l == rank_r == _span_rank(left + right)):
                return False
        return True

    def test_induce_matches(self):
        for m, dims in self.cases():
            for s in every_mask(m.a_summands):
                assert self.oracle_induce(m, dims, s) == induce(m, s)

    def test_restrict_matches(self):
        for m, dims in self.cases():
            for t in every_mask(m.b_summands):
                assert self.oracle_restrict(m, dims, t) == restrict(m, t)

    def test_symmetric_matches(self):
        for m, dims in self.cases():
            for s in every_mask(m.a_summands):
                assert self.oracle_symmetric(m, dims, s) == is_symmetric(m, s)
