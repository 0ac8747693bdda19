"""The relation kernels against the per-row loops they replaced.

A relation is a list of rows, ``rows[i]`` the mask of the points
related to index i. ``image`` is its existential image and ``inside``
its universal one; the oracles below are the per-row loops that every
model wrote out before the kernels existed, kept as written.
"""

from itertools import product

from hypothesis import example, given
from hypothesis import strategies as st

from stonekit import PointMap
from stonekit._kernels import image, inside, transpose
from stonekit.conformance import all_spaces


def image_by_rows(rows, mask):
    out = 0
    for i, row in enumerate(rows):
        if (mask >> i) & 1:
            out |= row
    return out


def inside_by_rows(rows, mask):
    out = 0
    for i, row in enumerate(rows):
        if row & ~mask == 0:
            out |= 1 << i
    return out


@st.composite
def relations(draw):
    """Rows over up to 10 points, as many or as few rows as points, so
    rows are often wider than the index set, and rows may be empty."""
    width = draw(st.integers(0, 10))
    rows = draw(st.lists(st.integers(0, (1 << width) - 1), max_size=8))
    return width, rows


@st.composite
def square_relations(draw):
    n = draw(st.integers(0, 8))
    return draw(st.lists(st.integers(0, (1 << n) - 1), min_size=n, max_size=n))


class TestImage:
    @given(relations(), st.integers(min_value=0))
    @example((3, [0b101, 0, 0b010]), 0b110)
    def test_matches_the_row_loop(self, relation, raw):
        _, rows = relation
        full = (1 << len(rows)) - 1
        for mask in (0, full, raw & full):
            assert image(rows, mask) == image_by_rows(rows, mask)

    def test_empty_mask_and_empty_rows(self):
        assert image([], 0) == 0
        assert image([0b111, 0b1000], 0) == 0
        assert image([0, 0, 0], 0b111) == 0
        assert image([0b0110, 0b1001], 0b01) == 0b0110
        assert image([0b0110, 0b1001], 0b11) == 0b1111

    def test_reads_indices_through_item_access(self):
        # monotone_witness folds a dict of fibers keyed by value
        assert image({2: 0b01, 5: 0b10}, 0b100100) == 0b11


class TestInside:
    @given(relations(), st.integers(min_value=0))
    @example((3, [0b101, 0, 0b010]), 0b1010)
    def test_matches_the_row_loop(self, relation, raw):
        # the drawn mask may hold bits past the last point
        width, rows = relation
        for mask in (0, (1 << width) - 1, raw):
            assert inside(rows, mask) == inside_by_rows(rows, mask)

    def test_empty_mask_and_empty_rows(self):
        assert inside([], 0) == 0
        assert inside([0, 0b1, 0], 0) == 0b101
        assert inside([0b0110, 0b1001, 0b0010], 0b0110) == 0b101
        assert inside([0b0110, 0b1001, 0b0010], 0b10110) == 0b101

    @given(square_relations(), st.integers(min_value=0))
    def test_is_the_complement_of_the_transposed_image(self, rows, raw):
        full = (1 << len(rows)) - 1
        m = raw & full
        assert inside(rows, m) == full ^ image(transpose(rows), full ^ m)

    @given(relations(), st.integers(min_value=0), st.integers(min_value=0))
    def test_is_the_upper_adjoint_of_image(self, relation, s, t):
        # image(S) <= T exactly when S <= inside(T)
        width, rows = relation
        s &= (1 << len(rows)) - 1
        t &= (1 << width) - 1
        assert (image(rows, s) & ~t == 0) == (s & ~inside(rows, t) == 0)


def _monotone_values(source, target):
    for values in product(range(target.n), repeat=source.n):
        if all(
            target.points.leq(values[x], values[y])
            for x in range(source.n)
            for y in range(source.n)
            if source.points.leq(x, y)
        ):
            yield values


class TestPointMapRows:
    def test_preimage_and_image_match_the_loops(self):
        for source in all_spaces(3):
            for target in all_spaces(2):
                for values in _monotone_values(source, target):
                    f = PointMap(source, target, values)
                    for mask in range(1 << target.n):
                        want = 0
                        for x, v in enumerate(values):
                            if (mask >> v) & 1:
                                want |= 1 << x
                        assert f.preimage(mask) == want
                    for mask in range(1 << source.n):
                        want = 0
                        for x in range(source.n):
                            if (mask >> x) & 1:
                                want |= 1 << values[x]
                        assert f.image_mask(mask) == want
