"""Inclusions of finite-dimensional matrix algebras, combinatorially.

An embedding of one multi-matrix algebra into another is recorded by its
multiplicity matrix: entry ``mult[i][j]`` counts how many times summand
``i`` of the small algebra sits inside summand ``j`` of the big one.
Ideals on either side are just sets of summands, so both ideal lattices
are boolean, and induction/restriction of ideals reduce to support
computations on the matrix:

* ``induce(m, S)``   = the columns hit by some row in S,
* ``restrict(m, T)`` = the rows whose whole support lies inside T.

Only entry positivity enters; the actual multiplicities and summand
dimensions are metadata.  ``to_inclusion_data`` compiles the pair of
boolean lattices with these maps into a certified connection: the
image and the interior of the row supports, as
``GaloisConnection.from_relation`` builds them.
"""

from functools import cached_property
from itertools import product
from typing import Iterator

from ._kernels import image, inside
from ._record import Record
from .galois import GaloisConnection
from .lattice import boolean_lattice
from .quasiorbit import InclusionData


class MultiplicityInclusion(Record):
    """A multiplicity matrix plus optional summand dimensions.

    Rows index the small algebra's summands, columns the big one's.
    Dimensions never influence the ideal computations.
    """

    _fields = ("mult", "a_dims", "b_dims")
    _defaults = {"a_dims": None, "b_dims": None}

    def __post_init__(self):
        rows = tuple(tuple(int(x) for x in row) for row in self.mult)
        if not rows or not rows[0]:
            raise ValueError("matrix needs at least one row and one column")
        width = len(rows[0])
        if any(len(row) != width for row in rows):
            raise ValueError("ragged matrix")
        if any(x < 0 for row in rows for x in row):
            raise ValueError("multiplicities must be nonnegative")
        object.__setattr__(self, "mult", rows)
        for name, count in (("a_dims", len(rows)), ("b_dims", width)):
            dims = getattr(self, name)
            if dims is None:
                continue
            dims = tuple(int(x) for x in dims)
            if len(dims) != count or any(x < 1 for x in dims):
                raise ValueError(f"{name} must give a positive size per summand")
            object.__setattr__(self, name, dims)

    @property
    def a_summands(self) -> int:
        return len(self.mult)

    @property
    def b_summands(self) -> int:
        return len(self.mult[0])

    @property
    def is_injective(self) -> bool:
        """Whether every small summand survives (no zero row)."""
        return all(any(row) for row in self.mult)

    @cached_property
    def row_supports(self) -> tuple[int, ...]:
        return tuple(
            sum(1 << j for j, x in enumerate(row) if x) for row in self.mult
        )

    @cached_property
    def column_receivers(self) -> tuple[int, ...]:
        return tuple(
            sum(1 << i for i, row in enumerate(self.mult) if row[j])
            for j in range(self.b_summands)
        )


def _check_mask(mask: int, width: int, side: str) -> None:
    if mask < 0 or mask >> width:
        raise ValueError(f"{side}-summand set out of range")


def induce(m: MultiplicityInclusion, summands: int) -> int:
    """Columns reachable from the given rows (masks on both sides)."""
    _check_mask(summands, m.a_summands, "a")
    return image(m.row_supports, summands)


def restrict(m: MultiplicityInclusion, summands: int) -> int:
    """Rows whose support is contained in the given columns."""
    _check_mask(summands, m.b_summands, "b")
    return inside(m.row_supports, summands)


def is_symmetric(m: MultiplicityInclusion, summands: int) -> bool:
    """Whether the rows saturate every column they touch.

    Per column the one-sided products of the corresponding projection
    agree exactly when the projection is zero or full, and full means
    every receiving row is already in the set.
    """
    _check_mask(summands, m.a_summands, "a")
    hit = induce(m, summands)
    for j, receivers in enumerate(m.column_receivers):
        if (hit >> j) & 1 and receivers & ~summands:
            return False
    return True


def to_inclusion_data(m: MultiplicityInclusion) -> InclusionData:
    """Compile the matrix into boolean ideal lattices with i and r.

    i is ``induce`` and r is ``restrict``: the image and the interior of
    the row supports, a relation whose values always land in the
    boolean lattices, so ``from_relation`` certifies the adjunction by
    theorem and no pair scan runs.
    """
    a = boolean_lattice(m.a_summands)
    b = boolean_lattice(m.b_summands)
    return InclusionData(GaloisConnection.from_relation(a, b, m.row_supports))


def binary_matrices(
    max_rows: int, max_cols: int, injective_only: bool = True
) -> Iterator[MultiplicityInclusion]:
    """Every 0/1 matrix up to the given shape, each shape once.

    ``injective_only`` skips matrices with a zero row.
    """
    for k in range(1, max_rows + 1):
        for l in range(1, max_cols + 1):
            rows = [
                row
                for row in product((0, 1), repeat=l)
                if any(row) or not injective_only
            ]
            for entry in product(rows, repeat=k):
                yield MultiplicityInclusion(entry, None, None)


def EX_210() -> MultiplicityInclusion:
    """One summand across two blocks: restriction collapses both columns."""
    return MultiplicityInclusion(((1, 1),), a_dims=(1,), b_dims=(1, 1))


def EX_211() -> MultiplicityInclusion:
    """Two summands into one block: induction collapses both rows."""
    return MultiplicityInclusion(((1,), (1,)), a_dims=(1, 1), b_dims=(2,))


def EX_213() -> MultiplicityInclusion:
    """Two diagonal rows plus one crossing row; the crossing row keeps
    the restricted sets from being closed under joins."""
    return MultiplicityInclusion(
        ((1, 0), (0, 1), (1, 1)), a_dims=(1, 1, 1), b_dims=(2, 2)
    )


def EX_74() -> MultiplicityInclusion:
    """Two rows overlapping in two shared columns; the induced sets are
    not closed under binary meets."""
    return MultiplicityInclusion(
        ((1, 0, 1, 1), (0, 1, 1, 1)), a_dims=(1, 1), b_dims=(1, 1, 2, 2)
    )
