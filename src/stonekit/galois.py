"""Monotone maps and Galois connections between finite lattices.

A connection is an adjoint pair (i, r) with i: A -> B lower and
r: B -> A upper, characterized by i(x) <= y iff x <= r(y). The
adjunction law is checked exactly once per connection: the public
constructor checks the pair it is given, and from_lower checks the
upper adjoint it synthesizes while synthesizing it, so neither path
trusts an unchecked pair. A third path, from_relation, builds both
maps from one relation between the points of A and of B, and its law
is a theorem once every value lands; every model compiler (matrices,
actions, bundles, random seeds) and the locale morphisms of the T33
sweep go through it. from_lower serves only the lower tables of
``galois`` documents, and the constructor the identity connection of a
``lattice`` document. Missing adjoints are reported as values carrying
a witness pair, not as exceptions, since absence is a legitimate
outcome of synthesis.
"""

from __future__ import annotations

from ._kernels import image, inside, monotone_witness
from ._record import Record
from .errors import AdjunctionFailure, NotMonotone, ShapeMismatch
from .lattice import FiniteLattice, _fiber_fold, _preserves


class MonotoneMap(Record):
    """A table-backed monotone map between two finite lattices."""

    _fields = ("source", "target", "values")

    def __post_init__(self):
        n = self.source.n
        if len(self.values) != n:
            raise ShapeMismatch(
                f"expected {n} values, got {len(self.values)}"
            )
        for v in self.values:
            if not (0 <= v < self.target.n):
                raise ShapeMismatch(f"value {v} outside the target carrier")
        bad = monotone_witness(
            self.source.order.below, self.target.order.below, self.values
        )
        if bad is not None:
            raise NotMonotone(f"order not preserved at {bad}", witness=bad)

    @classmethod
    def identity(cls, lat: FiniteLattice) -> "MonotoneMap":
        return cls(lat, lat, tuple(range(lat.n)))

    def __call__(self, x: int) -> int:
        return self.values[x]


def is_join_preserving(f: MonotoneMap) -> bool:
    """Preservation of all joins, the empty one included."""
    return _preserves(f.values, f.source, f.target, "join")


def is_meet_preserving(f: MonotoneMap) -> bool:
    """Preservation of all meets, the empty one included."""
    return _preserves(f.values, f.source, f.target, "meet")


class AbsenceWitness(Record):
    """Proof that a candidate adjoint fails, with the breaking pair.

    ``candidate`` is the best monotone attempt (pointwise extremal
    formula); the adjunction law fails at source element ``x`` and
    target element ``y``.
    """

    _fields = ("candidate", "x", "y", "reason")


def _adjunction_witness(lower: MonotoneMap, upper: MonotoneMap):
    # The first (x, y), x-major, with i(x) <= y and x <= r(y) disagreeing.
    # Per x both sides are masks over B: {y : i(x) <= y} is a row of B's
    # above table, {y : x <= r(y)} the union of the r-fibers of the
    # elements above x (only those in the image of r have any), and the
    # lowest differing bit is the first y.
    a_above = lower.source.order.above()
    b_above = lower.target.order.above()
    fiber = [0] * lower.source.n
    hit = 0
    for y, v in enumerate(upper.values):
        fiber[v] |= 1 << y
        hit |= 1 << v
    for x, ix in enumerate(lower.values):
        diff = b_above[ix] ^ image(fiber, a_above[x] & hit)
        if diff:
            return (x, (diff & -diff).bit_length() - 1)
    return None


def upper_adjoint(lower: MonotoneMap):
    """The upper adjoint of ``lower``, or an AbsenceWitness.

    Candidate: r(y) = join of every x with i(x) <= y. On a finite
    lattice this is the adjoint whenever one exists. Each i-fiber is
    joined once; r(y) then joins the fibers over the elements of B's
    row below y.
    """
    a, b = lower.source, lower.target
    candidate = MonotoneMap(b, a, _fiber_fold(a, "join", lower.values, b.order.below))
    bad = _adjunction_witness(lower, candidate)
    if bad is None:
        return candidate
    return AbsenceWitness(
        candidate, bad[0], bad[1], "lower map does not preserve all joins"
    )


def lower_adjoint(upper: MonotoneMap):
    """The lower adjoint of ``upper``, or an AbsenceWitness.

    Candidate: i(x) = meet of every y with x <= r(y), read through the
    r-fibers over A's row above x, as upper_adjoint does dually.
    """
    b, a = upper.source, upper.target
    candidate = MonotoneMap(a, b, _fiber_fold(b, "meet", upper.values, a.order.above()))
    bad = _adjunction_witness(candidate, upper)
    if bad is None:
        return candidate
    return AbsenceWitness(
        candidate, bad[0], bad[1], "upper map does not preserve all meets"
    )


class GaloisConnection(Record):
    """A certified adjoint pair.

    The constructor checks the law on the pair it is given; the
    synthesizing class methods build a pair whose law was just checked
    (from_lower) or holds by theorem (from_relation), and do not check
    it again.
    """

    _fields = ("lower", "upper")

    def __post_init__(self):
        if (
            self.lower.source != self.upper.target
            or self.lower.target != self.upper.source
        ):
            raise ShapeMismatch("maps do not run between the same two lattices")
        bad = _adjunction_witness(self.lower, self.upper)
        if bad is not None:
            raise AdjunctionFailure(
                f"adjunction law fails at pair {bad}", witness=bad
            )

    @classmethod
    def from_lower(cls, lower: MonotoneMap) -> "GaloisConnection":
        upper = upper_adjoint(lower)
        if isinstance(upper, AbsenceWitness):
            raise AdjunctionFailure(
                "no upper adjoint: " + upper.reason,
                witness=(upper.x, upper.y),
            )
        # upper_adjoint returns a candidate only after _adjunction_witness
        # passed it, so the law holds already
        return cls._trusted(lower, upper)

    @classmethod
    def from_relation(cls, a: FiniteLattice, b: FiniteLattice, rows) -> "GaloisConnection":
        """The connection (image, inside) of a relation between points.

        The points of a lattice are the bits of its meet masks: for a
        down-set lattice, the points of its poset. ``rows[p]`` is the
        mask of the points of ``b`` related to point p of ``a``. Then
        i(x) is the element of ``b`` whose mask is
        ``image(rows, mask(x))`` and r(y) the element of ``a`` whose
        mask is ``inside(rows, mask(y))``, each found in the other
        lattice's mask index.

        Proof that this is a Galois connection once every value lands.
        Any lattice is ordered by inclusion of its meet masks: the mask
        of x /\\ y is mask(x) & mask(y), and masks are distinct, so
        x <= y iff mask(x) & mask(y) = mask(x). On the powersets,
        image(R, U) lies in V iff every row over U lies in V iff U lies
        in inside(R, V). Restricted to the masks of ``a`` and ``b``,
        both sides read i(x) <= y iff x <= r(y), the adjunction law;
        monotonicity follows, since image and inside preserve
        inclusion. So the only certificate is that each image is a
        mask of ``b`` and each interior a mask of ``a``: |A| + |B|
        kernel calls and lookups, no law scan, and the maps and the
        pair are stored trusted.

        A value that lands on no element raises AdjunctionFailure with
        witness ``("lower", x)`` (the image of source element x) or
        ``("upper", y)`` (the interior of target element y); a row
        count that is not the source's point count raises
        ShapeMismatch.
        """
        a_masks, a_index, a_top = a._meet
        b_masks, b_index, _ = b._meet
        if len(rows) != a_top.bit_length():
            raise ShapeMismatch(f"expected one row per source point, got {len(rows)}")
        lower = tuple([b_index.get(image(rows, u), -1) for u in a_masks])
        upper = tuple([a_index.get(inside(rows, v), -1) for v in b_masks])
        for side, values, what in (("lower", lower, "image"), ("upper", upper, "interior")):
            if -1 in values:
                x = values.index(-1)
                raise AdjunctionFailure(
                    f"the {what} of element {x} lands on no element",
                    witness=(side, x),
                )
        return cls._trusted(MonotoneMap._trusted(a, b, lower), MonotoneMap._trusted(b, a, upper))

    @property
    def lattice_a(self) -> FiniteLattice:
        return self.lower.source

    @property
    def lattice_b(self) -> FiniteLattice:
        return self.lower.target

    def closure_values(self) -> tuple[int, ...]:
        """r(i(x)) per element of A; a closure operator on A."""
        return tuple(self.upper.values[v] for v in self.lower.values)

    def kernel_values(self) -> tuple[int, ...]:
        """i(r(y)) per element of B; an interior operator on B."""
        return tuple(self.lower.values[v] for v in self.upper.values)


def detects(gc: GaloisConnection) -> bool:
    """Nothing above bottom collapses to r(bottom) under r.

    Decided from that definition. Equivalently, every y above bottom
    dominates an induced element above bottom (i(r(y)) is not the
    bottom); that reading is the tests' oracle.
    """
    b = gc.lattice_b
    r = gc.upper.values
    return all(y == b.bottom or r[y] != r[b.bottom] for y in range(b.n))


def separates(gc: GaloisConnection) -> bool:
    """r is injective.

    Decided from that definition. Equivalently every element of B is
    induced (i(r(y)) = y); that reading is the tests' oracle.
    """
    return len(set(gc.upper.values)) == gc.lattice_b.n
