"""Monotone maps and Galois connections between finite lattices.

A connection is an adjoint pair (i, r) with i: A -> B lower and
r: B -> A upper, characterized by i(x) <= y iff x <= r(y). The
adjunction law is checked exactly once per connection: the public
constructor checks the pair it is given, and from_lower/from_upper
check the adjoint they synthesize while synthesizing it, so neither
path trusts an unchecked pair. A third synthesizing path,
from_relation, builds both maps from one relation between the points
of A and of B, and its law is a theorem once every value lands; every
model compiler (matrices, actions, bundles, random seeds) goes through
it, and the two table paths serve tables from outside. Missing
adjoints are reported as values carrying a witness pair, not as
exceptions, since absence is a legitimate outcome of synthesis.
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

    def compose(self, inner: "MonotoneMap") -> "MonotoneMap":
        """self after inner."""
        if inner.target is not self.source and inner.target != self.source:
            raise ShapeMismatch("composition shapes do not line up")
        return MonotoneMap(
            inner.source,
            self.target,
            tuple(self.values[v] for v in inner.values),
        )


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


def is_adjoint_pair(lower: MonotoneMap, upper: MonotoneMap) -> bool:
    """Exhaustive check of i(x) <= y iff x <= r(y)."""
    if lower.source != upper.target or lower.target != upper.source:
        raise ShapeMismatch("maps do not run between the same two lattices")
    return _adjunction_witness(lower, upper) is None


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
    (from_lower, from_upper) or holds by theorem (from_relation), and
    do not check it again.
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
    def from_upper(cls, upper: MonotoneMap) -> "GaloisConnection":
        lower = lower_adjoint(upper)
        if isinstance(lower, AbsenceWitness):
            raise AdjunctionFailure(
                "no lower adjoint: " + lower.reason,
                witness=(lower.x, lower.y),
            )
        # likewise for lower_adjoint
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


class LawReport(Record):
    """Itemized health report of one connection.

    Every field is computed independently so a failure pinpoints the
    broken law. All eight hold for any true adjoint pair; the report
    exists to catch bugs in synthesized or hand-built connections.
    """

    _fields = (
        "monotone",
        "closure_law",
        "interior_law",
        "fixed_point_iso",
        "preservation",
        "unit_laws",
        "sublattice_closure",
        "insertion_adjunctions",
    )

    def items(self):
        return [(name, getattr(self, name)) for name in self._fields]

    @property
    def all_ok(self) -> bool:
        return all(v for _, v in self.items())


def _is_monotone_values(lat_src, lat_tgt, values) -> bool:
    below = lat_src.order.below
    for y in range(lat_src.n):
        for x in range(lat_src.n):
            if (below[y] >> x) & 1 and not lat_tgt.leq(values[x], values[y]):
                return False
    return True


def verify_prop26(gc: GaloisConnection) -> LawReport:
    """Check the eight structural laws of an adjoint pair, itemized.

    Every law is a consequence of what a GaloisConnection certifies on
    construction (both maps monotone, the adjunction law exhaustively),
    so InclusionData does not re-run this; it stays public as the test
    oracle for that certificate and for hand-built or synthesized pairs.
    """
    a, b = gc.lattice_a, gc.lattice_b
    i, r = gc.lower.values, gc.upper.values
    ri = gc.closure_values()
    ir = gc.kernel_values()

    monotone = _is_monotone_values(a, b, i) and _is_monotone_values(b, a, r)

    closure_law = all(a.leq(x, ri[x]) for x in range(a.n)) and all(
        i[ri[x]] == i[x] for x in range(a.n)
    )
    interior_law = all(b.leq(ir[y], y) for y in range(b.n)) and all(
        r[ir[y]] == r[y] for y in range(b.n)
    )

    restricted = [x for x in range(a.n) if ri[x] == x]
    induced = [y for y in range(b.n) if ir[y] == y]
    fixed_point_iso = (
        sorted(i[x] for x in restricted) == induced
        and sorted(r[y] for y in induced) == restricted
        and all(r[i[x]] == x for x in restricted)
        and all(i[r[y]] == y for y in induced)
    )

    preservation = is_join_preserving(gc.lower) and is_meet_preserving(gc.upper)
    unit_laws = i[a.bottom] == b.bottom and r[b.top] == a.top

    res_set = set(restricted)
    ind_set = set(induced)
    sublattice_closure = (
        a.top in res_set
        and b.bottom in ind_set
        and all(a.meet(x, y) in res_set for x in restricted for y in restricted)
        and all(b.join(x, y) in ind_set for x in induced for y in induced)
    )

    insertion_adjunctions = all(
        a.leq(x, j) == a.leq(ri[x], j)
        for x in range(a.n)
        for j in restricted
    ) and all(
        b.leq(k, y) == b.leq(k, ir[y])
        for y in range(b.n)
        for k in induced
    )

    return LawReport(
        monotone=monotone,
        closure_law=closure_law,
        interior_law=interior_law,
        fixed_point_iso=fixed_point_iso,
        preservation=preservation,
        unit_laws=unit_laws,
        sublattice_closure=sublattice_closure,
        insertion_adjunctions=insertion_adjunctions,
    )


def detects(gc: GaloisConnection) -> bool:
    """Nothing above bottom collapses to r(bottom) under r.

    Always agrees with: every y above bottom dominates an induced
    element above bottom. Both routes are computed and compared.
    """
    a, b = gc.lattice_a, gc.lattice_b
    r = gc.upper.values
    ir = gc.kernel_values()
    by_def = all(y == b.bottom or r[y] != r[b.bottom] for y in range(b.n))
    by_char = all(
        y == b.bottom or ir[y] != b.bottom for y in range(b.n)
    )
    if by_def != by_char:
        raise AssertionError(
            "detection characterizations disagree; adjunction data corrupt"
        )
    return by_def


def separates(gc: GaloisConnection) -> bool:
    """r is injective; equivalently every element of B is induced."""
    b = gc.lattice_b
    r = gc.upper.values
    ir = gc.kernel_values()
    by_def = len(set(r)) == b.n
    by_char = all(ir[y] == y for y in range(b.n))
    if by_def != by_char:
        raise AssertionError(
            "separation characterizations disagree; adjunction data corrupt"
        )
    return by_def
