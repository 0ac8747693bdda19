"""Monotone maps and Galois connections between finite lattices.

A connection is an adjoint pair (i, r) with i: A -> B lower and
r: B -> A upper, characterized by i(x) <= y iff x <= r(y). Constructors
always re-validate the adjunction; there is no unchecked path. Missing
adjoints are reported as values carrying a witness pair, not as
exceptions, since absence is a legitimate outcome of synthesis.
"""

from __future__ import annotations

from dataclasses import dataclass

from ._kernels import bits, monotone_witness
from .errors import AdjunctionFailure, NotMonotone, ShapeMismatch
from .lattice import FiniteLattice


@dataclass(frozen=True)
class MonotoneMap:
    """A table-backed monotone map between two finite lattices."""

    source: FiniteLattice
    target: FiniteLattice
    values: tuple[int, ...]

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

    def image(self) -> tuple[int, ...]:
        return tuple(sorted(set(self.values)))


def is_join_preserving(f: MonotoneMap) -> bool:
    """Preservation of all joins, the empty one included."""
    if f.values[f.source.bottom] != f.target.bottom:
        return False
    jt_s = f.source.join_table
    jt_t = f.target.join_table
    vals = f.values
    for x in range(f.source.n):
        vx = vals[x]
        for y in range(x + 1, f.source.n):
            if vals[jt_s[x][y]] != jt_t[vx][vals[y]]:
                return False
    return True


def is_meet_preserving(f: MonotoneMap) -> bool:
    """Preservation of all meets, the empty one included."""
    if f.values[f.source.top] != f.target.top:
        return False
    mt_s = f.source.meet_table
    mt_t = f.target.meet_table
    vals = f.values
    for x in range(f.source.n):
        vx = vals[x]
        for y in range(x + 1, f.source.n):
            if vals[mt_s[x][y]] != mt_t[vx][vals[y]]:
                return False
    return True


@dataclass(frozen=True)
class AbsenceWitness:
    """Proof that a candidate adjoint fails, with the breaking pair.

    ``candidate`` is the best monotone attempt (pointwise extremal
    formula); the adjunction law fails at source element ``x`` and
    target element ``y``.
    """

    candidate: MonotoneMap
    x: int
    y: int
    reason: str


def _adjunction_witness(lower: MonotoneMap, upper: MonotoneMap):
    # The first (x, y), x-major, with i(x) <= y and x <= r(y) disagreeing.
    # Per x both sides are masks over B: {y : i(x) <= y} is a row of B's
    # above table, {y : x <= r(y)} the union of the r-fibers of the
    # elements above x, and the lowest differing bit is the first y.
    a_above = lower.source.order.above()
    b_above = lower.target.order.above()
    fiber = [0] * lower.source.n
    for y, v in enumerate(upper.values):
        fiber[v] |= 1 << y
    for x, ix in enumerate(lower.values):
        reach = 0
        for v in bits(a_above[x]):
            reach |= fiber[v]
        diff = b_above[ix] ^ reach
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
    lattice this is the adjoint whenever one exists.
    """
    a, b = lower.source, lower.target
    values = []
    for y in range(b.n):
        values.append(a.big_join(x for x in range(a.n) if b.leq(lower.values[x], y)))
    candidate = MonotoneMap(b, a, tuple(values))
    bad = _adjunction_witness(lower, candidate)
    if bad is None:
        return candidate
    return AbsenceWitness(
        candidate, bad[0], bad[1], "lower map does not preserve all joins"
    )


def lower_adjoint(upper: MonotoneMap):
    """The lower adjoint of ``upper``, or an AbsenceWitness."""
    b, a = upper.source, upper.target
    values = []
    for x in range(a.n):
        values.append(b.big_meet(y for y in range(b.n) if a.leq(x, upper.values[y])))
    candidate = MonotoneMap(a, b, tuple(values))
    bad = _adjunction_witness(candidate, upper)
    if bad is None:
        return candidate
    return AbsenceWitness(
        candidate, bad[0], bad[1], "upper map does not preserve all meets"
    )


@dataclass(frozen=True)
class GaloisConnection:
    """A certified adjoint pair; construction re-validates the law."""

    lower: MonotoneMap
    upper: MonotoneMap

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
        return cls(lower, upper)

    @classmethod
    def from_upper(cls, upper: MonotoneMap) -> "GaloisConnection":
        lower = lower_adjoint(upper)
        if isinstance(lower, AbsenceWitness):
            raise AdjunctionFailure(
                "no lower adjoint: " + lower.reason,
                witness=(lower.x, lower.y),
            )
        return cls(lower, upper)

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


@dataclass(frozen=True)
class FixedPointSublattices:
    """The two fixed-point sets of a connection, certified isomorphic.

    ``restricted`` collects x in A with r(i(x)) = x, ``induced`` the
    y in B with i(r(y)) = y. The maps restrict to mutually inverse
    order bijections between the two.
    """

    connection: GaloisConnection
    restricted: tuple[int, ...]
    induced: tuple[int, ...]

    def __post_init__(self):
        gc = self.connection
        res, ind = set(self.restricted), set(self.induced)
        if {gc.lower.values[x] for x in res} != ind:
            raise AdjunctionFailure("lower map does not carry restricted onto induced")
        if {gc.upper.values[y] for y in ind} != res:
            raise AdjunctionFailure("upper map does not carry induced onto restricted")
        for x in self.restricted:
            if gc.upper.values[gc.lower.values[x]] != x:
                raise AdjunctionFailure(f"restricted element {x} not recovered")
        for y in self.induced:
            if gc.lower.values[gc.upper.values[y]] != y:
                raise AdjunctionFailure(f"induced element {y} not recovered")


def fixed_points(gc: GaloisConnection) -> FixedPointSublattices:
    closure = gc.closure_values()
    kernel = gc.kernel_values()
    restricted = tuple(x for x in range(gc.lattice_a.n) if closure[x] == x)
    induced = tuple(y for y in range(gc.lattice_b.n) if kernel[y] == y)
    return FixedPointSublattices(gc, restricted, induced)


@dataclass(frozen=True)
class LawReport:
    """Itemized health report of one connection.

    Every field is computed independently so a failure pinpoints the
    broken law. All eight hold for any true adjoint pair; the report
    exists to catch bugs in synthesized or hand-built connections.
    """

    monotone: bool
    closure_law: bool
    interior_law: bool
    fixed_point_iso: bool
    preservation: bool
    unit_laws: bool
    sublattice_closure: bool
    insertion_adjunctions: bool

    def items(self):
        return [
            ("monotone", self.monotone),
            ("closure_law", self.closure_law),
            ("interior_law", self.interior_law),
            ("fixed_point_iso", self.fixed_point_iso),
            ("preservation", self.preservation),
            ("unit_laws", self.unit_laws),
            ("sublattice_closure", self.sublattice_closure),
            ("insertion_adjunctions", self.insertion_adjunctions),
        ]

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
        and all(
            a.meet_table[x][y] in res_set for x in restricted for y in restricted
        )
        and all(
            b.join_table[x][y] in ind_set for x in induced for y in induced
        )
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
