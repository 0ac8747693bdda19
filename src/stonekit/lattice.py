"""Finite posets, lattices and frames over integer carriers.

Elements are ints 0..n-1. Order is stored as bitmask rows: ``below[i]``
has bit j set exactly when j <= i. Down-sets, opens and element subsets
are all masks in the same convention. Every value here is immutable.
Operations build new objects, while what a lattice certifies about
itself (its frame witness, its prime spectrum) is computed on first use
and cached on the instance, so every caller shares one copy.

The element count is soft-capped (default 4096, override with the
STONE_MAX_LATTICE environment variable, read per call). Meet and join
tables are materialized up front, so lattices near the cap are memory
hungry; the sizes this package sweeps stay far below it.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import cached_property

from . import _accel
from ._kernels import bits
from .errors import LatticeTooLarge, NotALattice, NotAPoset

DEFAULT_MAX_LATTICE = 4096


def max_lattice_size() -> int:
    raw = os.environ.get("STONE_MAX_LATTICE", "")
    if raw:
        try:
            return max(1, int(raw))
        except ValueError:
            pass
    return DEFAULT_MAX_LATTICE


@dataclass(frozen=True)
class FinitePoset:
    """A finite poset as reflexive-transitive ``below`` masks."""

    n: int
    below: tuple[int, ...]

    def __post_init__(self):
        if self.n != len(self.below):
            raise NotAPoset(f"expected {self.n} rows, got {len(self.below)}")
        bad = _accel.check_poset(list(self.below))
        if bad is not None:
            reason, i, j = bad
            raise NotAPoset(f"{reason} at elements ({i}, {j})")

    @classmethod
    def _trusted(cls, below) -> "FinitePoset":
        """A poset from rows already known to encode a partial order.

        Skips ``check_poset``; each caller says why its rows qualify.
        """
        poset = object.__new__(cls)
        object.__setattr__(poset, "n", len(below))
        object.__setattr__(poset, "below", tuple(below))
        return poset

    @classmethod
    def from_pairs(cls, n: int, pairs) -> "FinitePoset":
        """Poset generated by ``i <= j`` pairs (closure is taken here)."""
        below = [1 << i for i in range(n)]
        for i, j in pairs:
            if not (0 <= i < n and 0 <= j < n):
                raise NotAPoset(f"pair ({i}, {j}) out of range for n={n}")
            below[j] |= 1 << i
        return cls(n, tuple(_accel.closure(below)))

    @classmethod
    def chain(cls, n: int) -> "FinitePoset":
        return cls(n, tuple((1 << (i + 1)) - 1 for i in range(n)))

    @classmethod
    def antichain(cls, n: int) -> "FinitePoset":
        return cls(n, tuple(1 << i for i in range(n)))

    def leq(self, i: int, j: int) -> bool:
        return (self.below[j] >> i) & 1 == 1

    def above(self) -> tuple[int, ...]:
        """The transposed masks: ``above[i]`` has bit j set when i <= j.

        Computed once per poset, since closures ask for it per call.
        """
        return self._above

    @cached_property
    def _above(self) -> tuple[int, ...]:
        return tuple(_accel.transpose(list(self.below)))

    def is_down_closed(self, mask: int) -> bool:
        for i in bits(mask):
            if self.below[i] & ~mask:
                return False
        return True

    def down_closure(self, mask: int) -> int:
        out = mask
        for i in bits(mask):
            out |= self.below[i]
        return out

    def up_closure(self, mask: int) -> int:
        out = mask
        above = self.above()
        for i in bits(mask):
            out |= above[i]
        return out

    def subposet(self, elements) -> "FinitePoset":
        """Induced subposet; element k is ``elements[k]`` of the parent.

        The restriction of a certified order to distinct points is
        always a poset, so the result skips ``check_poset``, as
        ``FiniteT0Space.from_poset`` skips its re-validation; only the
        points themselves are checked.
        """
        elements = list(elements)
        pos = {e: k for k, e in enumerate(elements)}
        if len(pos) != len(elements) or not all(0 <= e < self.n for e in elements):
            raise NotAPoset("subposet points must be distinct points of the poset")
        below = []
        for e in elements:
            m = 0
            for f in bits(self.below[e]):
                if f in pos:
                    m |= 1 << pos[f]
            below.append(m)
        return FinitePoset._trusted(below)

    def covers(self) -> list[tuple[int, int]]:
        """Pairs (i, j) with j covering i, for rendering."""
        out = []
        for j in range(self.n):
            strict = self.below[j] & ~(1 << j)
            for i in bits(strict):
                between = strict & ~self.below[i]
                if all((self.below[k] >> i) & 1 == 0 for k in bits(between)):
                    out.append((i, j))
        return out

    def minimal_elements(self) -> list[int]:
        return [i for i in range(self.n) if self.below[i] == 1 << i]

    def maximal_elements(self) -> list[int]:
        above = self.above()
        return [i for i in range(self.n) if above[i] == 1 << i]


@dataclass(frozen=True)
class FiniteLattice:
    """A finite bounded lattice with materialized meet and join tables.

    ``labels`` optionally names each element (down-set masks for Birkhoff
    duals, ambient indices for sublattices); it never affects semantics.
    """

    order: FinitePoset
    meet_table: tuple[tuple[int, ...], ...]
    join_table: tuple[tuple[int, ...], ...]
    bottom: int
    top: int
    labels: tuple | None = None

    def __post_init__(self):
        n = self.order.n
        if len(self.meet_table) != n or len(self.join_table) != n:
            raise NotALattice("table size does not match the carrier")
        if self.labels is not None and len(self.labels) != n:
            raise NotALattice("label count does not match the carrier")

    @property
    def n(self) -> int:
        return self.order.n

    def leq(self, x: int, y: int) -> bool:
        return self.order.leq(x, y)

    def meet(self, x: int, y: int) -> int:
        return self.meet_table[x][y]

    def join(self, x: int, y: int) -> int:
        return self.join_table[x][y]

    def big_meet(self, xs) -> int:
        out = self.top
        for x in xs:
            out = self.meet_table[out][x]
        return out

    def big_join(self, xs) -> int:
        out = self.bottom
        for x in xs:
            out = self.join_table[out][x]
        return out

    def label(self, x: int):
        return self.labels[x] if self.labels is not None else x

    def index_of_label(self, label) -> int:
        """The first element carrying ``label``; ValueError if none does."""
        if self.labels is None:
            return int(label)
        try:
            return self._label_index[label]
        except KeyError:
            raise ValueError(f"no element is labeled {label!r}") from None

    @cached_property
    def _label_index(self) -> dict:
        index: dict = {}
        for k, label in enumerate(self.labels):
            index.setdefault(label, k)
        return index

    @cached_property
    def frame_witness(self) -> "FrameWitness":
        """The distributivity certificate, computed once; see is_frame."""
        if _birkhoff_distributive(self):
            return FrameWitness(self, True)
        witness = _accel.distributive_witness(self.meet_table, self.join_table)
        if witness is None:
            raise AssertionError("Birkhoff count and distributivity scan disagree")
        return FrameWitness(self, False, witness)

    @cached_property
    def prime_spectrum(self):
        """The prime spectrum, built once; see spectrum.primes."""
        from .spectrum import _prime_spectrum

        return _prime_spectrum(self)


@dataclass(frozen=True)
class FrameWitness:
    """Outcome of the distributivity check of one lattice.

    ``witness`` is the first breaking triple of the exhaustive scan, or
    None for a frame.
    """

    lattice: FiniteLattice
    distributive: bool
    witness: tuple[int, int, int] | None = None


def validate_lattice(order: FinitePoset, labels=None) -> FiniteLattice:
    """Certify that ``order`` is a lattice and build the table form.

    Raises NotALattice with a witness pair when some meet or join is
    missing, and LatticeTooLarge past the soft cap.
    """
    cap = max_lattice_size()
    if order.n > cap:
        raise LatticeTooLarge(f"{order.n} elements exceeds the cap of {cap}")
    if order.n == 0:
        raise NotALattice("empty carrier has no bounds", witness=None)
    meet, join, bad = _accel.bound_tables(list(order.below))
    if bad is not None:
        kind, x, y = bad
        raise NotALattice(f"elements {x} and {y} have no {kind}", witness=bad)
    bottom = 0
    top = 0
    for x in range(order.n):
        bottom = meet[bottom][x]
        top = join[top][x]
    return FiniteLattice(
        order=order,
        meet_table=tuple(tuple(row) for row in meet),
        join_table=tuple(tuple(row) for row in join),
        bottom=bottom,
        top=top,
        labels=tuple(labels) if labels is not None else None,
    )


def big_meet(lat: FiniteLattice, xs) -> int:
    """Meet of any element subset; the empty subset gives the top."""
    return lat.big_meet(xs)


def big_join(lat: FiniteLattice, xs) -> int:
    """Join of any element subset; the empty subset gives the bottom."""
    return lat.big_join(xs)


def join_irreducibles(lat: FiniteLattice) -> tuple[int, ...]:
    """Elements with exactly one lower cover, ascending.

    x qualifies when the join of everything strictly below it falls
    short of x; the bottom, an empty join, never does. O(n^2).
    """
    below, jt = lat.order.below, lat.join_table
    out = []
    for x in range(lat.n):
        j = lat.bottom
        for y in bits(below[x] & ~(1 << x)):
            j = jt[j][y]
        if j != x:
            out.append(x)
    return tuple(out)


def meet_irreducibles(lat: FiniteLattice) -> tuple[int, ...]:
    """Elements with exactly one upper cover, ascending; the dual of
    join_irreducibles, so the top never qualifies. O(n^2)."""
    above, mt = lat.order.above(), lat.meet_table
    out = []
    for x in range(lat.n):
        m = lat.top
        for y in bits(above[x] & ~(1 << x)):
            m = mt[m][y]
        if m != x:
            out.append(x)
    return tuple(out)


def _birkhoff_distributive(lat: FiniteLattice) -> bool:
    # x -> {join-irreducibles below x} embeds any finite lattice into the
    # down-sets of its join-irreducibles, and it is onto exactly when the
    # lattice is distributive (Birkhoff). So counting those down-sets,
    # stopping past n, decides distributivity in O(n^2).
    sub = lat.order.subposet(join_irreducibles(lat))
    masks = _accel.downset_masks(list(sub.below), lat.n)
    return masks is not None and len(masks) == lat.n


def is_frame(lat: FiniteLattice) -> FrameWitness:
    """Certify the distributive law, once per lattice.

    On finite carriers distributivity over binary joins is the whole
    frame condition, since every join is a finite one. The certificate
    comes from Birkhoff's count (a lattice is distributive iff it has as
    many elements as its join-irreducibles have down-sets) and is cached
    on the lattice, so repeated calls return the same object. Only on
    failure does the exhaustive triple scan run, to find the first
    breaking triple as the witness; the scan
    (``_kernels.distributive_witness``) stays the test oracle.
    """
    return lat.frame_witness


def downset_lattice(poset: FinitePoset, masks=None) -> FiniteLattice:
    """The lattice of down-sets, labeled by their masks.

    Always a frame, yet not marked as one here: is_frame certifies it
    like any other lattice, and tests confirm it against the scan. Each
    call builds a new lattice; opens_lattice keeps one per space and
    passes the space's opens as ``masks``, the ascending down-sets of
    ``poset``, so they are not enumerated again. Set inclusion is always
    a partial order, so the inclusion order skips ``check_poset``, as
    ``FinitePoset.subposet`` does.
    """
    if masks is None:
        cap = max_lattice_size()
        masks = _accel.downset_masks(list(poset.below), cap)
        if masks is None:
            raise LatticeTooLarge(
                f"more than {cap} down-sets; raise STONE_MAX_LATTICE to allow"
            )
    index = {m: k for k, m in enumerate(masks)}
    n = len(masks)
    below = []
    for m in masks:
        row = 0
        for k, other in enumerate(masks):
            if other & ~m == 0:
                row |= 1 << k
        below.append(row)
    order = FinitePoset._trusted(below)
    meet = tuple(
        tuple(index[a & b] for b in masks) for a in masks
    )
    join = tuple(
        tuple(index[a | b] for b in masks) for a in masks
    )
    full = masks[-1]
    return FiniteLattice(
        order=order,
        meet_table=meet,
        join_table=join,
        bottom=index[0],
        top=index[full],
        labels=tuple(masks),
    )


def boolean_lattice(k: int) -> FiniteLattice:
    """All subsets of k points, labeled by subset masks."""
    return downset_lattice(FinitePoset.antichain(k))


def sublattice(lat: FiniteLattice, elements) -> FiniteLattice:
    """The induced order on ``elements``, certified as a lattice.

    Labels are the ambient element indices. Meets and joins are those of
    the subposet, which need not agree with the ambient ones.
    """
    elements = sorted(set(elements))
    if not elements:
        raise NotALattice("empty carrier has no bounds")
    sub = lat.order.subposet(elements)
    return validate_lattice(sub, labels=elements)


def fixed_point_lattice(
    lat: FiniteLattice, elements, meet_fix=None, join_fix=None
) -> FiniteLattice:
    """A sublattice read straight off the ambient tables.

    ``elements`` are ascending ambient indices. The meet of two of them
    is ``meet_fix`` applied to their ambient meet (the ambient meet
    itself when None), and likewise for joins, so the caller states how
    the subset is closed: the fixed points of a closure operator keep
    ambient meets and close joins, those of an interior operator the
    dual, and a subset closed under both keeps both. The result equals
    ``sublattice(lat, elements)`` whenever that description is true, at
    O(k^2) table lookups with no bound search; an operation that leaves
    the subset raises NotALattice.
    """
    elements = tuple(elements)
    if not elements:
        raise NotALattice("empty carrier has no bounds")
    pos = {e: k for k, e in enumerate(elements)}

    def table(ambient, fix, kind):
        # ambient index -> position of its (fixed) image, -1 outside
        fix = range(lat.n) if fix is None else fix
        to_pos = [pos.get(fix[v], -1) for v in range(lat.n)]
        rows = tuple(
            tuple(map(to_pos.__getitem__, map(ambient[a].__getitem__, elements)))
            for a in elements
        )
        for a, row in zip(elements, rows):
            if -1 in row:
                b = elements[row.index(-1)]
                raise NotALattice(
                    f"the {kind} of {a} and {b} leaves the subset", witness=(a, b)
                )
        return rows

    meet = table(lat.meet_table, meet_fix, "meet")
    join = table(lat.join_table, join_fix, "join")
    bottom = top = 0
    for x in range(len(elements)):
        bottom = meet[bottom][x]
        top = join[top][x]
    return FiniteLattice(
        order=lat.order.subposet(elements),
        meet_table=meet,
        join_table=join,
        bottom=bottom,
        top=top,
        labels=elements,
    )


def _invariant_keys(poset: FinitePoset):
    above = poset.above()
    return [
        (poset.below[i].bit_count(), above[i].bit_count())
        for i in range(poset.n)
    ]


def poset_isomorphism(a: FinitePoset, b: FinitePoset):
    """An order isomorphism a -> b as a tuple, or None.

    Backtracking over degree-compatible candidates; fine at the sizes
    this package handles, not meant for large carriers.
    """
    if a.n != b.n:
        return None
    ka = _invariant_keys(a)
    kb = _invariant_keys(b)
    if sorted(ka) != sorted(kb):
        return None
    candidates = [
        [j for j in range(b.n) if kb[j] == ka[i]] for i in range(a.n)
    ]
    order = sorted(range(a.n), key=lambda i: len(candidates[i]))
    assign = [-1] * a.n
    used = [False] * b.n

    def place(k: int) -> bool:
        if k == a.n:
            return True
        i = order[k]
        for j in candidates[i]:
            if used[j]:
                continue
            ok = True
            for prev in order[:k]:
                if a.leq(i, prev) != b.leq(j, assign[prev]) or a.leq(
                    prev, i
                ) != b.leq(assign[prev], j):
                    ok = False
                    break
            if ok:
                assign[i] = j
                used[j] = True
                if place(k + 1):
                    return True
                assign[i] = -1
                used[j] = False
        return False

    return tuple(assign) if place(0) else None


def lattice_isomorphism(a: FiniteLattice, b: FiniteLattice):
    """An isomorphism between the underlying orders, or None.

    For lattices an order isomorphism automatically respects meets and
    joins, so no table check is needed.
    """
    return poset_isomorphism(a.order, b.order)
