"""Finite posets, lattices and frames over integer carriers.

Elements are ints 0..n-1. Order is stored as bitmask rows: ``below[i]``
has bit j set exactly when j <= i. Down-sets, opens and element subsets
are all masks in the same convention. Every value here is immutable.
Operations build new objects, while what a lattice certifies about
itself (its frame witness, its prime spectrum) is computed on first use
and cached on the instance, so every caller shares one copy.

Meets and joins are mask operations plus one lookup (see
FiniteLattice). Every frame this package builds is the lattice of
down-sets of its join-irreducibles (Birkhoff), so down-set, opens and
boolean lattices carry their ascending masks and nothing else: meet is
``&``, join is ``|`` and order is inclusion. No lattice holds an n x n
table; ``meet_table`` and ``join_table`` appear on first read.
validate_lattice certifies an arbitrary order with the same lookups
that answer its meets and joins.

The element count is soft-capped (default 4096, override with the
STONE_MAX_LATTICE environment variable, read per call).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import repeat
from operator import and_, or_

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
    def _trusted(cls, below, above=None) -> "FinitePoset":
        """A poset from rows already known to encode a partial order.

        Skips ``check_poset``; each caller says why its rows qualify.
        ``above``, when the caller has it, is kept as the transpose.
        """
        poset = object.__new__(cls)
        object.__setattr__(poset, "n", len(below))
        object.__setattr__(poset, "below", tuple(below))
        if above is not None:
            poset.__dict__["_above"] = tuple(above)
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
        kept = sum(1 << e for e in elements)
        below = []
        for e in elements:
            m = 0
            t = self.below[e] & kept
            while t:
                low = t & -t
                t ^= low
                m |= 1 << pos[low.bit_length() - 1]
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


class FiniteLattice:
    """A finite bounded lattice: its order, its bounds and its labels.

    Meet and join are one mask operation plus one lookup. Every element
    has a meet mask and a join mask: meet(x, y) is the element whose
    meet mask is ``mm[x] & mm[y]``, and join(x, y) the element whose
    join mask is ``jm[x] | jm[y]``.

    * Any lattice can use its ``below`` rows as meet masks, since the
      down-set of x /\\ y is the intersection of the two down-sets, and
      the complements of its ``above`` rows as join masks.
    * A down-set frame (downset_lattice) uses its labels, the down-sets
      themselves, for both: by Birkhoff, meet is intersection and join
      is union there.
    * A fixed-point lattice (fixed_point_lattice) keeps the ambient
      masks on the side whose operation it shares with the ambient
      lattice.

    ``meet_table`` and ``join_table`` are built on first read, for the
    definitional scans that serve as oracles and for the distributivity
    witness of a non-frame.

    ``labels`` optionally names each element (down-set masks for
    Birkhoff duals, ambient indices for sublattices); it never affects
    semantics. A lattice is determined by its order, so two lattices
    are equal when their orders and labels are. Instances are
    immutable; what a lattice certifies about itself is cached on it.
    """

    def __init__(self, order, labels=None):
        """The lattice of ``order``, which must be a lattice order
        (validate_lattice certifies one): meet masks are its ``below``
        rows, join masks the complements of its ``above`` rows, and the
        bounds are read off them."""
        self._set(order, labels, *_order_masks(order))

    @classmethod
    def _from_masks(cls, order, labels, meet_masks, meet_index, join_masks, join_index):
        """The lattice whose operations the given masks encode."""
        lat = object.__new__(cls)
        lat._set(order, labels, meet_masks, meet_index, join_masks, join_index)
        return lat

    def _set(self, order, labels, meet_masks, meet_index, join_masks, join_index):
        if labels is not None and len(labels) != order.n:
            raise NotALattice("label count does not match the carrier")
        # the bounds are the meet and the join of everything
        self.__dict__.update(
            order=order,
            n=order.n,
            bottom=meet_index[reduce(and_, meet_masks)],
            top=join_index[reduce(or_, join_masks)],
            labels=labels,
            _meet_masks=meet_masks,
            _meet_index=meet_index,
            _join_masks=join_masks,
            _join_index=join_index,
        )
        if meet_masks is order.below:
            self.__dict__["_row_index"] = meet_index

    def __setattr__(self, name, value):
        raise AttributeError(f"FiniteLattice is immutable; cannot set {name!r}")

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, FiniteLattice):
            return NotImplemented
        return self.order == other.order and self.labels == other.labels

    def __hash__(self):
        return hash((self.order.below, self.labels))

    def __repr__(self):
        return f"FiniteLattice(n={self.n}, bottom={self.bottom}, top={self.top}, labels={self.labels!r})"

    def leq(self, x: int, y: int) -> bool:
        return (self.order.below[y] >> x) & 1 == 1

    def meet(self, x: int, y: int) -> int:
        mm = self._meet_masks
        return self._meet_index[mm[x] & mm[y]]

    def join(self, x: int, y: int) -> int:
        jm = self._join_masks
        return self._join_index[jm[x] | jm[y]]

    def big_meet(self, xs) -> int:
        mm = self._meet_masks
        acc = mm[self.top]
        for x in xs:
            acc &= mm[x]
        return self._meet_index[acc]

    def big_join(self, xs) -> int:
        jm = self._join_masks
        acc = jm[self.bottom]
        for x in xs:
            acc |= jm[x]
        return self._join_index[acc]

    def meet_row(self, x: int) -> tuple[int, ...]:
        """The meet of x with every element, in element order."""
        mm = self._meet_masks
        return tuple(map(self._meet_index.__getitem__, map(and_, repeat(mm[x]), mm)))

    def join_row(self, x: int) -> tuple[int, ...]:
        """The join of x with every element, in element order."""
        jm = self._join_masks
        return tuple(map(self._join_index.__getitem__, map(or_, repeat(jm[x]), jm)))

    @cached_property
    def meet_table(self) -> tuple[tuple[int, ...], ...]:
        return tuple(map(self.meet_row, range(self.n)))

    @cached_property
    def join_table(self) -> tuple[tuple[int, ...], ...]:
        return tuple(map(self.join_row, range(self.n)))

    @cached_property
    def _row_index(self) -> dict[int, int]:
        return {row: k for k, row in enumerate(self.order.below)}

    @cached_property
    def _above_index(self) -> dict[int, int]:
        return {row: k for k, row in enumerate(self.order.above())}

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


def _order_masks(order: FinitePoset):
    # The meet and join masks of a lattice order with their indices:
    # below rows, and the complements of the above rows.
    full = (1 << order.n) - 1
    join_masks = tuple(full ^ row for row in order.above())
    return (
        order.below,
        {row: k for k, row in enumerate(order.below)},
        join_masks,
        {m: k for k, m in enumerate(join_masks)},
    )


def validate_lattice(order: FinitePoset, labels=None) -> FiniteLattice:
    """Certify that ``order`` is a lattice with the lookups that answer
    its meets and joins.

    x /\\ y exists exactly when the common lower set of x and y is some
    element's down-set, that is when ``below[x] & below[y]`` is a key of
    the meet index FiniteLattice.meet reads; dually for joins. Pairs
    are walked x ascending, y >= x, meet before join (the order of the
    ``bound_tables`` oracle), so NotALattice names the pair that
    ``bound_tables`` would. O(n^2) mask operations and lookups; the
    indices built here are the lattice's own.

    Raises NotALattice with a witness pair when some meet or join is
    missing, and LatticeTooLarge past the soft cap.
    """
    cap = max_lattice_size()
    if order.n > cap:
        raise LatticeTooLarge(f"{order.n} elements exceeds the cap of {cap}")
    if order.n == 0:
        raise NotALattice("empty carrier has no bounds", witness=None)
    masks = _order_masks(order)
    bad = _missing_bound(*masks)
    if bad is not None:
        kind, x, y = bad
        raise NotALattice(f"elements {x} and {y} have no {kind}", witness=bad)
    return FiniteLattice._from_masks(
        order, tuple(labels) if labels is not None else None, *masks
    )


def _missing_bound(meet_masks, meet_index, join_masks, join_index):
    # Row by row, all lookups of row x at once; only a failing row is
    # walked pair by pair, for its first missing bound.
    for x in range(len(meet_masks)):
        meets = list(map(and_, repeat(meet_masks[x]), meet_masks[x:]))
        joins = list(map(or_, repeat(join_masks[x]), join_masks[x:]))
        if all(map(meet_index.__contains__, meets)) and all(
            map(join_index.__contains__, joins)
        ):
            continue
        for y, m, j in zip(range(x, len(meet_masks)), meets, joins):
            if m not in meet_index:
                return ("meet", x, y)
            if j not in join_index:
                return ("join", x, y)
    return None


def big_meet(lat: FiniteLattice, xs) -> int:
    """Meet of any element subset; the empty subset gives the top."""
    return lat.big_meet(xs)


def big_join(lat: FiniteLattice, xs) -> int:
    """Join of any element subset; the empty subset gives the bottom."""
    return lat.big_join(xs)


def join_irreducibles(lat: FiniteLattice) -> tuple[int, ...]:
    """Elements with exactly one lower cover, ascending.

    x qualifies when the elements strictly below it form the down-set
    of a single element, its one lower cover: one row lookup per
    element. The bottom, with nothing below it, never does.
    """
    rows = lat._row_index
    return tuple(
        x for x, row in enumerate(lat.order.below) if row ^ (1 << x) in rows
    )


def meet_irreducibles(lat: FiniteLattice) -> tuple[int, ...]:
    """Elements with exactly one upper cover, ascending; the dual of
    join_irreducibles, so the top never qualifies."""
    rows = lat._above_index
    return tuple(
        x for x, row in enumerate(lat.order.above()) if row ^ (1 << x) in rows
    )


def _birkhoff_distributive(lat: FiniteLattice) -> bool:
    # x -> {join-irreducibles below x} embeds any finite lattice into the
    # down-sets of its join-irreducibles, and it is onto exactly when the
    # lattice is distributive (Birkhoff). So counting those down-sets,
    # stopping past n, decides distributivity.
    sub = lat.order.subposet(join_irreducibles(lat))
    masks = _accel.downset_masks(list(sub.below), lat.n)
    return masks is not None and len(masks) == lat.n


def is_frame(lat: FiniteLattice) -> FrameWitness:
    """Certify the distributive law, once per lattice.

    On finite carriers distributivity over binary joins is the whole
    frame condition, since every join is a finite one. The certificate
    comes from Birkhoff's count (a lattice is distributive iff it has as
    many elements as its join-irreducibles have down-sets), with the
    join-irreducibles read off the order rows, and is cached on the
    lattice, so repeated calls return the same object. It is computed
    for every lattice, down-set frames included; no builder marks a
    lattice as a frame. Only on failure does the exhaustive triple scan
    run, to find the first breaking triple as the witness; the scan
    (``_kernels.distributive_witness``) stays the test oracle.
    """
    return lat.frame_witness


def downset_lattice(poset: FinitePoset, masks=None) -> FiniteLattice:
    """The lattice of down-sets, labeled by their masks.

    Meet is intersection and join is union of the labels, so the
    lattice carries its ascending masks and one mask -> index dict and
    builds no table. Always a frame, yet not marked as one here:
    is_frame certifies it like any other lattice, and tests confirm it
    against the scan. Each call builds a new lattice; opens_lattice
    keeps one per space and passes the space's opens as ``masks``, the
    ascending down-sets of ``poset``, so they are not enumerated again.
    """
    if masks is None:
        cap = max_lattice_size()
        masks = _accel.downset_masks(list(poset.below), cap)
        if masks is None:
            raise LatticeTooLarge(
                f"more than {cap} down-sets; raise STONE_MAX_LATTICE to allow"
            )
    masks = tuple(masks)
    index = {m: k for k, m in enumerate(masks)}
    below, above = _inclusion_rows(masks, index)
    lat = FiniteLattice._from_masks(
        FinitePoset._trusted(below, above), masks, masks, index, masks, index
    )
    lat.__dict__["_label_index"] = index
    return lat


def _inclusion_rows(masks, index):
    # The below and above rows of inclusion on the ascending down-sets.
    # A down-set strictly inside m misses some maximal point p of m, so
    # it lies inside m - p, which is a down-set exactly when p is
    # maximal: the row of m is m itself plus the rows of the down-sets
    # m - p, all earlier in ascending order. Dually, the up-row of m
    # collects those of the down-sets m + p. O(n * points) mask
    # operations and lookups, against n^2 subset tests.
    n = len(masks)
    below = [0] * n
    for k, m in enumerate(masks):
        row = 1 << k
        t = m
        while t:
            low = t & -t
            t ^= low
            j = index.get(m ^ low)
            if j is not None:
                row |= below[j]
        below[k] = row
    full = masks[-1]
    above = [0] * n
    for k in range(n - 1, -1, -1):
        m = masks[k]
        row = 1 << k
        t = full ^ m
        while t:
            low = t & -t
            t ^= low
            j = index.get(m | low)
            if j is not None:
                row |= above[j]
        above[k] = row
    return below, above


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
    """A sublattice read straight off the ambient masks.

    ``elements`` are ascending ambient indices. The meet of two of them
    is ``meet_fix`` applied to their ambient meet (the ambient meet
    itself when None), and likewise for joins, so the caller states how
    the subset is closed: the fixed points of a closure operator keep
    ambient meets and close joins, those of an interior operator the
    dual, and a subset closed under both keeps both. The result equals
    ``sublattice(lat, elements)`` whenever that description is true, at
    O(k^2) mask operations with no bound search and no table; an
    operation that leaves the subset raises NotALattice, with the first
    such pair, meets before joins, as the witness.

    A side that keeps the ambient operation keeps the ambient masks of
    its elements; a side that applies a fix reads the rows of the
    induced order instead.
    """
    elements = tuple(elements)
    if not elements:
        raise NotALattice("empty carrier has no bounds")
    for side, fix in (("meet", meet_fix), ("join", join_fix)):
        bad = escaping_pair(lat, side, elements, fix)
        if bad is not None:
            a, b = bad
            raise NotALattice(f"the {side} of {a} and {b} leaves the subset", witness=bad)
    order = lat.order.subposet(elements)
    if meet_fix is None:
        meet_masks = tuple(lat._meet_masks[e] for e in elements)
    else:
        meet_masks = order.below
    if join_fix is None:
        join_masks = tuple(lat._join_masks[e] for e in elements)
    else:
        full = (1 << len(elements)) - 1
        join_masks = tuple(full ^ row for row in order.above())
    out = FiniteLattice._from_masks(
        order,
        elements,
        meet_masks,
        {m: k for k, m in enumerate(meet_masks)},
        join_masks,
        {m: k for k, m in enumerate(join_masks)},
    )
    out.__dict__["_label_index"] = {e: k for k, e in enumerate(elements)}
    return out


def escaping_pair(lat: FiniteLattice, side: str, elements, fix=None):
    """The first pair (a, b) of ``elements``, a-major in their order,
    whose ambient ``side`` ("meet" or "join"), followed by ``fix`` when
    given, lands outside them; None when the subset is closed.

    The scan covers every ordered pair, one mask row per a. For a
    commutative operation that keeps each element of the subset, the
    first escaping pair of ascending elements has a < b.
    """
    if side == "meet":
        masks, index, op = lat._meet_masks, lat._meet_index, and_
    else:
        masks, index, op = lat._join_masks, lat._join_index, or_
    inside = set(elements)
    sub = [masks[e] for e in elements]
    for a in elements:
        landed = list(map(index.__getitem__, map(op, repeat(masks[a]), sub)))
        if fix is not None:
            landed = list(map(fix.__getitem__, landed))
        if not inside.issuperset(landed):
            return a, next(b for b, v in zip(elements, landed) if v not in inside)
    return None


def _invariant_keys(poset: FinitePoset):
    above = poset.above()
    return [
        (poset.below[i].bit_count(), above[i].bit_count())
        for i in range(poset.n)
    ]


def _isomorphisms(a: FinitePoset, b: FinitePoset):
    """Every order isomorphism a -> b as a tuple, in lexicographic order.

    Backtracking over masks: points 0, 1, ... of a are assigned in turn,
    each to an unused point of b with the same invariant keys that is
    related to the images already placed exactly as the point is
    related to their preimages. Images are tried in ascending order,
    so the isomorphisms come out in lexicographic order.
    """
    n = a.n
    ka, kb = _invariant_keys(a), _invariant_keys(b)
    if n != b.n or sorted(ka) != sorted(kb):
        return
    candidates = [[v for v in range(n) if kb[v] == key] for key in ka]
    below_a, above_a = a.below, a.above()
    below_b, above_b = b.below, b.above()
    perm = [0] * n

    def place(k: int, used: int):
        if k == n:
            yield tuple(perm)
            return
        placed = (1 << k) - 1
        down = up = 0
        for j in bits(below_a[k] & placed):
            down |= 1 << perm[j]
        for j in bits(above_a[k] & placed):
            up |= 1 << perm[j]
        for v in candidates[k]:
            if (
                not (used >> v) & 1
                and below_b[v] & used == down
                and above_b[v] & used == up
            ):
                perm[k] = v
                yield from place(k + 1, used | (1 << v))

    yield from place(0, 0)


def poset_isomorphism(a: FinitePoset, b: FinitePoset):
    """The lexicographically first order isomorphism a -> b as a tuple,
    or None; fine at the sizes this package handles, not meant for
    large carriers."""
    return next(_isomorphisms(a, b), None)


def order_automorphisms(poset: FinitePoset) -> list[tuple[int, ...]]:
    """Every permutation of the points preserving the order both ways,
    in lexicographic order, the order of ``itertools.permutations``."""
    return list(_isomorphisms(poset, poset))


def lattice_isomorphism(a: FiniteLattice, b: FiniteLattice):
    """An isomorphism between the underlying orders, or None.

    For lattices an order isomorphism automatically respects meets and
    joins, so no table check is needed.
    """
    return poset_isomorphism(a.order, b.order)
