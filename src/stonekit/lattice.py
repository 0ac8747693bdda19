"""Finite posets, lattices and frames over integer carriers.

Elements are ints 0..n-1. Order is stored as bitmask rows: ``below[i]``
has bit j set exactly when j <= i. Down-sets, opens and element subsets
are all masks in the same convention. Every value here is immutable.
Operations build new objects, while what a lattice certifies about
itself (its frame witness, its prime spectrum) is computed on first use
and cached on the instance, so every caller shares one copy.

Meets and joins are one ``&`` on masks plus one lookup (see
FiniteLattice): a lattice has two sides of one shape, its meet side and
its join side, and a join is a meet of the dual side, whose masks are
co-masks. So every algorithm that has a meet and a join form is written
once, over a side. Every frame this package builds is the lattice of
down-sets of its join-irreducibles (Birkhoff), so down-set, opens and
boolean lattices carry their ascending masks as meet masks and their
complements as join co-masks: meet is intersection, join is union and
order is inclusion. Every lattice computes its own Birkhoff dual, the
down-sets of its meet-irreducibles, once; its frame certificate and
its prime spectrum both read it. No lattice holds an n x n table;
``meet_table`` and ``join_table`` appear on first read.

FiniteLattice is a record of its order and labels, and its constructor
certifies an arbitrary order with the same lookups that answer its
meets and joins. The builders whose orders are lattices by construction
(downset_lattice; fixed_point_lattice, the fixed points of a closure or
an interior operator; graph_pairs.j_pairs) skip that check through
``FiniteLattice._of``.

The element count is soft-capped (default 4096, override with the
STONE_MAX_LATTICE environment variable, read per call).
"""

from __future__ import annotations

import os
from functools import cached_property, reduce
from itertools import repeat
from operator import and_

from . import _accel
from ._kernels import bits, image
from ._record import Record, _store
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


class FinitePoset(Record):
    """A finite poset as reflexive-transitive ``below`` masks."""

    _fields = ("n", "below")

    def __post_init__(self):
        if self.n != len(self.below):
            raise NotAPoset(f"expected {self.n} rows, got {len(self.below)}")
        bad = _accel.check_poset(list(self.below))
        if bad is not None:
            reason, i, j = bad
            raise NotAPoset(f"{reason} at elements ({i}, {j})")

    @classmethod
    def _from_rows(cls, below, above=None) -> "FinitePoset":
        """A poset from rows already known to encode a partial order.

        Skips ``check_poset``; each caller says why its rows qualify.
        ``above``, when the caller has it, is kept as the transpose.
        """
        poset = cls._trusted(len(below), tuple(below))
        if above is not None:
            _store(poset, "_above", tuple(above))
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

    def up_closure(self, mask: int) -> int:
        return image(self.above(), mask)

    def subposet(self, elements) -> "FinitePoset":
        """Induced subposet; element k is ``elements[k]`` of the parent.

        The restriction of a certified order to distinct points is
        always a poset, so the result skips ``check_poset``; only the
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
        return FinitePoset._from_rows(below)

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


class FiniteLattice(Record):
    """A finite bounded lattice: its order and, optionally, its labels.

    The constructor certifies that ``order`` is a lattice order, with
    the lookups that answer its meets and joins. x /\\ y exists exactly
    when the common lower set of x and y is some element's down-set,
    that is when ``below[x] & below[y]`` is a key of the meet index;
    x \\/ y exists exactly when ``above[x] & above[y]``, the common
    upper set, is a key of the join index. Both sides are one ``&`` and
    one lookup per pair, run by one row scan. Pairs are walked x
    ascending, y >= x, meet before join (the order of the
    ``bound_tables`` oracle), so NotALattice names the pair that
    ``bound_tables`` would. O(n^2) mask operations and lookups; the
    indices built there are the lattice's own. Past the soft cap the
    constructor raises LatticeTooLarge. Builders that know their order
    is a lattice go through ``_of``, which certifies nothing.

    Meet and join are one ``&`` plus one lookup. The lattice has two
    sides of one shape, ``_meet`` and ``_join``, each a triple (masks,
    index, unit): ``masks[x]`` is the mask of element x, ``index`` maps
    a mask back to its element, and ``unit`` is the mask of the
    operation's identity (the top for meets, the bottom for joins).
    meet(x, y) is the element whose meet mask is ``mm[x] & mm[y]``, and
    join(x, y) the element whose join co-mask is ``co[x] & co[y]``.

    * Any lattice can use its ``below`` rows as meet masks, since the
      down-set of x /\\ y is the intersection of the two down-sets, and
      its ``above`` rows as join co-masks, dually; a certified lattice
      does.
    * A down-set frame (downset_lattice) uses its labels, the down-sets
      themselves, as meet masks and their complements as co-masks: by
      Birkhoff, meet is intersection and join is union there.
    * A fixed-point lattice (fixed_point_lattice), the fixed points of
      a closure or an interior operator, keeps the ambient masks on the
      one side whose operation it shares with the ambient lattice: its
      meets for a closure, its joins for an interior.

    ``meet_table`` and ``join_table`` are built on first read, for the
    definitional scans that serve as oracles and for the distributivity
    witness of a non-frame.

    ``labels`` optionally names each element (down-set masks for
    Birkhoff duals, ambient indices for fixed-point lattices); it never
    affects semantics and is stored as a tuple. A lattice is determined by its
    order, so it is a record of its order and its labels. What a
    lattice certifies about itself is cached on it: its Birkhoff dual
    (``_birkhoff``), computed once, from which both the frame
    certificate and the prime spectrum are read.
    """

    _fields = ("order", "labels")
    _defaults = {"labels": None}

    def __post_init__(self):
        order = self.order
        cap = max_lattice_size()
        if order.n > cap:
            raise LatticeTooLarge(f"{order.n} elements exceeds the cap of {cap}")
        if order.n == 0:
            raise NotALattice("empty carrier has no bounds", witness=None)
        meet, join = _order_masks(order)
        bad = _missing_bound(meet, join)
        if bad is not None:
            kind, x, y = bad
            raise NotALattice(f"elements {x} and {y} have no {kind}", witness=bad)
        labels = self.labels
        if labels is not None:
            labels = tuple(labels)
            if len(labels) != order.n:
                raise NotALattice("label count does not match the carrier")
            _store(self, "labels", labels)
        self._derive(meet, join)

    @classmethod
    def _of(cls, order, labels, meet, join) -> "FiniteLattice":
        """The lattice whose operations the given (masks, index) sides
        encode, uncertified: each caller says why ``order`` is a lattice
        order and ``labels`` a tuple with one label per element."""
        lat = cls._trusted(order, labels)
        lat._derive(meet, join)
        return lat

    def _derive(self, meet, join):
        (mm, mi), (jm, ji) = meet, join
        # the bounds are the meet and the join of everything
        bottom, top = mi[reduce(and_, mm)], ji[reduce(and_, jm)]
        _store(self, "n", self.order.n)
        _store(self, "bottom", bottom)
        _store(self, "top", top)
        _store(self, "_meet", (mm, mi, mm[top]))
        _store(self, "_join", (jm, ji, jm[bottom]))

    def leq(self, x: int, y: int) -> bool:
        return (self.order.below[y] >> x) & 1 == 1

    def meet(self, x: int, y: int) -> int:
        masks, index, _ = self._meet
        return index[masks[x] & masks[y]]

    def join(self, x: int, y: int) -> int:
        masks, index, _ = self._join
        return index[masks[x] & masks[y]]

    def big_meet(self, xs) -> int:
        return _fold(self._meet, xs)

    def big_join(self, xs) -> int:
        return _fold(self._join, xs)

    def meet_row(self, x: int) -> tuple[int, ...]:
        """The meet of x with every element, in element order."""
        return tuple(_row(self._meet, x))

    def join_row(self, x: int) -> tuple[int, ...]:
        """The join of x with every element, in element order."""
        return tuple(_row(self._join, x))

    @cached_property
    def meet_table(self) -> tuple[tuple[int, ...], ...]:
        return tuple(map(self.meet_row, range(self.n)))

    @cached_property
    def join_table(self) -> tuple[tuple[int, ...], ...]:
        return tuple(map(self.join_row, range(self.n)))

    def label(self, x: int):
        return self.labels[x] if self.labels is not None else x

    def index_of_label(self, label) -> int:
        """The first element carrying ``label``; ValueError if none does."""
        if self.labels is None:
            # an unlabeled element is named by its index
            if type(label) is int and 0 <= label < self.n:
                return label
            raise ValueError(f"no element is labeled {label!r}")
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
    def _birkhoff(self):
        """Birkhoff's dual, computed once: the meet-irreducibles M, their
        subposet, and its ascending down-sets, counted up to n (None
        past n).

        x -> {m in M : x !<= m} maps any finite lattice injectively into
        the down-sets of M, since x is the meet of the m above it, and
        it is onto exactly when the lattice is distributive. So n
        down-sets decide distributivity (is_frame), and for a frame they
        are the opens of its prime spectrum (spectrum.primes).
        """
        ps = meet_irreducibles(self)
        sub = self.order.subposet(ps)
        return ps, sub, _accel.downset_masks(list(sub.below), self.n)

    @cached_property
    def frame_witness(self) -> "FrameWitness":
        """The distributivity certificate, computed once; see is_frame."""
        opens = self._birkhoff[2]
        if opens is not None and len(opens) == self.n:
            return FrameWitness(True, None)
        witness = _accel.distributive_witness(self.meet_table, self.join_table)
        if witness is None:
            raise AssertionError("Birkhoff count and distributivity scan disagree")
        return FrameWitness(False, witness)

    @cached_property
    def prime_spectrum(self):
        """The prime spectrum, built once; see spectrum.primes."""
        from .spectrum import PrimeSpectrum

        return PrimeSpectrum(self)


class FrameWitness(Record):
    """Outcome of the distributivity check of one lattice.

    ``witness`` is the first breaking triple of the exhaustive scan, or
    None for a frame.
    """

    _fields = ("distributive", "witness")
    _defaults = {"witness": None}


def _indexed(masks):
    # A (masks, index) pair: the masks and the element of each mask.
    return masks, dict(zip(masks, range(len(masks))))


def _order_masks(order: FinitePoset):
    # The meet and join sides of a lattice order: its below rows and its
    # above rows, with their indices.
    return _indexed(order.below), _indexed(order.above())


def _side(lat: FiniteLattice, side: str):
    return lat._meet if side == "meet" else lat._join


def _fold(side, xs) -> int:
    # The meet of xs on a side; the empty fold gives the unit.
    masks, index, acc = side
    for x in xs:
        acc &= masks[x]
    return index[acc]


def _row(side, x: int, start: int = 0):
    # The element of ``masks[x] & masks[y]`` per y >= start, None where
    # no element has that mask. Reads the (masks, index) part only.
    masks, index = side[0], side[1]
    return map(index.get, map(and_, repeat(masks[x]), masks[start:]))


def _missing_bound(meet, join):
    # Row by row, all lookups of row x at once; only a failing row is
    # walked pair by pair, for its first missing bound.
    n = len(meet[0])
    for x in range(n):
        meets, joins = list(_row(meet, x, x)), list(_row(join, x, x))
        if None not in meets and None not in joins:
            continue
        for y, m, j in zip(range(x, n), meets, joins):
            if m is None:
                return ("meet", x, y)
            if j is None:
                return ("join", x, y)
    return None


def join_irreducibles(lat: FiniteLattice) -> tuple[int, ...]:
    """Elements with exactly one lower cover, ascending.

    x qualifies when the elements strictly below it form the down-set
    of a single element, its one lower cover: one row lookup per
    element. The bottom, with nothing below it, never does.
    """
    return _irreducibles(lat._meet, lat.order.below)


def meet_irreducibles(lat: FiniteLattice) -> tuple[int, ...]:
    """Elements with exactly one upper cover, ascending; the dual of
    join_irreducibles, so the top never qualifies."""
    return _irreducibles(lat._join, lat.order.above())


def _irreducibles(side, rows) -> tuple[int, ...]:
    # The x whose strict row is some element's row. A side whose masks
    # are the rows lends its index.
    masks, index, _ = side
    if masks is not rows:
        index = _indexed(rows)[1]
    return tuple(x for x, row in enumerate(rows) if row ^ (1 << x) in index)


def is_frame(lat: FiniteLattice) -> FrameWitness:
    """Certify the distributive law, once per lattice.

    On finite carriers distributivity over binary joins is the whole
    frame condition, since every join is a finite one. The certificate
    comes from Birkhoff's count: a lattice is distributive iff it has
    as many elements as its meet-irreducibles have down-sets. Those
    down-sets are the lattice's cached Birkhoff dual
    (``FiniteLattice._birkhoff``), which PrimeSpectrum reads as the
    opens of the spectrum, so the dual is enumerated once for both.
    The certificate is cached on the lattice, so repeated calls return
    the same object. It is computed for every lattice, down-set frames
    included; no builder marks a lattice as a frame. Only on failure
    does the exhaustive triple scan run, to find the first breaking
    triple as the witness; the scan (``_kernels.distributive_witness``)
    stays the test oracle.
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
    Without ``masks`` the down-sets are enumerated here, and more than
    the soft cap of them raise LatticeTooLarge.
    """
    masks = _downsets(poset) if masks is None else tuple(masks)
    full = masks[-1]
    meet = _indexed(masks)
    join = _indexed(tuple(map(full.__xor__, masks)))
    order = FinitePoset._from_rows(*inclusion_rows(masks))
    lat = FiniteLattice._of(order, masks, meet, join)
    _store(lat, "_label_index", meet[1])
    return lat


def _downsets(poset: FinitePoset) -> tuple[int, ...]:
    # The ascending down-sets of ``poset``; LatticeTooLarge past the cap.
    cap = max_lattice_size()
    masks = _accel.downset_masks(list(poset.below), cap)
    if masks is None:
        raise LatticeTooLarge(f"more than {cap} down-sets; raise STONE_MAX_LATTICE to allow")
    return tuple(masks)


def inclusion_rows(masks):
    """The inclusion order of a family of distinct masks, as its
    ``below`` and ``above`` rows: bit j of ``below[k]`` is set when
    ``masks[j]`` lies inside ``masks[k]``, and of ``above[k]`` when it
    contains ``masks[k]``.

    By bit slicing: with S_b the elements whose mask has bit b,
    ``masks[j]`` lies inside ``masks[k]`` exactly when j is in no S_b
    for a bit b missing from ``masks[k]``, and contains it exactly when
    j is in every S_b for a bit b of ``masks[k]``. O(n * bits)
    operations on n-bit rows, against n^2 subset tests.
    """
    everyone = (1 << len(masks)) - 1
    slices = [0] * max(masks).bit_length()
    bit = 1
    for m in masks:
        b = 0
        while m:
            if m & 1:
                slices[b] |= bit
            m >>= 1
            b += 1
        bit <<= 1
    below, above = [], []
    for m in masks:
        outside, inside = 0, everyone
        for s in slices:
            if m & 1:
                inside &= s
            else:
                outside |= s
            m >>= 1
        below.append(everyone ^ outside)
        above.append(inside)
    return below, above


_BOOLEAN: dict[int, FiniteLattice] = {}


def boolean_lattice(k: int) -> FiniteLattice:
    """All subsets of k points, labeled by subset masks.

    One lattice per k, built on first use and kept, as opens_lattice
    keeps one per space, so its frame certificate and its spectrum are
    computed once too. The cap is read on every call: past it the
    lattice is built afresh, which raises LatticeTooLarge as the first
    build would have.
    """
    lat = _BOOLEAN.get(k)
    if lat is None or lat.n > max_lattice_size():
        lat = _BOOLEAN[k] = downset_lattice(FinitePoset.antichain(k))
    return lat


def fixed_point_lattice(lat: FiniteLattice, elements, closes) -> FiniteLattice:
    """A lattice of fixed points read straight off the ambient masks.

    ``elements`` are ascending ambient indices. ``closes`` names the
    operation the subset closes instead of keeping the ambient one:
    "join" for the fixed points of a closure operator, which keep
    ambient meets and close joins up, and "meet" for those of an
    interior operator, which keep ambient joins and open meets down.
    The result equals the induced order on ``elements`` certified by
    the FiniteLattice constructor, labeled by the ambient indices,
    whenever that description is true, at O(k^2) mask operations with
    no bound search and no table.

    The description is a precondition, not checked here, and a subset
    that breaks it is not refused: the one caller
    (``quasiorbit.InclusionData``) passes the fixed points of the
    closure and of the interior of a certified Galois connection, closed
    by Prop 2.6, and the tests compare the result with that certified
    induced order.

    A side that keeps the ambient operation keeps the ambient masks of
    its elements; the side that ``closes`` names reads the rows of the
    induced order instead, its ``below`` rows for meets and its
    ``above`` rows for joins.
    """
    elements = tuple(elements)
    if not elements:
        raise NotALattice("empty carrier has no bounds")
    order = lat.order.subposet(elements)
    meet = order.below if closes == "meet" else tuple(lat._meet[0][e] for e in elements)
    join = order.above() if closes == "join" else tuple(lat._join[0][e] for e in elements)
    out = FiniteLattice._of(order, elements, _indexed(meet), _indexed(join))
    _store(out, "_label_index", {e: k for k, e in enumerate(elements)})
    return out


def escaping_pair(lat: FiniteLattice, side: str, elements):
    """The first pair (a, b) of ``elements``, a-major in their order,
    whose ambient ``side`` ("meet" or "join") lands outside them; None
    when the subset is closed. It decides JR (joins of restricted
    elements) and MIf (meets of induced elements).

    Either side is one ``&`` of masks per pair plus one lookup, so the
    scan covers every ordered pair, one mask row per a. For a
    commutative operation that keeps each element of the subset, the
    first escaping pair of ascending elements has a < b.
    """
    masks, index, _ = _side(lat, side)
    inside = set(elements)
    sub = [masks[e] for e in elements]
    for a in elements:
        landed = list(map(index.__getitem__, map(and_, repeat(masks[a]), sub)))
        if not inside.issuperset(landed):
            return a, next(b for b, v in zip(elements, landed) if v not in inside)
    return None


def _preserves(values, source: FiniteLattice, target: FiniteLattice, side: str) -> bool:
    # Whether the map source -> target with ``values`` keeps every
    # ``side`` ("meet" or "join"), the empty one included; the pair scan
    # stops at the first pair it breaks.
    sm, si, su = _side(source, side)
    tm, ti, tu = _side(target, side)
    if tm[values[si[su]]] != tu:
        return False
    for x in range(len(sm)):
        mx, tx = sm[x], tm[values[x]]
        for y in range(x + 1, len(sm)):
            if values[si[mx & sm[y]]] != ti[tx & tm[values[y]]]:
                return False
    return True


def _meets_commute(source: FiniteLattice, elements, images, target: FiniteLattice, values):
    # The Frobenius law F(g(x) /\ v) = x /\ F(v), with g given by
    # ``images`` (x -> target) and F by ``values`` (target -> source):
    # the first pair (x, v), x-major in ``elements`` order and v
    # ascending, with source.meet(x, values[v]) != values[target.meet(
    # images[x], v)], or None when the law holds. One meet row per side
    # per x; one row serves both when x is its own image.
    for x in elements:
        row = source.meet_row(x)
        gx = images[x]
        gx_row = row if source is target and gx == x else target.meet_row(gx)
        left = [row[w] for w in values]
        right = [values[w] for w in gx_row]
        if left != right:
            return x, next(v for v, (a, b) in enumerate(zip(left, right)) if a != b)
    return None


def _fiber_fold(lat: FiniteLattice, side: str, values, rows) -> tuple[int, ...]:
    # Per row of ``rows`` (masks over the codomain of ``values``), the
    # ``side`` in lat of the points whose value lies in the row: each
    # fiber is folded once, then each row folds the fibers over it.
    masks, index, unit = _side(lat, side)
    folded = [unit] * len(rows)
    hit = 0
    for x, v in enumerate(values):
        folded[v] &= masks[x]
        hit |= 1 << v
    out = []
    for row in rows:
        acc = unit
        for v in bits(row & hit):
            acc &= folded[v]
        out.append(index[acc])
    return tuple(out)


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
