"""Prime spectra of finite frames and the finite T0 spaces they match.

Conventions, fixed across the package: opens of a finite space are the
down-closed sets of its specialization order, the closure of a point is
its up-set, and the spectrum of a frame carries the lattice order on
primes, with U_I = {p : I !<= p} as the opens. Under these choices the
open point of the two-point connected space is the minimal one.

A space is its specialization order: FiniteT0Space has the one field
``points``, and its opens are read off that order once, when it is
built. Open maps and quotients are decided on points, through
down-sets of points, without listing the opens.
"""

from __future__ import annotations

from functools import cached_property

from . import _accel, galois
from ._kernels import bits, image, inside, monotone_witness
from ._record import Record, _store
from .errors import (
    InvalidTopology,
    NotAFrame,
    NotContinuous,
    NotLocaleMorphism,
)
from .galois import AbsenceWitness, MonotoneMap, lower_adjoint
from .lattice import (
    FiniteLattice,
    FinitePoset,
    _downsets,
    _meets_commute,
    downset_lattice,
    is_frame,
)


class FiniteT0Space(Record):
    """A finite T0 space, given by its specialization order alone.

    The opens are the down-sets of ``points``. The constructor
    enumerates them once, ascending, and keeps them as ``opens``; more
    of them than the soft cap allows raise LatticeTooLarge there. The
    Birkhoff dual (PrimeSpectrum) already holds them and stores them
    without a second enumeration. Questions about maps and quotients
    (is_open_map, quotient_space) are answered on the points.
    """

    _fields = ("points",)

    def __post_init__(self):
        _store(self, "opens", _downsets(self.points))

    @property
    def n(self) -> int:
        return self.points.n

    def closure(self, mask: int) -> int:
        return self.points.up_closure(mask)

    @cached_property
    def opens_lattice(self) -> FiniteLattice:
        """The frame of opens, built once from ``opens``; see opens_lattice."""
        return downset_lattice(self.points, self.opens)

    @cached_property
    def soberification(self) -> "PointMap":
        """The unit X -> pt(O(X)), built once; see soberification."""
        lat = opens_lattice(self)
        spec = primes(lat)
        full = (1 << self.n) - 1
        values = []
        for x in range(self.n):
            px = lat.index_of_label(full & ~self.closure(1 << x))
            values.append(spec.prime_index[px])
        return PointMap(self, spec.space, tuple(values))


def opens_lattice(space: FiniteT0Space) -> FiniteLattice:
    """The frame of opens, labeled by open masks.

    Built on first use and cached on the space, so every caller shares
    one lattice (and with it one frame certificate and one spectrum).
    """
    return space.opens_lattice


class PrimeSpectrum(Record):
    """The prime spectrum of a finite frame, built from the frame alone.

    The constructor reads ``primes``, ``space`` and ``open_of`` off the
    Birkhoff dual that is_frame counted (``FiniteLattice._birkhoff``).
    In a frame the primes are exactly the meet-irreducible elements, so
    they are found in O(n^2) rather than by the O(n^3) definitional
    scan, and the points, their order and the opens are that dual, so
    no down-set is enumerated twice. ``open_of[I]`` is U_I = {p : I !<= p}
    as a mask over prime indices. I -> U_I is a frame isomorphism onto
    the opens of ``space``: the count of n down-sets that certified the
    frame is that bijection, so it is not checked again here; the tests
    compare it with the definitional U_I. Raises NotAFrame (with the
    is_frame witness triple) when distributivity fails.
    """

    _fields = ("locale",)

    def __post_init__(self):
        lat = self.locale
        fw = is_frame(lat)
        if not fw.distributive:
            raise NotAFrame(
                f"distributivity fails at triple {fw.witness}", witness=fw.witness
            )
        ps, sub, opens = lat._birkhoff
        # U_i is the complement of the primes above i
        below = lat.order.below
        under = [0] * lat.n
        for k, p in enumerate(ps):
            for i in bits(below[p]):
                under[i] |= 1 << k
        full = (1 << len(ps)) - 1
        _store(self, "primes", ps)
        # the opens are the down-sets that is_frame counted
        space = FiniteT0Space._trusted(sub)
        _store(space, "opens", tuple(opens))
        _store(self, "space", space)
        _store(self, "open_of", tuple(full & ~m for m in under))

    @cached_property
    def prime_index(self) -> dict[int, int]:
        """Each prime element's index among the primes (its point)."""
        return {p: k for k, p in enumerate(self.primes)}


def primes(lat: FiniteLattice) -> PrimeSpectrum:
    """The prime spectrum of a finite frame, built once per lattice.

    The spectrum is cached on the lattice: repeated calls return the
    same object. See PrimeSpectrum; raises NotAFrame when distributivity
    fails.
    """
    return lat.prime_spectrum


def point_space(lat: FiniteLattice) -> FiniteT0Space:
    return primes(lat).space


def is_spatial(lat: FiniteLattice) -> bool:
    """Elements are separated by primes.

    On a finite lattice this holds exactly when the lattice is
    distributive: if x -> {primes not above x} is injective, it turns
    meets into intersections and joins into unions, embedding the lattice
    in a powerset; conversely the meet-irreducibles of a finite frame are
    prime and separate elements. So the answer is the cached is_frame
    certificate; the tests check it against the definitional prime scan.
    """
    return is_frame(lat).distributive


def is_sober(space: FiniteT0Space) -> bool:
    """Every irreducible closed set is the closure of a unique point.

    True of every FiniteT0Space, by theorem: its closed sets are the
    up-sets of a finite partial order, a nonempty one is the union of
    the closures of its finitely many minimal points, so an irreducible
    one is the closure of one of them, and antisymmetry (T0) makes that
    point unique. The tests check the definitional scan (``sober_by_scan``
    in tests/oracles.py) on every space of at most four points and on
    the T62 representatives.
    """
    return True


class PointMap(Record):
    """A continuous map between finite T0 spaces.

    Continuity is decided once, as monotonicity for the specialization
    orders (``monotone_witness``); on these topologies that is the same
    statement as open preimages. Only a map that fails it has its
    preimages scanned, to name the first open of the target whose
    preimage is not open as the NotContinuous witness; a failing map
    with every preimage open means corrupted data.
    """

    _fields = ("source", "target", "values")

    def __post_init__(self):
        if len(self.values) != self.source.n:
            raise NotContinuous("value count does not match the source")
        for v in self.values:
            if not (0 <= v < self.target.n):
                raise NotContinuous(f"value {v} outside the target")
        if monotone_witness(
            self.source.points.below, self.target.points.below, self.values
        ) is not None:
            src_opens = set(self.source.opens)
            bad = next(
                (u for u in self.target.opens if self.preimage(u) not in src_opens), None
            )
            if bad is None:
                raise AssertionError("continuity characterizations disagree")
            raise NotContinuous(
                f"preimage of open {bad:#x} is not open", witness=bad
            )

    @cached_property
    def _value_rows(self) -> tuple[int, ...]:
        # the map as a relation: row x holds the one point x maps to
        return tuple(1 << v for v in self.values)

    def preimage(self, mask: int) -> int:
        return inside(self._value_rows, mask)

    def image_mask(self, mask: int) -> int:
        return image(self._value_rows, mask)

    def __call__(self, x: int) -> int:
        return self.values[x]


def is_surjective(f: PointMap) -> bool:
    return f.image_mask((1 << f.source.n) - 1) == (1 << f.target.n) - 1


def is_open_map(f: PointMap) -> bool:
    """Every open has an open image, decided on points.

    The opens of the source are the unions of its point down-sets, and
    images keep unions, so f is open exactly when the image of each
    point's down-set is a down-set of the target: one image per source
    point, and no open is listed. The tests compare it with the
    open-by-open reading (``open_map_by_opens`` in tests/oracles.py).
    """
    below = f.target.points.below
    return all(image(below, v) == v for v in map(f.image_mask, f.source.points.below))


def is_homeomorphism(f: PointMap) -> bool:
    if f.source.n != f.target.n or len(set(f.values)) != f.source.n:
        return False
    return is_open_map(f)


def is_locale_morphism(g: MonotoneMap) -> bool:
    """Preserves all joins and all finite meets, top and bottom included."""
    return galois.is_join_preserving(g) and galois.is_meet_preserving(g)


def adjunct_point_map(g: MonotoneMap, space: FiniteT0Space) -> PointMap:
    """The point map X -> pt(L) adjunct to a locale morphism G: L -> O(X).

    pi(x) is the join of every I with x outside G(I); it is always prime,
    and G(I) = pi^{-1}(U_I) holds by construction: x lies outside G(I)
    exactly when I <= pi(x), since G preserves joins. The tests check
    that identity on every morphism of the T33 sweep.
    """
    if not is_locale_morphism(g):
        raise NotLocaleMorphism("map does not preserve joins and finite meets")
    if g.target.labels != space.opens:
        raise NotLocaleMorphism("target lattice is not the opens of the space")
    spec = primes(g.source)
    values = []
    for x in range(space.n):
        px = g.source.big_join(
            i for i in range(g.source.n)
            if not (g.target.labels[g.values[i]] >> x) & 1
        )
        if px not in spec.prime_index:
            raise AssertionError("adjunct value escaped the primes")
        values.append(spec.prime_index[px])
    return PointMap(space, spec.space, tuple(values))


class Theorem33Report(Record):
    """Both sides of the open-surjection equivalence for one morphism.

    ``equivalence_verified`` is the biconditional itself; False means a
    bug somewhere, never a legitimate outcome.
    """

    _fields = (
        "has_lower_adjoint_F",
        "eq32_holds",
        "g_injective",
        "pi_open",
        "pi_surjective",
        "equivalence_verified",
    )


def theorem33_check(g: MonotoneMap, space: FiniteT0Space) -> Theorem33Report:
    """Evaluate the insertion-vs-open-surjection equivalence for G: L -> O(X).

    Under an open surjection pi with lower adjoint F, open images are
    pi(V) = U_F(V); the tests check that identity, not this call.
    """
    f = lower_adjoint(g)
    has_f = not isinstance(f, AbsenceWitness)
    # Eq. (3.2), F(g(i) /\ v) = i /\ F(v): the law behind C1 and C2
    eq32 = has_f and (
        _meets_commute(g.source, range(g.source.n), g.values, g.target, f.values) is None
    )
    inj = len(set(g.values)) == g.source.n

    pi = adjunct_point_map(g, space)
    pi_open = is_open_map(pi)
    pi_surj = is_surjective(pi)
    verified = (has_f and eq32 and inj) == (pi_open and pi_surj)
    return Theorem33Report(has_f, eq32, inj, pi_open, pi_surj, verified)


def soberification(space: FiniteT0Space) -> PointMap:
    """The unit X -> pt(O(X)); a homeomorphism on finite T0 spaces.

    Sends x to the open complement of its closure, which is prime in the
    opens frame. Built on first use and cached on the space, as its
    opens lattice is; PointMap certifies it continuous, and the tests
    check that it is a homeomorphism.
    """
    return space.soberification


def quotient_space(space: FiniteT0Space, classes) -> tuple[FiniteT0Space, tuple[int, ...]]:
    """Quotient by a partition, with the quotient topology.

    ``classes`` is a sequence of disjoint covering masks. Returns the
    quotient space and the class index of every point. Raises if the
    quotient fails T0.

    Decided on points. A set W of classes is open in the quotient when
    the union of its classes is a down-set of the space, that is when
    every class meeting the down-set of a class of W is in W. So the
    quotient opens are the down-sets of the reflexive-transitive
    closure of "class l meets the down-set of class k": row k of that
    closure is the least saturated open around class k, and the
    quotient is T0 exactly when the rows are distinct. The opens of the
    space are never listed. The tests compare the result, error message
    included, with a space built from the saturated opens with every
    topology law validated (``quotient_by_from_opens`` in
    tests/oracles.py).
    """
    classes = [int(c) for c in classes]
    full = (1 << space.n) - 1
    union = 0
    for c in classes:
        if c == 0 or union & c:
            raise InvalidTopology("classes must be disjoint and nonempty")
        union |= c
    if union != full:
        raise InvalidTopology("classes must cover the space")
    class_of = [0] * space.n
    for k, c in enumerate(classes):
        for x in bits(c):
            class_of[x] = k
    # each point's class as a one-bit row, to read a point mask as the
    # mask of the classes it meets
    meets = [1 << k for k in class_of]
    points = space.points.below
    below = _accel.closure([image(meets, image(points, c)) for c in classes])
    if len(set(below)) != len(below):
        # name the first clashing pair, as check_poset would on these
        # closed rows
        i = min(k for k, m in enumerate(below) if below.count(m) > 1)
        j = below.index(below[i], i + 1)
        raise InvalidTopology(
            f"family is not T0: not antisymmetric at elements ({i}, {j})"
        )
    return FiniteT0Space(FinitePoset._from_rows(below)), tuple(class_of)
