"""Prime spectra of finite frames and the finite T0 spaces they match.

Conventions, fixed across the package: opens of a finite space are the
down-closed sets of its specialization order, the closure of a point is
its up-set, and the spectrum of a frame carries the lattice order on
primes, with U_I = {p : I !<= p} as the opens. Under these choices the
open point of the two-point connected space is the minimal one.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from . import galois
from ._kernels import bits, monotone_witness
from .errors import (
    InvalidTopology,
    NotAFrame,
    NotAPoset,
    NotContinuous,
    NotLocaleMorphism,
)
from .galois import AbsenceWitness, MonotoneMap, lower_adjoint
from .lattice import (
    FiniteLattice,
    FinitePoset,
    downset_lattice,
    is_frame,
    meet_irreducibles,
    poset_isomorphism,
)


@dataclass(frozen=True)
class FiniteT0Space:
    """A finite T0 space: a point poset plus its full down-set topology."""

    points: FinitePoset
    opens: tuple[int, ...]

    def __post_init__(self):
        expected = _all_downsets(self.points)
        if tuple(self.opens) != expected:
            raise InvalidTopology(
                "opens are not exactly the down-sets of the point order"
            )

    @classmethod
    def from_poset(cls, points: FinitePoset) -> "FiniteT0Space":
        """The space whose opens are the down-sets of ``points``.

        The opens are enumerated here once; validating them would only
        enumerate them again, so this path skips ``__post_init__``. The
        direct constructor still validates whatever it is given.
        """
        return cls._trusted(points, _all_downsets(points))

    @classmethod
    def _trusted(cls, points: FinitePoset, opens: tuple[int, ...]) -> "FiniteT0Space":
        """A space whose ``opens`` are known to be exactly the ascending
        down-sets of ``points``; skips ``__post_init__``."""
        space = object.__new__(cls)
        object.__setattr__(space, "points", points)
        object.__setattr__(space, "opens", opens)
        return space

    @classmethod
    def from_opens(cls, n: int, opens) -> "FiniteT0Space":
        """Build from an explicit family, validating every topology law."""
        family = sorted(set(int(m) for m in opens))
        full = (1 << n) - 1
        if 0 not in family or full not in family:
            raise InvalidTopology("family must contain the empty and full sets")
        fam_set = set(family)
        for a in family:
            for b in family:
                if a | b not in fam_set or a & b not in fam_set:
                    raise InvalidTopology(
                        f"family not closed under union/intersection at {a:#x}, {b:#x}"
                    )
        below = []
        for x in range(n):
            m = full
            for u in family:
                if (u >> x) & 1:
                    m &= u
            below.append(m)
        try:
            points = FinitePoset(n, tuple(below))  # antisymmetry here is T0
        except NotAPoset as e:
            raise InvalidTopology(f"family is not T0: {e}") from e
        space = cls.from_poset(points)
        if tuple(family) != space.opens:
            raise InvalidTopology("family misses some down-sets of its order")
        return space

    @property
    def n(self) -> int:
        return self.points.n

    def closure(self, mask: int) -> int:
        return self.points.up_closure(mask)

    def is_open(self, mask: int) -> bool:
        return self.points.is_down_closed(mask)

    @cached_property
    def opens_lattice(self) -> FiniteLattice:
        """The frame of opens, built once from ``opens``; see opens_lattice."""
        return downset_lattice(self.points, self.opens)


def _all_downsets(points: FinitePoset) -> tuple[int, ...]:
    from . import _accel
    from .lattice import max_lattice_size

    masks = _accel.downset_masks(list(points.below), max_lattice_size())
    if masks is None:
        raise InvalidTopology("too many opens; raise STONE_MAX_LATTICE")
    return tuple(masks)


def opens_lattice(space: FiniteT0Space) -> FiniteLattice:
    """The frame of opens, labeled by open masks.

    Built on first use and cached on the space, so every caller shares
    one lattice (and with it one frame certificate and one spectrum).
    """
    return space.opens_lattice


def prime_elements(lat: FiniteLattice) -> tuple[int, ...]:
    """Meet-prime elements below the top, by the definitional scan.

    Works on any finite lattice; no distributivity is assumed. primes
    takes the O(n^2) meet-irreducible route on frames instead; this
    O(n^3) scan stays as its test oracle and serves non-frames.
    """
    out = []
    mt = lat.meet_table
    for p in range(lat.n):
        if p == lat.top:
            continue
        ok = True
        for x in range(lat.n):
            if lat.leq(x, p):
                continue
            for y in range(x, lat.n):
                if lat.leq(mt[x][y], p) and not lat.leq(y, p):
                    ok = False
                    break
            if not ok:
                break
        if ok:
            out.append(p)
    return tuple(out)


@dataclass(frozen=True)
class PrimeSpectrum:
    """A frame with its primes and the element-to-open translation.

    ``open_of[I]`` is U_I as a mask over prime indices; the map I -> U_I
    is a frame isomorphism onto the opens of ``space`` (checked at
    construction, since finite frames are spatial).
    """

    locale: FiniteLattice
    primes: tuple[int, ...]
    space: FiniteT0Space
    open_of: tuple[int, ...]

    def __post_init__(self):
        if len(set(self.open_of)) != self.locale.n:
            raise NotAFrame("element-to-open map is not injective")
        if set(self.open_of) != set(self.space.opens):
            raise NotAFrame("element-to-open map is not onto the opens")

    @cached_property
    def prime_index(self) -> dict[int, int]:
        """Each prime element's index among the primes (its point)."""
        return {p: k for k, p in enumerate(self.primes)}


def primes(lat: FiniteLattice) -> PrimeSpectrum:
    """The prime spectrum of a finite frame, built once per lattice.

    In a frame the primes are exactly the meet-irreducible elements, so
    they are found in O(n^2) rather than by the prime_elements scan. The
    spectrum is cached on the lattice: repeated calls return the same
    object. Raises NotAFrame (with the is_frame witness triple) when
    distributivity fails; primes of non-frames are still reachable
    through prime_elements.
    """
    return lat.prime_spectrum


def _prime_spectrum(lat: FiniteLattice) -> PrimeSpectrum:
    fw = is_frame(lat)
    if not fw.distributive:
        raise NotAFrame(
            f"distributivity fails at triple {fw.witness}", witness=fw.witness
        )
    ps = meet_irreducibles(lat)
    sub = lat.order.subposet(list(ps))
    space = FiniteT0Space.from_poset(sub)
    # U_i is the complement of the primes above i
    below = lat.order.below
    under = [0] * lat.n
    for k, p in enumerate(ps):
        for i in bits(below[p]):
            under[i] |= 1 << k
    full = (1 << len(ps)) - 1
    open_of = tuple(full & ~m for m in under)
    return PrimeSpectrum(lat, ps, space, open_of)


def point_space(lat: FiniteLattice) -> FiniteT0Space:
    return primes(lat).space


def is_spatial(lat: FiniteLattice) -> bool:
    """Elements are separated by primes.

    On a finite lattice this holds exactly when the lattice is
    distributive: if x -> {primes not above x} is injective, it turns
    meets into intersections and joins into unions, embedding the lattice
    in a powerset; conversely the meet-irreducibles of a finite frame are
    prime and separate elements. So the answer is the cached is_frame
    certificate; the tests check it against the prime_elements scan.
    """
    return is_frame(lat).distributive


def is_sober(space: FiniteT0Space) -> bool:
    """Every irreducible closed set is the closure of a unique point.

    Computed from the definition; finite T0 spaces always pass, and the
    round-trip tests rely on the scan rather than on that theorem.
    """
    full = (1 << space.n) - 1
    closed = [full & ~u for u in space.opens]
    closures = [space.closure(1 << x) for x in range(space.n)]
    for c in closed:
        if c == 0:
            continue
        reducible = False
        for c1 in closed:
            if c1 == c or c1 & ~c:
                continue
            for c2 in closed:
                if c2 == c or c2 & ~c:
                    continue
                if c1 | c2 == c:
                    reducible = True
                    break
            if reducible:
                break
        if reducible:
            continue
        if sum(1 for m in closures if m == c) != 1:
            return False
    return True


@dataclass(frozen=True)
class PointMap:
    """A continuous map between finite T0 spaces.

    Continuity is validated two ways (open preimages, and monotonicity
    for the specialization orders); on these topologies the two are the
    same statement, and disagreement means corrupted data.
    """

    source: FiniteT0Space
    target: FiniteT0Space
    values: tuple[int, ...]

    def __post_init__(self):
        if len(self.values) != self.source.n:
            raise NotContinuous("value count does not match the source")
        for v in self.values:
            if not (0 <= v < self.target.n):
                raise NotContinuous(f"value {v} outside the target")
        src_opens = set(self.source.opens)
        by_preimage = True
        bad = None
        for u in self.target.opens:
            pre = self.preimage(u)
            if pre not in src_opens:
                by_preimage = False
                bad = u
                break
        by_order = monotone_witness(
            self.source.points.below, self.target.points.below, self.values
        ) is None
        if by_preimage != by_order:
            raise AssertionError("continuity characterizations disagree")
        if not by_preimage:
            raise NotContinuous(
                f"preimage of open {bad:#x} is not open", witness=bad
            )

    def preimage(self, mask: int) -> int:
        out = 0
        for x, v in enumerate(self.values):
            if (mask >> v) & 1:
                out |= 1 << x
        return out

    def image_mask(self, mask: int) -> int:
        out = 0
        for x in bits(mask):
            out |= 1 << self.values[x]
        return out

    def __call__(self, x: int) -> int:
        return self.values[x]


def is_surjective(f: PointMap) -> bool:
    return f.image_mask((1 << f.source.n) - 1) == (1 << f.target.n) - 1


def is_open_map(f: PointMap) -> bool:
    tgt = set(f.target.opens)
    return all(f.image_mask(u) in tgt for u in f.source.opens)


def is_homeomorphism(f: PointMap) -> bool:
    if f.source.n != f.target.n or len(set(f.values)) != f.source.n:
        return False
    return is_open_map(f)


def homeomorphic(x: FiniteT0Space, y: FiniteT0Space) -> bool:
    return poset_isomorphism(x.points, y.points) is not None


def is_locale_morphism(g: MonotoneMap) -> bool:
    """Preserves all joins and all finite meets, top and bottom included."""
    return galois.is_join_preserving(g) and galois.is_meet_preserving(g)


def adjunct_point_map(g: MonotoneMap, space: FiniteT0Space) -> PointMap:
    """The point map X -> pt(L) adjunct to a locale morphism G: L -> O(X).

    pi(x) is the join of every I with x outside G(I); it is always prime,
    and G(I) = pi^{-1}(U_I) holds by construction (re-checked here).
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
    pm = PointMap(space, spec.space, tuple(values))
    for i in range(g.source.n):
        if pm.preimage(spec.open_of[i]) != g.target.labels[g.values[i]]:
            raise AssertionError("adjunct identity G(I) = pi^{-1}(U_I) broke")
    return pm


@dataclass(frozen=True)
class Theorem33Report:
    """Both sides of the open-surjection equivalence for one morphism.

    ``equivalence_verified`` is the biconditional itself; False means a
    bug somewhere, never a legitimate outcome.
    """

    has_lower_adjoint_F: bool
    eq32_holds: bool
    g_injective: bool
    pi_open: bool
    pi_surjective: bool
    equivalence_verified: bool


def theorem33_check(g: MonotoneMap, space: FiniteT0Space) -> Theorem33Report:
    """Evaluate the insertion-vs-open-surjection equivalence for G: L -> O(X)."""
    f = lower_adjoint(g)
    has_f = not isinstance(f, AbsenceWitness)
    eq32 = False
    if has_f:
        eq32 = True
        lat = g.source
        ox = g.target
        for i in range(lat.n):
            gi = g.values[i]
            for v in range(ox.n):
                if lat.meet_table[i][f.values[v]] != f.values[ox.meet_table[gi][v]]:
                    eq32 = False
                    break
            if not eq32:
                break
    inj = len(set(g.values)) == g.source.n

    pi = adjunct_point_map(g, space)
    pi_open = is_open_map(pi)
    pi_surj = is_surjective(pi)

    if pi_open and pi_surj and has_f:
        # Open images are computed by the lower adjoint: pi(V) = U_{F(V)}.
        spec = primes(g.source)
        for v in range(g.target.n):
            vmask = g.target.labels[v]
            if pi.image_mask(vmask) != spec.open_of[f.values[v]]:
                raise AssertionError("open-image identity pi(V) = U_F(V) broke")

    verified = (has_f and eq32 and inj) == (pi_open and pi_surj)
    return Theorem33Report(
        has_lower_adjoint_F=has_f,
        eq32_holds=eq32,
        g_injective=inj,
        pi_open=pi_open,
        pi_surjective=pi_surj,
        equivalence_verified=verified,
    )


def soberification(space: FiniteT0Space) -> PointMap:
    """The unit X -> pt(O(X)); a homeomorphism on finite T0 spaces.

    Sends x to the open complement of its closure, which is prime in the
    opens frame.
    """
    lat = opens_lattice(space)
    spec = primes(lat)
    full = (1 << space.n) - 1
    values = []
    for x in range(space.n):
        px = lat.index_of_label(full & ~space.closure(1 << x))
        values.append(spec.prime_index[px])
    pm = PointMap(space, spec.space, tuple(values))
    if not is_homeomorphism(pm):
        raise AssertionError("soberification unit failed to be a homeomorphism")
    return pm


def quotient_space(space: FiniteT0Space, classes) -> tuple[FiniteT0Space, tuple[int, ...]]:
    """Quotient by a partition, with the quotient topology.

    ``classes`` is a sequence of disjoint covering masks. Returns the
    quotient space and the class index of every point. Raises if the
    quotient fails T0.

    The saturated opens are closed under union and intersection by
    construction, so they are taken as the quotient topology without
    the closure scan of ``FiniteT0Space.from_opens``: the least open
    around a class is its down-set in the specialization order, and T0
    is the injectivity of those masks. ``from_opens`` stays the test
    oracle, error message included.
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
    opens = set()
    for u in space.opens:
        w = 0
        saturated = True
        for k, c in enumerate(classes):
            if c & u == c:
                w |= 1 << k
            elif c & u:
                saturated = False
                break
        if saturated:
            opens.add(w)
    family = tuple(sorted(opens))
    below = [(1 << len(classes)) - 1] * len(classes)
    for w in family:
        for k in bits(w):
            below[k] &= w
    if len(set(below)) != len(below):
        # name the first clashing pair, as check_poset does for from_opens
        i = min(k for k, m in enumerate(below) if below.count(m) > 1)
        j = below.index(below[i], i + 1)
        raise InvalidTopology(
            f"family is not T0: not antisymmetric at elements ({i}, {j})"
        )
    q = FiniteT0Space._trusted(FinitePoset._trusted(below), family)
    return q, tuple(class_of)
