"""Closure conditions on an inclusion and the quasi-orbit construction.

An InclusionData wraps a Galois connection between two finite frames.
The condition checkers grade how far the fixed-point sublattices are
from locale-theoretic good behavior:

* JR: restricted elements are closed under ambient joins, the empty
  join included, so the bottom must be restricted.
* C1: meet(I, r(i(J))) = r(i(meet(I, J))) for restricted I and arbitrary J.
* MIf: induced elements are closed under binary meets.
* MI: every target element has a least induced element above it;
  equivalently MIf plus an induced top. The binary and the full
  readings genuinely differ over the empty meet, and the checkers
  assert the corrected collapse rather than a blanket equivalence.
* C2: meet(I, F(J)) = F(meet(I, J)) for induced I, where F is the least-induced
  cover map.

Each condition is decided by one scan that returns its first witness,
cached per instance, and holds exactly when that witness is None: the
first escaping pair for JR, MIf and MI (``()`` for a missing bottom or
top), the first breaking pair (I, J) of the meet identity for C1 and C2
(lattice._meets_commute, which also decides Eq. (3.2) of Theorem 3.3).
A construction that needs a condition refuses through one path, which
raises the condition's typed error (JRViolated, MIViolated, else
ConditionViolated) carrying ``condition`` and that witness.

pi sends a prime to the largest restricted element below it; the
quasi-orbit space is the quotient of the source spectrum by equal pi
values; rho factors r through that quotient and needs JR, C1 and MI.

Everything here rests on the adjunction certified when the
GaloisConnection was built. The eight structural laws of Prop 2.6
(verify_prop26) follow from it and are checked by the tests, not on
construction; the fixed-point lattices are read off the ambient masks
by the same laws (restricted: ambient meets, closed joins; induced:
ambient joins, opened meets), with no scan for an escaping pair. C2
needs only F's values in the target, the least induced covers, so it
does not build F as a map into the induced lattice.
"""

from __future__ import annotations

from functools import cached_property

from ._kernels import bits, image
from ._record import Record
from .errors import (
    ConditionViolated,
    JRViolated,
    MIViolated,
    NotAFrame,
)
from .galois import (
    GaloisConnection,
    MonotoneMap,
    is_adjoint_pair,
    separates,
)
from .lattice import (
    FiniteLattice,
    _meets_commute,
    escaping_pair,
    fixed_point_lattice,
    is_frame,
)
from .spectrum import (
    FiniteT0Space,
    PointMap,
    PrimeSpectrum,
    adjunct_point_map,
    is_homeomorphism,
    is_open_map,
    is_surjective,
    opens_lattice,
    primes,
    quotient_space,
)


class InclusionData(Record):
    """A connection between frames with its fixed-point apparatus cached.

    Construction checks only that both carriers are frames (the cached
    is_frame certificates). The connection arrives certified: MonotoneMap
    has checked both maps monotone and GaloisConnection the adjunction
    law exhaustively, and the eight Prop 2.6 laws are consequences of
    those two facts, so verify_prop26 is not re-run here; the tests run
    it as the oracle.

    The restricted sublattice always carries its own lattice structure
    (ambient meets, closure of ambient joins) even when no condition
    holds; distributivity of that sublattice is NOT automatic, so its
    spectrum is computed lazily and may refuse.

    Each condition is cached as its first witness (``_jr_bad``,
    ``_c1_bad``, ``_mif_bad``, ``_mi_bad``, ``_c2_bad``; None when it
    holds), computed once per instance on first use and shared by every
    caller: the sweeps' checks, the refusals and the cross-checks inside
    quasi_orbit_map read the same values. The fixed-point lattices are
    closed by Prop 2.6 and are read off the ambient masks without a
    scan. C2 reads F's values in the target off ``induced_covers``; the
    map F itself, into the induced lattice, is built and cross-checked
    only when F_map asks for it.
    """

    _fields = ("gc",)

    def __init__(self, gc: GaloisConnection):
        object.__setattr__(self, "gc", gc)
        self.__post_init__()

    def __post_init__(self):
        for lat, side in ((self.gc.lattice_a, "source"), (self.gc.lattice_b, "target")):
            fw = is_frame(lat)
            if not fw.distributive:
                raise NotAFrame(
                    f"{side} lattice is not distributive at {fw.witness}",
                    witness=fw.witness,
                )

    @property
    def lattice_a(self) -> FiniteLattice:
        return self.gc.lattice_a

    @property
    def lattice_b(self) -> FiniteLattice:
        return self.gc.lattice_b

    @cached_property
    def restricted(self) -> tuple[int, ...]:
        ri = self.gc.closure_values()
        return tuple(x for x in range(self.lattice_a.n) if ri[x] == x)

    @cached_property
    def induced(self) -> tuple[int, ...]:
        ir = self.gc.kernel_values()
        return tuple(y for y in range(self.lattice_b.n) if ir[y] == y)

    @cached_property
    def _restricted_mask(self) -> int:
        return sum(1 << x for x in self.restricted)

    @cached_property
    def _induced_mask(self) -> int:
        return sum(1 << y for y in self.induced)

    @cached_property
    def induced_covers(self) -> tuple[int, ...]:
        """Per target element j, the meet of the induced elements above
        j: its least induced cover whenever that meet is induced."""
        b = self.lattice_b
        ind = self._induced_mask
        return tuple(b.big_meet(bits(row & ind)) for row in b.order.above())

    @cached_property
    def _jr_bad(self):
        """None when JR holds, else the offending join (empty tuple = bottom)."""
        if self.lattice_a.bottom not in self.restricted:
            return ()
        return escaping_pair(self.lattice_a, "join", self.restricted)

    @cached_property
    def _mif_bad(self):
        """None when MIf holds, else the first pair of induced elements
        whose meet is not induced."""
        return escaping_pair(self.lattice_b, "meet", self.induced)

    @cached_property
    def _c1_bad(self):
        """None when C1 holds, else the first pair (I, J), I restricted,
        with meet(I, r(i(J))) != r(i(meet(I, J)))."""
        a = self.lattice_a
        return _meets_commute(a, self.restricted, range(a.n), a, self.gc.closure_values())

    @cached_property
    def _mi_bad(self):
        """None when MI holds, else the MIf witness, or () when only the
        top (the empty meet) is not induced; cross-checked against the
        least-cover reading."""
        ind = set(self.induced)
        bad = self._mif_bad
        if bad is None and self.lattice_b.top not in ind:
            bad = ()
        if all(cover in ind for cover in self.induced_covers) != (bad is None):
            raise AssertionError("least-cover and closure readings disagree")
        return bad

    @cached_property
    def _f(self) -> MonotoneMap:
        # read through F_map, which refuses first when MI fails
        b = self.lattice_b
        ind_lat = self.induced_lattice
        values = tuple(map(ind_lat.index_of_label, self.induced_covers))
        f = MonotoneMap(b, ind_lat, values)
        insertion = MonotoneMap(ind_lat, b, tuple(ind_lat.labels))
        if not is_adjoint_pair(f, insertion):
            raise AssertionError("least-cover map is not adjoint to the insertion")
        return f

    @cached_property
    def _c2_bad(self):
        """None when C2 holds, else the first pair (I, J), I induced,
        with meet(I, F(J)) != F(meet(I, J)); needs MI. Under MI,
        ``induced_covers`` is F read in the target, so F is not built."""
        _require(self, "MI")
        b = self.lattice_b
        return _meets_commute(b, self.induced, range(b.n), b, self.induced_covers)

    @cached_property
    def restricted_lattice(self) -> FiniteLattice:
        """Ambient meets; joins are closed up by r.i.

        When the upper map is the insertion of lattice_b, labeled by the
        ambient indices it inserts, lattice_b is that lattice already:
        an injective upper adjoint is an order embedding onto the fixed
        points of r.i, so its order, operations and labels are exactly the
        ones built here, and lattice_b (with its cached spectrum) is
        returned instead of a second copy.
        """
        if self.gc.upper.values == self.lattice_b.labels == self.restricted:
            return self.lattice_b
        return fixed_point_lattice(
            self.lattice_a, self.restricted, join_fix=self.gc.closure_values()
        )

    @cached_property
    def induced_lattice(self) -> FiniteLattice:
        """Ambient joins; meets are opened down by i.r."""
        return fixed_point_lattice(
            self.lattice_b, self.induced, meet_fix=self.gc.kernel_values()
        )

    @cached_property
    def spectrum_a(self) -> PrimeSpectrum:
        return primes(self.lattice_a)

    @cached_property
    def spectrum_b(self) -> PrimeSpectrum:
        return primes(self.lattice_b)

    @cached_property
    def restricted_spectrum(self) -> PrimeSpectrum:
        """Spectrum of the restricted sublattice; raises NotAFrame when
        that sublattice is not distributive."""
        return primes(self.restricted_lattice)

    @cached_property
    def induced_spectrum(self) -> PrimeSpectrum:
        return primes(self.induced_lattice)


def check_JR(d: InclusionData) -> bool:
    """Restricted elements closed under every ambient join; computed
    once per instance."""
    return d._jr_bad is None


def check_C1(d: InclusionData) -> bool:
    """meet(I, r(i(J))) = r(i(meet(I, J))) for restricted I and every J;
    computed once per instance."""
    return d._c1_bad is None


def check_MIf(d: InclusionData) -> bool:
    """Induced elements closed under binary (nonempty) meets; computed
    once per instance."""
    return d._mif_bad is None


def check_MI(d: InclusionData) -> bool:
    """Every target element has a least induced element above it.

    Computed once per instance from that definition (the meet of the
    induced elements above j must be induced, for every j), then
    asserted equal to MIf plus an induced top; the two readings differ
    exactly over the empty meet.
    """
    return d._mi_bad is None


# condition -> (its typed error, its cached witness, the refusal message)
_REFUSALS = {
    "JR": (JRViolated, "_jr_bad", "restricted elements are not closed under joins"),
    "C1": (ConditionViolated, "_c1_bad", "the restricted meet identity fails"),
    "MI": (MIViolated, "_mi_bad", "some meet of induced elements is not induced"),
}


def _require(d: InclusionData, name: str):
    """Refuse with the typed error of condition ``name`` when its cached
    witness is not None."""
    error, attr, message = _REFUSALS[name]
    bad = getattr(d, attr)
    if bad is not None:
        raise error(message, condition=name, witness=bad)


def F_map(d: InclusionData) -> MonotoneMap:
    """Least-induced-cover map from the target into the induced lattice.

    The lower adjoint of the induced-insertion; total exactly under MI.
    Built once per instance, on the first call, and cross-checked as
    adjoint to the insertion; no condition check calls it.
    """
    _require(d, "MI")
    return d._f


def check_C2(d: InclusionData) -> bool:
    """meet(I, F(J)) = F(meet(I, J)) for induced I and every J; computed
    once per instance, with F read in the target as ``induced_covers``
    (F_map is not called). Raises MIViolated where F does not exist."""
    return d._c2_bad is None


def pi_map(d: InclusionData) -> PointMap:
    """Largest-restricted-below, as a map of prime spaces.

    Under JR this is the point map adjunct to the restricted insertion;
    both routes are computed and must agree.
    """
    _require(d, "JR")
    a = d.lattice_a
    spec_a = d.spectrum_a
    spec_r = d.restricted_spectrum
    res_lat = d.restricted_lattice
    res = d._restricted_mask
    values = []
    for p in spec_a.primes:
        below = a.big_join(bits(a.order.below[p] & res))
        if not (res >> below) & 1:
            raise AssertionError("join of restricted elements escaped them")
        values.append(spec_r.prime_index[res_lat.index_of_label(below)])
    pm = PointMap(spec_a.space, spec_r.space, tuple(values))

    olat = opens_lattice(spec_a.space)
    g = MonotoneMap(
        res_lat,
        olat,
        tuple(olat.index_of_label(spec_a.open_of[x]) for x in res_lat.labels),
    )
    if adjunct_point_map(g, spec_a.space).values != pm.values:
        raise AssertionError("pi disagrees with the adjunct point map")
    return pm


class QuasiOrbitSpace(Record):
    """The source spectrum quotiented by equal pi values."""

    _fields = ("base", "classes", "quotient", "class_of")

    def __init__(
        self,
        base: FiniteT0Space,
        classes: tuple[int, ...],
        quotient: FiniteT0Space,
        class_of: tuple[int, ...],
    ):
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "classes", classes)
        object.__setattr__(self, "quotient", quotient)
        object.__setattr__(self, "class_of", class_of)
        self.__post_init__()

    def __post_init__(self):
        # Quotient opens are exactly the class-sets with open preimage.
        # The classes partition the base, so preimage is injective on
        # class-sets: every quotient open having an open preimage, and
        # the quotient having as many opens as the base has saturated
        # opens, together say exactly that.
        for w in self.quotient.opens:
            if not self.base.is_open(image(self.classes, w)):
                raise AssertionError("quotient topology mismatch")
        saturated = sum(
            all(u & c in (0, c) for c in self.classes) for u in self.base.opens
        )
        if saturated != len(self.quotient.opens):
            raise AssertionError("quotient topology mismatch")


def quasi_orbit_space(d: InclusionData) -> QuasiOrbitSpace:
    """Partition the source spectrum by pi fibers; requires JR.

    When C1 also holds, the induced comparison with the restricted
    spectrum is asserted to be a homeomorphism.
    """
    return _quasi_orbit_space(d, pi_map(d))


def _quasi_orbit_space(d: InclusionData, pi: PointMap) -> QuasiOrbitSpace:
    fibers: dict[int, int] = {}
    for point, v in enumerate(pi.values):
        fibers[v] = fibers.get(v, 0) | (1 << point)
    targets = sorted(fibers)
    classes = tuple(fibers[v] for v in targets)
    quotient, class_of = quotient_space(pi.source, classes)
    qos = QuasiOrbitSpace(pi.source, classes, quotient, class_of)
    if check_C1(d):
        comparison = PointMap(quotient, pi.target, tuple(targets))
        if not is_homeomorphism(comparison):
            raise AssertionError("quotient comparison is not a homeomorphism under C1")
    return qos


class PrimeMapObstruction(Record):
    """Why r does not restrict to a map of prime spaces.

    ``kind`` is "restricted-not-frame" (detail: the distributivity
    witness) or "value-not-prime" (detail: the offending source prime
    and its r-image in the restricted lattice).
    """

    _fields = ("kind", "detail")

    def __init__(self, kind: str, detail: tuple):
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "detail", detail)


def restricted_prime_map(d: InclusionData):
    """r cut down to prime spaces, or the obstruction to doing so.

    Needs no condition at all: the map is well defined exactly when
    every r-image of a target prime is prime in the restricted lattice,
    and the obstruction is returned as a value for sweeps to consume.
    """
    try:
        spec_r = d.restricted_spectrum
    except NotAFrame as e:
        return PrimeMapObstruction("restricted-not-frame", (e.witness,))
    res_lat = d.restricted_lattice
    prime_index = spec_r.prime_index
    spec_b = d.spectrum_b
    r = d.gc.upper.values
    values = []
    for q in spec_b.primes:
        ri = res_lat.index_of_label(r[q])  # r-images are always restricted
        if ri not in prime_index:
            return PrimeMapObstruction("value-not-prime", (q, r[q]))
        values.append(prime_index[ri])
    return PointMap(spec_b.space, spec_r.space, tuple(values))


def induced_prime_map(d: InclusionData) -> PointMap:
    """q -> i(r(q)) into the spectrum of the induced lattice; needs MI.

    Under binary-only meet closure the composite can land on the top of
    the induced lattice, which is not a prime; MI rules that out.
    """
    _require(d, "MI")
    ind_lat = d.induced_lattice
    spec_i = d.induced_spectrum
    prime_index = spec_i.prime_index
    ir = d.gc.kernel_values()
    spec_b = d.spectrum_b
    values = []
    for q in spec_b.primes:
        k = ind_lat.index_of_label(ir[q])
        if k not in prime_index:
            raise AssertionError("induced image of a prime is not prime")
        values.append(prime_index[k])
    return PointMap(spec_b.space, spec_i.space, tuple(values))


def quasi_orbit_map(d: InclusionData) -> PointMap:
    """rho: target spectrum -> quasi-orbit space; needs JR, C1 and MI.

    rho sends a prime q to the pi-fiber class sitting over r(q). The
    construction cross-checks both corollaries it implements: with MI
    given, openness plus surjectivity must agree with C2, and being a
    homeomorphism must agree with separation.
    """
    for name in ("JR", "C1", "MI"):
        _require(d, name)
    pi = pi_map(d)
    qos = _quasi_orbit_space(d, pi)
    rpm = restricted_prime_map(d)
    if not isinstance(rpm, PointMap):
        raise AssertionError(f"restricted prime map obstructed: {rpm}")
    class_over = {}
    for point, v in enumerate(pi.values):
        class_over[v] = qos.class_of[point]
    values = tuple(class_over[v] for v in rpm.values)
    rho = PointMap(d.spectrum_b.space, qos.quotient, values)
    if (is_open_map(rho) and is_surjective(rho)) != check_C2(d):
        raise AssertionError("rho open surjection and C2 disagree")
    if is_homeomorphism(rho) != separates(d.gc):
        raise AssertionError("rho homeomorphism and separation disagree")
    return rho
