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

pi sends a prime to the largest restricted element below it; the
quasi-orbit space is the quotient of the source spectrum by equal pi
values; rho factors r through that quotient and needs JR, C1 and MI.

Everything here rests on the adjunction certified when the
GaloisConnection was built. The eight structural laws of Prop 2.6
(verify_prop26) follow from it and are checked by the tests, not on
construction; the fixed-point lattices are read off the ambient tables
by the same laws (restricted: ambient meets, closed joins; induced:
ambient joins, opened meets).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from ._kernels import bits
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
from .lattice import FiniteLattice, fixed_point_lattice, is_frame
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


@dataclass(frozen=True)
class InclusionData:
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
    """

    gc: GaloisConnection

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
    def restricted_lattice(self) -> FiniteLattice:
        """Ambient meets; joins are closed up by r.i.

        When the upper map is the insertion of lattice_b, labeled by the
        ambient indices it inserts, lattice_b is that lattice already:
        an injective upper adjoint is an order embedding onto the fixed
        points of r.i, so its order, tables and labels are exactly the
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


def _jr_witness(d: InclusionData):
    """None when JR holds, else the offending join (empty tuple = bottom)."""
    a = d.lattice_a
    res = set(d.restricted)
    if a.bottom not in res:
        return ()
    for x in d.restricted:
        for y in d.restricted:
            if y > x and a.join(x, y) not in res:
                return (x, y)
    return None


def check_JR(d: InclusionData) -> bool:
    """Restricted elements closed under every ambient join."""
    return _jr_witness(d) is None


def check_C1(d: InclusionData) -> bool:
    mt = d.lattice_a.meet_table
    ri = d.gc.closure_values()
    for i in d.restricted:
        row = mt[i]
        if [row[v] for v in ri] != [ri[v] for v in row]:
            return False
    return True


def check_MIf(d: InclusionData) -> bool:
    """Induced elements closed under binary (nonempty) meets."""
    return _mi_witness(d, include_top=False) is None


def check_MI(d: InclusionData) -> bool:
    """Every target element has a least induced element above it.

    Computed from that definition, then asserted equal to MIf plus an
    induced top; the two readings differ exactly over the empty meet.
    """
    b = d.lattice_b
    ind = set(d.induced)
    by_def = True
    for j in range(b.n):
        cover = b.big_meet(k for k in d.induced if b.leq(j, k))
        if cover not in ind:
            by_def = False
            break
    collapsed = check_MIf(d) and b.top in ind
    if by_def != collapsed:
        raise AssertionError("least-cover and closure readings disagree")
    return by_def


def _mi_witness(d: InclusionData, include_top=True):
    """None, or the induced subset whose meet escapes; () means the
    empty subset (an induced top is missing)."""
    b = d.lattice_b
    ind = set(d.induced)
    for x in d.induced:
        for y in d.induced:
            if y > x and b.meet(x, y) not in ind:
                return (x, y)
    if include_top and b.top not in ind:
        return ()
    return None


def F_map(d: InclusionData) -> MonotoneMap:
    """Least-induced-cover map from the target into the induced lattice.

    The lower adjoint of the induced-insertion; total exactly under MI.
    """
    if not check_MI(d):
        raise MIViolated(
            "some meet of induced elements is not induced",
            witness=_mi_witness(d),
        )
    b = d.lattice_b
    ind_lat = d.induced_lattice
    values = tuple(
        ind_lat.index_of_label(b.big_meet(k for k in d.induced if b.leq(j, k)))
        for j in range(b.n)
    )
    f = MonotoneMap(b, ind_lat, values)
    insertion = MonotoneMap(ind_lat, b, tuple(ind_lat.labels))
    if not is_adjoint_pair(f, insertion):
        raise AssertionError("least-cover map is not adjoint to the insertion")
    return f


def check_C2(d: InclusionData) -> bool:
    b = d.lattice_b
    f = F_map(d)
    amb_f = tuple(f.target.labels[v] for v in f.values)
    for i in d.induced:
        for j in range(b.n):
            if b.meet(i, amb_f[j]) != amb_f[b.meet(i, j)]:
                return False
    return True


def pi_map(d: InclusionData) -> PointMap:
    """Largest-restricted-below, as a map of prime spaces.

    Under JR this is the point map adjunct to the restricted insertion;
    both routes are computed and must agree.
    """
    bad = _jr_witness(d)
    if bad is not None:
        raise JRViolated(
            "restricted elements are not closed under joins", witness=bad
        )
    a = d.lattice_a
    spec_a = d.spectrum_a
    spec_r = d.restricted_spectrum
    res_lat = d.restricted_lattice
    values = []
    for p in spec_a.primes:
        below = a.big_join(x for x in d.restricted if a.leq(x, p))
        if below not in set(d.restricted):
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


@dataclass(frozen=True)
class QuasiOrbitSpace:
    """The source spectrum quotiented by equal pi values."""

    base: FiniteT0Space
    classes: tuple[int, ...]
    quotient: FiniteT0Space
    class_of: tuple[int, ...]

    def __post_init__(self):
        # quotient opens are exactly the class-sets with open preimage
        opens = set(self.quotient.opens)
        for w in range(1 << len(self.classes)):
            pre = 0
            for k in bits(w):
                pre |= self.classes[k]
            if (w in opens) != self.base.is_open(pre):
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
    image = sorted(fibers)
    classes = tuple(fibers[v] for v in image)
    quotient, class_of = quotient_space(pi.source, classes)
    qos = QuasiOrbitSpace(pi.source, classes, quotient, class_of)
    if check_C1(d):
        comparison = PointMap(quotient, pi.target, tuple(image))
        if not is_homeomorphism(comparison):
            raise AssertionError("quotient comparison is not a homeomorphism under C1")
    return qos


@dataclass(frozen=True)
class PrimeMapObstruction:
    """Why r does not restrict to a map of prime spaces.

    ``kind`` is "restricted-not-frame" (detail: the distributivity
    witness) or "value-not-prime" (detail: the offending source prime
    and its r-image in the restricted lattice).
    """

    kind: str
    detail: tuple


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
    if not check_MI(d):
        raise MIViolated(
            "some meet of induced elements is not induced",
            witness=_mi_witness(d),
        )
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
    for name, ok in (("JR", check_JR), ("C1", check_C1), ("MI", check_MI)):
        if not ok(d):
            raise ConditionViolated(f"precondition {name} fails", condition=name)
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
