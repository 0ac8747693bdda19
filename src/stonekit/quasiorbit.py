"""Closure conditions on an inclusion and the quasi-orbit construction.

An InclusionData wraps a Galois connection between two finite frames.
The condition checkers grade how far the fixed-point sublattices are
from locale-theoretic good behavior:

* JR: restricted elements are closed under ambient joins, the empty
  join included, so the bottom must be restricted.
* C1: meet(I, r(i(J))) = r(i(meet(I, J))) for restricted I and arbitrary J.
* MIf: induced elements are closed under binary meets.
* MI: every target element has a least induced element above it;
  equivalently MIf plus an induced top, which is how it is decided.
  The binary and the full readings genuinely differ over the empty
  meet; the least-cover reading is the tests' oracle.
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

pi sends a prime to the largest restricted element below it, computed
once per instance as elements of the source (``InclusionData._pi``);
the quasi-orbit space is the quotient of the source spectrum by equal
pi values; rho sends a prime q of the target to the class over r(q)
and needs JR, C1 and MI. Neither builds the restricted lattice or its
spectrum: only pi_map, which indexes pi into that spectrum, and
restricted_prime_map do.

Everything here rests on the adjunction certified when the
GaloisConnection was built: by the law scan of its constructor (the
identity connection of a ``lattice`` document) or of from_lower (the
lower table of a ``galois`` document), and by theorem, once every
value lands, for the (image, inside) pair of a relation
(from_relation: a model's, or a locale morphism of the T33 sweep read
off its points). The eight structural laws of Prop 2.6 follow from it
and are checked by the tests' oracle (``verify_prop26`` in
tests/oracles.py), not on construction; the fixed-point lattices are
read off the ambient masks by the same laws (restricted: ambient
meets, closed joins; induced: ambient joins, opened meets), with no
scan for an escaping pair. C2 needs only F's values in the target, the
least induced covers, so it does not build F as a map into the induced
lattice.

Each value has one route, and the route it does not take is a test
oracle. pi is the join of the restricted elements below each prime;
the adjunct point map of the restricted insertion (Theorem 3.3) is its
oracle. The quasi-orbit space is quotient_space of the pi fibers; the
fibers of pi_map's prime indices are its oracle, and that it is the
restricted spectrum under C1 is checked by the tests, not on each call.
rho is one lookup per prime; restricted_prime_map, read through those
prime indices, is its oracle. MI is MIf plus an induced top, and F is
the least induced cover of each element; the tests check MI against
the least-cover reading and F as adjoint to the induced insertion. rho
is built once and not compared with C2 or with separation: Corollaries
4.8 and 4.9 are the C48 and C49 sweeps, which check each rho once.
"""

from __future__ import annotations

from functools import cached_property

from ._kernels import bits
from ._record import Record, _store
from .errors import (
    ConditionViolated,
    JRViolated,
    MIViolated,
    NotAFrame,
)
from .galois import MonotoneMap
from .lattice import (
    FiniteLattice,
    _meets_commute,
    escaping_pair,
    fixed_point_lattice,
    is_frame,
)
from .spectrum import (
    PointMap,
    PrimeSpectrum,
    primes,
    quotient_space,
)


class InclusionData(Record):
    """A connection between frames with its fixed-point apparatus cached.

    Construction checks only that both carriers are frames (the cached
    is_frame certificates). The connection arrives certified: either
    MonotoneMap has checked both maps monotone and GaloisConnection the
    adjunction law exhaustively, or, for a model's relation,
    GaloisConnection.from_relation has checked that every image and
    interior lands, which makes both facts theorems. The eight Prop 2.6
    laws are consequences of those two facts, so verify_prop26 is not
    re-run here; the tests run it as the oracle.

    The restricted sublattice always carries its own lattice structure
    (ambient meets, closure of ambient joins) even when no condition
    holds; distributivity of that sublattice is NOT automatic, so its
    spectrum is computed lazily and may refuse.

    Each condition is cached as its first witness (``_jr_bad``,
    ``_c1_bad``, ``_mif_bad``, ``_mi_bad``, ``_c2_bad``; None when it
    holds), computed once per instance on first use and shared by every
    caller: the sweeps' checks and the refusals read the same values.
    pi is cached the same way (``_pi``), for pi_map and both
    quasi-orbit constructions to share. The fixed-point lattices are
    closed by Prop 2.6 and are read off the ambient masks without a
    scan. C2 reads F's values in the target off ``induced_covers``; the
    map F itself, into the induced lattice, is built only when F_map
    asks for it.
    """

    _fields = ("gc",)

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
        top (the empty meet) is not induced."""
        bad = self._mif_bad
        if bad is None and not (self._induced_mask >> self.lattice_b.top) & 1:
            return ()
        return bad

    @cached_property
    def _f(self) -> MonotoneMap:
        # read through F_map, which refuses first when MI fails
        ind_lat = self.induced_lattice
        values = tuple(map(ind_lat.index_of_label, self.induced_covers))
        return MonotoneMap(self.lattice_b, ind_lat, values)

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
        """Ambient meets; joins are closed up by r.i. Labeled by the
        ambient indices of the restricted elements, in ascending order.

        Only the restricted spectrum reads it (pi_map and
        restricted_prime_map); the quasi-orbit constructions do not.
        """
        return fixed_point_lattice(self.lattice_a, self.restricted, "join")

    @cached_property
    def induced_lattice(self) -> FiniteLattice:
        """Ambient joins; meets are opened down by i.r."""
        return fixed_point_lattice(self.lattice_b, self.induced, "meet")

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

    @cached_property
    def _pi(self) -> tuple[int, ...]:
        """pi on the source spectrum, as elements of lattice_a: per prime
        p (in the order of ``spectrum_a.primes``), the join of the
        restricted elements below p. Needs JR, which keeps that join
        restricted; computed once per instance."""
        _require(self, "JR")
        a = self.lattice_a
        res = self._restricted_mask
        values = []
        for p in self.spectrum_a.primes:
            below = a.big_join(bits(a.order.below[p] & res))
            if not (res >> below) & 1:
                raise AssertionError("join of restricted elements escaped them")
            values.append(below)
        return tuple(values)


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

    Computed once per instance as MIf plus an induced top, which is
    equivalent: the least induced element above a meet of two induced
    elements lies below both, and the one above the top is the top.
    MIf alone differs exactly over the empty meet. The definitional
    reading (the meet of the induced elements above each j is induced)
    is the tests' oracle.
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
    Built once per instance, on the first call; the tests check it as
    adjoint to the insertion. No condition check calls it.
    """
    _require(d, "MI")
    return d._f


def check_C2(d: InclusionData) -> bool:
    """meet(I, F(J)) = F(meet(I, J)) for induced I and every J; computed
    once per instance, with F read in the target as ``induced_covers``
    (F_map is not called). Raises MIViolated where F does not exist."""
    return d._c2_bad is None


def pi_map(d: InclusionData) -> PointMap:
    """Largest-restricted-below, as a map of prime spaces; needs JR.

    pi(p) is the join of the restricted elements below the prime p,
    which JR keeps restricted (``InclusionData._pi``); here each value
    is indexed into the restricted spectrum. Under JR this is the point
    map adjunct to the restricted insertion (Theorem 3.3); that route is
    the tests' oracle and is not rebuilt here.
    """
    pi = d._pi  # refuses first without JR
    spec_r = d.restricted_spectrum
    res_lat = d.restricted_lattice
    values = tuple(spec_r.prime_index[res_lat.index_of_label(v)] for v in pi)
    return PointMap(d.spectrum_a.space, spec_r.space, values)


class QuasiOrbitSpace(Record):
    """The quotient of the space ``base`` by the partition ``classes``.

    The constructor computes the quotient space and the class index of
    every point (``quotient`` and ``class_of``) once, by quotient_space;
    the tests compare them with the quotient built from the saturated
    opens through the validating constructor.
    """

    _fields = ("base", "classes")

    def __post_init__(self):
        quotient, class_of = quotient_space(self.base, self.classes)
        _store(self, "quotient", quotient)
        _store(self, "class_of", class_of)


def quasi_orbit_space(d: InclusionData) -> QuasiOrbitSpace:
    """Partition the source spectrum by the values of pi; requires JR.

    The classes are listed in ascending order of the pi values they sit
    over. The restricted lattice lists its elements in ascending ambient
    order, so this is the order of their points in the restricted
    spectrum. When C1 also holds, the quotient is homeomorphic to the
    restricted spectrum through those values (pi is then an open
    surjection, Theorem 4.2); the tests check that, not this call.
    """
    fibers: dict[int, int] = {}
    for point, v in enumerate(d._pi):
        fibers[v] = fibers.get(v, 0) | (1 << point)
    return QuasiOrbitSpace(d.spectrum_a.space, tuple(fibers[v] for v in sorted(fibers)))


class PrimeMapObstruction(Record):
    """Why r does not restrict to a map of prime spaces.

    ``kind`` is "restricted-not-frame" (detail: the distributivity
    witness) or "value-not-prime" (detail: the offending source prime
    and its r-image in the restricted lattice).
    """

    _fields = ("kind", "detail")


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

    rho sends a prime q to the class of the primes p with pi(p) = r(q).
    Under C1, pi is onto the restricted primes (Theorem 4.2), and under
    MI r(q) is one of them, so every r(q) is a pi value. Whether rho is
    an open surjection (iff C2, Corollary 4.8) and a homeomorphism (iff
    the connection separates, Corollary 4.9) is what the C48 and C49
    sweeps check on it, once each; rho is not re-checked here.
    """
    for name in ("JR", "C1", "MI"):
        _require(d, name)
    qos = quasi_orbit_space(d)
    class_over = {v: qos.class_of[point] for point, v in enumerate(d._pi)}
    r = d.gc.upper.values
    values = []
    for q in d.spectrum_b.primes:
        if r[q] not in class_over:
            raise AssertionError("r(q) is not a pi value")
        values.append(class_over[r[q]])
    return PointMap(d.spectrum_b.space, qos.quotient, tuple(values))
