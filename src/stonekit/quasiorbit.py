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
(from_relation: a matrix's, over its boolean lattices, and that of
every other model read on points, over the down-set frames of its
``PointRelation``, by the one builder ``relation_inclusion_data``).
The eight structural laws of Prop 2.6 follow from it and are checked
by the tests' oracle (``verify_prop26`` in tests/oracles.py), not on
construction; the fixed-point lattices are read off the ambient masks
by the same laws (restricted: ambient meets, closed joins; induced:
ambient joins, opened meets), with no scan for an escaping pair. C2
needs only F's values in the target, the least induced covers, so it
does not build F as a map into the induced lattice.

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

When every element of the source is restricted (r.i is the identity),
JR and C1 hold by theorem and are decided without a scan; dually, MIf,
MI and C2 when every element of the target is induced. That covers
every identity connection.

The point route. Under Stone duality a connection between finite
frames O(P) -> O(Q) is one relation R from P to Q (``PointRelation``),
and every sweep that reads a condition or a quasi-orbit class decides
on it: the five conditions, separation, whether pi is open, the
classes and rho itself are read off R with no lattice, connection or
spectrum (``_holds_JR`` ... ``_rho``, proofs in their docstrings).
The element model of such a relation, for the command line and for
T47's restricted prime map, is ``relation_inclusion_data``: a galois
seed, an action on its orbit poset and a bundle are each built there
from their relation. Each biconditional a sweep checks compares two
formulas computed independently: C1 against pi open, C2 against rho an
open surjection, separation against rho a homeomorphism on R, and in
T47 MI and C2 on R against restricted_prime_map on elements, which
needs no JR and whose restricted lattice need not be distributive.
Theorem 3.3 reads a locale morphism O(P) -> O(X) as its continuous map
f: X -> P and decides on the dual relation X -> P with rows ↓f(x):
Eq. (3.2) (``_holds_frobenius``) and separation against f open and
onto (``conformance._theorem33_sides``). The element checks of
the sweeps are the oracles in tests/oracles.py; the element
constructions here (``check_*``, ``quasi_orbit_space``,
``quasi_orbit_map``) serve the command line and the library.
"""

from __future__ import annotations

from functools import cached_property

from ._kernels import bits, image, inside
from ._record import Record, _store
from .errors import (
    ConditionViolated,
    JRViolated,
    MIViolated,
    NotAFrame,
)
from .galois import GaloisConnection, MonotoneMap
from .lattice import (
    FiniteLattice,
    _meets_commute,
    downset_lattice,
    escaping_pair,
    fixed_point_lattice,
    is_frame,
)
from .spectrum import (
    FiniteT0Space,
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
    def _all_restricted(self) -> bool:
        # r.i is the identity: every element of the source is restricted
        return len(self.restricted) == self.lattice_a.n

    @cached_property
    def _all_induced(self) -> bool:
        # i.r is the identity: every element of the target is induced
        return len(self.induced) == self.lattice_b.n

    @cached_property
    def _jr_bad(self):
        """None when JR holds, else the offending join (empty tuple = bottom).

        When every element is restricted, None without a scan: the whole
        carrier holds the bottom and every join.
        """
        if self._all_restricted:
            return None
        if self.lattice_a.bottom not in self.restricted:
            return ()
        return escaping_pair(self.lattice_a, "join", self.restricted)

    @cached_property
    def _mif_bad(self):
        """None when MIf holds, else the first pair of induced elements
        whose meet is not induced.

        When every element is induced, None without a scan: the whole
        carrier holds every meet.
        """
        if self._all_induced:
            return None
        return escaping_pair(self.lattice_b, "meet", self.induced)

    @cached_property
    def _c1_bad(self):
        """None when C1 holds, else the first pair (I, J), I restricted,
        with meet(I, r(i(J))) != r(i(meet(I, J))).

        When every element is restricted, None without a scan: r.i is
        the identity, so both sides read meet(I, J).
        """
        if self._all_restricted:
            return None
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
        ``induced_covers`` is F read in the target, so F is not built.

        When every element is induced, None without a scan: F is the
        identity, so both sides read meet(I, J).
        """
        _require(self, "MI")
        if self._all_induced:
            return None
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


# -- the point route -----------------------------------------------------------


class PointRelation(Record):
    """A connection O(P) -> O(Q) between down-set frames, as one relation.

    ``source`` is the poset P, ``target`` the poset Q, and ``rows[p]``
    a down-set mask of Q for each point p of P, monotone in p: p' <= p
    gives rows[p'] inside rows[p]. By Stone duality (Birkhoff) every
    connection between finite frames is one of these: a join-preserving
    map O(P) -> O(Q) is fixed by its values on the principal down-sets
    ↓p. The lower map is i(U) = ``image(rows, U)`` and the upper map
    r(V) = ``inside(rows, V)``, as in ``GaloisConnection.from_relation``;
    the closure is c(U) = r(i(U)). The sweeps compile each instance to
    one of these, or draw it as one, and read its conditions and classes
    on it, with no lattice, connection or spectrum. The record checks
    nothing: each builder says why its rows are lawful.

    Notation, shared by the criteria below. The restricted elements are
    the fixed points of c, the sets r(V); the induced elements are the
    sets i(U), which are exactly the unions of rows (i(r(V)) is the
    union of the rows inside V). The generators are c_j = c(↓j), the
    least restricted set that holds j; since the rows are monotone,
    i(↓j) = rows[j], so c_j = r(rows[j]) (``_generators``). A restricted
    set S holds x exactly when it holds c_x. T_y = {x : y in rows[x]} is
    the column of y, an up-set of P (``_columns``).
    """

    _fields = ("source", "target", "rows")

    @cached_property
    def _generators(self) -> tuple[int, ...]:
        rows = self.rows
        return tuple([inside(rows, row) for row in rows])

    @cached_property
    def _columns(self) -> tuple[int, ...]:
        out = [0] * self.target.n
        for x, row in enumerate(self.rows):
            for y in bits(row):
                out[y] |= 1 << x
        return tuple(out)

    def closure(self, mask: int) -> int:
        """c(U) = r(i(U)) for a down-set mask U of P."""
        return inside(self.rows, image(self.rows, mask))


def relation_inclusion_data(rel: PointRelation) -> InclusionData:
    """The element model of ``rel``: the connection (image, inside) of
    its rows between the down-set frames O(P) and O(Q), certified by
    ``GaloisConnection.from_relation``. The one builder of every model
    read on points: a galois seed, a group action (over its orbit
    poset) and a bundle projection."""
    return InclusionData(
        GaloisConnection.from_relation(downset_lattice(rel.source), downset_lattice(rel.target), rel.rows)
    )


def _holds_JR(rel: PointRelation) -> bool:
    """JR on points: no row is empty, and no p has a, b in rows[p] with
    rows[p] inside N_a | N_b, where N_a is the union of the rows that
    miss a.

    Proof. The bottom is restricted iff r(i(empty)) = r(empty), the set
    of points with an empty row, is empty. For binary joins: restricted
    S1, S2 have a restricted union iff c(S1 | S2) adds no point. With
    V_k = i(S_k), c(S1 | S2) = r(V1 | V2), and p is in S_k exactly when
    rows[p] lies inside V_k. So JR fails at a pair iff some p has
    rows[p] inside V1 | V2 but inside neither: pick a in rows[p] - V1
    and b in rows[p] - V2. V1 is a union of rows that miss a, so it
    lies in N_a, and V2 in N_b. Conversely, if rows[p] lies in
    N_a | N_b with a, b in rows[p], then S1 = r(N_a) and S2 = r(N_b)
    are restricted, N_a and N_b are induced (so i(S1) = N_a), and p is
    in c(S1 | S2) but in neither S_k, since a (resp. b) is in rows[p]
    and not in N_a (resp. N_b). a = b cannot occur: a would lie in
    N_a. O(|P| |Q|^2) mask tests.
    """
    rows = rel.rows
    if 0 in rows:
        return False
    missing = [0] * rel.target.n
    for row in rows:
        for a in range(rel.target.n):
            if not (row >> a) & 1:
                missing[a] |= row
    for row in rows:
        points = list(bits(row))
        for k, a in enumerate(points):
            for b in points[k + 1:]:
                if not row & ~(missing[a] | missing[b]):
                    return False
    return True


def _holds_C1(rel: PointRelation) -> bool:
    """C1 on points, given JR: c_p & c_q = c(c_p & ↓q) for all p, q.

    Proof. C1 reads I & c(J) = c(I & J) for restricted I and down-sets
    J. Taking I = c_p and J = ↓q gives the criterion. Conversely, under
    JR c keeps unions, so c(J) is the union of the c_q over q in J, and
    a restricted I is the union of the c_p over p in I. Then I & c(J) is
    the union of the c_p & c_q = c(c_p & ↓q), which is c of the union of
    the c_p & ↓q, that is c(I & J). The tests compare it with the
    element scan (``check_C1``); it is computed from c alone, never from
    pi, so T42 compares two independent formulas.
    """
    gens = rel._generators
    below = rel.source.below
    for cp in gens:
        for q, cq in enumerate(gens):
            if cp & cq != rel.closure(cp & below[q]):
                return False
    return True


def _union_of_rows(rows, mask: int) -> bool:
    # i(r(V)) = V: the rows inside V cover V
    return image(rows, inside(rows, mask)) == mask


def _holds_MIf(rel: PointRelation) -> bool:
    """MIf on points: every rows[p] & rows[q] is a union of rows.

    The induced elements are the unions of rows, and & distributes over
    |, so a meet of two induced elements is a union of the meets of
    their rows; each of those is itself a meet of two induced elements.
    """
    rows = rel.rows
    return all(
        _union_of_rows(rows, row & other) for k, row in enumerate(rows) for other in rows[k + 1:]
    )


def _holds_MI(rel: PointRelation) -> bool:
    """MI on points: MIf, and the rows cover Q (the top is induced)."""
    full = (1 << rel.target.n) - 1
    return image(rel.rows, (1 << rel.source.n) - 1) == full and _holds_MIf(rel)


def _holds_C2(rel: PointRelation) -> bool:
    """C2 on points, given MI: rows[p] & F(↓q) = F(rows[p] & ↓q) for all
    p and q, where F(↓q) is the meet of the rows that hold q and F(V)
    the union of F(↓q) over q in V.

    Proof. Under MI, F(V) is the least induced set above V. For ↓q it
    is the meet of the rows that hold q: each such row is induced and
    holds q, and every induced set that holds q is a union of rows, one
    of which holds q; under MIf that meet is induced, and MI's cover
    makes the family nonempty. F is the lower adjoint of the induced
    insertion, so it keeps unions. C2 reads I & F(J) = F(I & J) for
    induced I. Taking I = rows[p], J = ↓q gives the criterion;
    conversely I is a union of rows and J of principal down-sets, and
    both sides keep those unions. The tests compare it with the element
    scan (``check_C2``); it is computed from F alone, never from rho,
    so C48 compares two independent formulas.
    """
    rows, below = rel.rows, rel.target.below
    full = (1 << rel.target.n) - 1
    covers = []
    for column in rel._columns:
        meet = full
        for x in bits(column):
            meet &= rows[x]
        covers.append(meet)
    for row in rows:
        for q, cover in enumerate(covers):
            if row & cover != image(covers, row & below[q]):
                return False
    return True


def _holds_separation(rel: PointRelation) -> bool:
    """r is injective: every ↓q is a union of rows.

    r is injective iff every element of O(Q) is induced, and the
    induced elements are closed under unions while every down-set is
    the union of the ↓q inside it. Computed from the rows alone, never
    from rho, so C49 compares two independent formulas.
    """
    rows = rel.rows
    return all(_union_of_rows(rows, down) for down in rel.target.below)


def _holds_frobenius(rel: PointRelation) -> bool:
    """Eq. (3.2) on points, where r keeps unions: i(r(↓q) & ↓p) =
    ↓q & i(↓p) for every p in P and q in Q.

    Eq. (3.2) reads i(r(U) & V) = U & i(V) for U in O(Q) and V in O(P).
    Both sides keep unions in V, since i does and & distributes over |.
    In U the right side keeps them, and so does the left where r does,
    as when every row is a principal down-set ↓f(p): r(U) is then
    f^-1(U). Every down-set is the union of the principal ones inside
    it, so the principal pairs decide. Theorem 3.3 reads it on the dual
    of a locale morphism (``conformance._theorem33_sides``).
    """
    rows = rel.rows
    downs = [(v, image(rows, v)) for v in rel.source.below]
    return all(image(rows, inside(rows, u) & v) == u & iv for u in rel.target.below for v, iv in downs)


def _pi_is_open(rel: PointRelation) -> bool:
    """Whether pi is open, under JR: for every x and every j in c_x,
    some y <= x has c_y = c_j.

    Under JR the restricted sets form a sublattice of O(P). Its points
    are the distinct c_j, ordered by inclusion: c_j is join-irreducible
    there (if c_j = S1 | S2 with S_k restricted, the one that holds j
    holds c_j), and each restricted S is the union of the c_j inside
    it. The prime of O(P) at x goes to the largest restricted set that
    misses x, the union of the c_k that miss x, which is the prime of
    the point c_x: so pi(x) = c_x, and pi is onto (pi(j) = c_j). pi is
    open iff the image of each ↓x is a down-set. That image is
    {c_y : y <= x}; it holds c_x and lies below it, so its down-closure
    is the set of points below c_x, the c_j with j in c_x, and it is a
    down-set iff each of those is some c_y with y <= x. pi is read off
    the generators alone, never from C1.
    """
    gens = rel._generators
    below = rel.source.below
    for x, cx in enumerate(gens):
        reached = {gens[y] for y in bits(below[x])}
        if any(gens[j] not in reached for j in bits(cx)):
            return False
    return True


def _classes(rel: PointRelation) -> dict[int, int]:
    """The quasi-orbit classes on points: the fibers of x -> c_x, as
    point masks of P keyed by c_x, in the order of their least points.

    Under JR, pi(x) = c_x (see ``_pi_is_open``), so these are the pi
    fibers. For an action (``topo_models.action_relation``) they are
    the orbit closures, which is T62.
    """
    fibers: dict[int, int] = {}
    for x, cx in enumerate(rel._generators):
        fibers[cx] = fibers.get(cx, 0) | (1 << x)
    return fibers


def _rho(rel: PointRelation) -> PointMap:
    """rho on points, under JR, C1 and MI: Q -> the quasi-orbit space.

    The classes are ``_classes``, and the quasi-orbit space is
    ``quotient_space`` of P by them. Each class is named by the key
    K(x) = {j : x in c_j} of any of its points: x is in c_j exactly when
    c_x lies inside c_j, so K(x) = K(x') iff c_x = c_x'. The prime of
    O(Q) at y is Q - ↑y, and r of it is P - T_y, which under MI is the
    prime of the restricted point c_x for the x that rho(y) names. For
    a restricted point c_x and any restricted S, S lies below that
    prime iff S does not hold x. So rho(y) is the class whose key is
    {j : c_j meets T_y}. A key that names no class breaks that theorem
    and raises AssertionError, which the sweeps count as a violation.

    P's space is built trusted, since ``quotient_space`` reads only its
    points; Q's space and the quotient carry their opens, which
    PointMap reads when continuity fails. Whether rho is an open
    surjection (iff C2) and a homeomorphism (iff separation) is what
    C48 and C49 decide on it, against ``_holds_C2`` and
    ``_holds_separation``.
    """
    gens = rel._generators
    classes = tuple(_classes(rel).values())
    quotient, _ = quotient_space(FiniteT0Space._trusted(rel.source), classes)
    index = {}
    for k, members in enumerate(classes):
        x = (members & -members).bit_length() - 1
        key = sum(1 << j for j, cj in enumerate(gens) if (cj >> x) & 1)
        index[key] = k
    values = []
    for column in rel._columns:
        key = sum(1 << j for j, cj in enumerate(gens) if cj & column)
        if key not in index:
            raise AssertionError("the key of rho(y) names no class")
        values.append(index[key])
    return PointMap(FiniteT0Space(rel.target), quotient, tuple(values))
