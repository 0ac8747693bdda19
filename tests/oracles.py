"""The definitional oracles and test enumerations of the suite.

The package computes each structure by one fast route; the functions
here compute the same things from the definitions, for the tests to
compare against. None of them is reached from the command line or the
sweeps, so they live with the tests:

* ``verify_prop26``: the eight laws of Prop 2.6, itemized, for any
  adjoint pair, and ``is_adjoint_pair``, the adjunction law pair by
  pair;
* ``prime_elements``: meet-prime elements by the O(n^3) scan, on any
  finite lattice;
* ``from_opens``: a finite T0 space from an explicit family of opens,
  every topology law validated, and ``quotient_by_from_opens``, a
  quotient space built through it;
* ``definitional_open_of``: U_I = {p : I !<= p} for every element I of
  a frame, prime by prime;
* ``sober_by_scan``: sobriety of a finite space by its definition,
  every irreducible closed set the closure of exactly one point;
* ``open_map_by_opens``: openness of a point map, open by open;
* ``join_extension``: a join-preserving map out of a down-set frame,
  extended from its point values by element joins; with the meet
  filter, the oracle of the T33 sweep's enumeration;
* ``adjunct_pi``: pi as the point map adjunct to the restricted
  insertion (Theorem 3.3);
* ``sublattice``: the induced order on a subset, certified by the
  ``FiniteLattice`` constructor;
* ``all_frames`` and ``monotone_maps``: one frame per isomorphism
  class, and every monotone map between two lattices;
* ``all_connections``: every Galois connection between the frames of
  two small posets, as the sweeps' seeds (the census);
* ``opposite``: a connection between the opposite frames, with the
  roles of its two maps swapped;
* ``invariant_opens``: the invariant opens of an action with their
  insertion into O(X), certified as a ``MonotoneMap``;
* ``distributive_witness_by_scan``: the first triple breaking the
  distributive law, by the full n^3 scan;
* ``relation_of``: the relation on points (P, Q, R) of any inclusion,
  read off the join-irreducibles of its frames (Birkhoff);
* ``element_check_T42``, ``element_check_T47``, ``element_check_C48``,
  ``element_check_C49`` and ``element_check_C54``: the sweeps' checks
  on lattice elements, through the ``check_*`` scans, the restricted
  spectrum and ``quasi_orbit_map``, the oracles of the sweeps' checks
  on points; ``element_check_T33``: ``theorem33_check`` of a T33
  morphism, the oracle of the sides T33 reads on points;
* ``element_quasi_orbit_agreement``: T62 on elements, the classes of
  ``quasi_orbit_space`` pulled back through the soberification unit,
  the oracle of ``action_quasi_orbit_agreement``.
"""

from stonekit import (
    ConditionViolated,
    FiniteGroupAction,
    FiniteLattice,
    FinitePoset,
    FiniteT0Space,
    GaloisConnection,
    InvalidTopology,
    MonotoneMap,
    NotAPoset,
    ShapeMismatch,
    PointMap,
    action_inclusion_data,
    adjunct_point_map,
    check_C1,
    check_C2,
    check_JR,
    check_MI,
    check_MIf,
    downset_lattice,
    is_homeomorphism,
    is_join_preserving,
    is_meet_preserving,
    is_open_map,
    is_surjective,
    is_symmetric,
    opens_lattice,
    orbit_closure_relation,
    pi_map,
    quasi_orbit_map,
    quasi_orbit_space,
    restricted_prime_map,
    separates,
    soberification,
    theorem33_check,
    to_inclusion_data,
)
from stonekit._kernels import bits
from stonekit._record import Record
from stonekit.conformance import (
    _compile_seed,
    _monotone_values,
    _poset_classes,
    all_frame_posets,
)
from stonekit.lattice import join_irreducibles
from stonekit.quasiorbit import PointRelation
from stonekit.topo_models import _invariant_lattice


class LawReport(Record):
    """Itemized health report of one connection.

    Every field is computed independently so a failure pinpoints the
    broken law. All eight hold for any true adjoint pair; the report
    exists to catch bugs in synthesized or hand-built connections.
    """

    _fields = (
        "monotone",
        "closure_law",
        "interior_law",
        "fixed_point_iso",
        "preservation",
        "unit_laws",
        "sublattice_closure",
        "insertion_adjunctions",
    )

    def items(self):
        return [(name, getattr(self, name)) for name in self._fields]

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
    so InclusionData does not re-run this; it is the oracle for that
    certificate and for hand-built or synthesized pairs.
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
        and all(a.meet(x, y) in res_set for x in restricted for y in restricted)
        and all(b.join(x, y) in ind_set for x in induced for y in induced)
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


def is_adjoint_pair(lower: MonotoneMap, upper: MonotoneMap) -> bool:
    """i(x) <= y iff x <= r(y), pair by pair: the oracle of the
    adjunction scan that certifies every ``GaloisConnection``."""
    if lower.source != upper.target or lower.target != upper.source:
        raise ShapeMismatch("maps do not run between the same two lattices")
    a, b = lower.source, lower.target
    return all(
        b.leq(lower.values[x], y) == a.leq(x, upper.values[y])
        for x in range(a.n)
        for y in range(b.n)
    )


def prime_elements(lat: FiniteLattice) -> tuple[int, ...]:
    """Meet-prime elements below the top, by the definitional scan.

    Works on any finite lattice; no distributivity is assumed.
    ``spectrum.primes`` takes the O(n^2) meet-irreducible route on
    frames instead; this O(n^3) scan is its oracle.
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


def from_opens(n: int, opens) -> FiniteT0Space:
    """The space on n points with the given opens, validating every
    topology law: the oracle of ``spectrum.quotient_space``."""
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
    space = FiniteT0Space(points)
    if tuple(family) != space.opens:
        raise InvalidTopology("family misses some down-sets of its order")
    return space


def quotient_by_from_opens(space: FiniteT0Space, classes):
    """The quotient by a partition, with its class assignment, through
    the validating constructor: the oracle of ``QuasiOrbitSpace`` and
    ``spectrum.quotient_space``. Its opens are the class-sets whose
    union is a saturated open of ``space``."""
    opens = set()
    for u in space.opens:
        if all(c & u in (0, c) for c in classes):
            opens.add(sum(1 << k for k, c in enumerate(classes) if c & u))
    class_of = tuple(
        next(k for k, c in enumerate(classes) if (c >> x) & 1)
        for x in range(space.n)
    )
    return from_opens(len(classes), opens), class_of


def definitional_open_of(lat: FiniteLattice, primes) -> tuple[int, ...]:
    """U_I as a mask over the indices of ``primes``, for every element I:
    the oracle of ``PrimeSpectrum.open_of``."""
    return tuple(
        sum(1 << k for k, p in enumerate(primes) if not lat.leq(i, p))
        for i in range(lat.n)
    )


def sober_by_scan(space: FiniteT0Space) -> bool:
    """Every irreducible closed set is the closure of a unique point,
    by the O(c^3) scan over the c closed sets: the oracle of
    ``spectrum.is_sober``, which holds by theorem."""
    full = (1 << space.n) - 1
    closed = [full & ~u for u in space.opens]
    closures = [space.closure(1 << x) for x in range(space.n)]
    for c in closed:
        if c == 0:
            continue
        reducible = any(
            c1 | c2 == c
            for c1 in closed
            if c1 != c and not c1 & ~c
            for c2 in closed
            if c2 != c and not c2 & ~c
        )
        if not reducible and closures.count(c) != 1:
            return False
    return True


def open_map_by_opens(f) -> bool:
    """The image of every open is open, tested on every open: the
    oracle of ``spectrum.is_open_map``, which decides on points."""
    target = set(f.target.opens)
    return all(f.image_mask(u) in target for u in f.source.opens)


def join_extension(la: FiniteLattice, lb: FiniteLattice, assigned) -> tuple[int, ...]:
    """The values of the join-preserving map out of the down-set frame
    ``la`` that sends each point p to ``assigned[p]``, an element of
    ``lb``: each down-set goes to the join of the values of its points.
    The oracle of the lower maps ``GaloisConnection.from_relation``
    builds out of a down-set frame."""
    return tuple(lb.big_join(assigned[p] for p in bits(u)) for u in la.labels)


def adjunct_pi(d):
    """pi of an inclusion with JR, as the point map adjunct to the
    restricted insertion G: I -> U_I of the source spectrum, certified as
    a ``MonotoneMap`` and as a locale morphism: the oracle of
    ``quasiorbit.pi_map``."""
    spec_a = d.spectrum_a
    res_lat = d.restricted_lattice
    olat = opens_lattice(spec_a.space)
    g = MonotoneMap(
        res_lat,
        olat,
        tuple(olat.index_of_label(spec_a.open_of[x]) for x in res_lat.labels),
    )
    return adjunct_point_map(g, spec_a.space)


def sublattice(lat: FiniteLattice, elements) -> FiniteLattice:
    """The induced order on ``elements``, certified as a lattice.

    Labels are the ambient element indices. Meets and joins are those of
    the subposet, which need not agree with the ambient ones; the
    oracle of ``lattice.fixed_point_lattice``.
    """
    elements = sorted(set(elements))
    return FiniteLattice(lat.order.subposet(elements), elements)


def all_frames(max_size: int) -> list[FiniteLattice]:
    """One frame per isomorphism class with at most ``max_size`` elements."""
    return [downset_lattice(p) for p in all_frame_posets(max_size)]


_MAX_TABLES = 10_000_000


def monotone_maps(src: FiniteLattice, dst: FiniteLattice):
    """All monotone maps src -> dst as value tuples, order-pruned.

    The recursion walks a linear extension of the source, so every
    partial assignment already satisfies its order constraints. Above
    ``_MAX_TABLES`` candidate tables (|dst| ** |src|) the walk refuses;
    callers wanting coverage of larger pairs should sample with a
    generator.
    """
    if dst.n**src.n > _MAX_TABLES:
        raise ValueError("candidate table exceeds the enumeration cap")
    yield from _monotone_values(src.order, dst)


def all_connections(k: int) -> list[PointRelation]:
    """The census: every connection between the down-set frames of two
    posets on 1..k points, one poset per isomorphism class a side.

    Under Stone duality a Galois connection O(P) -> O(Q) is its lower
    map, which preserves joins and so is fixed by its values on the
    down-sets of single points: a monotone assignment of down-sets of Q
    to the points of P. Every such assignment is enumerated, as the
    relation on points a galois seed is, which the sweeps decide on and
    compile to elements (``conformance._compile_seed``).
    """
    reps = _poset_classes(k)
    out = []
    for source in reps:
        for target in reps:
            lb = downset_lattice(target)
            for values in _monotone_values(source, lb):
                out.append(PointRelation(source, target, tuple(lb.labels[v] for v in values)))
    return out


def opposite(gc: GaloisConnection) -> GaloisConnection:
    """d^op: between the opposite lattices, the upper map r is a lower
    adjoint with upper adjoint i. Certified by the constructor."""
    a, b = (
        FiniteLattice(FinitePoset(lat.n, tuple(lat.order.above())))
        for lat in (gc.lattice_a, gc.lattice_b)
    )
    return GaloisConnection(MonotoneMap(b, a, gc.upper.values), MonotoneMap(a, b, gc.lower.values))


def invariant_opens(a: FiniteGroupAction) -> tuple[FiniteLattice, MonotoneMap]:
    """The sublattice of invariant opens with its insertion into O(X).

    The sublattice is labeled by the ambient indices of its opens, and
    the insertion, a locale morphism by construction, is certified here
    by the ``MonotoneMap`` constructor.
    """
    inv = _invariant_lattice(a)
    return inv, MonotoneMap(inv, opens_lattice(a.space), inv.labels)


def distributive_witness_by_scan(meet, join):
    """The first triple (x, y, z), x-major, breaking
    x /\\ (y \\/ z) = (x /\\ y) \\/ (x /\\ z), or None, over every
    triple: the oracle of ``_kernels.distributive_witness``, which skips
    the triples that cannot break the law."""
    n = len(meet)
    for x in range(n):
        mx = meet[x]
        for y in range(n):
            xy = mx[y]
            jy = join[y]
            jxy = join[xy]
            for z in range(n):
                if mx[jy[z]] != jxy[mx[z]]:
                    return (x, y, z)
    return None


def relation_of(d) -> PointRelation:
    """The relation on points of an inclusion between any two frames.

    P = J(A) and Q = J(B), each ordered as in its lattice, and R[p] is
    the set of the q in J(B) below i(p). By Birkhoff, x -> {j in J(A) :
    j <= x} is an isomorphism A = O(P); a join-irreducible of a frame
    lies below a join only when it lies below one of its terms, so
    i(x) reads as the union of the rows of the points below x.
    """
    a, b = d.lattice_a, d.lattice_b
    ja, jb = join_irreducibles(a), join_irreducibles(b)
    i = d.gc.lower.values
    rows = tuple(sum(1 << k for k, q in enumerate(jb) if b.leq(q, i[p])) for p in ja)
    return PointRelation(a.order.subposet(ja), b.order.subposet(jb), rows)


def element_check_T42(d):
    """T42 on elements: under JR, C1 iff pi_map is an open surjection."""
    if not check_JR(d):
        return False, True
    pi = pi_map(d)
    return True, check_C1(d) == (is_open_map(pi) and is_surjective(pi))


def _element_check_rho(d, verdict):
    # C48 and C49 on elements: a refused precondition of quasi_orbit_map
    # makes the instance inapplicable, and otherwise ``verdict(d, rho)``
    # decides
    try:
        rho = quasi_orbit_map(d)
    except ConditionViolated:
        return False, True
    return True, verdict(d, rho)


def element_check_C48(d):
    """C48 on elements: rho is an open surjection iff C2."""
    return _element_check_rho(
        d, lambda d, rho: (is_open_map(rho) and is_surjective(rho)) == check_C2(d)
    )


def element_check_C49(d):
    """C49 on elements: rho is a homeomorphism iff the connection
    separates."""
    return _element_check_rho(d, lambda d, rho: is_homeomorphism(rho) == separates(d.gc))


def element_check_T47(d):
    """T47 on elements: MI and C2 iff r cuts down to an open surjection
    of prime spaces."""
    rpm = restricted_prime_map(d)
    right = isinstance(rpm, PointMap) and is_open_map(rpm) and is_surjective(rpm)
    return True, (check_MI(d) and check_C2(d)) == right


def element_check_T33(rel):
    """T33 on elements: the ``Theorem33Report`` of the locale morphism
    whose relation on points is ``rel``, the lower map of its element
    model (``conformance._compile_seed``) into the opens of the space
    on ``rel.target``; the oracle of ``conformance._theorem33_sides``."""
    return theorem33_check(_compile_seed(rel).gc.lower, FiniteT0Space(rel.target))


def element_check_C54(m):
    """C54 on elements: where every restricted element of the matrix's
    inclusion is a symmetric summand set, JR, C1 and MIf hold."""
    if not m.is_injective:
        return False, True
    d = to_inclusion_data(m)
    if not all(is_symmetric(m, d.lattice_a.labels[x]) for x in d.restricted):
        return False, True
    return True, check_JR(d) and check_C1(d) and check_MIf(d)


def element_quasi_orbit_agreement(a) -> bool:
    """T62 on elements: the classes of ``quasi_orbit_space``, matched to
    the points through the soberification unit, are the orbit
    closures."""
    qos = quasi_orbit_space(action_inclusion_data(a))
    unit = soberification(a.space)
    classes = {}
    for x in range(a.space.n):
        c = qos.class_of[unit.values[x]]
        classes[c] = classes.get(c, 0) | (1 << x)
    return set(classes.values()) == set(orbit_closure_relation(a))
