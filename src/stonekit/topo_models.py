"""Group actions and bundle projections as inclusion data.

Two concrete sources of connections between open-set lattices:

* a finite group acting on a finite T0 space by homeomorphisms, where
  the restricted side is the lattice of invariant opens (saturation is
  the lower map, insertion the upper), and

* a continuous projection between two spaces, where induction is the
  open preimage and restriction the largest open whose preimage lies
  inside a given open.

Each is the (image, inside) pair of one relation from points to point
masks, built by ``GaloisConnection.from_relation``: a point goes to the
saturation of its down-set, or to the preimage of its down-set. The
sweeps read each as a ``PointRelation`` between posets instead
(``action_relation``, over the orbit poset, and ``bundle_relation``).

The quasi-orbit machinery then applies to either.  For actions, the
quotient agrees with the classical orbit-closure picture; the agreement
check here is the finite witness of that, read on the action's
relation.  For bundles, meets of opens are plain intersections, so the
meet-closure condition always holds and openness questions route
through the second meet identity rather than through meet closure,
which no finite instance can break.
"""

from functools import cached_property

from ._kernels import bits, image
from ._record import Record, _store
from .errors import ClosureTooLarge, NotContinuous, ShapeMismatch
from .galois import GaloisConnection
from .lattice import FiniteLattice, FinitePoset, fixed_point_lattice
from .quasiorbit import InclusionData, PointRelation, _classes, _holds_JR
from .spectrum import opens_lattice

_MAX_ORDER = 10_000


def _compose(g: tuple, h: tuple) -> tuple:
    return tuple(g[h[x]] for x in range(len(h)))


def group_closure(generators, n: int, max_order: int):
    """The group the permutations of range(n) generate, sorted.

    Raises ClosureTooLarge as soon as the group has more than
    ``max_order`` elements, without expanding the rest of it.
    """
    identity = tuple(range(n))
    seen = {identity}
    frontier = [identity]
    while frontier:
        nxt = []
        for h in frontier:
            for g in generators:
                gh = _compose(g, h)
                if gh not in seen:
                    if len(seen) >= max_order:
                        raise ClosureTooLarge(f"group order exceeds {max_order}")
                    seen.add(gh)
                    nxt.append(gh)
        frontier = nxt
    return tuple(sorted(seen))


class FiniteGroupAction(Record):
    """A group of order-automorphisms, stored as its full closure.

    Generators may be any homeomorphisms of the space; the group they
    generate is expanded eagerly so later computations can trust it,
    and a group of more than ``_MAX_ORDER`` elements raises
    ClosureTooLarge.
    """

    _fields = ("space", "generators")

    def __post_init__(self):
        n = self.space.n
        gens = tuple(tuple(g) for g in self.generators)
        object.__setattr__(self, "generators", gens)
        for g in gens:
            if sorted(g) != list(range(n)):
                raise ShapeMismatch("generator is not a permutation of the points")
            for x in range(n):
                for y in range(n):
                    if self.space.points.leq(x, y) != self.space.points.leq(g[x], g[y]):
                        raise NotContinuous(
                            "generator does not preserve specialization",
                            witness=(x, y),
                        )
        self.closure  # force the cap check at construction time

    @classmethod
    def _closed(cls, space, generators, closure) -> "FiniteGroupAction":
        """The action of ``generators``, order automorphisms of the space
        (from ``order_automorphisms``), whose group ``closure`` is
        ``group_closure`` of them, already expanded by the caller; only
        the cap is checked again."""
        if len(closure) > _MAX_ORDER:
            raise ClosureTooLarge(f"group order exceeds {_MAX_ORDER}")
        action = cls._trusted(space, generators)
        _store(action, "closure", closure)
        return action

    @cached_property
    def closure(self) -> tuple[tuple[int, ...], ...]:
        return group_closure(self.generators, self.space.n, _MAX_ORDER)

    @cached_property
    def _orbits(self) -> tuple[int, ...]:
        # the orbit relation: row x holds every g(x) in the group
        out = [0] * self.space.n
        for g in self.closure:
            for x, gx in enumerate(g):
                out[x] |= 1 << gx
        return tuple(out)

    def image_mask(self, g: tuple[int, ...], mask: int) -> int:
        return image([1 << gx for gx in g], mask & ((1 << self.space.n) - 1))

    def orbit_mask(self, point: int) -> int:
        return self._orbits[point]

    def saturate(self, mask: int) -> int:
        """The least invariant superset; invariant since closure is a group."""
        return image(self._orbits, mask)

    def is_invariant(self, mask: int) -> bool:
        return all(self.image_mask(g, mask) == mask for g in self.generators)


def _invariant_lattice(a: FiniteGroupAction) -> FiniteLattice:
    # Each generator is a bijection, so invariant opens are closed under
    # union and intersection and contain both bounds: the sublattice
    # keeps the ambient meets and joins, and with them the ambient open
    # masks as its meet masks, read off with no escape scan.
    olat = opens_lattice(a.space)
    return fixed_point_lattice(olat, [k for k, u in enumerate(olat.labels) if a.is_invariant(u)])


def action_inclusion_data(a: FiniteGroupAction) -> InclusionData:
    """Saturation below, insertion above; restricted = invariant opens.

    The relation sends point p to the saturation of its down-set: its
    image of an open U is the saturation of U, and the interior of an
    invariant open V is V itself (saturate(down p) lies in V iff p is
    in V), so the upper values are the ambient indices that label the
    invariant opens and the restricted lattice is ``lattice_b``.
    """
    rows = tuple(map(a.saturate, a.space.points.below))
    return InclusionData(
        GaloisConnection.from_relation(opens_lattice(a.space), _invariant_lattice(a), rows)
    )


def action_relation(a: FiniteGroupAction) -> PointRelation:
    """The action's connection on points: (X, Q, R), Q the orbit poset.

    The orbits are numbered in the order of their least points. Orbit
    o' lies below orbit o when o' meets the saturation of ↓x for a
    point x of o, and R[x] = ↓orbit(x). The orbits that meet the
    saturation of ↓x are those that meet ↓x itself (a point g(z) with
    z <= x has the orbit of z), and ↓g(x) = g(↓x) meets the same
    orbits, so the row depends only on the orbit of x and is read off
    its least point.

    Proof that Q is a poset. Reflexive: ↓x holds x. Transitive: if o'
    meets ↓x at z and o'' meets ↓z at w, then w <= z <= x.
    Antisymmetric: if o' <= o and o <= o', then for x in o and x' in o'
    there are g, h in the group and z <= x, w <= x' with x' = g(z) and
    x = h(w). So x = h(w) <= h(x') = hg(z) <= hg(x) = σ(x) with σ = hg.
    An automorphism σ of finite order k gives
    x <= σ(x) <= ... <= σ^k(x) = x, so x = σ(x), and then x = h(x'):
    o = o'.

    The invariant opens are exactly O(Q): an invariant down-set of X is
    a union of orbits, and the orbits it holds form a down-set of Q
    (an orbit below one of them meets the saturation of a down-set it
    holds); conversely the union of the orbits of a down-set of Q is
    invariant and down-closed. R's image of an open U is the set of
    orbits that meet U, the invariant open ``saturate(U)`` read on Q,
    so this is ``action_inclusion_data`` on points.
    """
    points = a.space.points
    orbit_of = [-1] * points.n
    least = []
    for x in range(points.n):
        if orbit_of[x] < 0:
            for y in bits(a.orbit_mask(x)):
                orbit_of[y] = len(least)
            least.append(x)
    meets = [1 << o for o in orbit_of]
    rows = tuple([image(meets, down) for down in points.below])
    orbits = FinitePoset._from_rows([rows[x] for x in least])
    return PointRelation(points, orbits, rows)


def orbit_closure_relation(a: FiniteGroupAction) -> tuple[int, ...]:
    """Points grouped by the closure of their orbit, as point masks."""
    classes: dict[int, int] = {}
    for p in range(a.space.n):
        key = a.space.closure(a.orbit_mask(p))
        classes[key] = classes.get(key, 0) | (1 << p)
    return tuple(sorted(classes.values()))


def action_quasi_orbit_agreement(a: FiniteGroupAction) -> bool:
    """Whether the quasi-orbit partition matches the orbit-closure one.

    Read on points (``action_relation``): the connection has JR, and the
    fibers of x -> c_x (``quasiorbit._classes``), the quasi-orbit
    classes under JR, are the orbit closures.
    """
    rel = action_relation(a)
    return _holds_JR(rel) and set(_classes(rel).values()) == set(orbit_closure_relation(a))


class BundleMap(Record):
    """A continuous projection from a total space onto a base."""

    _fields = ("total", "base", "proj")

    def __post_init__(self):
        if self.proj.source != self.total or self.proj.target != self.base:
            raise ShapeMismatch("projection does not run from total to base")


def bundle_relation(b: BundleMap) -> PointRelation:
    """The projection's connection on points: base point p goes to the
    preimage of its down-set, an open of the total space, monotone in
    p since preimages keep inclusion."""
    rows = tuple(map(b.proj.preimage, b.base.points.below))
    return PointRelation(b.base.points, b.total.points, rows)


def bundle_inclusion_data(b: BundleMap) -> InclusionData:
    """Preimage below; above, the largest open whose preimage lies inside.

    The relation sends base point p to the preimage of its down-set:
    its image of an open U is the preimage of U, and its interior of a
    total open V is the set of base points whose down-set pulls back
    into V, itself a down-set and so open. ``from_relation`` certifies
    the pair by theorem once both land.
    """
    rows = bundle_relation(b).rows
    return InclusionData(
        GaloisConnection.from_relation(opens_lattice(b.base), opens_lattice(b.total), rows)
    )
