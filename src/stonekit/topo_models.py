"""Group actions and bundle projections as inclusion data.

Two concrete sources of connections between open-set lattices:

* a finite group acting on a finite T0 space by homeomorphisms, where
  the target is the frame of the orbit poset, whose down-sets are the
  invariant opens read as sets of orbits, and the restricted opens are
  the invariant ones (saturation is the lower map, insertion the
  upper), and

* a continuous projection between two spaces, where induction is the
  open preimage and restriction the largest open whose preimage lies
  inside a given open.

Each is one relation between posets, a ``PointRelation``
(``action_relation``, from the points to the orbit poset, and
``bundle_relation``, from the base to the total space): a point goes to
the orbits that meet its down-set, or to the preimage of its down-set.
The sweeps decide on that relation, and its element model is the
(image, inside) pair between the two down-set frames
(``quasiorbit.relation_inclusion_data``).

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
from .lattice import FinitePoset
from .quasiorbit import InclusionData, PointRelation, _classes, _holds_JR, relation_inclusion_data

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

    def orbit_mask(self, point: int) -> int:
        return self._orbits[point]


def action_inclusion_data(a: FiniteGroupAction) -> InclusionData:
    """Saturation below, insertion above: ``action_relation`` between
    O(X) and O(Q), Q the orbit poset.

    O(Q) is the lattice of invariant opens, each read as the set of the
    orbits it holds (see ``action_relation``), so the target primes are
    labeled by sets of orbits, numbered by least point. The lower map
    sends an open U to the orbits that meet it, and the upper map a
    down-set of Q to the union of its orbits, an invariant open. So
    r(i(U)) is the saturation of U, the least invariant open around
    it, and the restricted opens are the invariant ones.
    """
    return relation_inclusion_data(action_relation(a))


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
    orbits that meet U, the saturation of U read on Q.
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

    ``bundle_relation`` between the down-set frames of the base and the
    total space: its image of an open U is the preimage of U, and its
    interior of a total open V is the set of base points whose down-set
    pulls back into V, itself a down-set and so open.
    """
    return relation_inclusion_data(bundle_relation(b))
