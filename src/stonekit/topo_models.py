"""Group actions and bundle projections as inclusion data.

Two concrete sources of connections between open-set lattices:

* a finite group acting on a finite T0 space by homeomorphisms, where
  the restricted side is the lattice of invariant opens (saturation is
  the lower map, insertion the upper), and

* a continuous projection between two spaces, where induction is the
  open preimage and restriction takes the interior of the unreached
  complement.

The quasi-orbit machinery then applies to either.  For actions, the
quotient agrees with the classical orbit-closure picture; the agreement
check here is the finite witness of that.  For bundles, meets of opens
are plain intersections, so the meet-closure condition always holds and
openness questions route through the second meet identity rather than
through meet closure, which no finite instance can break.
"""

from functools import cached_property

from ._kernels import image, inside
from ._record import Record, _store
from .errors import ClosureTooLarge, NotContinuous, ShapeMismatch
from .galois import GaloisConnection, MonotoneMap
from .lattice import FiniteLattice, fixed_point_lattice
from .quasiorbit import InclusionData, quasi_orbit_space
from .spectrum import (
    FiniteT0Space,
    opens_lattice,
    soberification,
)

__all__ = [
    "FiniteGroupAction",
    "BundleMap",
    "group_closure",
    "invariant_opens",
    "orbit_closure_relation",
    "action_inclusion_data",
    "action_quasi_orbit_agreement",
    "bundle_inclusion_data",
]

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


def invariant_opens(a: FiniteGroupAction) -> tuple[FiniteLattice, MonotoneMap]:
    """The sublattice of invariant opens with its insertion into O(X).

    Each generator is a bijection, so invariant opens are closed under
    union and intersection and contain both bounds: the sublattice
    keeps the ambient meets and joins, read off the ambient masks with
    no escape scan, and the insertion is a locale morphism by
    construction.
    """
    olat = opens_lattice(a.space)
    kept = [k for k, u in enumerate(olat.labels) if a.is_invariant(u)]
    inv = fixed_point_lattice(olat, kept)
    return inv, MonotoneMap(inv, olat, inv.labels)


def action_inclusion_data(a: FiniteGroupAction) -> InclusionData:
    """Saturation below, insertion above; restricted = invariant opens."""
    olat = opens_lattice(a.space)
    inv, insertion = invariant_opens(a)
    lower = MonotoneMap(
        olat,
        inv,
        tuple(
            inv.index_of_label(olat.index_of_label(a.saturate(u)))
            for u in olat.labels
        ),
    )
    return InclusionData(GaloisConnection(lower, insertion))


def orbit_closure_relation(a: FiniteGroupAction) -> tuple[int, ...]:
    """Points grouped by the closure of their orbit, as point masks."""
    classes: dict[int, int] = {}
    for p in range(a.space.n):
        key = a.space.closure(a.orbit_mask(p))
        classes[key] = classes.get(key, 0) | (1 << p)
    return tuple(sorted(classes.values()))


def action_quasi_orbit_agreement(a: FiniteGroupAction) -> bool:
    """Whether the quasi-orbit partition matches the orbit-closure one.

    Points are matched to primes of O(X) through the soberification
    unit, then pushed through the quotient's class assignment.
    """
    d = action_inclusion_data(a)
    qos = quasi_orbit_space(d)
    unit = soberification(a.space)
    classes: dict[int, int] = {}
    for x in range(a.space.n):
        c = qos.class_of[unit.values[x]]
        classes[c] = classes.get(c, 0) | (1 << x)
    return set(classes.values()) == set(orbit_closure_relation(a))


class BundleMap(Record):
    """A continuous projection from a total space onto a base."""

    _fields = ("total", "base", "proj")

    def __post_init__(self):
        if self.proj.source != self.total or self.proj.target != self.base:
            raise ShapeMismatch("projection does not run from total to base")


def _interior(space: FiniteT0Space, mask: int) -> int:
    return inside(space.points.below, mask)


def bundle_inclusion_data(b: BundleMap) -> InclusionData:
    """Preimage below; above, the interior of what the complement misses.

    Both tables are certified as an adjoint pair on construction, so a
    formula slip cannot escape as a silently wrong connection.
    """
    base_lat = opens_lattice(b.base)
    total_lat = opens_lattice(b.total)
    full_total = (1 << b.total.n) - 1
    lower = MonotoneMap(
        base_lat,
        total_lat,
        tuple(total_lat.index_of_label(b.proj.preimage(u)) for u in base_lat.labels),
    )
    upper = MonotoneMap(
        total_lat,
        base_lat,
        tuple(
            base_lat.index_of_label(
                _interior(b.base, ((1 << b.base.n) - 1) ^ b.proj.image_mask(full_total ^ v))
            )
            for v in total_lat.labels
        ),
    )
    return InclusionData(GaloisConnection(lower, upper))
