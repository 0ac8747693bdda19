"""Directed graphs and their admissible pair lattices.

A finite graph moves vertex sets two ways: forward along edges, and
backward through ``x_inverse``, which keeps a vertex only when all of
its outgoing edges land inside the given set.  The two maps are adjoint
on the boolean lattice of vertex sets.  A pair (I, I') with I
positively invariant and ``J | I <= I' <= J_X(I)`` indexes one ideal of
the graph's relative algebra; the set of all such pairs, ordered
componentwise, is always a lattice.  Componentwise meets stay pairs,
while joins are the least pair above the componentwise union, which can
be strictly larger.

``j_pairs`` builds that lattice by construction, with no certification
pass.  It encodes a pair as the mask ``I | I' << vertices``, so the
componentwise order is inclusion of codes.  The codes are closed under
``&``: invariant sets are closed under intersection, and ``x_inverse``
preserves intersections, so the bound on I' is kept.  The top pair
(all vertices, all vertices) is always admissible.  A finite family
closed under meets and holding a top is a lattice, so the inclusion
order of the codes (``lattice.inclusion_rows``) is already a lattice
order.  The number of pairs, the sum of 2^|free| over the invariant
sets that carry one, is counted against the size cap before any order
is built.

The invariant sets that carry a pair are enumerated, not searched for.
An invariant I carries one exactly when no vertex of J lies in
``x_inverse(I) - I``.  A set is positively invariant exactly when it
holds everything its vertices reach, so it is a union of whole reach
classes (vertices with the same reach set, from ``_accel.closure`` of
the edge rows) that holds every class below each of its classes.  A
vertex v outside an invariant I lies in ``x_inverse(I)`` exactly when
its class is v alone, v has no loop, and I holds everything v reaches:
a larger class, or a loop, gives v an edge back into its own class.  So
a loopless one-vertex class in J is forced: it must join I as soon as
what it reaches is in.  ``j_pairs`` grows the sets class by class in
ascending order of the reach sets as integers, which extends the reach
order: a forced class joins every set that holds what it reaches, and
any other class doubles exactly those sets.  Each step reads only
classes already placed, so no set is dropped later, the list only
grows, and a graph with more such sets than the size cap is refused
after at most cap + 1 of them, however many invariant sets J rules out.

At finite vertex counts every vertex acts compactly, so the compactness
clause of the general pair definition is automatic and does not appear
in the predicate; the sink-free part of the vertex set plays the
largest admissible J.
"""

from functools import cached_property

from . import _accel
from ._kernels import image, inside
from ._record import Record
from .errors import JNotAdmissible, LatticeTooLarge
from .lattice import FiniteLattice, FinitePoset, _order_masks, inclusion_rows, max_lattice_size
from .spectrum import PrimeSpectrum, primes


class FiniteGraph(Record):
    """A finite directed graph; parallel edges are allowed."""

    _fields = ("vertices", "edges")

    def __post_init__(self):
        if self.vertices < 0:
            raise ValueError("vertex count must be nonnegative")
        edges = tuple((int(s), int(r)) for s, r in self.edges)
        for s, r in edges:
            if not (0 <= s < self.vertices and 0 <= r < self.vertices):
                raise ValueError(f"edge ({s}, {r}) out of range")
        object.__setattr__(self, "edges", edges)

    @cached_property
    def range_masks(self) -> tuple[int, ...]:
        """Per vertex, the set of ranges of its outgoing edges."""
        out = [0] * self.vertices
        for s, r in self.edges:
            out[s] |= 1 << r
        return tuple(out)


def _check_mask(g: FiniteGraph, mask: int) -> None:
    if mask < 0 or mask >> g.vertices:
        raise ValueError("vertex set out of range")


def x_forward(g: FiniteGraph, subset: int) -> int:
    """Ranges of all edges sourced inside the set."""
    _check_mask(g, subset)
    return image(g.range_masks, subset)


def x_inverse(g: FiniteGraph, subset: int) -> int:
    """Vertices all of whose outgoing edges land inside the set.

    Sinks qualify vacuously, so this is the full set on edgeless graphs.
    """
    _check_mask(g, subset)
    return inside(g.range_masks, subset)


def j_x(g: FiniteGraph) -> int:
    """The largest admissible relative set: all non-sinks."""
    return sum(1 << v for v, ranges in enumerate(g.range_masks) if ranges)


def _pair_bound(g: FiniteGraph, inv: int) -> int:
    # vertices allowed in I': those not forced back into I by x_inverse
    full = (1 << g.vertices) - 1
    return full ^ (x_inverse(g, inv) & ~inv)


class JPairLattice(Record):
    """All admissible pairs of a graph, as a componentwise lattice
    labeled by the pairs."""

    _fields = ("graph", "j", "lattice")

    @property
    def pairs(self) -> tuple[tuple[int, int], ...]:
        return self.lattice.labels


def j_pairs(g: FiniteGraph, j: int) -> JPairLattice:
    """Enumerate the admissible pairs for the chosen relative set.

    Only the invariant sets that carry a pair are enumerated, capped,
    so a graph with more of them than the size cap is refused after at
    most cap + 1. The pair count is then checked against the cap before
    any order is built. Past either, LatticeTooLarge is raised.
    """
    if j < 0 or j >> g.vertices:
        raise JNotAdmissible("relative set must be a vertex subset")
    # the invariant sets that carry a pair, grown one reach class at a
    # time (see the module docstring)
    classes = {}
    for v, reach in enumerate(_accel.closure(list(g.range_masks))):
        classes[reach] = classes.get(reach, 0) | 1 << v
    cap = max_lattice_size()
    sets = [0]
    for reach in sorted(classes):
        members = classes[reach]
        below = reach ^ members
        grown = [s | members for s in sets if below & ~s == 0]
        # a loopless one-vertex class in J is forced
        if members & ~j == 0 and not g.range_masks[members.bit_length() - 1] & members:
            sets = [s for s in sets if below & ~s] + grown
        else:
            sets += grown
        if len(sets) > cap:
            raise LatticeTooLarge(f"more than {cap} down-sets; raise STONE_MAX_LATTICE to allow")
    ranges = [(inv, j | inv, _pair_bound(g, inv) & ~(j | inv)) for inv in sets]
    count = sum(1 << free.bit_count() for _, _, free in ranges)
    if count > cap:
        raise LatticeTooLarge(f"{count} elements exceeds the cap of {cap}")
    pairs = []
    for inv, low, free in ranges:
        extra = free
        while True:
            pairs.append((inv, low | extra))
            if extra == 0:
                break
            extra = (extra - 1) & free
    pairs.sort()
    # the codes are closed under & and include the top pair's, so their
    # inclusion order is a lattice order (see the module docstring)
    order = FinitePoset._from_rows(*inclusion_rows([inv | upper << g.vertices for inv, upper in pairs]))
    lattice = FiniteLattice._of(order, tuple(pairs), *_order_masks(order))
    return JPairLattice(g, j, lattice)


def pair_prime_space(pl: JPairLattice) -> PrimeSpectrum:
    return primes(pl.lattice)


def EX_75() -> FiniteGraph:
    """Two edges out of a middle vertex into two sinks."""
    return FiniteGraph(3, ((1, 0), (1, 2)))
