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

At finite vertex counts every vertex acts compactly, so the compactness
clause of the general pair definition is automatic and does not appear
in the predicate; the sink-free part of the vertex set plays the
largest admissible J.
"""

from dataclasses import dataclass
from functools import cached_property

from .errors import JNotAdmissible
from .lattice import FinitePoset, FiniteLattice, validate_lattice
from .spectrum import PrimeSpectrum, primes

__all__ = [
    "FiniteGraph",
    "JPairLattice",
    "x_forward",
    "x_inverse",
    "is_positively_invariant",
    "j_x",
    "j_pairs",
    "pair_prime_space",
    "EX_75",
]


@dataclass(frozen=True)
class FiniteGraph:
    """A finite directed graph; parallel edges are allowed."""

    vertices: int
    edges: tuple[tuple[int, int], ...]

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
    out = 0
    for v, ranges in enumerate(g.range_masks):
        if (subset >> v) & 1:
            out |= ranges
    return out


def x_inverse(g: FiniteGraph, subset: int) -> int:
    """Vertices all of whose outgoing edges land inside the set.

    Sinks qualify vacuously, so this is the full set on edgeless graphs.
    """
    _check_mask(g, subset)
    out = 0
    for v, ranges in enumerate(g.range_masks):
        if ranges & ~subset == 0:
            out |= 1 << v
    return out


def is_positively_invariant(g: FiniteGraph, subset: int) -> bool:
    return x_forward(g, subset) & ~subset == 0


def j_x(g: FiniteGraph) -> int:
    """The largest admissible relative set: all non-sinks."""
    return sum(1 << v for v, ranges in enumerate(g.range_masks) if ranges)


def _pair_bound(g: FiniteGraph, inv: int) -> int:
    # vertices allowed in I': those not forced back into I by x_inverse
    full = (1 << g.vertices) - 1
    return full ^ (x_inverse(g, inv) & ~inv)


@dataclass(frozen=True)
class JPairLattice:
    """All admissible pairs of a graph, as a componentwise lattice.

    Construction re-derives the defining conditions and the order, so a
    hand-built instance cannot disagree with ``j_pairs``.
    """

    graph: FiniteGraph
    j: int
    pairs: tuple[tuple[int, int], ...]
    lattice: FiniteLattice

    def __post_init__(self):
        for inv, upper in self.pairs:
            if not is_positively_invariant(self.graph, inv):
                raise AssertionError(f"pair ({inv:#x}, {upper:#x}) is not invariant")
            if (self.j | inv) & ~upper:
                raise AssertionError(f"pair ({inv:#x}, {upper:#x}) misses J | I")
            if upper & ~_pair_bound(self.graph, inv):
                raise AssertionError(f"pair ({inv:#x}, {upper:#x}) exceeds its bound")
        if self.lattice.labels != self.pairs:
            raise AssertionError("lattice labels are not the pairs")
        for a, (ia, ua) in enumerate(self.pairs):
            for b, (ib, ub) in enumerate(self.pairs):
                wanted = ia & ~ib == 0 and ua & ~ub == 0
                if self.lattice.leq(a, b) != wanted:
                    raise AssertionError(f"order is not componentwise at ({a}, {b})")


def j_pairs(g: FiniteGraph, j: int) -> JPairLattice:
    """Enumerate the admissible pairs for the chosen relative set."""
    if j < 0 or j >> g.vertices:
        raise JNotAdmissible("relative set must be a vertex subset")
    pairs = []
    for inv in range(1 << g.vertices):
        if not is_positively_invariant(g, inv):
            continue
        low = j | inv
        high = _pair_bound(g, inv)
        if low & ~high:
            continue
        free = high & ~low
        extra = free
        while True:
            pairs.append((inv, low | extra))
            if extra == 0:
                break
            extra = (extra - 1) & free
    pairs.sort()
    order = FinitePoset(
        len(pairs),
        tuple(
            sum(
                1 << a
                for a, (ia, ua) in enumerate(pairs)
                if ia & ~ib == 0 and ua & ~ub == 0
            )
            for ib, ub in pairs
        ),
    )
    lattice = validate_lattice(order, labels=tuple(pairs))
    return JPairLattice(g, j, tuple(pairs), lattice)


def pair_prime_space(pl: JPairLattice) -> PrimeSpectrum:
    return primes(pl.lattice)


def EX_75() -> FiniteGraph:
    """Two edges out of a middle vertex into two sinks."""
    return FiniteGraph(3, ((1, 0), (1, 2)))
