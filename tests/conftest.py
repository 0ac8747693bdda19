"""Shared builders and hypothesis strategies for the suite.

matrix_connection is a test-side oracle: it reads the ideal maps of a
0/1 multiplicity pattern straight off the set definitions, with no code
shared with the package. Module tests compare package output against it.
"""

from itertools import permutations, product

from hypothesis import strategies as st

from stonekit import (
    FiniteLattice,
    FinitePoset,
    GaloisConnection,
    MonotoneMap,
    MultiplicityInclusion,
    boolean_lattice,
    downset_lattice,
)
from stonekit import _kernels


def labeled_posets(n):
    """Every poset on n labeled points, by brute transitive closure."""
    out = []
    seen = set()
    for rel in product((0, 1), repeat=n * n):
        below = [1 << x for x in range(n)]
        for x in range(n):
            for y in range(n):
                if rel[x * n + y]:
                    below[y] |= 1 << x
        for _ in range(n):
            for y in range(n):
                m = below[y]
                for x in range(n):
                    if (m >> x) & 1:
                        m |= below[x]
                below[y] = m
        key = tuple(below)
        if key in seen or any(
            x != y and (below[y] >> x) & 1 and (below[x] >> y) & 1
            for x in range(n)
            for y in range(n)
        ):
            continue
        seen.add(key)
        out.append(FinitePoset(n, key))
    return out


def automorphisms(poset):
    """All order-automorphisms, found by filtering the symmetric group."""
    return [
        perm
        for perm in permutations(range(poset.n))
        if all(
            poset.leq(x, y) == poset.leq(perm[x], perm[y])
            for x in range(poset.n)
            for y in range(poset.n)
        )
    ]


def assert_same_lattice(got, want):
    """Equal as lattices and in every operation: lattice equality reads
    only the order and the labels, so the tables and the bounds are
    compared on their own, and the tables once more with
    ``_kernels.bound_tables`` of the order, a bound search that shares
    no lookup with either lattice."""
    assert got == want
    assert got.meet_table == want.meet_table
    assert got.join_table == want.join_table
    meet, join, bad = _kernels.bound_tables(list(got.order.below))
    assert bad is None
    assert got.meet_table == tuple(map(tuple, meet))
    assert got.join_table == tuple(map(tuple, join))
    assert (got.bottom, got.top) == (want.bottom, want.top)


def meets_commute_by_table(source, elements, images, target, values):
    """The oracle for ``lattice._meets_commute``: the first pair (x, v),
    x in ``elements`` order and v ascending, with
    source.meet(x, values[v]) != values[target.meet(images[x], v)],
    tested pair by pair on the meet tables; None when there is none."""
    for x in elements:
        for v in range(target.n):
            if source.meet_table[x][values[v]] != values[target.meet_table[images[x]][v]]:
                return x, v
    return None


def lattice_from_pairs(n, pairs, labels=None):
    return FiniteLattice(FinitePoset.from_pairs(n, pairs), labels)


def chain_lattice(n):
    return FiniteLattice(FinitePoset.chain(n))


def _cube_pairs():
    return [(s, s | (1 << b)) for s in range(8) for b in range(3) if not s >> b & 1]


# Small lattices with bottom 0 and top n - 1, as (n, cover pairs): two
# frames, the two forbidden sublattices of distributivity, and the cube.
LATTICE_BASES = {
    "chain2": (2, [(0, 1)]),
    # 0 bottom, 1 and 2 incomparable, 3 top
    "B2": (4, [(0, 1), (0, 2), (1, 3), (2, 3)]),
    # 0 bottom, atoms 1, 2, 3, top 4
    "M3": (5, [(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4)]),
    # 0 < 1 < 3 < 4 and 0 < 2 < 4
    "N5": (5, [(0, 1), (1, 3), (3, 4), (0, 2), (2, 4)]),
    "B3": (8, _cube_pairs()),
}


def diamond():
    return lattice_from_pairs(*LATTICE_BASES["B2"])


def pentagon():
    return lattice_from_pairs(*LATTICE_BASES["N5"])


def three_atom_diamond():
    return lattice_from_pairs(*LATTICE_BASES["M3"])


def _product_pairs(na, pa, nb, pb):
    """Cover pairs of the product order; (a, b) is index a * nb + b."""
    out = [(a * nb + x, a * nb + y) for a in range(na) for x, y in pb]
    out += [(x * nb + b, y * nb + b) for b in range(nb) for x, y in pa]
    return na * nb, out


@st.composite
def padded_lattices(draw):
    """A base lattice (or its product with another base), padded by a
    chain of 0 to 2 points below and above, its points relabeled at
    random. Distributive exactly when every base used is."""
    n, pairs = LATTICE_BASES[draw(st.sampled_from(sorted(LATTICE_BASES)))]
    if draw(st.booleans()):
        nb, pb = LATTICE_BASES[draw(st.sampled_from(["chain2", "B2", "M3", "N5"]))]
        n, pairs = _product_pairs(n, pairs, nb, pb)
    pairs = list(pairs)
    low, high = draw(st.integers(0, 2)), draw(st.integers(0, 2))
    bottom, top = 0, n - 1
    for _ in range(low):
        pairs.append((n, bottom))
        bottom, n = n, n + 1
    for _ in range(high):
        pairs.append((top, n))
        top, n = n, n + 1
    perm = draw(st.permutations(range(n)))
    return lattice_from_pairs(n, [(perm[x], perm[y]) for x, y in pairs])


def matrix_connection(mult):
    k = len(mult)
    l = len(mult[0]) if k else 0
    a, b = boolean_lattice(k), boolean_lattice(l)

    def ind(smask):
        out = 0
        for i in range(k):
            if (smask >> i) & 1:
                for j in range(l):
                    if mult[i][j]:
                        out |= 1 << j
        return out

    def res(tmask):
        out = 0
        for i in range(k):
            if all(not mult[i][j] or (tmask >> j) & 1 for j in range(l)):
                out |= 1 << i
        return out

    i_vals = tuple(b.index_of_label(ind(m)) for m in a.labels)
    r_vals = tuple(a.index_of_label(res(m)) for m in b.labels)
    return GaloisConnection(MonotoneMap(a, b, i_vals), MonotoneMap(b, a, r_vals))


@st.composite
def matrices(draw, max_rows=3, max_cols=3, max_entry=2):
    k = draw(st.integers(1, max_rows))
    l = draw(st.integers(1, max_cols))
    rows = tuple(
        tuple(draw(st.integers(0, max_entry)) for _ in range(l))
        for _ in range(k)
    )
    return MultiplicityInclusion(rows)


@st.composite
def posets(draw, max_points=5):
    """Random finite posets; edges only climb the index order."""
    n = draw(st.integers(1, max_points))
    below = [1 << i for i in range(n)]
    for j in range(1, n):
        for i in range(j):
            if draw(st.booleans()):
                below[j] |= below[i]
    return FinitePoset(n, tuple(below))


@st.composite
def downset_frames(draw, max_points=4):
    return downset_lattice(draw(posets(max_points)))


@st.composite
def connections(draw, max_points=3):
    """Join-preserving map by point assignment, upper adjoint synthesized."""
    pa = draw(posets(max_points))
    la = downset_lattice(pa)
    lb = downset_lattice(draw(posets(max_points)))
    gens = [draw(st.sampled_from(lb.labels)) for _ in range(pa.n)]
    vals = []
    for d in la.labels:
        m = 0
        for x in range(pa.n):
            if (d >> x) & 1:
                m |= gens[x]
        vals.append(lb.index_of_label(m))
    return GaloisConnection.from_lower(MonotoneMap(la, lb, tuple(vals)))


@st.composite
def monotone_maps(draw, max_points=3):
    """Random monotone maps between two down-set frames.

    A raw table is repaired upward along the order, so join-preserving
    and join-breaking maps both occur.
    """
    la = downset_lattice(draw(posets(max_points)))
    lb = downset_lattice(draw(posets(max_points)))
    raw = [draw(st.integers(0, lb.n - 1)) for _ in range(la.n)]
    vals = list(raw)
    for x in range(la.n):  # labels ascend with the order, so one pass works
        for y in range(la.n):
            if la.leq(y, x):
                vals[x] = lb.join_table[vals[x]][vals[y]]
    return MonotoneMap(la, lb, tuple(vals))
