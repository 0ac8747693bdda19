"""Answers computed apart from stonekit, to check its outputs against.

Nothing here imports stonekit. Each oracle works from the definitions:
posets by brute force over relations, automorphisms by filtering the
symmetric group, ideal maps of a multiplicity matrix from the support
sets, lattice operations by searching for greatest lower and least
upper bounds, and the closure conditions by their definitions over the
lattice tables.
"""

from __future__ import annotations

from itertools import permutations, product

# Labeled posets on n = 0..5 points (OEIS A001035).
LABELED_POSETS = (1, 1, 3, 19, 219, 4231)


def bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


# -- posets and automorphism groups -------------------------------------------


def labeled_posets(n: int) -> list[tuple[int, ...]]:
    """Every poset on n labeled points, as ``below`` masks.

    Each unordered pair of points is unrelated, or ordered one of two
    ways; the antisymmetric relations so drawn are kept when transitive.
    """
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    out = []
    for states in product((0, 1, 2), repeat=len(pairs)):
        below = [1 << i for i in range(n)]
        for (i, j), s in zip(pairs, states):
            if s == 1:
                below[j] |= 1 << i
            elif s == 2:
                below[i] |= 1 << j
        if all(below[i] & ~below[j] == 0 for j in range(n) for i in bits(below[j])):
            out.append(tuple(below))
    return out


def automorphisms(n: int, below: tuple[int, ...], perms, image) -> list[tuple[int, ...]]:
    """Permutations carrying every down-set row onto the row of the image."""
    return [
        perm
        for perm, table in zip(perms, image)
        if all(table[below[j]] == below[perm[j]] for j in range(n))
    ]


def small_subgroups(group: list[tuple[int, ...]], max_order: int) -> int:
    """Number of subgroups of order <= max_order.

    Groups of order at most 6 are cyclic, the Klein group or S3, all
    generated by two elements, so closing every pair finds each one.
    """
    n = len(group[0])
    identity = tuple(range(n))
    found = {frozenset([identity])}
    for a in range(len(group)):
        for b in range(a, len(group)):
            sub = {identity, group[a], group[b]}
            frontier = list(sub)
            while frontier and len(sub) <= max_order:
                g = frontier.pop()
                for h in (group[a], group[b]):
                    gh = tuple(g[h[x]] for x in range(n))
                    if gh not in sub:
                        sub.add(gh)
                        frontier.append(gh)
            if len(sub) <= max_order:
                found.add(frozenset(sub))
    return len(found)


def t62_census(max_points: int, max_order: int = 6) -> dict:
    """Labeled posets per size and the number of (space, subgroup) actions."""
    posets_per_size = []
    actions = 0
    for n in range(1, max_points + 1):
        perms = list(permutations(range(n)))
        image = [
            [sum(1 << perm[i] for i in bits(m)) for m in range(1 << n)] for perm in perms
        ]
        found = labeled_posets(n)
        posets_per_size.append(len(found))
        for below in found:
            actions += small_subgroups(automorphisms(n, below, perms, image), max_order)
    return {"posets": posets_per_size, "actions": actions}


def _iso_classes(posets: list[tuple[int, ...]], n: int) -> list[tuple[int, ...]]:
    perms = list(permutations(range(n)))
    seen = set()
    out = []
    for below in posets:
        canon = min(
            tuple(
                sorted(
                    (perm[j], sum(1 << perm[i] for i in bits(below[j])))
                    for j in range(n)
                )
            )
            for perm in perms
        )
        if canon not in seen:
            seen.add(canon)
            out.append(below)
    return out


def downset_count(n: int, below: tuple[int, ...]) -> int:
    return sum(
        1
        for m in range(1 << n)
        if all(below[i] & ~m == 0 for i in bits(m))
    )


def monotone_count(xn: int, xb: tuple[int, ...], pn: int, pb: tuple[int, ...]) -> int:
    """Order-preserving maps from one labeled poset into another."""
    return sum(
        1
        for f in product(range(pn), repeat=xn)
        if all(
            (pb[f[y]] >> f[x]) & 1
            for y in range(xn)
            for x in bits(xb[y])
        )
    )


def t33_census(max_frame: int, max_space: int) -> int:
    """Locale morphisms O(P) -> O(X) for the T33 sweep, by duality.

    Frame maps from the down-set frame of a finite poset P into the
    opens of a finite space X correspond one to one to continuous maps
    X -> P, which on these Alexandrov spaces are the monotone maps. P
    runs over one poset per isomorphism class with at most
    ``max_frame`` down-sets, X over every labeled poset with 1 to
    ``max_space`` points.
    """
    frames = []
    for n in range(0, max_frame):
        for below in _iso_classes(labeled_posets(n), n):
            if downset_count(n, below) <= max_frame:
                frames.append((n, below))
    spaces = [(n, b) for n in range(1, max_space + 1) for b in labeled_posets(n)]
    return sum(monotone_count(xn, xb, pn, pb) for xn, xb in spaces for pn, pb in frames)


# -- multiplicity matrices ------------------------------------------------------


def matrix_census_count(bound: int) -> int:
    """0/1 matrices up to bound x bound with no zero row: sum (2^l - 1)^k."""
    return sum((2**l - 1) ** k for k in range(1, bound + 1) for l in range(1, bound + 1))


def matrices(bound: int):
    for k in range(1, bound + 1):
        for l in range(1, bound + 1):
            rows = [r for r in product((0, 1), repeat=l) if any(r)]
            yield from product(rows, repeat=k)


class MatrixOracle:
    """The ideal calculus of a multiplicity matrix, from the set definitions.

    Ideals are summand sets (masks): ``induce(S)`` is the set of columns
    some row of S reaches, ``restrict(T)`` the set of rows whose whole
    support lies in T. Both lattices are boolean, so meets are
    intersections and joins are unions.
    """

    def __init__(self, matrix):
        self.rows = len(matrix)
        self.cols = len(matrix[0])
        self.support = [sum(1 << j for j, x in enumerate(r) if x) for r in matrix]
        self.receivers = [
            sum(1 << i for i, r in enumerate(matrix) if r[j]) for j in range(self.cols)
        ]
        self.full_a = (1 << self.rows) - 1
        self.full_b = (1 << self.cols) - 1

    def induce(self, s: int) -> int:
        out = 0
        for i in bits(s):
            out |= self.support[i]
        return out

    def restrict(self, t: int) -> int:
        return sum(1 << i for i, sup in enumerate(self.support) if sup & ~t == 0)

    def restricted(self) -> list[int]:
        return [s for s in range(self.full_a + 1) if self.restrict(self.induce(s)) == s]

    def induced(self) -> list[int]:
        return [t for t in range(self.full_b + 1) if self.induce(self.restrict(t)) == t]

    def symmetric(self) -> list[int]:
        """Row sets that contain every row meeting a column they reach."""
        return [
            s
            for s in range(self.full_a + 1)
            if all(self.receivers[j] & ~s == 0 for j in bits(self.induce(s)))
        ]

    def least_induced_above(self, t: int, induced: list[int]):
        above = [u for u in induced if t & ~u == 0]
        least = [u for u in above if all(u & ~v == 0 for v in above)]
        return least[0] if least else None

    def report(self) -> dict:
        """The verdicts ``stonekit analyze`` prints, by definition."""
        res, ind = self.restricted(), self.induced()
        res_set, ind_set = set(res), set(ind)
        cl = [self.restrict(self.induce(s)) for s in range(self.full_a + 1)]
        jr = 0 in res_set and all(x | y in res_set for x in res for y in res)
        c1 = all(i & cl[j] == cl[i & j] for i in res for j in range(self.full_a + 1))
        mif = all(x & y in ind_set for x in ind for y in ind)
        cover = [self.least_induced_above(t, ind) for t in range(self.full_b + 1)]
        mi = all(c is not None for c in cover)
        c2 = mi and all(
            i & cover[j] == cover[i & j] for i in ind for j in range(self.full_b + 1)
        )
        r_vals = [self.restrict(t) for t in range(self.full_b + 1)]
        return {
            "restricted": res,
            "induced": ind,
            "sizes": {
                "lattice_a": self.full_a + 1,
                "lattice_b": self.full_b + 1,
                "restricted": len(res),
                "induced": len(ind),
            },
            "conditions": {
                "JR": jr,
                "C1": c1 if jr else None,
                "MIf": mif,
                "MI": mi,
                "C2": c2 if mi else None,
            },
            "detects": all(r_vals[t] != r_vals[0] for t in range(1, self.full_b + 1)),
            "separates": len(set(r_vals)) == len(r_vals),
            "symmetric": [list(bits(s)) for s in self.symmetric()],
        }

    def quasi_orbit_class_sizes(self, res: list[int]) -> list[int]:
        """Sizes of the pi fibres over the source primes, under JR.

        The primes of the boolean row lattice are the sets missing one
        row; pi sends each to the largest restricted set below it, which
        under JR is the union of the restricted sets it contains.
        """
        fibres: dict[int, int] = {}
        for i in range(self.rows):
            prime = self.full_a & ~(1 << i)
            below = 0
            for s in res:
                if s & ~prime == 0:
                    below |= s
            fibres[below] = fibres.get(below, 0) + 1
        return sorted(fibres.values())

    def c54_applicable(self) -> bool:
        """Every restricted set is symmetric (the C54 hypothesis)."""
        sym = set(self.symmetric())
        return all(s in sym for s in self.restricted())


# -- lattices given by cover pairs ---------------------------------------------


class OrderOracle:
    """A finite order from cover pairs, with bounds found by search."""

    def __init__(self, points: int, covers):
        self.n = points
        below = [1 << i for i in range(points)]
        for lo, hi in covers:
            below[hi] |= 1 << lo
        changed = True
        while changed:
            changed = False
            for j in range(points):
                m = below[j]
                for i in bits(m):
                    m |= below[i]
                if m != below[j]:
                    below[j] = m
                    changed = True
        self.below = below

    def leq(self, x: int, y: int) -> bool:
        return (self.below[y] >> x) & 1 == 1

    def meet(self, x: int, y: int) -> int:
        lower = [z for z in range(self.n) if self.leq(z, x) and self.leq(z, y)]
        (g,) = [z for z in lower if all(self.leq(w, z) for w in lower)]
        return g

    def join(self, x: int, y: int) -> int:
        upper = [z for z in range(self.n) if self.leq(x, z) and self.leq(y, z)]
        (l,) = [z for z in upper if all(self.leq(z, w) for w in upper)]
        return l

    def breaks_distributivity(self, x: int, y: int, z: int) -> bool:
        return self.meet(x, self.join(y, z)) != self.join(self.meet(x, y), self.meet(x, z))


# -- graphs ---------------------------------------------------------------------


def graph_pairs(vertices: int, edges) -> tuple[list[tuple[int, int]], int]:
    """Admissible pairs (I, I') of a finite graph and the number of primes.

    I is positively invariant (edges out of I stay in I); I' lies
    between J | I and the vertices not forced into I, where J is the set
    of non-sinks and a vertex outside I is forced when every edge out of
    it lands in I. Pairs meet componentwise; a prime is a pair p other
    than the top with x /\\ y <= p only when x <= p or y <= p.
    """
    out_sets = [0] * vertices
    for s, r in edges:
        out_sets[s] |= 1 << r
    full = (1 << vertices) - 1
    j = sum(1 << v for v in range(vertices) if out_sets[v])
    pairs = []
    for inv in range(full + 1):
        if any(out_sets[v] & ~inv for v in bits(inv)):
            continue
        forced = sum(
            1 << v for v in range(vertices) if not (inv >> v) & 1 and out_sets[v] & ~inv == 0
        )
        for upper in range(full + 1):
            if (j | inv) & ~upper == 0 and upper & forced == 0:
                pairs.append((inv, upper))

    def leq(a, b):
        return a[0] & ~b[0] == 0 and a[1] & ~b[1] == 0

    top = [p for p in pairs if all(leq(q, p) for q in pairs)]
    primes = 0
    for p in pairs:
        if p in top:
            continue
        if all(
            leq(x, p) or leq(y, p) or not leq((x[0] & y[0], x[1] & y[1]), p)
            for x in pairs
            for y in pairs
        ):
            primes += 1
    return pairs, primes


# -- inclusion data given as lattice tables --------------------------------------


def table_verdicts(meet_a, join_a, meet_b, join_b, lower, upper) -> dict:
    """JR/C1/MIf/MI/C2, detects and separates from the bare tables.

    The order is read off the meet table (x <= y iff x /\\ y = x), the
    bottoms are searched for, and every condition is evaluated by its
    definition on the fixed points of the two maps.
    """
    na, nb = len(meet_a), len(meet_b)

    def leq_b(x, y):
        return meet_b[x][y] == x

    bottom_a = next(x for x in range(na) if all(meet_a[x][y] == x for y in range(na)))
    bottom_b = next(x for x in range(nb) if all(meet_b[x][y] == x for y in range(nb)))
    top_b = next(x for x in range(nb) if all(join_b[x][y] == x for y in range(nb)))
    cl = [upper[lower[x]] for x in range(na)]
    ker = [lower[upper[y]] for y in range(nb)]
    res = [x for x in range(na) if cl[x] == x]
    ind = [y for y in range(nb) if ker[y] == y]
    res_set, ind_set = set(res), set(ind)
    jr = bottom_a in res_set and all(join_a[x][y] in res_set for x in res for y in res)
    c1 = all(meet_a[i][cl[j]] == cl[meet_a[i][j]] for i in res for j in range(na))
    mif = all(meet_b[x][y] in ind_set for x in ind for y in ind)
    cover = []
    for t in range(nb):
        above = [u for u in ind if leq_b(t, u)]
        least = [u for u in above if all(leq_b(u, v) for v in above)]
        cover.append(least[0] if least else None)
    mi = all(c is not None for c in cover)
    c2 = mi and all(
        meet_b[i][cover[j]] == cover[meet_b[i][j]] for i in ind for j in range(nb)
    )
    return {
        "JR": jr,
        "C1": c1,
        "MIf": mif,
        "MI": mi,
        "C2": c2 if mi else None,
        "MI_top": top_b in ind_set,
        "detects": all(y == bottom_b or upper[y] != upper[bottom_b] for y in range(nb)),
        "separates": len(set(upper)) == nb,
    }
