"""Bitmask kernels, in pure Python.

Posets live as ``below`` masks: ``below[i]`` has bit j set exactly when
j <= i. Masks are plain ints, so carriers wider than a machine word work
unchanged.

A relation from indices to points is a tuple of rows, ``rows[i]`` the
mask of the points related to i. Its existential image ``image`` and
its universal image ``inside`` are the two halves of one Galois
connection, and every model's induction and restriction is that pair
for its own relation: ``multiplicity.induce``/``restrict`` over the
matrix's row supports, ``graph_pairs.x_forward``/``x_inverse`` over
the edge ranges, and ``spectrum.PointMap.image_mask``/``preimage`` over
the graph of the map. ``galois.GaloisConnection.from_relation`` builds
the model connections from these two kernels: a matrix's row supports,
the orbits that meet a point's down-set under an action, the preimage
of a base point's down-set under a bundle, a random seed's point
values.
"""


def bits(mask):
    """Indices of the set bits, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def image(rows, mask):
    """The union of ``rows[i]`` over the bits i of ``mask``."""
    out = 0
    while mask:
        low = mask & -mask
        out |= rows[low.bit_length() - 1]
        mask ^= low
    return out


def inside(rows, mask):
    """The mask of the indices i whose row lies inside ``mask``."""
    miss = ~mask
    out = 0
    for i, row in enumerate(rows):
        if not row & miss:
            out |= 1 << i
    return out


def monotone_witness(below, target_below, values):
    """The first pair x <= y whose values are not ordered, else None.

    ``below`` and ``target_below`` are the source and target rows and
    ``values`` the map; pairs come y-major, x ascending. Per value w in
    the image, the points mapped at or below w form one mask (the union
    of the fibers over w's row), so each y costs one mask test: the
    points below y outside that mask are exactly its failing x.
    """
    fiber = {}
    for x, v in enumerate(values):
        fiber[v] = fiber.get(v, 0) | (1 << x)
    hit = 0
    for v in fiber:
        hit |= 1 << v
    reach = {w: image(fiber, target_below[w] & hit) for w in fiber}
    for y, row in enumerate(below):
        bad = row & ~reach[values[y]]
        if bad:
            return ((bad & -bad).bit_length() - 1, y)
    return None


def closure(below):
    """Reflexive-transitive closure of the given masks (Warshall).

    For each pivot k in turn, every row holding bit k absorbs row k.
    After pivot k a row holds every point it reaches through pivots at
    most k, so one pass over the pivots closes the relation. The tests
    keep a fixpoint loop as the oracle.
    """
    out = [m | (1 << i) for i, m in enumerate(below)]
    for k in range(len(out)):
        row, bit = out[k], 1 << k
        for i, m in enumerate(out):
            if m & bit:
                out[i] = m | row
    return out


def check_poset(below):
    """None if the masks encode a poset, else (reason, i, j)."""
    n = len(below)
    for i in range(n):
        m = below[i]
        if m >> n:
            return ("out of range", i, n)
        if not (m >> i) & 1:
            return ("not reflexive", i, i)
        t = m
        while t:
            low = t & -t
            t ^= low
            j = low.bit_length() - 1
            if j != i and (below[j] >> i) & 1:
                return ("not antisymmetric", i, j)
            if below[j] & ~m:
                return ("not transitive", i, j)
    return None


def transpose(below):
    """above[i] has bit j set exactly when i <= j."""
    n = len(below)
    out = [0] * n
    for j in range(n):
        t = below[j]
        while t:
            low = t & -t
            t ^= low
            out[low.bit_length() - 1] |= 1 << j
    return out


def _principal(masks, common):
    # The element whose mask equals ``common``, if any. Uniqueness is
    # automatic: two such elements would be <= each other.
    t = common
    while t:
        low = t & -t
        t ^= low
        c = low.bit_length() - 1
        if masks[c] == common:
            return c
    return -1


def bound_tables(below):
    """Meet and join tables, or a witness pair without bounds.

    Returns (meet, join, None) on success and (None, None, (kind, x, y))
    when the pair (x, y) has no bound of the named kind. The search
    walks each common mask for its principal element, O(n^3) on a
    chain; it is the test oracle of the FiniteLattice constructor,
    which answers the same question with O(n^2) lookups.
    """
    n = len(below)
    above = transpose(below)
    meet = [[0] * n for _ in range(n)]
    join = [[0] * n for _ in range(n)]
    for x in range(n):
        bx = below[x]
        ax = above[x]
        for y in range(x, n):
            common = bx & below[y]
            m = _principal(below, common)
            if m < 0:
                return None, None, ("meet", x, y)
            meet[x][y] = meet[y][x] = m
            common = ax & above[y]
            m = _principal(above, common)
            if m < 0:
                return None, None, ("join", x, y)
            join[x][y] = join[y][x] = m
    return meet, join, None


def distributive_witness(meet, join):
    """The first triple (x, y, z), x-major then y then z, breaking
    x /\\ (y \\/ z) = (x /\\ y) \\/ (x /\\ z), or None.

    Triples that cannot break the law are skipped, so the first one
    found is the first one of the full scan (``distributive_witness_by_scan``
    in tests/oracles.py is that scan). Lemma: the law holds when y and
    z are comparable, and when x is comparable with both. If y <= z,
    both sides are x /\\ z, since x /\\ y <= x /\\ z (and dually for
    z <= y). If x <= y or x <= z, both sides are x. If y <= x and
    z <= x, both sides are y \\/ z. So the scan skips every x that is
    comparable with every element, and every z comparable with y; two
    elements are comparable exactly when their meet is one of them.
    """
    n = len(meet)
    for x in range(n):
        mx = meet[x]
        if all(v == x or v == w for w, v in enumerate(mx)):
            continue
        for y in range(n):
            xy = mx[y]
            jy = join[y]
            jxy = join[xy]
            my = meet[y]
            for z in range(n):
                yz = my[z]
                if yz != y and yz != z and mx[jy[z]] != jxy[mx[z]]:
                    return (x, y, z)
    return None


def downset_masks(below, cap):
    """All down-closed masks, sorted ascending; None past ``cap`` many."""
    n = len(below)
    # Grow along a linear extension; each new element may be added to
    # exactly the sets that already contain its strict lower cone.
    order = sorted(range(n), key=lambda i: (below[i].bit_count(), i))
    sets = [0]
    for e in order:
        need = below[e] & ~(1 << e)
        bit = 1 << e
        grown = [s | bit for s in sets if need & ~s == 0]
        sets.extend(grown)
        if len(sets) > cap:
            return None
    sets.sort()
    return sets
