"""Bitmask kernels, in pure Python.

Posets live as ``below`` masks: ``below[i]`` has bit j set exactly when
j <= i. Masks are plain ints, so carriers wider than a machine word work
unchanged.
"""


def bits(mask):
    """Indices of the set bits, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def monotone_witness(below, target_below, values):
    """The first pair x <= y whose values are not ordered, else None.

    ``below`` and ``target_below`` are the source and target rows and
    ``values`` the map; pairs come y-major, x ascending.
    """
    for y, t in enumerate(below):
        vy = target_below[values[y]]
        while t:
            low = t & -t
            t ^= low
            x = low.bit_length() - 1
            if not (vy >> values[x]) & 1:
                return (x, y)
    return None


def closure(below):
    """Reflexive-transitive closure of the given masks."""
    n = len(below)
    out = [m | (1 << i) for i, m in enumerate(below)]
    changed = True
    while changed:
        changed = False
        for i in range(n):
            m = out[i]
            acc = m
            t = m
            while t:
                low = t & -t
                t ^= low
                acc |= out[low.bit_length() - 1]
            if acc != m:
                out[i] = acc
                changed = True
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
    when the pair (x, y) has no bound of the named kind.
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
    """A triple breaking x /\\ (y \\/ z) = (x /\\ y) \\/ (x /\\ z), or None."""
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
