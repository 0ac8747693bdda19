"""Random instance generation and theorem-conformance sweeps.

Two halves. The generators draw reproducible random instances of every
model family from a 64-bit seed. The sweeps run a named conformance
check (a biconditional or an implication shadowing one of the package's
structure theorems) over either an exhaustive enumeration of small
structures or a stream of seeded random instances.

Every sweep but the reduced T62 is an instance stream plus a check, run
by one loop (``_sweep``): it counts the instances and the applicable
ones, and at the first violation shrinks the instance greedily with the
shrinker of its kind and raises SweepFailed with the minimized
counterexample document. One table (``_KINDS``) gives each instance kind
its shrinker, the model its document describes and its compiler to a
relation on points; one table (``_SWEEPS``) gives each tag its default
budget, its cap and its runner.

Every sweep that reads a condition or a quasi-orbit class reads it on
points, off one relation (P, Q, R), a ``quasiorbit.PointRelation``. A
galois seed is such a relation; an action or a bundle compiles
straight to one; a matrix is one on two antichains. T42, C48, C49, C54
and T62 decide with no lattice, connection, inclusion or spectrum. T47
decides MI and C2 on the relation too, and materializes the instance's
``InclusionData`` only for ``restricted_prime_map``, the other side of
its biconditional. T33 enumerates each locale morphism as the relation
of its continuous map X -> P and decides Theorem 3.3 on points, with no
lattice, connection or spectrum either (``_locale_morphisms``,
``_check_T33``); L51 decides on the matrix.

The counting pass is split across the CPUs the process may run on
(``os.sched_getaffinity``), by ``_in_shares``: with W of them, share w
checks the units k = w (mod W), where a unit is an instance, a (frame,
space) pair in T33 and a poset representative in the reduced T62. Share
0 runs in the calling process and the others in forked children, which
send their counts back through a pipe; a share draws or enumerates only
its own units (a T62 share the automorphisms and subgroup classes of
its representatives). With one CPU, or without ``os.fork``, the one
share runs inline. When any share meets a violation or an exception,
the serial loop reruns from the start, so reports, counterexamples,
messages and exceptions are those of a run on one CPU. A library
cross-check that breaks (an AssertionError) is a violation of the
instance it breaks on, for every tag; the reduced T62 meets it as an
exception and reruns as the labeled census, whose loop reports it.

Sweep tags and their budgets:

  T33  Theorem 3.3 on every locale morphism from a frame with at most
       ``budget`` elements into O(X), X a space with <= 3 points;
       the frames are the down-set frames of one poset per isomorphism
       class, taken from ``_poset_classes``
  T42  under join-closure, the first meet identity iff the point map of
       the restricted insertion is open and surjective; ``budget``
       random instances
  T47  full meet closure plus the second meet identity iff r cuts down
       to a well-defined open surjection of prime spaces; ``budget``
       random instances
  C48  where the quasi-orbit map exists, openness plus surjectivity of
       it iff the second meet identity; ``budget`` random instances
  C49  where the quasi-orbit map exists, it is a homeomorphism iff the
       connection separates; ``budget`` random instances
  L51  symmetric summand sets are restricted, over all 0/1 matrices up
       to ``budget`` x ``budget`` with no zero row
  C54  all restricted sets symmetric forces join closure and both meet
       conditions, over the same matrices
  T62  quasi-orbit classes equal orbit closures for every automorphism
       group of order <= 6 acting on every poset with <= ``budget``
       points. The statement does not depend on how points are
       labeled, so each isomorphism class of posets is checked once, on
       one representative R. Nor does it tell conjugate subgroups H and
       gHg^-1 (g in Aut(R)) apart, since g carries one action onto the
       other; so on R one subgroup per Aut(R)-conjugacy class is
       checked. Orbit-stabilizer counts the labeled census: the pair
       (R, class of H) stands for n!/|Aut(R)| labelings of R times the
       |class| subgroups conjugate to H. The labeled census is kept: it
       runs instead on a violation, so the report names the first
       violating labeled action and its minimized document, and the
       tests compare it with the reduced sweep, since only it would
       catch a labeling-dependent bug.
"""

from __future__ import annotations

import os
import random
from functools import partial
from itertools import combinations, islice
from math import factorial

from . import _accel
from ._kernels import bits, image, inside
from ._record import Record
from .documents import document_for, inclusion_data_for
from .errors import ClosureTooLarge, StonekitError, SweepFailed
from .galois import GaloisConnection
from .lattice import (
    FinitePoset,
    _invariant_keys,
    downset_lattice,
    order_automorphisms,
    poset_isomorphism,
)
from .multiplicity import (
    MultiplicityInclusion,
    binary_matrices,
    induce,
    is_symmetric,
    restrict,
)
from .quasiorbit import (
    InclusionData,
    PointRelation,
    _holds_C1,
    _holds_C2,
    _holds_frobenius,
    _holds_JR,
    _holds_MI,
    _holds_MIf,
    _holds_separation,
    _pi_is_open,
    _rho,
    restricted_prime_map,
)
from .spectrum import (
    FiniteT0Space,
    PointMap,
    is_homeomorphism,
    is_open_map,
    is_surjective,
)
from .topo_models import (
    BundleMap,
    FiniteGroupAction,
    action_quasi_orbit_agreement,
    action_relation,
    bundle_relation,
    group_closure,
)

_MASK64 = (1 << 64) - 1

# matrix entries and action generators drawn at most; the edge bound of
# the retired graph family stays in the seed key (see rng)
_MAX_ENTRY, _MAX_GENERATORS, _MAX_EDGES = 2, 2, 8


class InstanceGenerator(Record):
    """A reproducible instance source: same fields, same instance."""

    _fields = ("seed", "family", "max_points")
    _defaults = {"seed": 0, "family": "random-galois", "max_points": 4}

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        if not 0 <= self.seed <= _MASK64:
            raise ValueError("seed must fit in 64 bits")
        if self.max_points < 1:
            raise ValueError("max_points out of range")

    def rng(self) -> random.Random:
        # The three draw bounds are part of the key, so a seed keeps
        # drawing the instances the golden sweep reports pin.
        key = ":".join(
            str(part)
            for part in (
                self.family,
                self.seed,
                self.max_points,
                _MAX_ENTRY,
                _MAX_GENERATORS,
                _MAX_EDGES,
            )
        )
        return random.Random(key)


def _linear_extension(poset: FinitePoset) -> list[int]:
    return sorted(range(poset.n), key=lambda p: bin(poset.below[p]).count("1"))


def _random_poset(rng: random.Random, max_points: int) -> FinitePoset:
    n = rng.randint(1, max_points)
    order = rng.sample(range(n), n)
    density = rng.uniform(0.15, 0.75)
    pairs = []
    for a in range(n):
        for b in range(a + 1, n):
            if rng.random() < density:
                pairs.append((order[a], order[b]))
    return FinitePoset.from_pairs(n, pairs)


def _random_point_values(
    rng: random.Random, source: FinitePoset, target: FinitePoset
) -> tuple[int, ...]:
    """A monotone point map source -> target, constant as a last resort."""
    for _ in range(24):
        values = [0] * source.n
        for p in _linear_extension(source):
            strict = source.below[p] & ~(1 << p)
            floor = [values[q] for q in bits(strict)]
            candidates = [
                b for b in range(target.n) if all(target.leq(v, b) for v in floor)
            ]
            if not candidates:
                break
            values[p] = rng.choice(candidates)
        else:
            return tuple(values)
    return (rng.randrange(target.n),) * source.n


def _random_galois_seed(rng: random.Random, max_points: int) -> PointRelation:
    """A join-preserving map in shrinkable form: its relation on points.

    Each source point gets a target down-set mask, monotonically; the
    lower map extends the assignment by unions, so it preserves joins
    by construction.
    """
    source = _random_poset(rng, max_points)
    target = _random_poset(rng, max_points)
    if rng.random() < 0.5:
        # principal values: the lower map is direct image followed by
        # down-closure, which keeps the restricted side join-closed
        f = _random_point_values(rng, source, target)
        values = tuple(target.below[f[p]] for p in range(source.n))
        return PointRelation(source, target, values)
    downs = _accel.downset_masks(list(target.below), 1 << target.n)
    values = [0] * source.n
    for p in _linear_extension(source):
        floor = image(values, source.below[p] & ~(1 << p))
        values[p] = rng.choice([m for m in downs if m & floor == floor])
    return PointRelation(source, target, tuple(values))


def _compile_seed(seed: PointRelation) -> InclusionData:
    # the element model of a galois seed, for its document and for T47's
    # restricted prime map
    la = downset_lattice(seed.source)
    lb = downset_lattice(seed.target)
    return InclusionData(GaloisConnection.from_relation(la, lb, seed.rows))


def _matrix_relation(m: MultiplicityInclusion) -> PointRelation:
    # the matrix's connection between boolean frames: each row goes to
    # its support, over two antichains
    rows = m.row_supports
    return PointRelation(FinitePoset.antichain(len(rows)), FinitePoset.antichain(m.b_summands), rows)


def _random_matrix(rng: random.Random, gen: InstanceGenerator) -> MultiplicityInclusion:
    rows = rng.randint(1, min(gen.max_points, 6))
    cols = rng.randint(1, min(gen.max_points, 6))
    entries = range(_MAX_ENTRY + 1)
    mult = tuple(
        tuple(rng.choice(entries) for _ in range(cols)) for _ in range(rows)
    )
    return MultiplicityInclusion(mult, None, None)


def _random_action(rng: random.Random, gen: InstanceGenerator) -> FiniteGroupAction:
    poset = _random_poset(rng, min(gen.max_points, 5))
    auts = order_automorphisms(poset)
    count = rng.randint(0, _MAX_GENERATORS)
    generators = tuple(rng.choice(auts) for _ in range(count))
    return FiniteGroupAction(FiniteT0Space(poset), generators)


def _random_bundle(rng: random.Random, gen: InstanceGenerator) -> BundleMap:
    bound = min(gen.max_points, 5)
    total = FiniteT0Space(_random_poset(rng, bound))
    base = FiniteT0Space(_random_poset(rng, bound))
    values = _random_point_values(rng, total.points, base.points)
    return BundleMap(total, base, PointMap(total, base, values))


def _random_seed_of(rng: random.Random, gen: InstanceGenerator) -> PointRelation:
    return _random_galois_seed(rng, gen.max_points)


# family -> draw(rng, generator)
_DRAWS = {
    "random-galois": _random_seed_of,
    "multiplicity": _random_matrix,
    "action": _random_action,
    "bundle": _random_bundle,
}

FAMILIES = tuple(_DRAWS)


def _draw(gen: InstanceGenerator):
    return _DRAWS[gen.family](gen.rng(), gen)


def gen_inclusion_data(gen: InstanceGenerator) -> InclusionData:
    """The instance a generator describes, as a certified connection.

    Instance k of a randomized sweep is the draw of its child seed. The
    sweeps decide on that draw's relation on points (``_relation``), the
    same connection read on the points of its frames; T47 materializes
    this connection as well, for its restricted prime map.
    """
    return _inclusion(_draw(gen))


# -- exhaustive enumerations -------------------------------------------------


def all_posets(max_points: int, include_empty: bool = False) -> list[FinitePoset]:
    """Every labeled poset with at most ``max_points`` elements.

    Grown one element at a time: the new (highest-numbered) point picks
    a down-set as its strict lower region and a disjoint up-set as its
    strict upper region, every lower point already under every upper
    one. Counts follow the labeled-poset sequence 1, 3, 19, 219, 4231.
    """
    if not 0 <= max_points <= 6:
        raise ValueError("poset enumeration supports at most 6 points")
    layer = [FinitePoset(0, ())]
    out = list(layer) if include_empty else []
    for _ in range(max_points):
        grown = []
        for poset in layer:
            grown.extend(_extensions(poset))
        out.extend(grown)
        layer = grown
    return out


def _extensions(poset: FinitePoset) -> list[FinitePoset]:
    n = poset.n
    full = (1 << n) - 1
    downsets = _accel.downset_masks(list(poset.below), 1 << n)
    upsets = sorted(full ^ m for m in downsets)
    out = []
    for low in downsets:
        for high in upsets:
            if low & high:
                continue
            if any(poset.below[z] & low != low for z in bits(high)):
                continue
            rows = [
                poset.below[i] | ((1 << n) if (high >> i) & 1 else 0)
                for i in range(n)
            ]
            rows.append(low | (1 << n))
            out.append(FinitePoset(n + 1, tuple(rows)))
    return out


def all_spaces(max_points: int, include_empty: bool = False) -> list[FiniteT0Space]:
    """Every labeled T0 space with at most ``max_points`` points."""
    return [
        FiniteT0Space(p) for p in all_posets(max_points, include_empty)
    ]


def _poset_classes(max_points: int) -> list[FinitePoset]:
    """One poset per isomorphism class on 1..``max_points`` points.

    Grown level by level: deleting the highest-numbered point of any
    n-point poset leaves one isomorphic to an (n-1)-point
    representative, so the ``_extensions`` of those representatives meet
    every n-point class. A candidate is kept unless it is isomorphic to
    a class already found with the same sorted invariant keys. Counts
    follow the unlabeled-poset sequence 1, 2, 5, 16, 63.
    """
    reps: list[FinitePoset] = []
    layer = [FinitePoset(0, ())]
    for _ in range(max_points):
        buckets: dict[tuple, list[FinitePoset]] = {}
        for poset in layer:
            for cand in _extensions(poset):
                bucket = buckets.setdefault(tuple(sorted(_invariant_keys(cand))), [])
                if not any(poset_isomorphism(cand, seen) for seen in bucket):
                    bucket.append(cand)
        layer = [p for bucket in buckets.values() for p in bucket]
        reps.extend(layer)
    return reps


def all_frame_posets(max_size: int) -> list[FinitePoset]:
    """One poset per isomorphism class whose down-set frame has at most
    ``max_size`` elements (Birkhoff: that classifies such frames).

    A frame of k elements has at most k - 1 join-irreducibles, so the
    empty poset and the classes on up to ``max_size - 1`` points cover
    every such frame.
    """
    if max_size < 1:
        raise ValueError("frames have at least one element")
    if max_size > 7:
        raise ValueError("frame enumeration supports at most 7 elements")
    return [
        poset
        for poset in (FinitePoset(0, ()), *_poset_classes(max_size - 1))
        if _accel.downset_masks(list(poset.below), max_size) is not None
    ]


def _monotone_values(poset: FinitePoset, dst):
    """Every monotone assignment of ``dst`` elements to the points of
    ``poset``, as value tuples; ``dst`` is any order with ``n`` and
    ``leq``, a poset or a lattice."""
    order = _linear_extension(poset)
    preds = [
        [q for q in order[:k] if poset.leq(q, order[k])] for k in range(len(order))
    ]
    values = [0] * poset.n

    def walk(k: int):
        if k == len(order):
            yield tuple(values)
            return
        x = order[k]
        for v in range(dst.n):
            if all(dst.leq(values[q], v) for q in preds[k]):
                values[x] = v
                yield from walk(k + 1)

    yield from walk(0)


def small_group_actions(space: FiniteT0Space, max_order: int = 6):
    """One action per automorphism subgroup of order <= ``max_order``,
    generated by the generators ``_small_subgroups`` names."""
    yield from _small_subgroups(space, max_order, order_automorphisms(space.points))


def _small_subgroups(space: FiniteT0Space, max_order: int, auts):
    """One action per automorphism subgroup of order <= ``max_order``;
    ``auts`` is ``order_automorphisms`` of the points.

    Subgroups are enumerated through generator sets of size <= 2 (every
    group of order <= 6 is 2-generated) and deduplicated by closure.
    A pair {g, h} is closed only when its group can be new. If h lies
    in <g>, or g in <h>, the pair generates that cyclic group, which
    the single generators came to first. Otherwise <g, h> properly
    contains both cyclic groups, so by Lagrange its order is at least
    twice the larger one's; past ``max_order`` its closure would be
    refused anyway. The subgroups, and their order, are those of
    closing every pair. Each action is built on the closure found here,
    which its constructor would compute again.
    """
    n = space.points.n
    identity = tuple(range(n))
    auts = [g for g in auts if g != identity]
    seen = set()
    cyclic = {}  # g -> the group it generates, None past max_order

    def close(gens):
        try:
            return group_closure(gens, n, max_order)
        except ClosureTooLarge:
            return None

    def new(closure):
        if closure is None or closure in seen:
            return False
        seen.add(closure)
        return True

    trivial = close(())
    if new(trivial):
        yield FiniteGroupAction._closed(space, (), trivial)
    for g in auts:
        cyclic[g] = close((g,))
        if new(cyclic[g]):
            yield FiniteGroupAction._closed(space, (g,), cyclic[g])
    for g, h in combinations(auts, 2):
        cg, ch = cyclic[g], cyclic[h]
        if cg is None or ch is None or h in cg or g in ch:
            continue
        if 2 * max(len(cg), len(ch)) > max_order:
            continue
        closure = close((g, h))
        if new(closure):
            yield FiniteGroupAction._closed(space, (g, h), closure)


def _subgroup_classes(space: FiniteT0Space, auts):
    """(action, conjugates) for one subgroup H per conjugacy class
    under ``auts``, the automorphism group of the space.

    ``conjugates`` is the set of closures gHg^-1 over g in ``auts``;
    each is a subgroup of the same order, generated by the conjugated
    generators, so ``_small_subgroups`` yields it too, and the first of
    its class to come stands for the rest.
    """
    seen = set()
    for action in _small_subgroups(space, 6, auts):
        if action.closure in seen:
            continue
        conjugates = set()
        for g in auts:
            inverse = sorted(range(len(g)), key=g.__getitem__)
            conjugates.add(
                tuple(sorted(tuple(g[h[x]] for x in inverse) for h in action.closure))
            )
        seen |= conjugates
        yield action, conjugates


# -- sweeps ------------------------------------------------------------------


class SweepReport(Record):
    """Outcome of one conformance sweep; serializes to the CLI schema."""

    _fields = ("tag", "seed", "budget", "checked", "applicable", "violations", "counterexample")
    _defaults = {"counterexample": None}

    def as_dict(self) -> dict:
        return dict(zip(self._fields, self._values()))


def _greedy_minimize(instance, shrink, reproduces):
    while True:
        for candidate in shrink(instance):
            try:
                if reproduces(candidate):
                    instance = candidate
                    break
            except StonekitError:
                continue
        else:
            return instance


def _shrink_seed(seed: PointRelation):
    source, target, rows = seed.source, seed.target, seed.rows
    if source.n > 1:
        for p in range(source.n):
            keep = [i for i in range(source.n) if i != p]
            yield PointRelation(source.subposet(keep), target, tuple(rows[i] for i in keep))
    if target.n > 1:
        for q in range(target.n):
            keep = [i for i in range(target.n) if i != q]
            low = (1 << q) - 1
            yield PointRelation(
                source,
                target.subposet(keep),
                tuple((v & low) | ((v >> (q + 1)) << q) for v in rows),
            )


def _shrink_matrix(m: MultiplicityInclusion):
    rows = m.mult
    if len(rows) > 1:
        for i in range(len(rows)):
            yield MultiplicityInclusion(rows[:i] + rows[i + 1 :])
    if len(rows[0]) > 1:
        for j in range(len(rows[0])):
            yield MultiplicityInclusion(
                tuple(row[:j] + row[j + 1 :] for row in rows)
            )


def _shrink_action(a: FiniteGroupAction):
    gens = a.generators
    for k in range(len(gens)):
        yield FiniteGroupAction(a.space, gens[:k] + gens[k + 1 :])
    n = a.space.points.n
    if n > 1:
        for p in range(n):
            if all(g[p] == p for g in gens):
                keep = [i for i in range(n) if i != p]
                sub = FiniteT0Space(a.space.points.subposet(keep))
                moved = tuple(
                    tuple(g[i] - (g[i] > p) for i in keep) for g in gens
                )
                yield FiniteGroupAction(sub, moved)


def _shrink_bundle(b: BundleMap):
    tot, bas = b.total.points, b.base.points
    vals = b.proj.values
    if tot.n > 1:
        for p in range(tot.n):
            keep = [i for i in range(tot.n) if i != p]
            sub = FiniteT0Space(tot.subposet(keep))
            yield BundleMap(
                sub, b.base, PointMap(sub, b.base, tuple(vals[i] for i in keep))
            )
    if bas.n > 1:
        for q in range(bas.n):
            if q in vals:
                continue
            keep = [i for i in range(bas.n) if i != q]
            sub = FiniteT0Space(bas.subposet(keep))
            moved = tuple(v - (v > q) for v in vals)
            yield BundleMap(b.total, sub, PointMap(b.total, sub, moved))


def _same(model):
    return model


# instance kind -> (shrinker, the model its document describes, its
# relation on points)
_KINDS = {
    PointRelation: (_shrink_seed, _compile_seed, _same),
    MultiplicityInclusion: (_shrink_matrix, _same, _matrix_relation),
    FiniteGroupAction: (_shrink_action, _same, action_relation),
    BundleMap: (_shrink_bundle, _same, bundle_relation),
}


def _inclusion(instance) -> InclusionData:
    return inclusion_data_for(_KINDS[type(instance)][1](instance))


def _relation(instance) -> PointRelation:
    return _KINDS[type(instance)][2](instance)


def _theorem33_sides(rel: PointRelation):
    """The sides of Theorem 3.3 for the locale morphism G = i of
    ``rel``, on points: (Eq. (3.2), G injective, pi open, pi onto), or
    None when some column T_x is not a principal up-set of P.

    Proof. A column is an up-set of P, since the rows are monotone, so
    it is principal iff it is ↑p for one of its points p. Let every
    column be T_x = ↑f(x). Then rows[p] = {x : f(x) <= p}, so G(U) =
    f^-1(U) for every down-set U; f is monotone, since the rows are
    down-sets of X, and G is a locale morphism. The adjunct point map
    sends x to the join of the U with x outside G(U), that is
    P - ↑f(x), the prime of the point f(x): so pi = f. On the dual
    relation X -> P with rows ↓f(x), r(U) = {x : ↓f(x) inside U} =
    G(U), so its lower map i is G's lower adjoint F, which exists by
    construction. G is injective iff that r is, which is
    ``_holds_separation`` of the dual, and Eq. (3.2), F(G(U) & V) =
    U & F(V), is ``_holds_frobenius`` of the dual. pi is f as a point
    map, built trusted since f is monotone, and ``is_open_map`` and
    ``is_surjective`` decide it on points; they read no opens, so both
    spaces are built trusted too. Every enumerated morphism applies
    (``_locale_morphisms``); a shrunk one need not.
    """
    above = rel.source.above()
    values = tuple([next((p for p in bits(column) if above[p] == column), -1) for column in rel._columns])
    if -1 in values:
        return None
    dual = PointRelation(rel.target, rel.source, tuple([rel.source.below[v] for v in values]))
    pi = PointMap._trusted(FiniteT0Space._trusted(rel.target), FiniteT0Space._trusted(rel.source), values)
    return _holds_frobenius(dual), _holds_separation(dual), is_open_map(pi), is_surjective(pi)


def _check_T33(rel: PointRelation):
    # Theorem 3.3: F exists, so Eq. (3.2) with G injective iff pi is an
    # open surjection
    sides = _theorem33_sides(rel)
    if sides is None:
        return False, True
    eq32, injective, pi_open, pi_onto = sides
    return True, (eq32 and injective) == (pi_open and pi_onto)


def _check_T42(rel: PointRelation):
    # under JR, pi is onto by theorem (see _pi_is_open)
    if not _holds_JR(rel):
        return False, True
    return True, _holds_C1(rel) == _pi_is_open(rel)


def _check_T47(rel: PointRelation):
    # MI and C2 on points against r cut down to prime spaces, which only
    # the instance's inclusion gives
    rpm = restricted_prime_map(_inclusion(rel))
    right = (
        isinstance(rpm, PointMap) and is_open_map(rpm) and is_surjective(rpm)
    )
    return True, (_holds_MI(rel) and _holds_C2(rel)) == right


def _rho_exists(rel: PointRelation) -> bool:
    # C48 and C49 apply where the quasi-orbit map exists: JR, C1 and MI;
    # a broken cross-check in _rho is judged by _sweep, as for every tag
    return _holds_JR(rel) and _holds_C1(rel) and _holds_MI(rel)


def _check_C48(rel: PointRelation):
    if not _rho_exists(rel):
        return False, True
    rho = _rho(rel)
    return True, (is_open_map(rho) and is_surjective(rho)) == _holds_C2(rel)


def _check_C49(rel: PointRelation):
    if not _rho_exists(rel):
        return False, True
    return True, is_homeomorphism(_rho(rel)) == _holds_separation(rel)


def _check_L51(m: MultiplicityInclusion):
    ok = True
    for s in range(1 << len(m.mult)):
        if is_symmetric(m, s) and restrict(m, induce(m, s)) != s:
            ok = False
            break
    return m.is_injective, ok


def _check_C54(m: MultiplicityInclusion):
    if not m.is_injective:
        return False, True
    # every subset of rows is a down-set of the antichain; the restricted
    # ones are the fixed points of the closure
    rel = _relation(m)
    if not all(is_symmetric(m, s) for s in range(1 << len(m.mult)) if rel.closure(s) == s):
        return False, True
    return True, _holds_JR(rel) and _holds_C1(rel) and _holds_MIf(rel)


def _check_T62(a: FiniteGroupAction):
    return True, action_quasi_orbit_agreement(a)


def _in_shares(share, count):
    """``share(w, step)`` for every w < step, one share per usable CPU.

    ``step`` is the number of CPUs this process may run on, at most
    ``count`` when that is known. Share 0 runs here and the others in
    forked children, each of which writes its result, a tuple of ints,
    back through a pipe and leaves by ``os._exit``, so no atexit hook,
    stdio buffer or frame of the caller runs twice. Without ``os.fork``
    or with one CPU, the one share runs inline. Returns the results in
    share order, or None when a share returned None (a violation),
    raised or died: the caller then reruns its serial loop, which
    reports what it finds exactly as it would have on one CPU.
    """
    step = 1
    if hasattr(os, "fork") and hasattr(os, "sched_getaffinity"):
        step = len(os.sched_getaffinity(0))
    if count is not None:
        step = min(step, count)
    children = []
    done = False
    try:
        for w in range(1, step):
            read, write = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read)
                os.close(write)
                raise
            if pid == 0:
                _share_in_child(share, w, step, write)
            os.close(write)
            children.append((pid, read))
        try:
            results = [share(0, step)]
        except Exception:
            # the serial rerun raises it again, unless a child share holds
            # a violation that comes first
            results = [None]
        results += [_read_share(read) for _, read in children]
        done = True
    finally:
        for pid, read in children:
            if not done:
                from signal import SIGKILL  # kept off the CLI's import path

                os.kill(pid, SIGKILL)
            os.close(read)
            os.waitpid(pid, 0)
    return None if None in results else results


def _share_in_child(share, w, step, out):
    # a share that finds a violation or raises writes nothing
    try:
        result = share(w, step)
        if result is not None:
            os.write(out, " ".join(map(str, result)).encode())
    finally:
        os._exit(0)


def _read_share(read):
    data = b""
    while chunk := os.read(read, 4096):
        data += chunk
    return tuple(map(int, data.split())) if data else None


def _sweep(tag, budget, seed, stream, check, where, count=None) -> SweepReport:
    """The violation loop behind every sweep but the reduced T62.

    ``stream(start, step)`` yields the instances of every ``step``-th
    unit from ``start``, in order, and ``count`` is the number of units
    when it is known; a unit is one instance, except in T33. ``check``
    maps an instance to (applicable, ok). The counting pass runs in
    shares (``_in_shares``) and, when every share comes back clean, adds
    up their counts. Otherwise this loop runs serially from the start:
    the first applicable instance that is not ok is shrunk with its
    kind's shrinker and raises SweepFailed with the minimized document;
    ``where`` names it from ``k`` (its index), ``n`` (the count so far)
    and ``seed``. A library cross-check that breaks (AssertionError) on
    an instance makes it an applicable violation, whatever the tag, in
    the counting pass, in the serial loop and in the shrinker alike.
    """

    def judged(instance):
        try:
            return check(instance)
        except AssertionError:
            return True, False

    def counts(start, step):
        checked = applicable = 0
        for instance in stream(start, step):
            checked += 1
            app, ok = judged(instance)
            if app and not ok:
                return None
            applicable += app
        return checked, applicable

    shares = _in_shares(counts, count)
    if shares is not None:
        checked, applicable = map(sum, zip(*shares))
        return SweepReport(tag, seed, budget, checked, applicable, 0, None)

    def violates(instance):
        applicable, ok = judged(instance)
        return applicable and not ok

    checked = applicable = 0
    for instance in stream(0, 1):
        checked += 1
        app, ok = judged(instance)
        applicable += app
        if app and not ok:
            shrink, model, _ = _KINDS[type(instance)]
            small = _greedy_minimize(instance, shrink, violates)
            report = SweepReport(
                tag, seed, budget, checked, applicable, 1, document_for(model(small))
            )
            at = where.format(k=checked - 1, n=checked, seed=seed)
            raise SweepFailed(f"{tag}: violation at {at}", report=report)
    return SweepReport(tag, seed, budget, checked, applicable, 0, None)


def _on_points(check):
    # the check of a randomized instance's relation on points
    return lambda instance: check(_relation(instance))


def _run_random(tag, families, check, budget: int, seed: int) -> SweepReport:
    def instances(start, step):
        return (
            _draw(
                InstanceGenerator(
                    (seed ^ (0x9E3779B97F4A7C15 * (k + 1))) & _MASK64,
                    families[k % len(families)],
                    6,
                )
            )
            for k in range(start, budget, step)
        )

    return _sweep(
        tag,
        budget,
        seed,
        instances,
        check,
        "instance {k} (seed {seed})",
        budget,
    )


def _run_matrices(tag, check, budget: int, seed: int) -> SweepReport:
    def matrices(start, step):
        stream = binary_matrices(budget, budget, injective_only=True)
        return islice(stream, start, None, step)

    return _sweep(tag, budget, seed, matrices, check, "matrix {n}")


def _frame_space_pairs(budget: int) -> list:
    """(poset, space) for the down-set frame of every poset in
    ``all_frame_posets(budget)`` and every space of at most 3 points."""
    spaces = all_spaces(3)
    return [(poset, space) for poset in all_frame_posets(budget) for space in spaces]


def _locale_morphisms(pairs):
    """Every locale morphism G: O(P) -> O(X), pair by pair, as the
    relation (P, X, rows) of its continuous map f: X -> P, with rows[p]
    = G(↓p) = f^-1(↓p).

    Stone duality for finite T0 spaces: G is f^-1 for exactly one
    monotone f. For a point x, the p with x in G(↓p) form an up-set T_x
    of P. It is nonempty, since G keeps the top, the union of the ↓p;
    and it is down-directed, since G(↓p) & G(↓q) = G(↓p & ↓q) and
    ↓p & ↓q is the union of the ↓r below both. So T_x = ↑f(x) for its
    least point f(x), G(↓p) = f^-1(↓p), and f is monotone as each G(↓p)
    is a down-set of X. Conversely each f^-1 keeps unions and
    intersections, and gives f back as those least points. So the
    monotone maps X -> P (``_monotone_values``) give each morphism once,
    and a relation's element model (``_compile_seed``) is the
    morphism's connection.
    """
    for poset, space in pairs:
        for values in _monotone_values(space.points, poset):
            hit = [1 << v for v in values]
            yield PointRelation(poset, space.points, tuple([inside(hit, down) for down in poset.below]))


def _run_T33(budget: int, seed: int) -> SweepReport:
    # the units are the (frame, space) pairs, so a share also enumerates
    # only the morphisms it checks
    pairs = _frame_space_pairs(budget)

    def morphisms(start, step):
        return _locale_morphisms(pairs[start::step])

    return _sweep("T33", budget, seed, morphisms, _check_T33, "morphism {n}", len(pairs))


def _run_T62(budget: int, seed: int) -> SweepReport:
    # A pair (R, class of H) stands for its n!/|Aut(R)| labelings of R
    # times the |class| subgroups conjugate to H; see the module docstring.
    # The units are the representatives, so a share also enumerates only
    # the automorphisms and subgroup classes of its own.
    reps = _poset_classes(budget)

    def counts(start, step):
        checked = 0
        for rep in reps[start::step]:
            auts = order_automorphisms(rep)
            copies = factorial(rep.n) // len(auts)
            space = FiniteT0Space(rep)
            for action, conjugates in _subgroup_classes(space, auts):
                if not action_quasi_orbit_agreement(action):
                    return None
                checked += copies * len(conjugates)
        return (checked,)

    shares = _in_shares(counts, len(reps))
    if shares is None:
        return _run_T62_labeled(budget, seed)
    checked = sum(share[0] for share in shares)
    return SweepReport("T62", seed, budget, checked, checked, 0, None)


def _run_T62_labeled(budget: int, seed: int) -> SweepReport:
    """T62 over every labeled poset: the violation path and test oracle."""

    def actions(start, step):
        stream = (
            action
            for poset in all_posets(budget)
            for action in small_group_actions(FiniteT0Space(poset))
        )
        return islice(stream, start, None, step)

    return _sweep("T62", budget, seed, actions, _check_T62, "action {n}")


_QUASI_ORBIT_FAMILIES = ("random-galois", "action", "bundle")

# tag -> (default budget, budget cap or None, runner(budget, seed))
_SWEEPS = {
    "T33": (5, 6, _run_T33),
    "T42": (1000, None, partial(_run_random, "T42", ("random-galois",), _on_points(_check_T42))),
    "T47": (1000, None, partial(_run_random, "T47", ("random-galois",), _on_points(_check_T47))),
    "C48": (1000, None, partial(_run_random, "C48", _QUASI_ORBIT_FAMILIES, _on_points(_check_C48))),
    "C49": (1000, None, partial(_run_random, "C49", _QUASI_ORBIT_FAMILIES, _on_points(_check_C49))),
    "L51": (3, 4, partial(_run_matrices, "L51", _check_L51)),
    "C54": (3, 4, partial(_run_matrices, "C54", _check_C54)),
    "T62": (5, 5, _run_T62),
}

SWEEP_TAGS = tuple(_SWEEPS)


def sweep_theorem(tag: str, budget: int | None = None, seed: int = 0) -> SweepReport:
    """Run one named conformance sweep; see the module docstring.

    Returns a report with zero violations, or raises SweepFailed whose
    ``report`` carries a minimized counterexample document.
    """
    if tag not in _SWEEPS:
        raise ValueError(f"unknown sweep tag {tag!r}; expected one of {SWEEP_TAGS}")
    default, cap, run = _SWEEPS[tag]
    if budget is None:
        budget = default
    if budget < 1:
        raise ValueError("budget must be positive")
    if cap is not None and budget > cap:
        raise ValueError(f"{tag} budget is capped at {cap}")
    if not 0 <= seed <= _MASK64:
        raise ValueError("seed must fit in 64 bits")
    return run(budget, seed)
