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
its shrinker and the model its document describes; one table
(``_SWEEPS``) gives each tag its default budget, its cap and its runner.

Sweep tags and their budgets:

  T33  equivalence_verified on every locale morphism from a frame with
       at most ``budget`` elements into O(X), X a space with <= 3 points;
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
       one representative R, and counted by orbit-stabilizer: every
       action on R stands for n!/|Aut(R)| labeled ones. The labeled
       census is kept: it runs instead on a violation, so the report
       names the first violating labeled action and its minimized
       document, and the tests compare it with the reduced sweep, since
       only it would catch a labeling-dependent bug.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import partial
from itertools import combinations
from math import factorial
from typing import NamedTuple

from . import _accel
from ._kernels import bits
from .documents import document_for, inclusion_data_for
from .errors import ClosureTooLarge, ConditionViolated, StonekitError, SweepFailed
from .galois import GaloisConnection, MonotoneMap, separates
from .graph_pairs import FiniteGraph, j_x
from .lattice import (
    FiniteLattice,
    FinitePoset,
    _invariant_keys,
    downset_lattice,
    poset_isomorphism,
)
from .multiplicity import (
    MultiplicityInclusion,
    binary_matrices,
    induce,
    is_symmetric,
    restrict,
    to_inclusion_data,
)
from .quasiorbit import (
    InclusionData,
    check_C1,
    check_C2,
    check_JR,
    check_MI,
    check_MIf,
    pi_map,
    quasi_orbit_map,
    restricted_prime_map,
)
from .spectrum import (
    FiniteT0Space,
    PointMap,
    is_homeomorphism,
    is_locale_morphism,
    is_open_map,
    is_surjective,
    opens_lattice,
    theorem33_check,
)
from .topo_models import (
    BundleMap,
    FiniteGroupAction,
    action_quasi_orbit_agreement,
    group_closure,
)

_MASK64 = (1 << 64) - 1


@dataclass(frozen=True)
class InstanceGenerator:
    """A reproducible instance source: same fields, same instance."""

    seed: int = 0
    family: str = "random-galois"
    max_points: int = 4
    max_entry: int = 2
    max_generators: int = 2
    max_edges: int = 8

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        if not 0 <= self.seed <= _MASK64:
            raise ValueError("seed must fit in 64 bits")
        for name in ("max_points", "max_entry", "max_generators", "max_edges"):
            if getattr(self, name) < (1 if name == "max_points" else 0):
                raise ValueError(f"{name} out of range")

    def rng(self) -> random.Random:
        key = ":".join(
            str(part)
            for part in (
                self.family,
                self.seed,
                self.max_points,
                self.max_entry,
                self.max_generators,
                self.max_edges,
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


@dataclass(frozen=True)
class _GaloisSeed:
    """A join-preserving map in shrinkable form.

    ``point_values`` assigns a target down-set mask to every source
    point, monotonically; the lower map extends the assignment by
    unions, so it preserves joins by construction.
    """

    source: FinitePoset
    target: FinitePoset
    point_values: tuple[int, ...]


def _random_galois_seed(rng: random.Random, max_points: int) -> _GaloisSeed:
    source = _random_poset(rng, max_points)
    target = _random_poset(rng, max_points)
    if rng.random() < 0.5:
        # principal values: the lower map is direct image followed by
        # down-closure, which keeps the restricted side join-closed
        f = _random_point_values(rng, source, target)
        values = tuple(target.below[f[p]] for p in range(source.n))
        return _GaloisSeed(source, target, values)
    downs = _accel.downset_masks(list(target.below), 1 << target.n)
    values = [0] * source.n
    for p in _linear_extension(source):
        strict = source.below[p] & ~(1 << p)
        floor = 0
        for q in bits(strict):
            floor |= values[q]
        values[p] = rng.choice([m for m in downs if m & floor == floor])
    return _GaloisSeed(source, target, tuple(values))


def _compile_seed(seed: _GaloisSeed) -> InclusionData:
    la = downset_lattice(seed.source)
    lb = downset_lattice(seed.target)
    values = []
    for x in range(la.n):
        acc = 0
        for p in bits(la.labels[x]):
            acc |= seed.point_values[p]
        values.append(lb.index_of_label(acc))
    lower = MonotoneMap(la, lb, tuple(values))
    return InclusionData(GaloisConnection.from_lower(lower))


def _random_matrix(rng: random.Random, gen: InstanceGenerator) -> MultiplicityInclusion:
    rows = rng.randint(1, min(gen.max_points, 6))
    cols = rng.randint(1, min(gen.max_points, 6))
    entries = range(gen.max_entry + 1)
    mult = tuple(
        tuple(rng.choice(entries) for _ in range(cols)) for _ in range(rows)
    )
    return MultiplicityInclusion(mult)


def _random_action(rng: random.Random, gen: InstanceGenerator) -> FiniteGroupAction:
    poset = _random_poset(rng, min(gen.max_points, 5))
    auts = order_automorphisms(poset)
    count = rng.randint(0, gen.max_generators)
    generators = tuple(rng.choice(auts) for _ in range(count))
    return FiniteGroupAction(FiniteT0Space.from_poset(poset), generators)


def _random_bundle(rng: random.Random, gen: InstanceGenerator) -> BundleMap:
    bound = min(gen.max_points, 5)
    total = FiniteT0Space.from_poset(_random_poset(rng, bound))
    base = FiniteT0Space.from_poset(_random_poset(rng, bound))
    values = _random_point_values(rng, total.points, base.points)
    return BundleMap(total, base, PointMap(total, base, values))


def gen_graph(gen: InstanceGenerator):
    """A random graph with the positive-invariance default vertex set."""
    rng = gen.rng()
    n = rng.randint(1, min(gen.max_points, 6))
    count = rng.randint(0, gen.max_edges)
    edges = tuple(
        (rng.randrange(n), rng.randrange(n)) for _ in range(count)
    )
    graph = FiniteGraph(n, edges)
    return graph, j_x(graph)


def _random_seed_of(rng: random.Random, gen: InstanceGenerator) -> _GaloisSeed:
    return _random_galois_seed(rng, gen.max_points)


# family -> draw(rng, generator); graph instances are drawn by gen_graph
_DRAWS = {
    "random-poset-downsets": _random_seed_of,
    "random-galois": _random_seed_of,
    "multiplicity": _random_matrix,
    "action": _random_action,
    "bundle": _random_bundle,
}

FAMILIES = (*_DRAWS, "graph")


def _draw(gen: InstanceGenerator):
    if gen.family not in _DRAWS:
        raise ValueError("graph instances compile to pair lattices; use gen_graph")
    return _DRAWS[gen.family](gen.rng(), gen)


def gen_inclusion_data(gen: InstanceGenerator) -> InclusionData:
    """The instance a generator describes, as a certified connection.

    This is the draw-then-materialize path of the randomized sweeps, so
    instance k of a sweep is ``gen_inclusion_data`` of its child seed.
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
        FiniteT0Space.from_poset(p) for p in all_posets(max_points, include_empty)
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


def all_frames(max_size: int) -> list[FiniteLattice]:
    """One frame per isomorphism class with at most ``max_size`` elements."""
    return [downset_lattice(p) for p in all_frame_posets(max_size)]


def monotone_maps(src: FiniteLattice, dst: FiniteLattice, cap: int = 10_000_000):
    """All monotone maps src -> dst as value tuples, order-pruned.

    The recursion walks a linear extension of the source, so every
    partial assignment already satisfies its order constraints. Above
    ``cap`` candidate tables (|dst| ** |src|) the walk refuses; callers
    wanting coverage of larger pairs should sample with a generator.
    """
    if dst.n**src.n > cap:
        raise ValueError("candidate table exceeds the enumeration cap")
    yield from _monotone_values(src.order, dst)


def _monotone_values(poset: FinitePoset, dst: FiniteLattice):
    """Every monotone assignment of ``dst`` elements to the points."""
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


def _join_preserving_maps(poset: FinitePoset, la: FiniteLattice, lb: FiniteLattice):
    """Join-preserving maps out of a down-set frame, via its point poset:
    each monotone assignment to the points, extended by joins."""
    for assigned in _monotone_values(poset, lb):
        yield tuple(
            lb.big_join(assigned[p] for p in bits(la.labels[x])) for x in range(la.n)
        )


def order_automorphisms(poset: FinitePoset) -> list[tuple[int, ...]]:
    """Every permutation of the points preserving the order both ways.

    Backtracking: points 0, 1, ... are assigned in turn, each to an
    unused image that is related to the images already placed exactly
    as the point is related to their preimages. Images are tried in
    ascending order, so the list comes out in lexicographic order, the
    order of ``itertools.permutations``.
    """
    n = poset.n
    below, above = poset.below, poset.above()
    perm = [0] * n
    out = []

    def place(k: int, used: int):
        if k == n:
            out.append(tuple(perm))
            return
        placed = (1 << k) - 1
        down = up = 0
        for j in bits(below[k] & placed):
            down |= 1 << perm[j]
        for j in bits(above[k] & placed):
            up |= 1 << perm[j]
        for v in range(n):
            if (
                not (used >> v) & 1
                and below[v] & used == down
                and above[v] & used == up
            ):
                perm[k] = v
                place(k + 1, used | (1 << v))

    place(0, 0)
    return out


def small_group_actions(space: FiniteT0Space, max_order: int = 6):
    """One action per automorphism subgroup of order <= ``max_order``.

    Subgroups are enumerated through generator sets of size <= 2 (every
    group of order <= 6 is 2-generated) and deduplicated by closure.
    """
    identity = tuple(range(space.points.n))
    auts = [g for g in order_automorphisms(space.points) if g != identity]
    seen = set()
    for gens in [(), *((g,) for g in auts), *combinations(auts, 2)]:
        try:
            closure = group_closure(gens, space.points.n, max_order)
        except ClosureTooLarge:
            continue
        if closure in seen:
            continue
        seen.add(closure)
        yield FiniteGroupAction(space, gens)


# -- sweeps ------------------------------------------------------------------


@dataclass(frozen=True)
class SweepReport:
    """Outcome of one conformance sweep; serializes to the CLI schema."""

    tag: str
    seed: int
    budget: int
    checked: int
    applicable: int
    violations: int
    counterexample: dict | None = None

    def as_dict(self) -> dict:
        return {
            "tag": self.tag,
            "seed": self.seed,
            "budget": self.budget,
            "checked": self.checked,
            "applicable": self.applicable,
            "violations": self.violations,
            "counterexample": self.counterexample,
        }


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


def _shrink_seed(seed: _GaloisSeed):
    if seed.source.n > 1:
        for p in range(seed.source.n):
            keep = [i for i in range(seed.source.n) if i != p]
            yield _GaloisSeed(
                seed.source.subposet(keep),
                seed.target,
                tuple(seed.point_values[i] for i in keep),
            )
    if seed.target.n > 1:
        for q in range(seed.target.n):
            keep = [i for i in range(seed.target.n) if i != q]
            low = (1 << q) - 1
            yield _GaloisSeed(
                seed.source,
                seed.target.subposet(keep),
                tuple(
                    (v & low) | ((v >> (q + 1)) << q) for v in seed.point_values
                ),
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
                sub = FiniteT0Space.from_poset(a.space.points.subposet(keep))
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
            sub = FiniteT0Space.from_poset(tot.subposet(keep))
            yield BundleMap(
                sub, b.base, PointMap(sub, b.base, tuple(vals[i] for i in keep))
            )
    if bas.n > 1:
        for q in range(bas.n):
            if q in vals:
                continue
            keep = [i for i in range(bas.n) if i != q]
            sub = FiniteT0Space.from_poset(bas.subposet(keep))
            moved = tuple(v - (v > q) for v in vals)
            yield BundleMap(b.total, sub, PointMap(b.total, sub, moved))


class _Morphism(NamedTuple):
    """A T33 instance: a locale morphism into the opens of a space."""

    g: MonotoneMap
    space: FiniteT0Space


def _same(model):
    return model


def _morphism_model(m: _Morphism) -> InclusionData:
    return InclusionData(GaloisConnection.from_lower(m.g))


# instance kind -> (shrinker, the model its document describes); a T33
# morphism has no shrinker and is reported as enumerated
_KINDS = {
    _GaloisSeed: (_shrink_seed, _compile_seed),
    MultiplicityInclusion: (_shrink_matrix, _same),
    FiniteGroupAction: (_shrink_action, _same),
    BundleMap: (_shrink_bundle, _same),
    _Morphism: (lambda m: (), _morphism_model),
}


def _inclusion(instance) -> InclusionData:
    return inclusion_data_for(_KINDS[type(instance)][1](instance))


def _check_T33(m: _Morphism):
    return True, theorem33_check(m.g, m.space).equivalence_verified


def _check_T42(d: InclusionData):
    if not check_JR(d):
        return False, True
    pi = pi_map(d)
    return True, check_C1(d) == (is_open_map(pi) and is_surjective(pi))


def _check_T47(d: InclusionData):
    rpm = restricted_prime_map(d)
    right = (
        isinstance(rpm, PointMap) and is_open_map(rpm) and is_surjective(rpm)
    )
    return True, (check_MI(d) and check_C2(d)) == right


def _check_C48(d: InclusionData):
    try:
        rho = quasi_orbit_map(d)
    except ConditionViolated:
        return False, True
    except AssertionError:
        return True, False
    return True, (is_open_map(rho) and is_surjective(rho)) == check_C2(d)


def _check_C49(d: InclusionData):
    try:
        rho = quasi_orbit_map(d)
    except ConditionViolated:
        return False, True
    except AssertionError:
        return True, False
    return True, is_homeomorphism(rho) == separates(d.gc)


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
    d = to_inclusion_data(m)
    all_symmetric = all(
        is_symmetric(m, d.lattice_a.labels[x]) for x in d.restricted
    )
    if not all_symmetric:
        return False, True
    return True, check_JR(d) and check_C1(d) and check_MIf(d)


def _check_T62(a: FiniteGroupAction):
    return True, action_quasi_orbit_agreement(a)


def _sweep(tag, budget, seed, instances, check, where) -> SweepReport:
    """The violation loop behind every sweep but the reduced T62.

    ``check`` maps an instance to (applicable, ok). The first applicable
    instance that is not ok is shrunk with its kind's shrinker and
    raises SweepFailed with the minimized document; ``where`` names it
    from ``k`` (its index), ``n`` (the count so far) and ``seed``.
    """

    def violates(instance):
        applicable, ok = check(instance)
        return applicable and not ok

    checked = applicable = 0
    for instance in instances:
        checked += 1
        app, ok = check(instance)
        applicable += app
        if app and not ok:
            shrink, model = _KINDS[type(instance)]
            small = _greedy_minimize(instance, shrink, violates)
            report = SweepReport(
                tag, seed, budget, checked, applicable, 1, document_for(model(small))
            )
            at = where.format(k=checked - 1, n=checked, seed=seed)
            raise SweepFailed(f"{tag}: violation at {at}", report=report)
    return SweepReport(tag, seed, budget, checked, applicable, 0)


def _run_random(tag, families, check, budget: int, seed: int) -> SweepReport:
    instances = (
        _draw(
            InstanceGenerator(
                seed=(seed ^ (0x9E3779B97F4A7C15 * (k + 1))) & _MASK64,
                family=families[k % len(families)],
                max_points=6,
            )
        )
        for k in range(budget)
    )
    return _sweep(
        tag,
        budget,
        seed,
        instances,
        lambda instance: check(_inclusion(instance)),
        "instance {k} (seed {seed})",
    )


def _run_matrices(tag, check, budget: int, seed: int) -> SweepReport:
    instances = binary_matrices(budget, budget, injective_only=True)
    return _sweep(tag, budget, seed, instances, check, "matrix {n}")


def _locale_morphisms(budget: int):
    spaces = all_spaces(3)
    for poset in all_frame_posets(budget):
        la = downset_lattice(poset)
        for space in spaces:
            lb = opens_lattice(space)
            for values in _join_preserving_maps(poset, la, lb):
                g = MonotoneMap(la, lb, values)
                if is_locale_morphism(g):
                    yield _Morphism(g, space)


def _run_T33(budget: int, seed: int) -> SweepReport:
    morphisms = _locale_morphisms(budget)
    return _sweep("T33", budget, seed, morphisms, _check_T33, "morphism {n}")


def _run_T62(budget: int, seed: int) -> SweepReport:
    # A representative R stands for its n!/|Aut(R)| labelings, each with
    # as many subgroup actions as R; see the module docstring.
    checked = 0
    for rep in _poset_classes(budget):
        copies = factorial(rep.n) // len(order_automorphisms(rep))
        for action in small_group_actions(FiniteT0Space.from_poset(rep)):
            if not action_quasi_orbit_agreement(action):
                return _run_T62_labeled(budget, seed)
            checked += copies
    return SweepReport("T62", seed, budget, checked, checked, 0)


def _run_T62_labeled(budget: int, seed: int) -> SweepReport:
    """T62 over every labeled poset: the violation path and test oracle."""
    actions = (
        action
        for poset in all_posets(budget)
        for action in small_group_actions(FiniteT0Space.from_poset(poset))
    )
    return _sweep("T62", budget, seed, actions, _check_T62, "action {n}")


_QUASI_ORBIT_FAMILIES = ("random-galois", "action", "bundle")

# tag -> (default budget, budget cap or None, runner(budget, seed))
_SWEEPS = {
    "T33": (5, 6, _run_T33),
    "T42": (1000, None, partial(_run_random, "T42", ("random-galois",), _check_T42)),
    "T47": (1000, None, partial(_run_random, "T47", ("random-galois",), _check_T47)),
    "C48": (1000, None, partial(_run_random, "C48", _QUASI_ORBIT_FAMILIES, _check_C48)),
    "C49": (1000, None, partial(_run_random, "C49", _QUASI_ORBIT_FAMILIES, _check_C49)),
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
