"""Random instance generation and theorem-conformance sweeps.

Two halves. The generators draw reproducible random instances of every
model family from a 64-bit seed. The sweeps run a named conformance
check (a biconditional or an implication shadowing one of the package's
structure theorems) over either an exhaustive enumeration of small
structures or a stream of seeded random instances, and raise SweepFailed
with a greedily minimized counterexample document on any violation.

Sweep tags and their budgets:

  T33  equivalence_verified on every locale morphism from a frame with
       at most ``budget`` elements into O(X), X a space with <= 3 points
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
       points
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations, permutations

from . import _accel
from ._kernels import bits
from .documents import document_for
from .errors import ClosureTooLarge, ConditionViolated, StonekitError, SweepFailed
from .galois import GaloisConnection, MonotoneMap, separates
from .graph_pairs import FiniteGraph, j_x
from .lattice import FiniteLattice, FinitePoset, downset_lattice, poset_isomorphism
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
    action_inclusion_data,
    action_quasi_orbit_agreement,
    bundle_inclusion_data,
    group_closure,
)

FAMILIES = (
    "random-poset-downsets",
    "random-galois",
    "multiplicity",
    "action",
    "bundle",
    "graph",
)

SWEEP_TAGS = ("T33", "T42", "T47", "C48", "C49", "L51", "C54", "T62")

_DEFAULT_BUDGETS = {
    "T33": 5,
    "T42": 1000,
    "T47": 1000,
    "C48": 1000,
    "C49": 1000,
    "L51": 3,
    "C54": 3,
    "T62": 5,
}

_BUDGET_CAPS = {"T33": 6, "L51": 4, "C54": 4, "T62": 5}

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


def gen_inclusion_data(gen: InstanceGenerator) -> InclusionData:
    """The instance a generator describes, as a certified connection."""
    rng = gen.rng()
    family = gen.family
    if family in ("random-poset-downsets", "random-galois"):
        return _compile_seed(_random_galois_seed(rng, gen.max_points))
    if family == "multiplicity":
        return to_inclusion_data(_random_matrix(rng, gen))
    if family == "action":
        return action_inclusion_data(_random_action(rng, gen))
    if family == "bundle":
        return bundle_inclusion_data(_random_bundle(rng, gen))
    raise ValueError("graph instances compile to pair lattices; use gen_graph")


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


def all_frame_posets(max_size: int) -> list[FinitePoset]:
    """One poset per isomorphism class whose down-set frame has at most
    ``max_size`` elements (Birkhoff: that classifies such frames)."""
    if max_size < 1:
        raise ValueError("frames have at least one element")
    if max_size > 7:
        raise ValueError("frame enumeration supports at most 7 elements")
    reps: list[FinitePoset] = []
    for poset in all_posets(min(max_size - 1, 6), include_empty=True):
        if _accel.downset_masks(list(poset.below), max_size) is None:
            continue
        if any(poset_isomorphism(poset, seen) for seen in reps):
            continue
        reps.append(poset)
    return reps


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
    order = _linear_extension(src.order)
    preds = [
        [q for q in order[:k] if src.leq(q, order[k])] for k in range(len(order))
    ]
    values = [0] * src.n

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
    """Join-preserving maps out of a down-set frame, via its point poset."""
    order = _linear_extension(poset)
    preds = [
        [q for q in order[:k] if poset.leq(q, order[k])] for k in range(len(order))
    ]
    assigned = [0] * poset.n

    def walk(k: int):
        if k == len(order):
            values = []
            for x in range(la.n):
                acc = lb.bottom
                for p in bits(la.labels[x]):
                    acc = lb.join(acc, assigned[p])
                values.append(acc)
            yield tuple(values)
            return
        x = order[k]
        for v in range(lb.n):
            if all(lb.leq(assigned[q], v) for q in preds[k]):
                assigned[x] = v
                yield from walk(k + 1)

    yield from walk(0)


def order_automorphisms(poset: FinitePoset) -> list[tuple[int, ...]]:
    """Every permutation of the points preserving the order both ways."""
    out = []
    for perm in permutations(range(poset.n)):
        ok = True
        for j in range(poset.n):
            moved = 0
            for i in bits(poset.below[j]):
                moved |= 1 << perm[i]
            if moved != poset.below[perm[j]]:
                ok = False
                break
        if ok:
            out.append(perm)
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


# tag -> (family cycle, check) of the randomized sweeps
_RANDOM_SWEEPS = {
    "T42": (("random-galois",), _check_T42),
    "T47": (("random-galois",), _check_T47),
    "C48": (("random-galois", "action", "bundle"), _check_C48),
    "C49": (("random-galois", "action", "bundle"), _check_C49),
}

_MATRIX_SWEEPS = {"L51": _check_L51, "C54": _check_C54}


def _run_random_sweep(tag, budget, seed, family_cycle, check):
    checked = applicable = 0
    for k in range(budget):
        child = InstanceGenerator(
            seed=(seed ^ (0x9E3779B97F4A7C15 * (k + 1))) & _MASK64,
            family=family_cycle[k % len(family_cycle)],
            max_points=6,
        )
        instance = _draw(child)
        checked += 1
        app, ok = check(_materialize(instance))
        applicable += app
        if app and not ok:

            def reproduces(cand):
                a, o = check(_materialize(cand))
                return a and not o

            small = _greedy_minimize(instance, _shrink_instance, reproduces)
            doc = document_for(_serialize_instance(small))
            report = SweepReport(
                tag, seed, budget, checked, applicable, 1, counterexample=doc
            )
            raise SweepFailed(
                f"{tag}: violation at instance {k} (seed {seed})", report=report
            )
    return SweepReport(tag, seed, budget, checked, applicable, 0)


def _draw(gen: InstanceGenerator):
    rng = gen.rng()
    if gen.family in ("random-poset-downsets", "random-galois"):
        return _random_galois_seed(rng, gen.max_points)
    if gen.family == "action":
        return _random_action(rng, gen)
    if gen.family == "bundle":
        return _random_bundle(rng, gen)
    raise ValueError(f"no sweep drawing for family {gen.family!r}")


def _materialize(instance) -> InclusionData:
    if isinstance(instance, _GaloisSeed):
        return _compile_seed(instance)
    if isinstance(instance, FiniteGroupAction):
        return action_inclusion_data(instance)
    if isinstance(instance, BundleMap):
        return bundle_inclusion_data(instance)
    raise TypeError(type(instance).__name__)


def _shrink_instance(instance):
    if isinstance(instance, _GaloisSeed):
        return _shrink_seed(instance)
    if isinstance(instance, FiniteGroupAction):
        return _shrink_action(instance)
    if isinstance(instance, BundleMap):
        return _shrink_bundle(instance)
    return ()


def _serialize_instance(instance):
    if isinstance(instance, _GaloisSeed):
        return _compile_seed(instance)
    return instance


def _run_T33(budget: int, seed: int) -> SweepReport:
    checked = 0
    spaces = all_spaces(3)
    for poset in all_frame_posets(budget):
        la = downset_lattice(poset)
        for space in spaces:
            lb = opens_lattice(space)
            for values in _join_preserving_maps(poset, la, lb):
                g = MonotoneMap(la, lb, values)
                if not is_locale_morphism(g):
                    continue
                checked += 1
                if not theorem33_check(g, space).equivalence_verified:
                    doc = document_for(
                        InclusionData(GaloisConnection.from_lower(g))
                    )
                    report = SweepReport(
                        "T33", seed, budget, checked, checked, 1, doc
                    )
                    raise SweepFailed(
                        f"T33: violation at morphism {checked}", report=report
                    )
    return SweepReport("T33", seed, budget, checked, checked, 0)


def _run_matrix_sweep(tag, budget, seed, check) -> SweepReport:
    checked = applicable = 0
    for m in binary_matrices(budget, budget, injective_only=True):
        checked += 1
        app, ok = check(m)
        applicable += app
        if app and not ok:

            def reproduces(cand):
                a, o = check(cand)
                return a and not o

            small = _greedy_minimize(m, _shrink_matrix, reproduces)
            report = SweepReport(
                tag, seed, budget, checked, applicable, 1, document_for(small)
            )
            raise SweepFailed(f"{tag}: violation at matrix {checked}", report=report)
    return SweepReport(tag, seed, budget, checked, applicable, 0)


def _run_T62(budget: int, seed: int) -> SweepReport:
    checked = 0
    for poset in all_posets(budget):
        space = FiniteT0Space.from_poset(poset)
        for action in small_group_actions(space):
            checked += 1
            if not action_quasi_orbit_agreement(action):

                def reproduces(cand):
                    return not action_quasi_orbit_agreement(cand)

                small = _greedy_minimize(action, _shrink_action, reproduces)
                report = SweepReport(
                    "T62", seed, budget, checked, checked, 1, document_for(small)
                )
                raise SweepFailed(
                    f"T62: violation at action {checked}", report=report
                )
    return SweepReport("T62", seed, budget, checked, checked, 0)


def sweep_theorem(tag: str, budget: int | None = None, seed: int = 0) -> SweepReport:
    """Run one named conformance sweep; see the module docstring.

    Returns a report with zero violations, or raises SweepFailed whose
    ``report`` carries a minimized counterexample document.
    """
    if tag not in SWEEP_TAGS:
        raise ValueError(f"unknown sweep tag {tag!r}; expected one of {SWEEP_TAGS}")
    if budget is None:
        budget = _DEFAULT_BUDGETS[tag]
    if budget < 1:
        raise ValueError("budget must be positive")
    cap = _BUDGET_CAPS.get(tag)
    if cap is not None and budget > cap:
        raise ValueError(f"{tag} budget is capped at {cap}")
    if not 0 <= seed <= _MASK64:
        raise ValueError("seed must fit in 64 bits")

    if tag == "T33":
        return _run_T33(budget, seed)
    if tag == "T62":
        return _run_T62(budget, seed)
    if tag in _MATRIX_SWEEPS:
        return _run_matrix_sweep(tag, budget, seed, _MATRIX_SWEEPS[tag])
    family_cycle, check = _RANDOM_SWEEPS[tag]
    return _run_random_sweep(tag, budget, seed, family_cycle, check)
