"""Generators, exhaustive enumerations, and the sweep engine.

The enumeration counts are pinned against published sequences (labeled
posets: 1, 3, 19, 219, 4231; distributive-lattice classes by size) and
cross-checked against the brute-force conftest enumerations, which are
built by an independent method.
"""

from collections import Counter
from dataclasses import replace
from itertools import product
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import labeled_posets
from stonekit import (
    FinitePoset,
    FiniteT0Space,
    InstanceGenerator,
    MultiplicityInclusion,
    SweepFailed,
    SweepReport,
    all_frames,
    all_posets,
    all_spaces,
    binary_matrices,
    gen_graph,
    gen_inclusion_data,
    is_frame,
    lattice_isomorphism,
    NotALattice,
    monotone_maps,
    order_automorphisms,
    small_group_actions,
    sweep_theorem,
    validate_lattice,
    verify_prop26,
)
import stonekit.conformance as conformance_module
from stonekit.conformance import (
    _compile_seed,
    _greedy_minimize,
    all_frame_posets,
    _poset_classes,
    _random_galois_seed,
    _run_T62_labeled,
    _shrink_action,
    _shrink_bundle,
    _shrink_seed,
    _sweep,
)
from stonekit.lattice import downset_lattice, poset_isomorphism
from stonekit.quasiorbit import check_JR
from stonekit.spectrum import PointMap
from stonekit.topo_models import BundleMap, FiniteGroupAction
import random


class TestInstanceGenerator:
    def test_rejects_unknown_families(self):
        with pytest.raises(ValueError):
            InstanceGenerator(family="telescopes")

    def test_rejects_seeds_outside_64_bits(self):
        with pytest.raises(ValueError):
            InstanceGenerator(seed=-1)
        with pytest.raises(ValueError):
            InstanceGenerator(seed=1 << 64)

    def test_rejects_empty_point_bound(self):
        with pytest.raises(ValueError):
            InstanceGenerator(max_points=0)

    def test_same_fields_same_stream(self):
        a = InstanceGenerator(seed=11, family="multiplicity")
        b = InstanceGenerator(seed=11, family="multiplicity")
        assert a.rng().random() == b.rng().random()

    def test_bounds_participate_in_the_key(self):
        a = InstanceGenerator(seed=11, max_points=3)
        b = InstanceGenerator(seed=11, max_points=4)
        assert a.rng().random() != b.rng().random()


class TestGenInclusionData:
    def test_seed_zero_small_posets_is_reproducible(self):
        gen = InstanceGenerator(seed=0, family="random-galois", max_points=3)
        data = gen_inclusion_data(gen)
        assert data.gc.lower.values == (0, 1, 3, 3, 3, 3)
        assert data.gc.upper.values == (0, 1, 0, 5)
        assert verify_prop26(data.gc).all_ok

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(0, (1 << 64) - 1),
        st.sampled_from(
            ("random-galois", "random-poset-downsets", "multiplicity", "action", "bundle")
        ),
    )
    def test_every_family_draw_is_a_lawful_connection(self, seed, family):
        data = gen_inclusion_data(InstanceGenerator(seed=seed, family=family))
        assert verify_prop26(data.gc).all_ok

    def test_degenerate_bound_gives_two_chains(self):
        for seed in range(6):
            gen = InstanceGenerator(seed=seed, max_points=1)
            data = gen_inclusion_data(gen)
            assert data.lattice_a.n == 2 and data.lattice_b.n == 2

    def test_graph_family_routes_to_gen_graph(self):
        with pytest.raises(ValueError, match="pair lattices"):
            gen_inclusion_data(InstanceGenerator(family="graph"))
        graph, jmask = gen_graph(InstanceGenerator(seed=5, family="graph"))
        assert 0 <= jmask < (1 << graph.vertices)


class TestPosetEnumeration:
    def test_labeled_counts_follow_the_sequence(self):
        counts = Counter(p.n for p in all_posets(5))
        assert counts == {1: 1, 2: 3, 3: 19, 4: 219, 5: 4231}

    def test_empty_poset_is_opt_in(self):
        assert all(p.n >= 1 for p in all_posets(2))
        assert sum(1 for p in all_posets(2, include_empty=True) if p.n == 0) == 1

    def test_matches_the_brute_force_enumeration(self):
        # conftest builds posets by closing arbitrary relation tables
        for n in (1, 2, 3):
            ours = {p.below for p in all_posets(n) if p.n == n}
            brute = {p.below for p in labeled_posets(n)}
            assert ours == brute

    def test_refuses_unbounded_enumeration(self):
        with pytest.raises(ValueError):
            all_posets(7)

    def test_spaces_are_the_posets(self):
        assert len(all_spaces(3)) == 23


class TestFrameEnumeration:
    def test_census_by_size(self):
        assert len(all_frames(5)) == 8
        assert len(all_frames(6)) == 13
        sizes = Counter(f.n for f in all_frames(6))
        assert sizes == {1: 1, 2: 1, 3: 1, 4: 2, 5: 3, 6: 5}

    def test_representatives_are_frames_and_pairwise_distinct(self):
        reps = all_frames(6)
        assert all(is_frame(f).distributive for f in reps)
        for i, a in enumerate(reps):
            for b in reps[i + 1 :]:
                assert lattice_isomorphism(a, b) is None

    def test_classes_match_the_pairwise_filter(self):
        # the labeled enumeration, keeping each poset unless it is
        # isomorphic to one kept before: same posets, same order
        for max_size in range(1, 7):
            reps = []
            for poset in all_posets(max_size - 1, include_empty=True):
                if len(downset_lattice(poset).labels) > max_size:
                    continue
                if not any(poset_isomorphism(poset, seen) for seen in reps):
                    reps.append(poset)
            assert all_frame_posets(max_size) == reps

    def test_census_against_brute_upper_triangular_orders(self):
        # independent route: every order relabels along a linear
        # extension into a strict-upper-triangular relation, so closing
        # all such tables on <= 5 points hits every isomorphism class
        reps = []
        for n in range(1, 6):
            edges = [(x, y) for y in range(n) for x in range(y)]
            seen = set()
            for bitsel in range(1 << len(edges)):
                below = [1 << x for x in range(n)]
                for k, (x, y) in enumerate(edges):
                    if (bitsel >> k) & 1:
                        below[y] |= below[x]
                key = tuple(below)
                if key in seen:
                    continue
                seen.add(key)
                try:
                    lat = validate_lattice(FinitePoset(n, key))
                except NotALattice:
                    continue
                if not is_frame(lat).distributive:
                    continue
                if any(lattice_isomorphism(lat, r) for r in reps):
                    continue
                reps.append(lat)
        assert len(reps) == 8


class TestMonotoneMaps:
    def test_matches_the_product_filter(self):
        src = downset_lattice(FinitePoset.chain(2))
        dst = downset_lattice(FinitePoset.antichain(2))
        ours = set(monotone_maps(src, dst))
        brute = {
            vals
            for vals in product(range(dst.n), repeat=src.n)
            if all(
                dst.leq(vals[x], vals[y])
                for x in range(src.n)
                for y in range(src.n)
                if src.leq(x, y)
            )
        }
        assert ours == brute

    def test_cap_refuses_large_tables(self):
        lat = downset_lattice(FinitePoset.antichain(2))
        with pytest.raises(ValueError, match="cap"):
            next(monotone_maps(lat, lat, cap=3))


class TestGroupEnumeration:
    def test_chain_automorphisms_are_trivial(self):
        assert order_automorphisms(FinitePoset.chain(4)) == [(0, 1, 2, 3)]

    def test_antichain_automorphisms_are_all_permutations(self):
        assert len(order_automorphisms(FinitePoset.antichain(3))) == 6

    def test_subgroup_census_of_the_free_swap_space(self):
        space = FiniteT0Space.from_poset(FinitePoset.antichain(3))
        actions = list(small_group_actions(space))
        # trivial, three transposition groups, the rotation group, S3
        assert len(actions) == 6
        orders = sorted(len(a.closure) for a in actions)
        assert orders == [1, 2, 2, 2, 3, 6]

    def test_rigid_posets_only_carry_the_trivial_group(self):
        space = FiniteT0Space.from_poset(FinitePoset.chain(5))
        actions = list(small_group_actions(space))
        assert len(actions) == 1 and actions[0].generators == ()

    def test_order_cap_is_respected(self):
        space = FiniteT0Space.from_poset(FinitePoset.antichain(4))
        actions = list(small_group_actions(space, max_order=6))
        assert all(len(a.closure) <= 6 for a in actions)
        # S4 itself (order 24) must have been cut off
        assert not any(len(a.closure) == 24 for a in actions)


class TestSweeps:
    def test_unknown_tag(self):
        with pytest.raises(ValueError, match="unknown sweep tag"):
            sweep_theorem("T99")

    def test_budget_validation(self):
        with pytest.raises(ValueError):
            sweep_theorem("T42", budget=0)
        with pytest.raises(ValueError, match="capped"):
            sweep_theorem("T62", budget=6)
        with pytest.raises(ValueError, match="seed"):
            sweep_theorem("T42", budget=5, seed=-3)

    def test_t33_small_budget(self):
        report = sweep_theorem("T33", budget=3)
        assert report.violations == 0
        assert report.checked == report.applicable == 133

    def test_t42_reports_are_reproducible(self):
        a = sweep_theorem("T42", budget=60, seed=7)
        b = sweep_theorem("T42", budget=60, seed=7)
        assert a == b
        assert a.violations == 0
        assert 0 < a.applicable <= a.checked == 60

    def test_t42_seed_changes_the_population(self):
        a = sweep_theorem("T42", budget=60, seed=7)
        b = sweep_theorem("T42", budget=60, seed=8)
        assert a.applicable != b.applicable or a is not b

    def test_t47_runs_ungated(self):
        report = sweep_theorem("T47", budget=60, seed=7)
        assert report.applicable == report.checked == 60
        assert report.violations == 0

    def test_quasi_orbit_sweeps_reach_applicable_instances(self):
        for tag in ("C48", "C49"):
            report = sweep_theorem(tag, budget=90, seed=7)
            assert report.violations == 0
            assert report.applicable > 0

    @pytest.mark.parametrize(
        "tag, counts",
        [("T42", (60, 46)), ("T47", (60, 60)), ("C48", (60, 29)), ("C49", (60, 29))],
    )
    def test_random_sweep_counts_are_pinned(self, tag, counts):
        # Pinned from the draws themselves: any change to the instance
        # stream (seeds, family cycle, down-set order) moves these counts.
        report = sweep_theorem(tag, budget=60, seed=1)
        assert (report.checked, report.applicable) == counts

    def test_matrix_sweeps_cover_the_census(self):
        l51 = sweep_theorem("L51")
        assert (l51.checked, l51.applicable, l51.violations) == (441, 441, 0)
        c54 = sweep_theorem("C54")
        assert (c54.checked, c54.applicable, c54.violations) == (441, 95, 0)

    def test_t62_small_budget(self):
        report = sweep_theorem("T62", budget=3)
        assert report.violations == 0
        assert report.checked == 35

    def test_report_serializes_to_plain_json(self):
        import json

        report = sweep_theorem("L51", budget=2)
        body = json.dumps(report.as_dict(), sort_keys=True)
        assert '"tag": "L51"' in body


class TestT62BySymmetry:
    """The sweep checks one poset per isomorphism class; the labeled
    census is the oracle that would catch a labeling-dependent bug."""

    def test_labeled_census_matches_the_reduced_sweep(self):
        assert _run_T62_labeled(5, 0) == sweep_theorem("T62")

    def test_reduced_and_labeled_sweeps_agree_on_small_budgets(self):
        for budget in range(1, 5):
            assert sweep_theorem("T62", budget, seed=3) == _run_T62_labeled(budget, 3)

    def test_classes_are_distinct_and_count_the_labeled_posets(self):
        classes = {1: 1, 2: 2, 3: 5, 4: 16, 5: 63}
        labeled = {1: 1, 2: 3, 3: 19, 4: 219, 5: 4231}
        for max_points in range(1, 6):
            reps = _poset_classes(max_points)
            for i, a in enumerate(reps):
                assert not any(poset_isomorphism(a, b) for b in reps[i + 1 :])
            assert Counter(r.n for r in reps) == {
                n: classes[n] for n in range(1, max_points + 1)
            }
            copies = Counter()
            for r in reps:
                copies[r.n] += factorial(r.n) // len(order_automorphisms(r))
            assert copies == {n: labeled[n] for n in range(1, max_points + 1)}

    def test_injected_violation_gives_the_labeled_report(self, monkeypatch):
        # an isomorphism-invariant fault: every group of order 2 on a
        # 3-point poset with a strict relation. The antichain, first of
        # its size in both walks, escapes it, so a count of copies would
        # name another action than the labeled census does.
        def agreement(action):
            points = action.space.points
            related = any(row & (row - 1) for row in points.below)
            return not (points.n == 3 and len(action.closure) == 2 and related)

        monkeypatch.setattr(conformance_module, "action_quasi_orbit_agreement", agreement)
        with pytest.raises(SweepFailed) as reduced:
            sweep_theorem("T62")
        with pytest.raises(SweepFailed) as labeled:
            _run_T62_labeled(5, 0)
        assert str(reduced.value) == str(labeled.value)
        assert reduced.value.report == labeled.value.report
        assert reduced.value.report.violations == 1
        assert reduced.value.report.counterexample["kind"] == "action"


def _flip_where(condition):
    """A fault: the patched function's verdict, flipped where ``condition``
    holds on its arguments."""

    def fault(real):
        def fake(*args):
            out = real(*args)
            return (not out) if condition(*args) else out

        return fake

    return fault


def _t33_fault(real):
    # non-injective morphisms from the 3-element chain into a 2-point space
    def fake(g, space):
        report = real(g, space)
        if space.n == 2 and g.source.n == 3 and not report.g_injective:
            return replace(report, equivalence_verified=False)
        return report

    return fake


def _chain(n):
    return {"points": n, "covers": [[i, i + 1] for i in range(n - 1)]}


# (tag, budget, patched name, fault, message, report), recorded on the
# engine before the sweeps shared one violation loop. Between them the
# counterexamples are galois, action and bundle documents, so every
# shrinker and serializer of the randomized sweeps runs.
_INJECTED_VIOLATIONS = [
    (
        "T33",
        3,
        "theorem33_check",
        _t33_fault,
        "T33: violation at morphism 26",
        (
            26,
            26,
            "galois",
            {
                "source": _chain(3),
                "target": {"points": 4, "covers": [[0, 1], [0, 2], [1, 3], [2, 3]]},
                "lower": [0, 0, 3],
            },
        ),
    ),
    (
        "T42",
        100,
        "check_C1",
        _flip_where(lambda d: d.lattice_a.n >= 4 and d.lattice_b.n >= 3),
        "T42: violation at instance 1 (seed 0)",
        (2, 2, "galois", {"source": _chain(4), "target": _chain(3), "lower": [0, 1, 2, 2]}),
    ),
    (
        "T47",
        100,
        "check_C2",
        _flip_where(lambda d: d.lattice_b.n == 3),
        "T47: violation at instance 60 (seed 0)",
        (61, 61, "galois", {"source": _chain(2), "target": _chain(3), "lower": [0, 2]}),
    ),
    (
        "C48",
        100,
        "check_C2",
        _flip_where(lambda d: d.gc.upper.values == d.lattice_b.labels),
        "C48: violation at instance 1 (seed 0)",
        (2, 2, "action", {"space": {"points": 1, "covers": []}, "generators": []}),
    ),
    (
        "C49",
        100,
        "separates",
        _flip_where(
            lambda gc: gc.lattice_a.n < gc.lattice_b.n == 4
            and gc.upper.values != gc.lattice_a.labels
        ),
        "C49: violation at instance 5 (seed 0)",
        (
            6,
            4,
            "bundle",
            {
                "total": {"points": 3, "covers": [[1, 0], [2, 1]]},
                "base": _chain(2),
                "proj": [1, 0, 0],
            },
        ),
    ),
]


class TestViolationPaths:
    """An injected fault must come back as the same message and the same
    minimized report, whichever way the engine reaches it."""

    @pytest.mark.parametrize(
        "tag, budget, name, fault, message, expected",
        _INJECTED_VIOLATIONS,
        ids=[case[0] for case in _INJECTED_VIOLATIONS],
    )
    def test_injected_fault_gives_the_pinned_report(
        self, monkeypatch, tag, budget, name, fault, message, expected
    ):
        monkeypatch.setattr(conformance_module, name, fault(getattr(conformance_module, name)))
        with pytest.raises(SweepFailed) as excinfo:
            sweep_theorem(tag, budget=budget)
        checked, applicable, kind, payload = expected
        assert str(excinfo.value) == message
        assert excinfo.value.report.as_dict() == {
            "tag": tag,
            "seed": 0,
            "budget": budget,
            "checked": checked,
            "applicable": applicable,
            "violations": 1,
            "counterexample": {"kind": kind, "payload": payload},
        }


class TestMinimization:
    def test_greedy_deletion_shrinks_galois_seeds(self):
        rng = random.Random("drill")
        seed = next(
            s
            for s in (_random_galois_seed(rng, 6) for _ in range(80))
            if s.source.n + s.target.n > 4 and check_JR(_compile_seed(s))
        )

        def reproduces(cand):
            return check_JR(_compile_seed(cand))

        small = _greedy_minimize(seed, _shrink_seed, reproduces)
        assert small.source.n == 1 and small.target.n == 1
        assert reproduces(small)

    def test_seed_shrink_candidates_all_compile(self):
        rng = random.Random("compile")
        seed = _random_galois_seed(rng, 5)
        for cand in _shrink_seed(seed):
            assert verify_prop26(_compile_seed(cand).gc).all_ok

    def test_action_shrink_drops_generators_then_fixed_points(self):
        space = FiniteT0Space.from_poset(FinitePoset.antichain(3))
        action = FiniteGroupAction(space, ((1, 0, 2),))
        candidates = list(_shrink_action(action))
        assert any(c.generators == () for c in candidates)
        dropped = [c for c in candidates if c.space.points.n == 2]
        # only the fixed point 2 can be deleted under the swap
        assert len(dropped) == 1 and dropped[0].generators == ((1, 0),)

    def test_bundle_shrink_preserves_continuity(self):
        total = FiniteT0Space.from_poset(FinitePoset.chain(3))
        base = FiniteT0Space.from_poset(FinitePoset.chain(2))
        bundle = BundleMap(total, base, PointMap(total, base, (0, 0, 1)))
        candidates = list(_shrink_bundle(bundle))
        assert candidates
        for cand in candidates:
            assert cand.total.points.n < 3 or cand.base.points.n < 2

    def test_engine_raises_sweep_failed_with_a_minimized_document(self):
        # inject an artificial predicate: flag every matrix with a
        # second column, and watch the engine shrink to the floor
        def check(m):
            return True, len(m.mult[0]) < 2

        with pytest.raises(SweepFailed) as excinfo:
            _sweep("L51", 3, 0, binary_matrices(3, 3, injective_only=True), check, "matrix {n}")
        report = excinfo.value.report
        assert isinstance(report, SweepReport)
        assert report.violations == 1
        doc = report.counterexample
        assert doc["kind"] == "multiplicity"
        matrix = doc["payload"]["matrix"]
        assert len(matrix) == 1 and len(matrix[0]) == 2
