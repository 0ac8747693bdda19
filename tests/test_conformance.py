"""Generators, exhaustive enumerations, and the sweep engine.

The enumeration counts are pinned against published sequences (labeled
posets: 1, 3, 19, 219, 4231; distributive-lattice classes by size) and
cross-checked against the brute-force conftest enumerations, which are
built by an independent method.
"""

import os
import sys
import time
from collections import Counter
from itertools import combinations, product
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import labeled_posets, pin_cpus
from stonekit import (
    FiniteLattice,
    FinitePoset,
    FiniteT0Space,
    GaloisConnection,
    InstanceGenerator,
    MonotoneMap,
    SweepFailed,
    SweepReport,
    all_posets,
    all_spaces,
    binary_matrices,
    gen_inclusion_data,
    is_frame,
    is_join_preserving,
    is_meet_preserving,
    NotALattice,
    opens_lattice,
    order_automorphisms,
    small_group_actions,
    sweep_theorem,
)
from oracles import all_frames, element_check_T33, join_extension, monotone_maps, verify_prop26
import stonekit.conformance as conformance_module
import stonekit.topo_models as topo_models_module
from stonekit.conformance import (
    _SWEEPS,
    _check_T33,
    _compile_seed,
    _frame_space_pairs,
    _greedy_minimize,
    _locale_morphisms,
    _monotone_values,
    all_frame_posets,
    _poset_classes,
    _random_galois_seed,
    _run_T62_labeled,
    _shrink_action,
    _shrink_bundle,
    _shrink_seed,
    _subgroup_classes,
    _sweep,
    _theorem33_sides,
)
from stonekit._record import Record
from stonekit.lattice import _downsets, boolean_lattice, downset_lattice, poset_isomorphism
from stonekit.quasiorbit import InclusionData, PointRelation, _holds_JR, check_JR
from stonekit.errors import ClosureTooLarge
from stonekit.spectrum import PointMap, PrimeSpectrum
from stonekit.topo_models import BundleMap, FiniteGroupAction, group_closure
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
            ("random-galois", "multiplicity", "action", "bundle")
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

    def test_graph_family_is_refused(self):
        # graph instances compile to pair lattices, not to inclusion data
        with pytest.raises(ValueError, match="unknown family 'graph'"):
            InstanceGenerator(family="graph")


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
                assert poset_isomorphism(a.order, b.order) is None

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
                    lat = FiniteLattice(FinitePoset(n, key))
                except NotALattice:
                    continue
                if not is_frame(lat).distributive:
                    continue
                if any(poset_isomorphism(lat.order, r.order) for r in reps):
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
        # 16 ** 8 candidate tables
        with pytest.raises(ValueError, match="cap"):
            next(monotone_maps(boolean_lattice(3), boolean_lattice(4)))

    def test_relation_lower_maps_are_the_join_extensions(self):
        # the oracle of the T33 enumeration: on each of its (frame,
        # space) pairs, every monotone assignment of opens to the points,
        # extended by element joins, is from_relation's lower map and
        # preserves joins, and the meet filter keeps the morphisms the
        # sweep enumerates as continuous maps X -> P. The sweep's order
        # is its own, so each pair is compared as a set
        pairs = _frame_space_pairs(_SWEEPS["T33"][0])
        candidates = kept = 0
        for poset, space in pairs:
            la, lb = downset_lattice(poset), opens_lattice(space)
            filtered = set()
            for assigned in _monotone_values(poset, lb):
                values = join_extension(la, lb, assigned)
                rows = tuple(lb.labels[v] for v in assigned)
                assert GaloisConnection.from_relation(la, lb, rows).lower.values == values
                g = MonotoneMap(la, lb, values)
                assert is_join_preserving(g)
                candidates += 1
                if is_meet_preserving(g):
                    filtered.add(rows)
            rels = list(_locale_morphisms([(poset, space)]))
            assert all(rel.source is poset and rel.target is space.points for rel in rels)
            got = [rel.rows for rel in rels]
            assert len(set(got)) == len(got)
            assert set(got) == filtered
            kept += len(got)
        assert (candidates, kept) == (4973, 1628)


class TestGroupEnumeration:
    def test_chain_automorphisms_are_trivial(self):
        assert order_automorphisms(FinitePoset.chain(4)) == [(0, 1, 2, 3)]

    def test_antichain_automorphisms_are_all_permutations(self):
        assert len(order_automorphisms(FinitePoset.antichain(3))) == 6

    def test_subgroup_census_of_the_free_swap_space(self):
        space = FiniteT0Space(FinitePoset.antichain(3))
        actions = list(small_group_actions(space))
        # trivial, three transposition groups, the rotation group, S3
        assert len(actions) == 6
        orders = sorted(len(a.closure) for a in actions)
        assert orders == [1, 2, 2, 2, 3, 6]

    def test_rigid_posets_only_carry_the_trivial_group(self):
        space = FiniteT0Space(FinitePoset.chain(5))
        actions = list(small_group_actions(space))
        assert len(actions) == 1 and actions[0].generators == ()

    def test_order_cap_is_respected(self):
        space = FiniteT0Space(FinitePoset.antichain(4))
        actions = list(small_group_actions(space, max_order=6))
        assert all(len(a.closure) <= 6 for a in actions)
        # S4 itself (order 24) must have been cut off
        assert not any(len(a.closure) == 24 for a in actions)

    def test_pruned_pairs_give_the_all_pairs_actions(self):
        # the enumeration that closes every pair of automorphisms is the
        # oracle: same actions, same generators, same order
        def all_pairs(space, max_order=6):
            identity = tuple(range(space.n))
            auts = [g for g in order_automorphisms(space.points) if g != identity]
            seen = set()
            for gens in [(), *((g,) for g in auts), *combinations(auts, 2)]:
                try:
                    closure = group_closure(gens, space.n, max_order)
                except ClosureTooLarge:
                    continue
                if closure not in seen:
                    seen.add(closure)
                    yield gens

        for poset in all_posets(5):
            space = FiniteT0Space(poset)
            got = [a.generators for a in small_group_actions(space)]
            assert got == list(all_pairs(space))
        space = FiniteT0Space(FinitePoset.antichain(4))
        for max_order in (1, 2, 4, 8, 24):
            got = [a.generators for a in small_group_actions(space, max_order)]
            assert got == list(all_pairs(space, max_order))


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

    def test_t33_at_its_cap(self, monkeypatch):
        # inline and in two shares
        for cpus in (1, 2):
            pin_cpus(monkeypatch, cpus)
            report = sweep_theorem("T33", budget=6)
            assert (report.checked, report.applicable, report.violations) == (4680, 4680, 0)

    def test_t33_skips_a_column_that_is_not_principal(self):
        # a shrunk relation need not be a locale morphism: here the one
        # point of X lies in the rows of both points of a two-point
        # antichain P, so its column has no least point; an empty column
        # has none either
        one = FinitePoset.chain(1)
        assert _check_T33(PointRelation(FinitePoset.antichain(2), one, (1, 1))) == (False, True)
        assert _check_T33(PointRelation(one, FinitePoset.antichain(2), (0b01,))) == (False, True)
        assert _check_T33(PointRelation(FinitePoset.chain(2), one, (1, 1))) == (True, True)

    def test_t33_counterexamples_shrink_like_every_relation(self):
        # a T33 morphism is a PointRelation, so the engine shrinks it with
        # _shrink_seed; here a non-injective morphism out of the 3-chain
        # into a 3-point space shrinks to a least one: one point sent to
        # the top of a 2-chain, reached past candidates whose columns are
        # not principal
        assert conformance_module._KINDS[PointRelation][0] is _shrink_seed

        tried = []

        def not_injective(rel):
            tried.append(_theorem33_sides(rel))
            return tried[-1] is not None and not tried[-1][1]

        big = next(
            rel
            for rel in _locale_morphisms(_frame_space_pairs(4))
            if (rel.source.n, rel.target.n) == (3, 3) and not_injective(rel)
        )
        tried.clear()
        small = _greedy_minimize(big, _shrink_seed, not_injective)
        assert None in tried
        assert small == PointRelation(FinitePoset.from_pairs(2, [(1, 0)]), FinitePoset.chain(1), (1, 0))

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

    def test_point_sweeps_build_no_lattice_connection_or_inclusion(self, monkeypatch, one_cpu):
        # T33, T42, C48, C49, C54 and T62 decide on the relation (P, Q, R)
        # of each instance. The counters watch every record build, certified
        # or trusted, and every down-set lattice; one CPU keeps the sweep
        # in this process, since a forked share cannot report its counts
        built = []
        watched = (FiniteLattice, GaloisConnection, InclusionData, PrimeSpectrum)
        real_init, real_trusted = Record.__init__, Record._trusted.__func__

        def init(self, *args, **kwargs):
            if isinstance(self, watched):
                built.append(type(self).__name__)
            real_init(self, *args, **kwargs)

        def trusted(cls, *values):
            if issubclass(cls, watched):
                built.append(cls.__name__)
            return real_trusted(cls, *values)

        monkeypatch.setattr(Record, "__init__", init)
        monkeypatch.setattr(Record, "_trusted", classmethod(trusted))
        for module in list(sys.modules.values()):
            real = getattr(module, "downset_lattice", None)
            if getattr(module, "__name__", "").startswith("stonekit") and real is not None:
                monkeypatch.setattr(
                    module, "downset_lattice", lambda *a, real=real: built.append("downset_lattice") or real(*a)
                )
        for tag in ("T42", "C48", "C49"):
            report = sweep_theorem(tag, budget=100)
            assert report.applicable > 0
        assert sweep_theorem("T33").applicable == 1628
        assert sweep_theorem("C54").applicable == 95
        assert sweep_theorem("T62").checked == 8223
        assert built == []
        # the counters see the element route's builds
        sweep_theorem("T47", budget=1)
        assert {"downset_lattice", "FiniteLattice", "GaloisConnection", "InclusionData"} <= set(built)

    def test_t47_builds_its_inclusions_but_scans_no_condition(self, monkeypatch, one_cpu):
        # T47 reads MI and C2 off each relation; the InclusionData it
        # builds serves only restricted_prime_map, so no condition scan
        # of the element route runs
        scans, built = [], []
        for name in ("_jr_bad", "_c1_bad", "_mif_bad", "_mi_bad", "_c2_bad"):
            monkeypatch.setattr(InclusionData, name, property(lambda d, name=name: scans.append(name)))
        real = InclusionData.__post_init__
        monkeypatch.setattr(InclusionData, "__post_init__", lambda d: built.append(d) or real(d))
        assert sweep_theorem("T47", budget=200).applicable == 200
        assert len(built) == 200
        assert scans == []

    def test_sweeps_build_their_records_positionally(self, monkeypatch, one_cpu):
        # Record._bind, the constructor's path for keywords and
        # defaults, costs 1-2 us a call; no sweep record takes it
        real = Record._bind.__func__
        binds = []

        def counted(cls, args, kwargs):
            binds.append(cls)
            return real(cls, args, kwargs)

        monkeypatch.setattr(Record, "_bind", classmethod(counted))
        for tag in ("T33", "L51", "C54", "T62"):
            sweep_theorem(tag)
        for tag in ("T42", "T47", "C48", "C49"):
            sweep_theorem(tag, budget=150, seed=11)
        assert binds == []


class TestT62BySymmetry:
    """The sweep checks one poset per isomorphism class and, on it, one
    subgroup per conjugacy class; the labeled census is the oracle that
    would catch a labeling-dependent bug."""

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

    def test_subgroup_classes_partition_the_subgroups(self):
        # conjugation by hand: p = g h g^-1 is the permutation with
        # p(g(x)) = g(h(x))
        def conjugate(g, group):
            out = []
            for h in group:
                p = [0] * len(g)
                for x in range(len(g)):
                    p[g[x]] = g[h[x]]
                out.append(tuple(p))
            return tuple(sorted(out))

        reps = _poset_classes(5)
        assert len(reps) == 87
        for rep in reps:
            space = FiniteT0Space(rep)
            auts = order_automorphisms(rep)
            classes = list(_subgroup_classes(space, auts))
            subgroups = [a.closure for a in small_group_actions(space)]
            assert sum(len(members) for _, members in classes) == len(subgroups)
            assert set().union(*(members for _, members in classes)) == set(subgroups)
            groups = [group_closure(a.generators, rep.n, 6) for a, _ in classes]
            for (_, members), group in zip(classes, groups):
                assert {conjugate(g, group) for g in auts} == members
            for i, group in enumerate(groups):
                assert not any(
                    conjugate(g, group) == other for g in auts for other in groups[i + 1 :]
                )

    def test_one_check_per_subgroup_class(self, monkeypatch, one_cpu):
        real = conformance_module.action_quasi_orbit_agreement
        checks = []

        def agreement(action):
            checks.append(action)
            return real(action)

        monkeypatch.setattr(conformance_module, "action_quasi_orbit_agreement", agreement)
        for budget, count in zip(range(1, 6), (1, 4, 14, 54, 226)):
            checks.clear()
            assert sweep_theorem("T62", budget).violations == 0
            assert len(checks) == count
        # against 403 subgroups of the automorphism groups of the 87
        # representatives
        assert sum(
            len(list(small_group_actions(FiniteT0Space(rep))))
            for rep in _poset_classes(5)
        ) == 403

    @pytest.mark.trusts_by_design
    def test_one_automorphism_search_per_representative(self, monkeypatch, one_cpu):
        # each representative's automorphisms are searched once, and each
        # subgroup closed once: the actions keep the enumeration's closure
        searches, closures = [], []

        def counted(calls, real):
            def wrapper(*args):
                calls.append(args)
                return real(*args)

            return wrapper

        monkeypatch.setattr(
            conformance_module,
            "order_automorphisms",
            counted(searches, conformance_module.order_automorphisms),
        )
        closure = counted(closures, group_closure)
        monkeypatch.setattr(conformance_module, "group_closure", closure)
        monkeypatch.setattr(topo_models_module, "group_closure", closure)
        assert sweep_theorem("T62").checked == 8223
        assert len(searches) == 87
        assert len(closures) == 1948

    def test_actions_built_on_the_closure_equal_the_certified_ones(self):
        # the enumeration builds each action on the closure it found; the
        # constructor checks the generators and closes them again
        reps = _poset_classes(5)
        assert len(reps) == 87
        for rep in reps:
            space = FiniteT0Space(rep)
            for action, _ in _subgroup_classes(space, order_automorphisms(rep)):
                built = FiniteGroupAction(space, action.generators)
                assert action == built
                assert action.generators == built.generators
                assert action.closure == built.closure
                assert action._orbits == built._orbits

    def test_actions_built_on_the_closure_keep_the_order_cap(self, monkeypatch):
        monkeypatch.setattr(topo_models_module, "_MAX_ORDER", 2)
        space = FiniteT0Space(FinitePoset.antichain(3))
        with pytest.raises(ClosureTooLarge):
            FiniteGroupAction(space, ((1, 2, 0),))
        with pytest.raises(ClosureTooLarge):
            list(small_group_actions(space))

    def test_fault_on_a_non_normal_class_gives_the_labeled_report(self, monkeypatch):
        # a conjugation-invariant fault: the groups of one fixed-point-free
        # involution on the 4-point antichain. <(0 1)(2 3)> is one of
        # three conjugate subgroups of S4, so it is not normal.
        def agreement(action):
            points = action.space.points
            antichain = all(row & (row - 1) == 0 for row in points.below)
            free = len(action.closure) == 2 and all(
                g[x] != x for g in action.generators for x in range(points.n)
            )
            return not (points.n == 4 and antichain and free)

        antichain = FiniteT0Space(FinitePoset.antichain(4))
        auts = order_automorphisms(antichain.points)
        sizes = [
            len(members)
            for action, members in _subgroup_classes(antichain, auts)
            if not agreement(action)
        ]
        assert sizes == [3]
        monkeypatch.setattr(conformance_module, "action_quasi_orbit_agreement", agreement)
        with pytest.raises(SweepFailed) as reduced:
            sweep_theorem("T62")
        with pytest.raises(SweepFailed) as labeled:
            _run_T62_labeled(5, 0)
        assert str(reduced.value) == str(labeled.value)
        assert reduced.value.report == labeled.value.report
        assert reduced.value.report.counterexample["kind"] == "action"

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


def _raise_where(condition):
    """A fault: the patched function raises AssertionError, as a broken
    library cross-check does, where ``condition`` holds on its arguments."""

    def fault(real):
        def fake(*args):
            if condition(*args):
                raise AssertionError("injected cross-check failure")
            return real(*args)

        return fake

    return fault


def _t33_fault(real):
    # non-injective morphisms from the 3-element chain into a 2-point
    # space, the element route's verdict on injectivity
    def fake(rel):
        applicable, ok = real(rel)
        if applicable and rel.target.n == 2 and _opens(rel.source) == 3:
            return applicable, ok and element_check_T33(rel).g_injective
        return applicable, ok

    return fake


def _chain(n):
    return {"points": n, "covers": [[i, i + 1] for i in range(n - 1)]}


def _opens(poset):
    return len(_downsets(poset))


# (tag, budget, patched name, fault, message, report), recorded on the
# engine before the sweeps shared one violation loop. Between them the
# counterexamples are galois, action and bundle documents, so every
# shrinker and serializer of the randomized sweeps runs. The last two
# rows break a cross-check (AssertionError) inside T42 and T62, which
# counts as a violation for every tag; T62 reports the labeled census.
# T42, T47, C48 and C49 decide on points, so their faults patch the
# point verdicts and pick instances by their relation (P, Q, R), the
# same instances the element faults picked: |O(P)| and |O(Q)| are the
# sizes of the element route's lattice_a and lattice_b; rows that are
# exactly the principal down-sets of Q hold for every action and for neither
# earlier instance of the C48 stream, as an upper map equal to the
# labels of lattice_b did; and C49's upper map, one value per element
# of B, never equalled the labels of a smaller A, so that clause of its
# fault always held.
_INJECTED_VIOLATIONS = [
    (
        "T33",
        3,
        "_check_T33",
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
        "_holds_C1",
        _flip_where(lambda rel: _opens(rel.source) >= 4 and _opens(rel.target) >= 3),
        "T42: violation at instance 1 (seed 0)",
        (2, 2, "galois", {"source": _chain(4), "target": _chain(3), "lower": [0, 1, 2, 2]}),
    ),
    (
        "T47",
        100,
        "_holds_C2",
        _flip_where(lambda rel: _opens(rel.target) == 3),
        "T47: violation at instance 60 (seed 0)",
        (61, 61, "galois", {"source": _chain(2), "target": _chain(3), "lower": [0, 2]}),
    ),
    (
        "C48",
        100,
        "_holds_C2",
        _flip_where(lambda rel: set(rel.rows) == set(rel.target.below)),
        "C48: violation at instance 1 (seed 0)",
        (2, 2, "action", {"space": {"points": 1, "covers": []}, "generators": []}),
    ),
    (
        "C49",
        100,
        "_holds_separation",
        _flip_where(lambda rel: _opens(rel.source) < _opens(rel.target) == 4),
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
    (
        "T42",
        100,
        "_pi_is_open",
        _raise_where(lambda rel: _opens(rel.target) > _opens(rel.source) >= 3),
        "T42: violation at instance 1 (seed 0)",
        (
            2,
            2,
            "galois",
            {
                "source": _chain(3),
                "target": {"points": 4, "covers": [[0, 1], [0, 2], [1, 3], [2, 3]]},
                "lower": [0, 2, 2],
            },
        ),
    ),
    (
        "T62",
        4,
        "action_quasi_orbit_agreement",
        _raise_where(
            lambda a: a.space.n == 4
            and len(a.closure) == 2
            and any(row & (row - 1) for row in a.space.points.below)
        ),
        "T62: violation at action 62",
        (
            62,
            62,
            "action",
            {"space": {"points": 4, "covers": [[3, 0]]}, "generators": [[0, 2, 1, 3]]},
        ),
    ),
]


class TestViolationPaths:
    """An injected fault must come back as the same message and the same
    minimized report, whichever way the engine reaches it."""

    @pytest.mark.parametrize(
        "tag, budget, name, fault, message, expected",
        _INJECTED_VIOLATIONS,
        ids=[
            # a tag's later rows are also named by the function they patch
            tag if all(row[0] != tag for row in _INJECTED_VIOLATIONS[:k]) else f"{tag}-{name}"
            for k, (tag, _, name, *_) in enumerate(_INJECTED_VIOLATIONS)
        ],
    )
    def test_injected_fault_gives_the_pinned_report(
        self, monkeypatch, tag, budget, name, fault, message, expected
    ):
        monkeypatch.setattr(conformance_module, name, fault(getattr(conformance_module, name)))
        checked, applicable, kind, payload = expected
        # inline and in two shares
        for cpus in (1, 2):
            pin_cpus(monkeypatch, cpus)
            with pytest.raises(SweepFailed) as excinfo:
                sweep_theorem(tag, budget=budget)
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


class _Boom(Exception):
    pass


class TestShares:
    """A sweep's counting pass runs as one share per usable CPU, share w
    taking the units k = w (mod W), every share but the first in a
    forked child; on a violation or an exception the serial loop reruns
    from the start. So what a sweep returns or raises does not depend on
    W, and no child outlives the sweep."""

    def run(self, monkeypatch, cpus, *args):
        pin_cpus(monkeypatch, cpus)
        try:
            return sweep_theorem(*args)
        finally:
            with pytest.raises(ChildProcessError):
                os.waitpid(-1, os.WNOHANG)

    def t42_instance(self, monkeypatch, parity):
        """The first instance of parity ``parity`` in T42's stream at
        budget 100, seed 0, on which the sweep reaches C1, as the
        relation on points the sweep decides on."""
        seen = []
        real = conformance_module._relation
        with monkeypatch.context() as mp:
            pin_cpus(mp, 1)
            mp.setattr(conformance_module, "_relation", lambda i: seen.append(real(i)) or seen[-1])
            sweep_theorem("T42", 100)
        k = next(k for k in range(parity, 100, 2) if _holds_JR(seen[k]))
        return k, seen[k]

    @pytest.mark.parametrize(
        "tag, budgets, seeds",
        [
            ("T33", (3, 5), (0,)),
            ("T42", (1, 7, 60), (0, 11, 2**64 - 1)),
            ("T47", (7, 60), (0, 11)),
            ("C48", (7, 60), (0, 11)),
            ("C49", (7, 60), (0, 11)),
            ("L51", (1, 3), (0,)),
            ("C54", (1, 3), (0,)),
            ("T62", (1, 3, 5), (0, 4)),
        ],
    )
    def test_shared_reports_equal_the_inline_ones(self, monkeypatch, tag, budgets, seeds):
        for budget in budgets:
            for seed in seeds:
                inline = self.run(monkeypatch, 1, tag, budget, seed)
                for cpus in (2, 3):
                    assert self.run(monkeypatch, cpus, tag, budget, seed) == inline

    def test_without_fork_the_share_runs_inline(self, monkeypatch):
        inline = self.run(monkeypatch, 1, "T42", 30)
        monkeypatch.delattr(os, "fork")
        assert self.run(monkeypatch, 2, "T42", 30) == inline

    def test_a_violation_in_a_child_share_gives_the_inline_report(self, monkeypatch):
        k, target = self.t42_instance(monkeypatch, 1)
        real = conformance_module._holds_C1
        met = []

        def holds_C1(rel):
            met.append(rel == target)
            return real(rel) != met[-1]

        monkeypatch.setattr(conformance_module, "_holds_C1", holds_C1)
        raised = {}
        for cpus in (1, 2, 3):
            met.clear()
            with pytest.raises(SweepFailed) as excinfo:
                self.run(monkeypatch, cpus, "T42", 100)
            raised[cpus] = str(excinfo.value), excinfo.value.report
            if cpus == 2:
                # instance k is odd, so share 1 found it; here only the
                # serial rerun met it
                assert met.count(True) == 1
        assert raised[1][0] == f"T42: violation at instance {k} (seed 0)"
        assert raised[2] == raised[1] == raised[3]

    @pytest.mark.parametrize("parity", (0, 1), ids=("this-share", "child-share"))
    def test_an_exception_in_a_share_surfaces_with_its_type(self, monkeypatch, parity):
        k, target = self.t42_instance(monkeypatch, parity)
        real = conformance_module._holds_C1
        met = []

        def holds_C1(rel):
            if rel == target:
                met.append(os.getpid())
                raise _Boom(k)
            return real(rel)

        monkeypatch.setattr(conformance_module, "_holds_C1", holds_C1)
        for cpus in (1, 2):
            met.clear()
            with pytest.raises(_Boom):
                self.run(monkeypatch, cpus, "T42", 100)
        # the serial rerun meets it here, after share 0 did or a child
        # share raised it
        assert met == [os.getpid()] * (2 - parity)

    def test_an_interrupt_in_this_share_kills_the_children(self, monkeypatch):
        class Stop(BaseException):
            pass

        here = os.getpid()

        def agreement(action):
            if os.getpid() == here:
                raise Stop
            time.sleep(60)

        monkeypatch.setattr(conformance_module, "action_quasi_orbit_agreement", agreement)
        start = time.perf_counter()
        with pytest.raises(Stop):
            self.run(monkeypatch, 3, "T62", 3)
        assert time.perf_counter() - start < 30


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
        space = FiniteT0Space(FinitePoset.antichain(3))
        action = FiniteGroupAction(space, ((1, 0, 2),))
        candidates = list(_shrink_action(action))
        assert any(c.generators == () for c in candidates)
        dropped = [c for c in candidates if c.space.points.n == 2]
        # only the fixed point 2 can be deleted under the swap
        assert len(dropped) == 1 and dropped[0].generators == ((1, 0),)

    def test_bundle_shrink_preserves_continuity(self):
        total = FiniteT0Space(FinitePoset.chain(3))
        base = FiniteT0Space(FinitePoset.chain(2))
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
            _sweep(
                "L51",
                3,
                0,
                lambda start, step: list(binary_matrices(3, 3))[start::step],
                check,
                "matrix {n}",
            )
        report = excinfo.value.report
        assert isinstance(report, SweepReport)
        assert report.violations == 1
        doc = report.counterexample
        assert doc["kind"] == "multiplicity"
        matrix = doc["payload"]["matrix"]
        assert len(matrix) == 1 and len(matrix[0]) == 2
