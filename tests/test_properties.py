"""Property-based tests (hypothesis) for core data structures and
algorithms: mapping algebra, Compose, GenerateView vs a brute-force
reference, taxonomy closures, BH correction and EAV round trips."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.diffexpr import benjamini_hochberg
from repro.eav.model import EavRow
from repro.eav.store import EavDataset
from repro.gam.enums import CombineMethod
from repro.operators.compose import compose_pair, min_evidence
from repro.operators.generate_view import TargetSpec, generate_view
from repro.operators.mapping import Mapping
from repro.operators.set_ops import difference, intersection, union
from repro.taxonomy.dag import Taxonomy
from tests.test_generate_view import make_resolver, reference_generate_view

# -- strategies ---------------------------------------------------------------

accessions = st.text(
    alphabet="abcdefgh123", min_size=1, max_size=3
)

pairs = st.lists(
    st.tuples(accessions, accessions,
              st.floats(min_value=0.0, max_value=1.0)),
    max_size=25,
)


def mapping_from(pair_list, source="S", target="T"):
    return Mapping.build(source, target, pair_list)


#: GenerateView worlds draw from few accessions, so that uploads hit the
#: mappings and objects fan out to several partners.
view_objects = st.sampled_from(["g1", "g2", "g3", "g4", "g5"])
view_terms = st.sampled_from(["t1", "t2", "t3", "t4"])
view_pairs = st.lists(
    st.tuples(view_objects, view_terms, st.floats(min_value=0.0, max_value=1.0)),
    max_size=12,
)
#: A target's restrict set ti, or None for all of the target's objects.
restrict_sets = st.none() | st.sets(view_terms, max_size=3)
#: Uploaded accessions no mapping covers.
unmapped_accessions = st.sets(st.sampled_from(["x1", "x2"]), max_size=2)


@st.composite
def dag_edges(draw):
    """Child->parent edges guaranteed acyclic (parents have smaller ids)."""
    n = draw(st.integers(min_value=2, max_value=12))
    edges = []
    for child in range(1, n):
        n_parents = draw(st.integers(min_value=0, max_value=min(2, child)))
        parent_ids = draw(
            st.lists(
                st.integers(min_value=0, max_value=child - 1),
                min_size=n_parents,
                max_size=n_parents,
                unique=True,
            )
        )
        edges.extend((f"t{child}", f"t{parent}") for parent in parent_ids)
    return edges


# -- mapping algebra ------------------------------------------------------------


class TestMappingProperties:
    @given(pairs)
    def test_build_deduplicates(self, pair_list):
        mapping = mapping_from(pair_list)
        assert len(mapping) == len(mapping.pair_set())

    @given(pairs)
    def test_domain_range_consistent(self, pair_list):
        mapping = mapping_from(pair_list)
        assert mapping.domain() == {p[0] for p in mapping.pair_set()}
        assert mapping.range() == {p[1] for p in mapping.pair_set()}

    @given(pairs)
    def test_invert_is_involution(self, pair_list):
        mapping = mapping_from(pair_list)
        assert mapping.invert().invert().pair_set() == mapping.pair_set()

    @given(pairs, st.sets(accessions, max_size=5))
    def test_restrict_domain_is_subset(self, pair_list, objects):
        mapping = mapping_from(pair_list)
        restricted = mapping.restrict_domain(objects)
        assert restricted.pair_set() <= mapping.pair_set()
        assert restricted.domain() <= objects

    @given(pairs, st.sets(accessions, max_size=5))
    def test_restrict_domain_idempotent(self, pair_list, objects):
        mapping = mapping_from(pair_list)
        once = mapping.restrict_domain(objects)
        twice = once.restrict_domain(objects)
        assert once.pair_set() == twice.pair_set()


class TestSetOpProperties:
    @given(pairs, pairs)
    def test_union_commutative(self, left_pairs, right_pairs):
        left, right = mapping_from(left_pairs), mapping_from(right_pairs)
        assert union(left, right).pair_set() == union(right, left).pair_set()

    @given(pairs, pairs)
    def test_intersection_subset_of_union(self, left_pairs, right_pairs):
        left, right = mapping_from(left_pairs), mapping_from(right_pairs)
        assert intersection(left, right).pair_set() <= union(
            left, right
        ).pair_set()

    @given(pairs, pairs)
    def test_difference_partition(self, left_pairs, right_pairs):
        left, right = mapping_from(left_pairs), mapping_from(right_pairs)
        diff = difference(left, right).pair_set()
        inter = intersection(left, right).pair_set()
        assert diff | inter == left.pair_set()
        assert diff & inter == set()

    @given(pairs)
    def test_union_with_self_is_identity(self, pair_list):
        mapping = mapping_from(pair_list)
        assert union(mapping, mapping).pair_set() == mapping.pair_set()


class TestComposeProperties:
    @given(pairs, pairs, pairs)
    @settings(max_examples=40, deadline=None)
    def test_compose_associative(self, ab_pairs, bc_pairs, cd_pairs):
        ab = mapping_from(ab_pairs, "A", "B")
        bc = mapping_from(bc_pairs, "B", "C")
        cd = mapping_from(cd_pairs, "C", "D")
        left = compose_pair(compose_pair(ab, bc), cd)
        right = compose_pair(ab, compose_pair(bc, cd))
        assert left.pair_set() == right.pair_set()

    @given(pairs, pairs)
    def test_compose_domain_shrinks(self, ab_pairs, bc_pairs):
        ab = mapping_from(ab_pairs, "A", "B")
        bc = mapping_from(bc_pairs, "B", "C")
        composed = compose_pair(ab, bc)
        assert composed.domain() <= ab.domain()
        assert composed.range() <= bc.range()

    @given(pairs, pairs)
    def test_compose_matches_set_semantics(self, ab_pairs, bc_pairs):
        ab = mapping_from(ab_pairs, "A", "B")
        bc = mapping_from(bc_pairs, "B", "C")
        expected = {
            (a, c)
            for a, b in ab.pair_set()
            for b2, c in bc.pair_set()
            if b == b2
        }
        assert compose_pair(ab, bc).pair_set() == expected

    @given(pairs, pairs)
    def test_min_combiner_bounded_by_legs(self, ab_pairs, bc_pairs):
        ab = mapping_from(ab_pairs, "A", "B")
        bc = mapping_from(bc_pairs, "B", "C")
        composed = compose_pair(ab, bc, combiner=min_evidence)
        floor = min(ab.min_evidence(), bc.min_evidence())
        for assoc in composed:
            assert assoc.evidence >= floor - 1e-12

    @given(pairs, pairs)
    def test_product_evidence_never_exceeds_legs(self, ab_pairs, bc_pairs):
        ab = mapping_from(ab_pairs, "A", "B")
        bc = mapping_from(bc_pairs, "B", "C")
        composed = compose_pair(ab, bc)
        leg_max = {}
        for assoc in ab:
            key = assoc.source_accession
            leg_max[key] = max(leg_max.get(key, 0.0), assoc.evidence)
        for assoc in composed:
            assert assoc.evidence <= leg_max[assoc.source_accession] + 1e-12


class TestGenerateViewProperties:
    @given(
        view_pairs,
        view_pairs,
        st.sets(view_objects, min_size=1),
        unmapped_accessions,
        st.tuples(restrict_sets, restrict_sets),
        st.tuples(st.booleans(), st.booleans()),
        st.booleans(),
        st.sampled_from(["AND", "OR"]),
    )
    @settings(max_examples=150, deadline=None)
    def test_agrees_with_reference(
        self,
        hugo_pairs,
        go_pairs,
        objects,
        unmapped,
        restricts,
        negations,
        go_stored_reversed,
        combine,
    ):
        if go_stored_reversed:
            # As Map returns a mapping stored GO -> S: its associations
            # come grouped by GO term, not by source object.
            reversed_pairs = [(go, obj, ev) for obj, go, ev in go_pairs]
            go = mapping_from(reversed_pairs, "GO", "S").invert()
        else:
            go = mapping_from(go_pairs, "S", "GO")
        world = {"Hugo": mapping_from(hugo_pairs, "S", "Hugo"), "GO": go}
        specs = [
            TargetSpec.of(name, restrict=restrict, negated=negated)
            for name, restrict, negated in zip(("Hugo", "GO"), restricts, negations)
        ]
        upload = objects | unmapped
        view = generate_view(make_resolver(world), "S", upload, specs, combine)
        expected = reference_generate_view(
            world, "S", upload, specs, CombineMethod.parse(combine)
        )
        assert list(view.rows) == expected

    @given(pairs, st.sets(accessions, min_size=1, max_size=6))
    def test_or_view_covers_all_objects(self, hugo_pairs, objects):
        world = {"Hugo": mapping_from(hugo_pairs, "S", "Hugo")}
        view = generate_view(
            make_resolver(world), "S", objects, [TargetSpec.of("Hugo")], "OR"
        )
        assert set(view.source_objects()) == objects

    @given(pairs, st.sets(accessions, min_size=1, max_size=6))
    def test_and_view_objects_are_annotated(self, hugo_pairs, objects):
        world = {"Hugo": mapping_from(hugo_pairs, "S", "Hugo")}
        view = generate_view(
            make_resolver(world), "S", objects, [TargetSpec.of("Hugo")], "AND"
        )
        annotated = world["Hugo"].domain()
        assert set(view.source_objects()) <= annotated & objects


class TestTaxonomyProperties:
    @given(dag_edges())
    @settings(max_examples=50, deadline=None)
    def test_subsumed_equals_descendant_sets(self, edges):
        taxonomy = Taxonomy(edges)
        pairs_set = set(taxonomy.subsumed_pairs())
        for term in taxonomy.terms:
            expected = {(term, d) for d in taxonomy.descendants(term)}
            assert {p for p in pairs_set if p[0] == term} == expected

    @given(dag_edges())
    @settings(max_examples=50, deadline=None)
    def test_ancestors_descendants_are_dual(self, edges):
        taxonomy = Taxonomy(edges)
        for term in taxonomy.terms:
            for ancestor in taxonomy.ancestors(term):
                assert term in taxonomy.descendants(ancestor)

    @given(dag_edges())
    @settings(max_examples=50, deadline=None)
    def test_depth_increases_along_edges(self, edges):
        taxonomy = Taxonomy(edges)
        for child, parent in edges:
            assert taxonomy.depth(child) > taxonomy.depth(parent)


class TestStatisticsProperties:
    @given(
        st.lists(
            st.floats(min_value=1e-12, max_value=1.0), min_size=1, max_size=60
        )
    )
    def test_bh_bounds_and_dominance(self, p_list):
        p = np.array(p_list)
        q = benjamini_hochberg(p)
        assert np.all(q >= p - 1e-12)
        assert np.all(q <= 1.0 + 1e-12)

    @given(
        st.lists(
            st.floats(min_value=1e-12, max_value=1.0), min_size=2, max_size=60
        )
    )
    def test_bh_preserves_p_value_order(self, p_list):
        p = np.array(p_list)
        q = benjamini_hochberg(p)
        order = np.argsort(p)
        assert np.all(np.diff(q[order]) >= -1e-12)


class TestEavProperties:
    eav_texts = st.text(
        alphabet=st.characters(
            blacklist_characters="\t\n\r", blacklist_categories=("Cs",)
        ),
        min_size=0,
        max_size=12,
    )

    @given(
        st.lists(
            st.tuples(accessions, accessions, accessions, eav_texts),
            max_size=15,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_file_round_trip(self, tmp_path_factory, rows):
        dataset = EavDataset(
            "PropSource",
            [
                EavRow(entity, target, value, text or None)
                for entity, target, value, text in rows
            ],
        )
        from repro.eav.io import read_eav, write_eav

        path = tmp_path_factory.mktemp("eav") / "prop.eav"
        write_eav(dataset, path)
        assert read_eav(path) == dataset


# -- reliability --------------------------------------------------------------


class TestReliabilityProperties:
    @given(
        rows=st.lists(
            st.tuples(accessions, accessions), min_size=1, max_size=12
        ),
        fault_at=st.integers(min_value=0, max_value=60),
    )
    @settings(max_examples=40, deadline=None)
    def test_import_is_atomic_per_source_under_faults(self, rows, fault_at):
        """A fault anywhere in an import leaves the GAM either fully
        imported or exactly as it was — never a half-imported source."""
        import sqlite3

        from repro.gam.database import GamDatabase
        from repro.gam.dump import canonical_snapshot
        from repro.gam.repository import GamRepository
        from repro.importer.importer import GamImporter
        from repro.obs import MetricsRegistry
        from repro.reliability import FaultInjector, FaultRule, RetryPolicy

        dataset = EavDataset(
            "PropSource",
            [EavRow(entity, "Hugo", value) for entity, value in rows],
        )

        def snapshot_after(inject: bool):
            db = GamDatabase()
            try:
                repository = GamRepository(db)
                empty = canonical_snapshot(repository)
                if inject:
                    db.retry_policy = RetryPolicy(max_attempts=1)
                    db.fault_injector = FaultInjector(
                        [FaultRule("ioerror", after=fault_at, times=None)],
                        registry=MetricsRegistry(),
                    )
                failed = False
                try:
                    GamImporter(repository).import_dataset(dataset)
                except sqlite3.OperationalError:
                    failed = True
                db.fault_injector = None
                db.retry_policy = None
                return canonical_snapshot(repository), empty, failed
            finally:
                db.close()

        clean, _, clean_failed = snapshot_after(inject=False)
        assert not clean_failed
        faulty, empty, failed = snapshot_after(inject=True)
        if failed:
            assert faulty == empty  # rolled back: no partial source
        else:
            assert faulty == clean  # fault missed the window: full import

    @given(
        max_attempts=st.integers(min_value=1, max_value=8),
        base_delay=st.floats(
            min_value=1e-4, max_value=0.05, allow_nan=False
        ),
        multiplier=st.floats(min_value=1.0, max_value=3.0, allow_nan=False),
        jitter=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=80, deadline=None)
    def test_jittered_retry_never_exceeds_budgets(
        self, max_attempts, base_delay, multiplier, jitter, seed
    ):
        """However the jitter falls, a retry run never exceeds the attempt
        budget and never sleeps longer than the deterministic schedule."""
        import random
        import sqlite3

        from repro.reliability import RetryBudgetExceeded, RetryPolicy

        slept = []
        calls = []
        policy = RetryPolicy(
            max_attempts=max_attempts,
            base_delay=base_delay,
            max_delay=base_delay * 8,
            multiplier=multiplier,
            jitter=jitter,
            max_elapsed=None,
            sleep=slept.append,
            rng=random.Random(seed),
        )

        def always_busy():
            calls.append(1)
            raise sqlite3.OperationalError("database is locked")

        try:
            policy.call(always_busy)
            raise AssertionError("always-failing call cannot succeed")
        except RetryBudgetExceeded as exc:
            assert exc.attempts == max_attempts
        assert len(calls) == max_attempts
        assert len(slept) == max_attempts - 1
        for attempt, delay in enumerate(slept, start=1):
            assert 0.0 <= delay <= policy.backoff(attempt)
        assert sum(slept) <= sum(
            policy.backoff(n) for n in range(1, max_attempts)
        )

    @given(
        max_elapsed=st.floats(
            min_value=0.01, max_value=2.0, allow_nan=False
        ),
        base_delay=st.floats(
            min_value=1e-3, max_value=0.5, allow_nan=False
        ),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_retry_respects_time_budget(self, max_elapsed, base_delay, seed):
        """Total time spent retrying (on a fake clock) never exceeds the
        configured ``max_elapsed`` budget."""
        import random
        import sqlite3

        from repro.reliability import RetryBudgetExceeded, RetryPolicy

        clock = {"now": 0.0}

        def sleeper(seconds):
            clock["now"] += seconds

        policy = RetryPolicy(
            max_attempts=1000,
            base_delay=base_delay,
            max_delay=base_delay * 4,
            jitter=0.5,
            max_elapsed=max_elapsed,
            clock=lambda: clock["now"],
            sleep=sleeper,
            rng=random.Random(seed),
        )
        try:
            policy.call(
                lambda: (_ for _ in ()).throw(
                    sqlite3.OperationalError("database is locked")
                )
            )
            raise AssertionError("always-failing call cannot succeed")
        except RetryBudgetExceeded:
            pass
        assert clock["now"] <= max_elapsed
