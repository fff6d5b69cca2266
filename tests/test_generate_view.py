"""Tests for GenerateView (paper Figure 5), including a brute-force
reference implementation the operator must agree with."""

import random
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gam.enums import CombineMethod
from repro.gam.errors import ViewGenerationError
from repro.gam.records import Association
from repro.operators.generate_view import (
    DEADLINE_STRIDE,
    TargetSpec,
    generate_view,
)
from repro.operators.mapping import Mapping
from repro.reliability.deadline import DeadlineExceeded, deadline_scope
from tests.test_reliability import FakeClock


def make_resolver(mappings):
    """A resolver over a dict {target_name: Mapping}."""

    def resolver(source, spec):
        return mappings[spec.name]

    return resolver


@pytest.fixture()
def world():
    """A small world: genes g1..g4 with partial annotations.

    g1: hugo A, go G1, omim O1
    g2: hugo B, go G1+G2
    g3: hugo C
    g4: (nothing)
    """
    return {
        "Hugo": Mapping.build(
            "S", "Hugo", [("g1", "A"), ("g2", "B"), ("g3", "C")]
        ),
        "GO": Mapping.build(
            "S", "GO", [("g1", "G1"), ("g2", "G1"), ("g2", "G2")]
        ),
        "OMIM": Mapping.build("S", "OMIM", [("g1", "O1")]),
    }


def reference_generate_view(mappings, source, objects, specs, combine):
    """Brute-force implementation of the Figure 5 pseudo-code.

    Returns the view's rows in order: objects sorted, each object's
    partners sorted and distinct, as the HTTP body lists them.
    """
    objects = sorted(set(objects))
    rows = [(obj,) for obj in objects]
    for spec in specs:
        mapping = mappings[spec.name]
        pairs = [
            (a.source_accession, a.target_accession)
            for a in mapping
            if a.source_accession in objects
            and (spec.restrict is None or a.target_accession in spec.restrict)
        ]
        if spec.negated:
            involved = {s for s, __ in pairs}
            uninvolved = [obj for obj in objects if obj not in involved]
            negated_pairs = [
                (a.source_accession, a.target_accession)
                for a in mapping
                if a.source_accession in uninvolved
            ]
            by_source = {}
            for s, t in negated_pairs:
                by_source.setdefault(s, []).append(t)
            for obj in uninvolved:
                by_source.setdefault(obj, [None])
            pairs_dict = by_source
        else:
            pairs_dict = {}
            for s, t in pairs:
                pairs_dict.setdefault(s, []).append(t)
        new_rows = []
        for row in rows:
            partners = sorted(
                set(pairs_dict.get(row[0], [])),
                key=lambda v: (v is None, v or ""),
            )
            if partners:
                new_rows.extend(row + (p,) for p in partners)
            elif combine == CombineMethod.OR:
                new_rows.append(row + (None,))
        rows = new_rows
    return rows


class TestBasicJoins:
    def test_and_keeps_fully_annotated_objects(self, world):
        view = generate_view(
            make_resolver(world), "S", ["g1", "g2", "g3", "g4"],
            [TargetSpec.of("Hugo"), TargetSpec.of("OMIM")], "AND",
        )
        assert set(view.rows) == {("g1", "A", "O1")}

    def test_or_preserves_unannotated_objects(self, world):
        view = generate_view(
            make_resolver(world), "S", ["g1", "g4"],
            [TargetSpec.of("Hugo")], "OR",
        )
        assert set(view.rows) == {("g1", "A"), ("g4", None)}

    def test_multi_valued_targets_fan_out(self, world):
        view = generate_view(
            make_resolver(world), "S", ["g2"], [TargetSpec.of("GO")], "AND"
        )
        assert set(view.rows) == {("g2", "G1"), ("g2", "G2")}

    def test_columns_are_source_then_targets(self, world):
        view = generate_view(
            make_resolver(world), "S", ["g1"],
            [TargetSpec.of("Hugo"), TargetSpec.of("GO")], "AND",
        )
        assert view.columns == ("S", "Hugo", "GO")

    def test_no_targets_returns_object_list(self, world):
        view = generate_view(make_resolver(world), "S", ["g2", "g1"], [], "AND")
        assert view.rows == (("g1",), ("g2",))

    def test_duplicate_targets_rejected(self, world):
        with pytest.raises(ViewGenerationError, match="duplicate"):
            generate_view(
                make_resolver(world), "S", ["g1"],
                [TargetSpec.of("Hugo"), TargetSpec.of("Hugo")], "AND",
            )

    def test_source_objects_deduplicated(self, world):
        view = generate_view(
            make_resolver(world), "S", ["g1", "g1"], [TargetSpec.of("Hugo")],
            "AND",
        )
        assert len(view) == 1


class TestRestriction:
    def test_target_restriction_filters_range(self, world):
        view = generate_view(
            make_resolver(world), "S", ["g1", "g2"],
            [TargetSpec.of("GO", restrict={"G2"})], "AND",
        )
        assert set(view.rows) == {("g2", "G2")}

    def test_restriction_with_or_keeps_others_as_null(self, world):
        view = generate_view(
            make_resolver(world), "S", ["g1", "g2"],
            [TargetSpec.of("GO", restrict={"G2"})], "OR",
        )
        assert set(view.rows) == {("g1", None), ("g2", "G2")}


class TestNegation:
    def test_negated_target_keeps_objects_without_annotation(self, world):
        view = generate_view(
            make_resolver(world), "S", ["g1", "g2", "g3"],
            [TargetSpec.of("OMIM", negated=True)], "AND",
        )
        # g1 has OMIM O1 and is excluded; g2/g3 have no OMIM at all and
        # are preserved with NULL (right outer join with si').
        assert set(view.rows) == {("g2", None), ("g3", None)}

    def test_negation_of_restricted_values_shows_other_annotations(self, world):
        # Negating GO IN (G2): g2 is excluded (has G2); g1 lacks G2 and its
        # other GO annotation (G1) is shown; g3 has no GO at all -> NULL.
        view = generate_view(
            make_resolver(world), "S", ["g1", "g2", "g3"],
            [TargetSpec.of("GO", restrict={"G2"}, negated=True)], "AND",
        )
        assert set(view.rows) == {("g1", "G1"), ("g3", None)}

    def test_paper_query_pattern(self, world):
        # "genes with a GO function but not associated with OMIM diseases"
        view = generate_view(
            make_resolver(world), "S", ["g1", "g2", "g3", "g4"],
            [TargetSpec.of("GO"), TargetSpec.of("OMIM", negated=True)], "AND",
        )
        sources = {row[0] for row in view.rows}
        assert sources == {"g2"}


class TestAgainstReference:
    @pytest.mark.parametrize("combine", ["AND", "OR"])
    @pytest.mark.parametrize(
        "spec_list",
        [
            [TargetSpec.of("Hugo")],
            [TargetSpec.of("Hugo"), TargetSpec.of("GO")],
            [TargetSpec.of("GO", restrict={"G1"})],
            [TargetSpec.of("OMIM", negated=True)],
            [TargetSpec.of("Hugo"), TargetSpec.of("OMIM", negated=True)],
            [
                TargetSpec.of("Hugo"),
                TargetSpec.of("GO", restrict={"G2"}, negated=True),
                TargetSpec.of("OMIM"),
            ],
        ],
    )
    def test_matches_brute_force_reference(self, world, combine, spec_list):
        objects = ["g1", "g2", "g3", "g4"]
        view = generate_view(
            make_resolver(world), "S", objects, spec_list, combine
        )
        expected = reference_generate_view(
            world, "S", objects, spec_list, CombineMethod.parse(combine)
        )
        assert list(view.rows) == expected


class TestDeadline:
    def test_pass_over_the_upload_checks_the_deadline(self):
        """A budget spent while the last mapping resolves still aborts the
        view: the pass over the accessions checks the deadline too."""
        clock = FakeClock()
        objects = [f"g{i:05d}" for i in range(DEADLINE_STRIDE + 1)]
        mappings = {
            "Hugo": Mapping.build("S", "Hugo", [(g, "H") for g in objects]),
            "GO": Mapping.build("S", "GO", [(g, "G") for g in objects]),
        }

        def resolver(source, spec):
            if spec.name == "GO":
                clock.advance(1.0)
            return mappings[spec.name]

        specs = [TargetSpec.of("Hugo"), TargetSpec.of("GO")]
        with deadline_scope(0.5, clock=clock):
            with pytest.raises(DeadlineExceeded):
                generate_view(resolver, "S", objects, specs, "AND")
        # Without the deadline the same view is complete.
        view = generate_view(resolver, "S", objects, specs, "AND")
        assert len(view) == len(objects)


def shared_world(seed: int, objects: int, terms: int, pairs: int) -> dict:
    """Hugo and GO mappings over genes ``g0``.. ``g{objects-1}``.

    The associations are in no particular order, as a database may load
    them, and GO is stored in reverse and inverted, as ``Map`` returns a
    reverse-stored mapping.
    """
    rng = random.Random(seed)
    genes = [f"g{i}" for i in range(objects)]

    def shuffled(source: str, target: str, pairs: set) -> Mapping:
        associations = [Association(*pair) for pair in sorted(pairs)]
        rng.shuffle(associations)
        return Mapping(source, target, tuple(associations))

    hugo = shuffled(
        "S",
        "Hugo",
        {(gene, f"H{rng.randrange(4)}") for gene in genes[::2] for _ in range(2)},
    )
    go_pairs = {
        (f"T{rng.randrange(terms)}", rng.choice(genes)) for _ in range(pairs)
    }
    return {"Hugo": hugo, "GO": shuffled("GO", "S", go_pairs).invert()}


def random_query(rng: random.Random, objects: int, terms: int) -> tuple:
    """An upload (with a few unmapped genes), its target specs with
    restrict sets and negation, and AND or OR."""
    upload = {f"g{rng.randrange(objects + 3)}" for _ in range(rng.randint(1, 40))}
    universes = {
        "Hugo": [f"H{i}" for i in range(4)],
        "GO": [f"T{i}" for i in range(terms)],
    }
    specs = [
        TargetSpec.of(
            name,
            restrict=(
                None
                if rng.random() < 0.5
                else rng.sample(universes[name], rng.randint(0, 3))
            ),
            negated=rng.random() < 0.3,
        )
        for name in rng.sample(sorted(universes), rng.randint(1, 2))
    ]
    return upload, specs, rng.choice([CombineMethod.AND, CombineMethod.OR])


#: Built once: every example below reads the same Mapping instances.
SHARED_WORLD = shared_world(seed=3, objects=30, terms=8, pairs=70)


class TestSharedPartnerIndex:
    """A cached Mapping serves every view: its partner index is built on
    first use and read, unchanged, by each view after it."""

    @given(st.lists(st.integers(0, 2**32), min_size=2, max_size=6))
    @settings(max_examples=60, deadline=None)
    def test_one_mapping_serves_views_in_a_row(self, seeds):
        world = SHARED_WORLD
        indexes = {name: world[name].partner_index() for name in world}
        for seed in seeds:
            upload, specs, combine = random_query(
                random.Random(seed), objects=30, terms=8
            )
            view = generate_view(make_resolver(world), "S", upload, specs, combine)
            expected = reference_generate_view(world, "S", upload, specs, combine)
            assert list(view.rows) == expected
        for name, index in indexes.items():
            assert world[name].partner_index() is index

    def test_concurrent_first_use(self):
        """8 threads, more than the cores, build views at once over fresh
        mappings; a tiny switch interval interleaves the index builds."""
        threads_n, rounds, timeout_s = 8, 4, 60.0
        shape = {"objects": 400, "terms": 60}
        rng = random.Random(11)
        queries = [random_query(rng, **shape) for _ in range(threads_n * 3)]
        reference_world = shared_world(seed=5, pairs=3000, **shape)
        expected = [
            reference_generate_view(reference_world, "S", *query)
            for query in queries
        ]
        failures: list[str] = []
        threads: list[threading.Thread] = []

        def build(world: dict, barrier: threading.Barrier, first: int) -> None:
            try:
                barrier.wait(timeout=timeout_s)
                for k in range(first, len(queries), threads_n):
                    view = generate_view(make_resolver(world), "S", *queries[k])
                    if list(view.rows) != expected[k]:
                        failures.append(f"query {k}: {view.rows!r}")
            except Exception as exc:
                failures.append(repr(exc))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(rounds):
                world = shared_world(seed=5, pairs=3000, **shape)
                barrier = threading.Barrier(threads_n)
                batch = [
                    threading.Thread(
                        target=build, args=(world, barrier, k), daemon=True
                    )
                    for k in range(threads_n)
                ]
                threads.extend(batch)
                for thread in batch:
                    thread.start()
                for thread in batch:
                    thread.join(timeout=timeout_s)
        finally:
            sys.setswitchinterval(interval)
        assert not [thread for thread in threads if thread.is_alive()]
        assert not failures
