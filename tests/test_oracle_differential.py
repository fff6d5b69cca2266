"""Differential tests: the SQL Compose and derivations against the Python
oracle (``tests/oracle.py``) over small random stores.

Each example builds a store of four Gene sources on a chain
``A - B - C - D`` (``B - C`` stored reversed, so paths cross a hop
against its stored direction) and an IS_A taxonomy ``T``, from a base
layer and an additive delta layer of random associations and edges.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.derived.composed import derive_composed
from repro.derived.refresh import refresh_composed, refresh_subsumed
from repro.derived.subsumed import derive_subsumed
from repro.gam.database import GamDatabase
from repro.gam.dump import canonical_snapshot
from repro.gam.enums import RelType
from repro.gam.errors import GamIntegrityError
from repro.gam.repository import GamRepository
from repro.operators.compose import compose, min_evidence, product_evidence
from tests import oracle

#: The stored mappings, as (source1, source2) of each relationship.
HOPS = (("A", "B"), ("C", "B"), ("C", "D"))
PATHS = (("A", "B", "C"), ("A", "B", "C", "D"), ("D", "C", "B", "A"))
COMBINERS = st.sampled_from([product_evidence, min_evidence])

index = st.integers(min_value=0, max_value=5)
hop_rows = st.lists(
    st.tuples(index, index, st.floats(min_value=0.0, max_value=1.0)),
    max_size=10,
)
#: IS_A edges child -> parent with child > parent: acyclic by construction.
is_a_edges = st.lists(
    st.tuples(index, index)
    .map(lambda edge: (max(edge), min(edge)))
    .filter(lambda edge: edge[0] != edge[1]),
    max_size=8,
)
#: One layer of a store: rows for each hop in HOPS, then IS_A edges.
layers = st.tuples(st.tuples(hop_rows, hop_rows, hop_rows), is_a_edges)


def _store(db: GamDatabase) -> GamRepository:
    """Empty sources and relationships of the test world."""
    repo = GamRepository(db)
    for name in "ABCD":
        repo.add_source(name, "Gene")
    repo.add_source("T", "Other", "Network")
    for source1, source2 in HOPS:
        repo.ensure_source_rel(source1, source2, RelType.FACT)
    repo.ensure_source_rel("T", "T", RelType.IS_A)
    return repo


def _add(repo: GamRepository, layer) -> None:
    """Store one layer's objects, associations and IS_A edges."""
    all_rows, edges = layer
    for (source1, source2), rows in zip(HOPS, all_rows):
        pairs = [
            (f"{source1.lower()}{i}", f"{source2.lower()}{j}", evidence)
            for i, j, evidence in rows
        ]
        repo.add_objects(source1, [(acc1,) for acc1, __, __ in pairs])
        repo.add_objects(source2, [(acc2,) for __, acc2, __ in pairs])
        rel = repo.find_source_rels(source1, source2, RelType.FACT)[0]
        repo.add_associations(rel, pairs)
    repo.add_objects("T", [(f"t{term}",) for edge in edges for term in edge])
    is_a = repo.find_source_rels("T", "T", RelType.IS_A)[0]
    repo.add_associations(
        is_a, [(f"t{child}", f"t{parent}", 1.0) for child, parent in edges]
    )


def _watermark(db: GamDatabase) -> int:
    return db.execute(
        "SELECT coalesce(max(obj_rel_id), 0) FROM object_rel"
    ).fetchone()[0]


class TestComposeAgainstFold:
    @given(layers, st.sampled_from(PATHS), COMBINERS)
    @settings(max_examples=60, deadline=None)
    def test_pairs_and_evidence_match(self, layer, path, combiner):
        with GamDatabase() as db:
            repo = _store(db)
            _add(repo, layer)
            assert compose(repo, path, combiner) == oracle.compose(
                repo, path, combiner
            )


class TestDerivationsAgainstOracle:
    @given(layers, st.sampled_from(PATHS), COMBINERS)
    @settings(max_examples=40, deadline=None)
    def test_materializations_match(self, layer, path, combiner):
        with GamDatabase() as sql_db, GamDatabase() as oracle_db:
            sql, expected = _store(sql_db), _store(oracle_db)
            _add(sql, layer)
            _add(expected, layer)
            derive_composed(sql, path, combiner)
            derive_subsumed(sql, "T")
            oracle.derive_composed(expected, path, combiner)
            oracle.derive_subsumed(expected, "T")
            assert canonical_snapshot(sql) == canonical_snapshot(expected)


class TestRefreshAgainstOracle:
    @given(layers, layers, st.sampled_from(PATHS), COMBINERS)
    @settings(max_examples=40, deadline=None)
    def test_refresh_equals_full_derivation(self, base, delta, path, combiner):
        with GamDatabase() as sql_db, GamDatabase() as oracle_db:
            sql, expected = _store(sql_db), _store(oracle_db)
            _add(sql, base)
            derive_composed(sql, path, combiner)
            derive_subsumed(sql, "T")
            watermark = _watermark(sql_db)
            _add(sql, delta)
            composed = refresh_composed(sql, path, combiner, watermark=watermark)
            subsumed = refresh_subsumed(sql, "T", watermark=watermark)
            for layer in (base, delta):
                _add(expected, layer)
            oracle.derive_composed(expected, path, combiner)
            oracle.derive_subsumed(expected, "T")
            assert canonical_snapshot(sql) == canonical_snapshot(expected)
            assert composed.watermark == subsumed.watermark == watermark


class TestCyclesAgainstOracle:
    @given(is_a_edges.filter(bool), st.data())
    @settings(max_examples=30, deadline=None)
    def test_cycle_raises_and_leaves_no_rows(self, edges, data):
        """Reversing any stored edge closes a cycle: deriving raises and
        stores nothing, and a refresh over the closing edge rolls back to
        the closure it started from."""
        child, parent = data.draw(st.sampled_from(edges))
        closing = ((), (), ()), [(parent, child)]
        with GamDatabase() as db:
            repo = _store(db)
            _add(repo, (((), (), ()), edges))
            derive_subsumed(repo, "T")
            watermark = _watermark(db)
            _add(repo, closing)
            before = canonical_snapshot(repo)
            with pytest.raises(GamIntegrityError):
                refresh_subsumed(repo, "T", watermark=watermark)
            assert canonical_snapshot(repo) == before
            with pytest.raises(GamIntegrityError):
                oracle.refresh_subsumed(repo, "T", watermark=watermark)
            assert canonical_snapshot(repo) == before
        with GamDatabase() as db:
            repo = _store(db)
            _add(repo, (((), (), ()), [*edges, (parent, child)]))
            with pytest.raises(GamIntegrityError):
                derive_subsumed(repo, "T")
            with pytest.raises(GamIntegrityError):
                oracle.derive_subsumed(repo, "T")
            assert not repo.find_source_rels("T", "T", RelType.SUBSUMED)
