"""The ``GenMapper`` facade — the system's public API.

One object wires together the pieces the paper describes (Figure 2): the
central GAM database, the Parse/Import pipeline, the high-level operators,
derived-relationship materialization and the source-graph path finder.

Typical use::

    gm = GenMapper()                      # in-memory database
    gm.integrate_file("locuslink.txt", source_name="LocusLink")
    gm.integrate_file("go.obo", source_name="GO")
    view = gm.generate_view(
        "LocusLink",
        targets=["Hugo", "GO", "Location"],
        combine="OR",
    )
    print(view.render())
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from pathlib import Path

import networkx as nx

from repro.cache import (
    DEFAULT_MAX_BYTES,
    MappingCache,
    cache_enabled_by_env,
    cache_size_from_env,
)
from repro.derived.composed import derive_composed, materialize_mapping
from repro.derived.refresh import (
    RefreshReport,
    refresh_composed,
    refresh_subsumed,
)
from repro.derived.subsumed import derive_subsumed, load_taxonomy, subsumed_mapping
from repro.eav.store import EavDataset
from repro.gam.database import GamDatabase
from repro.gam.enums import CombineMethod, RelType
from repro.gam.errors import UnknownMappingError
from repro.gam.integrity import IntegrityReport, check
from repro.gam.records import Association, GamObject, Source
from repro.gam.repository import GamRepository
from repro.importer.importer import ImportReport
from repro.importer.pipeline import IntegrationPipeline
from repro.obs import annotate_event, event_scope
from repro.operators.compose import (
    EvidenceCombiner,
    combiner_name,
    compose,
    product_evidence,
)
from repro.operators.generate_view import TargetSpec, generate_view
from repro.operators.mapping import Mapping
from repro.operators.simple import map_
from repro.operators.views import AnnotationView
from repro.parsers.base import SourceParser
from repro.pathfinder.graph import build_source_graph, connectivity_summary
from repro.pathfinder.saved import PathRegistry
from repro.pathfinder.search import (
    MappingPath,
    k_shortest_paths,
    shortest_path,
    shortest_path_via,
    validate_path,
)
from repro.reliability.breaker import CircuitBreaker, mark_degraded
from repro.reliability.retry import is_retryable
from repro.taxonomy.dag import Taxonomy

#: Accepted target argument forms for :meth:`GenMapper.generate_view`.
TargetLike = "str | TargetSpec | tuple"


class GenMapper:
    """Flexible integration of annotation data over one GAM database.

    Parameters
    ----------
    path, pool_size:
        Database location and connection-pool bound (``docs/storage.md``).
    cache_size:
        Maximum entries in the mapping cache; ``0`` disables caching and
        ``None`` uses ``REPRO_CACHE_SIZE`` or the default.  See
        ``docs/performance.md``.
    enable_cache:
        Force the cache on/off; ``None`` (default) honours the
        ``REPRO_CACHE`` environment variable (on unless set to ``off``).
    breaker:
        Circuit breaker guarding the query-serving paths (see
        ``docs/reliability.md``); ``None`` (default) installs one with
        stock thresholds.  Set ``gm.breaker = None`` to disable.
    """

    def __init__(
        self,
        path: str | Path = ":memory:",
        pool_size: int | None = None,
        cache_size: int | None = None,
        enable_cache: bool | None = None,
        breaker: CircuitBreaker | None = None,
    ) -> None:
        self.db = GamDatabase(path, pool_size=pool_size)
        self.repository = GamRepository(self.db)
        self.pipeline = IntegrationPipeline(self.repository)
        self.paths = PathRegistry(self.db)
        self._graph: nx.MultiGraph | None = None
        self.breaker: CircuitBreaker | None = (
            breaker if breaker is not None else CircuitBreaker(name="repository")
        )
        if enable_cache is None:
            enable_cache = cache_enabled_by_env(True)
        if cache_size is None:
            cache_size = cache_size_from_env()
        if enable_cache and cache_size > 0:
            self.cache: MappingCache | None = MappingCache(
                self.db, max_entries=cache_size, max_bytes=DEFAULT_MAX_BYTES
            )
        else:
            self.cache = None

    def close(self) -> None:
        """Close the underlying database connection."""
        self.db.close()

    def __enter__(self) -> "GenMapper":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- data import (Figure 2, left) ------------------------------------------

    def integrate_file(
        self,
        path: str | Path,
        source_name: str | None = None,
        release: str | None = None,
        parser: SourceParser | None = None,
    ) -> ImportReport:
        """Parse and import one native source file."""
        report = self.pipeline.integrate_file(
            path, source_name=source_name, release=release, parser=parser
        )
        self._invalidate_graph()
        return report

    def integrate_text(
        self,
        text: str,
        source_name: str,
        release: str | None = None,
        parser: SourceParser | None = None,
    ) -> ImportReport:
        """Parse and import source data given as a string."""
        if parser is None:
            from repro.parsers.base import get_parser

            parser = get_parser(source_name)
        dataset = parser.parse_text(text, release=release)
        report = self.pipeline.integrate_dataset(dataset, parser=parser)
        self._invalidate_graph()
        return report

    def integrate_dataset(
        self, dataset: EavDataset, parser: SourceParser | None = None
    ) -> ImportReport:
        """Import an already-parsed EAV dataset."""
        report = self.pipeline.integrate_dataset(dataset, parser=parser)
        self._invalidate_graph()
        return report

    def integrate_directory(
        self,
        directory: str | Path,
        workers: int | None = None,
        resume: bool | None = None,
    ) -> list[ImportReport]:
        """Import every source listed in a directory's manifest.

        ``workers`` > 1 parses the files after the first in that many
        worker processes while one writer imports every file in manifest
        order, so the result equals a serial import; ``resume=True``
        skips sources already checkpointed from an earlier (possibly
        killed) run (see
        :meth:`repro.importer.pipeline.IntegrationPipeline.integrate_directory`).
        """
        reports = self.pipeline.integrate_directory(
            directory, workers=workers, resume=resume
        )
        self._invalidate_graph()
        return reports

    # -- sources and objects -----------------------------------------------------

    def sources(self) -> list[Source]:
        """All integrated sources."""
        return self.repository.list_sources()

    def source(self, name: str) -> Source:
        """One source by name; raises if unknown."""
        return self.repository.get_source(name)

    def objects(self, source: str, limit: int | None = None) -> list[GamObject]:
        """Objects of a source."""
        return self.repository.objects_of(source, limit=limit)

    def accessions(self, source: str) -> set[str]:
        """Accession set of a source."""
        return self.repository.accessions_of(source)

    def object_info(
        self, source: str, accession: str
    ) -> list[tuple[str, RelType, Association]]:
        """Everything known about one object (Figure 1 / Figure 6c)."""
        return self.repository.annotations_of_object(source, accession)

    # -- resilience (docs/reliability.md) ----------------------------------------

    def _resilient(self, fetch, key=None):
        """Run one query-serving fetch under the circuit breaker.

        When the circuit is open, or the fetch fails with a transient
        storage error, a resident (possibly stale) cache entry for
        ``key`` is served instead and the response is flagged degraded
        (:func:`repro.reliability.breaker.mark_degraded`).  Without a
        fallback the breaker's :class:`CircuitOpenError` (open circuit)
        or the storage error itself propagates.
        """
        breaker = self.breaker
        if breaker is None:
            return fetch()

        def stale_or_none(reason: str):
            if key is None or self.cache is None:
                return None
            value, found = self.cache.get_stale(key)
            if not found:
                return None
            mark_degraded(reason)
            return value

        if not breaker.allow():
            served = stale_or_none(f"circuit open: stale {key[0] if key else '?'}")
            if served is not None:
                return served
            raise breaker.open_error()
        try:
            value = fetch()
        except Exception as exc:
            if is_retryable(exc):
                breaker.record_failure()
                served = stale_or_none(f"storage failure: stale {key[0] if key else '?'}")
                if served is not None:
                    return served
            raise
        breaker.record_success()
        return value

    # -- operators (Section 4.2) ---------------------------------------------------

    def map(
        self,
        source: str,
        target: str,
        via: Sequence[str] | None = None,
        combiner: EvidenceCombiner = product_evidence,
    ) -> Mapping:
        """``Map`` with automatic ``Compose`` fallback.

        Tries the stored mapping first; when none exists, finds the
        shortest mapping path in the source graph (optionally through the
        explicit ``via`` intermediates) and composes along it.  Results
        are served from the generation-aware mapping cache when one is
        enabled (``docs/performance.md``); any write to the database
        invalidates them transparently.  ``combiner`` must be
        :func:`product_evidence` or :func:`min_evidence`.
        """
        label = combiner_name(combiner)
        if self.cache is None:
            return self._resilient(
                lambda: self._map_uncached(source, target, via, combiner)
            )
        if via:
            key = MappingCache.composed_key([source, *via, target], label)
        else:
            key = MappingCache.mapping_key(source, target, f"auto#{label}")
        return self._resilient(
            lambda: self.cache.get_or_load(
                key, lambda: self._map_uncached(source, target, via, combiner)
            ),
            key,
        )

    def _map_uncached(
        self,
        source: str,
        target: str,
        via: Sequence[str] | None,
        combiner: EvidenceCombiner,
    ) -> Mapping:
        if via:
            return compose(self.repository, [source, *via, target], combiner)
        try:
            return map_(self.repository, source, target)
        except UnknownMappingError:
            path = self.find_path(source, target)
            return compose(self.repository, path, combiner)

    def compose(
        self,
        path: Sequence[str],
        combiner: EvidenceCombiner = product_evidence,
        materialize: bool = False,
    ) -> Mapping:
        """``Compose`` along an explicit mapping path.

        Non-materializing composes are cached by path and combiner;
        ``materialize=True`` always executes (it must write) and its write
        invalidates cached results for the path's endpoint sources (scoped
        by the generation vector).  See
        :func:`repro.derived.composed.derive_composed`.
        """
        if self.cache is None or materialize:
            mapping = derive_composed(
                self.repository, path, combiner, materialize=materialize
            )
            if materialize:
                self._invalidate_graph()
            return mapping
        key = MappingCache.composed_key(path, combiner_name(combiner))
        return self._resilient(
            lambda: self.cache.get_or_load(
                key,
                lambda: derive_composed(
                    self.repository, path, combiner, materialize=False
                ),
            ),
            key,
        )

    def generate_view(
        self,
        source: str,
        targets: Sequence[TargetLike],
        source_objects: Iterable[str] | None = None,
        combine: CombineMethod | str = CombineMethod.OR,
        engine: str = "memory",
    ) -> AnnotationView:
        """``GenerateView`` (Figure 5) with automatic mapping resolution.

        ``targets`` entries may be target names, ``(name, restrict_set)``
        tuples, ``(name, restrict_set, negated)`` tuples or full
        :class:`TargetSpec` objects.  ``source_objects=None`` covers the
        entire source, matching the interactive interface's default.

        ``engine`` picks the execution strategy: ``"memory"`` (default)
        probes the loaded mappings per uploaded accession; ``"sql"``
        compiles the whole view — including Compose paths and negation —
        into one SQL statement (see :mod:`repro.operators.sql_engine`),
        the reference the benchmark checks served views against.  Results
        are identical.

        Views are not cached: the in-memory engine joins each request's
        upload over the (cached) mappings.  Each mapping is fetched under
        the circuit breaker on its own, so in degraded mode a view is
        built from stale cached mappings.
        """
        specs = [self._as_spec(target) for target in targets]
        if engine == "sql":
            from repro.operators.sql_engine import SqlViewEngine

            return self._resilient(
                lambda: SqlViewEngine(self.repository).generate_view(
                    source, source_objects, specs, combine
                )
            )
        if engine != "memory":
            raise ValueError(f"unknown view engine {engine!r}")
        if source_objects is None:
            source_objects = self._resilient(
                lambda: self.repository.accessions_of(source)
            )

        def resolver(view_source: str, spec: TargetSpec) -> Mapping:
            return self.map(view_source, spec.name, via=spec.via or None)

        return generate_view(resolver, source, source_objects, specs, combine)

    @staticmethod
    def _as_spec(target: TargetLike) -> TargetSpec:
        if isinstance(target, TargetSpec):
            return target
        if isinstance(target, str):
            return TargetSpec.of(target)
        if isinstance(target, tuple):
            name = target[0]
            restrict = target[1] if len(target) > 1 else None
            negated = bool(target[2]) if len(target) > 2 else False
            return TargetSpec.of(name, restrict=restrict, negated=negated)
        raise TypeError(f"not a view target: {target!r}")

    # -- derived relationships -------------------------------------------------------

    def derive_subsumed(self, source: str) -> int:
        """Materialize the Subsumed mapping of a taxonomy source."""
        with event_scope("derivation", operation="derive_subsumed", source=source):
            __, inserted = derive_subsumed(self.repository, source)
            annotate_event(rows=inserted)
        self._invalidate_graph()
        return inserted

    def refresh_composed(
        self,
        path: Sequence[str],
        combiner: EvidenceCombiner = product_evidence,
        watermark: "int | dict[str, int]" = 0,
    ) -> RefreshReport:
        """Incrementally maintain a materialized Composed mapping.

        Applies only the base rows imported since ``watermark`` (a max
        ``obj_rel_id``, or the watermarks dict the import journal records
        per source file) instead of re-deriving the whole mapping — see
        :mod:`repro.derived.refresh`.
        """
        with event_scope(
            "derivation",
            operation="refresh_composed",
            path=" -> ".join(str(step) for step in path),
        ):
            report = refresh_composed(
                self.repository, path, combiner, watermark=watermark
            )
            annotate_event(rows=report.changed, delta_edges=report.delta_edges)
        self._invalidate_graph()
        return report

    def refresh_subsumed(
        self,
        source: str,
        watermark: "int | dict[str, int]" = 0,
    ) -> RefreshReport:
        """Incrementally maintain a materialized Subsumed mapping from
        the IS_A edges imported since ``watermark``."""
        with event_scope(
            "derivation", operation="refresh_subsumed", source=source
        ):
            report = refresh_subsumed(self.repository, source, watermark=watermark)
            annotate_event(rows=report.changed, delta_edges=report.delta_edges)
        self._invalidate_graph()
        return report

    def subsumed(self, source: str) -> Mapping:
        """The term → subsumed-term mapping, computed on the fly.

        Built over the cached taxonomy DAG and itself cached: the
        transitive closure is expensive on deep GO chains, and the result
        only changes when the IS_A structure does (generation bump).
        """
        if self.cache is None:
            return self._resilient(
                lambda: subsumed_mapping(self.repository, source)
            )
        src = self.repository.get_source(source)

        def load() -> Mapping:
            return Mapping.build(
                src.name,
                src.name,
                self.taxonomy(src.name).subsumed_pairs(),
                rel_type=RelType.SUBSUMED,
            )

        key = MappingCache.mapping_key(src.name, src.name, "subsumed")
        return self._resilient(
            lambda: self.cache.get_or_load(key, load), key
        )

    def taxonomy(self, source: str) -> Taxonomy:
        """The IS_A taxonomy of a Network source (cached when enabled)."""
        if self.cache is None:
            return self._resilient(
                lambda: load_taxonomy(self.repository, source)
            )
        src = self.repository.get_source(source)
        key = MappingCache.taxonomy_key(src.name)
        return self._resilient(
            lambda: self.cache.get_or_load(
                key, lambda: load_taxonomy(self.repository, src)
            ),
            key,
        )

    def materialize(self, mapping: Mapping) -> int:
        """Store an in-memory mapping as a Composed relationship."""
        with event_scope(
            "derivation",
            operation="materialize",
            source=mapping.source,
            target=mapping.target,
        ):
            __, inserted = materialize_mapping(self.repository, mapping)
            annotate_event(rows=inserted)
        self._invalidate_graph()
        return inserted

    # -- source graph / paths (Section 5.1) ----------------------------------------------

    def source_graph(self) -> nx.MultiGraph:
        """The graph of all sources and mappings (cached until changed)."""
        if self._graph is None:
            self._graph = build_source_graph(self.repository)
        return self._graph

    def _invalidate_graph(self) -> None:
        self._graph = None

    def find_path(
        self, source: str, target: str, via: str | None = None
    ) -> MappingPath:
        """Shortest mapping path, optionally through an intermediate."""
        graph = self.source_graph()
        if via is None:
            return shortest_path(graph, source, target)
        return shortest_path_via(graph, source, target, via)

    def find_paths(self, source: str, target: str, k: int = 5) -> list[MappingPath]:
        """Up to ``k`` alternative mapping paths, cheapest first."""
        return k_shortest_paths(self.source_graph(), source, target, k)

    def save_path(self, name: str, path: Sequence[str]) -> None:
        """Validate and persist a manually built path."""
        validated = validate_path(self.source_graph(), path)
        self.paths.save(name, validated)

    def load_path(self, name: str) -> MappingPath:
        """Load a previously saved path."""
        return self.paths.load(name)

    # -- curation / maintenance ------------------------------------------------------------

    def match(
        self,
        source: str,
        target: str,
        threshold: float = 0.8,
        top_k: int = 1,
        materialize: bool = False,
    ) -> Mapping:
        """Compute a Similarity mapping by attribute (name) matching.

        Section 3's "attribute matching algorithm", exposed on the facade.
        """
        from repro.derived.composed import materialize_mapping
        from repro.operators.matching import MatchConfig, match_attributes

        config = MatchConfig(threshold=threshold, top_k=top_k)
        mapping = match_attributes(self.repository, source, target, config)
        if materialize and not mapping.is_empty():
            materialize_mapping(self.repository, mapping, RelType.SIMILARITY)
            self._invalidate_graph()
        return mapping

    def diff_release(self, dataset: EavDataset):
        """Diff a parsed release against the store (curator review)."""
        from repro.importer.diff import diff_against_store

        return diff_against_store(self.repository, dataset)

    def delete_source(self, source: str, prune: bool = False):
        """Cascade-remove a source; optionally prune stranded objects."""
        from repro.gam.maintenance import delete_source, prune_orphan_objects

        report = delete_source(self.repository, source)
        if prune:
            prune_orphan_objects(self.repository)
        self._invalidate_graph()
        return report

    def coverage(self, source: str):
        """Annotation coverage of one source's outgoing mappings."""
        from repro.analysis.coverage import source_coverage

        return source_coverage(self.repository, source)

    def statistics(self):
        """The detailed deployment report (Section 5 census)."""
        from repro.gam.statistics import collect_statistics

        return collect_statistics(self.repository)

    # -- statistics / health --------------------------------------------------------------

    def stats(self) -> dict[str, float]:
        """Deployment statistics in the shape of paper Section 5."""
        counts = self.db.counts()
        graph_stats = connectivity_summary(self.source_graph())
        return {
            "sources": counts["source"],
            "objects": counts["object"],
            "mappings": counts["source_rel"],
            "associations": counts["object_rel"],
            **{f"graph_{key}": value for key, value in graph_stats.items()},
        }

    def check_integrity(self) -> IntegrityReport:
        """Run the cross-table integrity checks."""
        return check(self.db)

    # -- cache -----------------------------------------------------------------

    def cache_stats(self) -> dict | None:
        """The mapping cache's stats block, or None when caching is off."""
        return None if self.cache is None else self.cache.stats()

    def clear_cache(self) -> int:
        """Drop every cached value (normally unnecessary: writes bump the
        data generation and invalidate entries implicitly)."""
        return 0 if self.cache is None else self.cache.invalidate_all()
