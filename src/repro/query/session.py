"""The interactive query session (paper Section 5.1, Figure 6).

``QuerySession`` walks the same steps as GenMapper's web interface:

1. select the relevant source from the imported sources,
2. upload the accessions of interest (file or list; none = whole source),
3. specify targets; GenMapper suggests mapping paths automatically via the
   source graph, or the user picks/saves a custom path,
4. choose the combine method and per-target negation,
5. run ``GenerateView``; inspect the view, retrieve object information,
   start a refinement query from selected result accessions, or export.
"""

from __future__ import annotations

from collections.abc import Iterable
from pathlib import Path

from repro.cache.mapping_cache import spec_digest
from repro.core.genmapper import GenMapper
from repro.gam.enums import CombineMethod, RelType
from repro.gam.errors import QuerySpecError, UnknownSourceError
from repro.gam.records import Association
from repro.obs import annotate_event, event_stage, get_registry, get_tracer
from repro.operators.views import AnnotationView
from repro.pathfinder.search import MappingPath
from repro.query.spec import QuerySpec, QueryTarget
from repro.reliability.deadline import deadline_scope


class QuerySession:
    """Stateful wrapper over one GenMapper for interactive-style querying."""

    def __init__(self, genmapper: GenMapper) -> None:
        self.genmapper = genmapper
        self._source: str | None = None
        self._accessions: frozenset[str] | None = None
        self._targets: list[QueryTarget] = []
        self._combine = CombineMethod.AND
        self._timeout: float | None = None
        self._last_view: AnnotationView | None = None

    # -- step 1: source selection ------------------------------------------

    def available_sources(self) -> list[str]:
        """Names of the currently imported sources."""
        return [source.name for source in self.genmapper.sources()]

    def select_source(self, name: str) -> "QuerySession":
        """Choose the source whose objects are to be annotated."""
        if name not in self.available_sources():
            raise UnknownSourceError(name)
        self._source = name
        self._accessions = None
        self._targets.clear()
        self._last_view = None
        return self

    # -- step 2: accession upload --------------------------------------------

    def upload_accessions(self, accessions: Iterable[str]) -> "QuerySession":
        """Provide the objects of interest (copy-and-paste equivalent)."""
        self._require_source()
        self._accessions = frozenset(str(a).strip() for a in accessions)
        return self

    def upload_accession_file(self, path: str | Path) -> "QuerySession":
        """Load accessions from a file, one per line."""
        with Path(path).open("r", encoding="utf-8") as handle:
            accessions = [line.strip() for line in handle if line.strip()]
        return self.upload_accessions(accessions)

    def use_entire_source(self) -> "QuerySession":
        """Consider all objects of the source (the upload-nothing default)."""
        self._require_source()
        self._accessions = None
        return self

    # -- step 3: targets and paths ----------------------------------------------

    def available_targets(self) -> list[str]:
        """Sources reachable from the selected source via mapping paths."""
        self._require_source()
        graph = self.genmapper.source_graph()
        if self._source not in graph:
            return []
        import networkx as nx

        component = nx.node_connected_component(graph, self._source)
        return sorted(name for name in component if name != self._source)

    def suggest_path(self, target: str) -> MappingPath:
        """The shortest mapping path GenMapper would use for a target."""
        self._require_source()
        return self.genmapper.find_path(self._source, target)

    def suggest_paths(self, target: str, k: int = 5) -> list[MappingPath]:
        """Alternative paths, for manual selection."""
        self._require_source()
        return self.genmapper.find_paths(self._source, target, k)

    def add_target(
        self,
        name: str,
        accessions: Iterable[str] | None = None,
        negated: bool = False,
        via: Iterable[str] = (),
        saved_path: str | None = None,
    ) -> "QuerySession":
        """Add a target, optionally restricted/negated/path-customized.

        ``saved_path`` loads a path persisted with
        :meth:`GenMapper.save_path`; its endpoints must match the current
        source and the target.
        """
        self._require_source()
        via = tuple(via)
        if saved_path is not None:
            path = self.genmapper.load_path(saved_path)
            if path[0] != self._source or path[-1] != name:
                raise QuerySpecError(
                    f"saved path {saved_path!r} connects {path[0]} to"
                    f" {path[-1]}, not {self._source} to {name}"
                )
            via = tuple(path[1:-1])
        self._targets.append(
            QueryTarget(
                name=name,
                accessions=None if accessions is None else frozenset(accessions),
                negated=negated,
                via=via,
            )
        )
        return self

    def clear_targets(self) -> "QuerySession":
        """Remove all configured targets."""
        self._targets.clear()
        return self

    # -- step 4: combination --------------------------------------------------------

    def combine_with(self, method: CombineMethod | str) -> "QuerySession":
        """AND or OR combination of the target mappings."""
        self._combine = CombineMethod.parse(method)
        return self

    # -- step 5: execution ------------------------------------------------------------

    def spec(self) -> QuerySpec:
        """The current state as an immutable query specification."""
        self._require_source()
        return QuerySpec(
            source=self._source,
            accessions=self._accessions,
            targets=tuple(self._targets),
            combine=self._combine,
        )

    def set_deadline(self, seconds: float | None) -> "QuerySession":
        """Bound every subsequent :meth:`run` to a time budget.

        A query that exceeds the budget aborts with
        :class:`repro.reliability.deadline.DeadlineExceeded` instead of
        holding the session (or a web worker) indefinitely.  ``None``
        removes the bound.
        """
        if seconds is not None and seconds <= 0:
            raise QuerySpecError("deadline must be positive (or None)")
        self._timeout = seconds
        return self

    def run(self, timeout: float | None = None) -> AnnotationView:
        """Apply ``GenerateView`` to the current specification.

        ``timeout`` bounds this one execution; without it the session's
        :meth:`set_deadline` budget (if any) applies.
        """
        spec = self.spec()
        view = run_query(
            self.genmapper,
            spec,
            timeout=timeout if timeout is not None else self._timeout,
        )
        self._last_view = view
        return view

    def last_view(self) -> AnnotationView:
        """The most recent result; raises if no query has run yet."""
        if self._last_view is None:
            raise QuerySpecError("no query has been run in this session")
        return self._last_view

    def cache_stats(self) -> dict | None:
        """The mapping cache's counters (hits, misses, evictions, ...),
        or ``None`` when the GenMapper runs without a cache."""
        return self.genmapper.cache_stats()

    # -- post-query actions ---------------------------------------------------------------

    def object_info(
        self, accession: str
    ) -> list[tuple[str, RelType, Association]]:
        """Names and associations of one result object (Figure 6c)."""
        self._require_source()
        return self.genmapper.object_info(self._source, accession)

    def refine(self, accessions: Iterable[str]) -> "QuerySession":
        """Start a new query over selected result accessions (Figure 6b:
        "the interesting accessions ... can be selected to start a new
        query")."""
        self._require_source()
        view = self.last_view()
        available = set(view.source_objects())
        chosen = frozenset(accessions)
        unknown = chosen - available
        if unknown:
            raise QuerySpecError(
                f"accessions not in the last result: {sorted(unknown)[:5]}"
            )
        self._accessions = chosen
        self._targets.clear()
        self._last_view = None
        return self

    def export(self, path: str | Path, fmt: str = "tsv") -> Path:
        """Save the last view for analysis in external tools."""
        from repro.export.writers import write_view

        return write_view(self.last_view(), path, fmt)

    def _require_source(self) -> None:
        if self._source is None:
            raise QuerySpecError("select a source first")


def spec_digest_of(spec: QuerySpec) -> str:
    """A stable short digest identifying one query's shape.

    Shared by the web layer (wide events, slow-log grouping, the
    ``ETag`` of cacheable responses) and anything else that needs to
    group repeated executions of the same logical query: two specs with
    the same source, accession set, target list and combine method
    digest identically regardless of where they were built.
    """
    return spec_digest(
        spec.source,
        tuple(sorted(spec.accessions)) if spec.accessions else None,
        tuple(
            (
                target.name,
                tuple(sorted(target.accessions)) if target.accessions else None,
                target.negated,
                target.via,
            )
            for target in spec.targets
        ),
        spec.combine.value,
    )


def run_query(
    genmapper: GenMapper,
    spec: QuerySpec,
    timeout: float | None = None,
) -> AnnotationView:
    """Execute a query specification on a GenMapper instance.

    ``timeout`` installs a deadline for the execution (kept when an
    outer scope already holds a tighter one); the storage layer and the
    long-running operators abort with ``DeadlineExceeded`` once it is
    spent.
    """
    with get_tracer().span(
        "query.run",
        source=spec.source,
        targets=len(spec.targets),
    ) as span:
        with deadline_scope(timeout), event_stage("query.run"):
            view = genmapper.generate_view(
                spec.source,
                targets=[target.to_target_spec() for target in spec.targets],
                source_objects=spec.accessions,
                combine=spec.combine,
            )
        span.tag(rows=len(view))
    annotate_event(rows=len(view), query_source=spec.source)
    get_registry().counter("queries_total").inc()
    return view
