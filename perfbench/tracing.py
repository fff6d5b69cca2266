"""Timing wrappers for the traced run, and the per-layer analysis.

:func:`install` wraps public functions of each layer of the program in
place (a module attribute, or a class attribute, plus every ``from ...
import`` alias of it in loaded ``repro`` modules).  Each call becomes a
span ``(id, parent, name, start, end, request id, thread, attrs)`` kept
in memory and written out by :meth:`Recorder.dump`.  The program's own
tracer and wide events are not read: only these spans and the public
``/metrics`` output feed :func:`read_layers` and :func:`write_layers`.

A layer's self time is its spans' duration minus the part of that
interval covered by their child spans (:func:`self_times`).
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
import time
import types
from collections import defaultdict
from pathlib import Path

# Span tuple fields.
SID, PARENT, NAME, START, END, RID, THREAD, ATTRS = range(8)


class Recorder:
    """In-memory span store; the parent is the caller's innermost open span."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._local = threading.local()
        self._ids = itertools.count(1)

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def set_request(self, rid: str | None) -> None:
        """Request id inherited by root spans opened later on this thread."""
        self._local.rid = rid

    def open(self, name: str, attrs: dict | None = None) -> list:
        stack = self._stack()
        parent = stack[-1] if stack else None
        frame = [
            next(self._ids),
            parent[SID] if parent else 0,
            name,
            time.perf_counter(),
            0.0,
            parent[RID] if parent else getattr(self._local, "rid", None),
            threading.get_ident(),
            attrs if attrs is not None else {},
        ]
        stack.append(frame)
        return frame

    def close(self, frame: list) -> None:
        frame[END] = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] is frame:
            stack.pop()
        elif frame in stack:
            stack.remove(frame)
        self.spans.append(tuple(frame))

    def add(self, name: str, start: float, duration: float, attrs: dict) -> None:
        """A span assembled from accumulated time (lazy cursor iteration)."""
        stack = self._stack()
        parent = stack[-1] if stack else None
        self.spans.append((
            next(self._ids), parent[SID] if parent else 0, name, start,
            start + duration,
            parent[RID] if parent else getattr(self._local, "rid", None),
            threading.get_ident(), attrs,
        ))

    def dump(self, path: str | Path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span))
                handle.write("\n")


def load(paths) -> list[tuple]:
    spans = []
    for path in paths:
        with open(path, encoding="utf-8") as handle:
            spans.extend(tuple(json.loads(line)) for line in handle)
    return spans


# -- wrapping -------------------------------------------------------------------


def _replace(original, wrapper) -> None:
    """Point every ``repro`` module global bound to ``original`` at ``wrapper``."""
    for name, module in list(sys.modules.items()):
        if not name.startswith("repro") or module is None:
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)


def _timed(rec: Recorder, name: str, fn, after=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        frame = rec.open(name)
        try:
            result = fn(*args, **kwargs)
            if after is not None:
                after(frame[ATTRS], result, args)
            return result
        finally:
            rec.close(frame)

    return wrapper


def _wrap_function(rec: Recorder, module, attr: str, name: str, after=None):
    original = getattr(module, attr)
    _replace(original, _timed(rec, name, original, after))


def _wrap_method(rec: Recorder, cls, attr: str, name: str, after=None):
    setattr(cls, attr, _timed(rec, name, cls.__dict__[attr], after))


class _Cursor:
    """A cursor whose fetches are spans counting the rows they return."""

    def __init__(self, rec: Recorder, cursor) -> None:
        self._rec = rec
        self._cursor = cursor

    def _fetch(self, method, *args):
        frame = self._rec.open("gam.fetch")
        try:
            rows = method(*args)
            frame[ATTRS]["rows"] = (
                len(rows) if isinstance(rows, list) else int(rows is not None)
            )
            return rows
        finally:
            self._rec.close(frame)

    def fetchone(self):
        return self._fetch(self._cursor.fetchone)

    def fetchall(self):
        return self._fetch(self._cursor.fetchall)

    def fetchmany(self, *args):
        return self._fetch(self._cursor.fetchmany, *args)

    def __iter__(self):
        # Row-at-a-time iteration is summed into one span, placed at the
        # first row, so per-row spans do not swamp the recorder.
        rec, started, busy, rows = self._rec, None, 0.0, 0
        iterator = iter(self._cursor)
        try:
            while True:
                tick = time.perf_counter()
                started = tick if started is None else started
                try:
                    row = next(iterator)
                except StopIteration:
                    busy += time.perf_counter() - tick
                    return
                busy += time.perf_counter() - tick
                rows += 1
                yield row
        finally:
            if started is not None:
                rec.add("gam.fetch", started, busy, {"rows": rows})

    def __getattr__(self, attr):
        return getattr(self._cursor, attr)


def install() -> Recorder:
    """Wrap the program's layer boundaries; returns the span recorder."""
    # import_module, not "import a.b as c": a package may re-export a
    # function under its submodule's name (repro.operators.generate_view).
    (
        core, composed, refresh, subsumed, database, importer, pipeline,
        middleware, compose, generate_view, mapping, simple, parsers, graph,
        search, language, session, __, app, streaming,
    ) = (importlib.import_module(f"repro.{name}") for name in (
        "core.genmapper", "derived.composed", "derived.refresh",
        "derived.subsumed", "gam.database", "importer.importer",
        "importer.pipeline", "obs.middleware", "operators.compose",
        "operators.generate_view", "operators.mapping", "operators.simple",
        "parsers.base", "pathfinder.graph", "pathfinder.search",
        "query.language", "query.session", "web.__main__", "web.app",
        "web.streaming",
    ))
    from repro.cache.mapping_cache import MappingCache

    rec = Recorder()

    # web + obs: the middleware call, the app it wraps (the edge), the
    # finalizer of streamed bodies, and body encoding.
    base_middleware = app.ObservabilityMiddleware

    class TracedMiddleware(base_middleware):
        def __init__(self, inner, *args, **kwargs):
            super().__init__(_timed(rec, "web.edge", inner), *args, **kwargs)

        def __call__(self, environ, start_response):
            rec.set_request(environ.get("HTTP_X_REQUEST_ID"))
            frame = rec.open("obs.middleware", {"path": environ.get("PATH_INFO")})
            try:
                return super().__call__(environ, start_response)
            finally:
                rec.close(frame)

    app.ObservabilityMiddleware = TracedMiddleware

    base_body = middleware._FinalizingBody

    class TracedBody(base_body):
        __slots__ = ()

        def __init__(self, body, finalize, state):
            super().__init__(body, _timed(rec, "obs.finalize", finalize), state)

    middleware._FinalizingBody = TracedBody

    encode = streaming.StreamJson.encode

    def traced_encode(self, *args, **kwargs):
        chunks = encode(self, *args, **kwargs)
        first = True
        while True:
            frame = rec.open("web.encode")
            try:
                chunk = next(chunks)
            except StopIteration:
                return
            finally:
                rec.close(frame)
            frame[ATTRS]["bytes"] = len(chunk)
            if first:
                frame[ATTRS]["rows"] = self.row_count_hint or 0
                first = False
            yield chunk

    streaming.StreamJson.encode = traced_encode

    def buffered_dumps(payload, *args, **kwargs):
        frame = rec.open("web.encode")
        try:
            text = json.dumps(payload, *args, **kwargs)
        finally:
            rec.close(frame)
        rows = payload.get("rows") or payload.get("associations") or []
        frame[ATTRS].update(bytes=len(text), rows=len(rows))
        return text

    app.json = types.SimpleNamespace(
        dumps=buffered_dumps, loads=json.loads, JSONDecodeError=json.JSONDecodeError
    )

    # query, core
    _wrap_function(rec, session, "run_query", "query.run_query")
    _wrap_function(rec, language, "parse_query", "query.parse")
    _wrap_method(rec, core.GenMapper, "generate_view", "core.generate_view")
    _wrap_method(rec, core.GenMapper, "map", "core.map")

    # cache: one span per lookup, one per loader run (a miss)
    lookup = MappingCache.lookup

    def traced_lookup(self, key, loader):
        frame = rec.open("cache.lookup", {"kind": key[0]})
        try:
            value, was_hit = lookup(
                self, key, _timed(rec, "cache.load", loader)
            )
            frame[ATTRS]["hit"] = bool(was_hit)
            return value, was_hit
        finally:
            rec.close(frame)

    MappingCache.lookup = traced_lookup

    # operators
    _wrap_function(
        rec, generate_view, "generate_view", "operators.generate_view",
        lambda attrs, view, args: attrs.update(rows=len(view)),
    )
    _wrap_method(
        rec, mapping.Mapping, "restrict_domain", "operators.restrict",
        lambda attrs, result, args: attrs.update(assoc=len(result)),
    )
    _wrap_function(rec, compose, "compose", "operators.compose")
    _wrap_function(rec, simple, "map_", "operators.map")

    # pathfinder
    _wrap_function(rec, graph, "build_source_graph", "pathfinder.build_graph")
    _wrap_function(rec, search, "shortest_path", "pathfinder.shortest_path")

    # gam: statements, the cursors they return, writes, commits, ANALYZE
    db_cls = database.GamDatabase

    def statement(method):
        @functools.wraps(method)
        def wrapper(self, sql, *args, **kwargs):
            frame = rec.open(
                "gam.execute", {"write": database._is_write_statement(sql)}
            )
            try:
                return _Cursor(rec, method(self, sql, *args, **kwargs))
            finally:
                rec.close(frame)

        return wrapper

    def write_batch(method, counted):
        @functools.wraps(method)
        def wrapper(self, sql, rows, *args, **kwargs):
            if not counted and not isinstance(rows, (list, tuple)):
                rows = list(rows)
            implicit = not self.connection.in_transaction
            frame = rec.open("gam.write", {"commit": implicit})
            try:
                result = method(self, sql, rows, *args, **kwargs)
                frame[ATTRS]["rows"] = result if counted else len(rows)
                return result
            finally:
                rec.close(frame)

        return wrapper

    transaction = db_cls.__dict__["transaction"]

    class _Transaction:
        def __init__(self, manager, outermost):
            self._manager = manager
            self._outermost = outermost

        def __enter__(self):
            return self._manager.__enter__()

        def __exit__(self, *exc_info):
            if not self._outermost:
                return self._manager.__exit__(*exc_info)
            frame = rec.open("gam.commit")
            try:
                return self._manager.__exit__(*exc_info)
            finally:
                rec.close(frame)

    def traced_transaction(self, *args, **kwargs):
        outermost = not self.connection.in_transaction
        return _Transaction(transaction(self, *args, **kwargs), outermost)

    db_cls.execute = statement(db_cls.__dict__["execute"])
    db_cls.execute_read = statement(db_cls.__dict__["execute_read"])
    db_cls.executemany = write_batch(db_cls.__dict__["executemany"], False)
    db_cls.executemany_counted = write_batch(
        db_cls.__dict__["executemany_counted"], True
    )
    db_cls.transaction = traced_transaction
    _wrap_method(rec, db_cls, "commit", "gam.commit")
    _wrap_method(rec, db_cls, "analyze", "gam.analyze")

    # write path: parse (with its EAV row count), import, derive, refresh
    def parsed(attrs, dataset, args):
        attrs.update(eav_rows=len(dataset), bytes=Path(args[1]).stat().st_size)

    _wrap_method(rec, parsers.SourceParser, "parse", "parsers.parse", parsed)
    _wrap_method(
        rec, importer.GamImporter, "import_dataset", "importer.import_dataset",
        lambda attrs, report, args: attrs.update(rows=len(args[1])),
    )
    _wrap_method(
        rec, pipeline.IntegrationPipeline, "integrate_directory",
        "importer.integrate_directory",
    )
    _wrap_function(rec, subsumed, "derive_subsumed", "derived.derive")
    _wrap_function(rec, composed, "derive_composed", "derived.derive")

    def refreshed(attrs, report, args):
        attrs.update(delta=report.delta_edges, changed=report.changed)

    _wrap_function(rec, refresh, "refresh_composed", "derived.refresh", refreshed)
    _wrap_function(rec, refresh, "refresh_subsumed", "derived.refresh", refreshed)
    return rec


# -- analysis -----------------------------------------------------------------------


def self_times(spans: list[tuple]) -> dict[int, float]:
    """Each span's duration minus the union of its children's intervals."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span[PARENT]:
            children[span[PARENT]].append((span[START], span[END]))
    result = {}
    for span in spans:
        start, end = span[START], span[END]
        covered = 0.0
        cursor = start
        for child_start, child_end in sorted(children.get(span[SID], ())):
            child_start, child_end = max(child_start, cursor), min(child_end, end)
            if child_end > child_start:
                covered += child_end - child_start
                cursor = child_end
        result[span[SID]] = (end - start) - covered
    return result


def union_length(intervals: list[tuple[float, float]]) -> float:
    total, cursor = 0.0, float("-inf")
    for start, end in sorted(intervals):
        start = max(start, cursor)
        if end > start:
            total += end - start
            cursor = end
    return total


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def read_layers(spans: list[tuple], measured) -> dict[str, float]:
    """Per-request read-path metrics over spans of measured requests.

    ``measured(rid)`` tells whether a request id belongs to a timed phase
    (warm-up and control requests are left out).
    """
    spans = [s for s in spans if s[RID] is not None and measured(s[RID])]
    own = self_times(spans)
    by_name: dict[str, list[tuple]] = defaultdict(list)
    for span in spans:
        by_name[span[NAME]].append(span)
    requests = len({s[RID] for s in by_name["obs.middleware"]})

    def total(name: str) -> float:
        return sum(s[END] - s[START] for s in by_name[name])

    def own_total(*names: str) -> float:
        return sum(own[s[SID]] for name in names for s in by_name[name])

    def attr_sum(name: str, attr: str) -> float:
        return sum(s[ATTRS].get(attr, 0) for s in by_name[name])

    def per_request_ms(value_s: float) -> float:
        return _ratio(value_s * 1000.0, requests)

    def hit_ratio(views: bool) -> float:
        looked = [
            s for s in by_name["cache.lookup"] if (s[ATTRS]["kind"] == "view") == views
        ]
        return _ratio(sum(1 for s in looked if s[ATTRS].get("hit")), len(looked))

    delivered = attr_sum("web.encode", "rows")
    pathfinder = by_name["pathfinder.build_graph"] + by_name["pathfinder.shortest_path"]
    return {
        "web.edge_self_ms": per_request_ms(own_total("web.edge")),
        "web.encode_ms": per_request_ms(total("web.encode")),
        "web.response_mb": _ratio(attr_sum("web.encode", "bytes") / 1e6, requests),
        "obs.middleware_self_ms": per_request_ms(
            own_total("obs.middleware") + total("obs.finalize")
        ),
        "query.self_ms": per_request_ms(own_total("query.run_query", "query.parse")),
        "core.self_ms": per_request_ms(own_total("core.generate_view", "core.map")),
        "cache.mapping_hit_ratio": hit_ratio(False),
        "cache.view_hit_ratio": hit_ratio(True),
        "cache.load_ms": per_request_ms(total("cache.load")),
        "operators.view_join_ms": per_request_ms(own_total("operators.generate_view")),
        "operators.compose_ms": per_request_ms(own_total("operators.compose")),
        "operators.assoc_scanned_per_row": _ratio(
            attr_sum("operators.restrict", "assoc"),
            attr_sum("operators.generate_view", "rows"),
        ),
        "pathfinder.calls": _ratio(len(pathfinder), requests),
        "pathfinder.ms": per_request_ms(sum(s[END] - s[START] for s in pathfinder)),
        "gam.statements": _ratio(
            len(by_name["gam.execute"]) + len(by_name["gam.write"]), requests
        ),
        "gam.execute_ms": per_request_ms(total("gam.execute")),
        "gam.fetch_ms": per_request_ms(total("gam.fetch")),
        "gam.rows_fetched_per_row": _ratio(attr_sum("gam.fetch", "rows"), delivered),
    }


def write_layers(release1: list[tuple], release2: list[tuple]) -> dict[str, float]:
    """Write-path totals over both releases of one release cycle."""
    spans = release1 + release2
    own = self_times(spans)
    by_name: dict[str, list[tuple]] = defaultdict(list)
    for span in spans:
        by_name[span[NAME]].append(span)

    def duration(spans_of: list[tuple]) -> float:
        return sum(s[END] - s[START] for s in spans_of)

    def total(name: str) -> float:
        return duration(by_name[name])

    imports = by_name["importer.import_dataset"]
    parses = by_name["parsers.parse"]
    write_statements = [s for s in by_name["gam.execute"] if s[ATTRS].get("write")]
    derived_ids = {s[SID] for s in by_name["derived.derive"]}
    top_derives = [s for s in by_name["derived.derive"] if s[PARENT] not in derived_ids]

    # Worker overlap of release 1: busy time of the pool threads (parse
    # plus import) over two workers' worth of the directory import's wall.
    overlap = 0.0
    directory = [s for s in release1 if s[NAME] == "importer.integrate_directory"]
    if directory:
        wall = directory[0][END] - directory[0][START]
        busy: dict[int, list[tuple[float, float]]] = defaultdict(list)
        for span in release1:
            if span[NAME] in ("parsers.parse", "importer.import_dataset"):
                busy[span[THREAD]].append((span[START], span[END]))
        overlap = _ratio(sum(union_length(v) for v in busy.values()), 2 * wall)

    parse_s = total("parsers.parse")
    import_s = total("importer.import_dataset")
    return {
        "gam.write_ms": 1000.0 * (total("gam.write") + duration(write_statements)),
        "gam.rows_written": float(sum(s[ATTRS].get("rows", 0) for s in by_name["gam.write"])),
        "gam.commits": float(
            len(by_name["gam.commit"])
            + sum(1 for s in by_name["gam.write"] if s[ATTRS].get("commit"))
        ),
        "gam.analyze_ms": 1000.0 * total("gam.analyze"),
        "importer.self_ms": 1000.0 * sum(own[s[SID]] for s in imports),
        "importer.rows_per_s": _ratio(sum(s[ATTRS]["rows"] for s in imports), import_s),
        "eav.rows": float(sum(s[ATTRS]["eav_rows"] for s in parses)),
        "importer.worker_overlap": overlap,
        "parsers.parse_ms": 1000.0 * parse_s,
        "parsers.mb_per_s": _ratio(sum(s[ATTRS]["bytes"] for s in parses) / 1e6, parse_s),
        "derived.derive_ms": 1000.0 * duration(top_derives),
        "derived.refresh_ms": 1000.0 * total("derived.refresh"),
        "derived.delta_rows": float(
            sum(s[ATTRS].get("delta", 0) for s in by_name["derived.refresh"])
        ),
    }
