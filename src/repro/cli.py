"""Command-line interface to the GenMapper reproduction.

Mirrors the interactive workflow of paper Section 5.1 for the terminal::

    python -m repro.cli demo --db /tmp/gam.db           # synthetic universe
    python -m repro.cli import /data/sources --db /tmp/gam.db
    python -m repro.cli sources --db /tmp/gam.db
    python -m repro.cli query "ANNOTATE LocusLink WITH Hugo AND GO" \
        --db /tmp/gam.db
    python -m repro.cli map NetAffx GO --db /tmp/gam.db
    python -m repro.cli path NetAffx GO --db /tmp/gam.db
    python -m repro.cli object LocusLink 353 --db /tmp/gam.db

Any command accepts ``--profile`` (print a span tree of where the time
went, to stderr), ``--trace-out FILE`` (write the spans as JSONL) and
``--events-out FILE`` (emit one wide event per import/derivation/request
as JSONL); see ``docs/observability.md``.  ``repro profile`` runs the
sampling profiler over a synthetic workload and ``repro slow-log``
inspects a running server's slow-query ring buffer.  ``--cache-size N``
/ ``--no-cache`` tune or disable the generation-aware mapping cache
(``docs/performance.md``).
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path

from repro.core.genmapper import GenMapper
from repro.export.writers import render_mapping, render_view, write_view
from repro.gam.errors import GenMapperError
from repro.query.language import parse_query
from repro.query.session import run_query


def _worker_count(value: str) -> int:
    """``--workers`` of ``repro import``: an integer >= 1."""
    if not value.isdecimal() or int(value) < 1:
        raise argparse.ArgumentTypeError(f"must be an integer >= 1, got {value!r}")
    return int(value)


def build_parser() -> argparse.ArgumentParser:
    """The argparse command tree."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="GenMapper reproduction: integrate and query annotation data",
    )
    parser.add_argument(
        "--db",
        default=":memory:",
        help="path of the GAM database (default: in-memory)",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="trace the command and print the span tree to stderr",
    )
    parser.add_argument(
        "--trace-out",
        metavar="FILE",
        help="write the recorded spans as JSONL (implies --profile)",
    )
    parser.add_argument(
        "--events-out",
        metavar="FILE",
        help="append one wide event per request/import/derivation as"
             " JSONL to FILE (same as REPRO_EVENTS; see"
             " docs/observability.md)",
    )
    parser.add_argument(
        "--cache-size", type=int, default=None, metavar="N",
        help="max entries in the mapping cache"
             " (default: REPRO_CACHE_SIZE or 256; see docs/performance.md)",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="disable the mapping cache (same as REPRO_CACHE=off)",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    cmd = commands.add_parser("demo", help="build a synthetic demo database")
    cmd.add_argument("--genes", type=int, default=200)
    cmd.add_argument("--go-terms", type=int, default=120)
    cmd.add_argument("--seed", type=int, default=7)
    cmd.add_argument(
        "--scale", type=float, default=1.0,
        help="multiply --genes/--go-terms by this factor"
        " (the paper-scale benchmark uses repro.datagen.scale directly)",
    )

    cmd = commands.add_parser("import", help="import a source file or directory")
    cmd.add_argument("path", help="native source file, .eav file, or directory")
    cmd.add_argument("--source", help="source name (chooses the parser)")
    cmd.add_argument("--release", help="release label for audit info")
    cmd.add_argument(
        "--workers", type=_worker_count, default=None, metavar="N",
        help="parse manifest files in up to N processes while one writer"
        " imports them in manifest order (directories only;"
        " default: REPRO_IMPORT_WORKERS or serial)",
    )
    cmd.add_argument(
        "--resume", action="store_true",
        help="skip manifest sources already checkpointed by an earlier"
        " (possibly interrupted) import of the same files"
        " (directories only; see docs/reliability.md)",
    )

    cmd = commands.add_parser(
        "parse", help="run only the Parse step: native file -> staged .eav"
    )
    cmd.add_argument("path", help="native source file or manifest directory")
    cmd.add_argument("--source", help="source name (chooses the parser)")
    cmd.add_argument("--release", help="release label for the EAV header")
    cmd.add_argument("--out", required=True,
                     help="output .eav file (or staging directory)")

    commands.add_parser("sources", help="list integrated sources")
    cmd = commands.add_parser(
        "stats", help="database and source-graph statistics"
    )
    cmd.add_argument("--detailed", action="store_true",
                     help="per-source census, mapping sizes, cardinalities")
    commands.add_parser("integrity", help="run cross-table integrity checks")

    cmd = commands.add_parser(
        "batch", help="run a file of ANNOTATE queries unattended"
    )
    cmd.add_argument("path", help="batch file: one query per line")
    cmd.add_argument("--out", help="directory for per-query result files")
    cmd.add_argument("--format", default="tsv",
                     choices=("tsv", "csv", "json", "html"))
    cmd.add_argument("--stop-on-error", action="store_true")
    cmd.add_argument(
        "--workers", type=int, default=1, metavar="N",
        help="run up to N batch queries concurrently (default: 1)",
    )

    cmd = commands.add_parser("query", help="run an ANNOTATE ... WITH ... query")
    cmd.add_argument("text", help="query in the ANNOTATE language")
    cmd.add_argument("--format", default="table",
                     choices=("table", "tsv", "csv", "json", "html"))
    cmd.add_argument("--out", help="write the view to this file")

    cmd = commands.add_parser("map", help="show the mapping between two sources")
    cmd.add_argument("source")
    cmd.add_argument("target")
    cmd.add_argument("--via", nargs="*", default=None,
                     help="intermediate sources of an explicit path")
    cmd.add_argument("--format", default="tsv", choices=("tsv", "json"))
    cmd.add_argument("--limit", type=int, default=20,
                     help="show at most this many associations (0 = all)")

    cmd = commands.add_parser("compose", help="compose mappings along a path")
    cmd.add_argument("path", nargs="+", help="source names of the mapping path")
    cmd.add_argument("--materialize", action="store_true",
                     help="store the result as a Composed mapping")

    cmd = commands.add_parser("path", help="find mapping paths between sources")
    cmd.add_argument("source")
    cmd.add_argument("target")
    cmd.add_argument("--via", help="require this intermediate source")
    cmd.add_argument("-k", type=int, default=1, help="number of alternatives")

    cmd = commands.add_parser("subsume", help="derive the Subsumed mapping")
    cmd.add_argument("source", help="a Network source with IS_A structure")

    cmd = commands.add_parser("object", help="show all annotations of an object")
    cmd.add_argument("source")
    cmd.add_argument("accession")

    cmd = commands.add_parser(
        "explain", help="show the execution plan of a query without running it"
    )
    cmd.add_argument("text", help="query in the ANNOTATE language")

    cmd = commands.add_parser(
        "coverage", help="annotation coverage of a source's mappings"
    )
    cmd.add_argument("source")

    cmd = commands.add_parser(
        "match",
        help="compute a Similarity mapping by attribute matching",
    )
    cmd.add_argument("source")
    cmd.add_argument("target")
    cmd.add_argument("--threshold", type=float, default=0.8)
    cmd.add_argument("--top-k", type=int, default=1)
    cmd.add_argument("--materialize", action="store_true",
                     help="store the result as a Similarity mapping")

    cmd = commands.add_parser(
        "diff", help="diff a new release file against the stored source"
    )
    cmd.add_argument("path", help="native source file of the new release")
    cmd.add_argument("--source", required=True)
    cmd.add_argument("--release", help="release label of the new file")

    cmd = commands.add_parser(
        "delete-source", help="cascade-remove a source from the database"
    )
    cmd.add_argument("source")
    cmd.add_argument("--prune", action="store_true",
                     help="also prune objects left without associations")

    cmd = commands.add_parser(
        "dump", help="export the whole database as a portable JSON-lines dump"
    )
    cmd.add_argument("path", help="output file")

    cmd = commands.add_parser(
        "load", help="merge a JSON-lines dump into the database"
    )
    cmd.add_argument("path", help="dump file written by the dump command")

    cmd = commands.add_parser(
        "graph", help="export the source/mapping graph for visualization"
    )
    cmd.add_argument("--format", default="dot",
                     choices=("dot", "graphml", "json"))
    cmd.add_argument("--out", help="write to this file instead of stdout")

    cmd = commands.add_parser(
        "serve", help="serve the JSON HTTP API over this database"
    )
    cmd.add_argument("--host", default="127.0.0.1")
    cmd.add_argument("--port", type=int, default=8350)
    cmd.add_argument(
        "--pool-size", type=int, default=None, metavar="N",
        help="max pooled database connections (see docs/storage.md)",
    )
    cmd.add_argument(
        "--request-timeout", type=float, default=None, metavar="SECONDS",
        help="per-request time budget; overruns are shed with 503 +"
        " Retry-After (see docs/reliability.md)",
    )
    cmd.add_argument(
        "--slow-ms", type=float, default=None, metavar="MS",
        help="capture requests slower than MS into the slow-query log"
        " (same as REPRO_SLOW_MS; inspect via GET /debug/slow or"
        " 'repro slow-log')",
    )
    cmd.add_argument(
        "--rate-limit", type=float, default=None, metavar="RPS",
        help="per-client token-bucket rate limit in requests/second;"
        " floods get 429 + Retry-After (same as REPRO_RATE_LIMIT)",
    )
    cmd.add_argument(
        "--rate-burst", type=float, default=None, metavar="TOKENS",
        help="token-bucket burst ceiling (default: 2x the rate;"
        " same as REPRO_RATE_BURST)",
    )
    cmd.add_argument(
        "--stream-threshold", type=int, default=None, metavar="ROWS",
        help="stream responses with at least ROWS rows in bounded chunks"
        " (default: REPRO_STREAM_THRESHOLD or 1000)",
    )

    cmd = commands.add_parser(
        "slow-log",
        help="fetch and render a running server's slow-query log",
    )
    cmd.add_argument(
        "--url", default="http://127.0.0.1:8350",
        help="base URL of the server (default: http://127.0.0.1:8350)",
    )
    cmd.add_argument("--limit", type=int, default=20,
                     help="show at most this many entries (newest first)")
    cmd.add_argument("--json", action="store_true",
                     help="print the raw JSON payload instead of a table")

    cmd = commands.add_parser(
        "profile",
        help="sampling-profile a scaled synthetic workload"
             " (datagen -> import -> queries)",
    )
    cmd.add_argument("--folded-out", metavar="FILE",
                     help="write folded stacks here (default: stdout);"
                          " feed to flamegraph.pl / speedscope")
    cmd.add_argument("--hz", type=float, default=None,
                     help="sampling rate (default: REPRO_PROFILE_HZ or 100)")
    cmd.add_argument("--genes", type=int, default=2000)
    cmd.add_argument("--go-terms", type=int, default=600)
    cmd.add_argument("--seed", type=int, default=7)
    cmd.add_argument("--queries", type=int, default=5,
                     help="ANNOTATE queries to run after the import")
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    profiling = args.profile or bool(args.trace_out)
    tracer = None
    if profiling:
        from repro.obs import get_tracer

        tracer = get_tracer()
        tracer.clear()
        tracer.enable()
    events_log = None
    previous_events_log = None
    if args.events_out:
        from repro.obs import WideEventLog, set_event_log

        events_log = WideEventLog(args.events_out)
        previous_events_log = set_event_log(events_log)
    try:
        pool_size = getattr(args, "pool_size", None)
        with GenMapper(
            args.db,
            pool_size=pool_size,
            cache_size=args.cache_size,
            enable_cache=False if args.no_cache else None,
        ) as genmapper:
            if tracer is None:
                return _dispatch(genmapper, args)
            with tracer.span(f"cli.{args.command}", db=args.db):
                return _dispatch(genmapper, args)
    except GenMapperError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        if events_log is not None:
            from repro.obs import set_event_log

            events_log.close()
            set_event_log(previous_events_log)
            stats = events_log.stats()
            print(
                f"# wrote {stats['emitted']} wide events to"
                f" {args.events_out}"
                + (f" ({stats['dropped']} dropped)"
                   if stats["dropped"] else ""),
                file=sys.stderr,
            )
        if tracer is not None:
            tracer.disable()
            print("\n# trace\n" + tracer.render_tree(), file=sys.stderr)
            if args.trace_out:
                written = tracer.export_jsonl(args.trace_out)
                print(f"# wrote {written} spans to {args.trace_out}",
                      file=sys.stderr)


def _dispatch(genmapper: GenMapper, args: argparse.Namespace) -> int:
    handlers = {
        "demo": _cmd_demo,
        "import": _cmd_import,
        "parse": _cmd_parse,
        "sources": _cmd_sources,
        "stats": _cmd_stats,
        "integrity": _cmd_integrity,
        "query": _cmd_query,
        "map": _cmd_map,
        "compose": _cmd_compose,
        "path": _cmd_path,
        "subsume": _cmd_subsume,
        "object": _cmd_object,
        "explain": _cmd_explain,
        "coverage": _cmd_coverage,
        "match": _cmd_match,
        "diff": _cmd_diff,
        "delete-source": _cmd_delete_source,
        "batch": _cmd_batch,
        "dump": _cmd_dump,
        "load": _cmd_load,
        "graph": _cmd_graph,
        "serve": _cmd_serve,
        "slow-log": _cmd_slow_log,
        "profile": _cmd_sampling_profile,
    }
    return handlers[args.command](genmapper, args)


def _cmd_demo(genmapper: GenMapper, args: argparse.Namespace) -> int:
    from repro.datagen.emit import write_universe
    from repro.datagen.universe import UniverseConfig, generate_universe

    universe = generate_universe(
        UniverseConfig(
            seed=args.seed,
            n_genes=max(int(args.genes * args.scale), 1),
            n_go_terms=max(int(args.go_terms * args.scale), 10),
        )
    )
    with tempfile.TemporaryDirectory() as directory:
        write_universe(universe, directory)
        reports = genmapper.integrate_directory(directory)
    for report in reports:
        print(report.summary())
    print()
    _cmd_stats(genmapper, args)
    return 0


def _cmd_import(genmapper: GenMapper, args: argparse.Namespace) -> int:
    path = Path(args.path)
    if path.is_dir():
        reports = genmapper.integrate_directory(
            path, workers=args.workers, resume=args.resume
        )
    elif path.suffix == ".eav":
        reports = [genmapper.pipeline.integrate_eav_file(path)]
    else:
        reports = [
            genmapper.integrate_file(
                path, source_name=args.source, release=args.release
            )
        ]
    for report in reports:
        print(report.summary())
    return 0


def _cmd_parse(genmapper: GenMapper, args: argparse.Namespace) -> int:
    from repro.eav.io import write_eav
    from repro.parsers.base import get_parser

    path = Path(args.path)
    if path.is_dir():
        staged = genmapper.pipeline.stage_directory(path, args.out)
        print(f"staged {len(staged)} sources into {args.out}")
        return 0
    if args.source is None:
        print("error: --source is required for a single file", file=sys.stderr)
        return 1
    parser = get_parser(args.source)
    dataset = parser.parse(path, release=args.release)
    write_eav(dataset, args.out)
    print(f"{dataset.summary()} -> {args.out}")
    return 0


def _cmd_sources(genmapper: GenMapper, args: argparse.Namespace) -> int:
    for source in genmapper.sources():
        objects = genmapper.repository.count_objects(source)
        release = f" release={source.release}" if source.release else ""
        print(
            f"{source.name:<28} {source.content.value:<8}"
            f" {source.structure.value:<8} objects={objects}{release}"
        )
    return 0


def _cmd_stats(genmapper: GenMapper, args: argparse.Namespace) -> int:
    if getattr(args, "detailed", False):
        from repro.gam.statistics import collect_statistics

        print(collect_statistics(genmapper.repository).render())
        return 0
    for key, value in genmapper.stats().items():
        print(f"{key:<28} {value}")
    return 0


def _cmd_integrity(genmapper: GenMapper, args: argparse.Namespace) -> int:
    report = genmapper.check_integrity()
    print(report)
    return 0 if report.ok else 1


def _cmd_query(genmapper: GenMapper, args: argparse.Namespace) -> int:
    spec = parse_query(args.text)
    print(f"# {spec.describe()}", file=sys.stderr)
    view = run_query(genmapper, spec)
    if args.out:
        fmt = "tsv" if args.format == "table" else args.format
        written = write_view(view, args.out, fmt)
        print(f"wrote {len(view)} rows to {written}", file=sys.stderr)
        return 0
    if args.format == "table":
        print(view.render())
    else:
        print(render_view(view, args.format), end="")
    return 0


def _cmd_map(genmapper: GenMapper, args: argparse.Namespace) -> int:
    mapping = genmapper.map(args.source, args.target, via=args.via)
    print(f"# {mapping.describe()}", file=sys.stderr)
    if args.limit:
        from repro.operators.mapping import Mapping

        mapping = Mapping(
            mapping.source,
            mapping.target,
            mapping.associations[: args.limit],
            mapping.rel_type,
        )
    print(render_mapping(mapping, args.format), end="")
    return 0


def _cmd_compose(genmapper: GenMapper, args: argparse.Namespace) -> int:
    mapping = genmapper.compose(args.path, materialize=args.materialize)
    print(mapping.describe())
    if args.materialize:
        print(f"materialized as Composed: {mapping.source} ↔ {mapping.target}")
    return 0


def _cmd_path(genmapper: GenMapper, args: argparse.Namespace) -> int:
    if args.k <= 1:
        paths = [genmapper.find_path(args.source, args.target, via=args.via)]
    else:
        paths = genmapper.find_paths(args.source, args.target, k=args.k)
    from repro.pathfinder.search import path_cost

    graph = genmapper.source_graph()
    for path in paths:
        cost = path_cost(graph, path)
        print(f"{' -> '.join(path)}  (cost {cost:g})")
    return 0


def _cmd_subsume(genmapper: GenMapper, args: argparse.Namespace) -> int:
    inserted = genmapper.derive_subsumed(args.source)
    print(f"derived Subsumed({args.source}): {inserted} associations stored")
    return 0


def _cmd_object(genmapper: GenMapper, args: argparse.Namespace) -> int:
    info = genmapper.object_info(args.source, args.accession)
    if not info:
        print(f"{args.source} {args.accession}: no stored associations")
        return 0
    print(f"{args.source} {args.accession}:")
    for partner, rel_type, association in info:
        print(
            f"  {partner:<24} [{rel_type.value:<10}]"
            f" {association.target_accession}"
            + (f"  (evidence {association.evidence:g})"
               if association.evidence != 1.0 else "")
        )
    return 0


def _cmd_explain(genmapper: GenMapper, args: argparse.Namespace) -> int:
    from repro.query.plan import plan_query

    spec = parse_query(args.text)
    plan = plan_query(genmapper, spec)
    print(plan.render())
    return 0 if plan.executable else 1


def _cmd_coverage(genmapper: GenMapper, args: argparse.Namespace) -> int:
    from repro.analysis.coverage import render_coverage, source_coverage

    entries = source_coverage(genmapper.repository, args.source)
    print(f"annotation coverage of {args.source}:")
    print(render_coverage(entries))
    return 0


def _cmd_match(genmapper: GenMapper, args: argparse.Namespace) -> int:
    from repro.derived.composed import materialize_mapping
    from repro.gam.enums import RelType
    from repro.operators.matching import MatchConfig, match_attributes

    config = MatchConfig(threshold=args.threshold, top_k=args.top_k)
    mapping = match_attributes(
        genmapper.repository, args.source, args.target, config
    )
    print(mapping.describe())
    if args.materialize and not mapping.is_empty():
        materialize_mapping(genmapper.repository, mapping, RelType.SIMILARITY)
        print("materialized as Similarity mapping")
    return 0


def _cmd_diff(genmapper: GenMapper, args: argparse.Namespace) -> int:
    from repro.importer.diff import diff_against_store
    from repro.parsers.base import get_parser

    parser = get_parser(args.source)
    dataset = parser.parse(args.path, release=args.release)
    diff = diff_against_store(genmapper.repository, dataset)
    print(diff.render())
    return 0


def _cmd_delete_source(genmapper: GenMapper, args: argparse.Namespace) -> int:
    from repro.gam.maintenance import delete_source, prune_orphan_objects

    report = delete_source(genmapper.repository, args.source)
    print(report.summary())
    if args.prune:
        pruned = prune_orphan_objects(genmapper.repository)
        print(f"pruned {pruned} orphan objects")
    return 0


def _cmd_dump(genmapper: GenMapper, args: argparse.Namespace) -> int:
    from repro.gam.dump import dump_database

    records = dump_database(genmapper.repository, args.path)
    print(f"dumped {records} records to {args.path}")
    return 0


def _cmd_load(genmapper: GenMapper, args: argparse.Namespace) -> int:
    from repro.gam.dump import load_database

    records = load_database(genmapper.repository, args.path)
    counts = genmapper.db.counts()
    print(f"loaded {records} records;"
          f" database now holds {counts['object']} objects,"
          f" {counts['object_rel']} associations")
    return 0


def _cmd_graph(genmapper: GenMapper, args: argparse.Namespace) -> int:
    from repro.pathfinder.export import to_dot, to_json, write_graphml

    graph = genmapper.source_graph()
    if args.format == "graphml":
        if not args.out:
            print("error: --out is required for graphml", file=sys.stderr)
            return 1
        write_graphml(graph, args.out)
        print(f"wrote GraphML to {args.out}", file=sys.stderr)
        return 0
    text = to_dot(graph) if args.format == "dot" else to_json(graph)
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
        print(f"wrote {args.format} to {args.out}", file=sys.stderr)
    else:
        print(text, end="")
    return 0


def _cmd_serve(genmapper: GenMapper, args: argparse.Namespace) -> int:
    from repro.web.app import create_app
    from repro.web.server import make_threading_server

    if args.slow_ms is not None:
        from repro.obs import SlowQueryLog, set_slow_log

        set_slow_log(SlowQueryLog(threshold_ms=args.slow_ms))
        print(f"# slow-query log capturing requests over {args.slow_ms:g} ms"
              " (GET /debug/slow)", file=sys.stderr)
    app = create_app(
        genmapper,
        request_timeout=args.request_timeout,
        rate_limit=args.rate_limit,
        rate_burst=args.rate_burst,
        stream_threshold=args.stream_threshold,
    )
    if args.rate_limit is not None:
        print(f"# rate limiting: {args.rate_limit:g} req/s per client"
              " (429 + Retry-After past the burst)", file=sys.stderr)
    with make_threading_server(args.host, args.port, app) as server:
        print(f"GenMapper API on http://{args.host}:{args.port}/sources")
        try:
            server.serve_forever()
        except KeyboardInterrupt:
            pass
    return 0


def _cmd_slow_log(genmapper: GenMapper, args: argparse.Namespace) -> int:
    import urllib.error
    import urllib.request

    url = args.url.rstrip("/") + f"/debug/slow?limit={args.limit}"
    try:
        with urllib.request.urlopen(url, timeout=10) as response:
            payload = json.loads(response.read().decode("utf-8"))
    except (urllib.error.URLError, OSError) as exc:
        print(f"error: cannot fetch {url}: {exc}", file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps(payload, indent=2))
        return 0
    threshold = payload.get("threshold_ms")
    print(
        f"# slow-query log: threshold="
        f"{f'{threshold:g} ms' if threshold is not None else 'disabled'}"
        f" captured={payload.get('captured_total', 0)}"
        f" retained={payload.get('retained', 0)}"
    )
    for entry in payload.get("entries", []):
        print(
            f"{entry.get('duration_ms', 0):>9.1f} ms"
            f"  {entry.get('method', '?'):<5}{entry.get('route', '?'):<24}"
            f" status={entry.get('status')}"
            f" sql={entry.get('sql_count', 0)}"
            f" trace={entry.get('trace_id')}"
        )
        stages = entry.get("stages_ms") or {}
        for stage, ms in sorted(stages.items(), key=lambda kv: -kv[1]):
            print(f"{'':>13}  {stage:<28} {ms:>8.1f} ms")
    return 0


def _cmd_sampling_profile(genmapper: GenMapper, args: argparse.Namespace) -> int:
    from repro.datagen.emit import write_universe
    from repro.datagen.universe import UniverseConfig, generate_universe
    from repro.obs import SamplingProfiler

    profiler = SamplingProfiler(hz=args.hz)
    with profiler:
        universe = generate_universe(
            UniverseConfig(
                seed=args.seed, n_genes=args.genes, n_go_terms=args.go_terms
            )
        )
        with tempfile.TemporaryDirectory() as directory:
            write_universe(universe, directory)
            genmapper.integrate_directory(directory)
        spec = parse_query("ANNOTATE LocusLink WITH Hugo AND GO")
        for __ in range(max(0, args.queries)):
            run_query(genmapper, spec)
    folded = profiler.folded()
    stats = profiler.stats()
    note = (
        f"# {stats['samples']} samples @ {stats['hz']:g} Hz,"
        f" {stats['distinct_stacks']} distinct stacks"
    )
    if args.folded_out:
        Path(args.folded_out).write_text(folded, encoding="utf-8")
        print(f"{note} -> {args.folded_out}", file=sys.stderr)
    else:
        print(note, file=sys.stderr)
        print(folded, end="")
    return 0


def _cmd_batch(genmapper: GenMapper, args: argparse.Namespace) -> int:
    from repro.query.batch import read_batch, render_results, run_batch

    entries = read_batch(args.path)
    results = run_batch(
        genmapper,
        entries,
        output_dir=args.out,
        fmt=args.format,
        stop_on_error=args.stop_on_error,
        workers=args.workers,
    )
    print(render_results(results))
    return 0 if all(result.ok for result in results) else 1


if __name__ == "__main__":
    raise SystemExit(main())
