"""The curator's side of ``release_cycle``, in its own process.

``release1`` imports a release directory with ``integrate_directory(...,
workers=2)`` as ``repro import --workers 2`` would, then derives
``Subsumed`` of the taxonomy source and materializes the hub's 2-hop
paths as ``Composed`` mappings.  ``release2`` snapshots the import
journal's watermarks, re-imports, and refreshes every derived mapping
from them.  Timings go to stdout as one JSON line; with ``--spans-out``
the benchmark's timing wrappers are installed first.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time

from common import import_program


def drop_derived(genmapper) -> None:
    """Delete every Composed and Subsumed association (a fresh derivation
    follows)."""
    with genmapper.db.write_scope(), genmapper.db.transaction():
        genmapper.db.execute(
            "DELETE FROM object_rel WHERE src_rel_id IN (SELECT src_rel_id"
            " FROM source_rel WHERE type IN ('Composed', 'Subsumed'))"
        )


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("phase", choices=("release1", "release2"))
    parser.add_argument("--db", required=True)
    parser.add_argument("--dir", required=True)
    parser.add_argument("--paths", default="[]", help="JSON list of paths")
    parser.add_argument("--taxonomy", default=None)
    parser.add_argument("--spans-out", default=None)
    args = parser.parse_args(argv)

    import_program()
    recorder = None
    if args.spans_out:
        import tracing

        recorder = tracing.install()
    from repro.core.genmapper import GenMapper
    from repro.obs import get_registry
    from repro.reliability.checkpoint import ImportJournal

    result: dict = {}
    with GenMapper(args.db) as genmapper:
        if args.phase == "release1":
            started = time.perf_counter()
            genmapper.integrate_directory(args.dir, workers=2)
            result["import_s"] = time.perf_counter() - started

            import inputs

            graph = inputs.Graph(args.db)
            taxonomy = graph.taxonomy
            __, far = graph.hot_set()
            paths = list(far.values())
            started = time.perf_counter()
            genmapper.derive_subsumed(taxonomy)
            for path in paths:
                genmapper.compose(path, materialize=True)
            result["derive_s"] = time.perf_counter() - started
            result.update(paths=paths, taxonomy=taxonomy)
        else:
            paths = json.loads(args.paths)
            marks = ImportJournal(genmapper.db).table_watermarks()
            started = time.perf_counter()
            genmapper.integrate_directory(args.dir, workers=2)
            reports = [
                genmapper.refresh_composed(path, watermark=marks) for path in paths
            ]
            subsumed = genmapper.refresh_subsumed(args.taxonomy, watermark=marks)
            result["update_s"] = time.perf_counter() - started
            result["composed_delta"] = sum(r.delta_edges for r in reports)
            result["subsumed_delta"] = subsumed.delta_edges
    counters = get_registry().snapshot()["counters"]
    result["retries"] = sum(
        v for k, v in counters.items() if k.startswith("reliability.retry.attempts")
    )
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if recorder is not None:
        recorder.dump(args.spans_out)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
