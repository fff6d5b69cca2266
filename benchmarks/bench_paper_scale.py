"""Paper-scale benchmark: operators at the Section 8 deployment shape.

The paper's production instance holds "more than 60 sources, 2 million
objects with 5 million associations in 500 mappings".  This script
builds that shape (``repro.datagen.scale``), times each operator on it,
and measures the headline claim of the incremental-maintenance layer:
after an import delta, refreshing a materialized mapping via
``repro.derived.refresh`` must beat dropping and re-deriving it by at
least 5x, and warm cache entries for untouched source pairs must
survive the delta.

Run directly (pytest collects no tests from this module)::

    PYTHONPATH=src python benchmarks/bench_paper_scale.py \
        --scale 1.0 --out BENCH_paper_scale.json

CI smoke-runs it at ``--scale 0.05``; the committed
``BENCH_paper_scale.json`` comes from a full ``--scale 1.0`` run.  At
scales <= 0.1 the script additionally proves the refresh byte-identical
(``canonical_snapshot``) to full re-derivation on a twin database.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
import time
from pathlib import Path

#: Minimum speedup the incremental refresh must deliver over a full
#: drop-and-rederive of the same mapping after a typical import delta.
MIN_REFRESH_SPEEDUP = 5.0

#: Twin-database equivalence proof is O(full snapshot); only run it at
#: smoke scales.
EQUIVALENCE_MAX_SCALE = 0.1


def _timed(fn) -> tuple[float, object]:
    start = time.perf_counter()
    result = fn()
    return (time.perf_counter() - start) * 1000.0, result


def _max_obj_rel_id(db) -> int:
    return int(
        db.execute("SELECT coalesce(max(obj_rel_id), 0) FROM object_rel")
        .fetchone()[0]
    )


def _build(gm, scale: float, seed: int):
    from repro.datagen.scale import PaperScaleSpec, build_paper_database

    spec = PaperScaleSpec(scale=scale, seed=seed)
    build_ms, report = _timed(lambda: build_paper_database(gm.repository, spec))
    return spec, report, build_ms


def _operator_phase(gm, results: dict) -> None:
    """Per-operator timings on the freshly built instance."""
    from repro.operators.compose import compose
    from repro.operators.simple import map_

    repo = gm.repository
    timings: dict[str, float] = {}
    timings["map"], mapping = _timed(lambda: map_(repo, "Gene", "Term"))
    results["map_associations"] = len(mapping)
    path = ["Gene", "Term", "S00"]
    timings["compose_sql"], composed = _timed(lambda: compose(repo, path))
    results["compose_associations"] = len(composed)
    timings["derive_composed"], __ = _timed(
        lambda: gm.compose(path, materialize=True)
    )
    timings["derive_subsumed"], inserted = _timed(
        lambda: gm.derive_subsumed("Term")
    )
    results["subsumed_associations"] = inserted
    timings["generate_view_sql"], view = _timed(
        lambda: gm.generate_view(
            "Gene", ["Term", "S00"], combine="OR", engine="sql"
        )
    )
    results["view_rows"] = len(view)
    results["timings_ms"] = {k: round(v, 3) for k, v in timings.items()}


def _incremental_phase(gm, scale: float, seed: int, results: dict) -> None:
    """Import a delta, refresh incrementally, compare with full rederive."""
    from repro.datagen.scale import append_delta, append_taxonomy_delta

    repo, db = gm.repository, gm.db
    path = ["Gene", "Term", "S00"]
    # A typical nightly delta: ~0.2% of the base associations.
    delta_rows = max(int(10_000 * scale), 200)
    watermark = _max_obj_rel_id(db)
    append_delta(repo, "Gene", "Term", delta_rows, seed=seed + 1)
    append_taxonomy_delta(repo, "Term", max(delta_rows // 10, 50), seed=seed + 2)

    refresh_ms, reports = _timed(
        lambda: (
            gm.refresh_composed(path, watermark=watermark),
            gm.refresh_subsumed("Term", watermark=watermark),
        )
    )
    composed_report, subsumed_report = reports

    # Full re-derivation of the same two mappings: drop their rows, then
    # derive from scratch (what every pre-refresh release had to do).
    def _drop(rel) -> None:
        with db.write_scope(), db.transaction():
            db.execute(
                "DELETE FROM object_rel WHERE src_rel_id = ?",
                (rel.src_rel_id,),
            )

    _drop(composed_report.rel)
    _drop(subsumed_report.rel)
    full_ms, __ = _timed(
        lambda: (
            gm.compose(path, materialize=True),
            gm.derive_subsumed("Term"),
        )
    )
    speedup = full_ms / refresh_ms if refresh_ms > 0 else float("inf")
    results["incremental"] = {
        "delta_association_rows": delta_rows,
        "delta_edges_composed": composed_report.delta_edges,
        "delta_edges_subsumed": subsumed_report.delta_edges,
        "refresh_changed_rows": composed_report.changed
        + subsumed_report.changed,
        "refresh_ms": round(refresh_ms, 3),
        "full_rederive_ms": round(full_ms, 3),
        "speedup": round(speedup, 2),
    }
    # The second refresh ran against dropped-and-rederived rels above, so
    # re-apply the delta refresh path once more for a steady-state check:
    # at the current watermark there is nothing to do.
    noop = gm.refresh_composed(path, watermark=_max_obj_rel_id(db))
    results["incremental"]["noop_delta_edges"] = noop.delta_edges
    assert speedup >= MIN_REFRESH_SPEEDUP, (
        f"incremental refresh speedup {speedup:.2f}x"
        f" below the {MIN_REFRESH_SPEEDUP}x floor"
        f" (refresh {refresh_ms:.1f}ms vs full {full_ms:.1f}ms)"
    )


def _cache_phase(gm, scale: float, seed: int, results: dict) -> None:
    """Scoped invalidation: a delta to one source pair must leave warm
    entries of untouched pairs serving hits."""
    from repro.datagen.scale import append_delta

    touched = ("Gene", "Term")
    untouched = ("S01", "S02")
    gm.map(*touched)
    gm.map(*untouched)
    before = gm.cache_stats()
    append_delta(gm.repository, *touched, max(int(2_000 * scale), 100),
                 seed=seed + 3)
    warm_ms, __ = _timed(lambda: gm.map(*untouched))
    cold_ms, __ = _timed(lambda: gm.map(*touched))
    after = gm.cache_stats()
    hits = after["hits"] - before["hits"]
    misses = after["misses"] - before["misses"]
    results["cache"] = {
        "untouched_pair_hits": hits,
        "touched_pair_misses": misses,
        "untouched_warm_ms": round(warm_ms, 3),
        "touched_reload_ms": round(cold_ms, 3),
        "scoped_invalidations": after["scoped_invalidations"],
    }
    assert hits >= 1, "untouched pair lost its warm entry after the delta"
    assert misses >= 1, "touched pair was served stale after the delta"


def _equivalence_phase(scale: float, seed: int, results: dict) -> None:
    """Twin-database proof: refresh == drop + full rederive."""
    from repro.core.genmapper import GenMapper
    from repro.datagen.scale import (
        PaperScaleSpec,
        append_delta,
        append_taxonomy_delta,
        build_paper_database,
    )
    from repro.derived import refresh_composed, refresh_subsumed
    from repro.gam.dump import canonical_snapshot

    path = ["Gene", "Term", "S00"]
    twins = []
    for __ in range(2):
        gm = GenMapper(enable_cache=False)
        build_paper_database(gm.repository, PaperScaleSpec(scale=scale, seed=seed))
        twins.append(gm)
    full, incremental = twins
    incremental.compose(path, materialize=True)
    incremental.derive_subsumed("Term")
    watermark = _max_obj_rel_id(incremental.db)
    for gm in twins:
        append_delta(gm.repository, "Gene", "Term", 300, seed=seed + 5)
        append_taxonomy_delta(gm.repository, "Term", 60, seed=seed + 6)
    full.compose(path, materialize=True)
    full.derive_subsumed("Term")
    refresh_composed(incremental.repository, path, watermark=watermark)
    refresh_subsumed(incremental.repository, "Term", watermark=watermark)
    identical = canonical_snapshot(full.repository) == canonical_snapshot(
        incremental.repository
    )
    for gm in twins:
        gm.close()
    assert identical, "refresh diverged from full rederive"
    results["equivalence"] = identical


def run(scale: float, seed: int, out: Path, db_path: str | None) -> dict:
    from repro.core.genmapper import GenMapper

    results: dict = {"benchmark": "paper_scale", "scale": scale, "seed": seed}
    with tempfile.TemporaryDirectory(prefix="paper-scale-") as tmp:
        # On-disk database: the full shape does not fit comfortably in a
        # :memory: connection, and disk is what the paper measured.
        target = db_path or str(Path(tmp) / "paper.gam")
        gm = GenMapper(target, enable_cache=True)
        try:
            spec, report, build_ms = _build(gm, scale, seed)
            results["shape"] = {
                "sources": report.sources,
                "objects": report.objects,
                "associations": report.associations,
                "mappings": report.mappings,
                "is_a_edges": report.is_a_edges,
            }
            results["build_ms"] = round(build_ms, 3)
            _operator_phase(gm, results)
            _incremental_phase(gm, scale, seed, results)
            _cache_phase(gm, scale, seed, results)
        finally:
            gm.close()
    if scale <= EQUIVALENCE_MAX_SCALE:
        _equivalence_phase(scale, seed, results)
    out.write_text(json.dumps(results, indent=2, sort_keys=True) + "\n",
                   encoding="utf-8")
    return results


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="fraction of the paper shape (1.0 = 2M objects)")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--out", type=Path,
                        default=Path("BENCH_paper_scale.json"))
    parser.add_argument("--db", default=None,
                        help="build the instance at this path instead of a"
                             " temporary directory")
    args = parser.parse_args(argv)
    results = run(args.scale, args.seed, args.out, args.db)
    print(json.dumps(results, indent=2, sort_keys=True))
    print(f"\nwritten to {args.out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
