"""The GenMapper benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload fig6_upload --seed 1 --seconds 15 --trace 0

Run from the root of a checkout; the program is imported and served from
its ``src/``.  Load comes from this one process over loopback, as a
closed loop over two connections (one for exports), against ``python -m
repro.web`` in its own process
with its defaults (tracer off, no event or slow log, 256-entry / 64 MiB
mapping cache).  Every ``REPRO_*`` variable is removed first.  The paper
database and the release universe come from their generators' default
seeds, so every run writes the same data; ``--seed`` draws everything
the requests carry.

Every workload writes a database, then serves reads from it for
``--seconds``, in whole blocks of requests that hold the same work for
every seed, so every workload reports the same end-to-end metrics:

``fig6_upload``
    Writes the paper-shaped database at scale 0.1 (twice before the reads,
    keeping the last, and once more after them); reads are Figure 6
    uploads (``POST /query``) to the hub's hot targets.
``bulk_export``
    Writes the same database; reads are Section 5.2 exports, whole-mapping
    ``GET /map`` downloads (Zipf over every source pair) and whole-hub OR
    views, about four downloads per view.  Not in BENCHMARK.json: a block
    of exports takes about 30 s, more than the manifest's run budget
    leaves once the other two workloads run long enough to be steady.
``release_cycle``
    Writes a curator's release: import release 1 with ``workers=2`` and
    derive, then re-import release 2 and refresh, each in its own process;
    reads are Figure 6 uploads on the refreshed release database to the
    targets of its Composed mappings (with more targets the mappings would
    not fit the cache).

End-to-end metrics: ``setup_s`` (everything that is neither a timed write
nor a timed read: inputs, request streams, the median of three server
starts with cache warm-up), ``write_s`` (the median paper database build,
or the release's import, derivation and update), ``read_p50_ms`` and
``read_p90_ms`` (per-request latency), ``reads_per_s``, ``peak_rss_mb``
(the server's, or the importer's if larger) and ``db_bytes_per_assoc``.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` times an
untraced reference, then the workload with the timing wrappers of
``tracing.py`` installed, and prints the per-layer metrics.  Outputs are
checked after the timed work; a failed check prints the result with
``"correct": false`` and exits 1.  A run that cannot be measured (no
program to measure, too few samples) prints no result and exits 2.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import inputs
import loadgen
import tracing
from common import (
    ROOT, BENCH_DIR, BenchError, Counter, Digest, Server, import_program,
    require_program, request, scrubbed_environment, stop_process, tail,
)

#: Scratch space inside the checkout, removed when the run ends.
WORK_DIR = ROOT / ".perfbench-work"

#: Paper database builds per run; ``write_s`` reports their median.
PAPER_BUILDS = 3
#: Upload sizes on the release database, whose views are about ten times
#: wider per accession than the paper database's.
RELEASE_UPLOADS = (50, 500)
#: Requests timed untraced and then traced in a traced run, for the
#: tracing overhead.
TRACE_REFERENCE = {"query": inputs.UPLOAD_BLOCK, "export": 40}
#: Server starts (each with its cache warm-up) per run; set-up time
#: reports their median.
SERVER_STARTS = 3
#: Response bodies kept per run for the row-for-row checks.
CHECKED_UPLOADS = 12
CHECKED_MAPS = 6
CHECKED_VIEWS = 2


class Run:
    """State of one benchmark invocation: work directory and children."""

    def __init__(self, args: argparse.Namespace) -> None:
        self.seed = args.seed
        self.seconds = float(args.seconds)
        self.trace = bool(args.trace)
        self.work = WORK_DIR / f"{args.workload}-{args.seed}-{os.getpid()}"
        self.work.mkdir(parents=True)
        # SQLite and tempfile spill here, inside the checkout.
        os.environ["TMPDIR"] = os.environ["SQLITE_TMPDIR"] = str(self.work)
        self.env = scrubbed_environment()
        self.counter = Counter()
        self.problems: list[str] = []
        self.digest = Digest()
        self._servers: list[Server] = []

    def server(self, db: Path, spans_out: Path | None = None) -> Server:
        log = self.work / f"server{len(self._servers)}.log"
        server = Server(db, self.env, log, spans_out)
        self._servers.append(server)
        return server

    def stop(self, server: Server) -> None:
        self._servers.remove(server)
        server.stop()

    def cleanup(self) -> None:
        for server in list(self._servers):
            self.stop(server)
        shutil.rmtree(self.work, ignore_errors=True)
        try:
            WORK_DIR.rmdir()
        except OSError:
            pass

    def check(self, problems: list[str]) -> None:
        """Count one output check as an operation; any problem fails it."""
        self.counter.record(not problems)
        self.problems.extend(problems)


def note(text: str) -> None:
    print(f"# {text}", flush=True)


def metrics_snapshot(server: Server) -> dict:
    status, body = request(server.port, "GET", "/metrics", request_id="ctl-metrics")
    if status != 200:
        raise BenchError(f"/metrics answered {status}")
    return json.loads(body)


def counter_total(snapshot: dict, prefix: str) -> float:
    return float(sum(
        value for key, value in snapshot["counters"].items() if key.startswith(prefix)
    ))


def start_warm(run: Run, db: Path, warm: list[loadgen.Req], spans_out=None):
    """Start a server and warm its cache; returns it with the median
    start-plus-warm-up time of ``SERVER_STARTS`` starts (the last kept)."""
    starts = []
    count = 1 if run.trace else SERVER_STARTS
    for attempt in range(count):
        started = time.perf_counter()
        server = run.server(db, spans_out)
        for i, req in enumerate(warm):
            status, __ = request(server.port, req.method, req.path, req.body, f"w{i}")
            if status != 200:
                raise BenchError(f"warm-up request answered {status}")
        starts.append(time.perf_counter() - started)
        if attempt < count - 1:
            run.stop(server)
    return server, statistics.median(starts)


def warm_requests(graph: inputs.Graph, targets: list[str]) -> list[loadgen.Req]:
    """One small upload per target, so each mapping is loaded once."""
    probe = graph.hub_accessions[:50]
    return [
        loadgen.Req("POST", "/query", json.dumps({
            "source": graph.hub, "accessions": probe,
            "targets": [{"name": target}], "combine": "OR",
        }).encode(), "warm")
        for target in targets
    ]


def ms(values: list[float], q: float) -> float:
    return tail(values, q) * 1000.0


def server_layers(spans: Path, before: dict, after: dict) -> dict:
    """Per-layer read metrics of a traced server's requests plus its
    ``/metrics`` counters.

    The requests are the timed ones (ids ``b<n>``) and the cache warm-up
    (``w<n>``), whose mapping loads, path searches and compositions the
    timed requests then find cached; control requests are left out.
    """
    layers = tracing.read_layers(
        tracing.load([spans]), lambda rid: rid[:1] in "bw" and rid[1:].isdigit()
    )
    layers["cache.evictions"] = float(
        after["cache"]["evictions"] - before["cache"]["evictions"]
    )
    layers["cache.invalidations"] = float(
        after["cache"]["invalidations"] - before["cache"]["invalidations"]
    )
    layers["reliability.retries"] = counter_total(after, "reliability.retry.attempts")
    layers["reliability.degraded_serves"] = counter_total(
        after, "reliability.degraded_serves"
    )
    return layers


@dataclasses.dataclass
class Reads:
    """The timed reads of one workload, from the server that served them."""

    outcomes: list[loadgen.Outcome]
    elapsed: float
    start_s: float
    peak_rss_mb: float
    layers: dict | None

    def metrics(self) -> dict:
        latencies = [o.latency for o in self.outcomes]
        return {
            "read_p50_ms": ms(latencies, 50),
            "read_p90_ms": ms(latencies, 90),
            "reads_per_s": sum(o.status == 200 for o in self.outcomes) / self.elapsed,
        }


def serve_reads(run: Run, db: Path, warm: list[loadgen.Req], loop, kind: str) -> Reads:
    """Serve ``db`` and time ``loop(server, seconds, at_least)``.

    A traced run first sends the first requests of the stream to an
    untraced server, then the whole loop to a traced one; the tracing
    overhead compares the time the same requests took on each.
    """
    reference = None
    if run.trace:
        server, __ = start_warm(run, db, warm)
        reference, __ = loop(server, 0.0, TRACE_REFERENCE[kind])
        run.stop(server)
    spans = run.work / "server-spans.jsonl" if run.trace else None
    server, start_s = start_warm(run, db, warm, spans)
    before = metrics_snapshot(server)
    outcomes, elapsed = loop(server, run.seconds, None)
    after = metrics_snapshot(server)
    rss = server.peak_rss_mb()
    run.stop(server)
    layers = None
    if run.trace:
        layers = server_layers(spans, before, after)
        first = len(reference)
        layers["trace.overhead_pct"] = overhead(
            sum(o.latency for o in reference), sum(o.latency for o in outcomes[:first])
        )
    return Reads(outcomes, elapsed, start_s, rss, layers)


def upload_reads(
    run: Run, db: Path, purpose: str, paths: list[list[str]] | None = None,
    sizes: tuple[int, int] = (inputs.UPLOAD_MIN, inputs.UPLOAD_MAX),
) -> tuple[Reads, float]:
    """Figure 6 uploads from the hub of ``db`` in whole stratified blocks,
    checked row for row against an independent evaluation; returns the
    reads and their set-up time (input generation plus the median server
    start).

    The targets are the hub's hot set, or with ``paths`` the ends of those
    derived paths.
    """
    started = time.perf_counter()
    graph = inputs.Graph(db)
    rng = inputs.rng_for(run.seed, purpose)
    if paths is None:
        hot, __ = graph.hot_set()
    else:
        hot = sorted({path[-1] for path in paths})
    reqs = inputs.upload_stream(rng, graph, hot, 60, sizes)
    keep = set(rng.sample(range(inputs.UPLOAD_BLOCK), CHECKED_UPLOADS))
    warm = warm_requests(graph, hot)
    inputs.stream_digest(reqs, run.digest)
    generate_s = time.perf_counter() - started
    note(f"hub {graph.hub}; hot targets {hot}")

    def loop(server: Server, seconds: float, at_least: int | None):
        block = inputs.UPLOAD_BLOCK
        return loadgen.closed_loop(
            server.port, reqs, seconds, keep, run.counter, connections=2,
            at_least=at_least or block, whole=1 if at_least else block,
        )

    reads = serve_reads(run, db, warm, loop, "query")
    run.check(checks.check_views(
        db, [(reqs[o.index].body, o.body) for o in reads.outcomes if o.body]
    ))
    return reads, generate_s + reads.start_s


def build_paper_db(run: Run, name: str) -> float:
    """Write the paper-shaped database afresh; returns the time it took."""
    for path in run.work.glob(f"{name}*"):
        path.unlink()
    started = time.perf_counter()
    inputs.build_paper_db(run.work / name)
    return time.perf_counter() - started


def paper_reads(run: Run, reads_of) -> tuple[Path, float, Reads, dict | None]:
    """Write the paper-shaped database, then time ``reads_of(db)`` on it.

    Untraced, the database is written ``PAPER_BUILDS`` times, the last
    time after the reads, so that the median write time comes from both
    ends of the run.  Returns the database, that median, what
    ``reads_of`` returned, and in a traced run (one write) the write
    path's per-layer metrics.
    """
    import_program()
    recorder = tracing.install() if run.trace else None
    builds = 1 if run.trace else PAPER_BUILDS - 1
    timings = [build_paper_db(run, "paper.db") for __ in range(builds)]
    layers = None
    if recorder is not None:
        layers = tracing.write_layers(list(recorder.spans), [])
    db = run.work / "paper.db"
    reads = reads_of(db)
    if not run.trace:
        timings.append(build_paper_db(run, "rewrite.db"))
    return db, statistics.median(timings), reads, layers


def result(run: Run, db: Path, setup_s: float, write_s: float, reads: Reads,
           peak_rss_mb: float, write_layers: dict | None) -> dict:
    """The workload's metrics: per-layer in a traced run, else end-to-end."""
    inputs.db_digest(db, run.digest)
    if run.trace:
        return {**reads.layers, **write_layers}
    return {
        "setup_s": setup_s,
        "write_s": write_s,
        **reads.metrics(),
        "peak_rss_mb": peak_rss_mb,
        "db_bytes_per_assoc": checks.bytes_per_assoc(db),
    }


# -- fig6_upload -----------------------------------------------------------------


def fig6_upload(run: Run) -> dict:
    db, write_s, (reads, setup_s), write_layers = paper_reads(
        run, lambda db: upload_reads(run, db, "fig6_upload")
    )
    return result(run, db, setup_s, write_s, reads, reads.peak_rss_mb, write_layers)


# -- bulk_export -------------------------------------------------------------------


def row_count(kind: str, body: bytes) -> int:
    """Rows in an export body, read from its envelope field."""
    key = b'"association_count": ' if kind == "map" else b'"row_count": '
    at = body.rfind(key) + len(key)
    end = at
    while body[end:end + 1].isdigit():
        end += 1
    return int(body[at:end])


def export_reads(run: Run, db: Path) -> tuple[Reads, float]:
    """Section 5.2 exports from ``db`` in whole stratified blocks over one
    connection, checked against storage and an independent evaluation;
    returns the reads and their set-up time."""
    started = time.perf_counter()
    graph = inputs.Graph(db)
    rng = inputs.rng_for(run.seed, "bulk_export")
    reqs = inputs.export_stream(rng, graph, 8)
    block = reqs[:inputs.EXPORT_BLOCK]
    maps = [i for i, r in enumerate(block) if r.kind == "map"]
    views = [i for i, r in enumerate(block) if r.kind == "view"]
    keep = set(rng.sample(maps, CHECKED_MAPS)) | set(rng.sample(views, CHECKED_VIEWS))
    warm = warm_requests(graph, graph.neighbours(graph.hub))
    inputs.stream_digest(reqs, run.digest)
    generate_s = time.perf_counter() - started
    note(f"hub {graph.hub}; {len(graph.pairs)} mapping pairs")
    rows = []

    def loop(server: Server, seconds: float, at_least: int | None):
        # Timed exports run in whole stratified blocks, so every seed
        # does the same work.
        return loadgen.closed_loop(
            server.port, reqs, seconds, keep, run.counter, connections=1,
            on_body=lambda o, body: rows.append(row_count(o.kind, body)),
            at_least=inputs.EXPORT_BLOCK if at_least is None else at_least,
            whole=inputs.EXPORT_BLOCK if at_least is None else 1,
        )

    reads = serve_reads(run, db, warm, loop, "export")
    map_samples, view_samples = [], []
    for outcome in reads.outcomes:
        req = reqs[outcome.index]
        if outcome.body and req.kind == "map":
            query = dict(part.split("=") for part in req.path.split("?")[1].split("&"))
            map_samples.append((query["source"], query["target"], outcome.body))
        elif outcome.body:
            view_samples.append((req.body, outcome.body))
    run.check(checks.check_maps(db, map_samples))
    run.check(checks.check_views(db, view_samples))
    for kind in ("map", "view"):
        kind_ms = [1000 * o.latency for o in reads.outcomes if o.kind == kind]
        note(f"{len(kind_ms)} {kind} exports, median {statistics.median(kind_ms):.0f} ms")
    note(f"{sum(rows[-len(reads.outcomes):])} rows exported")
    return reads, generate_s + reads.start_s


def bulk_export(run: Run) -> dict:
    db, write_s, (reads, setup_s), write_layers = paper_reads(
        run, lambda db: export_reads(run, db)
    )
    return result(run, db, setup_s, write_s, reads, reads.peak_rss_mb, write_layers)


# -- release_cycle -----------------------------------------------------------------


def worker(run: Run, phase: str, db: Path, directory: Path, spans_out=None, **extra):
    """Run one release step in its own process; returns its JSON report."""
    cmd = [
        sys.executable, str(BENCH_DIR / "release_worker.py"), phase,
        "--db", str(db), "--dir", str(directory),
    ]
    for key, value in extra.items():
        cmd += [f"--{key}", value]
    if spans_out is not None:
        cmd += ["--spans-out", str(spans_out)]
    with open(run.work / f"{phase}.log", "ab") as log:
        proc = subprocess.Popen(
            cmd, env=run.env, cwd=str(ROOT), stdout=subprocess.PIPE, stderr=log,
            stdin=subprocess.DEVNULL,
        )
        try:
            out, __ = proc.communicate(timeout=150)
        except subprocess.TimeoutExpired:
            raise BenchError(f"{phase} worker timed out") from None
        finally:
            stop_process(proc)
    if proc.returncode != 0:
        raise BenchError(f"{phase} worker failed ({proc.returncode})")
    run.counter.record(True)
    return json.loads(out.decode().strip().splitlines()[-1])


def release_cycle(run: Run) -> dict:
    started = time.perf_counter()
    dir1, dir2 = run.work / "release1", run.work / "release2"
    inputs.emit_release(dir1, inputs.RELEASE_GENES)
    inputs.emit_release(dir2, inputs.RELEASE_GENES_2)
    emit_s = time.perf_counter() - started
    release_mb = inputs.files_digest(dir1, run.digest) / 1e6
    inputs.files_digest(dir2, run.digest)
    db = run.work / "release.db"
    spans = [run.work / f"{name}-spans.jsonl" for name in ("r1", "r2")]
    traced = spans if run.trace else [None, None]

    if run.trace:  # untraced reference import for the tracing overhead
        reference = worker(run, "release1", run.work / "reference.db", dir1)
    first = worker(run, "release1", db, dir1, traced[0])
    second = worker(
        run, "release2", db, dir2, traced[1],
        paths=json.dumps(first["paths"]), taxonomy=first["taxonomy"],
    )
    write_s = first["import_s"] + first["derive_s"] + second["update_s"]
    note(
        f"release 1: {release_mb:.1f} MB imported in {first['import_s']:.2f} s,"
        f" derived in {first['derive_s']:.2f} s; release 2 updated in"
        f" {second['update_s']:.2f} s"
    )
    note(
        f"composed {first['paths']}; refresh delta: composed"
        f" {second['composed_delta']}, subsumed {second['subsumed_delta']}"
        + (" (taxonomy unchanged: empty delta)" if not second["subsumed_delta"] else "")
    )
    reads, read_setup_s = upload_reads(
        run, db, "release_cycle", first["paths"], RELEASE_UPLOADS
    )
    run.check(checks.integrity_problems(db))
    refreshed = checks.derived_digest(db)
    rederived = checks.rederive_digest(
        db, run.work / "rederived.db", first["taxonomy"], first["paths"]
    )
    run.check(
        [] if refreshed == rederived
        else [f"refreshed derived rows {refreshed} != re-derived {rederived}"]
    )
    write_layers = None
    if run.trace:
        write_layers = tracing.write_layers(
            tracing.load(spans[:1]), tracing.load(spans[1:])
        )
        write_layers["reliability.retries"] = (
            reads.layers["reliability.retries"] + first["retries"] + second["retries"]
        )
        reads.layers["trace.overhead_pct"] = statistics.mean((
            reads.layers["trace.overhead_pct"],
            overhead(reference["import_s"], first["import_s"]),
        ))
    peak_rss_mb = max(first["peak_rss_mb"], second["peak_rss_mb"], reads.peak_rss_mb)
    return result(
        run, db, emit_s + read_setup_s, write_s, reads, peak_rss_mb, write_layers
    )


# -- result ---------------------------------------------------------------------------


def overhead(plain_s: float, traced_s: float) -> float:
    """Tracing cost as the percentage by which the same work took longer."""
    return 100.0 * (traced_s / plain_s - 1.0)


WORKLOADS = {
    "fig6_upload": fig6_upload,
    "bulk_export": bulk_export,
    "release_cycle": release_cycle,
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A terminated run still stops its children (the finally below).
    signal.signal(signal.SIGTERM, lambda *__: sys.exit(143))
    try:
        require_program()
        with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
            spec = json.load(handle)
        run = Run(args)
    except (BenchError, OSError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    try:
        values = WORKLOADS[args.workload](run)
    except BenchError as exc:
        print(f"perfbench: run invalid: {exc}", file=sys.stderr)
        return 2
    finally:
        run.cleanup()
    if run.trace:
        values["failed_ratio"] = run.counter.failed / max(run.counter.attempted, 1)
    declared = spec["per_layer"] if run.trace else spec["end_to_end"]
    units = {metric["name"]: metric["unit"] for metric in declared}
    if set(values) != set(units):
        print(
            f"perfbench: measured {sorted(values)}, declared {sorted(units)}",
            file=sys.stderr,
        )
        return 2
    note(f"input digest {run.digest.hexdigest()}")
    for problem in run.problems:
        note(f"CHECK FAILED: {problem}")
    for name in units:
        note(f"{name} = {values[name]:.6g} {units[name]}")
    print(json.dumps({
        "correct": not run.problems,
        "attempted": run.counter.attempted,
        "failed": run.counter.failed,
        "metrics": {
            name: {"value": values[name], "unit": units[name]} for name in units
        },
    }))
    return 0 if not run.problems else 1


if __name__ == "__main__":
    sys.exit(main())
