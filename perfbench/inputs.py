"""Seeded inputs: databases, release files and request streams.

The paper-shaped database and the release universe come from their
generators' default seeds; ``--seed`` draws the requests.  Every name the
requests use (the hub source, its hot targets, the accession pool, the
mapping pairs, the taxonomy) is read back from the built database with
plain ``sqlite3``, never hard-coded, and the digest of all inputs is
printed so a change to the generators shows up as a different workload
rather than as a speed-up.
"""

from __future__ import annotations

import itertools
import json
import math
import random
import sqlite3
from pathlib import Path

from common import Digest, import_program
from loadgen import Req

#: Paper shape at one tenth of Section 8's deployment (13 sources,
#: 200k objects, 500k associations, 50 mappings of 10k associations).
PAPER_SCALE = 0.1

#: Release universe: 15k genes (11 flat files, ~15 MB); release 2 adds 5%.
RELEASE_GENES = 15_000
RELEASE_GENES_2 = 15_750
RELEASE_GO_TERMS = 2_000

#: Relationship types that form the source graph (``MAPPING_TYPES``).
_GRAPH_TYPES = ("Fact", "Similarity", "Composed", "Subsumed")

#: Requests per stratified block of the export stream: 80 downloads and
#: 20 views, so >= 10 lie beyond p90.
EXPORT_BLOCK = 100

#: Upload sizes (Figure 6): 2,500 is Section 5.2's differentially
#: expressed gene count.
UPLOAD_MIN, UPLOAD_MAX = 50, 2_500

#: Requests per stratified block of an upload stream.
UPLOAD_BLOCK = 100


def rng_for(seed: int, purpose: str) -> random.Random:
    return random.Random(f"{seed}:{purpose}")


def build_paper_db(path: Path) -> None:
    """The paper-shaped database, with planner statistics.

    The data generator keeps its own default seed: every ``--seed`` runs
    against the same database, so seeds vary the requests, not the
    graph the requests run on (whose hub degree would otherwise swing
    per-request cost from seed to seed).
    """
    import_program()
    from repro.core.genmapper import GenMapper
    from repro.datagen.scale import PaperScaleSpec, build_paper_database

    with GenMapper(path) as genmapper:
        build_paper_database(genmapper.repository, PaperScaleSpec(scale=PAPER_SCALE))
        genmapper.db.analyze()


def emit_release(directory: Path, genes: int) -> None:
    """One curator release of the synthetic universe as flat files.

    Like the paper database, the universe keeps its generator's default
    seed: every release of a size holds the same records, and the Composed
    paths the release derives (and the reads then query) do not change
    from seed to seed.
    """
    import_program()
    from repro.datagen.emit import write_universe
    from repro.datagen.universe import UniverseConfig, generate_universe

    universe = generate_universe(
        UniverseConfig(n_genes=genes, n_go_terms=RELEASE_GO_TERMS)
    )
    write_universe(universe, directory)


def files_digest(directory: Path, digest: Digest) -> int:
    """Fold every emitted file into ``digest``; returns total bytes."""
    total = 0
    for path in sorted(directory.iterdir()):
        data = path.read_bytes()
        total += len(data)
        digest.add(path.name, data)
    return total


def db_digest(path: Path, digest: Digest) -> None:
    """Fold the database's logical content (plain ``sqlite3``) into ``digest``."""
    connection = sqlite3.connect(f"file:{path}?mode=ro", uri=True)
    try:
        for sql in (
            "SELECT source_id, name, content, structure FROM source"
            " ORDER BY source_id",
            "SELECT object_id, source_id, accession, text, number FROM object"
            " ORDER BY object_id",
            "SELECT src_rel_id, source1_id, source2_id, type FROM source_rel"
            " ORDER BY src_rel_id",
            "SELECT src_rel_id, object1_id, object2_id, evidence FROM object_rel"
            " ORDER BY obj_rel_id",
        ):
            cursor = connection.execute(sql)
            while True:
                rows = cursor.fetchmany(20_000)
                if not rows:
                    break
                digest.add(rows)
    finally:
        connection.close()


class Graph:
    """The source graph, mapping sizes and hub accessions of a built database."""

    def __init__(self, path: Path) -> None:
        connection = sqlite3.connect(f"file:{path}?mode=ro", uri=True)
        try:
            self.sizes = dict(connection.execute(
                "SELECT s.name, count(o.object_id) FROM source s"
                " LEFT JOIN object o USING (source_id) GROUP BY s.name"
            ).fetchall())
            rels = connection.execute(
                "SELECT s1.name, s2.name, r.type, count(x.obj_rel_id)"
                " FROM source_rel r"
                " JOIN source s1 ON s1.source_id = r.source1_id"
                " JOIN source s2 ON s2.source_id = r.source2_id"
                " LEFT JOIN object_rel x USING (src_rel_id)"
                " GROUP BY r.src_rel_id ORDER BY r.src_rel_id"
            ).fetchall()
            #: The hub: the source holding the most objects.
            self.hub = max(sorted(self.sizes), key=lambda name: self.sizes[name])
            self.hub_accessions = [row[0] for row in connection.execute(
                "SELECT accession FROM object JOIN source USING (source_id)"
                " WHERE name = ? ORDER BY accession", (self.hub,)
            )]
        finally:
            connection.close()
        #: Associations of the largest mapping between each linked pair.
        self.links: dict[frozenset, int] = {}
        touching: dict[str, int] = {}
        taxonomies = set()
        for a, b, kind, count in rels:
            if kind == "Is-a":
                taxonomies.add(a)
            if kind in _GRAPH_TYPES and a != b:
                key = frozenset((a, b))
                self.links[key] = max(self.links.get(key, 0), count)
                for name in (a, b):
                    touching[name] = touching.get(name, 0) + count
        self.pairs = sorted(tuple(sorted(key)) for key in self.links)
        #: The taxonomy most used for annotation (the GO-like source).
        self.taxonomy = max(
            sorted(taxonomies), key=lambda name: touching.get(name, 0), default=None
        )

    def neighbours(self, name: str) -> list[str]:
        return sorted(
            other for key in self.links if name in key for other in key if other != name
        )

    def two_hop(self, name: str) -> dict[str, tuple[float, str]]:
        """Sources two hops from ``name`` whose composed mapping stays
        annotation-sized, each with its estimated size and the
        intermediate that keeps it smallest.

        The composed size is estimated as |M1| * |M2| / |intermediate|; a
        path expected to exceed two partners per object is left out.
        """
        near = self.neighbours(name)
        best: dict[str, tuple[float, str]] = {}
        for middle in near:
            first = self.links[frozenset((name, middle))]
            for far in self.neighbours(middle):
                if far == name or far in near:
                    continue
                estimate = (
                    first * self.links[frozenset((middle, far))]
                    / max(self.sizes[middle], 1)
                )
                if far not in best or estimate < best[far][0]:
                    best[far] = (estimate, middle)
        limit = 2 * self.sizes[name]
        return {far: value for far, value in best.items() if value[0] <= limit}

    def hot_set(self) -> tuple[list[str], dict[str, list[str]]]:
        """The hub's direct neighbours plus its two largest 2-hop targets,
        the latter with their mapping paths."""
        far = self.two_hop(self.hub)
        chosen = sorted(far, key=lambda target: (-far[target][0], target))[:2]
        paths = {target: [self.hub, far[target][1], target] for target in chosen}
        return self.neighbours(self.hub) + chosen, paths


def _body(payload: dict) -> bytes:
    return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()


def upload_stream(
    rng: random.Random,
    graph: Graph,
    hot: list[str],
    blocks: int,
    sizes: tuple[int, int] = (UPLOAD_MIN, UPLOAD_MAX),
) -> list[Req]:
    """Figure 6 sessions: a fresh upload of hub accessions per request.

    Each block of ``UPLOAD_BLOCK`` uploads holds the same work whatever the
    seed: sizes at evenly spaced log-uniform quantiles of ``sizes``, 1-3
    targets cycling through every combination of ``hot``, AND and OR in
    turn, and one target in seven negated.  The seed orders each block
    and draws the accessions, each upload a slice of one seeded
    permutation of the hub's accessions.
    """
    low, high = (math.log(size) for size in sizes)
    combos = [
        list(combo)
        for width in range(1, min(3, len(hot)) + 1)
        for combo in itertools.combinations(hot, width)
    ]
    pool = list(graph.hub_accessions)
    rng.shuffle(pool)
    pool += pool[:sizes[1]]
    reqs = []
    slot = 0
    for block in range(blocks):
        template = []
        for k in range(UPLOAD_BLOCK):
            n = block * UPLOAD_BLOCK + k
            targets = []
            for name in combos[n % len(combos)]:
                targets.append({"name": name, "negated": slot % 7 == 3})
                slot += 1
            size = int(round(math.exp(low + (high - low) * (k + 0.5) / UPLOAD_BLOCK)))
            template.append((size, targets, ("AND", "OR")[n % 2]))
        rng.shuffle(template)
        for size, targets, combine in template:
            start = rng.randrange(len(graph.hub_accessions))
            payload = {
                "source": graph.hub,
                "accessions": sorted(pool[start:start + size]),
                "targets": targets,
                "combine": combine,
            }
            reqs.append(Req("POST", "/query", _body(payload), "query"))
    return reqs


def export_stream(rng: random.Random, graph: Graph, blocks: int) -> list[Req]:
    """Section 5.2 exports: whole-mapping downloads over all source pairs
    (Zipf-skewed, ranked in name order), and one whole-hub OR view of 2 or
    3 of the hub's neighbours per four downloads.

    Each block of ``EXPORT_BLOCK`` requests holds the same downloads (each
    pair's Zipf share) and views (every target combination in turn); the
    seed orders them.  Seeds then differ in order, not in work.
    """
    pairs = graph.pairs
    views_per_block = EXPORT_BLOCK // 5
    downloads = EXPORT_BLOCK - views_per_block
    weights = [1.0 / (rank + 1) for rank in range(len(pairs))]
    quotas = [downloads * w / sum(weights) for w in weights]
    counts = [int(q) for q in quotas]
    by_remainder = sorted(range(len(pairs)), key=lambda i: counts[i] - quotas[i])
    for i in by_remainder[: downloads - sum(counts)]:
        counts[i] += 1
    neighbours = graph.neighbours(graph.hub)
    combos = [
        list(combo)
        for width in (2, 3)
        for combo in itertools.combinations(neighbours, width)
    ]
    reqs = []
    for block in range(blocks):
        maps = [pair for pair, n in zip(pairs, counts) for __ in range(n)]
        rng.shuffle(maps)
        views = [
            combos[(block * views_per_block + k) % len(combos)]
            for k in range(views_per_block)
        ]
        rng.shuffle(views)
        for i in range(EXPORT_BLOCK):
            if i % 5 == 4:
                payload = {
                    "source": graph.hub,
                    "targets": [{"name": name} for name in views.pop()],
                    "combine": "OR",
                }
                reqs.append(Req("POST", "/query", _body(payload), "view"))
            else:
                a, b = maps.pop()
                reqs.append(Req("GET", f"/map?source={a}&target={b}", None, "map"))
    return reqs


def stream_digest(reqs: list[Req], digest: Digest) -> None:
    for req in reqs:
        digest.add(req.method, req.path, req.body or b"")
