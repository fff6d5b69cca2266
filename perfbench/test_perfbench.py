"""Self-tests of the benchmark's own arithmetic and input generation.

Run with ``python -m pytest perfbench``.  The repository's default test
run does not collect this directory, so no timing bound reaches it.
"""

from __future__ import annotations

import json

import pytest

import inputs
from common import BenchError, Digest, percentile, supports_percentile, tail
from tracing import self_times, union_length


def span(sid, parent, name, start, end):
    return (sid, parent, name, start, end, "a1", 1, {})


def test_self_time_subtracts_nested_children():
    spans = [
        span(1, 0, "web.edge", 0.0, 10.0),
        span(2, 1, "core.map", 1.0, 6.0),
        span(3, 2, "gam.execute", 2.0, 3.0),
        span(4, 2, "gam.fetch", 3.0, 5.0),
        span(5, 1, "web.encode", 7.0, 8.0),
    ]
    own = self_times(spans)
    assert own[1] == pytest.approx(10.0 - 5.0 - 1.0)
    assert own[2] == pytest.approx(5.0 - 1.0 - 2.0)
    assert own[3] == pytest.approx(1.0)
    assert own[5] == pytest.approx(1.0)
    # Self times of a tree add up to the root's duration.
    assert sum(own.values()) == pytest.approx(10.0)


def test_self_time_counts_overlapping_children_once():
    spans = [
        span(1, 0, "web.edge", 0.0, 10.0),
        span(2, 1, "gam.fetch", 2.0, 6.0),
        span(3, 1, "gam.fetch", 4.0, 8.0),
        span(4, 1, "gam.fetch", 9.0, 12.0),  # ends after its parent
    ]
    assert self_times(spans)[1] == pytest.approx(10.0 - 6.0 - 1.0)
    assert union_length([(2.0, 6.0), (4.0, 8.0), (9.0, 12.0)]) == pytest.approx(9.0)


def test_percentile_needs_ten_samples_beyond_it():
    assert supports_percentile(1000, 99)
    assert not supports_percentile(999, 99)
    assert supports_percentile(100, 90)
    assert not supports_percentile(99, 90)
    assert supports_percentile(20, 50) and not supports_percentile(19, 50)
    with pytest.raises(BenchError):
        tail([0.1] * 999, 99)
    assert tail(list(range(1001)), 99) == pytest.approx(990.0)


def test_percentile_interpolates():
    assert percentile([3.0, 1.0, 2.0, 4.0], 50) == pytest.approx(2.5)
    assert percentile([5.0], 99) == 5.0


@pytest.fixture(scope="module")
def small_graph(tmp_path_factory):
    path = tmp_path_factory.mktemp("db") / "small.db"
    inputs.PAPER_SCALE, scale = 0.03, inputs.PAPER_SCALE
    try:
        inputs.build_paper_db(path)
    finally:
        inputs.PAPER_SCALE = scale
    return inputs.Graph(path)


def streams(graph, seed):
    rng = inputs.rng_for(seed, "test")
    hot, __ = graph.hot_set()
    digest = Digest()
    reqs = inputs.upload_stream(rng, graph, hot, 1) + inputs.export_stream(
        rng, graph, 2
    )
    inputs.stream_digest(reqs, digest)
    return b"".join(r.method.encode() + r.path.encode() + (r.body or b"") for r in reqs), digest.hexdigest()


def test_request_streams_are_byte_identical_for_one_seed(small_graph):
    assert streams(small_graph, 5) == streams(small_graph, 5)
    assert streams(small_graph, 5) != streams(small_graph, 6)


def test_upload_blocks_hold_the_same_work_in_any_order(small_graph):
    hot, __ = small_graph.hot_set()
    blocks = [
        inputs.upload_stream(inputs.rng_for(seed, "x"), small_graph, hot, 2)
        for seed in (1, 2)
    ]

    def work(reqs):
        specs = [json.loads(r.body) for r in reqs]
        return sorted(
            (len(s["accessions"]), s["combine"], json.dumps(s["targets"]))
            for s in specs
        )

    for first, second in zip(*(
        [reqs[:inputs.UPLOAD_BLOCK], reqs[inputs.UPLOAD_BLOCK:]] for reqs in blocks
    )):
        assert len(first) == inputs.UPLOAD_BLOCK
        assert work(first) == work(second)
        assert [r.body for r in first] != [r.body for r in second]
    sizes = [len(json.loads(r.body)["accessions"]) for r in blocks[0]]
    assert min(sizes) >= inputs.UPLOAD_MIN and max(sizes) <= inputs.UPLOAD_MAX


def test_export_blocks_hold_the_same_work_in_any_order(small_graph):
    blocks = [inputs.export_stream(inputs.rng_for(seed, "x"), small_graph, 1) for seed in (1, 2)]
    assert [r.kind for r in blocks[0]] == [r.kind for r in blocks[1]]
    assert sorted(r.path for r in blocks[0]) == sorted(r.path for r in blocks[1])
    assert [r.path for r in blocks[0]] != [r.path for r in blocks[1]]
    assert sum(r.kind == "view" for r in blocks[0]) == inputs.EXPORT_BLOCK // 5


def test_hot_set_comes_from_the_database(small_graph):
    hot, far = small_graph.hot_set()
    assert small_graph.hub == "Gene"
    assert set(small_graph.neighbours("Gene")) <= set(hot)
    assert len(far) == 2 and set(far) <= set(hot)
    for target, (hub, middle, end) in far.items():
        assert (hub, end) == ("Gene", target)
        assert middle in small_graph.neighbours("Gene")
        assert target in small_graph.neighbours(middle)
        assert target not in small_graph.neighbours("Gene")
