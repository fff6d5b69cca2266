"""Tests for the source graph and mapping-path search (Section 5.1)."""

import pytest

from repro.gam.enums import RelType
from repro.gam.errors import PathNotFoundError, QuerySpecError
from repro.pathfinder.graph import build_source_graph, connectivity_summary
from repro.pathfinder.saved import PathRegistry
from repro.pathfinder.search import (
    k_shortest_paths,
    path_cost,
    shortest_path,
    shortest_path_via,
    validate_path,
)


@pytest.fixture()
def graph(loaded_genmapper):
    return build_source_graph(loaded_genmapper.repository)


class TestGraphConstruction:
    def test_every_source_is_a_node(self, loaded_genmapper, graph):
        names = {source.name for source in loaded_genmapper.sources()}
        assert set(graph.nodes) == names

    def test_edges_carry_rel_type_and_size(self, graph):
        data = graph.get_edge_data("LocusLink", "GO")
        assert data is not None
        for attrs in data.values():
            assert attrs["rel_type"] is RelType.FACT
            assert attrs["size"] > 0

    def test_structural_rels_are_not_edges(self, graph):
        # Contains relationships (GO -> partitions) are not mapping edges.
        assert not graph.has_edge("GO", "GO.BiologicalProcess")

    def test_connectivity_summary_keys(self, graph):
        summary = connectivity_summary(graph)
        assert summary["sources"] == graph.number_of_nodes()
        assert summary["connected_components"] >= 1
        assert summary["largest_component"] >= 2

    def test_source_committed_mid_build_never_dangles(self, monkeypatch):
        """A concurrent import that commits a source and its mapping right
        after the graph's first read of ``source`` never leaves an edge to
        a source the graph did not read."""
        from repro.gam.database import GamDatabase
        from repro.gam.repository import GamRepository

        class Rows(list):
            def fetchall(self):
                return list(self)

            def fetchone(self):
                return self[0] if self else None

        with GamDatabase() as db:
            repo = GamRepository(db)
            for name in ("A", "B"):
                repo.add_source(name, "Gene")
            repo.ensure_source_rel("A", "B", RelType.FACT)
            execute = db.execute
            raced = []

            def execute_then_commit(sql, parameters=()):
                if raced or "FROM source" not in sql:
                    return execute(sql, parameters)
                rows = Rows(execute(sql, parameters).fetchall())
                raced.append(sql)
                repo.add_source("C", "Gene")
                repo.ensure_source_rel("A", "C", RelType.FACT)
                return rows

            monkeypatch.setattr(db, "execute", execute_then_commit)
            graph = build_source_graph(repo)
            assert raced
            for first, second in graph.edges():
                assert "source" in graph.nodes[first]
                assert "source" in graph.nodes[second]
            assert graph.has_edge("A", "B")


class TestShortestPath:
    def test_direct_mapping_is_one_hop(self, graph):
        assert shortest_path(graph, "LocusLink", "GO") == ("LocusLink", "GO")

    def test_paper_example_unigene_to_go(self, paper_genmapper):
        graph = build_source_graph(paper_genmapper.repository)
        path = shortest_path(graph, "Unigene", "GO")
        assert path == ("Unigene", "LocusLink", "GO")

    def test_same_source_is_trivial_path(self, graph):
        assert shortest_path(graph, "GO", "GO") == ("GO",)

    def test_unknown_source_raises(self, graph):
        with pytest.raises(PathNotFoundError):
            shortest_path(graph, "Nope", "GO")

    def test_disconnected_target_raises(self, graph):
        # Partition sources are only linked by Contains (not a mapping).
        with pytest.raises(PathNotFoundError):
            shortest_path(graph, "LocusLink", "GO.BiologicalProcess")


class TestViaAndAlternatives:
    def test_via_forces_intermediate(self, graph):
        path = shortest_path_via(graph, "NetAffx", "GO", via="Unigene")
        assert "Unigene" in path
        assert path[0] == "NetAffx"
        assert path[-1] == "GO"

    def test_via_intermediate_appears_once(self, graph):
        path = shortest_path_via(graph, "NetAffx", "GO", via="LocusLink")
        assert path.count("LocusLink") == 1

    def test_k_shortest_returns_cheapest_first(self, graph):
        paths = k_shortest_paths(graph, "NetAffx", "GO", k=3)
        assert len(paths) >= 2
        costs = [path_cost(graph, path) for path in paths]
        assert costs == sorted(costs)

    def test_k_shortest_paths_are_distinct(self, graph):
        paths = k_shortest_paths(graph, "NetAffx", "GO", k=4)
        assert len(set(paths)) == len(paths)


class TestPathCostAndValidation:
    def test_fact_edges_cost_one(self, graph):
        assert path_cost(graph, ("LocusLink", "GO")) == pytest.approx(1.0)

    def test_validate_accepts_stored_hops(self, graph):
        assert validate_path(graph, ["NetAffx", "LocusLink", "GO"]) == (
            "NetAffx", "LocusLink", "GO",
        )

    def test_validate_rejects_missing_hop(self, graph):
        with pytest.raises(PathNotFoundError):
            validate_path(graph, ["NetAffx", "OMIM", "GO"])

    def test_validate_rejects_single_source(self, graph):
        with pytest.raises(PathNotFoundError):
            validate_path(graph, ["NetAffx"])


class TestSavedPaths:
    @pytest.fixture()
    def registry(self, paper_genmapper):
        return PathRegistry(paper_genmapper.db)

    def test_save_and_load(self, registry):
        registry.save("to-go", ("Unigene", "LocusLink", "GO"))
        assert registry.load("to-go") == ("Unigene", "LocusLink", "GO")

    def test_save_overwrites(self, registry):
        registry.save("p", ("A", "B"))
        registry.save("p", ("A", "C"))
        assert registry.load("p") == ("A", "C")

    def test_names_listed_sorted(self, registry):
        registry.save("zeta", ("A", "B"))
        registry.save("alpha", ("A", "B"))
        assert registry.names() == ["alpha", "zeta"]

    def test_delete(self, registry):
        registry.save("p", ("A", "B"))
        assert registry.delete("p") is True
        assert registry.delete("p") is False
        assert registry.names() == []

    def test_load_unknown_raises(self, registry):
        with pytest.raises(QuerySpecError, match="saved path"):
            registry.load("nope")

    def test_short_path_rejected(self, registry):
        with pytest.raises(QuerySpecError, match="two sources"):
            registry.save("p", ("A",))

    def test_validating_save_rejects_invalid(self, paper_genmapper, registry):
        graph = build_source_graph(paper_genmapper.repository)
        with pytest.raises(PathNotFoundError):
            registry.save("bad", ("Unigene", "GO"), graph=graph)

    def test_persists_across_registry_instances(self, paper_genmapper):
        PathRegistry(paper_genmapper.db).save("keep", ("A", "B"))
        assert PathRegistry(paper_genmapper.db).load("keep") == ("A", "B")
