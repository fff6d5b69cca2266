"""The graph of sources and mappings (paper Section 5.1).

GenMapper "internally manages a graph of all available sources and
mappings" and uses a shortest-path algorithm to determine a mapping path
from a source to any specified target.  This module builds that graph from
the GAM database as an undirected :mod:`networkx` multigraph — undirected
because associations are navigable in both directions.

Edge weights make path search prefer trustworthy mappings: imported Fact
edges cost 1.0, Similarity edges slightly more, derived edges more still,
so a Fact chain of equal length always beats a derived shortcut of the same
hop count while a materialized Composed edge still beats re-deriving a long
chain.
"""

from __future__ import annotations

import networkx as nx

from repro.gam.enums import RelType
from repro.gam.repository import GamRepository

#: Path-search cost per mapping edge, by relationship type.
EDGE_WEIGHTS = {
    RelType.FACT: 1.0,
    RelType.SIMILARITY: 1.25,
    RelType.COMPOSED: 1.5,
    RelType.SUBSUMED: 1.5,
}


def build_source_graph(repository: GamRepository) -> nx.MultiGraph:
    """Build the source/mapping graph from the database.

    Nodes are source names (with the source record as ``source`` data);
    edges are mapping-type relationships (keyed by ``src_rel_id``) with
    ``rel_type``, ``weight`` and ``size`` (association count) attributes.
    Intra-source mappings (e.g. Subsumed) become self-loops, which the
    shortest-path search naturally ignores.
    """
    graph = nx.MultiGraph()
    sources, mappings = repository.sources_and_mappings()
    sources_by_id = {}
    for source in sources:
        sources_by_id[source.source_id] = source
        graph.add_node(source.name, source=source)
    for rel in mappings:
        source1 = sources_by_id[rel.source1_id]
        source2 = sources_by_id[rel.source2_id]
        graph.add_edge(
            source1.name,
            source2.name,
            key=rel.src_rel_id,
            rel_type=rel.type,
            weight=EDGE_WEIGHTS[rel.type],
            size=repository.count_associations(rel),
        )
    return graph


def connectivity_summary(graph: nx.MultiGraph) -> dict[str, float]:
    """Headline statistics of the source graph (CLI ``stats`` output)."""
    simple_edges = {frozenset(edge[:2]) for edge in graph.edges if edge[0] != edge[1]}
    components = list(nx.connected_components(graph))
    degrees = [degree for __, degree in graph.degree()]
    return {
        "sources": graph.number_of_nodes(),
        "mappings": graph.number_of_edges(),
        "linked_source_pairs": len(simple_edges),
        "connected_components": len(components),
        "largest_component": max((len(c) for c in components), default=0),
        "mean_degree": (sum(degrees) / len(degrees)) if degrees else 0.0,
    }
