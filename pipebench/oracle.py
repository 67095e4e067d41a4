"""networkx oracles for the engine's answers (run outside timed regions)."""

from __future__ import annotations

from typing import Dict

import networkx as nx

from .common import Checks


def digraph(graph) -> nx.DiGraph:
    """The graph as a networkx DiGraph (parallel edges collapse; hop
    distances, components and triangles do not depend on them)."""
    result = nx.DiGraph()
    result.add_nodes_from(graph.vertex_ids.tolist())
    result.add_edges_from(zip(graph.src.tolist(), graph.dst.tolist()))
    return result


def component_labels(g: nx.DiGraph) -> Dict[int, int]:
    """Vertex -> smallest vertex id of its weak component (GraphX's label)."""
    labels = {}
    for component in nx.weakly_connected_components(g):
        low = min(component)
        for vertex in component:
            labels[vertex] = low
    return labels


def triangle_total(g: nx.DiGraph) -> int:
    undirected = nx.Graph(g)
    undirected.remove_edges_from(list(nx.selfloop_edges(undirected)))
    return sum(nx.triangles(undirected).values()) // 3


def check_placement(checks: Checks, pgraph, label: str) -> None:
    """Components, SSSP distances and the triangle total of one placement.

    CC runs to its fixpoint here (the grid caps it at 10 supersteps, which
    need not converge on road networks); SSSP uses the grid's default
    landmark.
    """
    from repro.algorithms import choose_landmarks, run_algorithm, total_triangles

    g = digraph(pgraph.graph)
    cc = run_algorithm("CC", pgraph, num_iterations=pgraph.graph.num_vertices + 1)
    checks.expect(
        cc.vertex_values == component_labels(g), f"{label}: CC labels differ from networkx"
    )

    landmarks = choose_landmarks(pgraph, count=1, seed=7)
    sssp = run_algorithm("SSSP", pgraph, landmarks=landmarks)
    expected: Dict[int, Dict[int, int]] = {vertex: {} for vertex in g}
    reverse = g.reverse(copy=False)
    for landmark in landmarks:
        for vertex, hops in nx.single_source_shortest_path_length(reverse, landmark).items():
            expected[vertex][landmark] = hops
    checks.expect(
        sssp.vertex_values == expected, f"{label}: SSSP distances differ from networkx BFS"
    )

    triangles = total_triangles(run_algorithm("TR", pgraph))
    checks.expect(
        triangles == triangle_total(g),
        f"{label}: triangle total {triangles} != networkx {triangle_total(g)}",
    )
