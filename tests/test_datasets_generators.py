"""Unit tests for the synthetic graph generators."""

import math
import random
from bisect import bisect_left

import pytest

from repro.core import properties as props
from repro.datasets.generators import (
    _cumulative_weights,
    ring_of_cliques,
    road_network,
    social_graph,
)
from repro.errors import DatasetError


class TestRoadNetwork:
    def test_grid_size_and_symmetry(self):
        graph = road_network(rows=4, cols=5, num_components=1, diagonal_prob=0.0, seed=0)
        assert graph.num_vertices == 20
        # 4x5 grid: horizontal edges 4*4, vertical edges 3*5, both directions.
        assert graph.num_edges == 2 * (4 * 4 + 3 * 5)
        assert props.symmetry_percent(graph) == 100.0

    def test_component_count(self):
        graph = road_network(rows=3, cols=3, num_components=4, diagonal_prob=0.0, seed=0)
        assert props.num_weakly_connected_components(graph) == 4
        assert graph.num_vertices == 36

    def test_ids_are_locality_preserving(self):
        graph = road_network(rows=4, cols=4, num_components=1, diagonal_prob=0.0, seed=0)
        # Every edge connects ids that differ by 1 (same row) or by the
        # column count (adjacent rows).
        for src, dst in graph.edge_pairs():
            assert abs(src - dst) in (1, 4)

    def test_diagonals_add_triangles(self):
        without = road_network(rows=6, cols=6, diagonal_prob=0.0, seed=1)
        with_diagonals = road_network(rows=6, cols=6, diagonal_prob=1.0, seed=1)
        assert props.triangle_count(without) == 0
        assert props.triangle_count(with_diagonals) > 0

    def test_deterministic(self):
        first = road_network(rows=5, cols=5, diagonal_prob=0.3, seed=42)
        second = road_network(rows=5, cols=5, diagonal_prob=0.3, seed=42)
        assert first.edge_set() == second.edge_set()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"rows": 1, "cols": 5},
            {"rows": 5, "cols": 1},
            {"rows": 3, "cols": 3, "num_components": 0},
            {"rows": 3, "cols": 3, "diagonal_prob": 1.5},
        ],
    )
    def test_invalid_parameters(self, kwargs):
        with pytest.raises(DatasetError):
            road_network(**kwargs)


class TestSocialGraph:
    def test_deterministic_for_same_seed(self):
        first = social_graph(num_vertices=100, num_edges=400, seed=5)
        second = social_graph(num_vertices=100, num_edges=400, seed=5)
        assert first.edge_set() == second.edge_set()

    def test_different_seeds_differ(self):
        first = social_graph(num_vertices=100, num_edges=400, seed=5)
        second = social_graph(num_vertices=100, num_edges=400, seed=6)
        assert first.edge_set() != second.edge_set()

    def test_edge_count_close_to_target(self):
        graph = social_graph(num_vertices=200, num_edges=1000, seed=1, connect=False)
        assert graph.num_edges >= 1000
        assert graph.num_edges <= 1400  # reciprocity/closure overshoot is bounded

    def test_undirected_graphs_are_fully_symmetric(self):
        graph = social_graph(num_vertices=150, num_edges=600, undirected=True, seed=2)
        assert props.symmetry_percent(graph) == 100.0

    def test_reciprocity_controls_symmetry(self):
        low = social_graph(num_vertices=200, num_edges=1200, reciprocity=0.05, seed=3)
        high = social_graph(num_vertices=200, num_edges=1200, reciprocity=0.9, seed=3)
        assert props.symmetry_percent(low) < props.symmetry_percent(high)

    def test_zero_fraction_roles_produce_leaf_vertices(self):
        graph = social_graph(
            num_vertices=300,
            num_edges=1500,
            zero_in_fraction=0.3,
            zero_out_fraction=0.2,
            reciprocity=0.2,
            seed=4,
        )
        assert props.zero_in_percent(graph) > 15.0
        assert props.zero_out_percent(graph) > 8.0

    def test_connect_produces_single_component(self):
        graph = social_graph(num_vertices=200, num_edges=600, connect=True, num_components=1, seed=7)
        assert props.num_weakly_connected_components(graph) == 1

    def test_satellite_components(self):
        graph = social_graph(
            num_vertices=300, num_edges=900, connect=True, num_components=6, seed=8
        )
        assert props.num_weakly_connected_components(graph) == 6

    def test_superstars_create_heavy_tail(self):
        graph = social_graph(
            num_vertices=400,
            num_edges=2000,
            superstar_count=5,
            superstar_boost=50.0,
            reciprocity=0.1,
            seed=9,
        )
        in_degrees = sorted(graph.in_degrees().values(), reverse=True)
        mean_degree = sum(in_degrees) / len(in_degrees)
        assert in_degrees[0] > 8 * mean_degree

    def test_triadic_closure_increases_triangles(self):
        open_graph = social_graph(num_vertices=200, num_edges=1200, triadic_closure=0.0, seed=10)
        closed_graph = social_graph(num_vertices=200, num_edges=1200, triadic_closure=0.7, seed=10)
        assert props.triangle_count(closed_graph) > props.triangle_count(open_graph)

    def test_shuffle_ids_changes_labels_not_structure(self):
        plain = social_graph(num_vertices=150, num_edges=500, shuffle_ids=False, seed=11)
        shuffled = social_graph(num_vertices=150, num_edges=500, shuffle_ids=True, seed=11)
        assert plain.num_edges == shuffled.num_edges
        assert plain.edge_set() != shuffled.edge_set()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"num_vertices": 1, "num_edges": 5},
            {"num_vertices": 10, "num_edges": 0},
            {"num_vertices": 10, "num_edges": 5, "exponent": 1.0},
            {"num_vertices": 10, "num_edges": 5, "reciprocity": 1.2},
            {"num_vertices": 10, "num_edges": 5, "zero_in_fraction": 0.6, "zero_out_fraction": 0.5},
            {"num_vertices": 10, "num_edges": 5, "num_components": 0},
        ],
    )
    def test_invalid_parameters(self, kwargs):
        with pytest.raises(DatasetError):
            social_graph(seed=0, **kwargs)


def _bisection_oracle(weights, target):
    """The hand-written bisection ``social_graph`` sampled with originally.

    Returns the first index whose running sum is >= ``target``, clamped to
    the last index, with the running sums accumulated one weight at a time.
    """
    cumulative = []
    total = 0.0
    for w in weights:
        total += w
        cumulative.append(total)
    lo, hi = 0, len(cumulative) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if cumulative[mid] < target:
            lo = mid + 1
        else:
            hi = mid
    return lo, cumulative, total


def _edge_case_weights():
    rng = random.Random(13)
    vectors = [
        [1.0],
        [0.0, 0.0, 3.5, 0.0, 0.0],  # a single positive weight
        [2.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 0.25],
        [1.0, 2.0, 3.0, 0.0, 0.0, 0.0],  # trailing zeros
        [0.0, 1.0, 0.0, 0.0, 1.0, 0.0, 0.0, 1.0],
    ]
    for _ in range(40):
        # Power-law-like weights with zeroed plateaus, as the leaf roles make.
        n = rng.randint(2, 300)
        weights = [(i + 1) ** -rng.uniform(0.5, 1.2) for i in range(n)]
        for _ in range(rng.randint(0, 6)):
            start = rng.randrange(n)
            for i in range(start, min(n, start + rng.randint(1, 40))):
                weights[i] = 0.0
        if rng.random() < 0.5:
            trailing = rng.randint(1, max(1, n // 4))
            weights[n - trailing:] = [0.0] * trailing
        if any(weights):
            vectors.append(weights)
    return vectors


class TestCumulativeSearch:
    """``bisect_left`` over ``_cumulative_weights`` must pick what the old bisection picked."""

    @pytest.mark.parametrize("weights", _edge_case_weights())
    def test_matches_bisection_oracle(self, weights):
        cumulative, total = _cumulative_weights(weights)
        _, oracle_cumulative, oracle_total = _bisection_oracle(weights, 0.0)
        assert total == oracle_total
        assert cumulative[:-1] == oracle_cumulative[:-1]

        rng = random.Random(len(weights))
        targets = [0.0, math.nextafter(total, 0.0), total]
        targets += oracle_cumulative  # every plateau and step boundary
        targets += [math.nextafter(c, 0.0) for c in oracle_cumulative if c > 0.0]
        targets += [rng.random() * total for _ in range(200)]
        for target in targets:
            index = bisect_left(cumulative, target)
            assert index == _bisection_oracle(weights, target)[0], target
            if 0.0 < target < total:
                assert weights[index] > 0.0, (index, target)


class TestRingOfCliques:
    def test_structure(self):
        graph = ring_of_cliques(num_cliques=3, clique_size=4)
        assert graph.num_vertices == 12
        assert props.symmetry_percent(graph) == 100.0
        assert props.num_weakly_connected_components(graph) == 1
        # Each 4-clique contributes C(4,3)=4 triangles.
        assert props.triangle_count(graph) >= 12

    def test_single_clique(self):
        graph = ring_of_cliques(num_cliques=1, clique_size=5)
        assert props.triangle_count(graph) == 10

    def test_invalid_parameters(self):
        with pytest.raises(DatasetError):
            ring_of_cliques(0, 4)
        with pytest.raises(DatasetError):
            ring_of_cliques(3, 1)
