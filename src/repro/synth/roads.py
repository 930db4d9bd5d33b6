"""Road-network mobility: agents that drive on streets, not bee-lines.

The straight-line mobility of :mod:`repro.synth.mobility` is a
conservative substrate (real travel distance is longer than the
geodesic, which the paper leans on: "the real traveling distance is
usually longer than d as no one can travel in exactly straight lines").
This module provides the more realistic variant: a random planar road
graph over the city, with agents travelling along shortest paths.

The network is a jittered grid with random diagonal shortcuts and a
small fraction of removed edges — enough irregularity that shortest
paths meaningfully exceed straight-line distance, while staying
connected by construction checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.errors import ValidationError
from repro.geo.units import kph_to_mps
from repro.synth.city import CityModel
from repro.synth.mobility import GroundTruthPath, _WaypointBuilder

if TYPE_CHECKING:
    import networkx as nx


@dataclass(frozen=True)
class RoadNetwork:
    """A connected planar road graph over a city.

    Attributes
    ----------
    graph:
        ``networkx.Graph`` whose nodes carry ``pos=(x, y)`` metres and
        whose edges carry ``length`` metres.
    node_positions:
        ``(n, 2)`` array of node coordinates, indexed by node id.
    """

    graph: nx.Graph
    node_positions: np.ndarray

    @property
    def n_nodes(self) -> int:
        return int(self.node_positions.shape[0])

    def nearest_node(self, x: float, y: float) -> int:
        """Graph node closest to a planar point."""
        dists = np.hypot(
            self.node_positions[:, 0] - x, self.node_positions[:, 1] - y
        )
        return int(np.argmin(dists))

    def shortest_path_nodes(self, source: int, target: int) -> list[int]:
        """Node sequence of the length-weighted shortest path."""
        import networkx as nx

        return nx.shortest_path(
            self.graph, source, target, weight="length"
        )

    def path_length_m(self, nodes: list[int]) -> float:
        """Total metres along a node sequence."""
        total = 0.0
        for a, b in zip(nodes, nodes[1:]):
            total += self.graph[a][b]["length"]
        return total


def build_road_network(
    city: CityModel,
    rng: np.random.Generator,
    spacing_m: float = 1_500.0,
    jitter_fraction: float = 0.2,
    removal_fraction: float = 0.08,
    diagonal_fraction: float = 0.15,
) -> RoadNetwork:
    """A jittered-grid road network covering the city's bounding box.

    Parameters
    ----------
    spacing_m:
        Grid pitch of intersections.
    jitter_fraction:
        Node position jitter as a fraction of the pitch.
    removal_fraction:
        Fraction of grid edges randomly removed (only removals that
        keep the graph connected are applied).
    diagonal_fraction:
        Fraction of grid cells given one diagonal shortcut.
    """
    # Imported here: networkx is a test extra, and importing this module
    # (hence repro.synth, repro.datasets and the CLI) must not need it.
    import networkx as nx

    if spacing_m <= 0:
        raise ValidationError(f"spacing_m must be positive, got {spacing_m}")
    if not 0 <= jitter_fraction < 0.5:
        raise ValidationError("jitter_fraction must be in [0, 0.5)")
    if not 0 <= removal_fraction < 1:
        raise ValidationError("removal_fraction must be in [0, 1)")
    if not 0 <= diagonal_fraction <= 1:
        raise ValidationError("diagonal_fraction must be in [0, 1]")

    bbox = city.bbox
    n_cols = max(int(np.floor(bbox.width / spacing_m)) + 1, 2)
    n_rows = max(int(np.floor(bbox.height / spacing_m)) + 1, 2)

    graph = nx.Graph()
    positions = np.empty((n_rows * n_cols, 2))

    def node_id(r: int, c: int) -> int:
        return r * n_cols + c

    for r in range(n_rows):
        for c in range(n_cols):
            x = bbox.min_x + c * spacing_m + rng.uniform(
                -jitter_fraction, jitter_fraction
            ) * spacing_m
            y = bbox.min_y + r * spacing_m + rng.uniform(
                -jitter_fraction, jitter_fraction
            ) * spacing_m
            x, y = bbox.clip(x, y)
            nid = node_id(r, c)
            positions[nid] = (x, y)
            graph.add_node(nid, pos=(x, y))

    def add_edge(a: int, b: int) -> None:
        ax, ay = positions[a]
        bx, by = positions[b]
        graph.add_edge(a, b, length=float(np.hypot(bx - ax, by - ay)))

    for r in range(n_rows):
        for c in range(n_cols):
            if c + 1 < n_cols:
                add_edge(node_id(r, c), node_id(r, c + 1))
            if r + 1 < n_rows:
                add_edge(node_id(r, c), node_id(r + 1, c))
            if (
                c + 1 < n_cols
                and r + 1 < n_rows
                and rng.random() < diagonal_fraction
            ):
                if rng.random() < 0.5:
                    add_edge(node_id(r, c), node_id(r + 1, c + 1))
                else:
                    add_edge(node_id(r, c + 1), node_id(r + 1, c))

    # Remove a fraction of edges, refusing removals that disconnect.
    edges = list(graph.edges())
    rng.shuffle(edges)
    to_remove = int(removal_fraction * len(edges))
    removed = 0
    for a, b in edges:
        if removed >= to_remove:
            break
        data = graph[a][b].copy()
        graph.remove_edge(a, b)
        if nx.is_connected(graph):
            removed += 1
        else:
            graph.add_edge(a, b, **data)

    return RoadNetwork(graph=graph, node_positions=positions)


def build_road_taxi_path(
    city: CityModel,
    network: RoadNetwork,
    duration_s: float,
    rng: np.random.Generator,
    speed_low_kph: float = 25.0,
    speed_high_kph: float = 70.0,
    dwell_max_s: float = 600.0,
    start_time: float = 0.0,
) -> GroundTruthPath:
    """Taxi wandering along the road network's shortest paths.

    Like :func:`repro.synth.mobility.build_taxi_path`, but every trip
    follows street geometry: the agent drives node-to-node along the
    shortest road path between the intersections nearest to the origin
    and destination POIs.
    """
    if duration_s <= 0:
        raise ValidationError(f"duration_s must be positive, got {duration_s}")
    if not 0 < speed_low_kph <= speed_high_kph:
        raise ValidationError("need 0 < speed_low_kph <= speed_high_kph")
    start_poi = city.random_poi(rng)
    current = network.nearest_node(*start_poi)
    x0, y0 = network.node_positions[current]
    builder = _WaypointBuilder.start(start_time, float(x0), float(y0))
    end = start_time + duration_s
    while builder.now < end:
        dest_poi = city.random_poi(rng)
        target = network.nearest_node(*dest_poi)
        if target != current:
            speed = kph_to_mps(float(rng.uniform(speed_low_kph, speed_high_kph)))
            for node in network.shortest_path_nodes(current, target)[1:]:
                nx_, ny_ = network.node_positions[node]
                builder.travel_to(float(nx_), float(ny_), speed)
            current = target
        builder.dwell_until(builder.now + float(rng.uniform(0.0, dwell_max_s)))
    builder.dwell_until(end)
    return builder.build()


def detour_ratio(
    network: RoadNetwork, rng: np.random.Generator, n_samples: int = 50
) -> float:
    """Mean road-distance / straight-line-distance over random node pairs.

    A sanity metric for generated networks: > 1 by construction, and
    typically 1.1-1.4 for jittered grids — matching the paper's remark
    that real travel exceeds the geometric distance.
    """
    if n_samples < 1:
        raise ValidationError("n_samples must be >= 1")
    ratios = []
    n = network.n_nodes
    while len(ratios) < n_samples:
        a, b = rng.integers(0, n, size=2)
        if a == b:
            continue
        ax, ay = network.node_positions[a]
        bx, by = network.node_positions[b]
        straight = float(np.hypot(bx - ax, by - ay))
        if straight < 1.0:
            continue
        road = network.path_length_m(
            network.shortest_path_nodes(int(a), int(b))
        )
        ratios.append(road / straight)
    return float(np.mean(ratios))
