"""Seeded workload inputs: the candidate pool, query streams and store.

Everything the daemon serves is generated here from ``--seed`` and
handed over only as data: a trajectory store (the Q pool plus a fitted
model artifact, activated) and the request bodies the load generator
sends.  Same seed, same bytes.

Queries are fresh P-service observations of pool agents: each call to
:meth:`Population.fresh_queries` observes agents again with new random
draws, so every query is a trajectory the daemon has never seen, and
its ground-truth match is the agent's Q trajectory.  Each input stream
(queries sent open-loop, closed-loop, written records, ...) draws from
its own generator, so the k-th item of a stream is fixed by the seed
however many items a timed phase happened to consume.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.config import FTLConfig
from repro.core.database import TrajectoryDatabase
from repro.core.trajectory import Trajectory
from repro.geo.units import days_to_seconds
from repro.service.protocol import trajectory_to_wire
from repro.store import TrajectoryStore, fit_model_artifact
from repro.synth.city import CityModel
from repro.synth.noise import GaussianNoise
from repro.synth.observation import ObservationService
from repro.synth.population import generate_population

DURATION_DAYS = 3
NOISE_M = 50.0


@dataclass
class Query:
    """One generated query: the trajectory and its ground-truth match."""

    trajectory: Trajectory
    truth: str
    agent: int

    @property
    def traj_id(self) -> str:
        return str(self.trajectory.traj_id)


class Population:
    """Agents, their resident Q pool, and a stream of fresh P queries."""

    def __init__(self, seed: int, n_agents: int) -> None:
        self.rng = np.random.default_rng(seed)
        city = CityModel.generate(self.rng)
        self.agents = generate_population(
            city, n_agents, days_to_seconds(DURATION_DAYS), self.rng,
            mobility="taxi",
        )
        self._p = ObservationService(
            "P", rate_per_hour=0.8, noise=GaussianNoise(NOISE_M)
        )
        q_service = ObservationService(
            "Q", rate_per_hour=0.4, noise=GaussianNoise(NOISE_M)
        )
        self.pool_db = TrajectoryDatabase(name="Q")
        for agent in self.agents:
            traj = q_service.observe(
                agent.path, self.rng, traj_id=f"Q{agent.agent_id}"
            )
            if len(traj) >= 2:
                self.pool_db.add(traj)
        self.pool_ids = {str(t.traj_id) for t in self.pool_db}
        self._matched = [
            a for a in self.agents if f"Q{a.agent_id}" in self.pool_ids
        ]
        self._seed = seed
        self._streams: dict[int, list] = {}
        times = np.concatenate([t.ts for t in self.pool_db])
        self.t_min = float(times.min())
        self.t_max = float(times.max())

    def stream_rng(self, stream: int) -> np.random.Generator:
        """An independent generator per input stream, so how much one
        stream consumed (a closed loop's count) never shifts another."""
        if stream not in self._streams:
            self._streams[stream] = [
                np.random.default_rng([self._seed, stream]), 0
            ]
        return self._streams[stream][0]

    def fresh_queries(self, n: int, stream: int = 0) -> list[Query]:
        """``n`` never-before-generated queries, each with a pool match.

        The k-th query of a stream is the same on every run of a seed.
        """
        rng = self.stream_rng(stream)
        state = self._streams[stream]
        out: list[Query] = []
        while len(out) < n:
            agent = self._matched[int(rng.integers(len(self._matched)))]
            state[1] += 1
            traj = self._p.observe(
                agent.path, rng,
                traj_id=f"P{agent.agent_id}-{stream}-{state[1]}",
            )
            if len(traj) >= 2:
                out.append(Query(traj, f"Q{agent.agent_id}", agent.agent_id))
        return out

    def near_records(
        self, agent_id: int, n: int, t_lo: float, t_hi: float, stream: int
    ) -> list[list[float]]:
        """``n`` noisy true positions of one agent inside ``[t_lo, t_hi]``."""
        rng = self.stream_rng(stream)
        path = self.agents[agent_id].path
        ts = np.sort(rng.uniform(t_lo, t_hi, size=n))
        xs, ys = path.position_at(ts)
        xs = xs + rng.normal(0.0, NOISE_M, size=n)
        ys = ys + rng.normal(0.0, NOISE_M, size=n)
        return [[float(t), float(x), float(y)] for t, x, y in zip(ts, xs, ys)]


def link_body(query: Query, options: dict | None = None) -> bytes:
    body: dict = {"query": trajectory_to_wire(query.trajectory)}
    if options is not None:
        body["options"] = options
    return json.dumps(body).encode("utf-8")


def assign_body(queries: list[Query]) -> bytes:
    return json.dumps(
        {"queries": [trajectory_to_wire(q.trajectory) for q in queries]}
    ).encode("utf-8")


def build_store(path: Path, population: Population, n_fit: int):
    """Create the store: the pool, a fitted + activated model artifact,
    and the persisted ST index (delta blocks and merges fold into it)."""
    fit_db = TrajectoryDatabase(name="P")
    for query in population.fresh_queries(n_fit):
        fit_db.add(query.trajectory)
    artifact = fit_model_artifact(
        [fit_db, population.pool_db], FTLConfig(), population.rng,
        fitted_at=0.0,
    )
    store = TrajectoryStore.create(path, population.pool_db, name="Q")
    store.save_model(artifact, created_at=0.0, activate=True)
    store.build_index()
    return store
