"""Correctness gates: served answers against an in-process reference.

The reference is the program's own library path, built from the same
model artifact the daemon loaded from the store.  A gate that fails
raises :class:`GateFailure`; the benchmark then exits non-zero and
prints no metrics.  ``corrupt`` perturbs a reference on purpose, so the
benchmark's tests can show each gate trips: ``link`` the in-process
engine's rankings, ``standing`` the from-scratch ``/v1/link`` each
standing ranking is held against, ``assign`` the in-process matching.
"""

from __future__ import annotations

import json
import math
import multiprocessing
import os

from repro.assign import graph_from_link_results, solve
from repro.core.engine import LinkEngine, LinkOptions, LinkRequest
from repro.service import protocol
from repro.store import open_store

GATES = ("link", "standing", "assign")


class GateFailure(Exception):
    """A served answer differs from the in-process reference."""


def _wire(obj) -> object:
    """The JSON round trip a reply went through (floats by repr)."""
    return json.loads(json.dumps(obj))


def _corrupt_candidates(data: dict) -> dict:
    data = json.loads(json.dumps(data))
    if data["candidates"]:
        first = data["candidates"][0]
        first["score"] = math.nextafter(first["score"], math.inf)
    else:
        data["candidates"].append({"candidate_id": "corrupted"})
    return data


class Reference:
    """An in-process engine over the store's current pool."""

    def __init__(self, store_path, options: LinkOptions, corrupt: str | None):
        store = open_store(store_path)
        artifact = store.load_model()
        self.pool = list(store.load())
        self.options = options
        self.engine = LinkEngine(
            artifact.rejection, artifact.acceptance, options=options
        )
        self.corrupt = corrupt

    def link(self, trajectory) -> dict:
        result = self.engine.link_requests(
            [LinkRequest(trajectory)], default_pool=self.pool
        )[0]
        data = _wire(protocol.result_to_wire(result))
        if self.corrupt == "link":
            data = _corrupt_candidates(data)
        return data

    def assign(self, bodies) -> list[dict]:
        """The matching of each ``/v1/assign`` body.  Every body's
        queries are scored in one ``link_requests`` batch (a query's
        ranking does not depend on the batch it rides in), then each
        body's graph is built and solved on its own."""
        wires = [protocol.assign_request_from_wire(b, self.options)
                 for b in bodies]
        results = self.engine.link_requests(
            [LinkRequest(q, options=w.options)
             for w in wires for q in w.queries],
            default_pool=self.pool,
        )
        pool_ids = [t.traj_id for t in self.pool]
        out, at = [], 0
        for wire in wires:
            n = len(wire.queries)
            graph = graph_from_link_results(
                results[at:at + n], [q.traj_id for q in wire.queries],
                pool_ids, wire.min_score, len(pool_ids) * n,
            )
            at += n
            data = _wire(solve(graph, backend=wire.solver).to_dict())
            if self.corrupt == "assign" and data["matches"]:
                data["matches"][0]["score"] = math.nextafter(
                    data["matches"][0]["score"], -math.inf
                )
            out.append(data)
        return out


def check_link(reference: Reference, samples) -> int:
    """Each ``(trajectory, reply data)`` must equal the reference."""
    n = 0
    for trajectory, data in samples:
        expected = reference.link(trajectory)
        if data != expected:
            raise GateFailure(
                f"/v1/link for {trajectory.traj_id!r} differs from the "
                f"in-process LinkEngine"
            )
        n += 1
    return n


def check_standing(reference: Reference, rankings, fresh_links) -> int:
    """Each standing ranking must equal a from-scratch ``/v1/link``, and
    that link must equal the in-process engine over the final pool."""
    n = 0
    for (trajectory, ranking), data in zip(rankings, fresh_links):
        if reference.corrupt == "standing":
            data = _corrupt_candidates(data)
        if ranking != data["candidates"]:
            raise GateFailure(
                f"standing query {trajectory.traj_id!r} ranking differs "
                f"from a from-scratch /v1/link after the last flush"
            )
        if data != reference.link(trajectory):
            raise GateFailure(
                f"from-scratch /v1/link for {trajectory.traj_id!r} differs "
                f"from the in-process LinkEngine over the final pool"
            )
        n += 1
    return n


#: The reference the forked gate workers score with (set before fork).
_FORKED: Reference | None = None


def _assign_part(bodies) -> list[dict]:
    return _FORKED.assign(bodies)


def check_assign(reference: Reference, samples) -> int:
    """Each ``(request body, reply data)`` matching must equal the
    in-process ``solve(graph_from_link_results(...))``.  The bodies are
    scored in one forked worker per core, in contiguous parts."""
    global _FORKED
    samples = list(samples)
    bodies = [body for body, _ in samples]
    size = -(-len(bodies) // (os.cpu_count() or 1)) or 1
    parts = [bodies[i:i + size] for i in range(0, len(bodies), size)]
    if len(parts) > 1:
        _FORKED = reference
        pool = multiprocessing.get_context("fork").Pool(len(parts))
        try:
            scored = pool.map(_assign_part, parts)
        finally:
            pool.close()
            pool.join()
            _FORKED = None
    else:
        scored = [reference.assign(part) for part in parts]
    expected_all = [data for part in scored for data in part]
    n = 0
    for (_, data), expected in zip(samples, expected_all):
        got = {k: data[k] for k in ("matches", "total_score", "solver")}
        want = {k: expected[k] for k in ("matches", "total_score", "solver")}
        if got != want:
            raise GateFailure(
                "/v1/assign matching differs from the in-process "
                "solve(graph_from_link_results(...))"
            )
        n += 1
    return n
