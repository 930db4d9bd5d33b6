"""The per-pair reference scorer that :class:`LinkEngine` must reproduce.

One alignment per pair, the scalar Poisson-Binomial tails of
:func:`~repro.core.hypothesis.rejection_pvalue` /
:func:`~repro.core.hypothesis.acceptance_pvalue`, and the clipped
per-pair log-likelihood: the engine's flat, memoised, batched path must
give the same bits (compared with ``==``, never ``approx``).
"""

from __future__ import annotations

import math

import numpy as np

from repro.config import FTLConfig
from repro.core.alignment import mutual_segment_profile
from repro.core.engine import Candidate, LinkOptions, LinkResult, QueryEvidence
from repro.core.hypothesis import acceptance_pvalue, rejection_pvalue
from repro.core.trajectory import Trajectory


def log_likelihood(ps: np.ndarray, incompatible: np.ndarray, floor: float) -> float:
    """``sum log(p)`` over incompatible plus ``sum log(1 - p)`` over compatible."""
    clipped = np.clip(ps, floor, 1.0 - floor)
    return float(
        np.log(clipped[incompatible]).sum() + np.log1p(-clipped[~incompatible]).sum()
    )


def pair_evidence(query, candidate, mr, ma) -> tuple[float, float, float, int, int]:
    """``(p1, p2, llr, n_mutual, n_incompatible)`` of one pair."""
    profile = mutual_segment_profile(query, candidate, mr.config)
    within = profile.within_horizon(mr.n_buckets)
    floor = mr.config.prob_floor
    llr = log_likelihood(
        mr.probs_for(within.buckets), within.incompatible, floor
    ) - log_likelihood(ma.probs_for(within.buckets), within.incompatible, floor)
    p1, p2 = rejection_pvalue(profile, mr), acceptance_pvalue(profile, ma)
    return p1, p2, llr, within.n_total, within.n_incompatible


def score_pool(query, candidates, mr, ma) -> QueryEvidence:
    """What :meth:`LinkEngine.score_pool` must return."""
    rows = [pair_evidence(query, c, mr, ma) for c in candidates]
    p1, p2, llr = (np.array([row[k] for row in rows], dtype=float) for k in range(3))
    ids = tuple(c.traj_id for c in candidates)
    return QueryEvidence(query.traj_id, ids, p1, p2, llr)


def link(query, candidates, mr, ma, options: LinkOptions) -> LinkResult:
    """What :meth:`LinkEngine.link` must return (no prefilter)."""
    ranked = []
    for candidate in candidates:
        p1, p2, llr, n_mutual, n_incompatible = pair_evidence(query, candidate, mr, ma)
        if options.method == "alpha-filter":
            keep = p1 >= options.alpha1 and p2 < options.alpha2
        else:
            keep = llr >= math.log(1.0 - options.phi_r) - math.log(options.phi_r)
        if keep:
            ranked.append(
                Candidate(candidate.traj_id, p1 * (1.0 - p2), p1, p2,
                          n_mutual, n_incompatible)
            )
    ranked.sort(key=lambda c: -c.score)
    return LinkResult(query.traj_id, options.method, tuple(ranked[: options.top_k]))


def pair_with_profile(
    buckets, incompatible, config: FTLConfig
) -> tuple[Trajectory, Trajectory]:
    """A (query, candidate) pair whose mutual-segment profile is the given one.

    Records alternate between the two sides, so records ``i`` and
    ``i + 1`` form mutual segment ``i``: its gap rounds to
    ``buckets[i]`` and its step is 0 m (compatible) or beyond ``Vmax``
    reach (incompatible).  Lets profile-level cases run through the
    engine's public, trajectory-level API; the ids are always ``"q"`` and
    ``"c"``, so give each pair a fresh engine (profiles are cached by id).
    """
    unit = config.time_unit_s
    gaps = np.array([unit * b if b > 0 else unit / 4 for b in buckets], dtype=float)
    steps = np.where(
        np.asarray(incompatible, dtype=bool), config.vmax_mps * gaps + 1000.0, 0.0
    )
    ts = np.concatenate([[0.0], np.cumsum(gaps)])
    xs = np.concatenate([[0.0], np.cumsum(steps)])
    side = np.arange(ts.size) % 2 == 0
    query = Trajectory(ts[side], xs[side], np.zeros(side.sum()), "q")
    candidate = Trajectory(ts[~side], xs[~side], np.zeros((~side).sum()), "c")
    return query, candidate
