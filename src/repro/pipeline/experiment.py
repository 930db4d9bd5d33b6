"""Shared experiment machinery: model fitting and pairwise evidence.

Several experiments sweep *parameters* (alpha levels, priors) over a
fixed set of (query, candidate) pairs.  The expensive part — aligning
each pair, evaluating both Poisson-Binomial p-values and the
Naive-Bayes log-likelihood ratio — does not depend on those parameters,
so :func:`collect_evidence` computes it once per pair and the sweeps
reduce to thresholding:

* (alpha1, alpha2)-filtering accepts a pair iff
  ``p1 >= alpha1 and p2 < alpha2``;
* Naive-Bayes with prior ``phi_r`` declares *same person* iff
  ``llr >= log(phi_a) - log(phi_r)`` where ``llr`` is the
  prior-free log-likelihood ratio ``log L(Mr) - log L(Ma)``.

Each query's evidence is one :meth:`~repro.core.engine.LinkEngine.score_pool`
call, so the masks agree bit for bit with ``link_batch`` under the
same options (covered by tests).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.config import FTLConfig
from repro.core.engine import LinkEngine, QueryEvidence
from repro.core.models import CompatibilityModel
from repro.errors import ValidationError
from repro.synth.scenario import ScenarioPair


def fit_model_pair(
    pair: ScenarioPair, config: FTLConfig, rng: np.random.Generator
) -> tuple[CompatibilityModel, CompatibilityModel]:
    """Fit (Mr, Ma) on a scenario's two databases."""
    mr = CompatibilityModel.fit_rejection([pair.p_db, pair.q_db], config)
    ma = CompatibilityModel.fit_acceptance([pair.p_db, pair.q_db], config, rng)
    return mr, ma


@dataclass(frozen=True)
class PairEvidence:
    """Evidence for a set of queries against one candidate database."""

    queries: tuple[QueryEvidence, ...]
    n_candidates: int

    def __iter__(self):
        return iter(self.queries)

    def __len__(self) -> int:
        return len(self.queries)


def collect_evidence(
    pair: ScenarioPair,
    query_ids: Sequence[object],
    mr: CompatibilityModel,
    ma: CompatibilityModel,
) -> PairEvidence:
    """Compute (p1, p2, llr) for every (query, candidate) combination."""
    if not query_ids:
        raise ValidationError("need at least one query id")
    engine = LinkEngine(mr, ma)
    candidates = list(pair.q_db)
    queries = tuple(
        engine.score_pool(pair.p_db[qid], candidates) for qid in query_ids
    )
    return PairEvidence(queries=queries, n_candidates=len(candidates))


def perceptiveness_selectiveness(
    evidence: PairEvidence,
    truth,
    masks_by_query: Sequence[np.ndarray],
) -> tuple[float, float]:
    """Metrics for one operating point given per-query accept masks."""
    if len(masks_by_query) != len(evidence):
        raise ValidationError("one mask per query is required")
    hits = 0
    returned = 0
    for qe, mask in zip(evidence, masks_by_query):
        accepted = {cid for cid, keep in zip(qe.candidate_ids, mask) if keep}
        returned += len(accepted)
        if truth.get(qe.query_id) in accepted:
            hits += 1
    n_queries = len(evidence)
    return hits / n_queries, returned / (n_queries * evidence.n_candidates)
