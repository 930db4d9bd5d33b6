"""Global one-to-one assignment linking.

Per-query FTL treats every query independently, so two queries may both
claim the same candidate.  When both databases cover (roughly) the same
population — the paper's taxi setting — a *global* one-to-one
assignment resolves such conflicts and improves precision: each
candidate is awarded to at most one query, maximising total evidence.

Two solvers over the Eq. 2 score matrix (or any per-pair score):

* :func:`greedy_assignment` — sort all (query, candidate) pairs by
  score and take them greedily; O(E log E), a 1/2-approximation;
* :func:`optimal_assignment` — maximum-weight bipartite matching via
  :func:`networkx.max_weight_matching`; exact but slower.

Both only consider pairs above a score threshold, so queries with no
plausible candidate remain unmatched (as they should).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from repro.core.database import TrajectoryDatabase
from repro.core.models import CompatibilityModel, require_fitted_pair
from repro.core.ranking import rank_candidates
from repro.errors import ValidationError


@dataclass(frozen=True)
class Assignment:
    """A one-to-one linking of queries to candidates."""

    pairs: Mapping[object, object]  # query id -> candidate id
    total_score: float

    def __len__(self) -> int:
        return len(self.pairs)

    def accuracy(self, truth: Mapping[object, object]) -> float:
        """Fraction of assigned queries whose candidate is correct."""
        if not self.pairs:
            return 0.0
        hits = sum(1 for q, c in self.pairs.items() if truth.get(q) == c)
        return hits / len(self.pairs)


ScoreTriples = Sequence[tuple[object, object, float]]
"""(query_id, candidate_id, score) triples; larger scores are better."""


def _validated(scores: ScoreTriples, min_score: float) -> list[tuple[object, object, float]]:
    if min_score < 0:
        raise ValidationError(f"min_score must be >= 0, got {min_score}")
    return [(q, c, s) for q, c, s in scores if s > min_score]


def greedy_assignment(scores: ScoreTriples, min_score: float = 0.0) -> Assignment:
    """Greedy maximum-score one-to-one assignment.

    Pairs are taken in non-increasing score order; a pair is accepted
    when neither endpoint is taken yet.
    """
    usable = _validated(scores, min_score)
    # Deterministic tie-break: (-score, input order).  With triples
    # produced in (query_index, candidate_index) order this is exactly
    # the subsystem-wide (-score, query_index, candidate_index) key of
    # repro.assign.solver.TIE_BREAK; the stable sort made it implicit
    # before, this makes it explicit.
    order = sorted(range(len(usable)), key=lambda i: (-usable[i][2], i))
    usable = [usable[i] for i in order]
    taken_q: set[object] = set()
    taken_c: set[object] = set()
    pairs: dict[object, object] = {}
    total = 0.0
    for qid, cid, score in usable:
        if qid in taken_q or cid in taken_c:
            continue
        pairs[qid] = cid
        taken_q.add(qid)
        taken_c.add(cid)
        total += score
    return Assignment(pairs=pairs, total_score=total)


def optimal_assignment(scores: ScoreTriples, min_score: float = 0.0) -> Assignment:
    """Exact maximum-weight bipartite matching over the score graph.

    Edges enter the graph in explicit (-score, input order) order — the
    same (-score, query_index, candidate_index) key as
    :func:`greedy_assignment` when triples arrive index-sorted — so a
    given input always builds the same graph and yields the same
    matching (networkx iterates in insertion order).
    """
    # Imported here: networkx is needed only by this solver, and
    # ``import repro`` must work with just the declared dependencies.
    import networkx as nx

    usable = _validated(scores, min_score)
    order = sorted(range(len(usable)), key=lambda i: (-usable[i][2], i))
    usable = [usable[i] for i in order]
    graph = nx.Graph()
    for qid, cid, score in usable:
        key_q = ("Q", qid)
        key_c = ("C", cid)
        if graph.has_edge(key_q, key_c):
            if graph[key_q][key_c]["weight"] >= score:
                continue
        graph.add_edge(key_q, key_c, weight=score)
    matching = nx.max_weight_matching(graph, maxcardinality=False)
    pairs: dict[object, object] = {}
    total = 0.0
    for a, b in matching:
        query_key, cand_key = (a, b) if a[0] == "Q" else (b, a)
        pairs[query_key[1]] = cand_key[1]
        total += graph[a][b]["weight"]
    return Assignment(pairs=pairs, total_score=total)


def score_all_pairs(
    p_db: TrajectoryDatabase,
    q_db: TrajectoryDatabase,
    rejection_model: CompatibilityModel,
    acceptance_model: CompatibilityModel,
    query_ids: Sequence[object] | None = None,
) -> list[tuple[object, object, float]]:
    """Eq. 2 scores for every (query, candidate) combination.

    The raw material for either assignment solver.  ``query_ids``
    restricts the query side (defaults to all of ``p_db``).
    """
    mr, ma = require_fitted_pair(rejection_model, acceptance_model)
    ids = list(p_db.ids()) if query_ids is None else list(query_ids)
    triples: list[tuple[object, object, float]] = []
    for qid in ids:
        for scored in rank_candidates(p_db[qid], q_db, mr, ma):
            triples.append((qid, scored.candidate_id, scored.score))
    return triples


def assign_queries(
    p_db: TrajectoryDatabase,
    q_db: TrajectoryDatabase,
    rejection_model: CompatibilityModel,
    acceptance_model: CompatibilityModel,
    query_ids: Sequence[object] | None = None,
    method: str = "greedy",
    min_score: float = 1e-6,
) -> Assignment:
    """End-to-end global linking: score all pairs, then assign.

    Parameters
    ----------
    method:
        ``"greedy"`` or ``"optimal"``.
    min_score:
        Pairs at or below this Eq. 2 score are never assigned; queries
        whose best candidate falls under it stay unmatched.
    """
    if method not in ("greedy", "optimal"):
        raise ValidationError(f"unknown method {method!r}")
    scores = score_all_pairs(
        p_db, q_db, rejection_model, acceptance_model, query_ids
    )
    solver = greedy_assignment if method == "greedy" else optimal_assignment
    return solver(scores, min_score=min_score)
