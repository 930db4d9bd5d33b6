"""Candidate ranking (paper Section V, Eq. 2) through ``LinkEngine``.

The exhaustive ranking is ``LinkOptions(method="alpha-filter",
alpha1=0, alpha2=1)``: every candidate with any evidence is returned,
ordered by ``v = p1 * (1 - p2)``.
"""

import numpy as np
import pytest

from repro.core.engine import LinkEngine, LinkOptions, LinkResult
from repro.errors import ValidationError
from tests.oracle import pair_with_profile

RANKING = LinkOptions(method="alpha-filter", alpha1=0.0, alpha2=1.0)


def pair(n, k, config):
    return pair_with_profile([1] * n, [True] * k + [False] * (n - k), config)


def scored(mr, ma, n, k):
    """The one ranked candidate of an (n, k) profile."""
    query, candidate = pair(n, k, mr.config)
    (cand,) = LinkEngine(mr, ma, RANKING).link(query, [candidate]).candidates
    return cand


class TestScoreCandidate:
    def test_score_is_eq2(self, fitted_models):
        cand = scored(*fitted_models, 15, 0)
        assert cand.score == cand.p_rejection * (1 - cand.p_acceptance)

    def test_score_in_unit_interval(self, fitted_models):
        mr, ma = fitted_models
        for k in range(0, 16, 5):
            query, candidate = pair(15, k, mr.config)
            scores = LinkEngine(mr, ma).score_pool(query, [candidate]).scores()
            assert 0.0 <= scores[0] <= 1.0

    def test_compatible_scores_higher(self, fitted_models):
        good = scored(*fitted_models, 15, 0).score
        bad = scored(*fitted_models, 15, 12).score
        assert good > bad

    def test_model_kinds_validated(self, fitted_models):
        mr, ma = fitted_models
        with pytest.raises(ValidationError):
            LinkEngine(ma, mr)


class TestRankCandidates:
    def test_true_match_ranks_first_usually(self, small_pair, fitted_models):
        engine = LinkEngine(*fitted_models, RANKING)
        qids = small_pair.sample_queries(10, np.random.default_rng(0))
        results = engine.link_batch(
            [small_pair.p_db[pid] for pid in qids], list(small_pair.q_db)
        )
        top1_hits = sum(
            r.candidate_ids()[:1] == [small_pair.truth[pid]]
            for pid, r in zip(qids, results)
        )
        assert top1_hits >= 7

    def test_scores_non_increasing(self, small_pair, fitted_models):
        engine = LinkEngine(*fitted_models, RANKING)
        pid = next(iter(small_pair.truth))
        ranked = engine.link(small_pair.p_db[pid], list(small_pair.q_db))
        scores = [c.score for c in ranked.candidates]
        assert all(a >= b for a, b in zip(scores, scores[1:]))

    def test_all_candidates_scored(self, small_pair, fitted_models):
        pid = next(iter(small_pair.truth))
        ev = LinkEngine(*fitted_models).score_pool(
            small_pair.p_db[pid], list(small_pair.q_db)
        )
        assert len(ev.candidate_ids) == len(ev.scores()) == len(small_pair.q_db)

    def test_true_match_beats_median(self, small_pair, fitted_models):
        pid = next(iter(small_pair.truth))
        ev = LinkEngine(*fitted_models).score_pool(
            small_pair.p_db[pid], list(small_pair.q_db)
        )
        order = np.argsort(-ev.scores(), kind="stable")
        ranked = [ev.candidate_ids[i] for i in order]
        assert ranked.index(small_pair.truth[pid]) < len(ranked) // 2


class TestTopK:
    def test_prefix(self, small_pair, fitted_models):
        pid = next(iter(small_pair.truth))
        query, pool = small_pair.p_db[pid], list(small_pair.q_db)
        full = LinkEngine(*fitted_models, RANKING).link(query, pool)
        top3 = LinkEngine(*fitted_models, RANKING.with_updates(top_k=3)).link(
            query, pool
        )
        assert top3.candidates == full.top(3) == full.candidates[:3]

    def test_k_larger_than_list(self):
        assert LinkResult("q", "alpha-filter", ()).top(5) == ()

    def test_negative_k(self):
        with pytest.raises(ValidationError):
            LinkResult("q", "alpha-filter", ()).top(-1)
        with pytest.raises(ValidationError):
            RANKING.with_updates(top_k=0)
