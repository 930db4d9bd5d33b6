"""Naive-Bayes matching (paper Section IV-E) through ``LinkEngine``.

Profile-level cases build a (query, candidate) pair with exactly the
wanted mutual-segment profile (``tests.oracle.pair_with_profile``) and
link it with ``LinkOptions(method="naive-bayes")``; the prior-free
log-likelihood ratio is read from :meth:`LinkEngine.score_pool`.
"""

import math

import numpy as np
import pytest

from repro.config import FTLConfig
from repro.core.engine import LinkEngine, LinkOptions
from repro.core.models import ACCEPTANCE, REJECTION, BucketCounts, CompatibilityModel
from repro.errors import ValidationError
from tests.oracle import pair_evidence, pair_with_profile


def model_with_prob(kind, prob, config):
    counts = BucketCounts.zeros(config.n_buckets)
    counts.total[:] = 1000
    counts.incompatible[:] = int(round(prob * 1000))
    return CompatibilityModel(kind, counts, config)


def model_with_bucket_probs(kind, probs, config):
    """A model whose bucket ``b`` has probability ``probs[b]`` (0.5 elsewhere)."""
    counts = BucketCounts.zeros(config.n_buckets)
    counts.total[:] = 1000
    counts.incompatible[:] = 500
    for bucket, prob in probs.items():
        counts.incompatible[bucket] = int(round(prob * 1000))
    return CompatibilityModel(kind, counts, config)


def pair(n, k, config):
    return pair_with_profile([1] * n, [True] * k + [False] * (n - k), config)


def nb(phi_r):
    return LinkOptions(method="naive-bayes", phi_r=phi_r)


def threshold(phi_r):
    return math.log(1.0 - phi_r) - math.log(phi_r)


def link_pair(mr, ma, phi_r, n, k):
    """The one-candidate NB link result and the pair's evidence."""
    query, candidate = pair(n, k, mr.config)
    engine = LinkEngine(mr, ma, nb(phi_r))
    return engine.link(query, [candidate]), engine.score_pool(query, [candidate])


@pytest.fixture
def config():
    return FTLConfig(smoothing=0.0, min_bucket_count=1)


@pytest.fixture
def models(config):
    return (
        model_with_prob(REJECTION, 0.02, config),
        model_with_prob(ACCEPTANCE, 0.8, config),
    )


class TestLogLikelihood:
    """The clipped per-pair log-likelihood behind ``QueryEvidence.llr``."""

    def test_hand_computed(self, config):
        mr = model_with_bucket_probs(REJECTION, {1: 0.2, 2: 0.7}, config)
        ma = model_with_bucket_probs(ACCEPTANCE, {1: 0.6, 2: 0.9}, config)
        query, candidate = pair_with_profile([1, 2], [True, False], config)
        (llr,) = LinkEngine(mr, ma).score_pool(query, [candidate]).llr
        expected = (math.log(0.2) + math.log(0.3)) - (math.log(0.6) + math.log(0.1))
        assert llr == pytest.approx(expected)

    def test_zero_prob_clamped(self, config):
        mr = model_with_prob(REJECTION, 0.0, config)
        ma = model_with_prob(ACCEPTANCE, 0.5, config)
        query, candidate = pair(1, 1, config)
        (llr,) = LinkEngine(mr, ma).score_pool(query, [candidate]).llr
        assert llr == pytest.approx(math.log(config.prob_floor) - math.log(0.5))

    def test_empty_is_zero(self, models, config):
        query, candidate = pair(0, 0, config)
        (llr,) = LinkEngine(*models).score_pool(query, [candidate]).llr
        assert llr == 0.0


class TestConstruction:
    def test_phi_bounds(self, models, config):
        query, candidate = pair(3, 0, config)
        evidence = LinkEngine(*models).score_pool(query, [candidate])
        for bad in (0.0, 1.0, -0.1, 1.3):
            with pytest.raises(ValidationError):
                nb(bad)
            with pytest.raises(ValidationError):
                evidence.naive_bayes_mask(bad)

    def test_phi_a_complement(self):
        options = nb(0.05)
        assert options.phi_a == pytest.approx(1.0 - options.phi_r)


class TestDecide:
    def test_compatible_pattern_is_same_person(self, models):
        result, ev = link_pair(*models, 0.05, 20, 0)
        assert result.candidate_ids() == ["c"]
        assert ev.llr[0] > threshold(0.05)

    def test_incompatible_pattern_is_different(self, models):
        result, ev = link_pair(*models, 0.05, 20, 16)
        assert len(result) == 0
        assert ev.llr[0] < threshold(0.05)

    def test_likelihoods_consistent_with_ratio(self, models):
        mr, ma = models
        query, candidate = pair(10, 2, mr.config)
        ev = LinkEngine(mr, ma).score_pool(query, [candidate])
        _p1, _p2, llr, _n, _k = pair_evidence(query, candidate, mr, ma)
        assert ev.llr[0] == llr
        # The decision is the posterior comparison phi_r L(Mr) >= phi_a L(Ma).
        for phi_r in (0.001, 0.05, 0.5, 0.9):
            posterior = math.log(phi_r) + llr - math.log(1.0 - phi_r)
            assert bool(ev.naive_bayes_mask(phi_r)[0]) == (posterior >= 0.0)

    def test_no_evidence_decided_by_prior(self, models):
        assert len(link_pair(*models, 0.3, 0, 0)[0]) == 0
        assert len(link_pair(*models, 0.7, 0, 0)[0]) == 1

    def test_counts_recorded(self, models):
        result, _ev = link_pair(*models, 0.5, 12, 3)
        (cand,) = result.candidates
        assert cand.n_mutual == 12
        assert cand.n_incompatible == 3


class TestPriorMonotonicity:
    """Paper: larger phi_r loosens candidate selection."""

    @pytest.mark.parametrize("k", [0, 2, 5, 8])
    def test_larger_phi_never_flips_to_reject(self, config, k):
        mr = model_with_prob(REJECTION, 0.1, config)
        ma = model_with_prob(ACCEPTANCE, 0.6, config)
        strict = len(link_pair(mr, ma, 0.001, 15, k)[0])
        loose = len(link_pair(mr, ma, 0.5, 15, k)[0])
        assert loose or not strict


class TestQueryAPI:
    def test_query_returns_positives_only(self, small_pair, fitted_models):
        engine = LinkEngine(*fitted_models, nb(0.05))
        pid = next(iter(small_pair.truth))
        pool = list(small_pair.q_db)
        result = engine.link(small_pair.p_db[pid], pool)
        ev = engine.score_pool(small_pair.p_db[pid], pool)
        llr = dict(zip(ev.candidate_ids, ev.llr))
        assert all(llr[cid] >= threshold(0.05) for cid in result.candidate_ids())

    def test_query_high_perceptiveness(self, small_pair, fitted_models):
        engine = LinkEngine(*fitted_models, nb(0.1))
        qids = small_pair.sample_queries(15, np.random.default_rng(0))
        results = engine.link_batch(
            [small_pair.p_db[pid] for pid in qids], list(small_pair.q_db)
        )
        hits = sum(r.contains(small_pair.truth[pid]) for pid, r in zip(qids, results))
        assert hits >= 11

    def test_query_selective(self, small_pair, fitted_models):
        engine = LinkEngine(*fitted_models, nb(0.05))
        qids = small_pair.sample_queries(10, np.random.default_rng(0))
        results = engine.link_batch(
            [small_pair.p_db[pid] for pid in qids], list(small_pair.q_db)
        )
        total = sum(len(r) for r in results)
        assert total / 10 < 0.2 * len(small_pair.q_db)

    def test_agrees_with_trajectory_level_decide(self, small_pair, fitted_models):
        engine = LinkEngine(*fitted_models, nb(0.05))
        pid = next(iter(small_pair.truth))
        qid = small_pair.truth[pid]
        result = engine.link(small_pair.p_db[pid], [small_pair.q_db[qid]])
        assert result.candidate_ids() == [qid]  # true pair should be matched
