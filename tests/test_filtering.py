"""(alpha1, alpha2)-filtering (paper Section IV-D) through ``LinkEngine``.

Profile-level cases build a (query, candidate) pair with exactly the
wanted mutual-segment profile (``tests.oracle.pair_with_profile``) and
link it with ``LinkOptions(method="alpha-filter")``.
"""

import numpy as np
import pytest

from repro.config import FTLConfig
from repro.core.engine import LinkEngine, LinkOptions
from repro.core.models import ACCEPTANCE, REJECTION, BucketCounts, CompatibilityModel
from repro.errors import ValidationError
from tests.oracle import pair_with_profile


def model_with_prob(kind, prob, config):
    counts = BucketCounts.zeros(config.n_buckets)
    counts.total[:] = 1000
    counts.incompatible[:] = int(round(prob * 1000))
    return CompatibilityModel(kind, counts, config)


def pair(n, k, config, bucket=1):
    return pair_with_profile([bucket] * n, [True] * k + [False] * (n - k), config)


def alpha(alpha1, alpha2):
    return LinkOptions(method="alpha-filter", alpha1=alpha1, alpha2=alpha2)


def link_pair(mr, ma, options, n, k):
    """The one-candidate link result and the pair's evidence."""
    query, candidate = pair(n, k, mr.config)
    engine = LinkEngine(mr, ma, options)
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


class TestConstruction:
    def test_alpha_bounds(self):
        with pytest.raises(ValidationError):
            alpha(1.5, 0.05)
        with pytest.raises(ValidationError):
            alpha(0.05, -0.1)

    def test_properties(self, models):
        engine = LinkEngine(*models, alpha(0.05, 0.01))
        assert engine.options.alpha1 == 0.05
        assert engine.options.alpha2 == 0.01


class TestDecideProfile:
    def test_same_person_accepted(self, models):
        result, ev = link_pair(*models, alpha(0.05, 0.05), 20, 0)
        assert result.candidate_ids() == ["c"]
        (cand,) = result.candidates
        assert cand.p_rejection > 0.05
        assert cand.p_acceptance < 0.05
        assert (cand.p_rejection, cand.p_acceptance) == (ev.p1[0], ev.p2[0])

    def test_different_person_rejected_phase1(self, models):
        result, ev = link_pair(*models, alpha(0.05, 0.05), 20, 16)
        assert len(result) == 0
        assert ev.p1[0] < 0.05  # pruned by the rejection phase

    def test_ambiguous_survives_phase1_fails_phase2(self, config):
        # Moderate incompatibility: passes rejection but not acceptance.
        mr = model_with_prob(REJECTION, 0.3, config)
        ma = model_with_prob(ACCEPTANCE, 0.5, config)
        result, ev = link_pair(mr, ma, alpha(0.05, 0.01), 20, 8)
        assert len(result) == 0
        assert ev.p1[0] >= 0.05
        assert ev.p2[0] >= 0.01

    def test_no_evidence_never_accepted(self, models):
        for options in (alpha(0.05, 0.05), alpha(0.0, 1.0)):
            result, ev = link_pair(*models, options, 0, 0)
            assert len(result) == 0
            assert ev.p1[0] == 1.0
            assert ev.p2[0] == 1.0

    def test_counts_recorded(self, models):
        result, _ev = link_pair(*models, alpha(0.0, 1.0), 15, 3)
        (cand,) = result.candidates
        assert cand.n_mutual == 15
        assert cand.n_incompatible == 3


class TestStrictnessMonotonicity:
    """Paper: raising alpha1 or lowering alpha2 is stricter."""

    @pytest.mark.parametrize("k", [0, 1, 2, 3])
    def test_alpha1_monotone(self, config, k):
        mr = model_with_prob(REJECTION, 0.1, config)
        ma = model_with_prob(ACCEPTANCE, 0.8, config)
        loose = len(link_pair(mr, ma, alpha(0.001, 0.2), 20, k)[0])
        strict = len(link_pair(mr, ma, alpha(0.5, 0.2), 20, k)[0])
        assert loose or not strict

    @pytest.mark.parametrize("k", [0, 1, 2, 3])
    def test_alpha2_monotone(self, config, k):
        mr = model_with_prob(REJECTION, 0.1, config)
        ma = model_with_prob(ACCEPTANCE, 0.8, config)
        loose = len(link_pair(mr, ma, alpha(0.01, 0.5), 20, k)[0])
        strict = len(link_pair(mr, ma, alpha(0.01, 0.001), 20, k)[0])
        assert loose or not strict


class TestQueryAPI:
    def test_decide_on_trajectories(self, small_pair, fitted_models):
        engine = LinkEngine(*fitted_models, alpha(0.01, 0.1))
        pid = next(iter(small_pair.truth))
        query = small_pair.p_db[pid]
        candidate = small_pair.q_db[small_pair.truth[pid]]
        ev = engine.score_pool(query, [candidate])
        assert ev.candidate_ids == (small_pair.truth[pid],)
        accepted = bool(ev.alpha_filter_mask(0.01, 0.1)[0])
        assert engine.link(query, [candidate]).contains(candidate.traj_id) == accepted

    def test_query_returns_only_accepted(self, small_pair, fitted_models):
        engine = LinkEngine(*fitted_models, alpha(0.01, 0.1))
        pid = next(iter(small_pair.truth))
        result = engine.link(small_pair.p_db[pid], list(small_pair.q_db))
        assert all(
            c.p_rejection >= 0.01 and c.p_acceptance < 0.1 for c in result.candidates
        )

    def test_query_finds_true_match_mostly(self, small_pair, fitted_models):
        engine = LinkEngine(*fitted_models, alpha(0.01, 0.2))
        qids = small_pair.sample_queries(15, np.random.default_rng(0))
        results = engine.link_batch(
            [small_pair.p_db[pid] for pid in qids], list(small_pair.q_db)
        )
        hits = sum(r.contains(small_pair.truth[pid]) for pid, r in zip(qids, results))
        assert hits >= 10  # most true matches survive both phases

    def test_query_is_selective(self, small_pair, fitted_models):
        engine = LinkEngine(*fitted_models, alpha(0.01, 0.1))
        qids = small_pair.sample_queries(10, np.random.default_rng(0))
        results = engine.link_batch(
            [small_pair.p_db[pid] for pid in qids], list(small_pair.q_db)
        )
        total = sum(len(r) for r in results)
        # far fewer than |Q| candidates per query on average
        assert total / 10 < 0.2 * len(small_pair.q_db)
