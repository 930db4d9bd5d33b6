"""Global one-to-one assignment linking."""

import numpy as np
import pytest

from repro.core.assignment import (
    Assignment,
    assign_queries,
    greedy_assignment,
    optimal_assignment,
    score_all_pairs,
)
from repro.errors import ValidationError

TOY_SCORES = [
    ("p1", "c1", 0.9),
    ("p1", "c2", 0.8),
    ("p2", "c1", 0.85),
    ("p2", "c2", 0.1),
]


class TestGreedy:
    def test_takes_best_first(self):
        result = greedy_assignment(TOY_SCORES)
        # Greedy: (p1,c1,0.9) first, then p2 can only take c2.
        assert result.pairs == {"p1": "c1", "p2": "c2"}
        assert result.total_score == pytest.approx(1.0)

    def test_min_score_excludes(self):
        result = greedy_assignment(TOY_SCORES, min_score=0.5)
        assert result.pairs == {"p1": "c1"}  # p2's only remaining option < 0.5

    def test_empty(self):
        result = greedy_assignment([])
        assert len(result) == 0
        assert result.total_score == 0.0

    def test_negative_min_score_rejected(self):
        with pytest.raises(ValidationError):
            greedy_assignment(TOY_SCORES, min_score=-1.0)

    def test_one_to_one(self):
        rng = np.random.default_rng(0)
        scores = [
            (f"p{i}", f"c{j}", float(rng.random()))
            for i in range(10)
            for j in range(10)
        ]
        result = greedy_assignment(scores)
        assert len(set(result.pairs.keys())) == len(result.pairs)
        assert len(set(result.pairs.values())) == len(result.pairs)


class TestOptimal:
    def test_beats_greedy_on_conflict(self):
        # Optimal: p1->c2 (0.8) + p2->c1 (0.85) = 1.65 > greedy 1.0.
        result = optimal_assignment(TOY_SCORES)
        assert result.pairs == {"p1": "c2", "p2": "c1"}
        assert result.total_score == pytest.approx(1.65)

    def test_never_worse_than_greedy(self):
        rng = np.random.default_rng(1)
        for trial in range(5):
            scores = [
                (f"p{i}", f"c{j}", float(rng.random()))
                for i in range(8)
                for j in range(8)
            ]
            greedy = greedy_assignment(scores)
            optimal = optimal_assignment(scores)
            assert optimal.total_score >= greedy.total_score - 1e-9

    def test_min_score_respected(self):
        result = optimal_assignment(TOY_SCORES, min_score=0.82)
        assert set(result.pairs.values()) <= {"c1"}

    def test_empty(self):
        assert len(optimal_assignment([])) == 0


class TestAccuracy:
    def test_accuracy_metric(self):
        assignment = Assignment(pairs={"p1": "c1", "p2": "c9"}, total_score=1.0)
        truth = {"p1": "c1", "p2": "c2"}
        assert assignment.accuracy(truth) == 0.5

    def test_empty_assignment_zero(self):
        assert Assignment(pairs={}, total_score=0.0).accuracy({}) == 0.0


class TestEndToEnd:
    def test_score_all_pairs_shape(self, small_pair, fitted_models):
        mr, ma = fitted_models
        qids = list(small_pair.truth)[:5]
        triples = score_all_pairs(
            small_pair.p_db, small_pair.q_db, mr, ma, query_ids=qids
        )
        assert len(triples) == 5 * len(small_pair.q_db)

    @pytest.mark.parametrize("method", ["greedy", "optimal"])
    def test_assignment_accuracy_high(self, small_pair, fitted_models, method):
        mr, ma = fitted_models
        rng = np.random.default_rng(0)
        qids = small_pair.sample_queries(12, rng)
        assignment = assign_queries(
            small_pair.p_db, small_pair.q_db, mr, ma,
            query_ids=qids, method=method,
        )
        assert assignment.accuracy(small_pair.truth) >= 0.8

    def test_unknown_method_rejected(self, small_pair, fitted_models):
        mr, ma = fitted_models
        with pytest.raises(ValidationError):
            assign_queries(
                small_pair.p_db, small_pair.q_db, mr, ma, method="magic"
            )

    def test_assignment_at_least_as_good_as_top1(
        self, small_pair, fitted_models
    ):
        """Global assignment should not be worse than independent top-1."""
        mr, ma = fitted_models
        rng = np.random.default_rng(1)
        qids = small_pair.sample_queries(15, rng)
        # score_all_pairs lists each query's candidates best-first.
        top1 = {}
        for qid, cid, _score in score_all_pairs(
            small_pair.p_db, small_pair.q_db, mr, ma, query_ids=qids
        ):
            top1.setdefault(qid, cid)
        top1_hits = sum(1 for qid in qids if top1[qid] == small_pair.truth[qid])
        assignment = assign_queries(
            small_pair.p_db, small_pair.q_db, mr, ma,
            query_ids=qids, method="optimal",
        )
        assigned_hits = sum(
            1 for qid in qids if assignment.pairs.get(qid) == small_pair.truth[qid]
        )
        assert assigned_hits >= top1_hits - 1
