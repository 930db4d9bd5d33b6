"""The batch linking engine: LinkOptions, ProfileCache, LinkEngine."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import FTLConfig
from repro.core.alignment import mutual_segment_profile
from repro.core.engine import (
    DEFAULT_LINK_OPTIONS,
    LinkEngine,
    LinkOptions,
    ProfileCache,
)
from repro.core.linker import FTLLinker
from repro.core.trajectory import Trajectory
from repro.errors import ValidationError

ALL_OPTIONS = [
    LinkOptions(method="naive-bayes", phi_r=0.1),
    LinkOptions(method="alpha-filter", alpha1=0.01, alpha2=0.1),
    LinkOptions(method="alpha-filter", alpha1=0.0, alpha2=1.0),
]


@pytest.fixture(scope="module")
def query_set(small_pair):
    rng = np.random.default_rng(3)
    ids = small_pair.sample_queries(8, rng)
    return [small_pair.p_db[pid] for pid in ids]


def make_engine(fitted_models, options=DEFAULT_LINK_OPTIONS):
    mr, ma = fitted_models
    return LinkEngine(mr, ma, options=options)


class TestLinkOptions:
    def test_defaults_match_seed(self):
        opts = LinkOptions()
        assert opts.method == "naive-bayes"
        assert opts.alpha1 == 0.05
        assert opts.alpha2 == 0.05
        assert opts.phi_r == 0.01
        assert opts.top_k is None
        assert opts.prefilter is None

    def test_phi_a_complement(self):
        assert LinkOptions(phi_r=0.2).phi_a == pytest.approx(0.8)

    def test_with_updates(self):
        opts = LinkOptions().with_updates(method="alpha-filter", alpha1=0.2)
        assert opts.method == "alpha-filter"
        assert opts.alpha1 == 0.2
        assert opts.alpha2 == 0.05

    @pytest.mark.parametrize(
        "bad",
        [
            {"method": "magic"},
            {"alpha1": -0.1},
            {"alpha2": 1.5},
            {"phi_r": 0.0},
            {"phi_r": 1.0},
            {"top_k": 0},
            {"prefilter": object()},
        ],
    )
    def test_validation(self, bad):
        with pytest.raises(ValidationError):
            LinkOptions(**bad)

    def test_frozen(self):
        with pytest.raises(AttributeError):
            LinkOptions().method = "alpha-filter"


class TestProfileCache:
    def test_miss_then_hit(self, small_pair, config):
        cache = ProfileCache(maxsize=16)
        query = next(iter(small_pair.p_db))
        candidate = next(iter(small_pair.q_db))
        first = cache.get(query, candidate, config)
        second = cache.get(query, candidate, config)
        assert first is second
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1
        assert cache.stats.n_computed == 1

    def test_config_is_part_of_key(self, small_pair):
        cache = ProfileCache()
        query = next(iter(small_pair.p_db))
        candidate = next(iter(small_pair.q_db))
        cache.get(query, candidate, FTLConfig())
        cache.get(query, candidate, FTLConfig(time_unit_s=30.0))
        assert cache.stats.misses == 2

    def test_eviction(self, small_pair, config):
        cache = ProfileCache(maxsize=2)
        query = next(iter(small_pair.p_db))
        candidates = list(small_pair.q_db)[:3]
        for candidate in candidates:
            cache.get(query, candidate, config)
        assert len(cache) == 2
        assert cache.stats.evictions == 1
        # The least recently used entry (candidate 0) was dropped.
        cache.get(query, candidates[0], config)
        assert cache.stats.misses == 4

    def test_clear(self, small_pair, config):
        cache = ProfileCache()
        query = next(iter(small_pair.p_db))
        candidate = next(iter(small_pair.q_db))
        cache.get(query, candidate, config)
        cache.clear()
        assert len(cache) == 0
        cache.get(query, candidate, config)
        assert cache.stats.misses == 2

    def test_bad_maxsize(self):
        with pytest.raises(ValidationError):
            ProfileCache(maxsize=0)

    @given(
        st.lists(st.floats(0.0, 7200.0), min_size=2, max_size=12),
        st.lists(st.floats(0.0, 7200.0), min_size=2, max_size=12),
        st.integers(0, 2**31),
    )
    @settings(max_examples=30, deadline=None)
    def test_cached_profile_equals_fresh(self, ts_p, ts_q, seed):
        """Property: a cache hit returns the same observation content."""
        rng = np.random.default_rng(seed)
        config = FTLConfig()
        p = Trajectory(
            np.sort(np.asarray(ts_p)),
            rng.uniform(0, 5000, len(ts_p)),
            rng.uniform(0, 5000, len(ts_p)),
            "p",
        )
        q = Trajectory(
            np.sort(np.asarray(ts_q)),
            rng.uniform(0, 5000, len(ts_q)),
            rng.uniform(0, 5000, len(ts_q)),
            "q",
        )
        cache = ProfileCache()
        cache.get(p, q, config)
        cached = cache.get(p, q, config)
        assert cache.stats.hits == 1
        # Content equality/hashing is defined through the profile token.
        fresh = mutual_segment_profile(p, q, config)
        assert cached == fresh
        assert hash(cached) == hash(fresh)


class TestBatchEquivalence:
    """link_batch == a loop of sequential link() calls, bit for bit."""

    @pytest.mark.parametrize("options", ALL_OPTIONS, ids=lambda o: f"{o.method}")
    def test_batch_matches_sequential(
        self, small_pair, fitted_models, query_set, options
    ):
        mr, ma = fitted_models
        pool = list(small_pair.q_db)
        batch = make_engine(fitted_models, options).link_batch(query_set, pool)
        sequential = [
            make_engine(fitted_models, options).link(q, pool) for q in query_set
        ]
        assert len(batch) == len(sequential)
        for got, want in zip(batch, sequential):
            assert got == want  # dataclass equality: ids, scores, p-values

    @pytest.mark.parametrize("options", ALL_OPTIONS, ids=lambda o: f"{o.method}")
    def test_warm_cache_never_changes_results(
        self, small_pair, fitted_models, query_set, options
    ):
        engine = make_engine(fitted_models, options)
        pool = list(small_pair.q_db)
        cold = engine.link_batch(query_set, pool)
        assert engine.cache.stats.hits == 0
        warm = engine.link_batch(query_set, pool)
        assert engine.cache.stats.hits == engine.cache.stats.misses
        assert warm == cold

    def test_each_profile_computed_exactly_once(
        self, small_pair, fitted_models, query_set
    ):
        engine = make_engine(fitted_models)
        engine.link_batch(query_set, small_pair.q_db)
        stats = engine.cache.stats
        assert stats.n_computed == len(query_set) * len(small_pair.q_db)
        assert stats.hits == 0

    def test_finds_true_matches(self, small_pair, fitted_models, query_set):
        engine = make_engine(fitted_models, LinkOptions(phi_r=0.1))
        results = engine.link_batch(query_set, small_pair.q_db)
        hits = sum(
            1 for r in results if r.contains(small_pair.truth[r.query_id])
        )
        assert hits >= len(query_set) - 2

    def test_empty_pool(self, fitted_models, query_set):
        result = make_engine(fitted_models).link(query_set[0], [])
        assert len(result) == 0
        assert result.query_id == query_set[0].traj_id

    def test_rejects_non_options(self, fitted_models, query_set):
        with pytest.raises(ValidationError):
            make_engine(fitted_models).link_batch(
                query_set, [], options={"method": "naive-bayes"}
            )


class TestLazyFlatPool:
    """The pool is flattened only for a query that misses every pair."""

    @pytest.fixture
    def flat_pool_builds(self, monkeypatch):
        import repro.core.engine as engine_mod

        builds = []
        real = engine_mod.FlatPool

        def counting(pool):
            builds.append(len(pool))
            return real(pool)

        monkeypatch.setattr(engine_mod, "FlatPool", counting)
        return builds

    def test_cached_batch_builds_no_flat_pool(
        self, small_pair, fitted_models, query_set, flat_pool_builds
    ):
        from repro.core.engine import LinkRequest

        engine = make_engine(
            fitted_models, LinkOptions(kernel_backend="numpy")
        )
        pool = list(small_pair.q_db)
        cold = engine.link_batch(query_set, pool)
        assert flat_pool_builds == [len(pool)]  # once for the whole batch
        warm = engine.link_batch(query_set, pool)
        requests = [LinkRequest(query=q) for q in query_set]
        served = engine.link_requests(requests, default_pool=pool)
        assert flat_pool_builds == [len(pool)]
        assert warm == cold
        assert served == cold


class TestRankOrder:
    """Only the top_k prefix is built; its order is a stable sort."""

    @settings(max_examples=60, deadline=None)
    @given(
        data=st.data(),
        top_k=st.one_of(st.none(), st.integers(1, 25)),
    )
    def test_matches_sort_then_slice_with_ties(
        self, fitted_models, small_pair, query_set, data, top_k
    ):
        pool = list(small_pair.q_db)[:20]
        matched = np.asarray(
            sorted(
                data.draw(
                    st.sets(st.integers(0, len(pool) - 1), max_size=len(pool))
                )
            ),
            dtype=np.int64,
        )
        # A handful of values, so most scores tie with another.
        value = st.sampled_from([0.0, 0.25, 0.5, 1.0])
        p1 = np.asarray(
            data.draw(st.lists(value, min_size=matched.size,
                               max_size=matched.size)), dtype=float,
        )
        p2 = np.asarray(
            data.draw(st.lists(value, min_size=matched.size,
                               max_size=matched.size)), dtype=float,
        )
        engine = make_engine(
            fitted_models,
            LinkOptions(method="alpha-filter", alpha1=0.0, alpha2=1.0,
                        top_k=top_k),
        )
        engine._alpha_filter = lambda ev, opts: (matched, p1, p2)
        got = engine.link(query_set[0], pool)

        scores = p1 * (1.0 - p2)
        want = [
            (pool[i].traj_id, float(scores[j]), float(p1[j]), float(p2[j]))
            for j, i in enumerate(matched.tolist())
        ]
        want.sort(key=lambda c: -c[1])
        if top_k is not None:
            want = want[:top_k]
        assert [
            (c.candidate_id, c.score, c.p_rejection, c.p_acceptance)
            for c in got.candidates
        ] == want


class TestEngineOptions:
    def test_top_k_truncates(self, small_pair, fitted_models, query_set):
        exhaustive = LinkOptions(method="alpha-filter", alpha1=0.0, alpha2=1.0)
        engine = make_engine(fitted_models, exhaustive)
        full = engine.link(query_set[0], small_pair.q_db)
        top2 = engine.link(
            query_set[0], small_pair.q_db, exhaustive.with_updates(top_k=2)
        )
        assert len(full) == len(small_pair.q_db)
        assert len(top2) == 2
        assert top2.candidates == full.candidates[:2]

    def test_prefilter_applied(self, small_pair, fitted_models, query_set):
        class KeepNothing:
            def keep(self, query, candidate):
                return False

        engine = make_engine(
            fitted_models, LinkOptions(prefilter=KeepNothing())
        )
        result = engine.link(query_set[0], small_pair.q_db)
        assert len(result) == 0
        assert engine.cache.stats.n_computed == 0


class TestLinkerFacade:
    def test_link_batch_matches_link(self, small_pair, fitted_models, query_set):
        mr, ma = fitted_models
        linker = FTLLinker(
            mr.config, LinkOptions(phi_r=0.1)
        ).with_models(mr, ma, small_pair.q_db)
        batch = linker.link_batch(query_set)
        singles = [linker.link(q) for q in query_set]
        assert batch == singles

    def test_options_property(self, fitted_models):
        opts = LinkOptions(method="alpha-filter", alpha1=0.02)
        linker = FTLLinker(FTLConfig(), opts)
        assert linker.options is opts

    def test_kwarg_shorthand_builds_options(self):
        linker = FTLLinker(FTLConfig(), alpha1=0.01, alpha2=0.2, phi_r=0.3)
        assert linker.options == LinkOptions(
            alpha1=0.01, alpha2=0.2, phi_r=0.3
        )

    def test_per_call_options_override(
        self, small_pair, fitted_models, query_set
    ):
        mr, ma = fitted_models
        linker = FTLLinker(mr.config).with_models(mr, ma, small_pair.q_db)
        ranked = linker.link(
            query_set[0],
            options=LinkOptions(method="alpha-filter", alpha1=0.0, alpha2=1.0),
        )
        assert len(ranked) == len(small_pair.q_db)
        assert ranked.method == "alpha-filter"

    def test_profile_cache_exposed(self, small_pair, fitted_models, query_set):
        mr, ma = fitted_models
        linker = FTLLinker(mr.config).with_models(mr, ma, small_pair.q_db)
        linker.link(query_set[0])
        assert linker.profile_cache.stats.n_computed == len(small_pair.q_db)


class TestResultSerialisation:
    @pytest.fixture(scope="class")
    def result(self, small_pair, fitted_models):
        mr, ma = fitted_models
        engine = LinkEngine(
            mr, ma, LinkOptions(method="alpha-filter", alpha1=0.0, alpha2=1.0)
        )
        query = next(iter(small_pair.p_db))
        return engine.link(query, small_pair.q_db)

    def test_to_dict_round_trip(self, result):
        payload = result.to_dict()
        assert payload["query_id"] == result.query_id
        assert payload["method"] == result.method
        assert len(payload["candidates"]) == len(result)
        first = payload["candidates"][0]
        assert first["candidate_id"] == result.candidates[0].candidate_id
        assert first["score"] == result.candidates[0].score
        assert set(first) == {
            "candidate_id", "score", "p_rejection", "p_acceptance",
            "n_mutual", "n_incompatible",
        }

    def test_to_dict_is_json_serialisable(self, result):
        parsed = json.loads(json.dumps(result.to_dict(), default=str))
        assert len(parsed["candidates"]) == len(result)

    def test_top_helper(self, result):
        assert result.top(3) == result.candidates[:3]
        assert result.top(10_000) == result.candidates
        with pytest.raises(ValidationError):
            result.top(-1)


class TestBenchSmoke:
    def test_engine_bench_smoke(self, tmp_path):
        """Tiny-size run of the engine benchmark, emitting BENCH_engine.json."""
        from benchmarks.bench_engine_batch import run_engine_benchmark

        out = tmp_path / "BENCH_engine.json"
        report = run_engine_benchmark(
            n_candidates=8, n_queries=3, seed=5, out_path=out
        )
        written = json.loads(out.read_text())
        assert written["n_candidates"] == report["n_candidates"] == 8
        for workload in ("ranking", "naive-bayes"):
            row = written["workloads"][workload]
            assert row["engine_batch_s"] > 0.0
            assert row["profiles_computed"] == 3 * 8


class TestLinkRequests:
    def test_bit_identical_to_link_batch(self, fitted_models, small_pair,
                                         query_set):
        engine = make_engine(fitted_models)
        pool = list(small_pair.q_db)
        from repro.core.engine import LinkRequest

        requests = [LinkRequest(query=q) for q in query_set]
        assert engine.link_requests(requests, default_pool=pool) == \
            engine.link_batch(query_set, pool)

    def test_heterogeneous_per_request_options(self, fitted_models,
                                               small_pair, query_set):
        engine = make_engine(fitted_models)
        pool = list(small_pair.q_db)
        from repro.core.engine import LinkRequest

        requests = [
            LinkRequest(query=query, options=options)
            for query, options in zip(query_set, ALL_OPTIONS)
        ]
        got = engine.link_requests(requests, default_pool=pool)
        expected = [
            engine.link(query, pool, options)
            for query, options in zip(query_set, ALL_OPTIONS)
        ]
        assert got == expected

    def test_per_request_candidates_override_pool(self, fitted_models,
                                                  small_pair, query_set):
        engine = make_engine(fitted_models)
        pool = list(small_pair.q_db)
        subset = pool[:3]
        from repro.core.engine import LinkRequest

        requests = [
            LinkRequest(query=query_set[0]),
            LinkRequest(query=query_set[1], candidates=subset),
        ]
        got = engine.link_requests(requests, default_pool=pool)
        assert got[0] == engine.link(query_set[0], pool)
        assert got[1] == engine.link(query_set[1], subset)
        assert all(c.candidate_id in {t.traj_id for t in subset}
                   for c in got[1].candidates)

    def test_no_candidates_and_no_pool_rejected(self, fitted_models,
                                                query_set):
        engine = make_engine(fitted_models)
        from repro.core.engine import LinkRequest

        with pytest.raises(ValidationError, match="no default_pool"):
            engine.link_requests([LinkRequest(query=query_set[0])])

    def test_request_validation(self, fitted_models, query_set):
        engine = make_engine(fitted_models)
        from repro.core.engine import LinkRequest

        with pytest.raises(ValidationError):
            LinkRequest(query="not a trajectory")
        with pytest.raises(ValidationError):
            LinkRequest(query=query_set[0], options="fast")
        with pytest.raises(ValidationError):
            engine.link_requests(["not a request"], default_pool=[])

    def test_candidates_coerced_to_tuple(self, small_pair, query_set):
        from repro.core.engine import LinkRequest

        pool = list(small_pair.q_db)[:2]
        request = LinkRequest(query=query_set[0], candidates=pool)
        assert isinstance(request.candidates, tuple)
        assert len(request.candidates) == 2
