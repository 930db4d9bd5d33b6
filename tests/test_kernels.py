"""Kernel backend selection and cross-backend bit-identity.

The contract under test (see ``docs/performance.md``): every kernel
backend — the per-pair ``python`` reference, the batched ``numpy``
kernels, and ``numba`` where importable — produces bit-identical
mutual-segment profiles, Poisson-Binomial pmfs, and end-to-end
rankings (sole documented exception: the numba fused haversine may
differ by a few ulp in the *distance*, never in the profile layout).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import FTLConfig
from repro.core.alignment import (
    FlatPool,
    batch_mutual_segment_profiles,
    mutual_segment_profile,
)
from repro.core.engine import LinkEngine, LinkOptions
from repro.core.hypothesis import acceptance_pvalue_batch, rejection_pvalue_batch
from repro.core.trajectory import Trajectory
from repro.errors import ValidationError
from repro.kernels import (
    KERNEL_BACKEND_ENV,
    KERNEL_BACKENDS,
    numba_available,
    resolve_kernel_backend,
)
from repro.stats.poisson_binomial import pb_pmf_batch

requires_numba = pytest.mark.skipif(
    not numba_available(), reason="numba not importable in this environment"
)


# ----------------------------------------------------------------------
# Backend resolution
# ----------------------------------------------------------------------
class TestResolution:
    def test_none_and_auto_resolve_concrete(self, monkeypatch):
        monkeypatch.delenv(KERNEL_BACKEND_ENV, raising=False)
        expected = "numba" if numba_available() else "numpy"
        assert resolve_kernel_backend(None) == expected
        assert resolve_kernel_backend("auto") == expected

    @pytest.mark.parametrize("name", ["python", "numpy"])
    def test_explicit_backends_pass_through(self, name):
        assert resolve_kernel_backend(name) == name

    def test_numba_request_degrades_gracefully(self):
        resolved = resolve_kernel_backend("numba")
        assert resolved == ("numba" if numba_available() else "numpy")

    def test_env_override_applies_to_auto(self, monkeypatch):
        monkeypatch.setenv(KERNEL_BACKEND_ENV, "python")
        assert resolve_kernel_backend("auto") == "python"
        assert resolve_kernel_backend(None) == "python"

    def test_explicit_argument_beats_env(self, monkeypatch):
        monkeypatch.setenv(KERNEL_BACKEND_ENV, "python")
        assert resolve_kernel_backend("numpy") == "numpy"

    def test_unknown_name_raises(self, monkeypatch):
        with pytest.raises(ValidationError):
            resolve_kernel_backend("fortran")
        monkeypatch.setenv(KERNEL_BACKEND_ENV, "fortran")
        with pytest.raises(ValidationError):
            resolve_kernel_backend("auto")

    def test_config_and_options_validate_backend(self):
        with pytest.raises(ValidationError):
            FTLConfig(kernel_backend="fortran")
        with pytest.raises(ValidationError):
            LinkOptions(kernel_backend="fortran")
        for name in KERNEL_BACKENDS:
            FTLConfig(kernel_backend=name)
            LinkOptions(kernel_backend=name)


# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------
def trajectory_strategy(max_len=20, tie_grid=False, degrees=False):
    """Random trajectories; ``tie_grid`` forces heavy timestamp ties."""

    @st.composite
    def build(draw):
        n = draw(st.integers(0, max_len))
        if tie_grid:
            ts = sorted(
                draw(
                    st.lists(
                        st.integers(0, 40).map(lambda k: k * 30.0),
                        min_size=n,
                        max_size=n,
                    )
                )
            )
        else:
            ts = sorted(
                draw(
                    st.lists(
                        st.floats(0, 2e4, allow_nan=False),
                        min_size=n,
                        max_size=n,
                    )
                )
            )
        rng = np.random.default_rng(draw(st.integers(0, 2**31)))
        if degrees:
            xs = rng.uniform(-0.5, 0.5, n) + 11.5
            ys = rng.uniform(-0.5, 0.5, n) + 48.0
        else:
            xs = rng.uniform(0, 3e4, n)
            ys = rng.uniform(0, 3e4, n)
        return Trajectory(ts, xs, ys, traj_id=f"t{draw(st.integers(0, 10**9))}")

    return build()


def pool_strategy(max_pool=8, **kwargs):
    return st.lists(trajectory_strategy(**kwargs), min_size=0, max_size=max_pool)


# ----------------------------------------------------------------------
# Profile kernel bit-identity
# ----------------------------------------------------------------------
class TestProfileKernels:
    @settings(max_examples=30, deadline=None)
    @given(q=trajectory_strategy(), pool=pool_strategy())
    def test_numpy_matches_python_euclidean(self, q, pool):
        config = FTLConfig()
        ref = batch_mutual_segment_profiles(q, pool, config, backend="python")
        got = batch_mutual_segment_profiles(q, pool, config, backend="numpy")
        assert [p.token for p in ref] == [p.token for p in got]

    @settings(max_examples=20, deadline=None)
    @given(
        q=trajectory_strategy(tie_grid=True),
        pool=pool_strategy(tie_grid=True),
    )
    def test_numpy_matches_python_with_timestamp_ties(self, q, pool):
        config = FTLConfig()
        ref = batch_mutual_segment_profiles(q, pool, config, backend="python")
        flat = FlatPool(pool)
        got = batch_mutual_segment_profiles(
            q, pool, config, backend="numpy", flat=flat
        )
        assert [p.token for p in ref] == [p.token for p in got]

    @settings(max_examples=15, deadline=None)
    @given(
        q=trajectory_strategy(degrees=True),
        pool=pool_strategy(degrees=True),
    )
    def test_numpy_matches_python_haversine(self, q, pool):
        config = FTLConfig(metric="haversine")
        ref = batch_mutual_segment_profiles(q, pool, config, backend="python")
        got = batch_mutual_segment_profiles(q, pool, config, backend="numpy")
        assert [p.token for p in ref] == [p.token for p in got]

    @settings(max_examples=20, deadline=None)
    @given(q=trajectory_strategy(), pool=pool_strategy())
    def test_flat_pool_cache_is_transparent(self, q, pool):
        config = FTLConfig()
        flat = FlatPool(pool)
        cached = batch_mutual_segment_profiles(
            q, pool, config, backend="numpy", flat=flat
        )
        # Reuse: the merge cache is built once and must not go stale.
        again = batch_mutual_segment_profiles(
            q, pool, config, backend="numpy", flat=flat
        )
        plain = batch_mutual_segment_profiles(q, pool, config, backend="numpy")
        assert [p.token for p in cached] == [p.token for p in plain]
        assert [p.token for p in again] == [p.token for p in plain]

    def test_exact_speed_test_ties(self):
        """dist == vmax*dt exactly (3-4-5) must match the reference."""
        config = FTLConfig(vmax_kph=3.6)  # vmax_mps == 1.0 exactly
        assert config.vmax_mps == 1.0
        q = Trajectory(
            np.array([0.0, 10.0]),
            np.array([0.0, 0.0]),
            np.array([0.0, 0.0]),
            traj_id="q",
        )
        pool = [
            # dist 5 == vmax*dt 5: compatible on the tie, both segments.
            Trajectory(np.array([5.0]), np.array([3.0]), np.array([4.0])),
            # dt == 0, dist == 0: the degenerate tie.
            Trajectory(np.array([0.0]), np.array([0.0]), np.array([0.0])),
            # dt == 0, dist > 0: incompatible against the t=0 record.
            Trajectory(np.array([0.0]), np.array([1.0]), np.array([0.0])),
            # Subnormal-scale coordinates (squared distance underflows).
            Trajectory(np.array([1e-8]), np.array([0.6e-8]), np.array([0.8e-8])),
        ]
        ref = batch_mutual_segment_profiles(q, pool, config, backend="python")
        got = batch_mutual_segment_profiles(q, pool, config, backend="numpy")
        assert [p.token for p in ref] == [p.token for p in got]
        assert got[2].incompatible.tolist() == [True, False]

    def test_single_pair_dispatch(self):
        rng = np.random.default_rng(5)
        config = FTLConfig()
        p = Trajectory(np.sort(rng.uniform(0, 1e3, 12)),
                       rng.uniform(0, 1e4, 12), rng.uniform(0, 1e4, 12))
        q = Trajectory(np.sort(rng.uniform(0, 1e3, 9)),
                       rng.uniform(0, 1e4, 9), rng.uniform(0, 1e4, 9))
        ref = mutual_segment_profile(p, q, config, backend="python")
        assert mutual_segment_profile(p, q, config, backend="numpy") == ref

    @requires_numba
    @settings(max_examples=15, deadline=None)
    @given(q=trajectory_strategy(), pool=pool_strategy())
    def test_numba_matches_python_euclidean(self, q, pool):
        config = FTLConfig()
        ref = batch_mutual_segment_profiles(q, pool, config, backend="python")
        got = batch_mutual_segment_profiles(q, pool, config, backend="numba")
        assert [p.token for p in ref] == [p.token for p in got]

    @requires_numba
    @settings(max_examples=10, deadline=None)
    @given(
        q=trajectory_strategy(degrees=True),
        pool=pool_strategy(degrees=True),
    )
    def test_numba_haversine_within_ulp_tolerance(self, q, pool):
        """Fused haversine: same layout/buckets; flags equal away from ties."""
        config = FTLConfig(metric="haversine")
        ref = batch_mutual_segment_profiles(q, pool, config, backend="python")
        got = batch_mutual_segment_profiles(q, pool, config, backend="numba")
        for a, b in zip(ref, got):
            assert np.array_equal(a.buckets, b.buckets)
            assert a.incompatible.shape == b.incompatible.shape


# ----------------------------------------------------------------------
# Poisson-Binomial DP bit-identity
# ----------------------------------------------------------------------
def probs_list_strategy():
    prob = st.one_of(
        st.just(0.0),
        st.just(1.0),
        st.floats(1e-9, 1.0 - 1e-9, allow_nan=False),
    )
    return st.lists(
        st.lists(prob, min_size=0, max_size=30).map(np.asarray),
        min_size=0,
        max_size=10,
    )


@st.composite
def tail_batch_strategy(draw):
    """``(rows, ks)``: a tail batch with 20% exact 0.0 and 20% exact 1.0
    trials, empty rows, rows longer than 8 and than 128 (numpy's
    pairwise-summation unroll and block sizes, so tail sums cross both),
    and observed counts ``k`` in ``[-1, n + 2]``."""
    lengths = draw(
        st.lists(
            st.one_of(
                st.integers(0, 40),
                st.sampled_from([0, 7, 8, 9, 127, 128, 129, 130, 300]),
            ),
            max_size=12,
        )
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows, ks = [], []
    for n in lengths:
        ps = rng.uniform(0.0, 1.0, size=n) ** rng.choice([0.05, 1.0, 4.0])
        kind = rng.random(n)
        ps[kind < 0.2] = 0.0
        ps[kind > 0.8] = 1.0
        rows.append(ps)
        ks.append(int(rng.integers(-1, n + 3)))
    return rows, ks


class TestPoissonBinomialKernels:
    @settings(max_examples=40, deadline=None)
    @given(batch=tail_batch_strategy())
    def test_numpy_tails_match_python(self, batch):
        rows, ks = batch
        for tails in (rejection_pvalue_batch, acceptance_pvalue_batch):
            ref = tails(rows, ks, "dp", kernel="python")
            got = tails(rows, ks, "dp", kernel="numpy")
            assert got == ref
            assert all(type(v) is float for v in got)

    @settings(max_examples=20, deadline=None)
    @given(batch=tail_batch_strategy())
    def test_numpy_matches_python_long_rows(self, batch):
        rows, _ = batch
        ref = pb_pmf_batch(rows, kernel="python")
        got = pb_pmf_batch(rows, kernel="numpy")
        assert len(ref) == len(got)
        for a, b in zip(ref, got):
            assert a.shape == b.shape
            assert np.array_equal(a, b)

    @settings(max_examples=30, deadline=None)
    @given(probs_list=probs_list_strategy())
    def test_numpy_matches_python(self, probs_list):
        ref = pb_pmf_batch(probs_list, kernel="python")
        got = pb_pmf_batch(probs_list, kernel="numpy")
        assert len(ref) == len(got)
        for a, b in zip(ref, got):
            assert a.dtype == b.dtype
            assert np.array_equal(a, b)

    @requires_numba
    @settings(max_examples=15, deadline=None)
    @given(probs_list=probs_list_strategy())
    def test_numba_matches_python(self, probs_list):
        ref = pb_pmf_batch(probs_list, kernel="python")
        got = pb_pmf_batch(probs_list, kernel="numba")
        for a, b in zip(ref, got):
            assert np.array_equal(a, b)


# ----------------------------------------------------------------------
# End-to-end: backends are interchangeable inside the engine
# ----------------------------------------------------------------------
class TestEngineBackendIdentity:
    @pytest.mark.parametrize(
        "options",
        [
            LinkOptions(method="naive-bayes", phi_r=0.1),
            LinkOptions(method="alpha-filter", alpha1=0.0, alpha2=1.0),
        ],
        ids=["naive-bayes", "ranking"],
    )
    def test_link_batch_identical_across_backends(
        self, fitted_models, small_pair, options
    ):
        mr, ma = fitted_models
        rng = np.random.default_rng(17)
        ids = small_pair.sample_queries(5, rng)
        queries = [small_pair.p_db[qid] for qid in ids]
        pool = list(small_pair.q_db)
        backends = ["python", "numpy"] + (["numba"] if numba_available() else [])
        results = {}
        for backend in backends:
            engine = LinkEngine(
                mr, ma, options=options.with_updates(kernel_backend=backend)
            )
            assert engine.kernel_backend == resolve_kernel_backend(backend)
            results[backend] = engine.link_batch(queries, pool)
        for backend in backends[1:]:
            assert results[backend] == results["python"]

    def test_stage_backends_surface(self, fitted_models):
        mr, ma = fitted_models
        engine = LinkEngine(
            mr, ma, options=LinkOptions(kernel_backend="numpy")
        )
        stages = engine.stage_backends()
        assert stages["profile"] == "numpy"
        assert stages["pb_test"] == "dp[numpy]"

    def test_env_pin_reaches_engine(self, fitted_models, monkeypatch):
        monkeypatch.setenv(KERNEL_BACKEND_ENV, "python")
        mr, ma = fitted_models
        engine = LinkEngine(mr, ma)
        assert engine.kernel_backend == "python"
