"""Poisson-Binomial distribution: all three backends."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as sps

from repro.core.hypothesis import acceptance_pvalue_batch, rejection_pvalue_batch
from repro.errors import ValidationError
from repro.stats.poisson_binomial import (
    PoissonBinomial,
    pb_cdf,
    pb_pmf,
    pb_pmf_batch,
    pb_pmf_matrix,
    pb_sf,
)

probs_list = st.lists(st.floats(0.0, 1.0, allow_nan=False), min_size=0, max_size=15)


def brute_force_pmf(ps):
    """Enumerate all 2^n outcomes (n small)."""
    n = len(ps)
    pmf = np.zeros(n + 1)
    for mask in range(2**n):
        prob = 1.0
        k = 0
        for i in range(n):
            if mask >> i & 1:
                prob *= ps[i]
                k += 1
            else:
                prob *= 1 - ps[i]
        pmf[k] += prob
    return pmf


class TestDPBackend:
    def test_matches_binomial(self):
        pb = PoissonBinomial([0.3] * 12)
        expected = sps.binom.pmf(np.arange(13), 12, 0.3)
        assert np.allclose(pb.pmf(), expected)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(0)
        ps = rng.uniform(0, 1, 10)
        assert np.allclose(PoissonBinomial(ps).pmf(), brute_force_pmf(ps))

    def test_empty_is_point_mass_at_zero(self):
        pb = PoissonBinomial([])
        assert list(pb.pmf()) == [1.0]
        assert pb.cdf(0) == 1.0
        assert pb.sf(0) == 1.0
        assert pb.sf(1) == 0.0

    def test_certain_trials_shift_support(self):
        pb = PoissonBinomial([1.0, 1.0, 0.5])
        pmf = pb.pmf()
        assert pmf[0] == 0.0 and pmf[1] == 0.0
        assert pmf[2] == pytest.approx(0.5)
        assert pmf[3] == pytest.approx(0.5)

    def test_zero_trials_dropped(self):
        a = PoissonBinomial([0.0, 0.0, 0.4])
        assert a.pmf()[0] == pytest.approx(0.6)
        assert a.pmf().size == 4  # support still 0..3

    def test_mean_var(self):
        ps = [0.2, 0.5, 0.9]
        pb = PoissonBinomial(ps)
        assert pb.mean() == pytest.approx(sum(ps))
        assert pb.var() == pytest.approx(sum(p * (1 - p) for p in ps))
        assert pb.std() == pytest.approx(math.sqrt(pb.var()))

    def test_cdf_sf_complementary(self):
        ps = [0.1, 0.4, 0.7, 0.2]
        pb = PoissonBinomial(ps)
        for k in range(6):
            assert pb.cdf(k - 1) + pb.sf(k) == pytest.approx(1.0)

    def test_cdf_bounds(self):
        pb = PoissonBinomial([0.5, 0.5])
        assert pb.cdf(-1) == 0.0
        assert pb.cdf(5) == 1.0
        assert pb.sf(0) == 1.0
        assert pb.sf(3) == 0.0

    def test_validation(self):
        with pytest.raises(ValidationError):
            PoissonBinomial([1.2])
        with pytest.raises(ValidationError):
            PoissonBinomial([-0.1])
        with pytest.raises(ValidationError):
            PoissonBinomial([np.nan])
        with pytest.raises(ValidationError):
            PoissonBinomial([0.5], backend="bogus")


class TestRecursiveBackend:
    """The paper's Equation (1)."""

    def test_matches_dp_random(self):
        rng = np.random.default_rng(1)
        ps = rng.uniform(0.01, 0.9, 12)
        dp = PoissonBinomial(ps, backend="dp").pmf()
        rec = PoissonBinomial(ps, backend="recursive").pmf()
        assert np.allclose(dp, rec, atol=1e-9)

    def test_matches_dp_small_probs(self):
        # The FTL regime: many tiny rejection-model probabilities.
        ps = np.full(20, 0.01)
        dp = PoissonBinomial(ps, backend="dp").pmf()
        rec = PoissonBinomial(ps, backend="recursive").pmf()
        assert np.allclose(dp, rec, atol=1e-9)

    def test_certain_trial_handled_by_factoring(self):
        # p == 1 trials are factored out before Eq. 1 runs.
        pb = PoissonBinomial([1.0, 0.3], backend="recursive")
        assert pb.pmf()[0] == 0.0
        assert pb.pmf()[1] == pytest.approx(0.7)

    def test_pmf_sums_to_one(self):
        rng = np.random.default_rng(2)
        ps = rng.uniform(0, 0.99, 15)
        assert PoissonBinomial(ps, backend="recursive").pmf().sum() == pytest.approx(1.0)


class TestNormalBackend:
    def test_close_to_exact_for_large_n(self):
        rng = np.random.default_rng(3)
        ps = rng.uniform(0.05, 0.6, 300)
        exact = PoissonBinomial(ps, backend="dp")
        approx = PoissonBinomial(ps, backend="normal")
        for k in (50, 80, 100, 120, 150):
            assert approx.cdf(k) == pytest.approx(exact.cdf(k), abs=5e-3)
            assert approx.sf(k) == pytest.approx(exact.sf(k), abs=5e-3)

    def test_degenerate_all_certain(self):
        pb = PoissonBinomial([1.0, 1.0], backend="normal")
        assert pb.cdf(1) == 0.0
        assert pb.cdf(2) == 1.0

    def test_pmf_normalised(self):
        ps = np.full(50, 0.3)
        pmf = PoissonBinomial(ps, backend="normal").pmf()
        assert pmf.sum() == pytest.approx(1.0)
        assert np.all(pmf >= 0)


class TestSampling:
    def test_sample_mean_matches(self):
        rng = np.random.default_rng(4)
        ps = [0.2, 0.5, 0.8]
        pb = PoissonBinomial(ps)
        draws = pb.sample(rng, 20_000)
        assert draws.mean() == pytest.approx(pb.mean(), abs=0.03)

    def test_sample_with_certain_trials(self):
        rng = np.random.default_rng(4)
        pb = PoissonBinomial([1.0, 0.0])
        assert set(pb.sample(rng, 100)) == {1}

    def test_negative_size_rejected(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValidationError):
            PoissonBinomial([0.5]).sample(rng, -1)


class TestFunctionalAPI:
    def test_pb_pmf(self):
        assert pb_pmf([0.5]).tolist() == [0.5, 0.5]

    def test_pb_cdf_sf(self):
        assert pb_cdf([0.5, 0.5], 1) == pytest.approx(0.75)
        assert pb_sf([0.5, 0.5], 1) == pytest.approx(0.75)


class TestProperties:
    @given(probs_list)
    @settings(max_examples=60, deadline=None)
    def test_pmf_is_distribution(self, ps):
        pmf = PoissonBinomial(ps).pmf()
        assert pmf.size == len(ps) + 1
        assert np.all(pmf >= -1e-12)
        assert pmf.sum() == pytest.approx(1.0)

    @given(probs_list)
    @settings(max_examples=60, deadline=None)
    def test_mean_matches_pmf(self, ps):
        pb = PoissonBinomial(ps)
        pmf = pb.pmf()
        assert (pmf * np.arange(pmf.size)).sum() == pytest.approx(
            pb.mean(), abs=1e-9
        )

    @given(st.lists(st.floats(0.0, 1.0, allow_nan=False), min_size=1, max_size=10))
    @settings(max_examples=60, deadline=None)
    def test_cdf_monotone(self, ps):
        pb = PoissonBinomial(ps)
        cdfs = [pb.cdf(k) for k in range(len(ps) + 1)]
        assert all(a <= b + 1e-12 for a, b in zip(cdfs, cdfs[1:]))

    @given(st.lists(st.floats(0.001, 0.9), min_size=1, max_size=10))
    @settings(max_examples=40, deadline=None)
    def test_recursive_agrees_with_dp(self, ps):
        # Restricted to p <= 0.9: Eq. 1's alternating sum loses precision
        # when any odds p/(1-p) is large (see the backend ablation bench,
        # which quantifies exactly this fragility).
        dp = PoissonBinomial(ps, backend="dp").pmf()
        rec = PoissonBinomial(ps, backend="recursive").pmf()
        assert np.allclose(dp, rec, atol=1e-7)


class TestBatchPmf:
    """pb_pmf_batch must be bit-identical to the per-array dp path."""

    @given(
        st.lists(
            st.lists(st.floats(0.0, 1.0, allow_nan=False), max_size=12),
            max_size=8,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_bitwise_equal_to_scalar(self, ps_lists):
        batch = pb_pmf_batch(ps_lists)
        assert len(batch) == len(ps_lists)
        for ps, got in zip(ps_lists, batch):
            want = pb_pmf(ps)
            assert got.shape == want.shape
            assert np.array_equal(got, want)  # exact, not allclose

    def test_empty_batch(self):
        assert pb_pmf_batch([]) == []

    def test_degenerate_trials(self):
        batch = pb_pmf_batch([[0.0, 1.0, 0.5], [1.0, 1.0], [0.0], []])
        for ps, got in zip([[0.0, 1.0, 0.5], [1.0, 1.0], [0.0], []], batch):
            assert np.array_equal(got, pb_pmf(ps))

    def test_non_dp_backend_falls_back(self):
        ps_lists = [[0.2, 0.4], [0.1]]
        batch = pb_pmf_batch(ps_lists, backend="normal")
        for ps, got in zip(ps_lists, batch):
            assert np.array_equal(got, pb_pmf(ps, backend="normal"))

    def test_rejects_bad_probs(self):
        with pytest.raises(ValidationError):
            pb_pmf_batch([[0.5], [1.5]])

    @pytest.mark.parametrize("bad", [math.nan, -0.1, 1.5, math.inf, -math.inf])
    @pytest.mark.parametrize("row", [0, 2, 4])
    @pytest.mark.parametrize("kernel", ["numpy", "python"])
    @pytest.mark.parametrize(
        "call",
        [
            lambda rows, kernel: pb_pmf_batch(rows, kernel=kernel),
            lambda rows, kernel: rejection_pvalue_batch(
                rows, [1] * len(rows), "dp", kernel=kernel
            ),
            lambda rows, kernel: acceptance_pvalue_batch(
                rows, [1] * len(rows), "dp", kernel=kernel
            ),
        ],
        ids=["pmf", "rejection", "acceptance"],
    )
    def test_rejects_bad_probs_in_any_row(self, bad, row, kernel, call):
        rows = [np.array([0.1, 0.2, 0.3]) for _ in range(5)]
        rows[1] = np.array([])
        rows[row] = np.array([0.5, bad, 0.25])
        with pytest.raises(ValidationError):
            call(rows, kernel)

    @given(
        st.lists(
            st.lists(
                st.one_of(
                    st.just(0.0),
                    st.just(1.0),
                    # q = 1 - p of a few ulps: runs of these push the
                    # state into subnormals before an exact 0/1 step.
                    st.just(1.0 - 2.0**-52),
                    st.floats(0.0, 1.0, allow_nan=False),
                ),
                max_size=40,
            ),
            max_size=8,
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_unfactored_dp_is_exact(self, ps_lists):
        """The matrix DP runs p=0 and p=1 trials through the recurrence
        instead of factoring them out; the pmf must still equal the
        factored one bit for bit (x*1.0 + y*0.0 == x and
        x*0.0 + y*1.0 == y hold exactly for finite non-negative x, y)."""
        dp, rows, lengths = pb_pmf_matrix(ps_lists)
        assert dp.shape[0] == len(ps_lists)
        for ps, row, n in zip(ps_lists, rows, lengths):
            assert n == len(ps)
            assert np.array_equal(dp[row, : n + 1], pb_pmf(ps))
            assert not dp[row, n + 1 :].any()
