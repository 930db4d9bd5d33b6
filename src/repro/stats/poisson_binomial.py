"""The Poisson-Binomial distribution.

``K = sum of independent Bernoulli(p_i)`` — the law of the number of
incompatible mutual segments under either FTL model, where ``p_i`` is the
model's incompatibility probability for the i-th mutual segment's time
bucket (paper Section IV-D).

Three evaluation backends are provided:

``"dp"`` (default)
    Exact O(n^2) convolution dynamic program — numerically stable for
    any probability vector; this is the production backend.
``"recursive"``
    The paper's Equation (1): the inclusion-exclusion recursion over
    power sums ``T(i)``.  Exact in real arithmetic but numerically
    fragile when n is large or any ``p_i`` is near 1; kept as a faithful
    reproduction of the paper's formula and exercised by the backend
    ablation bench.
``"normal"``
    Refined normal approximation with a skewness correction (second-order
    Edgeworth / Cornish-Fisher style), useful for very long profiles.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from repro.errors import ValidationError
from repro.kernels import pmf_dp_batch_numba, resolve_kernel_backend

_BACKENDS = ("dp", "recursive", "normal")


def _validate_probs(probs: Sequence[float] | np.ndarray) -> np.ndarray:
    ps = np.asarray(probs, dtype=np.float64).ravel()
    if ps.size and (np.any(~np.isfinite(ps)) or np.any(ps < 0.0) or np.any(ps > 1.0)):
        raise ValidationError("probabilities must be finite and within [0, 1]")
    return ps


def _pmf_dp(ps: np.ndarray) -> np.ndarray:
    """Exact pmf by iterative convolution; O(n^2), stable."""
    pmf = np.array([1.0])
    for p in ps:
        nxt = np.empty(pmf.size + 1)
        nxt[0] = pmf[0] * (1.0 - p)
        nxt[1:-1] = pmf[1:] * (1.0 - p) + pmf[:-1] * p
        nxt[-1] = pmf[-1] * p
        pmf = nxt
    return pmf


def pb_pmf_matrix(
    probs_list: Sequence[Sequence[float] | np.ndarray],
) -> tuple[np.ndarray, list[int], list[int]]:
    """Every variable's exact pmf in one state matrix (the numpy DP core).

    Returns ``(dp, rows, lengths)``: the pmf of ``probs_list[i]`` is
    ``dp[rows[i], : lengths[i] + 1]``, bit-identical to ``pb_pmf`` on
    the same input.  Tails can be read straight out of ``dp`` without
    copying a row.

    * All probabilities are concatenated and validated by one vectorised
      check (the same :class:`~repro.errors.ValidationError` as
      ``pb_pmf``).
    * Variables are sorted longest-first and scattered into one
      ``(max_len, n_rows)`` trial matrix by a single fancy-index
      assignment; step ``j`` updates only the prefix of variables that
      still have a ``j``-th trial.
    * Step ``j`` updates only support entries ``0 .. j + 1``: after
      ``j`` trials every entry beyond ``j`` is still an exact zero, and
      a step maps such a pair of zeros to ``0 * q + 0 * p = 0`` again.
    * Degenerate trials are *not* factored out.  For finite,
      non-negative state a ``p = 0`` step computes ``x * 1.0 + y * 0.0
      == x`` and a ``p = 1`` step ``x * 0.0 + y * 1.0 == y``, both exact
      in IEEE arithmetic, so the pmf equals the factored one bit for
      bit (pinned by ``tests/test_poisson_binomial.py``).

    Each state element follows exactly the scalar recurrence of
    ``_pmf_dp`` — ``new[k] = old[k] * (1 - p) + old[k - 1] * p``, two
    products and one addition — so no rounding differs from it.
    """
    n_rows = len(probs_list)
    lengths = [len(ps) for ps in probs_list]
    counts = np.asarray(lengths, dtype=np.int64)
    flat = (
        _validate_probs(np.concatenate(probs_list, dtype=np.float64))
        if n_rows
        else np.empty(0)
    )
    order = np.argsort(-counts, kind="stable")
    row_of = np.empty(n_rows, dtype=np.int64)
    row_of[order] = np.arange(n_rows)
    max_len = max(lengths, default=0)
    starts = np.zeros(n_rows, dtype=np.int64)
    np.cumsum(counts[:-1], out=starts[1:])
    p_t = np.zeros((max_len, n_rows))
    p_t[
        np.arange(flat.size) - np.repeat(starts, counts),
        np.repeat(row_of, counts),
    ] = flat
    q_t = 1.0 - p_t
    # Rows still active at step j: those longer than j (a sorted prefix).
    active = np.searchsorted(
        -counts[order], -np.arange(max_len), side="left"
    ).tolist()
    # The state is held transposed, support index by variable, so each
    # update runs long contiguous inner loops over the variables.
    state_t = np.zeros((max_len + 1, n_rows))
    state_t[0] = 1.0
    for j, cnt in enumerate(active):
        state = state_t[: j + 2, :cnt]
        carry = state[:-1] * p_t[j, :cnt]
        state *= q_t[j, :cnt]
        state[1:] += carry
    return np.ascontiguousarray(state_t.T), row_of.tolist(), lengths


def pb_pmf_batch(
    probs_list: Sequence[Sequence[float] | np.ndarray],
    backend: str = "dp",
    kernel: str | None = None,
) -> list[np.ndarray]:
    """Pmfs of many Poisson-Binomial variables in one pass.

    Bit-identical to ``[pb_pmf(ps, backend) for ps in probs_list]``.
    Non-``"dp"`` backends fall back to the per-variable path.

    ``kernel`` picks the DP implementation (see :mod:`repro.kernels`):
    ``"numpy"`` returns rows of the one state matrix of
    :func:`pb_pmf_matrix` (views sharing one buffer, no per-row copy);
    ``"python"`` (the per-variable reference loop) and ``"numba"`` (a
    compiled per-row scalar recurrence) validate each variable and
    factor its degenerate trials exactly as ``PoissonBinomial`` does —
    zeros are dropped, ones shift the support.  ``None``/``"auto"``
    resolve via :func:`repro.kernels.resolve_kernel_backend`.  All
    three produce bit-identical pmfs.
    """
    if backend != "dp":
        return [pb_pmf(ps, backend=backend) for ps in probs_list]
    resolved = resolve_kernel_backend(kernel)
    if resolved == "numpy":
        dp, rows, lengths = pb_pmf_matrix(probs_list)
        return [dp[row, : n + 1] for row, n in zip(rows, lengths)]
    metas: list[tuple[int, int]] = []
    cores_in: list[np.ndarray] = []
    for probs in probs_list:
        ps = _validate_probs(probs)
        shift = int(np.count_nonzero(ps == 1.0))
        metas.append((int(ps.size), shift))
        cores_in.append(ps[(ps > 0.0) & (ps < 1.0)])
    if resolved == "numba":
        cores = pmf_dp_batch_numba(cores_in)
    else:
        cores = [_pmf_dp(ps) for ps in cores_in]
    out = []
    for (n_trials, shift), core in zip(metas, cores):
        pmf = np.zeros(n_trials + 1)
        pmf[shift : shift + core.size] = core
        out.append(pmf)
    return out


def _pmf_recursive(ps: np.ndarray) -> np.ndarray:
    """The paper's Eq. (1): Pr(K=k) = (1/k) * sum_i (-1)^{i-1} Pr(K=k-i) T(i).

    ``T(i) = sum_j (p_j / (1 - p_j))^i``.  Requires every ``p_j < 1``;
    trials with ``p_j == 1`` are split out by the caller.
    """
    n = ps.size
    if n == 0:
        return np.array([1.0])
    if np.any(ps >= 1.0):
        raise ValidationError(
            "the recursive backend requires all probabilities < 1 "
            "(certain trials must be factored out first)"
        )
    odds = ps / (1.0 - ps)
    # T(i) for i = 1..n, computed by cumulative powers of the odds.
    t = np.empty(n + 1)
    powers = np.ones_like(odds)
    for i in range(1, n + 1):
        powers = powers * odds
        t[i] = powers.sum()
    pmf = np.empty(n + 1)
    pmf[0] = np.prod(1.0 - ps)
    for k in range(1, n + 1):
        signs = (-1.0) ** np.arange(k + 1)  # signs[i] = (-1)^i
        # sum_{i=1..k} (-1)^(i-1) pmf[k-i] T(i)
        acc = 0.0
        for i in range(1, k + 1):
            acc += -signs[i] * pmf[k - i] * t[i]
        pmf[k] = acc / k
    # The alternating sum can produce small negative values; clip and
    # renormalise so downstream p-values stay in [0, 1].
    pmf = np.clip(pmf, 0.0, None)
    total = pmf.sum()
    if total > 0:
        pmf = pmf / total
    return pmf


def _phi(x: float) -> float:
    """Standard normal pdf."""
    return math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)


def _big_phi(x: float) -> float:
    """Standard normal cdf."""
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


class PoissonBinomial:
    """A Poisson-Binomial random variable with fixed trial probabilities.

    Parameters
    ----------
    probs:
        Per-trial success probabilities in [0, 1].  Degenerate trials
        (p == 0 or p == 1) are factored out exactly: zeros are dropped,
        ones shift the support.
    backend:
        Evaluation method; see the module docstring.
    """

    def __init__(
        self, probs: Sequence[float] | np.ndarray, backend: str = "dp"
    ) -> None:
        if backend not in _BACKENDS:
            raise ValidationError(
                f"unknown backend {backend!r}; known: {_BACKENDS}"
            )
        ps = _validate_probs(probs)
        self._backend = backend
        self._n_trials = int(ps.size)
        self._shift = int(np.count_nonzero(ps == 1.0))
        self._ps = ps[(ps > 0.0) & (ps < 1.0)]
        self._pmf_cache: np.ndarray | None = None

    # ------------------------------------------------------------------
    # Moments
    # ------------------------------------------------------------------
    @property
    def n_trials(self) -> int:
        return self._n_trials

    @property
    def backend(self) -> str:
        return self._backend

    def mean(self) -> float:
        return float(self._ps.sum()) + self._shift

    def var(self) -> float:
        return float((self._ps * (1.0 - self._ps)).sum())

    def std(self) -> float:
        return math.sqrt(self.var())

    # ------------------------------------------------------------------
    # Distribution functions
    # ------------------------------------------------------------------
    def pmf(self) -> np.ndarray:
        """The full pmf over support ``0 .. n_trials`` (exact backends).

        For the ``"normal"`` backend the pmf is derived from cdf
        differences of the refined approximation.
        """
        if self._pmf_cache is None:
            if self._backend == "dp":
                core = _pmf_dp(self._ps)
            elif self._backend == "recursive":
                core = _pmf_recursive(self._ps)
            else:
                core = self._pmf_normal()
            pmf = np.zeros(self._n_trials + 1)
            pmf[self._shift : self._shift + core.size] = core
            self._pmf_cache = pmf
        return self._pmf_cache

    def _pmf_normal(self) -> np.ndarray:
        n = self._ps.size
        cdfs = np.array([self._cdf_normal(k) for k in range(n + 1)])
        pmf = np.diff(np.concatenate([[0.0], cdfs]))
        pmf = np.clip(pmf, 0.0, None)
        total = pmf.sum()
        return pmf / total if total > 0 else pmf

    def _cdf_normal(self, k: float) -> float:
        """Refined (skew-corrected) normal cdf of the non-degenerate part."""
        mu = float(self._ps.sum())
        sigma2 = float((self._ps * (1.0 - self._ps)).sum())
        if sigma2 == 0.0:
            return 1.0 if k >= mu - 1e-12 else 0.0
        sigma = math.sqrt(sigma2)
        gamma = float((self._ps * (1.0 - self._ps) * (1.0 - 2.0 * self._ps)).sum())
        skew = gamma / sigma**3
        x = (k + 0.5 - mu) / sigma
        value = _big_phi(x) + skew * (1.0 - x * x) * _phi(x) / 6.0
        return min(max(value, 0.0), 1.0)

    def cdf(self, k: int) -> float:
        """``Pr(K <= k)``."""
        if k < 0:
            return 0.0
        if k >= self._n_trials:
            return 1.0
        if self._backend == "normal":
            core_k = k - self._shift
            if core_k < 0:
                return 0.0
            return self._cdf_normal(core_k)
        pmf = self.pmf()
        return float(min(pmf[: k + 1].sum(), 1.0))

    def sf(self, k: int) -> float:
        """``Pr(K >= k)`` (note: inclusive, unlike SciPy's ``sf``)."""
        if k <= 0:
            return 1.0
        if k > self._n_trials:
            return 0.0
        if self._backend == "normal":
            return max(0.0, 1.0 - self.cdf(k - 1))
        pmf = self.pmf()
        return float(min(pmf[k:].sum(), 1.0))

    def sample(self, rng: np.random.Generator, size: int = 1) -> np.ndarray:
        """Monte-Carlo draws of K (used in validation tests)."""
        if size < 0:
            raise ValidationError(f"size must be non-negative, got {size}")
        draws = rng.random((size, self._ps.size)) < self._ps
        return draws.sum(axis=1).astype(np.int64) + self._shift


# ----------------------------------------------------------------------
# Functional convenience API
# ----------------------------------------------------------------------
def pb_pmf(probs: Sequence[float] | np.ndarray, backend: str = "dp") -> np.ndarray:
    """The Poisson-Binomial pmf over ``0..n`` for the given trials."""
    return PoissonBinomial(probs, backend=backend).pmf()


def pb_cdf(probs: Sequence[float] | np.ndarray, k: int, backend: str = "dp") -> float:
    """``Pr(K <= k)`` for the given trials."""
    return PoissonBinomial(probs, backend=backend).cdf(k)


def pb_sf(probs: Sequence[float] | np.ndarray, k: int, backend: str = "dp") -> float:
    """``Pr(K >= k)`` for the given trials."""
    return PoissonBinomial(probs, backend=backend).sf(k)
