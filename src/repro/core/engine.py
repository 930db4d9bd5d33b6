"""Profile-once batch linking engine.

The seed :class:`~repro.core.linker.FTLLinker` paid for every
``(query, candidate)`` pair twice: the decision rule (alpha-filter or
Naive-Bayes) aligned the pair and computed its p-values inside
``decide()``, and the Eq. 2 ranking step re-aligned and re-tested the
matched candidates from scratch.  At 200 candidates per query that
doubles the hot-path cost for exactly the candidates we care about.

:class:`LinkEngine` fixes this by separating *evidence extraction* from
the *matching decision* (the architecture SLIM and Basık et al. use for
large-scale spatio-temporal linkage):

1. every pair's mutual-segment profile is computed **exactly once** per
   call through an LRU :class:`ProfileCache` keyed on
   ``(query_id, candidate_id, config)``;
2. the in-horizon evidence of the whole candidate pool is gathered into
   flat NumPy arrays — one :meth:`~repro.core.models.CompatibilityModel.probs_for`
   gather and one vectorised ``log`` pass per model serve every
   candidate, instead of re-dispatching tiny per-candidate arrays;
3. both decision rules *and* the Eq. 2 ranking read from the same
   evidence arrays, and the Poisson-Binomial tail p-values are memoised
   on the in-horizon bucket content, so identical profiles (common for
   short overlaps) are tested once.

Results are bit-identical to the sequential seed path: the flattening
preserves each candidate's segment order, every per-candidate reduction
(`sum`, Poisson-Binomial convolution) runs over exactly the same float64
values in exactly the same order as the per-pair code did.

:class:`LinkOptions` is the single source of the linking hyperparameter
defaults (previously scattered over ``FTLLinker``, ``parallel`` and the
CLI)::

    opts = LinkOptions(method="alpha-filter", alpha1=0.01, alpha2=0.1)
    engine = LinkEngine(mr, ma, options=opts)
    results = engine.link_batch(queries, q_db)
"""

from __future__ import annotations

import functools
import math
from collections import OrderedDict
from dataclasses import dataclass, replace
from typing import Any, Callable, Iterable, Sequence

import numpy as np

from repro.config import FTLConfig
from repro.core.alignment import (
    FlatPool,
    MutualSegmentProfile,
    batch_mutual_segment_profiles,
    mutual_segment_profile,
)
from repro.core.hypothesis import (
    acceptance_pvalue_batch,
    rejection_pvalue_batch,
)
from repro.core.models import CompatibilityModel, require_fitted_pair
from repro.core.trajectory import Trajectory
from repro.errors import ValidationError
from repro.kernels import KERNEL_BACKENDS, resolve_kernel_backend
from repro.obs import record_evidence, span

#: The two linking algorithms of the paper (Sections IV-D and IV-E).
METHODS = ("alpha-filter", "naive-bayes")

#: Default capacity of a :class:`ProfileCache` (profiles are small:
#: two arrays of one entry per mutual segment).
DEFAULT_PROFILE_CACHE_SIZE = 65536


# ----------------------------------------------------------------------
# Options
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class LinkOptions:
    """The linking hyperparameters, in one frozen bundle.

    This is the single source of the defaults previously duplicated by
    ``FTLLinker``, ``repro.parallel`` and the CLI.

    Parameters
    ----------
    method:
        ``"alpha-filter"`` or ``"naive-bayes"``.
    alpha1:
        Significance level of the rejection phase (larger is stricter).
    alpha2:
        Significance level of the acceptance phase (smaller is stricter).
    phi_r:
        Naive-Bayes prior ``Pr(M = Mr)`` in (0, 1).
    top_k:
        When set, results are truncated to the ``top_k`` best-ranked
        candidates; ``None`` returns the full matched set.
    prefilter:
        Optional candidate pre-filter (see :mod:`repro.core.prefilter`)
        applied before the statistical tests.
    kernel_backend:
        Hot-path kernel implementation override (``"auto"``,
        ``"numba"``, ``"numpy"`` or ``"python"``; see
        :mod:`repro.kernels`).  ``None`` defers to the models'
        :attr:`~repro.config.FTLConfig.kernel_backend`.
    """

    method: str = "naive-bayes"
    alpha1: float = 0.05
    alpha2: float = 0.05
    phi_r: float = 0.01
    top_k: int | None = None
    prefilter: Any = None
    kernel_backend: str | None = None

    def __post_init__(self) -> None:
        if self.method not in METHODS:
            raise ValidationError(
                f"unknown method {self.method!r}; known: {METHODS}"
            )
        if (
            self.kernel_backend is not None
            and self.kernel_backend not in KERNEL_BACKENDS
        ):
            raise ValidationError(
                f"unknown kernel_backend {self.kernel_backend!r}; "
                f"known: {KERNEL_BACKENDS}"
            )
        if not 0.0 <= self.alpha1 <= 1.0:
            raise ValidationError(f"alpha1 must be in [0, 1], got {self.alpha1}")
        if not 0.0 <= self.alpha2 <= 1.0:
            raise ValidationError(f"alpha2 must be in [0, 1], got {self.alpha2}")
        if not 0.0 < self.phi_r < 1.0:
            raise ValidationError(f"phi_r must be in (0, 1), got {self.phi_r}")
        if self.top_k is not None and self.top_k < 1:
            raise ValidationError(f"top_k must be >= 1 or None, got {self.top_k}")
        if self.prefilter is not None and not hasattr(self.prefilter, "keep"):
            raise ValidationError("prefilter must expose a keep(query, candidate)")

    @property
    def phi_a(self) -> float:
        return 1.0 - self.phi_r

    def with_updates(self, **changes: Any) -> "LinkOptions":
        """A copy of these options with the given fields replaced."""
        return replace(self, **changes)


#: Module-wide defaults; ``LinkOptions()`` is cheap but this names them.
DEFAULT_LINK_OPTIONS = LinkOptions()


@dataclass(frozen=True)
class LinkRequest:
    """One unit of linking work for :meth:`LinkEngine.link_requests`.

    A request bundles a query with (optionally) its own candidate pool
    and its own :class:`LinkOptions`, so heterogeneous requests — as a
    serving frontend receives them — can be coalesced into one engine
    call that shares the profile cache and tail memo across all of
    them.

    Parameters
    ----------
    query:
        The trajectory to link.
    candidates:
        The candidate pool for this request; ``None`` uses the
        ``default_pool`` passed to :meth:`LinkEngine.link_requests`.
    options:
        Per-request options; ``None`` uses the engine defaults (or the
        call-level override).
    """

    query: Trajectory
    candidates: tuple[Trajectory, ...] | None = None
    options: LinkOptions | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.query, Trajectory):
            raise ValidationError(
                f"query must be a Trajectory, got {type(self.query).__name__}"
            )
        if self.candidates is not None and not isinstance(self.candidates, tuple):
            object.__setattr__(self, "candidates", tuple(self.candidates))
        if self.options is not None and not isinstance(self.options, LinkOptions):
            raise ValidationError(
                f"options must be a LinkOptions or None, "
                f"got {type(self.options).__name__}"
            )


# ----------------------------------------------------------------------
# Results
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Candidate:
    """One returned candidate with its ranking evidence."""

    candidate_id: object
    score: float
    p_rejection: float
    p_acceptance: float
    n_mutual: int
    n_incompatible: int

    def to_dict(self) -> dict:
        """A JSON-friendly snapshot of the candidate."""
        return {
            "candidate_id": self.candidate_id,
            "score": self.score,
            "p_rejection": self.p_rejection,
            "p_acceptance": self.p_acceptance,
            "n_mutual": self.n_mutual,
            "n_incompatible": self.n_incompatible,
        }


@dataclass(frozen=True)
class LinkResult:
    """Outcome of linking one query against a candidate database."""

    query_id: object
    method: str
    candidates: tuple[Candidate, ...]

    def candidate_ids(self) -> list[object]:
        """Candidate ids in rank order (best first)."""
        return [c.candidate_id for c in self.candidates]

    def __len__(self) -> int:
        return len(self.candidates)

    def contains(self, candidate_id: object) -> bool:
        return any(c.candidate_id == candidate_id for c in self.candidates)

    def top(self, k: int) -> tuple[Candidate, ...]:
        """The ``k`` best-ranked candidates (fewer when the set is smaller)."""
        if k < 0:
            raise ValidationError(f"k must be >= 0, got {k}")
        return self.candidates[:k]

    def to_dict(self) -> dict:
        """A JSON-friendly snapshot of the whole result."""
        return {
            "query_id": self.query_id,
            "method": self.method,
            "candidates": [c.to_dict() for c in self.candidates],
        }


# ----------------------------------------------------------------------
# Profile cache
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CacheStats:
    """Point-in-time counters of a :class:`ProfileCache`."""

    hits: int
    misses: int
    evictions: int
    size: int
    maxsize: int

    @property
    def n_computed(self) -> int:
        """Profiles actually aligned (== misses); the rest were served."""
        return self.misses


class ProfileCache:
    """LRU cache of mutual-segment profiles keyed on pair identity.

    Keys are ``(query_id, candidate_id, config)``; the
    :class:`~repro.config.FTLConfig` is a frozen dataclass and therefore
    hashable, so one cache can serve engines running under different
    configurations.  Trajectory ids are assumed stable: callers that
    mutate a trajectory while reusing its id must :meth:`clear` first.
    """

    def __init__(self, maxsize: int = DEFAULT_PROFILE_CACHE_SIZE) -> None:
        if maxsize < 1:
            raise ValidationError(f"maxsize must be >= 1, got {maxsize}")
        self._maxsize = int(maxsize)
        self._entries: OrderedDict[tuple, MutualSegmentProfile] = OrderedDict()
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    def get(
        self,
        query: Trajectory,
        candidate: Trajectory,
        config: FTLConfig,
        backend: str | None = None,
    ) -> MutualSegmentProfile:
        """The pair's profile, aligning the pair only on a cache miss."""
        key = (query.traj_id, candidate.traj_id, config)
        entry = self._entries.get(key)
        if entry is not None:
            self._entries.move_to_end(key)
            self._hits += 1
            return entry
        self._misses += 1
        profile = mutual_segment_profile(query, candidate, config, backend)
        self._entries[key] = profile
        if len(self._entries) > self._maxsize:
            self._entries.popitem(last=False)
            self._evictions += 1
        return profile

    def get_many(
        self,
        query: Trajectory,
        candidates: Sequence[Trajectory],
        config: FTLConfig,
        backend: str | None = None,
        flat: FlatPool | Callable[[], FlatPool] | None = None,
    ) -> list[MutualSegmentProfile]:
        """Profiles of one query against many candidates, batching misses.

        Counter semantics match a loop of :meth:`get` calls exactly
        (a repeated pair id within one pool is one miss plus hits), but
        all missing pairs are aligned in a single
        :func:`~repro.core.alignment.batch_mutual_segment_profiles`
        kernel invocation instead of per-pair calls.  A
        :class:`~repro.core.alignment.FlatPool` of the full candidate
        list — prebuilt, or a zero-argument callable that builds it,
        called only then — is used when every pair misses (the
        cold-cache batch case); partial misses re-flatten just the
        missing subset.
        """
        results: list[MutualSegmentProfile | None] = [None] * len(candidates)
        pending: OrderedDict[tuple, list[int]] = OrderedDict()
        pending_cands: list[Trajectory] = []
        for pos, candidate in enumerate(candidates):
            key = (query.traj_id, candidate.traj_id, config)
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
                self._hits += 1
                results[pos] = entry
            elif key in pending:
                self._hits += 1
                pending[key].append(pos)
            else:
                self._misses += 1
                pending[key] = [pos]
                pending_cands.append(candidate)
        if pending_cands:
            full_miss = len(pending_cands) == len(candidates)
            if full_miss and callable(flat):
                flat = flat()
            profiles = batch_mutual_segment_profiles(
                query,
                pending_cands,
                config,
                backend=backend,
                flat=flat if full_miss else None,
            )
            for (key, positions), profile in zip(pending.items(), profiles):
                self._entries[key] = profile
                if len(self._entries) > self._maxsize:
                    self._entries.popitem(last=False)
                    self._evictions += 1
                for pos in positions:
                    results[pos] = profile
        return results

    def clear(self) -> None:
        """Drop every entry (counters are kept)."""
        self._entries.clear()

    def invalidate(self, traj_ids) -> int:
        """Drop every entry involving any of the given trajectory ids.

        The targeted form of the :meth:`clear` contract for streaming:
        when an ingest flush or sliding-window eviction changes records
        under reused ids, only pairs touching those ids are stale.
        Matches on either side of the pair key; returns entries dropped.
        """
        stale = set(traj_ids)
        if not stale:
            return 0
        doomed = [
            key for key in self._entries
            if key[0] in stale or key[1] in stale
        ]
        for key in doomed:
            del self._entries[key]
        return len(doomed)

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def stats(self) -> CacheStats:
        return CacheStats(
            hits=self._hits,
            misses=self._misses,
            evictions=self._evictions,
            size=len(self._entries),
            maxsize=self._maxsize,
        )


# ----------------------------------------------------------------------
# Flattened pool evidence
# ----------------------------------------------------------------------
class _PoolEvidence:
    """In-horizon evidence of one query against a candidate pool.

    All candidates' in-horizon mutual segments are concatenated into
    flat arrays (``buckets``, ``incompatible``) with slice ``offsets``;
    candidate ``i`` owns ``flat[offsets[i]:offsets[i + 1]]`` in its
    original segment order, so any per-candidate reduction over a slice
    reproduces the per-pair computation bit for bit.
    """

    __slots__ = (
        "n", "buckets", "incompatible", "offsets", "n_mutual", "n_incompatible"
    )

    def __init__(self, profiles: Sequence[MutualSegmentProfile], n_buckets: int):
        self.n = len(profiles)
        if self.n:
            bkt = np.concatenate([p.buckets for p in profiles])
            inc = np.concatenate([p.incompatible for p in profiles])
            sizes = np.fromiter(
                (p.n_total for p in profiles), dtype=np.int64, count=self.n
            )
        else:
            bkt = np.empty(0, dtype=np.int64)
            inc = np.empty(0, dtype=bool)
            sizes = np.empty(0, dtype=np.int64)
        mask = bkt < n_buckets
        self.buckets = bkt[mask]
        self.incompatible = inc[mask]
        # Per-candidate in-horizon counts -> slice offsets into the
        # compressed arrays (cumsum of the mask per original slice).
        ends = np.zeros(self.n + 1, dtype=np.int64)
        np.cumsum(sizes, out=ends[1:])
        kept = np.concatenate([[0], np.cumsum(mask, dtype=np.int64)])
        self.offsets = kept[ends]
        self.n_mutual = np.diff(self.offsets)
        # Per-slice incompatible counts as one integer cumsum (exact),
        # replacing the per-candidate count_nonzero loop.
        inc_csum = np.zeros(self.incompatible.shape[0] + 1, dtype=np.int64)
        np.cumsum(self.incompatible, dtype=np.int64, out=inc_csum[1:])
        self.n_incompatible = inc_csum[self.offsets[1:]] - inc_csum[self.offsets[:-1]]

    def slice(self, arr: np.ndarray, i: int) -> np.ndarray:
        return arr[self.offsets[i]: self.offsets[i + 1]]


# ----------------------------------------------------------------------
# The engine
# ----------------------------------------------------------------------
class LinkEngine:
    """Batch linking over a fitted ``(Mr, Ma)`` model pair.

    Parameters
    ----------
    rejection_model, acceptance_model:
        The fitted model pair (must share one config).
    options:
        Default :class:`LinkOptions`; per-call options override them.
    profile_cache:
        Optional shared :class:`ProfileCache`; a private one is created
        when omitted.
    """

    def __init__(
        self,
        rejection_model: CompatibilityModel,
        acceptance_model: CompatibilityModel,
        options: LinkOptions = DEFAULT_LINK_OPTIONS,
        profile_cache: ProfileCache | None = None,
    ) -> None:
        self._mr, self._ma = require_fitted_pair(rejection_model, acceptance_model)
        if not isinstance(options, LinkOptions):
            raise ValidationError(
                f"options must be a LinkOptions, got {type(options).__name__}"
            )
        self._options = options
        self._cache = profile_cache if profile_cache is not None else ProfileCache()
        # Kernel backend, resolved once: explicit options override, else
        # the config the models were fitted under (env override and
        # numba availability are handled by resolve_kernel_backend).
        requested = (
            options.kernel_backend
            if options.kernel_backend is not None
            else self._mr.config.kernel_backend
        )
        self._kernel = resolve_kernel_backend(requested)
        # Per-bucket probability and log-likelihood tables, quantised at
        # construction.  _PoolEvidence keeps only in-horizon buckets, so
        # a flat ``table[buckets]`` gather reproduces ``probs_for``
        # exactly, and the clipped log tables are elementwise identical
        # to clipping/logging the gathered values per pool.
        floor = self._mr.config.prob_floor
        self._table_r = np.asarray(self._mr.prob_table)
        self._table_a = np.asarray(self._ma.prob_table)
        cl_r = np.clip(self._table_r, floor, 1.0 - floor)
        cl_a = np.clip(self._table_a, floor, 1.0 - floor)
        self._log_r, self._log1m_r = np.log(cl_r), np.log1p(-cl_r)
        self._log_a, self._log1m_a = np.log(cl_a), np.log1p(-cl_a)
        # Poisson-Binomial tails memoised on in-horizon bucket content;
        # valid per engine because the model pair (hence the per-bucket
        # probability tables and backend) is fixed.
        self._tail_memo: OrderedDict[tuple, float] = OrderedDict()
        self._tail_memo_max = 65536

    # ------------------------------------------------------------------
    @property
    def options(self) -> LinkOptions:
        return self._options

    @property
    def cache(self) -> ProfileCache:
        return self._cache

    @property
    def rejection_model(self) -> CompatibilityModel:
        return self._mr

    @property
    def acceptance_model(self) -> CompatibilityModel:
        return self._ma

    @property
    def config(self) -> FTLConfig:
        return self._mr.config

    @property
    def kernel_backend(self) -> str:
        """The resolved hot-path kernel backend (never ``"auto"``)."""
        return self._kernel

    def stage_backends(self) -> dict[str, str]:
        """Which implementation serves each pipeline stage.

        Surfaced by ``ftl profile``, the serve startup banner and
        ``/healthz`` so a deployment can verify its kernel selection.
        """
        pb = self.config.pb_backend
        return {
            "profile": self._kernel,
            "pb_test": f"dp[{self._kernel}]" if pb == "dp" else pb,
            "rank": "python",
            "blocking": "python",
            "prefilter": "python",
        }

    def invalidate_profiles(self, traj_ids) -> int:
        """Drop cached profiles for pairs touching any of ``traj_ids``.

        Required after streaming mutates trajectories under reused ids
        (ingest flush merges record deltas; eviction drops old records):
        profile identity is keyed on ids, so stale entries would
        otherwise serve pre-mutation evidence.  The Poisson-Binomial
        tail memo is content-addressed and stays valid.
        """
        return self._cache.invalidate(traj_ids)

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def link(
        self,
        query: Trajectory,
        candidates: Iterable[Trajectory],
        options: LinkOptions | None = None,
    ) -> LinkResult:
        """Rank one query against a candidate pool."""
        return self.link_batch([query], candidates, options)[0]

    def link_batch(
        self,
        queries: Sequence[Trajectory],
        candidates: Iterable[Trajectory],
        options: LinkOptions | None = None,
    ) -> list[LinkResult]:
        """Rank every query against the shared candidate pool.

        Equivalent to (and bit-identical with) a loop of sequential
        ``link()`` calls, but each pair's profile is computed at most
        once and the pool's evidence is evaluated in flat arrays.
        """
        opts = self._options if options is None else options
        if not isinstance(opts, LinkOptions):
            raise ValidationError(
                f"options must be a LinkOptions, got {type(opts).__name__}"
            )
        with span("blocking"):
            pool = candidates if isinstance(candidates, list) else list(candidates)
        flat = self._flatten(pool)
        results = []
        for query in queries:
            if opts.prefilter is None:
                kept = pool
                kept_flat = flat
            else:
                with span("prefilter"):
                    kept = [c for c in pool if opts.prefilter.keep(query, c)]
                kept_flat = None
            results.append(self._link_one(query, kept, opts, kept_flat))
        return results

    def link_requests(
        self,
        requests: Sequence[LinkRequest],
        default_pool: Iterable[Trajectory] | None = None,
        options: LinkOptions | None = None,
    ) -> list[LinkResult]:
        """Serve a batch of heterogeneous :class:`LinkRequest` units.

        This is the serving entry point: a frontend that coalesces
        concurrent requests (each with its own candidate pool and
        options) hands them over in one call, so all of them share the
        profile cache and the Poisson-Binomial tail memo.  Each
        request's result is bit-identical to a standalone
        ``link(query, candidates, options)`` call with the same
        arguments.

        Parameters
        ----------
        requests:
            The work units; see :class:`LinkRequest`.
        default_pool:
            Pool used by requests whose ``candidates`` is ``None``
            (e.g. the daemon's resident candidate database).
        options:
            Call-level default options for requests whose ``options``
            is ``None``; falls back to the engine defaults.
        """
        call_opts = self._options if options is None else options
        if not isinstance(call_opts, LinkOptions):
            raise ValidationError(
                f"options must be a LinkOptions, got {type(call_opts).__name__}"
            )
        pool = None
        pool_flat: Callable[[], FlatPool] | None = None
        results = []
        for request in requests:
            if not isinstance(request, LinkRequest):
                raise ValidationError(
                    f"requests must be LinkRequest, got {type(request).__name__}"
                )
            if request.candidates is not None:
                cands: Sequence[Trajectory] = request.candidates
                cands_flat = None
            else:
                if pool is None:
                    if default_pool is None:
                        raise ValidationError(
                            "request has no candidates and no default_pool "
                            "was provided"
                        )
                    with span("blocking"):
                        pool = (
                            default_pool
                            if isinstance(default_pool, list)
                            else list(default_pool)
                        )
                    pool_flat = self._flatten(pool)
                cands = pool
                cands_flat = pool_flat
            opts = request.options if request.options is not None else call_opts
            if opts.prefilter is None:
                kept = cands
                kept_flat = cands_flat
            else:
                with span("prefilter"):
                    kept = [
                        c for c in cands if opts.prefilter.keep(request.query, c)
                    ]
                kept_flat = None
            results.append(self._link_one(request.query, kept, opts, kept_flat))
        return results

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _flatten(
        self, pool: Sequence[Trajectory]
    ) -> Callable[[], FlatPool] | None:
        """The pool's :class:`FlatPool`, built at most once per batch.

        Flattening costs a pass over every candidate, and only a query
        that misses the profile cache on every pair uses the result, so
        it is built on the first such query (never, for a fully cached
        batch).  ``None`` on the per-pair backend, which never uses it.
        """
        if self._kernel == "python" or not pool:
            return None
        return functools.cache(functools.partial(FlatPool, pool))

    def _link_one(
        self,
        query: Trajectory,
        pool: Sequence[Trajectory],
        opts: LinkOptions,
        flat: Callable[[], FlatPool] | None = None,
    ) -> LinkResult:
        config = self.config
        with span("profile"):
            profiles = self._cache.get_many(
                query, pool, config, self._kernel, flat
            )
            ev = _PoolEvidence(profiles, self._mr.n_buckets)
            # Feed the context-bound drift sink (no-op when none): the
            # pool's in-horizon (bucket, incompatible) observations are
            # exactly the live counterpart of the fitted count tables.
            record_evidence(ev.buckets, ev.incompatible)

        with span("pb_test"):
            if opts.method == "alpha-filter":
                matched_idx, p1_m, p2_m = self._alpha_filter(ev, opts)
            else:
                matched_idx, p1_m, p2_m = self._naive_bayes(ev, opts)

        with span("rank"):
            scores = p1_m * (1.0 - p2_m)
            # A stable argsort of -score is the permutation of a stable
            # ``sort(key=-score)`` (ties keep pool order); only the kept
            # prefix is turned into Candidates.
            order = np.argsort(-scores, kind="stable")[: opts.top_k]
            picked = np.asarray(matched_idx, dtype=np.int64)[order]
            ranked = tuple(
                Candidate(
                    candidate_id=pool[i].traj_id,
                    score=score,
                    p_rejection=p1,
                    p_acceptance=p2,
                    n_mutual=n_mutual,
                    n_incompatible=n_incompatible,
                )
                for i, score, p1, p2, n_mutual, n_incompatible in zip(
                    picked.tolist(),
                    scores[order].tolist(),
                    p1_m[order].tolist(),
                    p2_m[order].tolist(),
                    ev.n_mutual[picked].tolist(),
                    ev.n_incompatible[picked].tolist(),
                )
            )
            return LinkResult(
                query_id=query.traj_id, method=opts.method, candidates=ranked
            )

    def _alpha_filter(
        self, ev: _PoolEvidence, opts: LinkOptions
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Both test phases over the pool; returns the matched evidence.

        Phase ordering matches the seed: ``p2`` is only computed for
        phase-1 survivors (``p1 >= alpha1``).
        """
        ps_r = self._table_r[ev.buckets]
        ps_a = self._table_a[ev.buckets]
        p1 = np.asarray(self._tails("r", ev, ps_r, range(ev.n)), dtype=float)
        survivors = np.flatnonzero(p1 >= opts.alpha1)
        p2_s = np.asarray(self._tails("a", ev, ps_a, survivors), dtype=float)
        accepted = p2_s < opts.alpha2
        matched = survivors[accepted]
        return matched, p1[matched], p2_s[accepted]

    def _naive_bayes(
        self, ev: _PoolEvidence, opts: LinkOptions
    ) -> tuple[list[int], np.ndarray, np.ndarray]:
        """NB posterior comparison over the pool from the flat evidence.

        The per-segment log terms are gathered from the engine's
        pre-quantised per-bucket log tables (clipped and logged once at
        construction — elementwise identical to clipping/logging the
        gathered probabilities per pool); each candidate's
        log-likelihood then sums its own compressed slice in segment
        order, reproducing the per-pair ``_log_likelihood`` bit for bit.
        """
        ps_r = self._table_r[ev.buckets]
        ps_a = self._table_a[ev.buckets]
        log_r, log1m_r = self._log_r[ev.buckets], self._log1m_r[ev.buckets]
        log_a, log1m_a = self._log_a[ev.buckets], self._log1m_a[ev.buckets]
        log_phi_r = math.log(opts.phi_r)
        log_phi_a = math.log(opts.phi_a)

        matched: list[int] = []
        for i in range(ev.n):
            inc = ev.slice(ev.incompatible, i)
            com = ~inc
            ll_r = float(
                ev.slice(log_r, i)[inc].sum() + ev.slice(log1m_r, i)[com].sum()
            )
            ll_a = float(
                ev.slice(log_a, i)[inc].sum() + ev.slice(log1m_a, i)[com].sum()
            )
            ratio = (log_phi_r + ll_r) - (log_phi_a + ll_a)
            if ratio >= 0.0:
                matched.append(i)
        p1_m = self._tails("r", ev, ps_r, matched)
        p2_m = self._tails("a", ev, ps_a, matched)
        return matched, np.asarray(p1_m), np.asarray(p2_m)

    def _tails(
        self,
        kind: str,
        ev: _PoolEvidence,
        ps: np.ndarray,
        indices: Iterable[int],
    ) -> list[float]:
        """Memoised Poisson-Binomial tails for the given pool indices.

        Memo misses are computed in one vectorised batch
        (``*_pvalue_batch``); the values are identical either way, so a
        memo hit can never change a result.
        """
        indices = list(indices)
        values: list[float | None] = [None] * len(indices)
        keys: list[tuple] = []
        missing_pos: list[int] = []
        missing_ps: list[np.ndarray] = []
        missing_k: list[int] = []
        # Key bytes are sliced from one serialisation of the pool's
        # buckets: equal to ``ev.slice(ev.buckets, i).tobytes()``.
        raw = ev.buckets.tobytes()
        width = ev.buckets.itemsize
        offsets = ev.offsets.tolist()
        n_incompatible = ev.n_incompatible.tolist()
        memo = self._tail_memo
        for pos, i in enumerate(indices):
            lo, hi = offsets[i], offsets[i + 1]
            k = n_incompatible[i]
            key = (kind, raw[lo * width : hi * width], k)
            keys.append(key)
            hit = memo.get(key)
            if hit is not None:
                values[pos] = hit
            else:
                missing_pos.append(pos)
                missing_ps.append(ps[lo:hi])
                missing_k.append(k)
        if missing_pos:
            batch_fn = (
                rejection_pvalue_batch if kind == "r" else acceptance_pvalue_batch
            )
            computed = batch_fn(
                missing_ps, missing_k, self.config.pb_backend, kernel=self._kernel
            )
            for pos, value in zip(missing_pos, computed):
                self._memoise(keys[pos], value)
                values[pos] = value
        return values

    def _memoise(self, key: tuple, value: float) -> None:
        self._tail_memo[key] = value
        if len(self._tail_memo) > self._tail_memo_max:
            self._tail_memo.popitem(last=False)
