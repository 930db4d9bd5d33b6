"""Poisson-Binomial convolution-DP kernels.

Batch evaluation of many Poisson-Binomial pmfs (one per candidate pair)
by the exact O(n^2) convolution dynamic program.  Inputs arrive with
degenerate trials already factored out (every ``0 < p < 1``), exactly
as :func:`repro.stats.poisson_binomial.pb_pmf_batch` prepares them for
the ``python`` and ``numba`` kernels.

* ``python`` — one scalar DP per variable (the reference
  ``_pmf_dp`` loop).
* ``numpy`` — the state-matrix DP
  (:func:`~repro.stats.poisson_binomial.pb_pmf_matrix`), one NumPy
  dispatch per segment index; it runs degenerate trials through the
  recurrence, which is exact for them.
* ``numba`` — an ``@njit`` loop running every row's scalar recurrence
  in compiled code; the per-element arithmetic is exactly
  ``new[k] = old[k] * (1 - p) + old[k - 1] * p`` in the same order, so
  the outputs are bit-identical to both other kernels.
"""

from __future__ import annotations

import numpy as np

_NUMBA_DP_KERNEL = None


def _numba_dp_kernel():
    """Build (once) the ``@njit`` flat batched convolution DP."""
    global _NUMBA_DP_KERNEL
    if _NUMBA_DP_KERNEL is None:
        from numba import njit

        @njit(cache=True, nogil=True)
        def _dp_flat(
            ps_flat, offsets, out_flat, out_offsets
        ):  # pragma: no cover - exercised only where numba is installed
            for r in range(offsets.size - 1):
                s = offsets[r]
                n = offsets[r + 1] - s
                base = out_offsets[r]
                out_flat[base] = 1.0
                size = 1
                for t in range(n):
                    p = ps_flat[s + t]
                    q = 1.0 - p
                    out_flat[base + size] = out_flat[base + size - 1] * p
                    for k in range(size - 1, 0, -1):
                        out_flat[base + k] = (
                            out_flat[base + k] * q + out_flat[base + k - 1] * p
                        )
                    out_flat[base] = out_flat[base] * q
                    size += 1

        _NUMBA_DP_KERNEL = _dp_flat
    return _NUMBA_DP_KERNEL


def pmf_dp_batch_numba(ps_arrays: list[np.ndarray]) -> list[np.ndarray]:
    """Many convolution DPs through one compiled call.

    Bit-identical to the scalar ``_pmf_dp`` per array: the in-place
    backward sweep evaluates the same two products and one addition per
    state, in the same order, under IEEE semantics (no fastmath).
    """
    n_rows = len(ps_arrays)
    if n_rows == 0:
        return []
    kernel = _numba_dp_kernel()
    lengths = np.fromiter((a.size for a in ps_arrays), np.int64, count=n_rows)
    offsets = np.zeros(n_rows + 1, dtype=np.int64)
    np.cumsum(lengths, out=offsets[1:])
    out_offsets = np.zeros(n_rows + 1, dtype=np.int64)
    np.cumsum(lengths + 1, out=out_offsets[1:])
    ps_flat = (
        np.concatenate(ps_arrays)
        if offsets[-1]
        else np.empty(0, dtype=np.float64)
    )
    out_flat = np.empty(int(out_offsets[-1]), dtype=np.float64)
    kernel(np.ascontiguousarray(ps_flat, dtype=np.float64), offsets,
           out_flat, out_offsets)
    return [
        out_flat[out_offsets[r]: out_offsets[r + 1]].copy()
        for r in range(n_rows)
    ]
