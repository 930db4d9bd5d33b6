"""Span recording around each layer's public functions (traced runs only).

:func:`install` replaces layer entry points with wrappers that record a
span per call: ``(name, tid, start, end, span_id, parent_id, attrs)``.
Parents come from a context-local stack, so nesting is exact within a
thread or asyncio task.  Spans stay in memory per process and are
written to ``<out_dir>/spans-<pid>.json`` when the process ends: at
interpreter exit for the daemon, and when the worker loop returns for
forked shard workers (which leave through ``os._exit``).

Wrappers that name a function the program no longer has are skipped
and listed in the dump's ``missing`` field, so a refactor degrades the
per-layer table instead of breaking the traced run.

Only ``perf_counter`` timestamps are recorded; on Linux it reads
``CLOCK_MONOTONIC``, shared by every process on the host, so daemon
spans line up with the load generator's phase windows.
"""

from __future__ import annotations

import atexit
import contextvars
import functools
import importlib
import itertools
import json
import os
import threading
import time

_spans: list = []
_missing: list[str] = []
_ids = itertools.count(1)
_stack: contextvars.ContextVar[tuple] = contextvars.ContextVar(
    "perfbench_span_stack", default=()
)
_out_dir: str | None = None


def _record(name, start, end, sid, parent, attrs) -> None:
    _spans.append(
        (name, threading.get_ident(), start, end, sid, parent, attrs)
    )


def _sync_wrapper(fn, name, before=None, after=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        stack = _stack.get()
        sid = next(_ids)
        token = _stack.set(stack + (sid,))
        attrs: dict = {}
        if before is not None:
            args, kwargs = before(attrs, args, kwargs)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            _stack.reset(token)
        if after is not None:
            after(attrs, args, result)
        _record(name, start, end, sid, stack[-1] if stack else 0, attrs)
        return result

    return wrapper


def _async_wrapper(fn, name):
    @functools.wraps(fn)
    async def wrapper(*args, **kwargs):
        stack = _stack.get()
        sid = next(_ids)
        token = _stack.set(stack + (sid,))
        start = time.perf_counter()
        try:
            return await fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            _stack.reset(token)
            _record(name, start, end, sid, stack[-1] if stack else 0, {})

    return wrapper


# ----------------------------------------------------------------------
# Attribute hooks: counts recorded at the same boundary as the timing
# ----------------------------------------------------------------------
def _n_requests(attrs, args, kwargs):
    attrs["n"] = len(args[1])
    return args, kwargs


def _cache_before(attrs, args, kwargs):
    stats = args[0].stats
    attrs["_before"] = (stats.hits, stats.misses, stats.evictions)
    return args, kwargs


def _cache_after(attrs, args, result):
    stats = args[0].stats
    hits, misses, evictions = attrs.pop("_before")
    attrs["hits"] = stats.hits - hits
    attrs["misses"] = stats.misses - misses
    attrs["evictions"] = stats.evictions - evictions


def _rows(attrs, args, kwargs):
    attrs["rows"] = len(args[0])
    return args, kwargs


def _tails_before(attrs, args, kwargs):
    # (self, kind, ev, ps, indices): indices may be a one-shot iterator.
    indices = list(args[4])
    attrs["n"] = len(indices)
    return args[:4] + (indices,) + args[5:], kwargs


def _returned_count(attrs, args, result):
    attrs["n"] = int(result if isinstance(result, int) else result[0])


def _segment_bytes(attrs, args, result):
    store = args[0]
    attrs["records"] = int(result)
    if result:
        seg = store.path / store.manifest.segments[-1].dirname
        attrs["bytes"] = sum(
            p.stat().st_size for p in seg.rglob("*") if p.is_file()
        )


#: (module, attribute path, span name, kind, before, after).  Names
#: imported into another module are patched where they are looked up.
_TARGETS = (
    ("repro.service.protocol", "parse_json_body", "protocol.decode",
     "sync", None, None),
    ("repro.service.protocol", "link_request_from_wire", "protocol.decode",
     "sync", None, None),
    ("repro.service.protocol", "assign_request_from_wire", "protocol.decode",
     "sync", None, None),
    ("repro.service.protocol", "ingest_request_from_wire", "protocol.decode",
     "sync", None, None),
    ("repro.service.protocol", "result_to_wire", "protocol.encode",
     "sync", None, None),
    ("repro.service.protocol", "ResponseEnvelope.to_wire", "protocol.encode",
     "sync", None, None),
    ("repro.service.batcher", "MicroBatcher.submit", "batcher.submit",
     "async", None, None),
    ("repro.core.engine", "LinkEngine.link_requests", "engine.link_requests",
     "sync", _n_requests, None),
    ("repro.core.engine", "LinkEngine.invalidate_profiles",
     "engine.invalidate_profiles", "sync", None, _returned_count),
    ("repro.core.engine", "LinkEngine._tails", "pb_test.tails",
     "sync", _tails_before, None),
    ("repro.core.engine", "ProfileCache.get_many", "profile.get_many",
     "sync", _cache_before, _cache_after),
    ("repro.core.engine", "rejection_pvalue_batch", "pb_test.dp",
     "sync", _rows, None),
    ("repro.core.engine", "acceptance_pvalue_batch", "pb_test.dp",
     "sync", _rows, None),
    ("repro.store.store", "TrajectoryStore.append", "store.append",
     "sync", None, _segment_bytes),
    ("repro.stream.runtime", "StreamRuntime.append_flush",
     "stream.append_flush", "sync", None, _returned_count),
    ("repro.stream.runtime", "merge_index_deltas", "stream.merge",
     "sync", None, None),
    ("repro.service.supervisor", "ShardSupervisor.link_requests",
     "supervisor.link_requests", "sync", None, None),
    ("repro.service.supervisor", "merge_partials", "shard.merge",
     "sync", None, None),
    ("repro.service.shard", "shard_link_matches", "shard.link_matches",
     "sync", None, None),
)


def _patch(module_name, attr_path, name, kind, before, after) -> None:
    try:
        owner = importlib.import_module(module_name)
        *parents, attr = attr_path.split(".")
        for parent in parents:
            owner = getattr(owner, parent)
        fn = getattr(owner, attr)
    except (ImportError, AttributeError):
        _missing.append(f"{module_name}.{attr_path}")
        return
    wrapper = (
        _async_wrapper(fn, name)
        if kind == "async"
        else _sync_wrapper(fn, name, before, after)
    )
    setattr(owner, attr, wrapper)


def dump() -> None:
    """Write this process's spans (idempotent per process)."""
    if _out_dir is None:
        return
    path = os.path.join(_out_dir, f"spans-{os.getpid()}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"pid": os.getpid(), "missing": _missing,
                   "spans": _spans}, fh)


def _reset_in_child() -> None:
    _spans.clear()


def _wrap_worker_loop() -> None:
    """Dump a forked shard worker's spans before it ``os._exit``s."""
    try:
        supervisor = importlib.import_module("repro.service.supervisor")
        run_worker = supervisor.run_worker
    except (ImportError, AttributeError):
        _missing.append("repro.service.supervisor.run_worker")
        return

    @functools.wraps(run_worker)
    def traced_run_worker(*args, **kwargs):
        try:
            return run_worker(*args, **kwargs)
        finally:
            dump()

    supervisor.run_worker = traced_run_worker


def install(out_dir: str) -> None:
    """Patch every target and arrange for spans to be written at exit."""
    global _out_dir
    _out_dir = out_dir
    for target in _TARGETS:
        _patch(*target)
    _wrap_worker_loop()
    os.register_at_fork(after_in_child=_reset_in_child)
    atexit.register(dump)


# ----------------------------------------------------------------------
# Analysis (load-generator side)
# ----------------------------------------------------------------------
def load_spans(out_dir) -> tuple[list[dict], list[str]]:
    """Every span written under ``out_dir``, with self time attached.

    A span's self time is its duration minus the part of its interval
    covered by the union of its children's intervals.
    """
    spans: list[dict] = []
    missing: set[str] = set()
    for path in sorted(os.listdir(out_dir)):
        if not path.startswith("spans-"):
            continue
        with open(os.path.join(out_dir, path), encoding="utf-8") as fh:
            doc = json.load(fh)
        missing.update(doc["missing"])
        pid = doc["pid"]
        rows = [
            {"name": n, "pid": pid, "tid": tid, "start": s, "end": e,
             "id": sid, "parent": parent, "attrs": attrs}
            for n, tid, s, e, sid, parent, attrs in doc["spans"]
        ]
        children: dict[int, list] = {}
        for row in rows:
            children.setdefault(row["parent"], []).append(
                (row["start"], row["end"])
            )
        for row in rows:
            row["self"] = (row["end"] - row["start"]) - _covered(
                children.get(row["id"], ()), row["start"], row["end"]
            )
        spans.extend(rows)
    return spans, sorted(missing)


def _covered(intervals, lo: float, hi: float) -> float:
    total = 0.0
    cur_s = cur_e = None
    for s, e in sorted(intervals):
        s, e = max(s, lo), min(e, hi)
        if e <= s:
            continue
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total
