"""Per-layer figures from spans and ``/v1/metrics`` scrapes; the tables.

Every per-layer figure is computed over the workload's measured window
only (warm-up and set-up excluded).  Times are means in milliseconds
per call of the layer's unit (per query for engine stages, per flush
for stream/store, per scatter-gather for the supervisor); a layer that
did not run in a workload reports 0.
"""

from __future__ import annotations

from statistics import mean

#: (name, unit, better) of every end-to-end metric.
E2E = (
    ("setup_s", "s", "lower"),
    ("p50_ms", "ms", "lower"),
    ("throughput_per_s", "1/s", "higher"),
    ("rss_mb", "MB", "lower"),
)

#: (name, unit, better) of every per-layer metric.
PER_LAYER = (
    ("client.tail_ms", "ms", "lower"),
    ("protocol.decode_ms", "ms", "lower"),
    ("protocol.encode_ms", "ms", "lower"),
    ("server.unattributed_ms", "ms", "lower"),
    ("batcher.queue_wait_ms", "ms", "lower"),
    ("batcher.batch_size", "requests", "higher"),
    ("batcher.rejected", "count", "lower"),
    ("engine.link_requests_ms", "ms", "lower"),
    ("engine.rank_ms", "ms", "lower"),
    ("engine.profile_cache_hit_ratio", "ratio", "higher"),
    ("engine.profile_evictions", "count", "lower"),
    ("engine.invalidated_profiles_per_flush", "count", "lower"),
    ("profile.ms", "ms", "lower"),
    ("profile.pairs_aligned", "count", "lower"),
    ("pb_test.ms", "ms", "lower"),
    ("pb_test.rows", "count", "lower"),
    ("pb_test.memo_hit_ratio", "ratio", "higher"),
    ("store.append_ms", "ms", "lower"),
    ("store.bytes_per_record", "B", "lower"),
    ("stream.append_flush_ms", "ms", "lower"),
    ("stream.rescored_pairs_per_flush", "count", "lower"),
    ("stream.rescored_over_full", "ratio", "lower"),
    ("stream.merge_ms", "ms", "lower"),
    ("stream.merges", "count", "lower"),
    ("stream.update_visible_p50_ms", "ms", "lower"),
    ("stream.update_visible_tail_ms", "ms", "lower"),
    ("supervisor.rpc_overhead_ms", "ms", "lower"),
    ("shard.merge_ms", "ms", "lower"),
    ("shard.skew", "ratio", "lower"),
    ("assign.edge_scoring_ms", "ms", "lower"),
    ("assign.component_split_ms", "ms", "lower"),
    ("assign.solve_ms", "ms", "lower"),
    ("assign.n_components", "count", "higher"),
    ("assign.density", "ratio", "lower"),
    ("assign.precision_at_1", "ratio", "higher"),
) + tuple(
    (f"obs.tracing_overhead.{name}", unit, better)
    for name, unit, better in E2E
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class _Scrape:
    """Counter and histogram deltas summed over ``(before, after)``
    scrape pairs."""

    def __init__(self, pairs) -> None:
        self._pairs = list(pairs)

    def delta(self, series: str) -> float:
        return sum(after.get(series, 0.0) - before.get(series, 0.0)
                   for before, after in self._pairs)

    def counter(self, name: str) -> float:
        return self.delta(f"ftl_{name}")

    def hist_ms(self, name: str) -> float:
        """Mean milliseconds per observation of ``ftl_<name>_seconds``."""
        return 1e3 * _ratio(self.delta(f"ftl_{name}_seconds_sum"),
                            self.delta(f"ftl_{name}_seconds_count"))

    def hist_count(self, name: str) -> float:
        return self.delta(f"ftl_{name}_seconds_count")

    def hist_total_ms(self, name: str) -> float:
        return 1e3 * self.delta(f"ftl_{name}_seconds_sum")


def layer_metrics(outcome, spans) -> dict:
    """Every per-layer figure except the tracing overhead."""
    lo, hi = outcome.window
    by_name: dict[str, list] = {}
    for span in spans:
        if lo <= span["start"] <= hi:
            by_name.setdefault(span["name"], []).append(span)

    def total_ms(name, key="dur"):
        rows = by_name.get(name, ())
        if key == "self":
            return 1e3 * sum(r["self"] for r in rows)
        return 1e3 * sum(r["end"] - r["start"] for r in rows)

    def attr_sum(name, attr):
        return sum(r["attrs"].get(attr, 0) for r in by_name.get(name, ()))

    def count(name):
        return len(by_name.get(name, ()))

    m = _Scrape([(outcome.scrapes[0], outcome.scrapes[-1])])
    n_ops = sum(p.sent for p in outcome.phases)
    queries = m.hist_count("stage_profile")
    hits = attr_sum("profile.get_many", "hits")
    misses = attr_sum("profile.get_many", "misses")
    rows = attr_sum("pb_test.dp", "rows")
    tails = attr_sum("pb_test.tails", "n")
    flushes = m.counter("stream_flushes_total")
    updates = flushes + m.counter("stream_evictions_total")
    pool = outcome.notes.get("pool", 0)
    sg = by_name.get("supervisor.link_requests", ())
    shard_calls = by_name.get("shard.link_matches", ())

    def rpc_overhead_ms(r):
        """A scatter-gather's wall time minus its slowest shard's
        ``shard_link_matches`` (worker spans share the host clock)."""
        slowest = max((w["end"] - w["start"] for w in shard_calls
                       if r["start"] <= w["start"] <= r["end"]), default=0.0)
        return 1e3 * (r["end"] - r["start"] - slowest)

    breakdown = _breakdown(outcome, spans)
    out = {
        "protocol.decode_ms": _ratio(total_ms("protocol.decode"), n_ops),
        "protocol.encode_ms": _ratio(total_ms("protocol.encode"), n_ops),
        "server.unattributed_ms": breakdown["unattributed"],
        "batcher.queue_wait_ms": m.hist_ms("stage_queue_wait"),
        "batcher.batch_size": _ratio(m.counter("batched_requests_total"),
                                     m.counter("batches_total")),
        "batcher.rejected": m.counter("queue_rejections_total"),
        "engine.link_requests_ms": _ratio(
            total_ms("engine.link_requests"),
            attr_sum("engine.link_requests", "n")),
        "engine.rank_ms": m.hist_ms("stage_rank"),
        "engine.profile_cache_hit_ratio": _ratio(hits, hits + misses),
        "engine.profile_evictions": attr_sum("profile.get_many",
                                             "evictions"),
        "engine.invalidated_profiles_per_flush": _ratio(
            attr_sum("engine.invalidate_profiles", "n"), flushes),
        "profile.ms": m.hist_ms("stage_profile"),
        "profile.pairs_aligned": _ratio(misses, queries),
        "pb_test.ms": m.hist_ms("stage_pb_test"),
        "pb_test.rows": _ratio(rows, queries),
        "pb_test.memo_hit_ratio": 1.0 - _ratio(rows, tails) if tails else 0.0,
        "store.append_ms": _ratio(total_ms("store.append"),
                                  count("store.append")),
        "store.bytes_per_record": _ratio(attr_sum("store.append", "bytes"),
                                         attr_sum("store.append", "records")),
        "stream.append_flush_ms": _ratio(
            total_ms("stream.append_flush", "self"),
            count("stream.append_flush")),
        "stream.rescored_pairs_per_flush": _ratio(
            m.counter("standing_rescored_pairs_total"), flushes),
        "stream.rescored_over_full": _ratio(
            m.counter("standing_rescored_pairs_total"),
            updates * outcome.notes.get("standing", 0) * pool),
        "stream.merge_ms": _ratio(total_ms("stream.merge"),
                                  count("stream.merge")),
        "stream.merges": count("stream.merge"),
        "supervisor.rpc_overhead_ms": _ratio(
            sum(rpc_overhead_ms(r) for r in sg), len(sg)),
        "shard.merge_ms": _ratio(total_ms("shard.merge"), len(sg)),
        "shard.skew": 0.0,
        "assign.edge_scoring_ms": m.hist_ms("stage_edge_scoring"),
        "assign.component_split_ms": m.hist_ms("stage_component_split"),
        "assign.solve_ms": m.hist_ms("stage_solve"),
        "assign.n_components": 0.0,
        "assign.density": 0.0,
        "assign.precision_at_1": 0.0,
    }
    replies = outcome.assign_replies
    if replies:
        skews = []
        for envelope in replies:
            elapsed = [s["elapsed_ms"] for s in envelope.get("shards") or ()]
            if elapsed and mean(elapsed) > 0:
                skews.append(max(elapsed) / mean(elapsed))
        out["shard.skew"] = mean(skews) if skews else 0.0
        out["assign.n_components"] = mean(
            e["data"]["n_components"] for e in replies)
        out["assign.density"] = mean(e["data"]["density"] for e in replies)
        matched = {m_["query_id"]: m_["candidate_id"]
                   for e in replies for m_ in e["data"]["matches"]}
        truth = outcome.truth
        out["assign.precision_at_1"] = _ratio(
            sum(1 for q, c in matched.items() if truth.get(q) == c),
            len(truth))
    out["_breakdown"] = breakdown
    out["_flush"] = {
        "n": count("stream.append_flush"),
        "store_append": total_ms("store.append", "self"),
        "stream_self": total_ms("stream.append_flush", "self"),
    }
    return out


def _breakdown(outcome, spans) -> dict:
    """Mean ms per request of the workload's route, by named layer.

    Taken over the slices of the first measured phase (the open loop
    where there is one), between the scrapes around each slice.  ``/v1/link`` requests:
    decode + queue wait + the batch they rode in (profile / pb_test /
    rank / other engine work, each per batch) + encode.
    ``/v1/assign``: decode + edge scoring + component split + solve +
    encode.  Decode and encode are per operation of the phase.
    ``unattributed`` is client latency (send to reply) minus the named
    layers: HTTP read/write, event-loop scheduling, response rendering
    and the client itself.
    """
    windows = [(lo, hi) for lo, hi, _, _ in outcome.attributed]
    m = _Scrape((before, after) for _, _, before, after in outcome.attributed)
    n_ops = sum(p.sent for p in outcome.phases
                if p.slices == outcome.phases[0].slices)
    client = [s.done - s.sent for s in outcome.client_samples if s.ok]

    def total_ms(name):
        return 1e3 * sum(
            r["end"] - r["start"] for r in spans if r["name"] == name
            and any(lo <= r["start"] <= hi for lo, hi in windows))

    cols = {
        "client": 1e3 * mean(client) if client else 0.0,
        "decode": _ratio(total_ms("protocol.decode"), n_ops),
    }
    if outcome.route == "assign":
        for stage in ("edge_scoring", "component_split", "solve"):
            cols[stage] = m.hist_ms(f"stage_{stage}")
    else:
        batches = m.counter("batches_total")
        cols["queue_wait"] = m.hist_ms("stage_queue_wait")
        stages = 0.0
        for stage in ("profile", "pb_test", "rank"):
            cols[stage] = _ratio(m.hist_total_ms(f"stage_{stage}"), batches)
            stages += cols[stage]
        cols["batch_other"] = max(
            0.0, _ratio(m.hist_total_ms("batch_exec"), batches) - stages)
    cols["encode"] = _ratio(total_ms("protocol.encode"), n_ops)
    cols["unattributed"] = cols["client"] - sum(
        v for k, v in cols.items() if k != "client")
    return cols


def print_tables(workload: str, e2e: dict, layers: dict,
                 untraced_e2e: dict | None, missing: list[str]) -> None:
    """Human-readable per-layer table (stdout, before the JSON line)."""
    cols = layers["_breakdown"]
    print(f"\n== {workload}: mean ms per request, by layer ==")
    print(" ".join(f"{c:>15}" for c in cols))
    print(" ".join(f"{v:>15.3f}" for v in cols.values()))
    attributed = cols["client"] - cols["unattributed"]
    if attributed > 0 and "profile" in cols:
        engine = cols["profile"] + cols["pb_test"] + cols["rank"] \
            + cols["batch_other"]
        print(f"share of attributed server time: profile+pb_test "
              f"{(cols['profile'] + cols['pb_test']) / attributed:.2f}, "
              f"core.engine {engine / attributed:.2f}; share of client "
              f"latency outside core.engine "
              f"{1 - engine / cols['client']:.2f}")
    flush = layers["_flush"]
    if flush["n"]:
        print(f"per flush ({flush['n']}): store.append "
              f"{flush['store_append'] / flush['n']:.3f} ms, "
              f"stream.append_flush self "
              f"{flush['stream_self'] / flush['n']:.3f} ms")
    for name, unit, _ in PER_LAYER:
        if name in layers:
            print(f"  {name:<42} {layers[name]:>12.4f} {unit}")
    if untraced_e2e is not None:
        print("tracing_overhead (traced - untraced, same seed): " + ", ".join(
            f"{k} {e2e[k] - untraced_e2e[k]:+.4g}" for k, _, _ in E2E))
    if missing:
        print("wrappers not installed (function not found): "
              + ", ".join(missing))
