"""The four daemon workloads.

Each workload drives one running daemon through its measured phases,
collects what the correctness gates need, and returns an
:class:`Outcome`: the end-to-end figures plus the raw material for the
per-layer table (phase windows, ``/v1/metrics`` scrapes, replies).

=================  ====================================================
``link-fresh``     open-loop and closed-loop ``/v1/link``, every query
                   new: profile cache and PB tail memo both miss
``link-hot``       same phases over a 20-query working set: caches
                   hit, HTTP / codec / batcher dominate
``ingest-watch``   open-loop ``/v1/link`` reads interleaved with
                   ingest+flush writes on a store-backed daemon with
                   standing queries, and closed-loop reads; the
                   latency figures are the reads', the writes'
                   update-visible times are per-layer figures
``assign-sharded`` one closed-loop caller of ``/v1/assign`` (distinct
                   query batches) against ``--workers 2``
=================  ====================================================

The open-loop and closed-loop phases run interleaved, ``CYCLES`` slices
each, so both sample the whole run rather than one half of it each.
"""

from __future__ import annotations

import json
import os
import statistics
import time
from dataclasses import dataclass, field

from inputs import Population, assign_body, link_body
from loadgen import Conn, Phase, http_op, percentile, run_closed_loop, \
    run_open_loop, tail

RANKING_ARGS = ["--method", "alpha-filter", "--alpha1", "0", "--alpha2", "1",
                "--top-k", "10"]
WRITE_SESSION = "perfbench-writer"
WATCH_WAIT_MS = 10_000.0
CYCLES = 5
#: ingest-watch reads and standing queries keep the top 10 of the
#: daemon's naive-Bayes matches.
TOP10 = {"top_k": 10}

# Input streams (see Population.stream_rng).
OPEN, CLOSED, STANDING, READS, RECORDS, ORDER = 1, 2, 3, 4, 5, 6


@dataclass(frozen=True)
class Scale:
    pool: int
    fresh_rate: float     # link-fresh open-loop requests/s
    hot_rate: float       # link-hot open-loop requests/s
    hot_set: int          # link-hot / ingest-watch read working set
    write_rate: float     # ingest-watch open-loop ingest+flush/s
    reads_per_write: int  # ingest-watch open-loop /v1/link per write
    standing: int         # ingest-watch standing queries
    records_per_write: int
    assign_batch: int     # queries per /v1/assign
    setup_launches: int   # daemon launches per run; setup_s is their median
    link_samples: int     # /v1/link replies checked against the reference


SCALES = {
    "full": Scale(pool=300, fresh_rate=16.0, hot_rate=40.0, hot_set=20,
                  write_rate=3.0, reads_per_write=2, standing=4,
                  records_per_write=4, assign_batch=4, setup_launches=7,
                  link_samples=8),
    "tiny": Scale(pool=40, fresh_rate=10.0, hot_rate=20.0, hot_set=4,
                  write_rate=4.0, reads_per_write=2, standing=2,
                  records_per_write=3, assign_batch=3, setup_launches=3,
                  link_samples=3),
}


@dataclass
class Outcome:
    """What one workload pass measured."""

    e2e: dict                       # p50_ms, tail_ms, throughput_per_s
    phases: list[Phase]             # phases[0] is the attributed one
    window: tuple[float, float]     # measured interval (perf_counter)
    scrapes: list[dict]             # /v1/metrics at each slice boundary
    #: ``(start, end, scrape before, scrape after)`` of each slice of
    #: ``phases[0]``: the per-layer table attributes these requests.
    attributed: list = field(default_factory=list)
    notes: dict = field(default_factory=dict)
    route: str = "link"             # whose client latency is attributed
    client_samples: list = field(default_factory=list)  # of the route
    link_checks: list = field(default_factory=list)      # (traj, data)
    standing_checks: tuple = ((), ())                    # rankings, links
    assign_checks: list = field(default_factory=list)    # (body, data)
    assign_replies: list = field(default_factory=list)   # full envelopes
    truth: dict = field(default_factory=dict)


def nconns() -> int:
    """Connections the generator may open: the host's core count."""
    return max(1, os.cpu_count() or 1)


def _data(raw: bytes) -> dict:
    return json.loads(raw)["data"]


def _latency_figures(phase: Phase, groups: int) -> dict:
    """Median and tail over ``groups`` consecutive groups of samples.

    The samples, in due-time order, are split into ``groups`` equal
    groups (an odd number, fixed per workload so that it does not
    change with a closed loop's throughput).  Each group yields its
    median and its highest percentile with at least 10 samples beyond
    it; the figures are the medians of those per-group values, so a
    disturbed minority of the groups does not move them.  The groups
    hold 55 to 60 samples at ``--seconds 15``, so a group's tail is
    its 82nd or 83rd percentile: a lower percentile than the whole
    phase's tail, which is reported beside it as ``tail_whole_ms``.
    Neither tail is an end-to-end metric: on a 2-core VM neither
    repeats across seeds within the largest bound the benchmark may
    set (see README.md).
    """
    ok = sorted((s for s in phase.samples if s.ok), key=lambda s: s.due)
    rounds = max(1, min(groups, len(ok) // 11))
    size = len(ok) // rounds
    p50s, tails, pcts = [], [], []
    for r in range(rounds):
        chunk = ok[r * size:(r + 1) * size if r < rounds - 1 else len(ok)]
        lat = sorted(s.latency_s * 1e3 for s in chunk)
        value, pct, _ = tail(lat)
        p50s.append(percentile(lat, 0.5))
        tails.append(value)
        pcts.append(pct)
    whole, whole_pct, n = tail(sorted(s.latency_s * 1e3 for s in ok))
    return {"p50_ms": statistics.median(p50s),
            "tail_ms": statistics.median(tails),
            "tail_pct": statistics.median(pcts), "n": n,
            "tail_whole_ms": whole, "tail_whole_pct": whole_pct}


def _tail_notes(figures: dict) -> dict:
    return {"tail_ms": figures["tail_ms"], "tail_pct": figures["tail_pct"],
            "tail_n": figures["n"],
            "tail_whole_ms": figures["tail_whole_ms"],
            "tail_whole_pct": figures["tail_whole_pct"]}


def _balanced(rng, n: int):
    """Endless indices into a working set of ``n``: seeded shuffles of
    the whole set back to back, so every member recurs equally often."""
    while True:
        yield from (int(i) for i in rng.permutation(n))


def _interleave(daemon, open_slice, closed_slice) -> tuple[list, list]:
    """``CYCLES`` x (open slice, closed slice), scraping at each
    boundary.  Returns the scrapes and the open slices' attribution
    entries."""
    scrapes = [daemon.scrape()]
    attributed = []
    for _ in range(CYCLES):
        lo = time.perf_counter()
        open_slice()
        hi = time.perf_counter()
        scrapes.append(daemon.scrape())
        attributed.append((lo, hi, scrapes[-2], scrapes[-1]))
        closed_slice()
        scrapes.append(daemon.scrape())
    return scrapes, attributed


# ----------------------------------------------------------------------
def run_link(population, daemon, seconds, scale, hot: bool) -> Outcome:
    """``link-fresh`` (hot=False) and ``link-hot`` (hot=True)."""
    n = nconns()
    # link-fresh gives the open loop 3/4 of each cycle: at 16/s that is
    # 180 samples at 15 s, enough for three groups of 60.
    open_s = (0.5 if hot else 0.75) * seconds / CYCLES
    closed_s = seconds / CYCLES - open_s
    rate = scale.hot_rate if hot else scale.fresh_rate
    sent = {"open": [], "closed": []}   # queries in send order
    if hot:
        working = population.fresh_queries(scale.hot_set, stream=OPEN)
        bodies = {q.traj_id: link_body(q) for q in working}
        for _ in range(2):  # warm: profile cache and tail memo hit after
            run_open_loop(daemon.address, [(
                "warm", [(0.0, http_op("POST", "/v1/link", b))
                         for b in bodies.values()], n)])
        order = {k: _balanced(population.stream_rng(ORDER + i), len(working))
                 for i, k in enumerate(sent)}

        def queries(kind, count):
            return [working[next(order[kind])] for _ in range(count)]
    else:
        bodies = {}

        def queries(kind, count):
            qs = population.fresh_queries(
                count, stream=OPEN if kind == "open" else CLOSED)
            bodies.update((q.traj_id, link_body(q)) for q in qs)
            return qs

        def warm():
            while True:
                for q in population.fresh_queries(16, stream=0):
                    yield http_op("POST", "/v1/link", link_body(q))

        run_closed_loop(daemon.address, "warm", warm(), n,
                        min(1.0, 0.1 * seconds))

    def closed_ops():
        while True:
            for q in queries("closed", 16):
                sent["closed"].append(q)
                yield http_op("POST", "/v1/link", bodies[q.traj_id])

    open_phase, closed = Phase("open"), Phase("closed")
    stream = closed_ops()

    def open_slice():
        qs = queries("open", max(1, int(rate * open_s)))
        sent["open"].extend(qs)
        schedule = [(i / rate, http_op("POST", "/v1/link", bodies[q.traj_id]))
                    for i, q in enumerate(qs)]
        open_phase.absorb(run_open_loop(
            daemon.address, [("open", schedule, n)])[0])

    def closed_slice():
        closed.absorb(run_closed_loop(daemon.address, "closed", stream, n,
                                      closed_s))

    scrapes, attributed = _interleave(daemon, open_slice, closed_slice)
    figures = _latency_figures(open_phase, 5 if hot else 3)
    used = sent["open"] + sent["closed"][:closed.sent]
    outcome = Outcome(
        e2e={"p50_ms": figures["p50_ms"], "tail_ms": figures["tail_ms"],
             "throughput_per_s": closed.rate()},
        phases=[open_phase, closed],
        window=(open_phase.started, closed.ended),
        scrapes=scrapes,
        attributed=attributed,
        notes={**_tail_notes(figures),
               "distinct_queries": len({q.traj_id for q in used})},
        client_samples=list(open_phase.samples),
    )
    if not hot and outcome.notes["distinct_queries"] != len(used):
        raise RuntimeError("link-fresh reused a query within the run")
    replies = [(sent[p.name][s.index], s) for p in outcome.phases
               for s in p.samples if s.ok]
    picks = population.stream_rng(ORDER + 2).choice(
        len(replies), size=min(scale.link_samples, len(replies)),
        replace=False)
    outcome.link_checks = [
        (replies[i][0].trajectory, _data(replies[i][1].payload))
        for i in sorted(picks)
    ]
    return outcome


# ----------------------------------------------------------------------
class _Writer:
    """Ingest+flush then watch the targeted standing query until the
    flushed candidate's update is visible (one connection, in order)."""

    def __init__(self, population, standing, scale) -> None:
        self.population = population
        self.standing = standing
        self.scale = scale
        self.seqs = {f"sq-{j}": 1 for j in range(len(standing))}
        self.n = 0
        span = population.t_max - population.t_min
        self.t_lo = population.t_min + 0.5 * span
        self.t_hi = population.t_max
        # Every 4th write slides the window by 1/1000 of the span.  It
        # starts past nearly every candidate's first record, so each
        # slide evicts from (and re-scores) the whole pool alike.
        self.cutoff0 = population.t_min + 0.05 * span
        self.step = span / 1000.0

    def next_op(self):
        i = self.n
        self.n += 1
        j = i % len(self.standing)
        query = self.standing[j]
        qid = f"sq-{j}"
        body = json.dumps({
            "session": WRITE_SESSION,
            "query": [],
            "candidates": {query.truth: self.population.near_records(
                query.agent, self.scale.records_per_write,
                self.t_lo, self.t_hi, stream=RECORDS)},
            "decide": False,
            "flush": True,
            "expire_before": self.cutoff0 + self.step * (i // 4 + 1),
        }).encode("utf-8")

        def op(conn: Conn):
            status, raw = conn.request("POST", "/v1/ingest", body)
            if status != 200:
                return False, raw
            while True:
                status, raw = conn.request(
                    "GET", f"/v1/watch?query={qid}&since={self.seqs[qid]}"
                           f"&wait_ms={WATCH_WAIT_MS}")
                if status != 200:
                    return False, raw
                got = _data(raw)
                if got["seq"] == self.seqs[qid]:
                    return False, b"update never became visible"
                self.seqs[qid] = got["seq"]
                if got["resync"] or any(
                    query.truth in e["changed"] for e in got["events"]
                ):
                    return True, None

        return op


def run_ingest_watch(population, daemon, seconds, scale) -> Outcome:
    n = nconns()
    standing = population.fresh_queries(scale.standing, stream=STANDING)
    conn = Conn(daemon.address)
    try:
        for j, query in enumerate(standing):
            status, raw = conn.request("POST", "/v1/queries", json.dumps({
                "query": json.loads(link_body(query))["query"],
                "query_id": f"sq-{j}", "options": TOP10}).encode("utf-8"))
            if status != 200:
                raise RuntimeError(f"standing query registration: {raw!r}")
    finally:
        conn.close()
    writer = _Writer(population, standing, scale)
    reads = population.fresh_queries(scale.hot_set, stream=READS)
    read_bodies = [link_body(q, TOP10) for q in reads]
    read_order = _balanced(population.stream_rng(ORDER), len(reads))
    # Untimed: the first slide of the window, then warm the read set.
    prime = json.dumps({"session": WRITE_SESSION, "decide": False,
                        "expire_before": writer.cutoff0}).encode("utf-8")
    run_open_loop(daemon.address, [(
        "warm", [(0.0, http_op("POST", "/v1/ingest", prime))], 1)])
    run_open_loop(daemon.address, [(
        "warm", [(0.0, http_op("POST", "/v1/link", b)) for b in read_bodies],
        n)])

    mixed_s = 0.75 * seconds / CYCLES
    writes, read_phase = Phase("writes"), Phase("reads")
    closed = Phase("closed-reads")
    # The reads are due in the second half of the gap between two
    # writes (at 1/2 and 3/4 of it), after the write before them has
    # returned, so a read's latency measures the read path over the
    # pool and caches the writes changed, not whether it happened to
    # land on a flush.
    n_writes = max(1, int(scale.write_rate * mixed_s))
    per = scale.reads_per_write

    def open_slice():
        write_sched = [(i / scale.write_rate, writer.next_op())
                       for i in range(n_writes)]
        read_sched = [
            ((k // per + (k % per + 2) / (per + 2)) / scale.write_rate,
             http_op("POST", "/v1/link", read_bodies[next(read_order)]))
            for k in range(n_writes * per)
        ]
        w, r = run_open_loop(daemon.address, [
            ("writes", write_sched, 1),
            ("reads", read_sched, max(1, n - 1)),
        ])
        writes.absorb(w)
        read_phase.absorb(r)

    # Writes run only on their fixed schedule, so the store grows by
    # the same number of segments at the same points of every run.
    closed_reads = (
        http_op("POST", "/v1/link", read_bodies[i])
        for i in _balanced(population.stream_rng(ORDER + 1), len(reads)))

    def closed_slice():
        closed.absorb(run_closed_loop(
            daemon.address, "closed-reads", closed_reads, n,
            0.25 * seconds / CYCLES))

    scrapes, attributed = _interleave(daemon, open_slice, closed_slice)

    # Gate material: every standing ranking vs a from-scratch /v1/link.
    rankings, links = [], []
    conn = Conn(daemon.address)
    try:
        for j, query in enumerate(standing):
            status, raw = conn.request("GET", f"/v1/watch?query=sq-{j}"
                                              f"&since=0")
            if status != 200:
                raise RuntimeError(f"final /v1/watch answered {status}")
            rankings.append((query.trajectory,
                             _data(raw)["events"][-1]["ranking"]))
            status, raw = conn.request("POST", "/v1/link",
                                       link_body(query, TOP10))
            if status != 200:
                raise RuntimeError(f"final /v1/link answered {status}")
            links.append(_data(raw))
    finally:
        conn.close()
    visible = _latency_figures(writes, 1)
    read = _latency_figures(read_phase, 1)
    return Outcome(
        e2e={"p50_ms": read["p50_ms"], "tail_ms": read["tail_ms"],
             "throughput_per_s": closed.rate()},
        phases=[writes, read_phase, closed],
        window=(writes.started, closed.ended),
        scrapes=scrapes,
        attributed=attributed,
        notes={**_tail_notes(read),
               "visible_p50_ms": visible["p50_ms"],
               "visible_tail_ms": visible["tail_ms"],
               "visible_tail_pct": visible["tail_pct"],
               "visible_n": visible["n"],
               "flushes": writes.sent,
               "standing": len(standing)},
        client_samples=list(read_phase.samples),
        standing_checks=(rankings, links),
    )


# ----------------------------------------------------------------------
def run_assign(population, daemon, seconds, scale) -> Outcome:
    batches: list = []

    def ops(stream):
        while True:
            queries = population.fresh_queries(scale.assign_batch,
                                               stream=stream)
            body = assign_body(queries)
            batches.append((queries, body))
            yield http_op("POST", "/v1/assign", body)

    run_closed_loop(daemon.address, "warm", ops(0), 1,
                    min(1.5, 0.15 * seconds))
    del batches[:]
    before = daemon.scrape()
    closed = run_closed_loop(daemon.address, "closed", ops(CLOSED), 1,
                             seconds)
    after = daemon.scrape()
    figures = _latency_figures(closed, 3)
    pairs = scale.assign_batch * len(population.pool_db)
    outcome = Outcome(
        e2e={"p50_ms": figures["p50_ms"], "tail_ms": figures["tail_ms"],
             "throughput_per_s": closed.rate() * pairs},
        phases=[closed],
        window=(closed.started, closed.ended),
        scrapes=[before, after],
        attributed=[(closed.started, closed.ended, before, after)],
        notes={**_tail_notes(figures), "pairs_per_request": pairs},
        route="assign",
        client_samples=list(closed.samples),
    )
    for sample in closed.samples:
        if not sample.ok:
            continue
        queries, body = batches[sample.index]
        envelope = json.loads(sample.payload)
        outcome.assign_replies.append(envelope)
        outcome.assign_checks.append((json.loads(body), envelope["data"]))
        outcome.truth.update({q.traj_id: q.truth for q in queries})
    return outcome


WORKLOADS = {
    "link-fresh": (RANKING_ARGS,
                   lambda p, d, s, c: run_link(p, d, s, c, hot=False)),
    "link-hot": (RANKING_ARGS,
                 lambda p, d, s, c: run_link(p, d, s, c, hot=True)),
    "ingest-watch": (["--session-ttl", "3", "--merge-min-blocks", "4"],
                     run_ingest_watch),
    "assign-sharded": (["--workers", "2"], run_assign),
}
