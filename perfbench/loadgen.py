"""The load generator: one process, at most ``nproc`` keep-alive connections.

Open loop: every operation has a due time on a fixed-rate schedule and
is sent when due regardless of earlier replies, by whichever of the
stream's connections is free.  Its latency is counted from the due
time, so a stall also charges the operations queued behind it; how late
each send left (``send - due``) is kept as the generator's lateness.
Closed loop: each connection sends its next operation as soon as the
previous reply arrives, until the phase ends.

An operation is a callable ``op(conn) -> (ok, payload)`` run on an
:class:`http.client.HTTPConnection`; a transport error, timeout or
non-2xx status counts as failed.
"""

from __future__ import annotations

import http.client
import threading
import time
from dataclasses import dataclass, field

TIMEOUT_S = 30.0


class Conn:
    """One keep-alive HTTP/1.1 connection (reconnects after errors)."""

    def __init__(self, address: tuple[str, int]) -> None:
        self._address = address
        self._conn: http.client.HTTPConnection | None = None

    def request(self, method: str, path: str, body: bytes | None = None):
        """``(status, body bytes)``; raises ``OSError``/``HTTPException``."""
        if self._conn is None:
            self._conn = http.client.HTTPConnection(
                *self._address, timeout=TIMEOUT_S
            )
        headers = {"Content-Type": "application/json"} if body else {}
        try:
            self._conn.request(method, path, body=body, headers=headers)
            response = self._conn.getresponse()
            return response.status, response.read()
        except (OSError, http.client.HTTPException):
            self.close()
            raise

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None


def http_op(method: str, path: str, body: bytes | None = None):
    """An operation sending one request; its payload is the reply body."""

    def op(conn: Conn):
        status, raw = conn.request(method, path, body)
        return 200 <= status < 300, raw

    return op


@dataclass
class Sample:
    index: int
    due: float
    sent: float
    done: float
    ok: bool
    payload: object = None

    @property
    def latency_s(self) -> float:
        """From the due time (open loop) or the send time (closed loop)."""
        return self.done - self.due


@dataclass
class Phase:
    """One measured phase of one stream."""

    name: str
    samples: list[Sample] = field(default_factory=list)
    started: float = 0.0
    ended: float = 0.0
    #: ``(start, end)`` of each slice when the phase ran interleaved
    #: with others (see :meth:`absorb`); one slice otherwise.
    slices: list = field(default_factory=list)

    def absorb(self, other: "Phase") -> None:
        """Append one more slice of this phase, re-indexing its samples
        after the ones already held."""
        base = len(self.samples)
        for sample in other.samples:
            sample.index += base
        self.samples.extend(other.samples)
        if not self.slices:
            self.started = other.started
        self.ended = other.ended
        self.slices.append((other.started, other.ended))

    @property
    def busy_s(self) -> float:
        """Time spent in the phase's own slices."""
        if not self.slices:
            return self.ended - self.started
        return sum(end - start for start, end in self.slices)

    @property
    def sent(self) -> int:
        return len(self.samples)

    @property
    def failed(self) -> int:
        return sum(1 for s in self.samples if not s.ok)

    @property
    def succeeded(self) -> int:
        return self.sent - self.failed

    def lateness_ms(self) -> list[float]:
        return sorted((s.sent - s.due) * 1e3 for s in self.samples)

    def rate(self) -> float:
        """Successful completions per second of the phase's own time."""
        return self.succeeded / self.busy_s

    def summary(self) -> dict:
        late = self.lateness_ms()
        return {
            "sent": self.sent,
            "succeeded": self.succeeded,
            "failed": self.failed,
            "wall_s": self.busy_s,
            "lateness_p50_ms": percentile(late, 0.5) if late else 0.0,
            "lateness_max_ms": late[-1] if late else 0.0,
        }


def _execute(op, conn: Conn, index: int, due: float) -> Sample:
    sent = time.perf_counter()
    try:
        ok, payload = op(conn)
    except (OSError, http.client.HTTPException) as exc:
        ok, payload = False, repr(exc)
    return Sample(index, due, sent, time.perf_counter(), ok, payload)


def run_open_loop(
    address: tuple[str, int],
    streams: list[tuple[str, list[tuple[float, object]], int]],
) -> list[Phase]:
    """Run fixed schedules concurrently; one :class:`Phase` per stream.

    Each stream is ``(name, [(due offset s, op), ...], n_connections)``;
    its connections take the next due operation in order.  All streams
    share one start instant.
    """
    phases = [Phase(name) for name, _, _ in streams]
    start = time.perf_counter() + 0.05
    threads = []
    for phase, (_, schedule, n_conns) in zip(phases, streams):
        cursor = iter(range(len(schedule)))
        lock = threading.Lock()

        def worker(phase=phase, schedule=schedule, cursor=cursor, lock=lock):
            conn = Conn(address)
            try:
                while True:
                    with lock:
                        index = next(cursor, None)
                    if index is None:
                        return
                    offset, op = schedule[index]
                    due = start + offset
                    delay = due - time.perf_counter()
                    if delay > 0:
                        time.sleep(delay)
                    sample = _execute(op, conn, index, due)
                    with lock:
                        phase.samples.append(sample)
            finally:
                conn.close()

        threads.extend(
            threading.Thread(target=worker, daemon=True)
            for _ in range(n_conns)
        )
    for phase in phases:
        phase.started = start
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    end = time.perf_counter()
    for phase in phases:
        phase.ended = end
        phase.samples.sort(key=lambda s: s.index)
    return phases


def run_closed_loop(
    address: tuple[str, int], name: str, ops, n_conns: int, seconds: float
) -> Phase:
    """``n_conns`` connections send back to back for ``seconds``.

    ``ops`` is an iterator of operations shared by the connections;
    running out of operations before the phase ends raises
    ``RuntimeError`` (a workload must be sized to its run).
    """
    phase = Phase(name)
    lock = threading.Lock()
    counter = iter(range(1 << 62))
    exhausted: list[bool] = []
    phase.started = time.perf_counter()
    deadline = phase.started + seconds

    def worker():
        conn = Conn(address)
        try:
            while time.perf_counter() < deadline:
                with lock:
                    op = next(ops, None)
                    index = next(counter)
                if op is None:
                    exhausted.append(True)
                    return
                sample = _execute(op, conn, index, time.perf_counter())
                with lock:
                    phase.samples.append(sample)
        finally:
            conn.close()

    threads = [threading.Thread(target=worker, daemon=True)
               for _ in range(n_conns)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    phase.ended = time.perf_counter()
    phase.samples.sort(key=lambda s: s.index)
    if exhausted:
        raise RuntimeError(
            f"closed-loop phase {name!r} ran out of inputs after "
            f"{phase.sent} operations; size the workload to the run"
        )
    return phase


def percentile(sorted_values: list[float], q: float) -> float:
    """Linear-interpolated quantile of pre-sorted values."""
    if not sorted_values:
        raise ValueError("no samples")
    pos = q * (len(sorted_values) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (
        pos - lo
    )


def tail(sorted_values: list[float]) -> tuple[float, float, int]:
    """The highest percentile with at least 10 samples beyond it.

    Returns ``(value, percentile in %, sample count)``; with fewer than
    11 samples the maximum is returned as the tail.
    """
    n = len(sorted_values)
    if n == 0:
        raise ValueError("no samples")
    index = max(0, n - 11)
    return sorted_values[index], 100.0 * (index + 1) / n, n
