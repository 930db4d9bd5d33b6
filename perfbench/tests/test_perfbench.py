"""The benchmark's own tests.

    python3 -m pytest perfbench/tests -q      # from the repository root

They run the benchmark at its ``tiny`` scale, so the whole file takes
about 100 s on two cores.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
BENCH = ROOT / "perfbench"
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

from loadgen import http_op, run_open_loop, tail  # noqa: E402
from report import E2E, PER_LAYER  # noqa: E402
from tracer import load_spans  # noqa: E402

WORKLOADS = ("link-fresh", "link-hot", "ingest-watch", "assign-sharded")


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(BENCH / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def _result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr[-3000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_emits_every_named_metric(workload, trace):
    proc = _run("--workload", workload, "--seed", "3", "--seconds", "2",
                "--trace", str(trace), "--scale", "tiny")
    result = _result(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    expected = E2E if trace == 0 else PER_LAYER
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        name: unit for name, unit, _ in expected
    }
    assert all(isinstance(v["value"], float | int)
               for v in result["metrics"].values())
    if trace:
        assert "unattributed" in proc.stdout
        assert "tracing_overhead" in proc.stdout


def test_metric_lists_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] \
        == list(E2E)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == list(PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("gate,workload,message", (
    ("link", "link-fresh", "differs from the in-process LinkEngine"),
    ("link", "link-hot", "differs from the in-process LinkEngine"),
    ("standing", "ingest-watch", "ranking differs from a from-scratch"),
    ("link", "ingest-watch", "in-process LinkEngine over the final pool"),
    ("assign", "assign-sharded", "/v1/assign matching differs"),
))
def test_corrupted_reference_trips_the_gate(gate, workload, message):
    proc = _run("--workload", workload, "--seed", "3", "--seconds", "2",
                "--scale", "tiny", "--corrupt", gate)
    assert proc.returncode == 3, proc.stderr[-3000:]
    assert "correctness gate failed" in proc.stderr
    assert message in proc.stderr
    assert '"metrics"' not in proc.stdout


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = _run("--workload", "link-hot", "--seed", "1", "--seconds", "1",
                cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


class _StallOnce(BaseHTTPRequestHandler):
    """Answers at once, except the ``stall_at``-th request sleeps."""

    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True
    stall_at = 5
    stall_s = 0.3
    seen = 0
    lock = threading.Lock()

    def do_POST(self):  # noqa: N802 - http.server naming
        self.rfile.read(int(self.headers["Content-Length"]))
        with self.lock:
            type(self).seen += 1
            mine = type(self).seen
        if mine == self.stall_at:
            time.sleep(self.stall_s)
        body = b'{"data": {}}'
        self.send_response(200)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


def test_stalled_endpoint_inflates_due_time_latency_behind_it():
    server = ThreadingHTTPServer(("127.0.0.1", 0), _StallOnce)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        spacing = 0.02
        schedule = [(i * spacing, http_op("POST", "/", b"{}"))
                    for i in range(30)]
        [phase] = run_open_loop(server.server_address,
                                [("open", schedule, 1)])
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
    samples = phase.samples
    assert phase.failed == 0 and phase.sent == 30
    stalled = samples[4]
    assert stalled.done - stalled.sent >= _StallOnce.stall_s
    # The next requests were due during the stall: their own service
    # time is short, but their due-time latency carries the stall.
    behind = samples[5]
    assert behind.done - behind.sent < 0.1
    assert behind.latency_s > _StallOnce.stall_s - 2 * spacing
    assert behind.sent - behind.due > 0.2
    # Well after the stall drained, latency is back to service time.
    assert samples[-1].latency_s < 0.1


def test_tail_is_highest_percentile_with_ten_beyond():
    values = [float(i) for i in range(100)]
    value, pct, n = tail(values)
    assert value == 89.0 and n == 100
    assert sum(1 for v in values if v > value) == 10
    assert pct == pytest.approx(90.0)


def test_self_time_subtracts_the_union_of_children(tmp_path):
    spans = [
        # name, tid, start, end, id, parent, attrs
        ("outer", 1, 0.0, 10.0, 1, 0, {}),
        ("child", 1, 1.0, 4.0, 2, 1, {}),
        ("child", 1, 3.0, 5.0, 3, 1, {}),   # overlaps the first child
        ("grandchild", 1, 1.5, 2.0, 4, 2, {}),
    ]
    (tmp_path / "spans-7.json").write_text(json.dumps(
        {"pid": 7, "missing": [], "spans": spans}))
    rows, missing = load_spans(tmp_path)
    self_time = {r["id"]: r["self"] for r in rows}
    assert missing == []
    assert self_time[1] == pytest.approx(10.0 - 4.0)
    assert self_time[2] == pytest.approx(3.0 - 0.5)
    assert self_time[4] == pytest.approx(0.5)
