"""Start, probe, scrape and stop the daemon process."""

from __future__ import annotations

import http.client
import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
START_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 20.0
_ADDRESS = re.compile(r"on http://([0-9.]+):(\d+)")
_SAMPLE = re.compile(
    r"^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})?\s+([-+0-9.eEinfNa]+)$"
)


class Daemon:
    """One ``ftl serve`` process launched through ``daemon.py``.

    ``setup_s`` is the time from launch to the first 200 from
    ``/v1/healthz`` (store open, model-artifact load, worker fork).
    """

    def __init__(self, root: Path, serve_args: list[str], log_path: Path,
                 trace_dir: Path | None = None):
        argv = [sys.executable, str(HERE / "daemon.py")]
        if trace_dir is not None:
            argv += ["--trace-dir", str(trace_dir)]
        argv += ["--", "--port", "0", *serve_args]
        env = dict(os.environ, PYTHONHASHSEED="0",
                   TMPDIR=str(log_path.parent))
        self._log = open(log_path, "wb")
        started = time.perf_counter()
        self.proc = subprocess.Popen(
            argv, cwd=root, stdout=subprocess.PIPE, stderr=self._log,
            env=env,
        )
        self.address = self._read_address()
        self._wait_healthy()
        self.setup_s = time.perf_counter() - started

    def _read_address(self) -> tuple[str, int]:
        deadline = time.monotonic() + START_TIMEOUT_S
        while time.monotonic() < deadline:
            line = self.proc.stdout.readline().decode("utf-8", "replace")
            if not line:
                break
            match = _ADDRESS.search(line)
            if match:
                return match.group(1), int(match.group(2))
        self.stop()
        raise RuntimeError("daemon exited before announcing its address")

    def _wait_healthy(self) -> None:
        deadline = time.monotonic() + START_TIMEOUT_S
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError("daemon exited during start-up")
            try:
                status, _ = self.get("/v1/healthz")
            except (OSError, http.client.HTTPException):
                status = None
            if status == 200:
                return
            time.sleep(0.005)
        self.stop()
        raise RuntimeError("daemon never answered /v1/healthz")

    def get(self, path: str) -> tuple[int, bytes]:
        conn = http.client.HTTPConnection(*self.address, timeout=30.0)
        try:
            conn.request("GET", path)
            response = conn.getresponse()
            return response.status, response.read()
        finally:
            conn.close()

    def scrape(self) -> dict:
        """``/v1/metrics`` as ``{series: value}``.

        Histogram ``_sum``/``_count`` keep only the unlabelled
        (fleet-aggregated) series; counters are summed over every
        series, because shard workers' counters appear only
        shard-labelled.
        """
        status, raw = self.get("/v1/metrics")
        if status != 200:
            raise RuntimeError(f"/v1/metrics answered {status}")
        out: dict[str, float] = {}
        for line in raw.decode("utf-8").splitlines():
            match = _SAMPLE.match(line)
            if not match:
                continue
            name, labels, value = match.groups()
            if name.endswith("_bucket"):
                continue
            if labels and (name.endswith("_sum") or name.endswith("_count")):
                continue
            out[name] = out.get(name, 0.0) + float(value)
        return out

    def pids(self) -> list[int]:
        """The daemon and its descendants (forked shard workers)."""
        found = [self.proc.pid]
        frontier = [self.proc.pid]
        while frontier:
            pid = frontier.pop()
            for task in Path(f"/proc/{pid}/task").glob("*"):
                try:
                    kids = (task / "children").read_text().split()
                except OSError:
                    continue
                for kid in map(int, kids):
                    if kid not in found:
                        found.append(kid)
                        frontier.append(kid)
        return found

    def peak_rss_mb(self) -> float:
        """Peak resident set summed over the daemon's processes."""
        total_kb = 0
        for pid in self.pids():
            try:
                status = Path(f"/proc/{pid}/status").read_text()
            except OSError:
                continue
            for line in status.splitlines():
                if line.startswith("VmHWM:"):
                    total_kb += int(line.split()[1])
        return total_kb / 1024.0

    def stop(self) -> None:
        """SIGTERM (graceful drain), then SIGKILL any straggler."""
        if self.proc.poll() is None:
            children = self.pids()[1:]
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
            for pid in children:
                _reap_straggler(pid)
        if self.proc.stdout is not None:
            self.proc.stdout.close()
        self._log.close()


def _reap_straggler(pid: int) -> None:
    deadline = time.monotonic() + STOP_TIMEOUT_S
    while time.monotonic() < deadline:
        if not Path(f"/proc/{pid}").exists():
            return
        try:
            state = Path(f"/proc/{pid}/stat").read_text().split(")")[-1].split()[0]
        except OSError:
            return
        if state == "Z":
            return
        time.sleep(0.01)
    try:
        os.kill(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
