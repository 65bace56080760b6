"""Server process control, the keep-alive HTTP client and percentiles."""

from __future__ import annotations

import http.client
import math
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

#: A percentile is reported with the number of samples beyond it; the
#: benchmark flags a percentile with fewer than this many.
MIN_SAMPLES_BEYOND = 10


def percentile(samples, q: float) -> float:
    """Nearest-rank ``q``-quantile (0 < q <= 1) of ``samples``."""
    ordered = sorted(samples)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def samples_beyond(count: int, q: float) -> int:
    """Samples strictly above the nearest-rank ``q``-quantile position."""
    return count - max(1, math.ceil(q * count)) if count else 0


def supported(count: int, q: float) -> bool:
    """True when the ``q``-quantile has at least
    :data:`MIN_SAMPLES_BEYOND` samples beyond it."""
    return samples_beyond(count, q) >= MIN_SAMPLES_BEYOND


class ServerProcess:
    """``repro serve`` (or a launcher around it) in a child process."""

    def __init__(self, argv: list[str], cwd: Path, log: Path) -> None:
        env = dict(os.environ)
        src = str(cwd / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        self._log = log.open("ab")
        self.process = subprocess.Popen(
            [sys.executable, *argv],
            cwd=cwd,
            env=env,
            stdout=subprocess.PIPE,
            stderr=self._log,
        )
        banner = self.process.stdout.readline().decode()
        if "http://" not in banner:
            self.stop()
            raise RuntimeError(f"server did not start: {banner!r}")
        address = banner.split("http://", 1)[1].split()[0]
        self.host, port = address.rsplit(":", 1)
        self.port = int(port)

    @property
    def pid(self) -> int:
        return self.process.pid

    def peak_rss_mb(self) -> float:
        """The server's peak resident set (``VmHWM``), in MiB."""
        status = Path(f"/proc/{self.pid}/status").read_text()
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def signal(self, signum: int) -> None:
        self.process.send_signal(signum)

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait(timeout=15)
        self.process.stdout.close()
        self._log.close()

    def connect(self) -> "Connection":
        return Connection(self.host, self.port)


class Connection:
    """One keep-alive HTTP/1.1 connection; reconnects after an error."""

    def __init__(self, host: str, port: int) -> None:
        self.host = host
        self.port = port
        self._conn = http.client.HTTPConnection(host, port, timeout=60)

    def send(self, method: str, path: str, body: bytes | None = None):
        """``(status, body)``; status 0 when the transport failed."""
        headers = {"Content-Type": "application/json"} if body else {}
        try:
            self._conn.request(method, path, body=body, headers=headers)
            response = self._conn.getresponse()
            return response.status, response.read()
        except (OSError, http.client.HTTPException):
            self._conn.close()
            self._conn = http.client.HTTPConnection(
                self.host, self.port, timeout=60
            )
            return 0, b""

    def timed(self, method: str, path: str, body: bytes | None = None):
        """``(status, body, seconds)`` of one request."""
        start = time.perf_counter()
        status, payload = self.send(method, path, body)
        return status, payload, time.perf_counter() - start

    def close(self) -> None:
        self._conn.close()


def wait_healthy(server: ServerProcess, timeout: float = 30.0) -> None:
    deadline = time.monotonic() + timeout
    conn = server.connect()
    try:
        while time.monotonic() < deadline:
            status, _ = conn.send("GET", "/healthz")
            if status == 200:
                return
            time.sleep(0.05)
    finally:
        conn.close()
    raise RuntimeError("server never became healthy")
