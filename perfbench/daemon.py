"""The daemon under test as a child process, and the one keep-alive client.

``Daemon`` starts ``python -m repro.cli serve --port 0 --store NAME=PATH``
from the checkout's ``src`` (or the traced launcher, which runs the same
entry), waits for its first ``200`` on ``GET /healthz``, and on ``stop``
sends SIGTERM and reaps it.  Resource figures come from the kernel:
``/proc/<pid>/stat`` for the daemon's CPU time while it runs, and
``getrusage(RUSAGE_CHILDREN)`` after it is reaped, which also covers the
process-pool workers it reaped itself.
"""

from __future__ import annotations

import http.client
import json
import os
import resource
import select
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
LAUNCHER = Path(__file__).resolve().parent / "trace_launcher.py"

_TICKS = os.sysconf("SC_CLK_TCK")


class BenchError(RuntimeError):
    """The benchmark cannot run here (no daemon, no answer, bad reply)."""


def children_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def children_peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


class Daemon:
    """One daemon process serving one store file."""

    def __init__(
        self,
        store: str,
        path: Path,
        *,
        launcher_args: list[str] | None = None,
        timeout_s: float = 120.0,
    ) -> None:
        #: the daemon's stderr goes to a file, so it can never fill a pipe
        self.stderr_path = path.with_name(f"daemon-{time.monotonic_ns()}.err")
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC)
        env.pop("PYTHONSTARTUP", None)
        serve = ["serve", "--port", "0", "--store", f"{store}={path}"]
        if launcher_args is None:
            argv = [sys.executable, "-m", "repro.cli", *serve]
        else:
            argv = [sys.executable, str(LAUNCHER), *launcher_args, "--", *serve]
        self.started = time.perf_counter()
        with self.stderr_path.open("w") as stderr:
            self.proc = subprocess.Popen(
                argv, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=stderr, text=True
            )
        try:
            self.port = self._read_port(timeout_s)
            self.setup_s = self._await_health(timeout_s)
        except BaseException:
            self.kill()
            raise

    def _read_port(self, timeout_s: float) -> int:
        assert self.proc.stdout is not None
        ready, _, _ = select.select([self.proc.stdout], [], [], timeout_s)
        line = self.proc.stdout.readline() if ready else ""
        if not line.startswith("listening on "):
            self.kill()
            raise BenchError(f"daemon did not announce its port: {line!r} {self.stderr()}")
        return int(line.rsplit(":", 1)[1])

    def stderr(self) -> str:
        """The tail of what the daemon wrote to stderr."""
        return self.stderr_path.read_text(errors="replace")[-2000:]

    def _await_health(self, timeout_s: float) -> float:
        deadline = self.started + timeout_s
        while True:
            conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=5)
            try:
                conn.request("GET", "/healthz")
                status = conn.getresponse().status
            except OSError:
                status = 0
            finally:
                conn.close()
            if status == 200:
                return time.perf_counter() - self.started
            if time.perf_counter() > deadline or self.proc.poll() is not None:
                raise BenchError(f"daemon never answered GET /healthz with 200: {self.stderr()}")
            time.sleep(0.005)

    def cpu_s(self) -> float:
        """CPU time of the daemon and its reaped children so far."""
        with open(f"/proc/{self.proc.pid}/stat", encoding="ascii") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
        # utime, stime, and the same for the children it has reaped
        return sum(int(value) for value in fields[11:15]) / _TICKS

    def stop(self, timeout_s: float = 60.0) -> None:
        """SIGTERM, then wait for a clean exit."""
        self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.communicate(timeout=timeout_s)
        except subprocess.TimeoutExpired:
            self.kill()
            raise BenchError("daemon did not exit after SIGTERM") from None
        if self.proc.returncode != 0:
            raise BenchError(f"daemon exited with {self.proc.returncode}: {self.stderr()}")

    def kill(self) -> None:
        if self.proc.returncode is None:
            self.proc.kill()
            self.proc.communicate()


class Client:
    """One keep-alive HTTP/1.1 connection, used in a closed loop.

    Each request leaves in a single ``sendall`` (headers and body
    together), as common clients send small requests; ``http.client``
    sends them in two writes, and Nagle's algorithm would then hold the
    body for the daemon's delayed ACK, which is the client's cost and not
    the daemon's.
    """

    def __init__(self, port: int) -> None:
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=120)
        self.reader = self.sock.makefile("rb")
        self.head = (
            f"Host: 127.0.0.1:{port}\r\nContent-Type: application/json\r\n"
        ).encode("ascii")

    def call(
        self, path: str, body: bytes = b"", method: bytes = b"POST"
    ) -> tuple[int, float, dict[str, Any] | None, str]:
        """Send one request; returns status, latency in seconds (first byte
        sent to last byte read), the decoded reply and its X-Query-Id."""
        request = b"".join(
            (
                method, b" ", path.encode("ascii"), b" HTTP/1.1\r\n", self.head,
                b"Content-Length: ", str(len(body)).encode("ascii"), b"\r\n\r\n",
                body,
            )
        )
        started = time.perf_counter()
        self.sock.sendall(request)
        status_line = self.reader.readline()
        headers: dict[str, str] = {}
        while True:
            line = self.reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        data = self.reader.read(int(headers.get("content-length", "0")))
        latency = time.perf_counter() - started
        parts = status_line.split()
        if len(parts) < 2 or not parts[1].isdigit():
            raise BenchError(f"malformed status line {status_line!r}")
        try:
            payload = json.loads(data)
        except ValueError:
            payload = None
        return int(parts[1]), latency, payload, headers.get("x-query-id", "")

    def close(self) -> None:
        self.reader.close()
        self.sock.close()
