"""Server processes and the keep-alive client of the serving benchmark.

Every server is a separate process started through the CLI's ``serve``
entry point (``python -m repro.cli serve``), or through ``launcher.py``
for a traced run, with the CLI's defaults.  ``serve`` exits at stdin
EOF, which is how the benchmark stops it.
"""

from __future__ import annotations

import http.client
import json
import os
import re
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
_URL = re.compile(r"metrics: http://([0-9.]+):(\d+)/metrics")


class BenchError(RuntimeError):
    """The benchmark could not drive the program (not a wrong answer)."""


def repro_env(root: str) -> dict:
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def cli(root: str, *args: str, check: bool = True
        ) -> subprocess.CompletedProcess:
    """Run one ``repro-search`` subcommand to completion."""
    done = subprocess.run([sys.executable, "-m", "repro.cli", *args],
                          cwd=root, env=repro_env(root), text=True,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          timeout=600)
    if check and done.returncode != 0:
        raise BenchError(f"repro-search {' '.join(args)} exited "
                         f"{done.returncode}: {done.stderr.strip()}")
    return done


class Server:
    """One ``repro-search serve`` process and its address."""

    def __init__(self, root: str, serve_args: list, log_path: str,
                 spans_out: str = None) -> None:
        if spans_out is None:
            argv = [sys.executable, "-m", "repro.cli", "serve"]
        else:
            argv = [sys.executable, os.path.join(HERE, "launcher.py"),
                    spans_out]
        self._log = open(log_path, "w+")
        self.log_path = log_path
        self.proc = subprocess.Popen(
            argv + serve_args, cwd=root, env=repro_env(root),
            stdin=subprocess.PIPE, stdout=self._log, stderr=self._log)
        self.host = self.port = None

    def wait_ready(self, timeout: float = 120.0) -> None:
        """Block until the server answers ``GET /healthz`` with 200."""
        deadline = time.monotonic() + timeout
        while self.port is None:
            self._check_alive(deadline)
            with open(self.log_path) as log:
                match = _URL.search(log.read())
            if match:
                self.host, self.port = match.group(1), int(match.group(2))
            else:
                time.sleep(0.005)
        while True:
            self._check_alive(deadline)
            conn = http.client.HTTPConnection(self.host, self.port,
                                              timeout=10)
            try:
                conn.request("GET", "/healthz")
                response = conn.getresponse()
                response.read()
                if response.status == 200:
                    return
            except OSError:
                pass
            finally:
                conn.close()
            time.sleep(0.005)

    def _check_alive(self, deadline: float) -> None:
        if self.proc.poll() is not None:
            raise BenchError(f"server exited {self.proc.returncode}: "
                             f"{self.log_tail()}")
        if time.monotonic() > deadline:
            raise BenchError("server did not become ready")

    def peak_rss_mb(self) -> float:
        """``VmHWM`` of the server process, in MiB."""
        with open(f"/proc/{self.proc.pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise BenchError("no VmHWM in /proc status")

    def stop(self, timeout: float = 60.0) -> None:
        """Close stdin (``serve`` returns at EOF) and wait for exit."""
        if self.proc.poll() is None:
            try:
                self.proc.stdin.close()
            except OSError:
                pass
            try:
                self.proc.wait(timeout)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
                raise BenchError("server did not exit at stdin EOF")
        self._log.close()
        if self.proc.returncode != 0:
            raise BenchError(f"server exited {self.proc.returncode}: "
                             f"{self.log_tail()}")

    def kill(self) -> None:
        """Last-resort cleanup after an error."""
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()
        if not self._log.closed:
            self._log.close()

    def log_tail(self) -> str:
        with open(self.log_path) as log:
            return log.read()[-2000:]


class Reply:
    __slots__ = ("status", "body", "seconds", "rid")

    def __init__(self, status, body, seconds, rid):
        self.status = status
        self.body = body
        self.seconds = seconds
        self.rid = rid

    @property
    def ok(self) -> bool:
        return self.status == 200

    def json(self):
        return json.loads(self.body)

    def ndjson(self) -> list:
        return [json.loads(line) for line in self.body.splitlines()]


class Client:
    """One keep-alive connection; every request carries an id header."""

    def __init__(self, server: Server, ids) -> None:
        self._host, self._port = server.host, server.port
        self._ids = ids
        self._conn = None

    def post(self, path: str, doc: dict) -> Reply:
        """Send one request; latency runs from the first byte sent to
        the last byte read.  Transport errors come back as status 0."""
        body = json.dumps(doc).encode("utf-8")
        rid = next(self._ids)
        headers = {"Content-Type": "application/json",
                   "X-Bench-Request": str(rid)}
        if self._conn is None:
            self._conn = http.client.HTTPConnection(
                self._host, self._port, timeout=300)
            self._conn.connect()
        started = time.perf_counter()
        try:
            self._conn.request("POST", path, body, headers)
            response = self._conn.getresponse()
            data = response.read()
        except (OSError, http.client.HTTPException) as exc:
            self.close()
            return Reply(0, repr(exc).encode(), 0.0, rid)
        return Reply(response.status, data,
                     time.perf_counter() - started, rid)

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None
