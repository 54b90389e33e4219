"""Server processes and the closed-loop load generator.

One benchmark process drives the service over persistent HTTP/1.1
connections, one thread per connection, never more threads or
connections than the host has cores.  Every request is timed on the
client from just before the send to the last byte of the reply.
"""

from __future__ import annotations

import http.client
import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time

#: Flags every workload's server gets.  They spell out the values
#: ``repro serve`` defaults to, so the in-process reference the answers
#: are checked against is configured identically.
SERVER_FLAGS = {"graph": "youtube", "scale": 0.25, "alpha": 0.1,
                "epsilon": 0.5, "budget_scale": 0.05, "seed": 2022}

BOOT_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 15.0


def load_limit() -> int:
    """Most threads and connections the load generator may use."""
    return max(1, os.cpu_count() or 1)


class ServerProcess:
    """``repro serve`` as a child process on an OS-chosen port.

    ``setup_s`` is the time from spawning the process to its first
    healthy ``/healthz`` answer.
    """

    def __init__(self, root: str, *, dynamic: bool = False,
                 server_seed: int | None = None):
        flags = dict(SERVER_FLAGS)
        if server_seed is not None:
            flags["seed"] = server_seed
        command = [sys.executable, "-m", "repro", "serve", "--port", "0"]
        for name, value in flags.items():
            command += [f"--{name.replace('_', '-')}", str(value)]
        if dynamic:
            command.append("--dynamic")
        env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        self.output: list[str] = []
        started = time.perf_counter()
        self.process = subprocess.Popen(
            command, cwd=root, env=env, stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        try:
            self.port = self._await_port(started + BOOT_TIMEOUT_S)
            # drain the rest of the output so the child never blocks
            self._drain = threading.Thread(target=self._read_rest,
                                           daemon=True)
            self._drain.start()
            self._await_healthy(started + BOOT_TIMEOUT_S)
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.perf_counter() - started

    def _await_port(self, deadline: float) -> int:
        for line in self.process.stdout:
            self.output.append(line)
            if line.startswith("serving on "):
                return int(line.strip().rsplit(":", 1)[1])
            if time.perf_counter() > deadline:
                break
        raise RuntimeError("server did not start:\n" + "".join(self.output))

    def _read_rest(self) -> None:
        for line in self.process.stdout:
            self.output.append(line)

    def _await_healthy(self, deadline: float) -> None:
        while time.perf_counter() < deadline:
            if self.process.poll() is not None:
                break
            try:
                status, _ = get(self.port, "/healthz")
                if status == 200:
                    return
            except OSError:
                pass
            time.sleep(0.002)
        raise RuntimeError("server never became healthy:\n"
                           + "".join(self.output))

    def peak_rss_mb(self) -> float:
        """Peak resident memory (``VmHWM``) of the server so far."""
        with open(f"/proc/{self.process.pid}/status",
                  encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM missing from /proc status")

    def stop(self) -> bool:
        """Interrupt, wait, and reap the server; ``True`` when it exited
        on the interrupt within the timeout (``False`` means it had to
        be killed, which the benchmark counts as a hygiene failure)."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
        clean = True
        try:
            self.process.wait(timeout=STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            clean = False
            self.process.kill()
            self.process.wait()
        drain = getattr(self, "_drain", None)
        if drain is not None:
            drain.join(timeout=STOP_TIMEOUT_S)
        if self.process.stdout is not None:
            self.process.stdout.close()
        return clean and self.process.returncode in (0, -signal.SIGINT)


def shm_segments() -> set[str]:
    """Names of the shared-memory segments that exist now."""
    try:
        return set(os.listdir("/dev/shm"))
    except FileNotFoundError:
        return set()


def port_listening(port: int) -> bool:
    """Whether something still accepts connections on ``port``."""
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as probe:
        probe.settimeout(1.0)
        return probe.connect_ex(("127.0.0.1", port)) == 0


def get(port: int, path: str) -> tuple[int, bytes]:
    """One ``GET`` on a fresh connection."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        conn.request("GET", path)
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


class Connection:
    """A persistent keep-alive connection to the service."""

    def __init__(self, port: int):
        self.port = port
        self._conn: http.client.HTTPConnection | None = None

    def post(self, path: str, body: dict,
             request_id: str) -> tuple[int, bytes, float]:
        """Send one request; returns ``(status, body, seconds)`` with
        status 0 when the request was refused or the connection
        failed (the connection is then reopened for the next one)."""
        data = json.dumps(body).encode()
        headers = {"Content-Type": "application/json",
                   "X-Request-Id": request_id}
        started = time.perf_counter()
        try:
            if self._conn is None:
                self._conn = http.client.HTTPConnection(
                    "127.0.0.1", self.port, timeout=60)
            self._conn.request("POST", path, body=data, headers=headers)
            response = self._conn.getresponse()
            payload = response.read()
            status = response.status
        except (OSError, http.client.HTTPException):
            self.close()
            return 0, b"", time.perf_counter() - started
        return status, payload, time.perf_counter() - started

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None


class Record:
    """One request as the client saw it."""

    __slots__ = ("index", "kind", "status", "body", "seconds", "request_id")

    def __init__(self, index, kind, status, body, seconds, request_id):
        self.index = index
        self.kind = kind
        self.status = status
        self.body = body
        self.seconds = seconds
        self.request_id = request_id


class ClosedLoop:
    """Send a plan in order over ``len(connections)`` closed loops.

    The connections share one cursor into the plan, so together they
    send each operation once.  :meth:`run` may be called repeatedly;
    each call continues where the last stopped.  ``keep`` decides,
    from the plan position, whether a reply body is kept.
    """

    def __init__(self, plan, connections: list[Connection], *,
                 keep=lambda index: False, tag: str = "r"):
        if len(connections) > load_limit():
            raise ValueError("more connections than cores")
        self.plan = plan
        self.connections = connections
        self.keep = keep
        self.tag = tag
        self.records: list[Record] = []
        self.elapsed = 0.0
        self._cursor = 0
        self._lock = threading.Lock()

    def _next(self) -> int | None:
        with self._lock:
            if self._cursor >= len(self.plan):
                return None
            self._cursor += 1
            return self._cursor - 1

    def _client(self, conn: Connection, deadline: float,
                out: list[Record]) -> None:
        while time.perf_counter() < deadline:
            index = self._next()
            if index is None:
                return
            kind, path, body = self.plan[index]
            request_id = f"{self.tag}-{index}"
            status, payload, seconds = conn.post(path, body, request_id)
            keep = status != 200 or kind == "mutate" or self.keep(index)
            out.append(Record(index, kind, status,
                              payload if keep else None, seconds,
                              request_id))

    def run(self, seconds: float) -> None:
        started = time.perf_counter()
        deadline = started + seconds
        outs: list[list[Record]] = [[] for _ in self.connections]
        threads = [threading.Thread(target=self._client,
                                    args=(conn, deadline, out))
                   for conn, out in zip(self.connections, outs)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        self.elapsed += time.perf_counter() - started
        for out in outs:
            self.records.extend(out)
        if self._cursor >= len(self.plan):
            raise RuntimeError("plan exhausted before the window ended")
