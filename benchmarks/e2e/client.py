"""The benchmark's side of the wire: server process handle and closed-loop clients."""

from __future__ import annotations

import http.client
import json
import os
import subprocess
import sys
import threading
import time
import urllib.parse
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from workloads import Request

HERE = os.path.dirname(os.path.abspath(__file__))
_TICKS = os.sysconf("SC_CLK_TCK")
_TRANSIENT = (http.client.RemoteDisconnected, ConnectionResetError, BrokenPipeError)


class Connection:
    """One client's HTTP connection, kept open for as long as the server allows.

    The server speaks HTTP/1.0 and closes after every response today; a
    keep-alive server is used as such without a change here.
    """

    def __init__(self, port: int):
        self._http = http.client.HTTPConnection("127.0.0.1", port, timeout=150)

    def request(
        self, method: str, path: str, body: Optional[bytes] = None
    ) -> Tuple[int, Any, bytes]:
        for attempt in (0, 1):
            try:
                self._http.request(method, path, body=body)
                response = self._http.getresponse()
                payload = response.read()
                break
            except _TRANSIENT:
                # a kept-alive socket the server has closed meanwhile
                self._http.close()
                if attempt:
                    raise
        if response.will_close:
            self._http.close()
        return response.status, response.headers, payload

    def json(self, method: str, path: str, payload: Any = None) -> Any:
        body = json.dumps(payload).encode() if payload is not None else None
        status, _, answer = self.request(method, path, body)
        if status != 200:
            raise RuntimeError(f"{method} {path}: HTTP {status}: {answer[:300]!r}")
        return json.loads(answer)

    def close(self) -> None:
        self._http.close()


class ServerProcess:
    """A spawned ``serve.py``; stopped by closing its stdin."""

    def __init__(self, config: str, smoke: bool, tag: str):
        command = [sys.executable, os.path.join(HERE, "serve.py"), "--config", config, "--tag", tag]
        if smoke:
            command.append("--smoke")
        # hash randomisation off: set iteration order, and with it the
        # generated data and SQL, is the same in every process
        environment = dict(os.environ, PYTHONHASHSEED="0")
        self.spawned = time.perf_counter()
        self.process = subprocess.Popen(
            command, stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=environment
        )
        self.port = self.control_port = 0
        self.setup_seconds = 0.0
        self.control: Optional[Connection] = None

    @property
    def pid(self) -> int:
        return self.process.pid

    def wait_ready(self) -> None:
        """Block until ``/health`` answers 200; fixes ``setup_seconds``."""
        line = self.process.stdout.readline()
        if not line:
            raise RuntimeError(f"server exited with code {self.process.wait()} during set-up")
        ports = json.loads(line)
        self.port, self.control_port = ports["port"], ports["control_port"]
        probe = Connection(self.port)
        while probe.request("GET", "/health")[0] != 200:
            time.sleep(0.01)
        self.setup_seconds = time.perf_counter() - self.spawned
        probe.close()
        self.control = Connection(self.control_port)

    def cpu_seconds(self) -> float:
        with open(f"/proc/{self.pid}/stat") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / _TICKS  # utime + stime

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self) -> None:
        """EOF on stdin asks for a drain; insist if that is not honoured."""
        if self.control is not None:
            self.control.close()
        if self.process.poll() is None:
            self.process.stdin.close()
            try:
                self.process.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.process.kill()
        self.process.wait()
        self.process.stdout.close()


def host_steal_ticks() -> Tuple[int, int]:
    """(steal, total) jiffies of the whole host from ``/proc/stat``."""
    with open("/proc/stat") as handle:
        ticks = [int(value) for value in handle.readline().split()[1:]]
    return ticks[7], sum(ticks[:8])


@dataclass
class Sample:
    """One timed read request."""

    slot: str
    seconds: float
    ok: bool


@dataclass
class PhaseResult:
    samples: List[Sample] = field(default_factory=list)
    #: seconds per completed round, all clients
    rounds: List[float] = field(default_factory=list)
    batches: List[Dict[str, Any]] = field(default_factory=list)
    wall_seconds: float = 0.0
    cpu_seconds: float = 0.0
    steal_share: float = 0.0
    #: server VmHWM when ``rss_round`` rounds were completed
    peak_rss_mb: float = 0.0


class Client:
    """One closed-loop client: a connection and its place in the stream."""

    def __init__(
        self,
        server: ServerProcess,
        stream: Iterator[List[Request]],
        check: Callable[[Request, int, Any, bytes], bool],
        after_round: Optional[Callable[[], Dict[str, Any]]] = None,
    ):
        self.connection = Connection(server.port)
        self.stream = stream
        self.check = check
        self.after_round = after_round

    def run_round(self, result: PhaseResult) -> None:
        started = time.perf_counter()
        samples = []
        for request in next(self.stream):
            path = "/sparql?" + urllib.parse.urlencode(
                {"query": request.query, "format": request.format}
            )
            sent = time.perf_counter()
            status, headers, body = self.connection.request("GET", path)
            seconds = time.perf_counter() - sent
            samples.append(Sample(request.slot, seconds, self.check(request, status, headers, body)))
        batch = self.after_round() if self.after_round else None
        result.rounds.append(time.perf_counter() - started)
        result.samples.extend(samples)
        if batch is not None:
            result.batches.append(batch)


def run_phase(
    server: ServerProcess,
    clients: List[Client],
    seconds: Optional[float] = None,
    rounds: Optional[int] = None,
    rss_round: int = 0,
) -> PhaseResult:
    """Every client runs whole rounds until ``seconds`` are over.

    ``rounds`` caps the rounds of each client.  The phase is never shorter
    than ``rss_round`` rounds, all clients together: memory is read when
    that many are completed, so that a faster server, which completes more
    rounds in the same time and has filled its caches further by the end,
    reads the same.
    """
    result = PhaseResult()
    errors: List[BaseException] = []
    steal_before, total_before = host_steal_ticks()
    cpu_before = server.cpu_seconds()
    started = time.perf_counter()

    def loop(client: Client) -> None:
        try:
            done = 0
            while (rounds is None or done < rounds) and (
                seconds is None
                or len(result.rounds) < rss_round
                or time.perf_counter() - started < seconds
            ):
                client.run_round(result)
                done += 1
                if not result.peak_rss_mb and len(result.rounds) >= rss_round > 0:
                    result.peak_rss_mb = server.peak_rss_mb()
        except BaseException as exc:  # re-raised on the main thread below
            errors.append(exc)

    threads = [threading.Thread(target=loop, args=(client,)) for client in clients]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    result.wall_seconds = time.perf_counter() - started
    result.cpu_seconds = server.cpu_seconds() - cpu_before
    steal_after, total_after = host_steal_ticks()
    result.steal_share = (steal_after - steal_before) / max(1, total_after - total_before)
    return result
