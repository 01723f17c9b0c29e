"""``repro-msrp serve`` in a subprocess, and one closed-loop client.

Callers of this oracle (the CLI ``query``, ``QueryClient``) wait for each
reply before sending the next request, so the load is a closed loop: one
client process, one keep-alive connection, the next request sent when
the previous one completes.  Every answer is recorded during the timed
loop and checked against the loaded store afterwards.
"""

from __future__ import annotations

import os
import random
import re
import select
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import hostclock

#: Requests between two host-speed probes.
BLOCK = 100
#: Share of point, sweep and batch requests in the mix.
POINT_SHARE, SWEEP_SHARE = 0.7, 0.2
#: Slices in the hot sweep set; points per batch.
HOT_SLICES, BATCH_SIZE = 16, 32
#: Per-request client timeout (seconds); a timeout is a failed request.
REQUEST_TIMEOUT = 10.0
#: Longest wait for the server to start or stop (seconds).
PROCESS_TIMEOUT = 60.0

_LISTENING = re.compile(r"listening on http://([\d.]+):(\d+)")


class ServerProcess:
    """One ``python -m repro.cli serve`` subprocess on an ephemeral port."""

    def __init__(self, root: str, store: str, mmap_mode: str, log_path: str):
        self.root, self.store, self.mmap_mode = root, store, mmap_mode
        self.log_path = log_path
        self.proc: Optional[subprocess.Popen] = None
        self.port = 0

    def start(self) -> float:
        """Launch and wait for the first ``/status`` answer; returns seconds."""
        from repro.serve import QueryClient

        env = dict(os.environ, PYTHONPATH=os.path.join(self.root, "src"))
        start = time.perf_counter()
        with open(self.log_path, "ab") as log:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro.cli", "serve", "--store", self.store,
                 "--port", "0", "--mmap", self.mmap_mode],
                cwd=self.root, env=env, stdout=subprocess.PIPE, stderr=log,
                bufsize=0,  # unbuffered: select() must see every line still unread
            )
        deadline = start + PROCESS_TIMEOUT
        while not self.port:
            ready, _, _ = select.select([self.proc.stdout], [], [], 1.0)
            if ready:
                line = self.proc.stdout.readline().decode("utf-8", "replace")
                if not line:
                    raise RuntimeError(f"server exited at start-up; see {self.log_path}")
                match = _LISTENING.search(line)
                if match:
                    self.port = int(match.group(2))
            if time.perf_counter() > deadline:
                raise RuntimeError("server did not start in time")
        with QueryClient(port=self.port, retries=0, timeout=REQUEST_TIMEOUT) as client:
            client.status()
        return time.perf_counter() - start

    def stop(self) -> Tuple[int, float]:
        """SIGTERM, wait; returns (exit code, peak RSS in MB of the server)."""
        proc = self.proc
        proc.send_signal(signal.SIGTERM)
        deadline = time.perf_counter() + PROCESS_TIMEOUT
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if time.perf_counter() > deadline:
                proc.kill()
                pid, status, usage = os.wait4(proc.pid, 0)
                break
            time.sleep(0.02)
        proc.returncode = os.waitstatus_to_exitcode(status)
        proc.stdout.close()
        return proc.returncode, usage.ru_maxrss / 1024


@dataclass
class QueryLog:
    """What the closed loop sent, got back and measured."""

    #: (kind, request, answer or exception text, scaled seconds, raw seconds)
    records: List[Tuple[str, tuple, object, float, float]] = field(default_factory=list)
    probes: List[float] = field(default_factory=list)

    def latencies(self, kind: str, scaled: bool = True) -> List[float]:
        column = 3 if scaled else 4
        return [r[column] for r in self.records if r[0] == kind]

    def sent(self, kind: str) -> int:
        return sum(1 for r in self.records if r[0] == kind)

    def windows(self, size: int) -> List["QueryLog"]:
        """Consecutive windows of ``size`` requests; the last takes the rest."""
        count = max(1, len(self.records) // size)
        bounds = [i * size for i in range(count)] + [len(self.records)]
        return [QueryLog(self.records[a:b]) for a, b in zip(bounds, bounds[1:])]


class QueryMix:
    """The seeded request stream: uniform points, hot sweeps, batches."""

    def __init__(self, n: int, sources: List[int], edges: List[Tuple[int, int]], seed: int):
        self.n, self.sources, self.edges = n, sources, edges
        self.rng = random.Random(seed)
        self.hot = [self._slice() for _ in range(HOT_SLICES)]

    def _slice(self) -> Tuple[int, Tuple[int, int]]:
        return self.rng.choice(self.sources), self.rng.choice(self.edges)

    def _point(self) -> Tuple[int, int, Tuple[int, int]]:
        source, edge = self._slice()
        return source, self.rng.randrange(self.n), edge

    def next(self) -> Tuple[str, tuple]:
        draw = self.rng.random()
        if draw < POINT_SHARE:
            return "point", self._point()
        if draw < POINT_SHARE + SWEEP_SHARE:
            return "sweep", self.rng.choice(self.hot)
        return "batch", tuple(self._point() for _ in range(BATCH_SIZE))


def run_closed_loop(port: int, mix: QueryMix, seconds: float) -> QueryLog:
    """Send ``mix`` requests back to back for ``seconds``; record everything."""
    from repro.serve import QueryClient

    log = QueryLog()
    calls = {
        "point": lambda c, req: c.query(*req),
        "sweep": lambda c, req: c.sweep(*req),
        "batch": lambda c, req: c.query_batch(req),
    }
    with QueryClient(port=port, retries=0, timeout=REQUEST_TIMEOUT) as client:
        deadline = time.perf_counter() + seconds
        before = hostclock.probe()
        log.probes.append(before)
        while time.perf_counter() < deadline:
            block = []
            for _ in range(BLOCK):
                kind, request = mix.next()
                start = time.perf_counter()
                try:
                    answer = calls[kind](client, request)
                except Exception as exc:  # a failed request is a measured outcome
                    answer = exc
                    client.close()
                block.append((kind, request, answer, time.perf_counter() - start))
            after = hostclock.probe()
            log.probes.append(after)
            for kind, request, answer, raw in block:
                log.records.append(
                    (kind, request, answer, hostclock.scale(raw, before, after), raw)
                )
            before = after
    return log


def check_answers(log: QueryLog, result, n: int) -> List[str]:
    """Compare every served answer with the loaded result; list failures."""
    failures: List[str] = []
    sweeps: Dict[tuple, Dict[int, float]] = {}

    def expected_sweep(request):
        if request not in sweeps:
            source, edge = request
            sweeps[request] = {
                t: result.replacement_length(source, t, edge) for t in range(n)
            }
        return sweeps[request]

    for kind, request, answer, _scaled, _raw in log.records:
        if isinstance(answer, Exception):
            failures.append(f"{kind} {request}: {type(answer).__name__}: {answer}")
            continue
        if kind == "point":
            expected = result.replacement_length(*request)
        elif kind == "sweep":
            expected = expected_sweep(request)
        else:
            expected = [result.replacement_length(*q) for q in request]
        if answer != expected:
            failures.append(f"{kind} {request}: served {answer!r}, expected {expected!r}"[:300])
    return failures


def check_status(status: Dict[str, object], log: QueryLog, header) -> List[str]:
    """``/status`` must agree with what the client sent and with the store."""
    problems = []
    points = log.sent("point") + BATCH_SIZE * log.sent("batch")
    expected = {
        "point_queries": points,
        "sweep_queries": log.sent("sweep"),
        "graph_fingerprint": header.fingerprint,
        "format_version": header.format_version,
    }
    for key, value in expected.items():
        if status.get(key) != value:
            problems.append(f"/status {key}={status.get(key)!r}, expected {value!r}")
    server = status.get("server", {})
    for key in ("requests_shed", "requests_timed_out"):
        if server.get(key) != 0:
            problems.append(f"/status server.{key}={server.get(key)!r}, expected 0")
    return problems


def replay_in_process(log: QueryLog, result, header) -> Dict[str, List[float]]:
    """Time the same stream against an in-process ``OracleService``.

    Returns raw seconds per point query and per sweep, so the served
    latency can be split into HTTP and lookup.
    """
    from repro.serve import OracleService

    service = OracleService(result, header)
    times: Dict[str, List[float]] = {"point": [], "sweep": []}
    for kind, request, _answer, _scaled, _raw in log.records:
        if kind == "batch":
            for query in request:
                service.point_query(*query)
            continue
        call = service.point_query if kind == "point" else service.sweep
        start = time.perf_counter()
        call(*request)
        times[kind].append(time.perf_counter() - start)
    return times
