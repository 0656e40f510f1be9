"""Serving phases: drive a server with a mix, check every body, summarise.

Every response is reduced to (request index, body digest) as it
arrives; after the phase, each distinct request is rendered once by an
in-process :class:`repro.service.QueryService` over the same dataset
and every response must match its reference byte for byte.
"""

from __future__ import annotations

import gc
import hashlib
import math
import statistics
import time

import client
from client import Samples, request_bytes
from mix import Mix, path_of, render
from procs import Ledger, Server


def _digest(body: bytes) -> bytes:
    return hashlib.blake2b(body, digest_size=16).digest()


class Traffic:
    """All requests one workload sends, across its serving phases."""

    def __init__(self, mix: Mix, ledger: Ledger,
                 corrupt_at: int | None = None) -> None:
        self.mix = mix
        self.ledger = ledger
        self.corrupt_at = corrupt_at
        self.responses: list[tuple[int, bytes]] = []

    def run(self, server: Server, order, *, seconds: float | None = None
            ) -> Samples:
        requests = [request_bytes(path_of(spec), server.host)
                    for spec in self.mix.specs]

        def on_body(index: int, status: int, body: bytes) -> None:
            if len(self.responses) == self.corrupt_at:
                body = bytes([body[0] ^ 0xFF]) + body[1:]
            self.ledger.record(
                "request", status == 200,
                f"{path_of(self.mix.specs[index])} -> HTTP {status}")
            self.responses.append((index, _digest(body)))

        # No collector pauses inside the client while it measures.
        gc.disable()
        try:
            samples = client.run(server.host, server.port, requests, order,
                                 on_body, seconds=seconds)
        finally:
            gc.enable()
        if samples.error:
            self.ledger.record("request", False,
                               f"{server.name}: {samples.error}")
        return samples

    def warm(self, server: Server) -> None:
        """One pass over the mix's warm-up requests."""
        self.run(server, iter(self.mix.warmup))

    def verify(self, service) -> None:
        """Compare every response with the in-process reference body."""
        from repro.service.errors import ServiceError

        expected: dict[int, bytes | None] = {}
        for index, digest in self.responses:
            if index not in expected:
                try:
                    expected[index] = _digest(render(service,
                                                     self.mix.specs[index]))
                except ServiceError:
                    expected[index] = None
            if expected[index] != digest:
                self.ledger.fail(
                    "request", "body differs from the in-process render: "
                    + path_of(self.mix.specs[index]))


def replay(service, mix: Mix, indices) -> dict[str, list[float]]:
    """In-process latency (ms) of each request, by endpoint."""
    by_endpoint: dict[str, list[float]] = {}
    for index in indices:
        spec = mix.specs[index]
        start = time.perf_counter_ns()
        render(service, spec)
        by_endpoint.setdefault(spec[0], []).append(
            (time.perf_counter_ns() - start) / 1e6)
    return by_endpoint


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an already sorted list."""
    rank = max(1, math.ceil(q / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


def spread(values: list[float]) -> float:
    """Interquartile range over the median (0 for fewer than 2)."""
    if len(values) < 2:
        return 0.0
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else 0.0


#: Requests per chunk of a timed phase, at most.
CHUNK = 1000


def _chunks(segment: Samples) -> list[tuple[list[float], float]]:
    """(sorted latencies in ms, seconds) of each consecutive chunk.

    A segment of n requests splits into n // CHUNK equal chunks (one
    chunk if n < CHUNK); a chunk's time runs from the previous chunk's
    last completion, or the segment's start, to its own last one.
    """
    n = len(segment.latency_ns)
    k = max(1, n // CHUNK)
    out = []
    begin_ns = segment.start_ns
    for i in range(k):
        lo, hi = i * n // k, (i + 1) * n // k
        end_ns = segment.done_ns[hi - 1]
        out.append((sorted(ns / 1e6 for ns in segment.latency_ns[lo:hi]),
                    max(end_ns - begin_ns, 1) / 1e9))
        begin_ns = end_ns
    return out


def summarise(segments: list[Samples]) -> dict[str, float]:
    """p50, p99 and throughput of a timed phase, from its rounds.

    ``p99_ms`` is the nearest-rank p99 of every request of the phase
    (thousands of requests, so tens beyond it).  ``p50_ms`` and
    ``throughput_rps`` are each the median over the phase's consecutive
    chunks of at most 1,000 requests, so a host stall that slows one
    second of the phase moves one chunk, not the run's number.
    ``spread.*`` is each metric's interquartile range over the chunks,
    divided by its median.
    """
    chunks = [c for s in segments if s.latency_ns for c in _chunks(s)]
    p50 = [percentile(lat, 50) for lat, _ in chunks]
    p99 = [percentile(lat, 99) for lat, _ in chunks]
    rps = [len(lat) / seconds for lat, seconds in chunks]
    pooled = sorted(ms for lat, _ in chunks for ms in lat)
    sizes = [b for s in segments for b in s.size]
    return {
        "samples": len(pooled),
        "chunks": len(chunks),
        "beyond_p99": len(pooled) - math.ceil(0.99 * len(pooled)),
        "p50_ms": statistics.median(p50),
        "p99_ms": percentile(pooled, 99),
        "throughput_rps": statistics.median(rps),
        "response_kb": statistics.fmean(sizes) / 1024 if sizes else 0.0,
        "spread.p50_ms": spread(p50),
        "spread.p99_ms": spread(p99),
        "spread.throughput_rps": spread(rps),
    }
