"""A single-connection, closed-loop HTTP/1.1 load generator.

One blocking keep-alive connection sends a request, reads the whole
response, then sends the next (a closed loop: a slower server receives
less load).  Latency is measured per request from the first byte sent
to the last body byte received.

The client knows only the wire format the server speaks (a status
line and ``Content-Length`` framed bodies) and nothing of the program,
so a change to the program cannot change how it is measured.
"""

from __future__ import annotations

import socket
import time
from dataclasses import dataclass, field
from typing import Callable, Iterator


@dataclass
class Samples:
    """Everything one phase observed, in completion order."""

    index: list[int] = field(default_factory=list)   # request index
    latency_ns: list[int] = field(default_factory=list)
    done_ns: list[int] = field(default_factory=list)  # completion time
    size: list[int] = field(default_factory=list)
    start_ns: int = 0
    error: str = ""  # why the phase ended early, if it did


def _read_response(sock: socket.socket, buf: bytearray
                   ) -> tuple[int, bytes]:
    """(status, body) of the next response; ``buf`` keeps any surplus."""
    while (end := buf.find(b"\r\n\r\n")) < 0:
        buf += _recv(sock)
    length = 0
    for line in bytes(buf[:end]).split(b"\r\n")[1:]:
        name, _, value = line.partition(b":")
        if name.strip().lower() == b"content-length":
            length = int(value)
    status = int(buf[9:12])
    total = end + 4 + length
    while len(buf) < total:
        buf += _recv(sock)
    body = bytes(buf[end + 4:total])
    del buf[:total]
    return status, body


def _recv(sock: socket.socket) -> bytes:
    chunk = sock.recv(1 << 20)
    if not chunk:
        raise ConnectionError("the server closed the connection "
                              "mid-response")
    return chunk


def run(host: str, port: int, requests: list[bytes], order: Iterator[int],
        on_body: Callable[[int, int, bytes], None], *,
        seconds: float | None = None, timeout: float = 30.0) -> Samples:
    """Send ``requests[i]`` for each ``i`` drawn from ``order``.

    Stops when ``order`` is exhausted or, with ``seconds``, at the first
    completion after that much time.  ``on_body(index, status, body)``
    sees every response.  A socket error ends the phase early and is
    returned in ``Samples.error``.
    """
    samples = Samples()
    buf = bytearray()
    try:
        with socket.create_connection((host, port), timeout=timeout) as sock:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            samples.start_ns = time.perf_counter_ns()
            deadline = (samples.start_ns + int(seconds * 1e9)
                        if seconds is not None else None)
            for index in order:
                sent = time.perf_counter_ns()
                sock.sendall(requests[index])
                status, body = _read_response(sock, buf)
                now = time.perf_counter_ns()
                samples.index.append(index)
                samples.latency_ns.append(now - sent)
                samples.done_ns.append(now)
                samples.size.append(len(body))
                on_body(index, status, body)
                if deadline is not None and now >= deadline:
                    break
    except OSError as err:
        samples.error = f"{type(err).__name__}: {err}"
    return samples


def request_bytes(path: str, host: str) -> bytes:
    """One keep-alive GET for ``path``."""
    return (f"GET {path} HTTP/1.1\r\nHost: {host}\r\n"
            "Accept: application/json\r\n\r\n").encode("ascii")
