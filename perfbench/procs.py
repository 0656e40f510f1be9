"""Program processes: run a CLI stage, run a server, account for both.

Every program process is a fresh ``python -m repro ...`` interpreter
(or, in the traced run, the same command through ``launch.py``), pinned
to :data:`PROGRAM_CPU`.  Each is reaped with ``os.wait4`` so its peak
RSS and CPU time — including the children it reaped itself, such as
fleet workers — are known without sampling.
"""

from __future__ import annotations

import json
import os
import re
import signal
import subprocess
import sys
import time
import urllib.request
from dataclasses import dataclass, field
from pathlib import Path

from host import HostMeter, scaled

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PYTHON = sys.executable
#: No stage takes a tenth of this; one that does has hung.
STAGE_TIMEOUT_S = 150.0


def _cpus() -> tuple[int, int]:
    """(the program's vCPU, the client's vCPU): two different ones when
    the benchmark may use two.

    Every program process runs on the first (see ``host.py``).  The
    benchmark's client runs on the other during a serving phase:
    unpinned, the scheduler moved the client and server across the
    host's two vCPUs and one server's 5-second throughput wandered 2x
    within a minute; pinned apart, it stayed within a few percent.
    """
    cpus = sorted(os.sched_getaffinity(0))
    return cpus[0], cpus[-1]


PROGRAM_CPU, CLIENT_CPU = _cpus()


def program_env() -> dict[str, str]:
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ,
                PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))


def _reap(proc: subprocess.Popen, timeout: float | None = None
          ) -> tuple[int, int, float]:
    """Wait for ``proc``; returns (exit code, peak RSS in KiB, CPU
    seconds of it and every child it reaped)."""
    deadline = None if timeout is None else time.monotonic() + timeout
    while True:
        flags = 0 if deadline is None else os.WNOHANG
        pid, status, usage = os.wait4(proc.pid, flags)
        if pid:
            proc.returncode = os.waitstatus_to_exitcode(status)
            return (proc.returncode, usage.ru_maxrss,
                    usage.ru_utime + usage.ru_stime)
        if time.monotonic() >= deadline:
            raise subprocess.TimeoutExpired(proc.args, timeout)
        time.sleep(0.02)


@dataclass
class Ledger:
    """Operations attempted and failed, by kind, with the reasons."""

    attempted: dict[str, int] = field(default_factory=dict)
    failed: dict[str, int] = field(default_factory=dict)
    failures: list[str] = field(default_factory=list)

    def record(self, kind: str, ok: bool, what: str = "", n: int = 1) -> bool:
        self.attempted[kind] = self.attempted.get(kind, 0) + n
        if not ok:
            self.failed[kind] = self.failed.get(kind, 0) + n
            if len(self.failures) < 50:
                self.failures.append(what)
        return ok

    def fail(self, kind: str, what: str, n: int = 1) -> None:
        """Count ``n`` failures of operations already counted attempted."""
        self.failed[kind] = self.failed.get(kind, 0) + n
        if len(self.failures) < 50:
            self.failures.append(what)


@dataclass
class StageResult:
    seconds: float  # CPU seconds at the reference speed (see host.py)
    cpu_seconds: float
    wall_seconds: float
    probe_ms: float  # the mean probe time on PROGRAM_CPU while it ran
    stdout: str


class Processes:
    """Starts program processes inside ``work`` and accounts for them."""

    def __init__(self, work: Path, ledger: Ledger, *, traced: bool) -> None:
        self.work = work
        self.ledger = ledger
        self.traced = traced
        self.peak_rss_kb = 0
        self.launches: list[tuple[str, Path]] = []
        self._env = program_env()

    @staticmethod
    def _on_program_cpu() -> None:
        os.sched_setaffinity(0, {PROGRAM_CPU})

    def _argv(self, name: str, args: list[str], mode: str | None
              ) -> tuple[list[str], Path | None]:
        if not self.traced or mode is None:
            return [PYTHON, "-m", "repro", *args], None
        out = self.work / f"launch-{len(self.launches):02d}-{name}.json"
        self.launches.append((name, out))
        return [PYTHON, str(HERE / "launch.py"), str(out), mode, "--",
                *args], out

    def stage(self, name: str, args: list[str], *, mode: str | None = "trace"
              ) -> StageResult:
        """Run one CLI command to completion; a non-zero exit fails it."""
        argv, _ = self._argv(name, args, mode)
        out_path = self.work / f"{name}.out"
        with open(out_path, "w") as out, \
                open(self.work / f"{name}.err", "w") as err, \
                HostMeter(PROGRAM_CPU) as meter:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=self.work, env=self._env,
                                    stdout=out, stderr=err,
                                    preexec_fn=self._on_program_cpu)
            try:
                rc, rss, cpu = _reap(proc, timeout=STAGE_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                os.kill(proc.pid, signal.SIGKILL)
                _reap(proc)
                raise
            end = time.perf_counter()
        self.peak_rss_kb = max(self.peak_rss_kb, rss)
        stdout = out_path.read_text()
        self.ledger.record("stage", rc == 0, f"{name} exited {rc}")
        probe_ms = meter.mean_ms(start, end)
        return StageResult(scaled(cpu, probe_ms), cpu, end - start,
                           probe_ms, stdout)

    def server(self, name: str, args: list[str], *,
               mode: str | None = "trace") -> "Server":
        argv, launch = self._argv(name, args, mode)
        with open(self.work / f"{name}.err", "w") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=self.work, env=self._env,
                                    stdout=subprocess.PIPE, stderr=err,
                                    text=True,
                                    preexec_fn=self._on_program_cpu)
        return Server(self, name, proc, start, launch)


class Server:
    """One ``repro serve`` process (single or fleet) and its URL."""

    def __init__(self, owner: Processes, name: str, proc: subprocess.Popen,
                 start: float, launch: Path | None) -> None:
        self.owner = owner
        self.name = name
        self.proc = proc
        self.start = start
        self.launch = launch
        self.url = ""
        self.rc: int | None = None
        for line in proc.stdout:
            found = re.match(r"serving \S+ on (http://\S+)", line)
            if found:
                self.url = found.group(1)
                break
        if not self.url:
            self.stop()
            raise RuntimeError(f"{name}: server exited before serving")
        host, port = self.url[len("http://"):].rsplit(":", 1)
        self.host, self.port = host, int(port)

    def get_json(self, path: str) -> dict:
        with urllib.request.urlopen(self.url + path, timeout=30) as resp:
            return json.loads(resp.read())

    def wait_for_workers(self, workers: int, timeout: float = 60.0) -> None:
        """Poll ``/v1/metrics`` until every fleet worker answers.

        The supervisor returns at the first healthz, before every
        worker has loaded the dataset, so readiness is checked here.
        """
        deadline = time.monotonic() + timeout
        while True:
            try:
                fleet = self.get_json("/v1/metrics").get("fleet", {})
                if (len(fleet.get("workers", {})) == workers
                        and not fleet.get("unreachable")):
                    return
            except OSError:
                pass
            if time.monotonic() > deadline:
                raise RuntimeError(f"{self.name}: fleet not ready in "
                                   f"{timeout}s")
            time.sleep(0.05)

    def _pids(self) -> list[int]:
        """The server process and every process below it."""
        pids = [self.proc.pid]
        for pid in pids:
            for tid in os.listdir(f"/proc/{pid}/task"):
                try:
                    children = Path(f"/proc/{pid}/task/{tid}/children")
                    pids.extend(int(c) for c in children.read_text().split())
                except FileNotFoundError:
                    pass  # a thread that exited meanwhile
        return pids

    def cpu_seconds(self) -> float:
        """User + system CPU time the server and its workers have used."""
        ticks = 0
        for pid in self._pids():
            try:
                stat = Path(f"/proc/{pid}/stat").read_text()
            except FileNotFoundError:
                continue  # a worker that exited meanwhile
            fields = stat.rsplit(")", 1)[1].split()
            ticks += int(fields[11]) + int(fields[12])  # utime, stime
        return ticks / os.sysconf("SC_CLK_TCK")

    def stop(self) -> int:
        """SIGTERM (a graceful drain), SIGKILL after 30 s; idempotent."""
        if self.rc is not None:
            return self.rc
        # os.kill, not Popen.send_signal: that polls, and a poll that
        # reaps the process loses the peak RSS only wait4 reports.
        os.kill(self.proc.pid, signal.SIGTERM)
        try:
            rc, rss, _ = _reap(self.proc, timeout=30.0)
        except subprocess.TimeoutExpired:
            os.kill(self.proc.pid, signal.SIGKILL)
            rc, rss, _ = _reap(self.proc)
        self.proc.stdout.close()
        self.owner.peak_rss_kb = max(self.owner.peak_rss_kb, rss)
        self.rc = rc
        return rc
