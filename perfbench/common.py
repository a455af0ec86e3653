"""Shared plumbing for the benchmark: paths, subprocesses, statistics.

Everything the benchmark writes goes under ``.bench_work/`` in the
checkout (one fresh directory per run, removed at the end), and every
process it spawns is stopped and waited for before the run returns.
"""

from __future__ import annotations

import http.client
import json
import os
import resource
import shutil
import subprocess
import sys
import tempfile
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
#: the measured length of one run, as ``BENCHMARK.json`` fixes it
RUN_SECONDS = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]

#: end-to-end metrics (untraced runs): name -> unit.  Every workload
#: reports every one of them; see README.md for what each means per
#: workload.
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
}

EXPERIMENTS = ("e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9", "spill")

#: per-layer metrics (traced runs): name -> unit.  A layer a workload
#: never enters reports 0.
PER_LAYER = {
    "cli.import_s": "s",
    "core.build_s": "s",
    "core.compile_s": "s",
    "core.schedule_s": "s",
    "bounds.wavefront_s": "s",
    "bounds.wavefront_calls": "count",
    "pebbling.optimal_s": "s",
    "pebbling.optimal_states": "count",
    "pebbling.play_s": "s",
    "pebbling.play_ns_per_move": "ns",
    "pebbling.replay_s": "s",
    "pebbling.replay_ns_per_move": "ns",
    "pebbling.moves": "count",
    **{f"evaluation.cell_s.{e}": "s" for e in EXPERIMENTS},
    "evaluation.commit_s": "s",
    "store.hits": "count",
    "store.misses": "count",
    "store.hit_ratio": "ratio",
    "store.get_or_compute_self_s": "s",
    "service.warm_p50_ms": "ms",
    "service.warm_p99_ms": "ms",
    "service.cold_p50_ms": "ms",
    "service.queries_per_s": "1/s",
    "service.handle_warm_p50_ms": "ms",
    "service.http_overhead_ms": "ms",
    "fleet.lease_p50_ms": "ms",
    "fleet.report_p50_ms": "ms",
    "fleet.cell_busy_s": "s",
    "fleet.overhead_s": "s",
    "distsim.run_s": "s",
    "trace.overhead_s": "s",
    "trace.layer_sum_frac": "ratio",
    "trace.unattributed_s": "s",
}

#: setup samples taken per run (the reported setup_s is their median)
SETUP_SAMPLES = 5
#: hard limit on any one program subprocess
PROC_TIMEOUT_S = 150.0
#: how often a waited-for subprocess's peak RSS is sampled
RSS_POLL_S = 0.02


class BenchError(RuntimeError):
    """The program misbehaved in a way that makes a measurement void."""


def require_program() -> None:
    """Exit non-zero, printing no result, unless the program's source
    tree sits next to the benchmark."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"benchmark: no program source under {SRC}", file=sys.stderr)
        raise SystemExit(2)


def import_program() -> None:
    """Make ``import repro`` resolve to the checkout's source tree."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def program_env(workdir: Path) -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    # Line-at-a-time stdout, so readiness and progress lines are
    # timestamped when the program prints them, not when a buffer fills.
    env["PYTHONUNBUFFERED"] = "1"
    env["TMPDIR"] = str(workdir)
    return env


def repro_cmd(*args: str) -> List[str]:
    return [sys.executable, "-m", "repro.cli", *args]


@contextmanager
def workdir(tag: str):
    """A fresh scratch directory under ``.bench_work/``, removed on
    exit; temporary files of in-process calls land there too."""
    path = WORK / f"{tag}-{os.getpid()}-{time.time_ns()}"
    path.mkdir(parents=True)
    tempfile.tempdir = str(path)
    try:
        yield path
    finally:
        tempfile.tempdir = None
        shutil.rmtree(path, ignore_errors=True)


# ----------------------------------------------------------------------
# Subprocesses with timestamped stdout
# ----------------------------------------------------------------------
class Proc:
    """A program subprocess whose stdout lines are timestamped
    (``time.perf_counter``) by a reader thread as they arrive."""

    def __init__(self, cmd: Sequence[str], workdir: Path, name: str):
        self.name = name
        self.stderr_path = workdir / f"{name}.stderr"
        self._stderr = open(self.stderr_path, "wb")
        self.lines: List[Tuple[float, str]] = []
        self._cv = threading.Condition()
        self.started = time.perf_counter()
        self.ended: Optional[float] = None
        self.peak_mb = 0.0
        self.popen = subprocess.Popen(
            list(cmd), cwd=str(ROOT), env=program_env(workdir),
            stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
            stderr=self._stderr, text=True, bufsize=1,
        )
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()

    def _read(self) -> None:
        for line in self.popen.stdout:
            stamp = time.perf_counter()
            with self._cv:
                self.lines.append((stamp, line.rstrip("\n")))
                self._cv.notify_all()
        with self._cv:
            self._cv.notify_all()

    def wait_line(self, prefix: str, timeout: float = PROC_TIMEOUT_S):
        """``(timestamp, line)`` of the first line starting with
        ``prefix``; raises if the process exits or times out first."""
        deadline = time.monotonic() + timeout
        with self._cv:
            while True:
                for stamp, line in self.lines:
                    if line.startswith(prefix):
                        return stamp, line
                if self.popen.poll() is not None and not self._reader.is_alive():
                    raise BenchError(
                        f"{self.name} exited ({self.popen.returncode}) "
                        f"before printing {prefix!r}: {self.stderr_tail()}")
                left = deadline - time.monotonic()
                if left <= 0:
                    raise BenchError(f"{self.name}: no {prefix!r} line "
                                     f"within {timeout:g}s")
                self._cv.wait(min(left, 0.05))

    def sample_rss(self) -> None:
        """Fold the process's current peak RSS (``VmHWM``) into
        ``peak_mb``.  Read from ``/proc`` because a forked child's
        ``ru_maxrss`` starts out at the parent's size."""
        try:
            with open(f"/proc/{self.popen.pid}/status") as status:
                for line in status:
                    if line.startswith("VmHWM:"):
                        kb = int(line.split()[1])
                        self.peak_mb = max(self.peak_mb, kb / 1024.0)
                        return
        except (OSError, ValueError):
            pass

    def wait(self, timeout: float = PROC_TIMEOUT_S) -> int:
        deadline = time.monotonic() + timeout
        while True:
            self.sample_rss()
            try:
                code = self.popen.wait(RSS_POLL_S)
                break
            except subprocess.TimeoutExpired:
                if time.monotonic() >= deadline:
                    self.stop()
                    raise BenchError(
                        f"{self.name} did not finish in {timeout:g}s")
        self.ended = time.perf_counter()
        self._finish()
        return code

    def stop(self) -> None:
        """Terminate (then kill) the process and wait for it."""
        if self.popen.poll() is None:
            self.sample_rss()
            self.popen.terminate()
            try:
                self.popen.wait(5.0)
            except subprocess.TimeoutExpired:
                self.popen.kill()
                self.popen.wait()
        self._finish()

    def _finish(self) -> None:
        self._reader.join(5.0)
        self.popen.stdout.close()
        self._stderr.close()

    def stderr_tail(self, limit: int = 400) -> str:
        try:
            return self.stderr_path.read_text(errors="replace")[-limit:]
        except OSError:
            return ""


def spawn_time_to_exit(cmd: Sequence[str], workdir: Path) -> float:
    """Seconds from spawning ``cmd`` until it exits successfully."""
    proc = Proc(cmd, workdir, "probe")
    code = proc.wait()
    if code != 0:
        raise BenchError(f"probe {cmd[-1]!r} failed: {proc.stderr_tail()}")
    return proc.ended - proc.started


def import_seconds(module: str, workdir: Path) -> float:
    """``import module`` timed inside a fresh interpreter."""
    code = ("import time; t = time.perf_counter(); import " + module
            + "; print(time.perf_counter() - t)")
    proc = Proc([sys.executable, "-c", code], workdir, "import-probe")
    if proc.wait() != 0:
        raise BenchError(f"import {module} failed: {proc.stderr_tail()}")
    return float(proc.lines[-1][1])


# ----------------------------------------------------------------------
# HTTP (benchmark-side client: stdlib only, one connection per request)
# ----------------------------------------------------------------------
def http_json(port: int, method: str, path: str, body=None,
              timeout: float = 60.0) -> Tuple[int, dict]:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        raw = None if body is None else json.dumps(body).encode()
        headers = {} if raw is None else {"Content-Type": "application/json"}
        conn.request(method, path, body=raw, headers=headers)
        resp = conn.getresponse()
        data = resp.read()
        try:
            payload = json.loads(data) if data else {}
        except ValueError:
            payload = {"error": data[:200].decode(errors="replace")}
        return resp.status, payload
    finally:
        conn.close()


def wait_health(port: int, timeout: float = 60.0) -> float:
    """Poll ``GET /health`` until it answers 200; returns the time."""
    deadline = time.monotonic() + timeout
    while True:
        try:
            status, _ = http_json(port, "GET", "/health", timeout=5.0)
            if status == 200:
                return time.perf_counter()
        except OSError:
            pass
        if time.monotonic() >= deadline:
            raise BenchError(f"/health on port {port} never answered 200")
        time.sleep(0.005)


def port_from_line(line: str) -> int:
    """The port of an ``... http://host:PORT ...`` readiness line."""
    url = line.split("http://", 1)[1].split()[0]
    return int(url.rsplit(":", 1)[1].rstrip("/"))


# ----------------------------------------------------------------------
# Statistics and resource use
# ----------------------------------------------------------------------
def percentile(values: Iterable[float], q: float) -> float:
    """Linear-interpolation percentile, ``q`` in [0, 100]."""
    xs = sorted(values)
    if not xs:
        return 0.0
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def median(values: Iterable[float]) -> float:
    return percentile(values, 50.0)


def peak_rss_self_mb() -> float:
    """Peak resident set size of this process in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def histogram_p50_ms(hist: Optional[dict]) -> float:
    """Median of a ``repro.obs`` fixed-edge histogram view, interpolated
    inside the bucket that holds it."""
    if not hist or not hist.get("count"):
        return 0.0
    edges, buckets = hist["edges"], hist["buckets"]
    target = hist["count"] / 2.0
    seen = 0
    for i, n in enumerate(buckets):
        if n and seen + n >= target:
            lo = edges[i - 1] if i > 0 else (hist.get("min") or 0.0)
            hi = edges[i] if i < len(edges) else (hist.get("max") or lo)
            return 1000.0 * (lo + (hi - lo) * (target - seen) / n)
        seen += n
    return 1000.0 * (hist.get("max") or 0.0)


def repeat_passes(seconds: float, started: float, one_pass) -> list:
    """Call ``one_pass()`` at least once, and again while one more pass
    (at the median pass time so far) still ends within ``seconds`` of
    ``started``; returns the results in order."""
    results, durations = [], []
    while True:
        start = time.perf_counter()
        results.append(one_pass())
        durations.append(time.perf_counter() - start)
        if time.perf_counter() + median(durations) > started + seconds:
            return results


def end_to_end(setups, walls, peaks_mb) -> Dict[str, float]:
    """The end-to-end metrics from a run's samples: set-up and pass
    times in seconds and each pass's peak RSS in MB."""
    return {
        "setup_s": median(setups),
        "wall_s": median(walls),
        "peak_rss_mb": median(peaks_mb),
    }


class Outcome:
    """What one workload run measured: operation counts plus metrics."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.metrics: Dict[str, float] = {}

    def op(self, ok: bool, problem: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if problem and len(self.problems) < 20:
                self.problems.append(problem)
