"""The server under test as a subprocess, measured from outside.

``python -m repro.serve`` is started with its default settings plus the
flags a workload names, loaded through the ``load`` op, and observed
only through ``/proc`` (CPU seconds and peak resident memory of the
server and every worker it spawned) and its own protocol.
"""

from __future__ import annotations

import ctypes
import os
import shutil
import signal
import subprocess
import sys
import time
from multiprocessing import resource_tracker
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from repro.serve.client import Client

from . import workloads

REPO_ROOT = Path(__file__).resolve().parents[2]
SRC_DIR = REPO_ROOT / "src"
_TICK = os.sysconf("SC_CLK_TCK")


def work_root() -> Path:
    """Where work files go: inside the checkout, the only place the
    benchmark may write."""
    return Path.cwd() / ".bench_work"


def work_dir() -> Path:
    """A fresh scratch directory for one run; the caller removes it."""
    path = work_root() / f"run-{os.getpid()}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def _stat_fields(pid: int) -> Optional[List[str]]:
    try:
        raw = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return None
    # The command name is parenthesised and may hold spaces.
    return raw[raw.rindex(")") + 2:].split()


def _gone(pid: int) -> bool:
    """Exited, or a zombie only its (dead) parent could reap."""
    fields = _stat_fields(pid)
    return fields is None or fields[0] == "Z"


def descendants(root: int) -> List[int]:
    """``root`` and every live process below it."""
    parents: Dict[int, int] = {}
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            fields = _stat_fields(int(entry))
            if fields is not None:
                parents[int(entry)] = int(fields[1])
    family = [root]
    for pid in family:
        family.extend(p for p, parent in parents.items() if parent == pid)
    return family


def pin_to_one_cpu() -> None:
    """Run this process and everything it starts on one CPU.

    A closed-loop request is a serial chain (generator → server →
    worker → server → generator): no two links run at once, so a second
    CPU buys nothing, but on a virtual machine each hand-over to a
    halted vCPU costs a wake-up through the host, 100 µs or more and as
    variable as the host is busy.  On one CPU a hand-over is a context
    switch.  Measured on ``scan_thread``, eight seeds, interleaved:
    ``read_p50_ms`` 1.04 ms with a spread of 0.13 free, 0.83 ms with
    0.03 pinned (README, *Noise*).
    """
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def adopt_orphans() -> None:
    """Make this process the reaper of every process below it.

    A SIGKILLed server orphans its workers and its multiprocessing
    resource tracker; without this they are re-parented to ``init`` and
    outlive the run (as zombies, until ``init`` gets round to them).
    """
    pr_set_child_subreaper = 36
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl(pr_set_child_subreaper, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass                    # reap_all still kills; init reaps


def _kill_below(me: int, spare: Optional[int] = None) -> None:
    """SIGKILL and reap every process below ``me`` except ``spare``."""
    while True:
        family = [pid for pid in descendants(me) if pid not in (me, spare)]
        if not family:
            return
        for pid in family:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        for pid in family:
            try:
                os.waitpid(pid, 0)
            except ChildProcessError:
                pass    # a grandchild: ours (adopt_orphans) next round


def reap_all() -> None:
    """Stop every process this one started, directly or not, and wait
    until each has ended: nothing may outlive a run."""
    me = os.getpid()
    # This process's own multiprocessing resource tracker (the
    # in-process ``--executor process`` replays start one) exits only
    # when every holder of its pipe has: this process last.  Closing the
    # pipe here lets it clean up and end before its parent does.
    tracker = resource_tracker._resource_tracker
    _kill_below(me, spare=getattr(tracker, "_pid", None))
    try:
        tracker._stop()
    except Exception:           # private API; the sweep below covers it
        pass
    _kill_below(me)


def cpu_seconds(pids: Sequence[int]) -> float:
    """User + system CPU consumed so far by ``pids``."""
    ticks = 0
    for pid in pids:
        fields = _stat_fields(pid)
        if fields is not None:
            ticks += int(fields[11]) + int(fields[12])
    return ticks / _TICK


def peak_rss_mb(pids: Sequence[int]) -> float:
    """Sum of the peak resident set sizes (``VmHWM``) of ``pids``."""
    total_kb = 0
    for pid in pids:
        try:
            status = Path(f"/proc/{pid}/status").read_text()
        except OSError:
            continue
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                total_kb += int(line.split()[1])
    return total_kb / 1024.0


class ServerProc:
    """One ``python -m repro.serve`` process and its workers."""

    def __init__(self, flags: Sequence[str] = ()) -> None:
        self.started = time.perf_counter()
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC_DIR)] + ([env["PYTHONPATH"]]
                              if env.get("PYTHONPATH") else []))
        self._proc = subprocess.Popen(
            [sys.executable, "-m", "repro.serve", "--port", "0",
             "--shards", str(workloads.SHARDS),
             "--key-lo", str(workloads.KEY_SPACE[0]),
             "--key-hi", str(workloads.KEY_SPACE[1]), *flags],
            stdout=subprocess.PIPE, text=True, env=env)
        try:
            words = self._read_banner()
        except BaseException:
            self.kill()
            raise
        self.host, self.port = words[1], int(words[2])
        # Workers are spawned before the banner, so the family is whole.
        self.pids = descendants(self._proc.pid)

    def _read_banner(self) -> List[str]:
        # readline blocks; a server that dies closes the pipe instead.
        line = self._proc.stdout.readline()
        words = line.split()
        if len(words) != 3 or words[0] != "LISTENING":
            raise RuntimeError(f"server did not start: {line!r} "
                               f"(exit {self._proc.poll()})")
        return words

    def client(self) -> Client:
        return Client(self.host, self.port, timeout=60.0)

    def load(self, events: Sequence) -> None:
        """Bulk-load ``events`` through the ``load`` op, default mode."""
        with self.client() as client:
            for i in range(0, len(events), workloads.LOAD_BATCH):
                client.load(events[i:i + workloads.LOAD_BATCH],
                            batch_size=workloads.LOAD_BATCH)

    def cpu_seconds(self) -> float:
        return cpu_seconds(self.pids)

    def peak_rss_mb(self) -> float:
        return peak_rss_mb(self.pids)

    def kill(self) -> None:
        """SIGKILL the server and every process it started (workers,
        multiprocessing's resource tracker), then wait until each has
        ended.  No run is timed across a shutdown, so none drains
        gracefully."""
        family = descendants(self._proc.pid) if self._proc.poll() is None \
            else getattr(self, "pids", [])
        orphans = [pid for pid in family if pid != self._proc.pid]
        if self._proc.poll() is None:
            self._proc.kill()
        self._proc.wait()
        self._proc.stdout.close()
        for pid in orphans:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                continue
            try:
                os.waitpid(pid, 0)      # ours since adopt_orphans
            except ChildProcessError:
                while not _gone(pid):
                    time.sleep(0.01)
