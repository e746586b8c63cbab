"""Shared machinery of the end-to-end benchmark.

- :class:`Isolation` gives every run a private work directory inside the
  checkout and cold plan caches on demand, so nothing is shared through
  ``~/.cache/zoomie`` or between set-ups.
- :class:`OpClock` accumulates only the timed segments of a block, so
  the output checks (made outside the fast path) cost no measured time.
  It counts :func:`busy_clock` time and scales it to a nominal machine
  speed by samples of a fixed pure-Python loop taken inside the work,
  because on a shared small host the same code runs up to 50% slower
  from one minute to the next.
- :func:`run_timed` and :func:`run_traced` are the two modes of
  ``run.py``.
"""

from __future__ import annotations

import gc
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

#: Seconds :func:`reference_work` takes on the nominal machine (the
#: median measured on an idle 2-core x86-64 container, Python 3.11).
#: Scaled host times read as if the run had that speed.
REF_NOMINAL_S = 0.00145

#: CPU seconds of work between two reference samples inside a timed
#: segment.
SAMPLE_INTERVAL_S = 0.025

#: Cold set-ups per run; ``setup_s`` reports their median.
SETUP_REPEATS = 3


class CheckError(AssertionError):
    """An output check failed: the program produced a wrong result."""


def reference_work() -> int:
    """A fixed pure-Python loop (integer arithmetic and dict stores, the
    same interpreter work the program's hot paths do)."""
    acc = 0
    table = {}
    for i in range(10000):
        acc = (acc * 31 + i) & 0xFFFFFFFF
        table[i & 255] = acc
    return acc + len(table)


def _runqueue_wait() -> float:
    """Seconds this process has spent runnable but waiting for a CPU."""
    try:
        with open("/proc/self/schedstat") as stat:
            return int(stat.read().split()[1]) / 1e9
    except (OSError, ValueError, IndexError):
        return 0.0


def busy_clock() -> float:
    """Wall clock minus the time spent waiting for a CPU.

    On a shared host much of the run-to-run spread of plain wall time is
    time the process sat runnable behind other tenants' work. This clock
    leaves that out but, unlike CPU time, still counts time blocked in
    the program's own I/O (journal fsyncs).
    """
    return time.perf_counter() - _runqueue_wait()


def reference_seconds(repeats: int = 9) -> float:
    """Median busy time of ``repeats`` runs of :func:`reference_work`."""
    samples = []
    for _ in range(repeats):
        start = busy_clock()
        reference_work()
        samples.append(busy_clock() - start)
    return statistics.median(samples)


def nominal(raw_seconds: float, ref_seconds: float) -> float:
    """Host seconds scaled to the nominal machine."""
    return raw_seconds * REF_NOMINAL_S / ref_seconds


class OpClock:
    """Accumulates the host seconds spent inside ``with clock:`` segments,
    on the :func:`busy_clock` (``elapsed``) and on the wall clock
    (``wall``).

    With ``sample=True`` a profiling timer interrupts the work every
    :data:`SAMPLE_INTERVAL_S` of CPU time to time one
    :func:`reference_work`. The samples follow the host's speed while the
    work runs (it drifts by tens of percent within seconds on a shared
    host); their time is left out of ``elapsed`` and ``wall``, and
    :meth:`nominal` scales ``elapsed`` by them.

    With a tracer attached, spans are recorded inside the segments only,
    so the output checks never show up in the per-layer table.
    """

    def __init__(self, tracer=None, sample: bool = False) -> None:
        self.elapsed = 0.0
        self.wall = 0.0
        self.samples: list[float] = []
        self._start = self._wall_start = self._stolen = 0.0
        self._tracer = tracer
        self._sample = sample
        self._previous = None

    def _take_sample(self, signum, frame) -> None:
        start = busy_clock()
        reference_work()
        spent = busy_clock() - start
        self.samples.append(spent)
        self._stolen += spent

    def __enter__(self) -> "OpClock":
        if self._tracer is not None:
            self._tracer.enabled = True
        self._stolen = 0.0
        if self._sample:
            self._previous = signal.signal(signal.SIGPROF,
                                           self._take_sample)
            signal.setitimer(signal.ITIMER_PROF, SAMPLE_INTERVAL_S,
                             SAMPLE_INTERVAL_S)
        self._wall_start = time.perf_counter()
        self._start = busy_clock()
        return self

    def __exit__(self, *exc) -> None:
        busy = busy_clock() - self._start
        wall = time.perf_counter() - self._wall_start
        if self._sample:
            signal.setitimer(signal.ITIMER_PROF, 0, 0)
            signal.signal(signal.SIGPROF, self._previous)
        self.elapsed += busy - self._stolen
        self.wall += wall - self._stolen
        if self._tracer is not None:
            self._tracer.enabled = False

    def nominal(self) -> float:
        """``elapsed`` at the nominal machine's speed: each sample stands
        for an equal share of the work's CPU time."""
        refs = self.samples or [reference_seconds()]
        return self.elapsed * REF_NOMINAL_S * statistics.fmean(
            1.0 / ref for ref in refs)


@dataclass
class Block:
    """One whole round of a workload's operations."""

    attempted: int
    failed: int
    #: Modeled hardware seconds per operation over this block.
    modeled_s: float


class Isolation:
    """Private scratch space and cold caches for one benchmark process."""

    def __init__(self, root: Path, workload: str):
        self.root = root / ".bench_work" / f"{workload}-{os.getpid()}"
        if self.root.exists():
            shutil.rmtree(self.root)
        self.root.mkdir(parents=True)
        self._caches = 0
        #: Kernel (plan) compiles summed over every cache generation.
        self.plan_compiles = 0

    def path(self, name: str) -> Path:
        out = self.root / name
        out.mkdir(parents=True, exist_ok=True)
        return out

    def fresh_plan_cache(self) -> None:
        """Empty the in-memory plan cache and point the disk tier at a
        new empty directory: the next simulator build compiles cold."""
        from repro.rtl import clear_plan_cache, plan_cache_stats, \
            set_plan_cache_dir
        if self._caches:
            self.plan_compiles += plan_cache_stats()["misses"]
        clear_plan_cache()
        self._caches += 1
        set_plan_cache_dir(self.path(f"plans/{self._caches}"))

    def total_plan_compiles(self) -> int:
        from repro.rtl import plan_cache_stats
        return self.plan_compiles + plan_cache_stats()["misses"]

    def close(self) -> None:
        shutil.rmtree(self.root, ignore_errors=True)


def filesystem_of(path: Path) -> str:
    """Type and mount point of the filesystem holding ``path``."""
    target = str(path) + "/"
    point, kind = "?", "?"
    try:
        with open("/proc/mounts") as mounts:
            for line in mounts:
                fields = line.split()
                if (len(fields) >= 3
                        and target.startswith(fields[1].rstrip("/") + "/")
                        and (point == "?" or len(fields[1]) >= len(point))):
                    point, kind = fields[1], fields[2]
    except OSError:
        pass
    return f"{kind} at {point}"


def git_sha(root: Path) -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], cwd=root,
            capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def print_provenance(root: Path, workload, ref: float) -> None:
    print(f"# git {git_sha(root)}  python {platform.python_version()}  "
          f"nproc {os.cpu_count()}  reference loop {ref * 1e3:.3f} ms "
          f"(nominal {REF_NOMINAL_S * 1e3:.3f} ms)")
    print(f"# journal dir filesystem: {filesystem_of(workload.iso.root)}")


def peak_rss_mb() -> float:
    # ru_maxrss is KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _set_up(workload, iso: Isolation, tracer=None) -> OpClock:
    """One cold set-up."""
    iso.fresh_plan_cache()
    with OpClock(tracer, sample=tracer is None) as clock:
        workload.setup()
    return clock


def run_timed(workload, seconds: float, import_clock: OpClock) -> dict:
    """The untraced run: every end-to-end metric.

    ``setup_s`` is the ``import repro`` time plus the median of
    :data:`SETUP_REPEATS` cold set-ups, at nominal speed.
    """
    iso = workload.iso
    ref0 = reference_seconds()
    import_s = import_clock.elapsed
    print_provenance(Path.cwd(), workload, ref0)
    raw_setups, setups = [], []
    for _ in range(SETUP_REPEATS):
        clock = _set_up(workload, iso)
        raw_setups.append(clock.elapsed)
        setups.append(clock.nominal())
    setup_raw = import_s + statistics.median(raw_setups)
    setup_s = import_clock.nominal() + statistics.median(setups)

    gc.collect()
    blocks: list[Block] = []
    rates: list[float] = []
    raw_total = scaled_total = wall_total = 0.0
    while raw_total < seconds or len(blocks) < workload.min_blocks:
        workload.reset(len(blocks))
        clock = OpClock(sample=True)
        block = workload.block(len(blocks), clock)
        blocks.append(block)
        raw_total += clock.elapsed
        wall_total += clock.wall
        scaled = clock.nominal()
        scaled_total += scaled
        rates.append((block.attempted - block.failed) / scaled)
    workload.final_checks()

    attempted = sum(b.attempted for b in blocks)
    failed = sum(b.failed for b in blocks)
    completed = attempted - failed
    print(f"# {len(blocks)} block(s), {attempted} {workload.unit}(s) "
          f"attempted, {failed} failed; timed {raw_total:.3f} s busy, "
          f"{wall_total:.3f} s wall, {scaled_total:.3f} s nominal")
    print(f"# unscaled: setup_s {setup_raw:.4f} (import {import_s:.4f}) "
          f"ops_per_s {completed / raw_total:.4f} busy, "
          f"{completed / wall_total:.4f} wall; nominal over the whole "
          f"phase {completed / scaled_total:.4f}")
    modeled = blocks[:workload.min_blocks]
    metrics = {
        "setup_s": (setup_s, "s"),
        # The median block: a burst of contention that the reference
        # samples do not follow spoils a few blocks, not the figure.
        "ops_per_s": (statistics.median(rates), "1/s"),
        "modeled_s": (statistics.fmean(b.modeled_s for b in modeled), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    return {"attempted": attempted, "failed": failed, "metrics": metrics}


def run_traced(make_workload, import_clock: OpClock, layer_names) -> dict:
    """The traced run: the same fixed work twice, untraced then traced,
    and the per-layer table of the traced pass. Both totals count the
    wall time of set-up plus the timed segments of every block, the
    clock the spans use."""
    from tracing import Tracer

    first = make_workload()
    print_provenance(Path.cwd(), first, reference_seconds())
    # Warm-up: lazy imports and first-use caches, paid by neither pass.
    _set_up(first, first.iso)
    ref_before = reference_seconds()
    untraced = _set_up(first, first.iso).wall
    for index in range(first.trace_blocks):
        first.reset(index)
        clock = OpClock()
        first.block(index, clock)
        untraced += clock.wall
    untraced_nominal = nominal(
        untraced, (ref_before + reference_seconds()) / 2)
    first.iso.close()

    workload = make_workload()
    tracer = Tracer()
    tracer.install()
    ref_before = reference_seconds()
    try:
        traced = _set_up(workload, workload.iso, tracer).wall
        blocks = []
        for index in range(workload.trace_blocks):
            workload.reset(index)
            clock = OpClock(tracer)
            blocks.append(workload.block(index, clock))
            traced += clock.wall
    finally:
        tracer.uninstall()
    traced_nominal = nominal(traced, (ref_before + reference_seconds()) / 2)
    workload.final_checks()

    table = tracer.table(traced)
    summed = sum(table.layers().values()) + table.unattributed
    if abs(summed - traced) > 1e-6 * max(1.0, traced):
        raise CheckError(f"layer rows + unattributed = {summed} s, "
                         f"traced total {traced} s")
    table.counts["rtl.plan_compiles"] = workload.iso.total_plan_compiles()
    spans_file = workload.iso.root.parent / f"spans-{workload.name}.json"
    tracer.write_spans(spans_file)
    print(table.render())
    print(f"# untraced {untraced:.4f} s raw; tracing overhead "
          f"{traced_nominal - untraced_nominal:+.4f} s at nominal speed "
          f"({traced_nominal:.4f} traced vs {untraced_nominal:.4f} "
          f"untraced)")
    print(f"# spans written to {spans_file}")
    workload.iso.close()

    values = {"setup.import_s": (import_clock.elapsed, "s"),
              "unattributed_s": (table.unattributed, "s"),
              "trace.total_s": (traced, "s"),
              "trace.overhead_s": (traced_nominal - untraced_nominal, "s")}
    for name in layer_names:
        if name in values:
            continue
        if name.endswith(".self_s"):
            values[name] = (table.self_time(name[:-len(".self_s")]), "s")
        else:
            values[name] = (table.counts.get(name, 0), "count")
    attempted = sum(b.attempted for b in blocks)
    failed = sum(b.failed for b in blocks)
    return {"attempted": attempted, "failed": failed, "metrics": values}


def main_guard(argv_root: Path) -> None:
    """Make ``src/`` importable; fail fast when the program is absent."""
    src = argv_root / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"error: no program sources under {src}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(src))
