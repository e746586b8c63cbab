"""Per-layer tracing from outside the program.

:class:`Tracer` wraps the public entry points of each layer of the
program (classes and module functions under ``src/repro``) with span
recorders and counters; nothing under ``src/`` changes. A span holds a
name, a start, an end and the index of its parent span; spans stay in
memory and are written out once, when the run ends.

Self time is a span's duration minus the time its child spans cover.
Summed over every span it equals the summed duration of the root spans,
so the per-layer rows plus ``unattributed`` (traced total minus root
span time) add up to the traced total.

Only the main thread records spans: work that the VTI scheduler runs on
its pool threads is charged to the enclosing ``vti.incremental_many``.
"""

from __future__ import annotations

import json
import threading
import time
from array import array
from collections import Counter, defaultdict
from pathlib import Path


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("i")
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self._patches: list[tuple[object, str, object]] = []
        self._main = threading.get_ident()
        self._in_transact = 0
        #: Spans are recorded only while enabled (the timed segments).
        self.enabled = False

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        ident = self._name_ids.get(name)
        if ident is None:
            ident = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return ident

    def spanned(self, name: str, fn, after=None, when=None):
        """``fn`` wrapped in a span called ``name``; ``after(result,
        args, kwargs)`` may add counts; ``when()`` false skips the span."""
        ident = self._name_id(name)
        stack, starts, ends = self.stack, self.starts, self.ends
        names, parents = self.span_name, self.parents
        clock, main = time.perf_counter, self._main
        counts = self.counts
        calls = name + ".calls"

        def wrapper(*args, **kwargs):
            if (not self.enabled or threading.get_ident() != main
                    or (when and not when())):
                return fn(*args, **kwargs)
            index = len(starts)
            names.append(ident)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(index)
            counts[calls] += 1
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
            if after is not None:
                after(result, args, kwargs)
            return result
        wrapper.__wrapped__ = fn
        return wrapper

    def counted(self, name: str, fn):
        """``fn`` wrapped with a call counter only (for per-bit calls
        too frequent to span)."""
        counts = self.counts

        def wrapper(*args, **kwargs):
            if self.enabled:
                counts[name] += 1
            return fn(*args, **kwargs)
        wrapper.__wrapped__ = fn
        return wrapper

    def patch(self, owner, attr: str, wrapper_factory) -> None:
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper_factory(original))

    # ------------------------------------------------------------------
    # the layer boundaries
    # ------------------------------------------------------------------

    def install(self) -> None:
        """Wrap every layer's public entry points."""
        from repro.bitstream import crc as crc_module
        from repro.campaign import harness as campaign_harness
        from repro.config import jtag, transport
        from repro.config.fabric import FabricDevice
        from repro.config.jtag import JtagRing
        from repro.config.microcontroller import Microcontroller
        from repro.debug import journal
        from repro.debug.debugger import ZoomieDebugger
        from repro.debug.journal import CommandJournal
        from repro.debug.snapshot_store import SnapshotStore
        from repro.fpga.frames import FRAME_WORDS, ConfigMemory, FrameSpace
        from repro.rtl.batch import BatchSimulator
        from repro.rtl.simulator import Simulator
        from repro.vendor.flow import VivadoFlow
        from repro.vti.flow import VtiFlow

        counts = self.counts
        span = self.spanned

        # rtl
        self.patch(Simulator, "step", lambda f: span("rtl.step", f))
        self.patch(BatchSimulator, "step", lambda f: span("rtl.probe", f))

        # config
        self.patch(FabricDevice, "run",
                   lambda f: span("config.fabric_run", f))

        def transact(fn):
            def inner(fabric, words):
                retries = fabric.transport.stats.retries
                self._in_transact += 1
                try:
                    result = fn(fabric, words)
                finally:
                    self._in_transact -= 1
                if self.enabled:
                    counts["config.transact.words"] += len(words)
                    counts["config.transport.retries"] += (
                        fabric.transport.stats.retries - retries)
                    counts["debug.readback.frames"] += (
                        len(result.read_words) // FRAME_WORDS)
                return result
            return span("config.transact", inner)
        self.patch(FabricDevice, "transact", transact)
        self.patch(FabricDevice, "capture",
                   lambda f: span("config.capture", f))
        self.patch(FabricDevice, "restore",
                   lambda f: span("config.restore", f))
        # Bitstreams the benchmark loads itself (full and partial
        # programming); ring runs inside a transaction belong to it.
        self.patch(JtagRing, "run", lambda f: span(
            "config.program", f, when=lambda: not self._in_transact))
        self.patch(Microcontroller, "execute",
                   lambda f: self.counted("config.uc_packets", f))

        # fpga
        self.patch(ConfigMemory, "set_bit",
                   lambda f: self.counted("fpga.frame_bit_ops", f))
        self.patch(ConfigMemory, "get_bit",
                   lambda f: self.counted("fpga.frame_bit_ops", f))
        self.patch(ConfigMemory, "read_frame",
                   lambda f: self.counted("fpga.frame_reads", f))
        self.patch(FrameSpace, "validate",
                   lambda f: self.counted("fpga.frame_validates", f))

        # bitstream: crc32_stream is imported by name where it is used.
        def crc_words(result, args, kwargs):
            counts["bitstream.crc_words"] += len(args[0])
        crc = span("bitstream.crc", crc_module.crc32_stream, after=crc_words)
        for module in (jtag, transport, journal):
            self._patches.append((module, "crc32_stream",
                                  module.crc32_stream))
            module.crc32_stream = crc

        # debug
        for verb in ("run", "step", "write_state", "read_state",
                     "snapshot", "restore", "write_memory"):
            self.patch(ZoomieDebugger, verb,
                       lambda f, verb=verb: span(f"debug.{verb}", f))

        def journal_sync(result, args, kwargs):
            counts["debug.journal.syncs"] += 1
        self.patch(CommandJournal, "sync", lambda f: span(
            "debug.journal", f, after=journal_sync))
        self.patch(SnapshotStore, "put",
                   lambda f: span("debug.snapshot_store", f))
        self.patch(SnapshotStore, "get",
                   lambda f: span("debug.snapshot_store", f))

        # vendor
        self.patch(VivadoFlow, "compile",
                   lambda f: span("vendor.compile", f))
        self.patch(VivadoFlow, "compile_netlist",
                   lambda f: span("vendor.compile", f))

        # vti
        def cache_outcome(results) -> None:
            for result in results:
                key = "hits" if result.cache_hit else "misses"
                counts[f"vti.cache.{key}"] += 1
        self.patch(VtiFlow, "compile_initial",
                   lambda f: span("vti.initial", f))
        self.patch(VtiFlow, "compile_incremental", lambda f: span(
            "vti.incremental", f,
            after=lambda result, a, k: cache_outcome([result])))
        self.patch(VtiFlow, "compile_incremental_many", lambda f: span(
            "vti.incremental_many", f,
            after=lambda result, a, k: cache_outcome(result[0])))

        # campaign: the harness imports these by name.
        def probes(result, args, kwargs):
            counts["campaign.probes"] += result["probes"]
        self.patch(campaign_harness, "differential_probe",
                   lambda f: span("campaign.detect", f))
        self.patch(campaign_harness, "localize_attempt",
                   lambda f: span("campaign.localize", f, after=probes))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------

    def table(self, total: float) -> "LayerTable":
        count = len(self.starts)
        duration = [self.ends[i] - self.starts[i] for i in range(count)]
        self_time = list(duration)
        root_time = 0.0
        for i in range(count):
            parent = self.parents[i]
            if parent < 0:
                root_time += duration[i]
            else:
                self_time[parent] -= duration[i]
        by_name: dict[str, float] = defaultdict(float)
        for i in range(count):
            by_name[self.names[self.span_name[i]]] += self_time[i]
        return LayerTable(dict(by_name), Counter(self.counts), total,
                          total - root_time, count)

    def write_spans(self, path: Path) -> None:
        """All spans as ``[name, start, end, parent]`` rows."""
        origin = self.starts[0] if len(self.starts) else 0.0
        rows = [[self.span_name[i], round(self.starts[i] - origin, 9),
                 round(self.ends[i] - origin, 9), self.parents[i]]
                for i in range(len(self.starts))]
        path.write_text(json.dumps({"names": self.names, "spans": rows},
                                   separators=(",", ":")))


class LayerTable:
    def __init__(self, self_times: dict, counts: Counter, total: float,
                 unattributed: float, spans: int):
        self.self_times = self_times
        self.counts = counts
        self.total = total
        self.unattributed = unattributed
        self.spans = spans

    def self_time(self, span: str) -> float:
        return self.self_times.get(span, 0.0)

    def layers(self) -> dict[str, float]:
        out: dict[str, float] = defaultdict(float)
        for name, seconds in self.self_times.items():
            out[name.split(".")[0]] += seconds
        return dict(out)

    def render(self) -> str:
        layers = self.layers()
        summed = sum(layers.values()) + self.unattributed
        lines = [f"# traced total {self.total:.4f} s over {self.spans} "
                 f"spans (set-up plus timed segments)",
                 f"# {'layer':<14}{'self s':>10}{'share':>8}"]
        for layer, seconds in sorted(layers.items(), key=lambda x: -x[1]):
            lines.append(f"# {layer:<14}{seconds:>10.4f}"
                         f"{seconds / self.total:>8.1%}")
        lines.append(f"# {'unattributed':<14}{self.unattributed:>10.4f}"
                     f"{self.unattributed / self.total:>8.1%}")
        lines.append(f"# layer rows + unattributed = {summed:.6f} s "
                     f"(traced total {self.total:.6f} s)")
        for name, seconds in sorted(self.self_times.items()):
            lines.append(f"#   {name:<28}{seconds:>10.4f} s self")
        for name, value in sorted(self.counts.items()):
            lines.append(f"#   {name:<28}{value:>10}")
        return "\n".join(lines)
