"""Per-layer host-time tracing, done from outside the simulator.

The traced run wraps the public entry points of each simulator layer
(:data:`LAYERS`) with a span: a span's *self time* is its duration minus
the time its child spans cover, tracked with a stack of child-time
accumulators, so a layer's self time never double-counts the layers it
calls into.  Whatever no span claims (the ``System`` run loop, result
collection, the benchmark's own glue) lands in ``other``.

Nothing under ``src/`` changes: :meth:`SpanTracer.install` swaps class
attributes and module functions for wrappers and :meth:`uninstall`
puts the originals back.
"""

from __future__ import annotations

import gc
import importlib
import sys
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

#: (module, "Class.method" or "function") pairs — one entry point each
Target = Tuple[str, str]


@dataclass(frozen=True)
class Layer:
    """One simulator layer: its entry points and what it should move."""

    name: str
    targets: Tuple[Target, ...]
    #: the end-to-end metric and workload a change to this layer should
    #: move (recorded before any change is measured against it)
    moves: str


LAYERS: Tuple[Layer, ...] = (
    Layer("scheduler",
          (("repro.common.scheduler", "Scheduler.run_due"),),
          "sim_kips on l2_resident"),
    Layer("cpu.fastpath",
          (("repro.cpu.fastpath", "BatchedStepper.run_cycle"),),
          "sim_kips on l2_resident (ordpush cell)"),
    Layer("cache.private",
          (("repro.cache.private_cache", "PrivateCache.access"),
           ("repro.cache.private_cache", "PrivateCache.deliver")),
          "sim_kips on l2_resident"),
    Layer("cache.llc",
          (("repro.cache.llc", "LLCSlice.deliver"),
           ("repro.cache.llc", "LLCSlice.deliver_batch")),
          "sim_kips on noc_stream"),
    Layer("cache.memory",
          (("repro.cache.memory", "MemoryController.deliver"),),
          "sim_kips on noc_stream"),
    Layer("noc.router",
          (("repro.noc.router", "Router.tick"),),
          "sim_kips on noc_stream; little on l2_resident"),
    Layer("noc.interface",
          (("repro.noc.interface", "NetworkInterface.tick"),),
          "sim_kips on noc_stream; little on l2_resident"),
    Layer("noc.network",
          (("repro.noc.network", "Network.tick"),
           ("repro.noc.network", "Network.send")),
          "sim_kips on noc_stream; little on l2_resident"),
    Layer("noc.array",
          (("repro.noc.arrayengine", "ArrayNetwork.tick"),
           ("repro.noc.arrayengine", "ArrayNetwork.send")),
          "sim_kips and peak_rss_mb on noc_stream only"),
    Layer("noc.functional",
          (("repro.noc.functional", "FunctionalNetwork.tick"),
           ("repro.noc.functional", "FunctionalNetwork.send")),
          "wall_s on figure_grid"),
    Layer("workloads",
          (("repro.workloads.registry", "build_trace_buffers"),),
          "setup_s on every workload"),
    Layer("sim.checkpoint",
          (("repro.sim.checkpoint", "capture_state"),
           ("repro.sim.checkpoint", "restore_system"),
           ("repro.sim.checkpoint", "CheckpointStore.get"),
           ("repro.sim.checkpoint", "CheckpointStore.put"),
           ("repro.sim.checkpoint", "CheckpointStore.peek")),
          "wall_s on figure_grid"),
    Layer("store",
          (("repro.store.index", "Index.get_bytes"),
           ("repro.store.index", "Index.put_bytes"),
           ("repro.store.index", "Index.put_stream")),
          "wall_s on figure_grid"),
    Layer("sim.sweep",
          (("repro.sim.sweep", "run_sweep"),),
          "wall_s on figure_grid"),
    Layer("sim.sampling",
          (("repro.sim.sampling", "run_sampled_grid"),),
          "wall_s on figure_grid"),
)

#: spans whose self time belongs to ``other``: the run loop and model
#: construction, kept out of whichever layer happens to call them
OTHER_TARGETS: Tuple[Target, ...] = (
    ("repro.sim.system", "System.__init__"),
    ("repro.sim.system", "System.attach_workload"),
    ("repro.sim.system", "System.run"),
    ("repro.sim.system", "System.run_to_quiesce"),
)

#: the entry points whose time is the benchmark's set-up: trace
#: generation and compilation, plus building the simulated system
SETUP_TARGETS: Tuple[Target, ...] = (
    ("repro.workloads.registry", "build_trace_buffers"),
    ("repro.sim.system", "System.__init__"),
    ("repro.sim.system", "System.attach_workload"),
)

#: count-only probes: (metric name, target)
COUNTED: Tuple[Tuple[str, Target], ...] = (
    ("cache.prefetch.calls",
     ("repro.cache.private_cache", "PrivateCache.prefetch_access")),
)


def _payload_bytes(name: str, args: tuple, kwargs: dict, result) -> int:
    """Bytes one store call moved (read for get, written for puts)."""
    if name == "get_bytes":
        return len(result) if result is not None else 0
    if name == "put_bytes":
        return len(args[2] if len(args) > 2 else kwargs["payload"])
    return int(result["size"])  # put_stream: the written entry


#: store entry points whose payload sizes are counted
BYTE_COUNTERS = {
    "get_bytes": "store.bytes_read",
    "put_bytes": "store.bytes_written",
    "put_stream": "store.bytes_written",
}


class _Patcher:
    """Swaps entry points for wrappers and restores them on undo."""

    def __init__(self) -> None:
        self._undo: List[Tuple[object, str, object]] = []

    def patch(self, target: Target,
              make: Callable[[Callable, str], Callable]) -> None:
        module_name, qualname = target
        module = importlib.import_module(module_name)
        if "." in qualname:
            cls_name, attr = qualname.split(".")
            owner = getattr(module, cls_name)
            original = owner.__dict__[attr]
            self._set(owner, attr, make(original, attr))
            return
        original = getattr(module, qualname)
        wrapper = make(original, qualname)
        # Module functions are often imported by name elsewhere, so
        # rebind every loaded ``repro`` module that holds the original.
        for name, mod in list(sys.modules.items()):
            if (name == "repro" or name.startswith("repro.")) and \
                    getattr(mod, qualname, None) is original:
                self._set(mod, qualname, wrapper)

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def undo(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


class SetupClock:
    """Sums host time spent inside the set-up entry points, less the
    cyclic garbage collector's pauses that fall inside them.

    A collection starts wherever the allocation count crosses its
    threshold and costs time in proportion to the whole heap; set-up
    allocates heavily, so pauses land in it by chance and made up most
    of its spread.  They still count in ``wall_s``.

    Cheap enough for the untraced run: each target is called a handful
    of times per simulated cell, and none calls another.
    """

    def __init__(self) -> None:
        self.seconds = 0.0
        self._depth = 0
        self._gc_start = 0.0
        self._patcher = _Patcher()

    def _wrap(self, fn: Callable, _name: str) -> Callable:
        def probe(*args, **kwargs):
            start = time.perf_counter()
            self._depth += 1
            try:
                return fn(*args, **kwargs)
            finally:
                self._depth -= 1
                self.seconds += time.perf_counter() - start
        return probe

    def _on_gc(self, phase: str, _info: dict) -> None:
        if phase == "start":
            self._gc_start = time.perf_counter()
        elif self._depth:
            self.seconds -= time.perf_counter() - self._gc_start

    def install(self) -> "SetupClock":
        for target in SETUP_TARGETS:
            self._patcher.patch(target, self._wrap)
        gc.callbacks.append(self._on_gc)
        return self

    def uninstall(self) -> None:
        gc.callbacks.remove(self._on_gc)
        self._patcher.undo()


class SpanTracer:
    """Self time and call counts per layer, from wrapped entry points."""

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = {}
        self.calls: Dict[str, int] = {}
        self.counts: Dict[str, int] = {}
        #: child-time accumulators of the open spans, innermost last
        self._stack: List[float] = []
        self._patcher = _Patcher()

    def _span(self, layer: str, fn: Callable, name: str) -> Callable:
        stack = self._stack
        clock = time.perf_counter
        self_s = self.self_s
        calls = self.calls
        self_s.setdefault(layer, 0.0)
        calls.setdefault(layer, 0)
        counter: Optional[str] = (BYTE_COUNTERS.get(name)
                                  if layer == "store" else None)
        if counter is not None:
            self.counts.setdefault(counter, 0)

        def span(*args, **kwargs):
            start = clock()
            stack.append(0.0)
            try:
                result = fn(*args, **kwargs)
            finally:
                child = stack.pop()
                duration = clock() - start
                self_s[layer] += duration - child
                calls[layer] += 1
                if stack:
                    stack[-1] += duration
            if counter is not None:
                self.counts[counter] += _payload_bytes(name, args, kwargs,
                                                       result)
            return result
        return span

    def _counter(self, metric: str, fn: Callable) -> Callable:
        counts = self.counts
        counts.setdefault(metric, 0)

        def counted(*args, **kwargs):
            counts[metric] += 1
            return fn(*args, **kwargs)
        return counted

    def install(self) -> "SpanTracer":
        for layer in LAYERS:
            for target in layer.targets:
                self._patcher.patch(
                    target, lambda fn, name, layer=layer.name:
                    self._span(layer, fn, name))
        for target in OTHER_TARGETS:
            self._patcher.patch(
                target, lambda fn, name: self._span("other", fn, name))
        for metric, target in COUNTED:
            self._patcher.patch(
                target, lambda fn, _name, metric=metric:
                self._counter(metric, fn))
        return self

    def uninstall(self) -> None:
        self._patcher.undo()
