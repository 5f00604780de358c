"""Span tracer for the benchmark's traced runs.

The tracer wraps public functions at the boundaries listed in
:data:`LAYERS`, patched where callers look them up: a method is
replaced on its class, a function in its defining module and in every
``repro`` module that imported it by name.  Nothing in ``src/repro``
changes; an untraced run installs nothing.

Accounting:

* Each thread keeps its own span stack (the server runs specs in a
  worker thread beside the event loop), so nesting is per thread.
* A span's self time is its duration minus its children's, corrected
  by the tracer's own per-call cost measured at install time
  (:attr:`Tracer.call_cost_ns`).
* Spans of the layers in :data:`KEPT` (one per spec, request, epoch or
  map call) are kept individually with a tag: the spec digest or the
  epoch.  The per-tick layers are folded into ``(count, total, self)``
  aggregates under their nearest kept ancestor, so memory stays
  bounded however long a run is.
* Worker processes forked by a pool or a fleet shard inherit the
  wrappers.  Each writes its spans to ``<spool>/spans-<pid>.json`` when
  it exits, and :func:`merge_spool` folds the files into the parent's
  numbers.  Under a start method other than fork the workers carry no
  wrappers, so :attr:`Tracer.workers_traced` is false and the caller
  reports worker-side layers as unknown, not as zero.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import multiprocessing
import multiprocessing.util
import os
import sys
import threading
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

#: Layer metric name -> patch targets, ``"module:Class.attr"`` or
#: ``"module:function"``.  ``Class+`` means the class and every subclass
#: that defines the attribute itself.
LAYERS: Dict[str, Tuple[str, ...]] = {
    "thermal.rc_step": (
        "repro.thermal.rc:RCNetwork.step",
        "repro.fastpath.rc:CompiledRC.step",
        "repro.fastpath.batch:BatchedRC.step",
    ),
    "thermal.package_step": (
        "repro.thermal.package:CpuPackage.step",
        "repro.thermal.multicore:MulticorePackage.step",
    ),
    "cluster.node_step": (
        "repro.cluster.node:Node.step",
        "repro.cluster.multicore_node:MulticoreNode.step",
    ),
    "cpu.core_step": ("repro.cpu.core:CpuCore.step",),
    "fan.device_step": (
        "repro.fan.adt7467:ADT7467.update",
        "repro.fan.motor:FanMotor.step",
    ),
    "sim.engine_run": ("repro.sim.engine:SimulationEngine.run",),
    "sim.trace_write": (
        "repro.sim.trace:Trace.append",
        "repro.sim.trace:Trace.extend",
        "repro.sim.trace:TraceSet.record",
    ),
    "core.controller_round": (
        "repro.core.controller:UnifiedThermalController.push_sample",
    ),
    "governors.decide": (
        "repro.governors.base:Governor+.on_sample",
        "repro.governors.base:Governor+.on_interval",
    ),
    "telemetry.control_round": (
        "repro.telemetry.provenance:ProvenanceRecorder.control_round",
    ),
    "fastpath.fused_loop": (
        "repro.fastpath.loop:run_fused",
        "repro.fastpath.batch:run_fused_batch",
    ),
    "runtime.execute_spec": (
        "repro.runtime.execute:execute_spec",
        "repro.runtime.execute:execute_specs_batch",
    ),
    "runtime.map": ("repro.runtime.executor:RunExecutor.map",),
    "runtime.cache_probe": ("repro.runtime.executor:RunExecutor.cached",),
    "serve.spec_decode": ("repro.runtime.spec:RunSpec.from_json",),
    "serve.jobs_submit": ("repro.serve.jobs:JobManager.submit",),
    "serve.summary_bytes": ("repro.serve.payloads:summary_bytes",),
    "fleet.shard_epoch": ("repro.fleet.shard:ShardRunner.run_epoch",),
    "fleet.rack_step": (
        "repro.fleet.model:FleetRack.control_step",
        "repro.fleet.model:FleetRack.tick",
    ),
    "fleet.coordinator": (
        "repro.fleet.coordinator:FleetCoordinator.begin_epoch",
        "repro.fleet.coordinator:FleetCoordinator.end_epoch",
    ),
}

#: Layers whose spans are kept one by one (a spec, a request, an epoch,
#: a map call); every other layer is folded per parent.
KEPT = frozenset(
    {
        "sim.engine_run",
        "fastpath.fused_loop",
        "runtime.execute_spec",
        "runtime.map",
        "runtime.cache_probe",
        "serve.spec_decode",
        "serve.jobs_submit",
        "serve.summary_bytes",
        "fleet.shard_epoch",
        "fleet.coordinator",
    }
)

#: Modules imported before patching, so every subclass and every
#: by-name import of a target exists when the tracer looks for it.
_PRELOAD = (
    "repro.runtime",
    "repro.experiments",
    "repro.fastpath.loop",
    "repro.fastpath.batch",
    "repro.serve",
    "repro.fleet",
    "repro.governors",
)


class _ThreadState:
    """One thread's span stack and aggregates."""

    __slots__ = ("stack", "span", "agg", "folded", "spans")

    def __init__(self) -> None:
        #: Frames ``[child_ns, direct_children]`` of the open spans.
        self.stack: List[List[int]] = []
        #: Id of the innermost open kept span (0 at top level).
        self.span = 0
        #: layer -> [calls, total_ns, self_ns]
        self.agg: Dict[str, List[int]] = {}
        #: (parent span id, layer) -> [calls, total_ns, self_ns]
        self.folded: Dict[Tuple[int, str], List[int]] = {}
        #: Kept spans: (id, parent, layer, start_ns, dur_ns, self_ns, tag)
        self.spans: List[tuple] = []


def _tag(layer: str, args: tuple, result: object) -> object:
    """The object a kept span is tagged with (rendered at export).

    Specs are kept by reference and hashed only at export, so the
    digest's cost never lands inside a measured window.
    """
    if layer in ("runtime.execute_spec", "serve.summary_bytes"):
        first = args[0]
        return first if hasattr(first, "digest") else ("specs", len(first))
    if layer == "runtime.map":
        return ("specs", len(args[1]))
    if layer in ("runtime.cache_probe", "serve.jobs_submit"):
        return args[1]
    if layer == "serve.spec_decode":
        return result
    if layer == "fleet.shard_epoch":
        return ("tick", args[0]._tick)
    if layer == "fleet.coordinator":
        return ("t", args[1])
    return None


def _render_tag(tag: object) -> object:
    if tag is None or isinstance(tag, (int, float, str)):
        return tag
    if isinstance(tag, tuple):
        return f"{tag[0]}={tag[1]}"
    digest = getattr(tag, "digest", None)
    return digest()[:16] if callable(digest) else repr(tag)


class Tracer:
    """Installs the wrappers and accumulates spans for one process.

    Parameters
    ----------
    spool:
        Directory forked workers write their span files into.
    """

    def __init__(self, spool: Path) -> None:
        self.spool = Path(spool)
        self.workers_traced = multiprocessing.get_start_method() == "fork"
        self._local = threading.local()
        self._threads: List[_ThreadState] = []
        self._threads_lock = threading.Lock()
        self._ids = itertools.count(1)
        #: Layer -> targets that do not exist at this commit.
        self.absent: Dict[str, List[str]] = {}
        #: Part of a wrapped call's cost inside its own measured window.
        self.cost_in_ns = 0
        #: Part outside it (charged to the caller's window).
        self.cost_gap_ns = 0
        #: Spans are recorded only while true; the harness clears it
        #: around its own bookkeeping (checks, result hashing).
        self.active = True

    # -- installation ----------------------------------------------------

    @property
    def call_cost_ns(self) -> int:
        """The tracer's measured cost per wrapped call, ns."""
        return self.cost_in_ns + self.cost_gap_ns

    def install(self) -> "Tracer":
        """Calibrate, then patch every target in :data:`LAYERS`."""
        for name in _PRELOAD:
            importlib.import_module(name)
        self._calibrate()
        for layer, targets in LAYERS.items():
            for target in targets:
                if not self._patch(layer, target):
                    self.absent.setdefault(layer, []).append(target)
        multiprocessing.util.register_after_fork(self, Tracer._after_fork)
        return self

    def _patch(self, layer: str, target: str) -> bool:
        module_name, _, path = target.partition(":")
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            return False
        if "." not in path:
            original = getattr(module, path, None)
            if original is None:
                return False
            wrapped = self.wrap(layer, original)
            for name, mod in list(_repro_modules()):
                if getattr(mod, path, None) is original:
                    setattr(mod, path, wrapped)
            return True
        class_name, attr = path.split(".")
        every_subclass = class_name.endswith("+")
        cls = getattr(module, class_name.rstrip("+"), None)
        if cls is None:
            return False
        classes = _subclasses(cls) if every_subclass else [cls]
        found = False
        for klass in classes:
            raw = klass.__dict__.get(attr)
            if raw is None:
                continue
            found = True
            if isinstance(raw, classmethod):
                setattr(klass, attr, classmethod(self.wrap(layer, raw.__func__)))
            else:
                setattr(klass, attr, self.wrap(layer, raw))
        return found

    def _calibrate(self, calls: int = 20000) -> None:
        """Measure the wrapper's cost inside and outside its window."""

        def noop() -> None:
            return None

        wrapped = self.wrap("tracer.calibration", noop)
        perf = time.perf_counter_ns
        bare = traced = float("inf")
        for _ in range(5):
            t0 = perf()
            for _ in range(calls):
                noop()
            bare = min(bare, (perf() - t0) / calls)
            t0 = perf()
            for _ in range(calls):
                wrapped()
            traced = min(traced, (perf() - t0) / calls)
        state = self._state()
        agg = state.agg.pop("tracer.calibration")
        state.folded.clear()
        inside = max(0.0, agg[1] / agg[0] - bare)
        total = max(0.0, traced - bare)
        self.cost_in_ns = int(min(inside, total))
        self.cost_gap_ns = int(total - self.cost_in_ns)

    # -- the wrapper -----------------------------------------------------

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = _ThreadState()
            self._local.state = state
            with self._threads_lock:
                self._threads.append(state)
        return state

    def wrap(self, layer: str, fn: Callable) -> Callable:
        """``fn`` wrapped in a span of ``layer``."""
        kept = layer in KEPT
        local = self._local
        perf = time.perf_counter_ns
        ids = self._ids
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            state = getattr(local, "state", None)
            if state is None:
                state = tracer._state()
            stack = state.stack
            frame = [0, 0]
            stack.append(frame)
            if kept:
                parent_span = state.span
                span_id = next(ids)
                state.span = span_id
            result = None
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                dur = perf() - t0
                stack.pop()
                if stack:
                    outer = stack[-1]
                    outer[0] += dur
                    outer[1] += 1
                own = (
                    dur
                    - frame[0]
                    - tracer.cost_in_ns
                    - frame[1] * tracer.cost_gap_ns
                )
                if own < 0:
                    own = 0
                entry = state.agg.get(layer)
                if entry is None:
                    state.agg[layer] = [1, dur, own]
                else:
                    entry[0] += 1
                    entry[1] += dur
                    entry[2] += own
                if kept:
                    state.span = parent_span
                    state.spans.append(
                        (
                            span_id,
                            parent_span,
                            layer,
                            t0,
                            dur,
                            own,
                            _tag(layer, args, result),
                        )
                    )
                else:
                    key = (state.span, layer)
                    folded = state.folded.get(key)
                    if folded is None:
                        state.folded[key] = [1, dur, own]
                    else:
                        folded[0] += 1
                        folded[1] += dur
                        folded[2] += own

        return traced

    # -- results ---------------------------------------------------------

    def export(self) -> dict:
        """This process's spans and aggregates as plain data."""
        agg: Dict[str, List[int]] = {}
        folded: Dict[str, List[int]] = {}
        spans: List[dict] = []
        pid = os.getpid()
        with self._threads_lock:
            states = list(self._threads)
        for tid, state in enumerate(states):
            for layer, (calls, total, own) in state.agg.items():
                merged = agg.setdefault(layer, [0, 0, 0])
                merged[0] += calls
                merged[1] += total
                merged[2] += own
            for (parent, layer), (calls, total, own) in state.folded.items():
                merged = folded.setdefault(f"{pid}:{parent}|{layer}", [0, 0, 0])
                merged[0] += calls
                merged[1] += total
                merged[2] += own
            for span_id, parent, layer, start, dur, own, tag in state.spans:
                spans.append(
                    {
                        "id": f"{pid}:{span_id}",
                        "parent": f"{pid}:{parent}" if parent else None,
                        "name": layer,
                        "pid": pid,
                        "thread": tid,
                        "start_ns": start,
                        "dur_ns": dur,
                        "self_ns": own,
                        "tag": _render_tag(tag),
                    }
                )
        return {
            "pid": pid,
            "layers": agg,
            "folded": folded,
            "spans": spans,
            "call_cost_ns": self.call_cost_ns,
            "absent": self.absent,
            "workers_traced": self.workers_traced,
        }

    def _after_fork(self) -> None:
        """In a forked worker: start empty, write spans at exit.

        The wrappers hold the thread-local object itself, so the forking
        thread's inherited state (the parent's numbers and open spans)
        is dropped from it rather than the object being replaced.
        """
        self._local.state = None
        self._threads = []
        self._threads_lock = threading.Lock()
        multiprocessing.util.Finalize(self, self.flush, exitpriority=100)

    def flush(self) -> None:
        """Write this process's spans to the spool (workers, server)."""
        self.spool.mkdir(parents=True, exist_ok=True)
        path = self.spool / f"spans-{os.getpid()}.json"
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.export()))
        os.replace(tmp, path)


def _repro_modules():
    for name, module in list(sys.modules.items()):
        if module is not None and (name == "repro" or name.startswith("repro.")):
            yield name, module


def _subclasses(cls: type) -> List[type]:
    out, todo = [], [cls]
    while todo:
        klass = todo.pop()
        out.append(klass)
        todo.extend(klass.__subclasses__())
    return out


def merge_spool(local: dict, spool: Path) -> dict:
    """Fold worker span files from ``spool`` into ``local``'s export."""
    merged = dict(local)
    merged.update(
        layers={k: list(v) for k, v in local["layers"].items()},
        folded=dict(local["folded"]),
        spans=list(local["spans"]),
        pids=[local["pid"]],
    )
    for path in sorted(Path(spool).glob("spans-*.json")):
        part = json.loads(path.read_text())
        for key in ("call_cost_ns", "absent", "workers_traced"):
            merged.setdefault(key, part[key])
        merged["pids"].append(part["pid"])
        for layer, values in part["layers"].items():
            into = merged["layers"].setdefault(layer, [0, 0, 0])
            for i in range(3):
                into[i] += values[i]
        merged["folded"].update(part["folded"])
        merged["spans"].extend(part["spans"])
    return merged


def absent_layers(absent: Dict[str, List[str]]) -> List[str]:
    """Layers none of whose targets exist at this commit."""
    return [layer for layer, missing in absent.items()
            if len(missing) == len(LAYERS[layer])]


def layer_metrics(
    merged: dict, capacity_s: float, unknown: bool, absent: List[str]
) -> Dict[str, Optional[float]]:
    """``<layer>.calls|self_s|share`` for every layer in :data:`LAYERS`.

    ``capacity_s`` is the host time the traced work could use (wall
    time times the processes working), so shares sum to at most 1.
    ``unknown`` (work ran in untraced workers) and ``absent`` layers
    read ``None``, never 0.
    """
    out: Dict[str, Optional[float]] = {}
    for layer in LAYERS:
        calls, _total, own = merged["layers"].get(layer, [0, 0, 0])
        if unknown or layer in absent:
            out[f"{layer}.calls"] = None
            out[f"{layer}.self_s"] = None
            out[f"{layer}.share"] = None
            continue
        out[f"{layer}.calls"] = float(calls)
        out[f"{layer}.self_s"] = own / 1e9
        out[f"{layer}.share"] = own / 1e9 / capacity_s if capacity_s > 0 else 0.0
    return out
