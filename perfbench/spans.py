"""Layer spans for the traced benchmark run.

The benchmark wraps the public functions of each layer (see
:data:`LAYER_HOOKS`) so every call opens a span on a per-thread stack.
When a span closes, its duration is added to its parent's child time,
so a layer's *self* time excludes the layers it called: ``gids_for``
reached from inside ``encode_cells`` is charged to the Taint Map layer
once, and not again to the codec.  Spans close into whichever bucket the
driving thread selected last (one bucket per mode of a round), whatever
thread they ran on.

Only aggregates are kept (self seconds, inclusive seconds and outermost
call count per span name): a traced round of the micro workload opens
tens of thousands of spans.
"""

from __future__ import annotations

import functools
import importlib
import threading
from collections import defaultdict
from dataclasses import dataclass, field
from time import perf_counter

#: (module[:class], attribute, span name).  Each layer is named after
#: its module; ``app_process`` is patched in both places it is looked up.
LAYER_HOOKS = (
    ("repro.appmodel", "app_process", "appmodel"),
    ("repro.microbench.workload", "app_process", "appmodel"),
    ("repro.core.wire", "encode_cells", "wire.encode"),
    ("repro.core.wire", "encode_packet", "wire.encode"),
    ("repro.core.wire:CellDecoder", "feed", "wire.decode"),
    ("repro.core.wire", "decode_packet", "wire.decode"),
    ("repro.core.wrappers:DisTARuntime", "record_io", "wrappers.record_io"),
    ("repro.core.wrappers:DisTARuntime", "outgoing", "wrappers.outgoing"),
    ("repro.core.taintmap:TaintMapClient", "gid_for", "taintmap.register"),
    ("repro.core.taintmap:TaintMapClient", "gids_for", "taintmap.register"),
    ("repro.core.taintmap:TaintMapClient", "taint_for", "taintmap.lookup"),
    ("repro.core.taintmap:TaintMapClient", "taints_for", "taintmap.lookup"),
    ("repro.runtime.cluster:Cluster", "start", "cluster.start"),
    ("repro.runtime.cluster:Cluster", "shutdown", "cluster.shutdown"),
    ("repro.systems.common", "seed_data_files", "systems.seed"),
)


@dataclass
class Ledger:
    """Span aggregates of one bucket."""

    self_s: dict = field(default_factory=lambda: defaultdict(float))
    #: Inclusive seconds of outermost spans of each name.
    total_s: dict = field(default_factory=lambda: defaultdict(float))
    #: Outermost spans of each name: a name re-entered while already on
    #: the thread's stack is one call, not two.
    calls: dict = field(default_factory=lambda: defaultdict(int))
    #: Per-deployment telemetry delta and kernel byte counts, captured
    #: around ``Cluster.start``/``Cluster.shutdown`` outside any span.
    telemetry: list = field(default_factory=list)
    app_wire_bytes: int = 0
    taintmap_wire_bytes: int = 0


class Tracer:
    """Per-thread span stacks feeding per-bucket :class:`Ledger` s."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self.buckets: dict = {}
        self._current = self.select(None)

    def select(self, key) -> Ledger:
        """Charge spans closing from now on to bucket ``key``."""
        with self._lock:
            ledger = self.buckets.get(key)
            if ledger is None:
                ledger = self.buckets[key] = Ledger()
            self._current = ledger
        return ledger

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn):
        """``fn`` with every call recorded as a span named ``name``."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            nested = any(frame[0] == name for frame in stack)
            frame = [name, 0.0]  # name, child seconds
            stack.append(frame)
            started = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = perf_counter() - started
                stack.pop()
                if stack:
                    stack[-1][1] += duration
                with self._lock:
                    ledger = self._current
                    ledger.self_s[name] += duration - frame[1]
                    if not nested:
                        ledger.total_s[name] += duration
                        ledger.calls[name] += 1

        return traced


def _owner(target: str):
    module_name, _, class_name = target.partition(":")
    owner = importlib.import_module(module_name)
    return getattr(owner, class_name) if class_name else owner


class LayerPatch:
    """Install the layer spans (and the per-deployment telemetry capture)
    for one traced round; ``remove()`` restores every original.

    Patches are installed per round, not toggled, so untraced rounds run
    the unmodified functions."""

    def __init__(self, tracer: Tracer) -> None:
        self._saved: list = []
        for target, attr, name in LAYER_HOOKS:
            owner = _owner(target)
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(name, original))
        cluster_cls = _owner("repro.runtime.cluster:Cluster")
        # Wrap the span-wrapped lifecycle methods once more, so the
        # telemetry capture sits outside the cluster spans; ``remove``
        # restores the originals saved above.
        start, shutdown = cluster_cls.start, cluster_cls.shutdown
        baselines: dict = {}

        def traced_start(cluster):
            result = start(cluster)
            baselines[id(cluster)] = cluster.telemetry_snapshot()
            return result

        def traced_shutdown(cluster):
            from repro.obs.registry import diff_snapshots

            before = baselines.pop(id(cluster), None)
            if before is not None:
                app = cluster.wire_bytes(exclude_taint_map=True)
                ledger = tracer._current
                ledger.telemetry.append(
                    diff_snapshots(cluster.telemetry_snapshot(), before)
                )
                ledger.app_wire_bytes += app
                ledger.taintmap_wire_bytes += (
                    cluster.wire_bytes(exclude_taint_map=False) - app
                )
            return shutdown(cluster)

        cluster_cls.start = traced_start
        cluster_cls.shutdown = traced_shutdown

    def remove(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()
