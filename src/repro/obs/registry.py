"""Cluster-wide telemetry: the metrics registry (§V-F methodology).

The paper's evaluation reasons about quantities the runtime must be able
to *measure on itself*: Taint Map request volume and latency, taint
population growth, wire amplification, per-method crossing counts.  This
module is the single sink every layer reports into — one thread-safe
:class:`MetricsRegistry` per node (plus one per kernel and per Taint Map
shard), aggregated cluster-wide with :func:`merge_snapshots`.

Three metric kinds, mirroring the Prometheus data model:

* **counter** — monotone event counts (requests, bytes, cache hits);
* **gauge** — instantaneous values (in-flight request depth);
* **histogram** — latency/size distributions over **fixed power-of-two
  buckets**.  Recording a sample is one ``math.frexp`` plus an integer
  increment under a per-child lock — no per-sample allocation, no
  sorting, hot-path safe.  p50/p95/p99 come from the bucket counts at
  read time (:func:`snapshot_quantile`), the standard trade of exact
  order statistics for O(1) recording.

The interchange format is the **snapshot**: a plain dict keyed by metric
name, JSON-serializable, mergeable across registries (shards sum), and
renderable as Prometheus exposition text (:func:`render_exposition`).
Scrape-time **collectors** fold pre-existing counter objects (e.g.
:class:`~repro.core.taintmap.TaintMapStats`) into the same snapshot
without double-accounting: they are read fresh on every scrape.
"""

from __future__ import annotations

import math
import re
import threading
from typing import Callable, Iterable, Optional, Sequence

from repro.errors import TelemetryError

#: Default histogram layout: powers of two starting at 1 µs.  36 buckets
#: reach ~68 seconds — wide enough for any simulated RPC while keeping a
#: child's footprint at a few hundred bytes.
DEFAULT_LOWEST = 1e-6
DEFAULT_BUCKETS = 36

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

COUNTER = "counter"
GAUGE = "gauge"
HISTOGRAM = "histogram"


def bucket_bounds(lowest: float, buckets: int) -> list:
    """Upper bounds of each bucket; ``None`` is the +Inf overflow."""
    return [lowest * (1 << i) for i in range(buckets)] + [None]


def bucket_index(value: float, lowest: float, buckets: int) -> int:
    """The bucket a sample lands in: smallest i with value <= bound(i).

    ``frexp`` gives the binary exponent directly, so indexing costs no
    loop and no log() call.  Exact powers of two land on their own
    boundary (value == bound ⇒ that bucket, half-open on the left).
    """
    if value <= lowest:
        return 0
    mantissa, exponent = math.frexp(value / lowest)
    index = exponent - 1 if mantissa == 0.5 else exponent
    return index if index < buckets else buckets


class _CounterChild:
    """One labelled counter series."""

    __slots__ = ("_lock", "_value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise TelemetryError("counters only go up; use a gauge")
        with self._lock:
            self._value += amount

    def reset(self) -> None:
        with self._lock:
            self._value = 0.0

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class _GaugeChild:
    """One labelled gauge series."""

    __slots__ = ("_lock", "_value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value -= amount

    def reset(self) -> None:
        with self._lock:
            self._value = 0.0

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class _HistogramChild:
    """One labelled histogram series over fixed power-of-two buckets."""

    __slots__ = ("_lock", "_lowest", "_buckets", "_counts", "_sum", "_count")

    def __init__(self, lowest: float, buckets: int) -> None:
        self._lock = threading.Lock()
        self._lowest = lowest
        self._buckets = buckets
        self._counts = [0] * (buckets + 1)
        self._sum = 0.0
        self._count = 0

    def observe(self, value: float) -> None:
        index = bucket_index(value, self._lowest, self._buckets)
        with self._lock:
            self._counts[index] += 1
            self._sum += value
            self._count += 1

    def snapshot(self) -> tuple[list, float, int]:
        with self._lock:
            return list(self._counts), self._sum, self._count

    def reset(self) -> None:
        with self._lock:
            self._counts = [0] * (self._buckets + 1)
            self._sum = 0.0
            self._count = 0


class FragmentHistogram:
    """A standalone histogram series for scrape-time collector fragments.

    Components that join a registry via :meth:`MetricsRegistry.register_collector`
    (TaintMapStats, CrossingTrace, the lineage store) own their counters
    directly rather than through a :class:`MetricFamily`.  This gives
    them the same power-of-two-bucket histogram the registry uses —
    O(1) ``frexp`` recording under a private lock — plus a
    :meth:`sample` method emitting the exact snapshot-sample shape
    (``labels``/``le``/``buckets``/``sum``/``count``) the snapshot
    algebra (merge, diff, quantile, exposition) consumes.
    """

    __slots__ = ("_lock", "lowest", "buckets", "_counts", "_sum", "_count")

    def __init__(self, lowest: float = DEFAULT_LOWEST, buckets: int = DEFAULT_BUCKETS):
        self._lock = threading.Lock()
        self.lowest = lowest
        self.buckets = buckets
        self._counts = [0] * (buckets + 1)
        self._sum = 0.0
        self._count = 0

    def observe(self, value: float) -> None:
        index = bucket_index(value, self.lowest, self.buckets)
        with self._lock:
            self._counts[index] += 1
            self._sum += value
            self._count += 1

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    def sample(self, labels: Optional[dict] = None) -> dict:
        """One histogram snapshot sample, ready to drop into a fragment."""
        with self._lock:
            counts = list(self._counts)
            total = self._sum
            count = self._count
        return {
            "labels": dict(labels or {}),
            "le": bucket_bounds(self.lowest, self.buckets),
            "buckets": counts,
            "sum": total,
            "count": count,
        }


class MetricFamily:
    """One named metric with a fixed label schema and many children."""

    def __init__(
        self,
        name: str,
        kind: str,
        help: str,
        label_names: tuple,
        lowest: float = DEFAULT_LOWEST,
        buckets: int = DEFAULT_BUCKETS,
    ):
        if not _NAME_RE.match(name):
            raise TelemetryError(f"invalid metric name {name!r}")
        for label in label_names:
            if not _LABEL_RE.match(label):
                raise TelemetryError(f"invalid label name {label!r} on {name}")
        self.name = name
        self.kind = kind
        self.help = help
        self.label_names = tuple(label_names)
        self.lowest = lowest
        self.buckets = buckets
        self._lock = threading.Lock()
        self._children: dict = {}

    def _make_child(self):
        if self.kind == COUNTER:
            return _CounterChild()
        if self.kind == GAUGE:
            return _GaugeChild()
        return _HistogramChild(self.lowest, self.buckets)

    def labels(self, **label_values):
        """The child for one label-value combination (created on first
        use, cached forever — hot paths pay one dict lookup)."""
        if set(label_values) != set(self.label_names):
            raise TelemetryError(
                f"{self.name} takes labels {self.label_names}, "
                f"got {tuple(sorted(label_values))}"
            )
        key = tuple(str(label_values[name]) for name in self.label_names)
        with self._lock:
            child = self._children.get(key)
            if child is None:
                child = self._make_child()
                self._children[key] = child
            return child

    # -- label-less convenience ------------------------------------------- #

    def inc(self, amount: float = 1.0) -> None:
        self.labels().inc(amount)

    def dec(self, amount: float = 1.0) -> None:
        self.labels().dec(amount)

    def set(self, value: float) -> None:
        self.labels().set(value)

    def observe(self, value: float) -> None:
        self.labels().observe(value)

    # -- snapshot ---------------------------------------------------------- #

    def collect(self, constant_labels: dict) -> dict:
        """This family's snapshot entry (samples sorted by labels)."""
        with self._lock:
            children = sorted(self._children.items())
        samples = []
        for key, child in children:
            labels = dict(constant_labels)
            labels.update(zip(self.label_names, key))
            if self.kind == HISTOGRAM:
                counts, total, count = child.snapshot()
                samples.append(
                    {
                        "labels": labels,
                        "le": bucket_bounds(self.lowest, self.buckets),
                        "buckets": counts,
                        "sum": total,
                        "count": count,
                    }
                )
            else:
                samples.append({"labels": labels, "value": child.value})
        return {"type": self.kind, "help": self.help, "samples": samples}

    def reset(self) -> None:
        """Zero every child in place (handles stay valid and cached)."""
        with self._lock:
            children = list(self._children.values())
        for child in children:
            child.reset()


class MetricsRegistry:
    """Thread-safe get-or-create home for one process's metric families.

    ``constant_labels`` (typically ``{"node": name}``) are stamped onto
    every sample at snapshot time, so merged cluster views stay
    per-origin disaggregatable.
    """

    def __init__(self, constant_labels: Optional[dict] = None):
        self.constant_labels = dict(constant_labels or {})
        self._lock = threading.Lock()
        self._families: dict[str, MetricFamily] = {}
        self._collectors: list[Callable[[], dict]] = []

    # -- family construction ---------------------------------------------- #

    def _family(
        self,
        name: str,
        kind: str,
        help: str,
        label_names: Sequence[str],
        lowest: float = DEFAULT_LOWEST,
        buckets: int = DEFAULT_BUCKETS,
    ) -> MetricFamily:
        label_names = tuple(label_names)
        with self._lock:
            family = self._families.get(name)
            if family is not None:
                if family.kind != kind or family.label_names != label_names:
                    raise TelemetryError(
                        f"metric {name} already registered as {family.kind}"
                        f"{family.label_names}, not {kind}{label_names}"
                    )
                if kind == HISTOGRAM and (
                    family.lowest != lowest or family.buckets != buckets
                ):
                    raise TelemetryError(
                        f"histogram {name} already registered with a "
                        "different bucket layout"
                    )
                return family
            family = MetricFamily(name, kind, help, label_names, lowest, buckets)
            self._families[name] = family
            return family

    def counter(self, name: str, help: str = "", labels: Sequence[str] = ()) -> MetricFamily:
        return self._family(name, COUNTER, help, labels)

    def gauge(self, name: str, help: str = "", labels: Sequence[str] = ()) -> MetricFamily:
        return self._family(name, GAUGE, help, labels)

    def histogram(
        self,
        name: str,
        help: str = "",
        labels: Sequence[str] = (),
        lowest: float = DEFAULT_LOWEST,
        buckets: int = DEFAULT_BUCKETS,
    ) -> MetricFamily:
        return self._family(name, HISTOGRAM, help, labels, lowest, buckets)

    # -- scrape-time collectors -------------------------------------------- #

    def register_collector(self, fn: Callable[[], dict]) -> None:
        """``fn()`` returns a snapshot fragment read fresh per scrape —
        how pre-existing counters (TaintMapStats, CrossingTrace) join
        the registry without double-accounting."""
        with self._lock:
            if fn not in self._collectors:
                self._collectors.append(fn)

    def unregister_collector(self, fn: Callable[[], dict]) -> None:
        with self._lock:
            if fn in self._collectors:
                self._collectors.remove(fn)

    # -- snapshot / exposition --------------------------------------------- #

    def snapshot(self) -> dict:
        """JSON-serializable state of every family + collector."""
        with self._lock:
            families = sorted(self._families.items())
            collectors = list(self._collectors)
        out: dict = {}
        for name, family in families:
            out[name] = family.collect(self.constant_labels)
        for collector in collectors:
            fragment = collector()
            _stamp_labels(fragment, self.constant_labels)
            _merge_into(out, fragment)
        return out

    def exposition(self) -> str:
        return render_exposition(self.snapshot())

    def reset(self) -> None:
        """Zero every registered family in place.

        Handles held by hot paths stay valid (children are reset, not
        replaced).  Scrape-time collectors are *not* reset — they read
        external state the registry does not own; use
        :func:`diff_snapshots` to delta over them instead.
        """
        with self._lock:
            families = list(self._families.values())
        for family in families:
            family.reset()


# --------------------------------------------------------------------- #
# Snapshot algebra (merging, quantiles, rendering)
# --------------------------------------------------------------------- #


def _stamp_labels(fragment: dict, constant_labels: dict) -> None:
    if not constant_labels:
        return
    for entry in fragment.values():
        for sample in entry["samples"]:
            merged = dict(constant_labels)
            merged.update(sample["labels"])
            sample["labels"] = merged


def _label_key(labels: dict) -> tuple:
    return tuple(sorted(labels.items()))


def _merge_into(target: dict, fragment: dict) -> None:
    """Fold ``fragment`` into ``target``, summing same-name/label series."""
    for name, entry in fragment.items():
        existing = target.get(name)
        if existing is None:
            target[name] = {
                "type": entry["type"],
                "help": entry.get("help", ""),
                "samples": [dict(s) for s in entry["samples"]],
            }
            continue
        if existing["type"] != entry["type"]:
            raise TelemetryError(
                f"cannot merge {name}: {existing['type']} vs {entry['type']}"
            )
        by_labels = {_label_key(s["labels"]): s for s in existing["samples"]}
        for sample in entry["samples"]:
            current = by_labels.get(_label_key(sample["labels"]))
            if current is None:
                copied = dict(sample)
                existing["samples"].append(copied)
                by_labels[_label_key(copied["labels"])] = copied
            elif entry["type"] == HISTOGRAM:
                if current["le"] != sample["le"]:
                    raise TelemetryError(
                        f"cannot merge {name}: bucket layouts differ"
                    )
                current["buckets"] = [
                    a + b for a, b in zip(current["buckets"], sample["buckets"])
                ]
                current["sum"] += sample["sum"]
                current["count"] += sample["count"]
            else:
                current["value"] += sample["value"]
        existing["samples"].sort(key=lambda s: _label_key(s["labels"]))


def merge_snapshots(*snapshots: dict) -> dict:
    """One cluster-wide snapshot: same-name series sum across registries."""
    out: dict = {}
    for snapshot in snapshots:
        _merge_into(out, snapshot)
    return out


def diff_snapshots(after: dict, before: dict) -> dict:
    """The delta ``after - before`` of two snapshots of the same source.

    Counters and histograms subtract per label key (clamped at zero, so
    an in-between :meth:`MetricsRegistry.reset` degrades to "count from
    the reset" instead of going negative); gauges keep their ``after``
    value — an instantaneous reading has no meaningful difference.
    Series present only in ``after`` pass through unchanged; series only
    in ``before`` are dropped.  This is how profiling code isolates one
    run's activity on a registry it shares with setup work or earlier
    runs (the metric-bleed fix).
    """
    out: dict = {}
    for name, entry in after.items():
        previous = before.get(name)
        if previous is None or entry["type"] == GAUGE:
            out[name] = {
                "type": entry["type"],
                "help": entry.get("help", ""),
                "samples": [dict(s) for s in entry["samples"]],
            }
            continue
        if previous["type"] != entry["type"]:
            raise TelemetryError(
                f"cannot diff {name}: {previous['type']} vs {entry['type']}"
            )
        by_labels = {_label_key(s["labels"]): s for s in previous["samples"]}
        samples = []
        for sample in entry["samples"]:
            base = by_labels.get(_label_key(sample["labels"]))
            if base is None:
                samples.append(dict(sample))
            elif entry["type"] == HISTOGRAM:
                if base["le"] != sample["le"]:
                    raise TelemetryError(f"cannot diff {name}: bucket layouts differ")
                samples.append(
                    {
                        "labels": dict(sample["labels"]),
                        "le": list(sample["le"]),
                        "buckets": [
                            max(0, a - b)
                            for a, b in zip(sample["buckets"], base["buckets"])
                        ],
                        "sum": max(0.0, sample["sum"] - base["sum"]),
                        "count": max(0, sample["count"] - base["count"]),
                    }
                )
            else:
                samples.append(
                    {
                        "labels": dict(sample["labels"]),
                        "value": max(0.0, sample["value"] - base["value"]),
                    }
                )
        out[name] = {"type": entry["type"], "help": entry.get("help", ""), "samples": samples}
    return out


def _matches(sample: dict, labels: Optional[dict]) -> bool:
    if not labels:
        return True
    return all(sample["labels"].get(k) == str(v) for k, v in labels.items())


def snapshot_total(snapshot: dict, name: str, labels: Optional[dict] = None) -> float:
    """Sum of matching series (histograms contribute their counts)."""
    entry = snapshot.get(name)
    if entry is None:
        return 0.0
    if entry["type"] == HISTOGRAM:
        return float(
            sum(s["count"] for s in entry["samples"] if _matches(s, labels))
        )
    return float(sum(s["value"] for s in entry["samples"] if _matches(s, labels)))


def snapshot_quantile(
    snapshot: dict, name: str, q: float, labels: Optional[dict] = None
) -> Optional[float]:
    """Quantile estimate over the merged buckets of a histogram family.

    Returns the upper bound of the first bucket whose cumulative count
    reaches ``q`` of the total (the conservative estimate log-bucketed
    histograms support); ``None`` with no samples, ``inf`` if the mass
    sits in the overflow bucket.
    """
    if not 0.0 <= q <= 1.0:
        raise TelemetryError(f"quantile must be in [0, 1], got {q}")
    entry = snapshot.get(name)
    if entry is None or entry["type"] != HISTOGRAM:
        return None
    counts: Optional[list] = None
    bounds: Optional[list] = None
    for sample in entry["samples"]:
        if not _matches(sample, labels):
            continue
        if counts is None:
            counts = list(sample["buckets"])
            bounds = sample["le"]
        else:
            if sample["le"] != bounds:
                raise TelemetryError(f"{name}: bucket layouts differ across series")
            counts = [a + b for a, b in zip(counts, sample["buckets"])]
    if counts is None:
        return None
    total = sum(counts)
    if total == 0:
        return None
    threshold = q * total
    cumulative = 0
    for bound, count in zip(bounds, counts):
        cumulative += count
        if cumulative >= threshold:
            return math.inf if bound is None else bound
    return math.inf


# -- Prometheus text rendering ------------------------------------------ #


def _escape_help(text: str) -> str:
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _format_value(value) -> str:
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    number = float(value)
    if number.is_integer() and abs(number) < 1e15:
        return str(int(number))
    return repr(number)


def _format_labels(labels: dict) -> str:
    if not labels:
        return ""
    body = ",".join(
        f'{name}="{_escape_label(str(value))}"'
        for name, value in sorted(labels.items())
    )
    return "{" + body + "}"


def render_exposition(snapshot: dict) -> str:
    """Prometheus text exposition format (version 0.0.4) of a snapshot."""
    lines: list[str] = []
    for name in sorted(snapshot):
        entry = snapshot[name]
        if entry.get("help"):
            lines.append(f"# HELP {name} {_escape_help(entry['help'])}")
        lines.append(f"# TYPE {name} {entry['type']}")
        for sample in entry["samples"]:
            labels = sample["labels"]
            if entry["type"] == HISTOGRAM:
                cumulative = 0
                for bound, count in zip(sample["le"], sample["buckets"]):
                    cumulative += count
                    le = "+Inf" if bound is None else _format_value(bound)
                    bucket_labels = dict(labels)
                    bucket_labels["le"] = le
                    lines.append(
                        f"{name}_bucket{_format_labels(bucket_labels)} {cumulative}"
                    )
                lines.append(
                    f"{name}_sum{_format_labels(labels)} "
                    f"{_format_value(sample['sum'])}"
                )
                lines.append(
                    f"{name}_count{_format_labels(labels)} {sample['count']}"
                )
            else:
                lines.append(
                    f"{name}{_format_labels(labels)} "
                    f"{_format_value(sample['value'])}"
                )
    return "\n".join(lines) + "\n"
