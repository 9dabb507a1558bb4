"""Snapshot algebra: reset and deltas (the metric-bleed fix).

A workload's telemetry must describe *that workload*, not whatever the
registry accumulated during setup or earlier runs on the same process.
The profiler isolates runs with ``diff_snapshots(after, before)``;
``MetricsRegistry.reset`` zeroes families in place without invalidating
hot-path handles.
"""

import pytest

from repro.obs.registry import (
    MetricsRegistry,
    TelemetryError,
    diff_snapshots,
    merge_snapshots,
    render_exposition,
    snapshot_quantile,
    snapshot_total,
)


def loaded_registry():
    registry = MetricsRegistry()
    counter = registry.counter("requests_total", "", ("route",))
    counter.labels(route="a").inc(10)
    counter.labels(route="b").inc(4)
    registry.gauge("depth", "").set(7)
    histogram = registry.histogram("latency_us", "")
    for value in (1.0, 2.0, 500.0):
        histogram.observe(value)
    return registry


class TestReset:
    def test_reset_zeroes_but_keeps_handles_valid(self):
        registry = loaded_registry()
        handle = registry.counter("requests_total", "", ("route",)).labels(route="a")
        registry.reset()
        assert snapshot_total(registry.snapshot(), "requests_total") == 0
        assert snapshot_total(registry.snapshot(), "latency_us") == 0
        # The pre-reset child still feeds the same series.
        handle.inc(3)
        assert (
            snapshot_total(registry.snapshot(), "requests_total", {"route": "a"}) == 3
        )

    def test_reset_leaves_collectors_alone(self):
        registry = MetricsRegistry()
        registry.register_collector(
            lambda: {
                "external_total": {
                    "type": "counter",
                    "help": "",
                    "samples": [{"labels": {}, "value": 5.0}],
                }
            }
        )
        registry.reset()
        # Collectors read external state the registry does not own.
        assert snapshot_total(registry.snapshot(), "external_total") == 5.0


class TestDiffSnapshots:
    def test_counters_and_histograms_subtract(self):
        registry = loaded_registry()
        before = registry.snapshot()
        registry.counter("requests_total", "", ("route",)).labels(route="a").inc(5)
        registry.histogram("latency_us", "").observe(3.0)
        delta = diff_snapshots(registry.snapshot(), before)
        assert snapshot_total(delta, "requests_total", {"route": "a"}) == 5
        assert snapshot_total(delta, "requests_total", {"route": "b"}) == 0
        assert snapshot_total(delta, "latency_us") == 1
        # The delta histogram's mass is only the new observation — the
        # 500.0 spike from the *before* window is gone.
        assert snapshot_quantile(delta, "latency_us", 0.99) < 500.0

    def test_gauges_keep_the_after_value(self):
        registry = loaded_registry()
        before = registry.snapshot()
        registry.gauge("depth", "").set(2)
        delta = diff_snapshots(registry.snapshot(), before)
        # An instantaneous reading has no meaningful difference.
        assert snapshot_total(delta, "depth") == 2

    def test_new_series_pass_through_old_ones_drop(self):
        registry = MetricsRegistry()
        registry.counter("old_total", "").inc(9)
        before = registry.snapshot()
        after = MetricsRegistry()
        after.counter("new_total", "").inc(2)
        delta = diff_snapshots(after.snapshot(), before)
        assert snapshot_total(delta, "new_total") == 2
        assert "old_total" not in delta

    def test_reset_between_snapshots_clamps_at_zero(self):
        registry = loaded_registry()
        before = registry.snapshot()
        registry.reset()
        registry.counter("requests_total", "", ("route",)).labels(route="a").inc(2)
        delta = diff_snapshots(registry.snapshot(), before)
        # Clamped at zero rather than going negative: an in-between
        # reset can hide activity but never corrupt the delta's sign.
        assert snapshot_total(delta, "requests_total", {"route": "a"}) == 0

    def test_kind_mismatch_rejected(self):
        a = MetricsRegistry()
        a.gauge("m", "").set(1)
        b = MetricsRegistry()
        b.counter("m", "").inc()
        with pytest.raises(TelemetryError):
            diff_snapshots(b.snapshot(), a.snapshot())


def _node_registry(node, latencies, route_counts):
    """One per-node registry with a histogram and a labelled counter —
    same family names everywhere, so merging exercises both the
    label-collision path (identical label sets sum) and the distinct-
    series path (per-node labels append)."""
    registry = MetricsRegistry({"node": node})
    histogram = registry.histogram("rpc_us", "")
    for value in latencies:
        histogram.observe(value)
    counter = registry.counter("requests_total", "", ("route",))
    for route, count in route_counts.items():
        counter.labels(route=route).inc(count)
    return registry


class TestMergeSnapshots:
    def _merged(self):
        registries = [
            _node_registry("n1", (1.0, 2.0), {"a": 3}),
            _node_registry("n2", (2.0, 500.0), {"a": 5, "b": 1}),
            _node_registry("n3", (0.5,), {"b": 2}),
        ]
        return merge_snapshots(*(r.snapshot() for r in registries))

    def test_overlapping_histogram_buckets_sum(self):
        merged = self._merged()
        entry = merged["rpc_us"]
        assert entry["type"] == "histogram"
        # Per-node label sets differ, so the three series stay distinct
        # with identical bucket layouts.
        assert len(entry["samples"]) == 3
        layouts = {tuple(s["le"]) for s in entry["samples"]}
        assert len(layouts) == 1
        assert snapshot_total(merged, "rpc_us") == 5
        by_node = {s["labels"]["node"]: s for s in entry["samples"]}
        assert by_node["n1"]["count"] == 2
        assert by_node["n2"]["sum"] == 502.0
        # The merged family still answers quantiles over the union.
        assert snapshot_quantile(merged, "rpc_us", 0.99) >= 500.0

    def test_histogram_collision_sums_per_bucket(self):
        a = MetricsRegistry()
        a.histogram("lat", "").observe(1.0)
        b = MetricsRegistry()
        b.histogram("lat", "").observe(1.0)
        c = MetricsRegistry()
        c.histogram("lat", "").observe(1000.0)
        merged = merge_snapshots(a.snapshot(), b.snapshot(), c.snapshot())
        (sample,) = merged["lat"]["samples"]
        assert sample["count"] == 3
        assert sample["sum"] == 1002.0
        # Colliding buckets added element-wise: two observations share
        # one bucket, the spike lands in a higher one.
        assert sorted(n for n in sample["buckets"] if n) == [1, 2]

    def test_label_collisions_across_three_registries(self):
        # Same name + same label set across three registries (none of
        # them stamping a distinguishing constant label) -> one summed
        # series, not three duplicates.
        colliding = []
        for count in (1, 2, 4):
            registry = MetricsRegistry()
            registry.counter("shared_total", "", ("route",)).labels(
                route="a"
            ).inc(count)
            colliding.append(registry)
        merged = merge_snapshots(*(r.snapshot() for r in colliding))
        assert snapshot_total(merged, "shared_total", {"route": "a"}) == 7
        assert len(merged["shared_total"]["samples"]) == 1
        # Same name, overlapping *partial* labels (route repeats, node
        # differs) -> distinct series, totals still correct.
        merged = self._merged()
        assert snapshot_total(merged, "requests_total", {"route": "a"}) == 8
        assert snapshot_total(merged, "requests_total", {"route": "b"}) == 3
        assert len(merged["requests_total"]["samples"]) == 4

    def test_merge_kind_mismatch_rejected(self):
        a = MetricsRegistry()
        a.counter("m", "").inc()
        b = MetricsRegistry()
        b.gauge("m", "").set(1)
        with pytest.raises(TelemetryError):
            merge_snapshots(a.snapshot(), b.snapshot())

    def test_diff_of_merged_snapshots_isolates_new_activity(self):
        registries = [
            _node_registry("n1", (1.0,), {"a": 1}),
            _node_registry("n2", (2.0,), {"a": 1}),
            _node_registry("n3", (), {}),
        ]
        before = merge_snapshots(*(r.snapshot() for r in registries))
        registries[0].histogram("rpc_us", "").observe(9.0)
        registries[2].counter("requests_total", "", ("route",)).labels(
            route="b"
        ).inc(4)
        after = merge_snapshots(*(r.snapshot() for r in registries))
        delta = diff_snapshots(after, before)
        assert snapshot_total(delta, "rpc_us") == 1
        assert snapshot_total(delta, "requests_total", {"route": "a"}) == 0
        assert snapshot_total(delta, "requests_total", {"route": "b"}) == 4


#: Golden fixture for the exposition escaper: label values and help
#: text carrying every character the text format requires escaping —
#: backslashes, double quotes, and literal newlines.
_HOSTILE_SNAPSHOT = {
    "weird_total": {
        "type": "counter",
        "help": 'line one\nline "two" \\ backslash',
        "samples": [
            {
                "labels": {"path": 'C:\\temp\n"quoted"'},
                "value": 3,
            }
        ],
    }
}

_HOSTILE_GOLDEN = (
    '# HELP weird_total line one\\nline "two" \\\\ backslash\n'
    "# TYPE weird_total counter\n"
    'weird_total{path="C:\\\\temp\\n\\"quoted\\""} 3\n'
)


class TestExpositionEscaping:
    def test_hostile_characters_match_golden(self):
        assert render_exposition(_HOSTILE_SNAPSHOT) == _HOSTILE_GOLDEN

    def test_escaped_output_has_no_raw_newlines_inside_lines(self):
        text = render_exposition(_HOSTILE_SNAPSHOT)
        # Every physical line is a complete exposition line: the literal
        # newline in the label value must have been escaped away.
        for line in text.strip().split("\n"):
            assert line.startswith(("#", "weird_total"))

    def test_histogram_label_escaping_round_trip(self):
        registry = MetricsRegistry({"node": 'n"1\\'})
        registry.histogram("h_us", "").observe(1.0)
        text = render_exposition(registry.snapshot())
        assert 'node="n\\"1\\\\"' in text
        # le labels coexist with the escaped constant label.
        assert 'le="+Inf"' in text


class TestWorkloadTelemetryIsolation:
    def test_back_to_back_runs_report_identical_activity(self):
        """The profiler regression: run the same SIM workload twice on
        one process — the second report must not inherit the first
        run's counts (or any attach-time setup traffic)."""
        from repro.obs.registry import snapshot_total as total
        from repro.runtime.modes import Mode
        from repro.systems.mapreduce import workload

        results = [workload.run_workload(Mode.DISTA, scenario="SIM") for _ in range(2)]
        # Split-invariant counters only: call and raw-byte counts vary
        # run-to-run with TCP read splitting and RPC coalescing (that
        # is timing, not bleed); the taint-flow totals are conserved.
        for name in (
            "dista_jni_tainted_bytes_total",
            "dista_crossings_total",
        ):
            first = total(results[0].telemetry, name)
            second = total(results[1].telemetry, name)
            assert first > 0, f"{name}: workload produced no activity"
            assert first == second, (
                f"{name}: first run reported {first}, second {second} — "
                "telemetry bled between runs"
            )
