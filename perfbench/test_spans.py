"""Span arithmetic: self times on each thread add up to the outer span."""

import math
import threading
import time

from spans import LAYER_HOOKS, LayerPatch, Tracer, _owner


def _close(a, b):
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-12)


def _nested_calls(tracer, prefix, pause):
    """outer -> (inner -> leaf) twice, with work at every level."""
    leaf = tracer.wrap(f"{prefix}.leaf", lambda: time.sleep(pause))

    def inner_body():
        time.sleep(pause)
        leaf()

    inner = tracer.wrap(f"{prefix}.inner", inner_body)

    def outer_body():
        time.sleep(pause)
        inner()
        inner()

    return tracer.wrap(f"{prefix}.outer", outer_body)


def test_nested_self_times_sum_to_parent_duration():
    tracer = Tracer()
    _nested_calls(tracer, "t", 0.002)()
    ledger = tracer.buckets[None]
    parts = sum(ledger.self_s[f"t.{name}"] for name in ("outer", "inner", "leaf"))
    assert _close(parts, ledger.total_s["t.outer"])
    assert ledger.calls == {"t.outer": 1, "t.inner": 2, "t.leaf": 2}
    # Each level's self time is its own sleep, not its children's.
    assert ledger.self_s["t.outer"] < ledger.total_s["t.outer"] / 2
    assert ledger.self_s["t.leaf"] >= 2 * 0.002


def test_concurrent_threads_keep_separate_stacks():
    tracer = Tracer()
    barrier = threading.Barrier(4)

    def worker(prefix):
        barrier.wait(timeout=5)
        _nested_calls(tracer, prefix, 0.003)()

    threads = [threading.Thread(target=worker, args=(f"w{i}",)) for i in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=10)
        assert not thread.is_alive()
    ledger = tracer.buckets[None]
    for i in range(4):
        prefix = f"w{i}"
        parts = sum(ledger.self_s[f"{prefix}.{n}"] for n in ("outer", "inner", "leaf"))
        assert _close(parts, ledger.total_s[f"{prefix}.outer"])
        # Overlapping threads never charge each other: every thread's
        # outer span lasted about its own five sleeps.
        assert ledger.total_s[f"{prefix}.outer"] < 5 * 0.003 + 0.5


def test_reentered_name_is_one_call_and_charged_once():
    tracer = Tracer()

    def body(depth):
        time.sleep(0.001)
        if depth:
            recurse(depth - 1)

    recurse = tracer.wrap("layer", body)
    recurse(3)
    ledger = tracer.buckets[None]
    assert ledger.calls["layer"] == 1
    assert _close(ledger.self_s["layer"], ledger.total_s["layer"])


def test_spans_close_into_the_selected_bucket():
    tracer = Tracer()
    span = tracer.wrap("x", lambda: None)
    tracer.select("a")
    span()
    tracer.select("b")
    span()
    span()
    assert tracer.buckets["a"].calls["x"] == 1
    assert tracer.buckets["b"].calls["x"] == 2


def test_layer_patch_restores_every_original():
    originals = [
        (owner, attr, owner.__dict__[attr])
        for owner, attr in {(_owner(t), a) for t, a, _ in LAYER_HOOKS}
    ]
    patch = LayerPatch(Tracer())
    assert all(owner.__dict__[attr] is not fn for owner, attr, fn in originals)
    patch.remove()
    assert all(owner.__dict__[attr] is fn for owner, attr, fn in originals)
