"""Static flow sampling at source registration.

``sample_every`` = k admits every k-th matching source firing through a
plain per-registry counter — no clocks, no randomness — so the admitted
flow set is a pure function of firing order: identical on every run,
every transport, every machine.
"""

import pytest

from repro.taint import LocalId, SourceSinkRegistry, TaintTree
from repro.taint.values import taint_of

SRC = "java.io.FileInputStream#read"


def make_registry(sample_every=1, source_fraction=1.0):
    tree = TaintTree(LocalId("10.0.0.1", 1))
    registry = SourceSinkRegistry(tree, node_name="n1")
    registry.add_source(SRC)
    registry.sample_every = sample_every
    registry.source_fraction = source_fraction
    return registry


def fire(registry, count):
    """``count`` source firings; returns which indices came back tainted."""
    tainted = []
    for index in range(count):
        value = registry.source(SRC, 100 + index)
        if taint_of(value) is not None:
            tainted.append(index)
    return tainted


class TestFlowSampling:
    def test_sampling_off_admits_everything(self):
        registry = make_registry(sample_every=1)
        assert fire(registry, 5) == [0, 1, 2, 3, 4]
        # With sampling off the admission check is skipped entirely.
        assert registry.admitted == 0
        assert registry.sampled_out == 0

    def test_every_kth_firing_is_admitted(self):
        registry = make_registry(sample_every=3)
        assert fire(registry, 9) == [0, 3, 6]
        assert registry.admitted == 3
        assert registry.sampled_out == 6
        assert len(registry.source_events) == 3

    def test_sampled_out_value_is_returned_unmodified(self):
        """A sampled-out flow is reported as untainted, not an error:
        the caller gets its value back exactly as passed."""
        registry = make_registry(sample_every=2)
        registry.source(SRC, 1)  # admitted
        value = registry.source(SRC, 42)  # sampled out
        assert value == 42
        assert type(value) is int

    def test_admission_is_deterministic_across_registries(self):
        first = make_registry(sample_every=4)
        second = make_registry(sample_every=4)
        assert fire(first, 20) == fire(second, 20)

    def test_sampling_composes_with_source_fraction(self):
        """Fraction gating applies to the *admitted* stream: k=2 and
        fraction=0.5 taints a quarter of the firings."""
        registry = make_registry(sample_every=2, source_fraction=0.5)
        tainted = fire(registry, 16)
        assert registry.admitted == 8
        assert len(tainted) == 4

    def test_non_source_descriptors_bypass_sampling(self):
        registry = make_registry(sample_every=2)
        registry.source("Some#other", 7)
        assert registry.admitted == 0
        assert registry.sampled_out == 0

    def test_sampled_out_flows_generate_no_tags(self):
        """A sampled-out flow never touches the taint tree — no tag, no
        GID, nothing for the resolver or the Taint Map downstream."""
        registry = make_registry(sample_every=5)
        fire(registry, 10)
        assert len(registry.source_events) == registry.admitted == 2
