"""The metric catalog in ``docs/OBSERVABILITY.md`` against what the code
really emits: one tainted SIM workload in DISTA mode under each coalescing
policy must emit only catalogued ``dista_*`` families, and every
catalogued family it does not emit must be a known feature-gated one."""

import re
from pathlib import Path

import pytest

from repro.core.agent import COALESCE_WINDOW_ENV
from repro.runtime.modes import Mode
from repro.systems.activemq import workload
from repro.systems.common import SIM
from tests.obs import COALESCE_WINDOWS

CATALOG = Path(__file__).resolve().parents[2] / "docs" / "OBSERVABILITY.md"

#: Families that exist only when their feature is switched on: flow
#: lineage and the crossing trace.
FEATURE_GATED = frozenset(
    {
        "dista_lineage_flows_completed_total",
        "dista_lineage_flows_evicted_total",
        "dista_lineage_flows_open",
        "dista_lineage_hop_seconds",
        "dista_lineage_tree_depth",
        "dista_trace_crossings",
        "dista_trace_dropped_total",
    }
)


def _catalog_rows() -> set:
    return set(re.findall(r"^\| `(dista_[a-z_]+)` \|", CATALOG.read_text(), re.M))


def test_feature_gated_families_are_catalogued():
    assert FEATURE_GATED <= _catalog_rows()


@pytest.mark.parametrize("policy", COALESCE_WINDOWS)
def test_emitted_families_match_the_catalog(policy, monkeypatch):
    window = COALESCE_WINDOWS[policy]
    if window is None:
        monkeypatch.delenv(COALESCE_WINDOW_ENV, raising=False)
    else:
        monkeypatch.setenv(COALESCE_WINDOW_ENV, str(window))
    result = workload.run_workload(Mode.DISTA, SIM, source_fraction=1.0)
    assert result.global_taints > 0  # the tainted path really ran
    emitted = {name for name in result.telemetry if name.startswith("dista_")}
    rows = _catalog_rows()
    assert emitted - rows == set(), "emitted but not in docs/OBSERVABILITY.md"
    assert rows - emitted == FEATURE_GATED
