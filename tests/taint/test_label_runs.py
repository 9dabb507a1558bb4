"""Property tests: LabelRuns is observably a per-byte label list.

Every operation (slice, concat, union, splice, lookup) must agree with
the corresponding plain-list computation — the run-length encoding is a
pure representation change, invisible to taint semantics.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.taint.tags import LocalId
from repro.taint.tree import TaintTree
from repro.taint.values import LabelRuns, union_labels

_TREE = TaintTree(LocalId("10.0.0.9", 9))
_POOL = [None] + [_TREE.taint_for_tag(f"p{i}") for i in range(3)]

labels_lists = st.lists(st.sampled_from(_POOL), min_size=0, max_size=24)


@settings(max_examples=200)
@given(labels_lists)
def test_roundtrip_from_list_to_list(labels):
    runs = LabelRuns.from_list(labels)
    assert runs.to_list() == labels
    assert len(runs) == len(labels)
    assert runs == labels
    assert list(runs) == labels


@settings(max_examples=200)
@given(labels_lists, st.integers(0, 24), st.integers(0, 24))
def test_slice_matches_list_slice(labels, a, b):
    runs = LabelRuns.from_list(labels)
    assert runs.slice(a, b).to_list() == labels[a:b]
    assert runs[a:b].to_list() == labels[a:b]


@settings(max_examples=200)
@given(labels_lists)
def test_point_lookup_matches_list_index(labels):
    runs = LabelRuns.from_list(labels)
    for i, expected in enumerate(labels):
        assert runs.label_at(i) is expected
        assert runs[i] is expected


@settings(max_examples=200)
@given(labels_lists, labels_lists)
def test_concat_matches_list_concat(left, right):
    combined = LabelRuns.from_list(left).concat(LabelRuns.from_list(right))
    assert combined.to_list() == left + right
    assert combined.length == len(left) + len(right)


@settings(max_examples=200)
@given(labels_lists, st.sampled_from(_POOL))
def test_union_matches_per_byte_union(labels, taint):
    unioned = LabelRuns.from_list(labels).union_taint(taint)
    assert unioned.to_list() == [union_labels(label, taint) for label in labels]


#: Untainted bases reach the splice-into-an-empty-shadow path.
untainted_lists = st.lists(st.none(), min_size=0, max_size=24)


@settings(max_examples=200)
@given(st.one_of(labels_lists, untainted_lists), labels_lists, st.integers(0, 24))
def test_splice_matches_list_splice(base, patch, at):
    start = min(at, len(base))
    stop = min(start + len(patch), len(base))
    patch = patch[: stop - start]
    expected = list(base)
    expected[start:stop] = patch
    runs = LabelRuns.from_list(base)
    patch_runs = LabelRuns.from_list(patch)
    runs[start:stop] = patch_runs
    assert runs.to_list() == expected
    assert runs == LabelRuns.from_list(expected)
    # Splicing over the result again must not write through to the patch.
    runs[start:stop] = LabelRuns.filled(stop - start, _POOL[1])
    assert patch_runs.to_list() == patch


@settings(max_examples=100)
@given(labels_lists)
def test_run_count_is_minimal(labels):
    """Adjacent equal labels always merge; None never stores a run."""
    runs = LabelRuns.from_list(labels)
    minimal = 0
    prev = None
    for label in labels:
        if label is not None and label is not prev:
            minimal += 1
        prev = label
    assert runs.run_count == minimal


@settings(max_examples=100)
@given(labels_lists)
def test_overall_matches_union_of_all(labels):
    runs = LabelRuns.from_list(labels)
    expected = None
    for label in labels:
        expected = union_labels(expected, label)
    assert runs.overall() is expected or runs.overall() == expected


def test_invalid_runs_rejected():
    t = _TREE.taint_for_tag("bad")
    with pytest.raises(ValueError):
        LabelRuns(-1)
    with pytest.raises(ValueError):
        LabelRuns(10, [(0, 5, t), (3, 8, t)])  # overlap
    with pytest.raises(ValueError):
        LabelRuns(10, [(5, 8, t), (0, 3, t)])  # unsorted
    # Inverted or out-of-range runs clip to nothing rather than raise.
    assert LabelRuns(10, [(4, 2, t)]).run_count == 0
    assert LabelRuns(3, [(5, 9, t)]).run_count == 0


def test_single_run_is_constant_space():
    t = _TREE.taint_for_tag("big")
    runs = LabelRuns.filled(1 << 20, t)
    assert runs.run_count == 1
    assert runs.label_at(0) is t
    assert runs.label_at((1 << 20) - 1) is t
    assert runs.slice(12345, 99999).run_count == 1
