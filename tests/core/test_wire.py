"""Unit + property tests for DisTA's wire formats."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import wire
from repro.errors import WireFormatError
from repro.taint import LocalId, TBytes, TaintTree


@pytest.fixture()
def tree():
    return TaintTree(LocalId("10.0.0.1", 1))


def make_gid_table(tree, names):
    """A deterministic taint↔gid mapping for codec tests (no Taint Map)."""
    taints = {name: tree.taint_for_tag(name) for name in names}
    gid_of = {None: 0}
    taint_of = {0: None}
    for i, (name, taint) in enumerate(sorted(taints.items()), start=1):
        gid_of[taint] = i
        taint_of[i] = taint
    return taints, (lambda t: gid_of[t]), (lambda g: taint_of[g])


class TestCells:
    def test_wire_is_exactly_5x(self, tree):
        _, gid_for, _ = make_gid_table(tree, ["a"])
        cells = wire.encode_cells(TBytes(b"12345678"), gid_for)
        assert len(cells) == 40
        assert wire.wire_length(8) == 40
        assert wire.max_data_for_wire(40) == 8

    def test_roundtrip_single_feed(self, tree):
        taints, gid_for, taint_for = make_gid_table(tree, ["a", "b"])
        data = TBytes.tainted(b"aa", taints["a"]) + TBytes.tainted(b"b", taints["b"])
        cells = wire.encode_cells(data, gid_for)
        out = wire.CellDecoder().feed(cells, taint_for)
        assert out.data == b"aab"
        assert out.label_at(0) is taints["a"]
        assert out.label_at(2) is taints["b"]

    def test_untainted_bytes_use_gid_zero(self, tree):
        _, gid_for, taint_for = make_gid_table(tree, [])
        cells = wire.encode_cells(TBytes(b"xy"), gid_for)
        assert cells[1:5] == b"\x00\x00\x00\x00"
        out = wire.CellDecoder().feed(cells, taint_for)
        assert out.overall_taint() is None

    def test_partial_cell_is_buffered(self, tree):
        taints, gid_for, taint_for = make_gid_table(tree, ["a"])
        cells = wire.encode_cells(TBytes.tainted(b"zz", taints["a"]), gid_for)
        decoder = wire.CellDecoder()
        assert decoder.feed(cells[:3], taint_for) == TBytes.empty()
        assert decoder.residue_len == 3
        out = decoder.feed(cells[3:], taint_for)
        assert out.data == b"zz"
        assert decoder.residue_len == 0

    def test_eof_mid_cell_raises(self, tree):
        _, gid_for, taint_for = make_gid_table(tree, [])
        decoder = wire.CellDecoder()
        decoder.feed(b"\x01\x00", taint_for)
        with pytest.raises(WireFormatError):
            decoder.check_clean_eof()

    def test_clean_eof_ok(self):
        wire.CellDecoder().check_clean_eof()

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.tuples(st.binary(min_size=1, max_size=24), st.sampled_from(["a", "b", "c"])),
            min_size=1,
            max_size=5,
        ),
        st.lists(st.integers(min_value=1, max_value=23), min_size=1, max_size=8),
    )
    def test_roundtrip_arbitrary_split_points(self, parts, cut_sizes):
        """Decoding must be invariant to how the kernel chunks the stream."""
        tree = TaintTree(LocalId("10.0.0.9", 9))
        taints, gid_for, taint_for = make_gid_table(tree, ["a", "b", "c"])
        data = TBytes.empty()
        for raw, name in parts:
            data = data + TBytes.tainted(raw, taints[name])
        cells = wire.encode_cells(data, gid_for)
        decoder = wire.CellDecoder()
        out = TBytes.empty()
        position = 0
        cut_index = 0
        while position < len(cells):
            step = cut_sizes[cut_index % len(cut_sizes)]
            cut_index += 1
            out = out + decoder.feed(cells[position : position + step], taint_for)
            position += step
        assert out.data == data.data
        for i in range(len(data)):
            assert out.label_at(i) is data.label_at(i)
        decoder.check_clean_eof()


class TestPacketEnvelope:
    def test_roundtrip(self, tree):
        taints, gid_for, taint_for = make_gid_table(tree, ["u"])
        payload = TBytes.tainted(b"datagram", taints["u"])
        envelope = wire.encode_packet(payload, gid_for)
        assert wire.is_enveloped(envelope)
        assert len(envelope) == wire.envelope_length(8)
        out = wire.decode_packet(envelope, taint_for)
        assert out.data == b"datagram"
        assert out.overall_taint() is taints["u"]

    def test_plain_payload_not_enveloped(self):
        assert not wire.is_enveloped(b"plain data")

    def test_truncated_envelope_raises(self, tree):
        _, gid_for, taint_for = make_gid_table(tree, [])
        envelope = wire.encode_packet(TBytes(b"abcdef"), gid_for)
        with pytest.raises(WireFormatError, match="truncated"):
            wire.decode_packet(envelope[:-3], taint_for)

    @pytest.mark.parametrize(
        "length", range(len(wire.PACKET_MAGIC), wire.PACKET_HEADER)
    )
    def test_truncated_header_raises(self, tree, length):
        """A datagram that opens with the magic but is shorter than the
        header is a malformed envelope, not an IndexError or struct.error."""
        _, gid_for, taint_for = make_gid_table(tree, [])
        envelope = wire.encode_packet(TBytes(b"abcdef"), gid_for)
        with pytest.raises(WireFormatError, match="truncated"):
            wire.decode_packet(envelope[:length], taint_for)

    def test_bad_version_raises(self, tree):
        _, gid_for, taint_for = make_gid_table(tree, [])
        envelope = bytearray(wire.encode_packet(TBytes(b"a"), gid_for))
        envelope[2] = 99
        with pytest.raises(WireFormatError, match="version"):
            wire.decode_packet(bytes(envelope), taint_for)

    def test_empty_payload(self, tree):
        _, gid_for, taint_for = make_gid_table(tree, [])
        envelope = wire.encode_packet(TBytes.empty(), gid_for)
        assert wire.decode_packet(envelope, taint_for) == TBytes.empty()

    @settings(max_examples=30, deadline=None)
    @given(st.binary(max_size=64), st.sampled_from(["a", "b"]))
    def test_envelope_roundtrip_property(self, raw, name):
        tree = TaintTree(LocalId("10.0.0.8", 8))
        taints, gid_for, taint_for = make_gid_table(tree, ["a", "b"])
        payload = TBytes.tainted(raw, taints[name])
        out = wire.decode_packet(wire.encode_packet(payload, gid_for), taint_for)
        assert out.data == raw
        if raw:
            assert out.overall_taint() is taints[name]
