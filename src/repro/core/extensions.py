"""User extensions for system-specific native communication (paper §VI).

    "distributed system developers can design their own native
    communication libraries and corresponding JNI methods … To support
    these methods, users can follow the three instrumentation ways and
    extend our instrumentation interfaces to instrument them."

This module is that interface.  A custom native method registers itself
on the per-JVM :class:`~repro.jre.jni.JniTable` (so it exists whether or
not DisTA is attached), and an :class:`ExtensionPoint` tells the agent
which of the three wrapper types to apply:

* ``STREAM`` — the method moves a byte stream over a TCP-like fd
  (wrapped like ``socketRead0``/``socketWrite0``);
* ``PACKET`` — the method moves whole datagrams (wrapped like
  ``send``/``receive0``);
* custom — supply your own wrapper factory, receiving the
  :class:`~repro.core.wrappers.DisTARuntime`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Optional

from repro.core import wire
from repro.core.wrappers import DisTARuntime, _check_envelope_fits
from repro.errors import InstrumentationError
from repro.taint.values import TByteArray, TBytes


class WrapperType(enum.Enum):
    """Which of the paper's three instrumentation ways to apply."""

    STREAM = 1
    PACKET = 2
    CUSTOM = 3


@dataclass(frozen=True)
class ExtensionPoint:
    """One user-registered native method and how to instrument it.

    ``direction`` is ``"send"`` or ``"receive"``; for ``CUSTOM`` wrapper
    types, ``factory(runtime)`` must return the usual
    ``wrapper(original) -> patched`` callable.
    """

    name: str
    wrapper_type: WrapperType
    direction: str = "send"
    factory: Optional[Callable[[DisTARuntime], Callable]] = None

    def build(self, runtime: DisTARuntime) -> Callable:
        if self.wrapper_type is WrapperType.CUSTOM:
            if self.factory is None:
                raise InstrumentationError(
                    f"extension {self.name}: CUSTOM type requires a factory"
                )
            return self.factory(runtime)
        if self.wrapper_type is WrapperType.STREAM:
            return (
                _make_stream_send(runtime)
                if self.direction == "send"
                else _make_stream_receive(runtime)
            )
        return (
            _make_packet_send(runtime)
            if self.direction == "send"
            else _make_packet_receive(runtime)
        )


def _make_stream_send(runtime: DisTARuntime):
    """Type-1 sender: data+taints → cell stream → original method."""

    def wrapper(original):
        def patched(fd, data: TBytes, *args, **kwargs):
            cells = wire.encode_cells(runtime.outgoing(data), runtime.resolver)
            return original(fd, TBytes.raw(cells), *args, **kwargs)

        return patched

    return wrapper


def _make_stream_receive(runtime: DisTARuntime):
    """Type-1 receiver: original → enlarged read → split data/taints.

    The original must follow the ``socketRead0`` contract:
    ``original(fd, buf, offset, length) -> count | EOF``.
    """
    from repro.jre.jni import EOF

    def wrapper(original):
        def patched(fd, buf: TByteArray, offset: int, length: int, *args, **kwargs):
            length = min(length, len(buf) - offset)
            decoder = runtime.decoder_for(fd)
            staging = TByteArray.raw(wire.wire_length(length))
            while True:
                count = original(fd, staging, 0, len(staging), *args, **kwargs)
                if count == EOF:
                    decoder.check_clean_eof()
                    return EOF
                decoded = decoder.feed(staging.data[:count], runtime.resolver)
                if decoded:
                    buf.write(offset, decoded)
                    return len(decoded)

        return patched

    return wrapper


def _make_packet_send(runtime: DisTARuntime):
    """Type-2 sender: ``original(fd, data, destination)`` with whole
    datagrams; the payload is enveloped."""

    def wrapper(original):
        def patched(fd, data: TBytes, destination, *args, **kwargs):
            payload = runtime.outgoing(data)
            _check_envelope_fits(len(payload))
            envelope = wire.encode_packet(payload, runtime.resolver)
            return original(fd, TBytes.raw(envelope), destination, *args, **kwargs)

        return patched

    return wrapper


def _make_packet_receive(runtime: DisTARuntime):
    """Type-2 receiver: ``original(fd) -> (data, source)``."""

    def wrapper(original):
        def patched(fd, *args, **kwargs):
            data, source = original(fd, *args, **kwargs)
            raw = data if isinstance(data, TBytes) else TBytes.raw(bytes(data))
            if wire.is_enveloped(raw.data):
                return wire.decode_packet(raw.data, runtime.resolver), source
            return TBytes(raw.data), source

        return patched

    return wrapper
