"""Per-cycle trace capture and the TracerV-style binary bridge (§IV-C).

:class:`CycleTracer` packs the bundle's signals for every cycle of a run
recorded on a :class:`~repro.cores.base.SignalStream`.  The paper streams
dynamic signals over a Target-to-Host bridge and PCIe as raw binary; here
the :class:`TraceBridge` produces the same artifact — a framed binary
byte stream — and :class:`DmaTraceReader` is the "custom DMA driver"
that reassembles it on the host side.

Binary format (little-endian):

- stream header: magic ``ICTR``, version u16, bits-per-cycle u16, then
  the bundle layout (field count u16, then per field: name length u8,
  name bytes, width u8);
- a sequence of chunks: magic ``CHNK``, first cycle u64, cycle count
  u32, payload (cycle count × bytes-per-cycle of packed records).
"""

from __future__ import annotations

import io
import struct
from typing import Dict, Iterator, List, Optional, Tuple

from ..cores.base import SignalStream
from .bundle import TraceBundle, TraceField

_STREAM_MAGIC = b"ICTR"
_CHUNK_MAGIC = b"CHNK"
_VERSION = 1

DEFAULT_CHUNK_CYCLES = 4096


class CycleTracer:
    """The bundle's signals packed for every cycle of a recorded run."""

    def __init__(self, bundle: TraceBundle,
                 start_cycle: int = 0,
                 max_cycles: Optional[int] = None) -> None:
        self.bundle = bundle
        self.start_cycle = start_cycle
        self.max_cycles = max_cycles
        self.records: List[int] = []
        self.first_cycle: Optional[int] = None

    def record(self, stream: SignalStream) -> None:
        """Pack each cycle of *stream* from ``start_cycle`` on."""
        for cycle, signals in stream.cycles():
            if cycle < self.start_cycle:
                continue
            if self.max_cycles is not None \
                    and len(self.records) >= self.max_cycles:
                return
            if self.first_cycle is None:
                self.first_cycle = cycle
            self.records.append(self.bundle.pack(signals))

    def __len__(self) -> int:
        return len(self.records)

    def signal(self, name: str) -> List[int]:
        """The full per-cycle series of one field (as lane masks)."""
        offset, width = self.bundle.offset_of(name)
        mask = (1 << width) - 1
        return [(record >> offset) & mask for record in self.records]


class TraceBridge:
    """Target-to-host bridge: frames the tracer's records into chunks."""

    def __init__(self, bundle: TraceBundle,
                 chunk_cycles: int = DEFAULT_CHUNK_CYCLES) -> None:
        self.bundle = bundle
        self.chunk_cycles = chunk_cycles

    def _header(self) -> bytes:
        out = io.BytesIO()
        out.write(_STREAM_MAGIC)
        out.write(struct.pack("<HH", _VERSION, self.bundle.bits_per_cycle))
        out.write(struct.pack("<H", len(self.bundle.fields)))
        for field in self.bundle.fields:
            name = field.name.encode("utf-8")
            out.write(struct.pack("<B", len(name)))
            out.write(name)
            out.write(struct.pack("<B", field.width))
        return out.getvalue()

    def encode(self, tracer: CycleTracer) -> bytes:
        """Serialize a finished trace into the bridge byte stream."""
        if tracer.bundle is not self.bundle \
                and tracer.bundle.fields != self.bundle.fields:
            raise ValueError("tracer bundle does not match bridge bundle")
        out = io.BytesIO()
        out.write(self._header())
        stride = self.bundle.bytes_per_cycle
        first = tracer.first_cycle or 0
        records = tracer.records
        for start in range(0, len(records), self.chunk_cycles):
            chunk = records[start:start + self.chunk_cycles]
            out.write(_CHUNK_MAGIC)
            out.write(struct.pack("<QI", first + start, len(chunk)))
            payload = bytearray(stride * len(chunk))
            for i, record in enumerate(chunk):
                payload[i * stride:(i + 1) * stride] = record.to_bytes(
                    stride, "little")
            out.write(payload)
        return out.getvalue()


class DmaTraceReader:
    """Host-side driver: parses the raw binary stream back into records."""

    def __init__(self, data: bytes) -> None:
        self._stream = io.BytesIO(data)
        self.bundle = self._read_header()

    def _read_header(self) -> TraceBundle:
        stream = self._stream
        magic = stream.read(4)
        if magic != _STREAM_MAGIC:
            raise ValueError(f"bad stream magic {magic!r}")
        version, bits = struct.unpack("<HH", stream.read(4))
        if version != _VERSION:
            raise ValueError(f"unsupported trace version {version}")
        (count,) = struct.unpack("<H", stream.read(2))
        fields = []
        for _ in range(count):
            (name_len,) = struct.unpack("<B", stream.read(1))
            name = stream.read(name_len).decode("utf-8")
            (width,) = struct.unpack("<B", stream.read(1))
            fields.append(TraceField(name, width))
        bundle = TraceBundle(fields, name="decoded")
        if bundle.bits_per_cycle != bits:
            raise ValueError("header bit count does not match layout")
        return bundle

    def chunks(self) -> Iterator[Tuple[int, List[int]]]:
        """Yield (first_cycle, records) per chunk."""
        stride = self.bundle.bytes_per_cycle
        stream = self._stream
        while True:
            magic = stream.read(4)
            if not magic:
                return
            if magic != _CHUNK_MAGIC:
                raise ValueError(f"bad chunk magic {magic!r}")
            first_cycle, count = struct.unpack("<QI", stream.read(12))
            payload = stream.read(stride * count)
            if len(payload) != stride * count:
                raise ValueError("truncated chunk payload")
            records = [int.from_bytes(payload[i * stride:(i + 1) * stride],
                                      "little")
                       for i in range(count)]
            yield first_cycle, records

    def read_all(self) -> Tuple[int, List[int]]:
        """Concatenate every chunk; returns (first_cycle, records)."""
        first: Optional[int] = None
        records: List[int] = []
        for chunk_first, chunk_records in self.chunks():
            if first is None:
                first = chunk_first
            records.extend(chunk_records)
        return first or 0, records

    def signals(self) -> Dict[str, List[int]]:
        """Decode the whole stream into per-signal series."""
        _, records = self.read_all()
        series: Dict[str, List[int]] = {
            field.name: [] for field in self.bundle.fields}
        for record in records:
            decoded = self.bundle.unpack(record)
            for name, value in decoded.items():
                series[name].append(value)
        return series


def capture_trace(core, trace, bundle: TraceBundle,
                  max_cycles: Optional[int] = None) -> CycleTracer:
    """Run *trace* on *core*, recording, and return its cycle tracer."""
    stream = SignalStream()
    core.run(trace, stream=stream)
    tracer = CycleTracer(bundle, max_cycles=max_cycles)
    tracer.record(stream)
    return tracer
