"""Trace schema, telemetry sinks, and persistence for Athena experiments."""

from .bus import (
    CHANNELS,
    FilteredSink,
    InMemorySink,
    NullSink,
    StreamingJsonlSink,
    TraceSink,
)
from .columnar import (
    ColumnarTrace,
    columnar_trace_from_trace,
    trace_from_payload,
)
from .ids import IdSpace, use_id_space
from .io import (
    TraceFormatError,
    export_csv,
    iter_trace_records,
    load_trace,
    save_trace,
    write_trace_jsonl,
)
from .schema import (
    CapturePoint,
    FrameRecord,
    GrantRecord,
    MediaKind,
    PacketRecord,
    ProbeRecord,
    RanPacketTelemetry,
    RtpInfo,
    SyncExchangeRecord,
    TbKind,
    Trace,
    TransportBlockRecord,
)

__all__ = [
    "CHANNELS",
    "CapturePoint",
    "ColumnarTrace",
    "FilteredSink",
    "FrameRecord",
    "GrantRecord",
    "IdSpace",
    "InMemorySink",
    "MediaKind",
    "NullSink",
    "PacketRecord",
    "ProbeRecord",
    "RanPacketTelemetry",
    "RtpInfo",
    "StreamingJsonlSink",
    "SyncExchangeRecord",
    "TbKind",
    "Trace",
    "TraceSink",
    "TransportBlockRecord",
    "TraceFormatError",
    "columnar_trace_from_trace",
    "export_csv",
    "iter_trace_records",
    "load_trace",
    "save_trace",
    "trace_from_payload",
    "use_id_space",
    "write_trace_jsonl",
]
