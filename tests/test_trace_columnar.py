"""The columnar trace form: byte-identity, lazy views, payload transport.

Records are the only live trace store; columns are the saved and shipped
form.  The contract under test is strict: transposing a record
:class:`Trace` with :func:`columnar_trace_from_trace` must produce (a)
record-equal row views, (b) JSONL through :func:`save_trace` that is
byte-identical to the per-record reference encoding (one
``json.dumps({"type": ..., **to_jsonable(record)})`` line per record,
family by family), and (c) a flat payload that round-trips without loss.
Golden hashes compare whole files, so a single float formatting or
key-order divergence fails loudly.
"""

from __future__ import annotations

import hashlib
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.run import CallSpec, ScenarioConfig, SessionBuilder
from repro.trace import (
    InMemorySink,
    Trace,
    columnar_trace_from_trace,
    load_trace,
    save_trace,
    write_trace_jsonl,
)
from repro.trace.bus import CHANNEL_FIELDS
from repro.trace.columnar import ColumnarTrace, trace_from_payload
from repro.trace.io import _to_jsonable
from repro.trace.schema import (
    FrameRecord,
    GrantRecord,
    MediaKind,
    PacketRecord,
    ProbeRecord,
    RanPacketTelemetry,
    RtpInfo,
    SyncExchangeRecord,
    TbKind,
    TransportBlockRecord,
)

FAMILIES = ("packets", "transport_blocks", "grants", "frames", "probes",
            "sync_exchanges")


def _run(config):
    sink = InMemorySink(Trace())
    SessionBuilder(config, sink=sink).run()
    return sink.result_trace()


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _reference_sha256(trace):
    """Hash of the per-record reference encoding of a whole trace file."""
    digest = hashlib.sha256()
    meta = json.dumps({"type": "meta", **_to_jsonable(trace.metadata)}) + "\n"
    digest.update(meta.encode())
    for channel, attr in CHANNEL_FIELDS.items():
        for record in getattr(trace, attr):
            line = json.dumps({"type": channel, **_to_jsonable(record)}) + "\n"
            digest.update(line.encode())
    return digest.hexdigest()


# ---------------------------------------------------------------------------
# Golden byte-identity on real sessions
# ---------------------------------------------------------------------------
class TestGoldenByteIdentity:
    @pytest.mark.parametrize("seed", [7, 11, 23])
    @pytest.mark.parametrize("access", ["5g", "emulated"])
    def test_family_order_file_is_byte_identical(self, tmp_path, seed, access):
        config = ScenarioConfig(seed=seed, access=access, duration_s=1.0)
        trace = _run(config)
        path = tmp_path / "t.jsonl"
        save_trace(trace, path)
        assert _sha256(path) == _reference_sha256(trace)

    @pytest.mark.parametrize("access", ["5g", "emulated"])
    def test_two_call_cell_stays_identical(self, tmp_path, access):
        config = ScenarioConfig(
            seed=7, access=access, duration_s=1.0,
            calls=(CallSpec(call_id=0), CallSpec(call_id=1)),
        )
        mem = _run(config)
        path = tmp_path / "t.jsonl"
        save_trace(mem, path)
        assert _sha256(path) == _reference_sha256(mem)
        # Per-call views share the same attribution logic as row traces.
        col = columnar_trace_from_trace(mem)
        assert col.call_ids() == mem.call_ids() == [0, 1]
        for call_id in (0, 1):
            sub_mem = mem.for_call(call_id)
            sub_col = col.for_call(call_id)
            for family in FAMILIES:
                assert list(getattr(sub_col, family)) == list(
                    getattr(sub_mem, family)
                )

    def test_rows_equal_in_memory_records(self):
        mem = _run(ScenarioConfig(seed=11, duration_s=1.0))
        col = columnar_trace_from_trace(mem)
        assert col.metadata == mem.metadata
        for family in FAMILIES:
            assert list(getattr(col, family)) == list(getattr(mem, family))

    def test_written_file_loads_back(self, tmp_path):
        mem = _run(ScenarioConfig(seed=7, duration_s=1.0))
        path = tmp_path / "t.jsonl"
        save_trace(mem, path)
        loaded = load_trace(path)
        for family in FAMILIES:
            assert list(getattr(loaded, family)) == list(getattr(mem, family))


# ---------------------------------------------------------------------------
# Randomized equivalence (property test)
# ---------------------------------------------------------------------------
_call_ids = st.one_of(st.none(), st.integers(min_value=0, max_value=3))
_opt_us = st.one_of(st.none(), st.integers(min_value=0, max_value=10**7))


@st.composite
def _record_stream(draw):
    """A randomized record stream: ``(channel, record)`` pairs.

    Covers every channel, optional nested structures, ordered capture
    dicts, interned strings and enums, and call-id tagging.
    """
    n = draw(st.integers(min_value=1, max_value=25))
    stream = []
    for i in range(n):
        kind = draw(st.sampled_from(
            ["packet", "tb", "grant", "frame", "probe", "sync"]))
        if kind == "packet":
            rtp = None
            if draw(st.booleans()):
                rtp = RtpInfo(
                    ssrc=draw(st.integers(min_value=0, max_value=2**31)),
                    seq=i & 0xFFFF,
                    timestamp=i * 90,
                    frame_id=i // 3,
                    layer_id=draw(st.integers(min_value=0, max_value=2)),
                    marker=draw(st.booleans()),
                    frame_start=draw(st.booleans()),
                )
            ran = None
            if draw(st.booleans()):
                ran = RanPacketTelemetry(
                    enqueue_us=i * 1_000,
                    first_tb_us=draw(_opt_us),
                    queue_wait_us=draw(st.integers(min_value=0, max_value=9_999)),
                    tb_ids=draw(st.lists(
                        st.integers(min_value=0, max_value=999), max_size=3)),
                )
            captures = draw(st.dictionaries(
                st.sampled_from(["sender", "core", "sfu", "receiver"]),
                st.integers(min_value=0, max_value=10**7),
                max_size=4,
            ))
            record = PacketRecord(
                packet_id=i,
                flow_id=draw(st.sampled_from(["video", "audio", "probe"])),
                kind=draw(st.sampled_from(list(MediaKind))),
                size_bytes=draw(st.integers(min_value=0, max_value=1500)),
                rtp=rtp,
                captures=captures,
                ran=ran,
                dropped=draw(st.booleans()),
                call_id=draw(_call_ids),
            )
        elif kind == "tb":
            record = TransportBlockRecord(
                tb_id=i,
                ue_id=draw(st.integers(min_value=0, max_value=3)),
                slot_us=i * 500,
                kind=draw(st.sampled_from(list(TbKind))),
                size_bits=draw(st.integers(min_value=0, max_value=10**5)),
                packet_ids=draw(st.lists(
                    st.integers(min_value=0, max_value=99), max_size=4)),
                failed_slot_us=draw(st.lists(
                    st.integers(min_value=0, max_value=10**6), max_size=2)),
                delivered_us=draw(_opt_us),
            )
        elif kind == "grant":
            record = GrantRecord(
                grant_id=i,
                ue_id=draw(st.integers(min_value=0, max_value=3)),
                kind=draw(st.sampled_from(list(TbKind))),
                issued_us=i * 500,
                usable_slot_us=i * 500 + 2_000,
                size_bits=draw(st.integers(min_value=0, max_value=10**5)),
                bsr_us=draw(_opt_us),
                bsr_bytes=draw(st.one_of(
                    st.none(), st.integers(min_value=0, max_value=10**6))),
            )
        elif kind == "frame":
            record = FrameRecord(
                frame_id=i,
                stream=draw(st.sampled_from(["video", "audio"])),
                capture_us=i * 33_000,
                encode_done_us=i * 33_000 + 2_000,
                size_bytes=draw(st.integers(min_value=0, max_value=10**5)),
                target_fps=draw(st.sampled_from([0.0, 15.0, 30.0])),
                ssim=draw(st.one_of(
                    st.none(),
                    st.floats(min_value=0.0, max_value=1.0,
                              allow_nan=False))),
                rendered_us=draw(_opt_us),
                stalled=draw(st.booleans()),
                call_id=draw(_call_ids),
            )
        elif kind == "probe":
            record = ProbeRecord(
                probe_id=i,
                sent_us=i * 10_000,
                received_us=draw(_opt_us),
                call_id=draw(_call_ids),
            )
        else:
            record = SyncExchangeRecord(
                host=draw(st.sampled_from(["sender", "receiver", "sfu"])),
                t1=i * 100, t2=i * 100 + 7, t3=i * 100 + 9, t4=i * 100 + 20,
                call_id=draw(_call_ids),
            )
        stream.append((kind, record))
    return stream


@settings(max_examples=40, deadline=None)
@given(stream=_record_stream())
def test_columnar_rows_equal_in_memory_for_random_sessions(stream):
    sink = InMemorySink(Trace())
    sink.set_metadata({"seed": 3, "access": "5g"})
    for channel, record in stream:
        sink.emit(channel, record)
    sink.close()
    mem = sink.result_trace()
    col = columnar_trace_from_trace(mem)
    for family in FAMILIES:
        assert list(getattr(col, family)) == list(getattr(mem, family))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.jsonl"
        written = write_trace_jsonl(mem, path)
        assert written == len(stream)
        assert _sha256(path) == _reference_sha256(mem)
    rebuilt = trace_from_payload(col.to_payload())
    assert rebuilt.metadata == mem.metadata
    for family in FAMILIES:
        assert list(getattr(rebuilt, family)) == list(getattr(mem, family))


# ---------------------------------------------------------------------------
# Payload transport
# ---------------------------------------------------------------------------
class TestPayloadRoundTrip:
    def test_session_round_trips_through_payload(self):
        col = columnar_trace_from_trace(_run(ScenarioConfig(seed=23, duration_s=1.0)))
        rebuilt = trace_from_payload(col.to_payload())
        assert isinstance(rebuilt, ColumnarTrace)
        assert rebuilt.metadata == col.metadata
        for family in FAMILIES:
            assert list(getattr(rebuilt, family)) == list(getattr(col, family))

    def test_bad_magic_rejected(self):
        with pytest.raises(ValueError, match="payload"):
            trace_from_payload(b"not-a-payload")


# ---------------------------------------------------------------------------
# Lazy views
# ---------------------------------------------------------------------------
class TestChannelView:
    def _trace(self, n=5):
        records = [ProbeRecord(probe_id=i, sent_us=i * 10) for i in range(n)]
        return columnar_trace_from_trace(Trace(probes=list(records))), records

    def test_len_index_slice_and_negative(self):
        trace, records = self._trace()
        probes = trace.probes
        assert len(probes) == 5
        assert probes[0] == records[0]
        assert probes[-1] == records[-1]
        assert probes[1:3] == records[1:3]
        assert probes[::2] == records[::2]
        with pytest.raises(IndexError):
            probes[5]

    def test_iteration_and_equality(self):
        trace, records = self._trace()
        assert list(trace.probes) == records
        assert trace.probes == records
        assert trace.probes != records[:-1]
        assert len(trace.packets) == 0

    def test_materialized_rows_are_cached(self):
        trace, _ = self._trace()
        assert trace.probes[2] is trace.probes[2]


# ---------------------------------------------------------------------------
# Streaming replay compatibility
# ---------------------------------------------------------------------------
def test_replay_trace_accepts_columnar_trace():
    from repro.core.streaming import replay_trace
    from repro.core.streaming.operators import TbPacketCorrelator
    from repro.run import MONITORED_UE_ID

    mem = _run(ScenarioConfig(seed=7, duration_s=1.0))
    col = trace_from_payload(columnar_trace_from_trace(mem).to_payload())
    mem_result = replay_trace(mem, [TbPacketCorrelator(ue_id=MONITORED_UE_ID)])
    col_result = replay_trace(col, [TbPacketCorrelator(ue_id=MONITORED_UE_ID)])
    assert mem_result["correlation"].matches == col_result["correlation"].matches
