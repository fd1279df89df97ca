"""Watermark delivery and index eviction in the streaming layer.

* The exact sequence of ``on_watermark`` calls an :class:`AnalysisTap`
  makes, live and on replay, is pinned by hash for operators with
  different gating channel sets interleaved in one operator list.
* ``RootCauseOperator``'s heap eviction leaves its indexes equal, entry
  for entry and in order, to rebuilding them from what is not expired.
* Replay work is linear: each indexed record is examined at most twice by
  eviction, and each group's watermark is computed at most once per
  record that raises one of its channels' high-water marks.
"""

from __future__ import annotations

import hashlib
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.streaming import (
    AnalysisTap,
    DelayBreakdownOperator,
    FrameClusterOperator,
    RootCauseOperator,
    StreamingReportOperator,
    SyncOffsetOperator,
    TbPacketCorrelator,
    record_event_time,
    replay_file,
)
from repro.core.streaming import operators
from repro.core.streaming.base import WATERMARK_END, StreamOperator
from repro.run.builder import SessionBuilder
from repro.run.scenario import MONITORED_UE_ID, CallSpec, ScenarioConfig
from repro.sim.units import ms
from repro.trace.bus import InMemorySink
from repro.trace.io import iter_trace_records, save_trace
from repro.trace.schema import (
    MediaKind,
    PacketRecord,
    TbKind,
    Trace,
    TransportBlockRecord,
)


class _WatermarkRecorder(StreamOperator):
    """Consumes nothing; logs ``(operator index, watermark_us)``."""

    def __init__(self, index, channels, watermark_channels, log):
        self.index = index
        self.name = f"recorder{index}"
        self.channels = channels
        self.watermark_channels = watermark_channels
        self.log = log

    def on_record(self, channel, record):
        pass

    def on_watermark(self, watermark_us):
        self.log.append((self.index, watermark_us))


#: (channels, watermark_channels) of the three gating sets, in list order.
_GATING_SETS = (
    (("packet",), None),
    (("packet", "tb"), None),
    (("packet", "tb", "frame"), ("packet", "frame")),
)


def _recorders(log):
    """Two copies of each gating set, interleaved: A B C A B C."""
    return [
        _WatermarkRecorder(i, *_GATING_SETS[i % 3], log) for i in range(6)
    ]


#: (length, sha256) of the watermark logs; a change here changes *when*
#: operators see watermarks, so every live result may move with it.
_LIVE_PIN = (
    210,
    "ca6aa00f306d2efc911437ebd12a7bf9c06477574a2cb109e4d48ed017ff7561",
)
_REPLAY_PIN = (
    112,
    "5368489e927bd89a16f86170542e719c41c1f8401f183de47d4e1eface6cb2a0",
)


def _digest(log):
    return hashlib.sha256(repr(log).encode()).hexdigest()


class TestPinnedWatermarkSequence:
    def test_live_and_replay_sequences(self, tmp_path):
        config = ScenarioConfig(
            duration_s=3.0,
            seed=5,
            calls=[CallSpec(call_id=0), CallSpec(call_id=1)],
        )
        live_log = []
        tap = AnalysisTap(_recorders(live_log), inner=InMemorySink(Trace()))
        result = SessionBuilder(config, sink=tap).run()
        path = tmp_path / "session.jsonl"
        save_trace(result.trace, path)
        replay_log = []
        replay_file(str(path), _recorders(replay_log))

        # Every operator saw a watermark before the one close() sends.
        for log in (live_log, replay_log):
            assert {i for i, wm in log if wm < WATERMARK_END} == set(range(6))
        assert (len(live_log), _digest(live_log)) == _LIVE_PIN
        assert (len(replay_log), _digest(replay_log)) == _REPLAY_PIN


class TestTapValidation:
    def test_watermark_channels_must_be_subscribed(self):
        op = _WatermarkRecorder(0, ("packet",), ("packet", "frame"), [])
        with pytest.raises(ValueError, match="watermark channels"):
            AnalysisTap([op])

    @pytest.mark.parametrize(
        "channels, watermark_channels",
        [(("packet", "radio"), ("radio",)), (("radio",), None)],
    )
    def test_unknown_gating_channel_rejected(
        self, channels, watermark_channels
    ):
        op = _WatermarkRecorder(0, channels, watermark_channels, [])
        with pytest.raises(ValueError, match="watermark channels"):
            AnalysisTap([op])

    def test_shipped_operators_are_valid(self):
        AnalysisTap(
            [
                SyncOffsetOperator(),
                TbPacketCorrelator(MONITORED_UE_ID),
                FrameClusterOperator(),
                DelayBreakdownOperator(),
                RootCauseOperator(),
                StreamingReportOperator(),
            ]
        )


# -- eviction ----------------------------------------------------------
_ids = st.integers(min_value=0, max_value=12)
_times_us = st.integers(min_value=0, max_value=2_000)
_events = st.lists(
    st.one_of(
        st.tuples(st.just("packet"), _ids, st.none() | _times_us),
        st.tuples(st.just("tb"), _ids, _times_us),
        st.tuples(st.just("watermark"), st.integers(0, 400)),
    ),
    max_size=80,
)


def _packet(packet_id, send_us):
    record = PacketRecord(
        packet_id=packet_id, flow_id="f", kind=MediaKind.VIDEO, size_bytes=100
    )
    if send_us is not None:
        record.captures["sender"] = send_us
    return record


def _tb(tb_id, slot_us):
    return TransportBlockRecord(
        tb_id=tb_id, ue_id=1, slot_us=slot_us, kind=TbKind.REQUESTED,
        size_bits=800,
    )


def _entries(index):
    return [(key, id(record)) for key, record in index.items()]


class TestHeapEviction:
    @settings(max_examples=300, deadline=None)
    @given(_events)
    def test_indexes_equal_rebuilt_reference(self, events):
        """Duplicate ids, missing sender captures, out-of-order times."""
        retention_us = 300
        op = RootCauseOperator(
            settle_after_us=0, retention_us=retention_us, retain_results=False
        )
        packets, tbs = {}, {}
        watermark_us = 0
        for event in events:
            if event[0] == "packet":
                record = _packet(event[1], event[2])
                packets[record.packet_id] = record
                op.on_record("packet", record)
            elif event[0] == "tb":
                record = _tb(event[1], event[2])
                tbs[record.tb_id] = record
                op.on_record("tb", record)
            else:
                watermark_us += event[1]
                op.on_watermark(watermark_us)
                horizon_us = watermark_us - retention_us
                packets = {
                    pid: p
                    for pid, p in packets.items()
                    if (p.captures.get("sender") or 0) >= horizon_us
                }
                tbs = {
                    tid: tb
                    for tid, tb in tbs.items()
                    if tb.slot_us >= horizon_us
                }
                assert _entries(op._packet_index) == _entries(packets)
                assert _entries(op._tb_index) == _entries(tbs)


# -- work counts -------------------------------------------------------
class _CountingLateness(int):
    """A lateness that counts the watermark computations subtracting it."""

    computations = 0

    def __rsub__(self, high_us):
        type(self).computations += 1
        return int(high_us) - int(self)


def _gated_raises(path, gating):
    """Records raising a gating channel's mark once all gating have one."""
    high, raises = {}, 0
    for tag, record in iter_trace_records(path):
        if tag == "meta":
            continue
        event_us = record_event_time(tag, record)
        if event_us is None or event_us <= high.get(tag, 0):
            continue
        high[tag] = event_us
        if tag in gating and all(ch in high for ch in gating):
            raises += 1
    return raises


class TestReplayWorkCounts:
    def test_replay_work_is_linear(self, tmp_path, monkeypatch):
        config = ScenarioConfig(
            duration_s=6.0,
            seed=2,
            calls=[CallSpec(call_id=k) for k in range(4)],
        )
        path = tmp_path / "four_calls.jsonl"
        save_trace(SessionBuilder(config).run().trace, path)

        examined = Counter()
        for name in ("_packet_time_us", "_tb_time_us"):
            key_fn = getattr(operators, name, None)

            def counting(record, _key_fn=key_fn, _name=name):
                examined[_name] += 1
                return _key_fn(record)

            monkeypatch.setattr(operators, name, counting, raising=False)
        lateness = _CountingLateness(ms(2000.0))
        _CountingLateness.computations = 0
        report = replay_file(
            str(path), [StreamingReportOperator()], lateness_us=lateness
        )["report"]

        indexed = report.record_counts["packet"] + report.record_counts["tb"]
        assert report.root_causes.diagnosed_count > 0
        # One key read when a record is queued for eviction, at most one
        # more when its queue entry pops: never a rescan of the index.
        assert indexed <= sum(examined.values()) <= 2 * indexed, examined
        # One operator, one group: at most one computation per raise.
        raises = _gated_raises(path, StreamingReportOperator.watermark_channels)
        assert 0 < _CountingLateness.computations <= raises
