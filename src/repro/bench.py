"""Performance-regression harness: ``athena-repro bench`` (DESIGN.md §3.2).

Four benchmarks, each timed with a warmup pass and min-of-N repetitions
(the minimum is the standard noise-robust estimator for short, allocation
-bound workloads):

* ``event_loop`` — raw simulator throughput: recurring-event dispatch and a
  self-rescheduling one-shot chain, in events per second.
* ``full_stack_1s`` — one second of the default VCA session on a 120 kHz
  SCS (mmWave FR2) cell, with idle-slot elision on vs. off.  Only
  ``Simulator.run_until`` is timed; session construction is excluded.
  The two settings are semantically identical (a trace-identity test
  enforces byte-identical JSONL), so the ratio isolates the cost of
  firing provably-idle slot events.
* ``idle_heavy_60s`` — a mostly-idle RAN-only session: one UE, a single
  early packet burst, then silence.  The reference loop still fires every
  uplink slot; the elided loop goes dormant.
* ``fig7`` — end-to-end regeneration of the Fig 7 QoE comparison, the
  repo's flagship experiment, as a macro-benchmark.
* ``multicall`` — an N-call cell vs N separate single-call sessions: the
  per-call overhead of sharing one TDD/grant fabric (informational).
* ``streaming_analysis`` — single-pass ``athena-repro analyze`` over an
  emission-ordered trace file: records/s throughput, plus peak traced
  memory vs. loading the whole trace (the batch baseline).  The pass gate
  is the peak-memory ratio — streaming must stay well under the full
  in-memory trace, proving the watermark window actually bounds state.
* ``trace_emit`` — the shipped save path: emit a dense synthetic record
  stream into ``InMemorySink`` and serialize it to JSONL, transposed to
  columns + batch encoder (``write_trace_jsonl``) vs the per-record
  writer (byte-identical output is asserted as part of the pass gate).
* ``sweep_transport`` — full-trace sweep collection at ``--jobs 4``:
  warm-pool workers returning compact columnar payloads vs the legacy
  fork-per-sweep pool returning pickled ``Trace`` record graphs.
* ``scenario_cache`` — a 3-seed × {5g,emulated} sweep through the
  content-addressed scenario result store: cold (every point simulated
  and stored) vs warm (every point rehydrated from ATHC1 payloads).  The
  pass gate also requires the cache-hit trace to serialize byte-identical
  JSONL to a fresh simulation of the same scenario.

Results are written to ``BENCH_perf.json`` (see README for the format).
This module is exempt from ATH001: measuring wall-clock time is its job.
No wall-clock *dates* are recorded — output depends only on the workload.
"""

from __future__ import annotations

import json
from dataclasses import replace
from time import perf_counter
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .experiments.fig7_qoe import run_fig7
from .phy import FixedChannel, RanConfig, RanSimulator
from .run.builder import SessionBuilder
from .run.scenario import CallSpec, ScenarioConfig
from .sim import RngStreams, Simulator, ms, seconds
from .trace import MediaKind, PacketRecord, use_id_space
from .trace.ids import new_packet_id

#: Slot duration of the bench cell: 120 kHz SCS (numerology mu=3, FR2).
#: The finer numerology fires 1600 UL slot events/s in the reference loop,
#: which is exactly the regime idle elision targets.
BENCH_SLOT_US = 125

#: Acceptance floors checked by `athena-repro bench` (and CI --smoke runs).
FULL_STACK_MIN_SPEEDUP = 1.2
IDLE_HEAVY_MIN_SPEEDUP = 3.0
#: Streaming analysis must peak below this fraction of the batch baseline's
#: peak memory (loading the full trace).  Generous: the win grows with
#: trace length, and bench traces are short.
STREAMING_MAX_PEAK_RATIO = 0.8
#: InMemorySink + write_trace_jsonl (save-time column transpose, batch
#: encoder) vs InMemorySink + the per-record writer.
TRACE_EMIT_MIN_SPEEDUP = 2.0
#: Warm-pool columnar-payload sweep vs the fork-per-sweep pickled-Trace one.
SWEEP_TRANSPORT_MIN_SPEEDUP = 1.5
#: Warm (all cache hits) sweep vs cold (all simulated) through the
#: content-addressed scenario result store.
SCENARIO_CACHE_MIN_SPEEDUP = 5.0


def _best_of(fn: Callable[[], float], reps: int) -> float:
    """Warm up once, then return the minimum elapsed seconds over ``reps``."""
    fn()
    return min(fn() for _ in range(reps))


# ---------------------------------------------------------------------------
# event loop


def _time_recurring(n_events: int) -> float:
    sim = Simulator()
    sim.every(10, lambda: None)
    t0 = perf_counter()
    sim.run_until(n_events * 10)
    return perf_counter() - t0


def _time_oneshot_chain(n_events: int) -> float:
    sim = Simulator()

    def hop() -> None:
        if sim.now < n_events * 10:
            sim.at(sim.now + 10, hop)

    sim.at(0, hop)
    t0 = perf_counter()
    sim.run_until(n_events * 10 + 1)
    return perf_counter() - t0


def bench_event_loop(n_events: int = 200_000, reps: int = 3) -> Dict[str, object]:
    """Engine-only dispatch throughput (recurring + one-shot chain)."""
    recurring_s = _best_of(lambda: _time_recurring(n_events), reps)
    oneshot_s = _best_of(lambda: _time_oneshot_chain(n_events), reps)
    return {
        "n_events": n_events,
        "recurring_best_s": recurring_s,
        "recurring_events_per_s": n_events / recurring_s,
        "oneshot_best_s": oneshot_s,
        "oneshot_events_per_s": n_events / oneshot_s,
    }


# ---------------------------------------------------------------------------
# full stack


def _time_session(config: ScenarioConfig, duration_s: float) -> float:
    """Build a session, then time only the event loop (``run_until``)."""
    builder = SessionBuilder(config)
    with use_id_space(builder.id_space):
        ctx = builder.build()
        builder.start(ctx)
        t0 = perf_counter()
        ctx.sim.run_until(seconds(duration_s))
        elapsed_s = perf_counter() - t0
    builder.sink.close()
    return elapsed_s


def bench_full_stack(duration_s: float = 1.0, reps: int = 7) -> Dict[str, object]:
    """Default VCA session on the mu=3 cell: elision on vs. reference."""
    base = ScenarioConfig(seed=7)
    elide = replace(base, ran=RanConfig(elide_idle_slots=True, slot_us=BENCH_SLOT_US))
    reference = replace(
        base, ran=RanConfig(elide_idle_slots=False, slot_us=BENCH_SLOT_US)
    )
    elide_s = _best_of(lambda: _time_session(elide, duration_s), reps)
    reference_s = _best_of(lambda: _time_session(reference, duration_s), reps)
    speedup = reference_s / elide_s
    return {
        "duration_s": duration_s,
        "slot_us": BENCH_SLOT_US,
        "elide_best_s": elide_s,
        "reference_best_s": reference_s,
        "speedup": speedup,
        "min_speedup": FULL_STACK_MIN_SPEEDUP,
        "pass": speedup >= FULL_STACK_MIN_SPEEDUP,
    }


# ---------------------------------------------------------------------------
# multi-call cell


def _time_multicall(n_calls: int, duration_s: float) -> float:
    config = ScenarioConfig(
        seed=7, calls=[CallSpec(call_id=k) for k in range(n_calls)]
    )
    return _time_session(config, duration_s)


def bench_multicall(
    duration_s: float = 1.0, n_calls: int = 4, reps: int = 3
) -> Dict[str, object]:
    """N-call cell vs N separate single-call sessions.

    ``per_call_overhead`` is multicall wall time over N× the single-call
    time: 1.0 means hosting N calls in one cell costs the same as running
    them separately; values below 1.0 mean the shared TDD/grant fabric
    amortizes (one slot loop instead of N).  Informational — contention
    changes the workload itself, so no pass floor applies.
    """
    single_s = _best_of(lambda: _time_multicall(1, duration_s), reps)
    multi_s = _best_of(lambda: _time_multicall(n_calls, duration_s), reps)
    return {
        "duration_s": duration_s,
        "n_calls": n_calls,
        "single_call_best_s": single_s,
        "multicall_best_s": multi_s,
        "per_call_overhead": multi_s / (n_calls * single_s),
    }


# ---------------------------------------------------------------------------
# idle heavy


def _time_idle_session(elide: bool, duration_s: float) -> float:
    sim = Simulator()
    config = RanConfig(elide_idle_slots=elide)
    ran = RanSimulator(sim, config, RngStreams(1))
    ran.add_ue(1, channel=FixedChannel(config.default_mcs, 0.0))
    ran.set_uplink_sink(1, lambda packet, time_us: None)

    def burst() -> None:
        for _ in range(4):
            ran.send_uplink(
                1,
                PacketRecord(
                    packet_id=new_packet_id(),
                    flow_id="bench",
                    kind=MediaKind.VIDEO,
                    size_bytes=1_100,
                ),
            )

    sim.at(ms(1.0), burst)
    t0 = perf_counter()
    sim.run_until(seconds(duration_s))
    return perf_counter() - t0


def bench_idle_heavy(duration_s: float = 60.0, reps: int = 3) -> Dict[str, object]:
    """Mostly-idle RAN session: one early burst, then a silent cell."""
    elide_s = _best_of(lambda: _time_idle_session(True, duration_s), reps)
    reference_s = _best_of(lambda: _time_idle_session(False, duration_s), reps)
    speedup = reference_s / elide_s
    return {
        "duration_s": duration_s,
        "elide_best_s": elide_s,
        "reference_best_s": reference_s,
        "speedup": speedup,
        "min_speedup": IDLE_HEAVY_MIN_SPEEDUP,
        "pass": speedup >= IDLE_HEAVY_MIN_SPEEDUP,
    }


# ---------------------------------------------------------------------------
# streaming analysis


def bench_streaming_analysis(
    duration_s: float = 10.0, reps: int = 1
) -> Dict[str, object]:
    """Streaming vs. batch trace analysis: throughput and peak memory.

    The trace is written by a :class:`~repro.trace.bus.StreamingJsonlSink`
    so records land in emission order — the layout a live session produces
    and the one the watermark window is sized for.
    """
    import os
    import tempfile
    import tracemalloc

    from .core.streaming import StreamingReportOperator, replay_file
    from .run.builder import run_session
    from .trace.bus import StreamingJsonlSink
    from .trace.io import load_trace

    fd, path = tempfile.mkstemp(suffix=".jsonl", prefix="bench_trace_")
    os.close(fd)
    try:
        # live_analysis + StreamingJsonlSink: the producing session itself
        # runs the online analytics with no full-trace retention anywhere.
        run_session(
            ScenarioConfig(duration_s=duration_s, seed=7,
                           live_analysis=True),
            sink=StreamingJsonlSink(path),
        )

        tracemalloc.start()
        trace = load_trace(path)
        batch_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        n_records = (
            len(trace.packets) + len(trace.transport_blocks)
            + len(trace.grants) + len(trace.frames)
            + len(trace.probes) + len(trace.sync_exchanges)
        )
        del trace

        def one_pass() -> float:
            t0 = perf_counter()
            replay_file(path, [StreamingReportOperator()],
                        lateness_us=ms(500.0))
            return perf_counter() - t0

        tracemalloc.start()
        stream_s = _best_of(one_pass, reps)
        stream_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    finally:
        os.remove(path)

    ratio = stream_peak / batch_peak if batch_peak else 0.0
    return {
        "duration_s": duration_s,
        "n_records": n_records,
        "records_per_s": n_records / stream_s,
        "stream_best_s": stream_s,
        "stream_peak_bytes": stream_peak,
        "batch_peak_bytes": batch_peak,
        "peak_ratio": ratio,
        "max_peak_ratio": STREAMING_MAX_PEAK_RATIO,
        "pass": ratio <= STREAMING_MAX_PEAK_RATIO,
    }


# ---------------------------------------------------------------------------
# trace emission + serialization (save-time column transpose)


def _synthetic_trace_records(n_packets: int) -> List:
    """A deterministic dense telemetry stream: ``(channel, record, mutable)``.

    Shaped like a real session (packets dominate, with RTP + capture
    stamps + RAN telemetry; one TB per two packets; one frame per ten) but
    generated arithmetically so benches measure the trace layer, not the
    simulator.  ``mutable`` records are emitted ``final=False`` and
    finalized, exercising the staging path sinks take for in-flight
    records.
    """
    from .trace import FrameRecord, RanPacketTelemetry, RtpInfo, TbKind
    from .trace import TransportBlockRecord as TbRecord

    records: List = []
    for i in range(n_packets):
        base_us = 1_000 + i * 250
        video = i % 10 != 0
        records.append((
            "packet",
            PacketRecord(
                packet_id=i,
                flow_id="video/0" if video else "audio/0",
                kind=MediaKind.VIDEO if video else MediaKind.AUDIO,
                size_bytes=1_100 + (i % 7) * 40,
                rtp=RtpInfo(0x5EED, i & 0xFFFF, i * 90, i // 10, i % 3,
                            i % 10 == 9, i % 10 == 1),
                captures={
                    "ue.send_us": base_us,
                    "gnb.recv_us": base_us + 4_000,
                    "sfu.recv_us": base_us + 9_000,
                    "receiver.app_us": base_us + 12_000,
                },
                ran=RanPacketTelemetry(
                    enqueue_us=base_us,
                    first_tb_us=base_us + 1_500,
                    delivered_us=base_us + 4_000,
                    queue_wait_us=900,
                    sched_wait_us=400,
                    spread_wait_us=200,
                    harq_delay_us=0 if i % 5 else 10_000,
                    harq_rounds=0 if i % 5 else 1,
                    tb_ids=[i // 2],
                ),
                dropped=i % 97 == 96,
            ),
            True,
        ))
        if i % 2 == 0:
            records.append((
                "tb",
                TbRecord(
                    tb_id=i // 2,
                    ue_id=1,
                    slot_us=base_us + 1_500,
                    kind=TbKind.PROACTIVE if i % 4 else TbKind.REQUESTED,
                    size_bits=120_000,
                    used_bits=(1_100 + (i % 7) * 40) * 8,
                    packet_ids=[i, i + 1],
                    harq_rounds=0 if i % 5 else 1,
                    failed_slot_us=[] if i % 5 else [base_us + 1_000],
                    delivered_us=base_us + 4_000,
                ),
                False,
            ))
        if i % 10 == 1:
            records.append((
                "frame",
                FrameRecord(
                    frame_id=i // 10,
                    stream="video",
                    capture_us=base_us,
                    encode_done_us=base_us + 3_000,
                    size_bytes=9_000 + (i % 11) * 300,
                    svc_layer=i % 3,
                    target_fps=30.0,
                    packet_ids=list(range(i, min(i + 9, n_packets))),
                    ssim=0.97,
                    rendered_us=base_us + 40_000,
                    display_duration_us=33_333,
                    stalled=i % 30 == 21,
                ),
                True,
            ))
    return records


def _emit_all(sink, records: List) -> None:
    """Emit a synthetic stream into ``sink`` and close it."""
    emit = sink.emit
    finalize = sink.finalize
    for channel, record, mutable in records:
        if mutable:
            emit(channel, record, final=False)
            finalize(record)
        else:
            emit(channel, record)
    sink.close()


def _write_jsonl_per_record(trace, path: str) -> None:
    """The historical writer: one ``to_jsonable`` + ``json.dumps`` per record.

    Kept inline here as the measured baseline after
    :func:`repro.trace.io.save_trace` moved to the batch encoder.
    """
    from .trace.bus import CHANNEL_FIELDS
    from .trace.io import to_jsonable

    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"type": "meta", **to_jsonable(trace.metadata)}) + "\n")
        for tag, attr in CHANNEL_FIELDS.items():
            for record in getattr(trace, attr):
                fh.write(json.dumps({"type": tag, **to_jsonable(record)}) + "\n")


def bench_trace_emit(n_packets: int = 20_000, reps: int = 3) -> Dict[str, object]:
    """Emit-to-JSONL throughput: the shipped writer vs the per-record one.

    Both sides consume the same pre-built record stream (record
    *construction* is the simulator's cost, identical either way), retain
    it in an :class:`~repro.trace.bus.InMemorySink`, and produce
    byte-identical JSONL files; the measured pipeline is retention plus
    serialization — per-record ``json.dumps`` on the baseline, the
    save-time column transpose + batch encoder of
    :func:`~repro.trace.io.write_trace_jsonl` on the shipped side.
    """
    import filecmp
    import os
    import tempfile

    from .trace.bus import InMemorySink
    from .trace.io import write_trace_jsonl
    from .trace.schema import Trace

    records = _synthetic_trace_records(n_packets)
    n_records = len(records)
    tmp_dir = tempfile.mkdtemp(prefix="bench_emit_")
    legacy_path = os.path.join(tmp_dir, "legacy.jsonl")
    columnar_path = os.path.join(tmp_dir, "columnar.jsonl")

    def legacy_pipeline() -> float:
        t0 = perf_counter()
        sink = InMemorySink(Trace())
        _emit_all(sink, records)
        _write_jsonl_per_record(sink.result_trace(), legacy_path)
        return perf_counter() - t0

    def columnar_pipeline() -> float:
        t0 = perf_counter()
        sink = InMemorySink(Trace())
        _emit_all(sink, records)
        write_trace_jsonl(sink.result_trace(), columnar_path)
        return perf_counter() - t0

    try:
        legacy_s = _best_of(legacy_pipeline, reps)
        columnar_s = _best_of(columnar_pipeline, reps)
        identical = filecmp.cmp(legacy_path, columnar_path, shallow=False)
    finally:
        for path in (legacy_path, columnar_path):
            if os.path.exists(path):
                os.remove(path)
        os.rmdir(tmp_dir)
    speedup = legacy_s / columnar_s
    return {
        "n_records": n_records,
        "legacy_best_s": legacy_s,
        "columnar_best_s": columnar_s,
        "legacy_records_per_s": n_records / legacy_s,
        "columnar_records_per_s": n_records / columnar_s,
        "bytes_identical": identical,
        "speedup": speedup,
        "min_speedup": TRACE_EMIT_MIN_SPEEDUP,
        "pass": speedup >= TRACE_EMIT_MIN_SPEEDUP and identical,
    }


# ---------------------------------------------------------------------------
# sweep transport


def _transport_task_pickle(n_packets: int):
    """Worker: build a dense trace, return it as a pickled record graph."""
    from .trace.bus import InMemorySink
    from .trace.schema import Trace

    sink = InMemorySink(Trace())
    _emit_all(sink, _synthetic_trace_records(n_packets))
    return sink.result_trace()


def _transport_task_payload(n_packets: int) -> bytes:
    """Worker: build the same trace, return the compact columnar payload."""
    from .trace.bus import InMemorySink
    from .trace.columnar import columnar_trace_from_trace
    from .trace.schema import Trace

    sink = InMemorySink(Trace())
    _emit_all(sink, _synthetic_trace_records(n_packets))
    return columnar_trace_from_trace(sink.result_trace()).to_payload()


def bench_sweep_transport(
    tasks: int = 8, n_packets: int = 4_000, jobs: int = 4, reps: int = 2
) -> Dict[str, object]:
    """Full-trace sweep collection: columnar payloads vs pickled graphs.

    Models ``athena-repro sweep --jobs 4`` with trace collection.  The
    legacy side is the pre-columnar executor exactly: a fresh worker pool
    per sweep, ``chunksize=1``, each worker returning its whole record
    graph through pickle, the parent unpickling object by object.  The new
    side is the shipped path: one warm :class:`~repro.run.batch.BatchExecutor`
    reused across sweeps, adaptive chunksize, workers returning flat
    columnar payloads the parent rebuilds as lazy
    :class:`~repro.trace.columnar.ColumnarTrace` views.
    """
    from concurrent.futures import ProcessPoolExecutor

    from .run.batch import BatchExecutor
    from .trace.columnar import trace_from_payload

    work = [n_packets] * tasks

    def legacy_sweep() -> float:
        t0 = perf_counter()
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            traces = list(pool.map(_transport_task_pickle, work, chunksize=1))
        count = sum(len(trace.packets) for trace in traces)
        elapsed_s = perf_counter() - t0
        assert count == tasks * n_packets
        return elapsed_s

    with BatchExecutor(jobs=jobs) as warm:
        # Warm the pool outside the timed region: reuse across sweep
        # phases is the point — steady-state sweeps find workers running.
        warm.map(_noop_task, [0] * jobs, chunksize=1)

        def columnar_sweep() -> float:
            t0 = perf_counter()
            payloads = warm.map(_transport_task_payload, work)
            traces = [trace_from_payload(payload) for payload in payloads]
            count = sum(len(trace.packets) for trace in traces)
            elapsed_s = perf_counter() - t0
            assert count == tasks * n_packets
            return elapsed_s

        legacy_s = _best_of(legacy_sweep, reps)
        columnar_s = _best_of(columnar_sweep, reps)
    speedup = legacy_s / columnar_s
    return {
        "tasks": tasks,
        "packets_per_trace": n_packets,
        "jobs": jobs,
        "legacy_best_s": legacy_s,
        "columnar_best_s": columnar_s,
        "speedup": speedup,
        "min_speedup": SWEEP_TRANSPORT_MIN_SPEEDUP,
        "pass": speedup >= SWEEP_TRANSPORT_MIN_SPEEDUP,
    }


def _noop_task(_: int) -> None:
    """Pool-warming no-op (module-level so workers can unpickle it)."""
    return None


# ---------------------------------------------------------------------------
# scenario result cache


def bench_scenario_cache(
    duration_s: float = 2.0, reps: int = 2
) -> Dict[str, object]:
    """Warm vs cold 3-seed × {5g,emulated} sweep through the result store.

    The cold side simulates (and stores) every grid point; the warm side
    reopens the cache from disk and rehydrates every point from its ATHC1
    columnar payload.  Runs at ``jobs=1`` so the ratio measures simulation
    vs rehydration, not pool scheduling.  Correctness rides along: a
    cache-hit trace must serialize to byte-identical JSONL as a fresh
    in-process simulation of the same scenario, for one 5G and one
    emulated point.
    """
    import filecmp
    import os
    import shutil
    import tempfile

    from .run.batch import collect_qoe, collect_trace, run_batch, sweep_grid
    from .run.builder import run_session
    from .run.cache import ScenarioCache
    from .trace.io import save_trace

    base = ScenarioConfig(duration_s=duration_s, record_tbs=False)
    specs = sweep_grid(
        base, [7, 8, 9],
        {"5g": {"access": "5g"}, "emulated": {"access": "emulated"}},
    )
    tmp_dir = tempfile.mkdtemp(prefix="bench_cache_")
    cache_dir = os.path.join(tmp_dir, "cache")

    def cold_sweep() -> float:
        # Reset outside the timed region: the measured cost is simulate +
        # store, not directory teardown.
        shutil.rmtree(cache_dir, ignore_errors=True)
        cache = ScenarioCache(cache_dir=cache_dir)
        t0 = perf_counter()
        run_batch(specs, collect=collect_qoe, jobs=1, cache=cache)
        elapsed_s = perf_counter() - t0
        assert cache.misses == len(specs), "cold sweep must simulate all"
        return elapsed_s

    def warm_sweep() -> float:
        # A fresh instance reads the entry files, like a new process.
        cache = ScenarioCache(cache_dir=cache_dir)
        t0 = perf_counter()
        run_batch(specs, collect=collect_qoe, jobs=1, cache=cache)
        elapsed_s = perf_counter() - t0
        assert cache.hits == len(specs), "warm sweep must hit every point"
        return elapsed_s

    try:
        cold_s = _best_of(cold_sweep, reps)
        # The last cold pass left the store populated; every warm pass
        # (including _best_of's warmup) must be all hits.
        warm_s = _best_of(warm_sweep, reps)

        # Byte-identity oracle: hit JSONL == fresh-simulation JSONL.
        cache = ScenarioCache(cache_dir=cache_dir)
        probes = [specs[0], specs[-1]]
        hits = run_batch(probes, collect=collect_trace, jobs=1, cache=cache)
        assert cache.hits == len(probes), "probes must hit the warm store"
        identical = True
        for probe, hit in zip(probes, hits):
            fresh_path = os.path.join(tmp_dir, "fresh.jsonl")
            hit_path = os.path.join(tmp_dir, "hit.jsonl")
            save_trace(run_session(probe.config).trace, fresh_path)
            save_trace(hit.value, hit_path)
            identical = identical and filecmp.cmp(
                fresh_path, hit_path, shallow=False
            )
    finally:
        shutil.rmtree(tmp_dir, ignore_errors=True)

    speedup = cold_s / warm_s
    return {
        "duration_s": duration_s,
        "grid_points": len(specs),
        "cold_best_s": cold_s,
        "warm_best_s": warm_s,
        "bytes_identical": identical,
        "speedup": speedup,
        "min_speedup": SCENARIO_CACHE_MIN_SPEEDUP,
        "pass": speedup >= SCENARIO_CACHE_MIN_SPEEDUP and identical,
    }


# ---------------------------------------------------------------------------
# fig 7 macro benchmark


def _time_fig7(duration_s: float) -> float:
    t0 = perf_counter()
    run_fig7(duration_s=duration_s, seed=7)
    return perf_counter() - t0


def bench_fig7(duration_s: float = 10.0, reps: int = 2) -> Dict[str, object]:
    """Wall time to regenerate the Fig 7 QoE comparison end to end."""
    best_s = _best_of(lambda: _time_fig7(duration_s), reps)
    return {"duration_s": duration_s, "best_s": best_s}


# ---------------------------------------------------------------------------
# harness


#: Benchmark registry: plan key -> (result key, runner, progress line).
BENCHMARKS: Dict[str, Tuple[str, Callable, str]] = {}


def _register_benchmarks() -> None:
    if BENCHMARKS:
        return
    BENCHMARKS.update({
        "event_loop": (
            "event_loop", bench_event_loop, "event loop"),
        "full_stack": (
            "full_stack_1s", bench_full_stack,
            "full-stack 1 s session (elide vs reference)"),
        "idle_heavy": (
            "idle_heavy_60s", bench_idle_heavy,
            "idle-heavy session (elide vs reference)"),
        "fig7": ("fig7", bench_fig7, "Fig 7 regeneration"),
        "streaming": (
            "streaming_analysis", bench_streaming_analysis,
            "streaming trace analysis (peak memory vs batch)"),
        "multicall": (
            "multicall", bench_multicall,
            "multi-call cell (N calls vs N sessions)"),
        "trace_emit": (
            "trace_emit", bench_trace_emit,
            "trace emission (column-transposed vs per-record writer)"),
        "sweep_transport": (
            "sweep_transport", bench_sweep_transport,
            "sweep transport (columnar payloads vs pickled traces)"),
        "scenario_cache": (
            "scenario_cache", bench_scenario_cache,
            "scenario result cache (warm hits vs cold simulation)"),
    })


def run_bench(
    out_path: str = "BENCH_perf.json",
    smoke: bool = False,
    reps: Optional[int] = None,
    report: Optional[Callable[[str], None]] = print,
    only: Optional[Sequence[str]] = None,
) -> Dict[str, object]:
    """Run every benchmark, write ``out_path``, and return the results.

    ``smoke`` shrinks repetitions and simulated durations for CI: the
    speedup *ratios* are preserved (both sides shrink together), so the
    pass/fail floors still hold; only the absolute times lose stability.
    ``only`` restricts the run to a subset of benchmark names (plan keys
    like ``"trace_emit"`` or result keys like ``"full_stack_1s"``) — what
    ``make bench-trace`` uses to gate just the trace fast path.
    """
    say = report if report is not None else (lambda line: None)
    _register_benchmarks()
    if smoke:
        plan = {
            "event_loop": dict(n_events=20_000, reps=reps or 1),
            "full_stack": dict(duration_s=1.0, reps=reps or 3),
            "idle_heavy": dict(duration_s=5.0, reps=reps or 1),
            "fig7": dict(duration_s=2.0, reps=reps or 1),
            "streaming": dict(duration_s=6.0, reps=reps or 1),
            "multicall": dict(duration_s=1.0, n_calls=2, reps=reps or 1),
            "trace_emit": dict(n_packets=4_000, reps=reps or 3),
            "sweep_transport": dict(
                tasks=4, n_packets=1_500, jobs=4, reps=reps or 1
            ),
            "scenario_cache": dict(duration_s=1.0, reps=reps or 1),
        }
    else:
        plan = {
            "event_loop": dict(n_events=200_000, reps=reps or 3),
            "full_stack": dict(duration_s=1.0, reps=reps or 7),
            "idle_heavy": dict(duration_s=60.0, reps=reps or 3),
            "fig7": dict(duration_s=10.0, reps=reps or 2),
            "streaming": dict(duration_s=20.0, reps=reps or 2),
            "multicall": dict(duration_s=1.0, n_calls=4, reps=reps or 3),
            "trace_emit": dict(n_packets=20_000, reps=reps or 3),
            "sweep_transport": dict(
                tasks=8, n_packets=4_000, jobs=4, reps=reps or 2
            ),
            "scenario_cache": dict(duration_s=2.0, reps=reps or 2),
        }

    selected = list(BENCHMARKS)
    if only:
        wanted = set(only)
        selected = [
            plan_key for plan_key in BENCHMARKS
            if plan_key in wanted or BENCHMARKS[plan_key][0] in wanted
        ]
        known = set(BENCHMARKS) | {spec[0] for spec in BENCHMARKS.values()}
        unknown = wanted - known
        if unknown:
            raise ValueError(
                f"unknown benchmarks: {sorted(unknown)}; "
                f"choose from {sorted(known)}"
            )

    results: Dict[str, object] = {}
    for plan_key in selected:
        result_key, runner, label = BENCHMARKS[plan_key]
        say(f"bench: {label} ...")
        results[result_key] = runner(**plan[plan_key])

    checks: List[str] = []
    for key in ("full_stack_1s", "idle_heavy_60s", "trace_emit",
                "sweep_transport", "scenario_cache"):
        if key not in results:
            continue
        entry = results[key]
        status = "PASS" if entry["pass"] else "FAIL"  # type: ignore[index]
        checks.append(
            f"{key}: {entry['speedup']:.2f}x "  # type: ignore[index]
            f"(floor {entry['min_speedup']}x) {status}"  # type: ignore[index]
        )
    if "streaming_analysis" in results:
        stream = results["streaming_analysis"]
        stream_status = "PASS" if stream["pass"] else "FAIL"  # type: ignore[index]
        checks.append(
            f"streaming_analysis: peak {stream['peak_ratio']:.2f}x batch "  # type: ignore[index]
            f"(ceiling {stream['max_peak_ratio']}x), "  # type: ignore[index]
            f"{stream['records_per_s']:.0f} records/s {stream_status}"  # type: ignore[index]
        )
    if "multicall" in results:
        multicall = results["multicall"]
        checks.append(
            f"multicall: {multicall['n_calls']} calls at "  # type: ignore[index]
            f"{multicall['per_call_overhead']:.2f}x per-call cost "  # type: ignore[index]
            "(info only)"
        )
    payload = {
        "schema": "athena-bench/1",
        "smoke": smoke,
        "results": results,
        "ok": all(r.get("pass", True) for r in results.values()),  # type: ignore[union-attr]
    }
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    for line in checks:
        say(f"bench: {line}")
    say(f"bench: wrote {out_path}")
    return payload
