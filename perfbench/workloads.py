"""The benchmark's workloads: what one operation runs and how it is checked.

Each workload splits an operation into ``body`` (the timed work, and the
only part profiled in a traced run) and ``check`` (output checks and
fingerprints, outside every timer).  Spans come from the benchmark's own
calls around the program's public entry points; nothing is instrumented
inside ``src/``.  Spans are timed on a :class:`hostclock.HostClock`, in
reference seconds, with the host seconds kept beside them.
"""

from __future__ import annotations

import functools
import gc
import hashlib
import io
import time
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Tuple

#: Figures ``reproduce-all`` must report, by REPORT.md section name.
FIGURES = (
    "fig3", "fig4", "fig5", "fig7", "fig8", "fig9a", "fig9b", "fig10",
    "sec52", "sec53", "ext-l4s", "ext-gcc-contexts", "ext-app-classes",
    "ext-jitterbuffer", "ext-contention",
)

#: Trace channels, as :class:`repro.trace.schema.Trace` list fields.
TRACE_FIELDS = (
    "packets", "transport_blocks", "grants", "frames", "probes",
    "sync_exchanges",
)


@dataclass
class OpResult:
    """One operation's measurements and check outcome."""

    spans: Dict[str, float] = field(default_factory=dict)  # stage -> ref s
    host_spans: Dict[str, float] = field(default_factory=dict)  # stage -> host s
    steps_ms: List[float] = field(default_factory=list)
    counts: Dict[str, float] = field(default_factory=dict)
    attempted: int = 1
    failed: int = 0
    failures: List[str] = field(default_factory=list)
    fingerprint: Dict[str, Any] = field(default_factory=dict)
    setup_s: List[float] = field(default_factory=list)  # in-process set-up, ref s
    host_setup_s: List[float] = field(default_factory=list)  # the same, host s


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


# ----------------------------------------------------------------------
# Session workloads: build, run in 100 ms simulated steps, save, analyze
# ----------------------------------------------------------------------
class SessionWorkload:
    """One cell session per operation, the ``run --out`` + ``analyze`` flow.

    A run cycles through ``fresh_processes`` scenario seeds derived from
    the benchmark seed, so its medians do not rest on one random
    realization.  Untraced runs spread the operations over that many fresh
    processes, each starting on its own scenario seed, so that the first
    operation of a process (``cold_s``) is sampled once per scenario.  Each
    process runs at least two operations, so each scenario seed recurs and
    its saved trace's sha256 must repeat exactly.
    """

    name = ""
    duration_s = 0.0
    step_us = 100_000  # 100 ms steps reproduce a single run_until exactly
    min_ops = 2
    fresh_processes = 4
    import_modules = (
        "repro.run.builder", "repro.experiments.common", "repro.trace.io",
        "repro.core.streaming",
    )

    def __init__(self, seed: int, tmp: Path, clock, first: int = 0) -> None:
        self.seed = seed
        self.tmp = tmp
        self.clock = clock  # a hostclock.HostClock
        self.first = first  # scenario index of this process's operation 0

    def scenario_seed(self, k: int) -> int:
        """Scenario seed of operation ``k``: one of ``fresh_processes``
        seeds derived from the benchmark seed."""
        return self.seed * 1000 + (self.first + k) % self.fresh_processes

    def config(self, seed: int):
        raise NotImplementedError

    def body(self, k: int) -> Dict[str, Any]:
        from repro.core.streaming import StreamingReportOperator, replay_file
        from repro.run.builder import SessionBuilder
        from repro.sim.units import seconds
        from repro.trace.ids import use_id_space
        from repro.trace.io import save_trace

        config = self.config(self.scenario_seed(k))
        end_us = seconds(config.duration_s)
        path = self.tmp / f"{self.name}-{k}.jsonl"
        steps: List[float] = []
        clock = self.clock
        m0 = clock.mark()
        builder = SessionBuilder(config)
        with use_id_space(builder.id_space):
            ctx = builder.build()
            builder.start(ctx)
            m1 = clock.mark()
            now_us = 0
            while now_us < end_us:
                now_us = min(now_us + self.step_us, end_us)
                s = time.perf_counter()
                ctx.sim.run_until(now_us)
                steps.append((time.perf_counter() - s) * 1e3)
                clock.tick()
            m2 = clock.mark()
        ctx.sink.close()  # drains the live-analysis operators
        trace = ctx.sink.result_trace()
        m3 = clock.mark()
        save_trace(trace, path)
        m4 = clock.mark()
        results = replay_file(path, [StreamingReportOperator()])
        m5 = clock.mark()
        stages = {"build_s": (m0, m1), "run_s": (m1, m2), "close_s": (m2, m3),
                  "save_s": (m3, m4), "analyze_s": (m4, m5), "total_s": (m1, m5)}
        spans = {name: clock.ref_s(a, b) for name, (a, b) in stages.items()}
        host = {name: clock.host_s(a, b) for name, (a, b) in stages.items()}
        spans["sim_speed"] = config.duration_s / spans["run_s"]
        host["sim_speed"] = config.duration_s / host["run_s"]
        return {
            "ctx": ctx, "trace": trace, "path": path,
            "report": results["report"], "steps_ms": steps,
            "spans": spans, "host_spans": host,
        }

    def check(self, k: int, art: Dict[str, Any]) -> OpResult:
        from repro.trace.io import load_trace

        op = OpResult(spans=art["spans"], host_spans=art["host_spans"],
                      steps_ms=art["steps_ms"])
        op.setup_s.append(art["spans"]["build_s"])
        op.host_setup_s.append(art["host_spans"]["build_s"])
        path = art["path"]
        digest = _sha256(path)
        counts = {f: len(getattr(art["trace"], f)) for f in TRACE_FIELDS}
        op.fingerprint = {
            "seed": self.scenario_seed(k), "trace_sha256": digest,
            **self._fingerprint(art),
        }
        if op.fingerprint["core.frames_diagnosed"] <= 0:
            op.failures.append(f"op {k}: analyze diagnosed no frames")
        analyzed = sum(art["report"].record_counts.values())
        op.counts = {
            "trace.records": float(sum(counts.values())),
            "trace.jsonl_bytes": float(path.stat().st_size),
            "core.records_per_s": analyzed / art["spans"]["analyze_s"],
        }
        art.clear()  # free the in-memory trace before the round trip
        gc.collect()
        if k == 0:
            loaded = load_trace(path)
            got = {f: len(getattr(loaded, f)) for f in TRACE_FIELDS}
            if got != counts:
                op.failures.append(f"round trip changed record counts: {counts} -> {got}")
        path.unlink()
        op.failed = 1 if op.failures else 0
        return op

    @staticmethod
    def _fingerprint(art: Dict[str, Any]) -> Dict[str, Any]:
        """Simulated statistics that repeat exactly for one commit and seed."""
        trace = art["trace"]
        windows = art["ctx"].ran.capacity_series()
        granted = sum(w.granted_bits for w in windows)
        return {
            "net.packets_delivered": sum(
                1 for p in trace.packets if "receiver" in p.captures
            ),
            "net.packets_dropped": sum(1 for p in trace.packets if p.dropped),
            "app.frames_rendered": sum(
                1 for f in trace.frames if f.rendered_us is not None
            ),
            "app.stalls": sum(1 for f in trace.frames if f.stalled),
            "phy.harq_rounds": sum(
                p.ran.harq_rounds for p in trace.packets if p.ran is not None
            ),
            "phy.grant_use_ratio": (
                sum(w.used_bits for w in windows) / granted if granted else 0.0
            ),
            "core.frames_diagnosed": art["report"].spread.count,
        }


class OverloadCell(SessionWorkload):
    """One call in fig8's saturating scenario: cross traffic at
    10 -> 34 -> 8 Mbps and a QPSK / 45 % BLER fade in the middle third."""

    name = "overload_cell"
    duration_s = 24.0

    def config(self, seed: int):
        from repro.experiments.common import saturating_scenario
        from repro.sim.units import seconds

        config = saturating_scenario(
            duration_s=self.duration_s, seed=seed, record_tbs=False
        )
        third = seconds(self.duration_s / 3)
        config.channel_phases = [
            (0, 20, 0.08), (third, 2, 0.45), (2 * third, 20, 0.08),
        ]
        return config


class ConferenceLive(SessionWorkload):
    """Four calls in one cell, no cross traffic, live analysis on."""

    name = "conference_live"
    duration_s = 6.0
    fresh_processes = 6

    def config(self, seed: int):
        from repro.run.scenario import CallSpec, ScenarioConfig

        return ScenarioConfig(
            duration_s=self.duration_s,
            seed=seed,
            access="5g",
            cross_traffic=None,
            calls=[CallSpec(call_id=k) for k in range(4)],
            live_analysis=True,
        )


# ----------------------------------------------------------------------
# reproduce-all, cold then warm, through a fresh scenario cache
# ----------------------------------------------------------------------
class ReproduceAll:
    """``athena-repro reproduce-all`` at reduced scale, cold then warm.

    The CLI fixes every figure's seed, so the benchmark seed changes no
    input here; it only names the operation's scratch directories.
    """

    name = "reproduce_all"
    scale = 0.1
    min_ops = 1
    fresh_processes = 0
    import_modules = ("repro.cli", "repro.experiments", "repro.run.cache")

    def __init__(self, seed: int, tmp: Path, clock, first: int = 0) -> None:
        self.seed = seed
        self.tmp = tmp
        self.clock = clock  # a hostclock.HostClock
        self.phase = ""
        self.figure = ""
        self._reset()
        self._install_spans()

    def _reset(self) -> None:
        self.fig_s: Dict[str, float] = {}
        self.fig_done: Dict[Tuple[str, str], bool] = {}
        self.fig_misses: Dict[Tuple[str, str], int] = {}
        self.cache_get_s = 0.0
        self.cache_put_s = 0.0
        self.sim_us = 0
        self.sim_host_s = 0.0

    def _install_spans(self) -> None:
        """Wrap the figure runners, cache get/put and the engine run loop
        with benchmark-side timers (public names only; ``src/`` untouched)."""
        import repro.experiments as experiments
        from repro.run.cache import ScenarioCache
        from repro.sim.engine import Simulator

        bench = self

        def figure_span(fn, figure):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                bench.figure = figure
                bench.clock.mark()
                start = time.perf_counter()
                result = fn(*args, **kwargs)
                key = f"experiments.{figure}.{bench.phase}_s"
                bench.fig_s[key] = bench.fig_s.get(key, 0.0) + time.perf_counter() - start
                bench.clock.mark()
                bench.fig_done[(bench.phase, figure)] = True
                return result
            return wrapper

        for attr in dir(experiments):
            if attr.startswith("run_") and callable(getattr(experiments, attr)):
                figure = attr[len("run_"):].replace("_", "-")
                setattr(experiments, attr, figure_span(getattr(experiments, attr), figure))

        get, put, run_until = ScenarioCache.get, ScenarioCache.put, Simulator.run_until

        @functools.wraps(get)
        def timed_get(cache, key):
            start = time.perf_counter()
            blobs = get(cache, key)
            bench.cache_get_s += time.perf_counter() - start
            if blobs is None:
                slot = (bench.phase, bench.figure)
                bench.fig_misses[slot] = bench.fig_misses.get(slot, 0) + 1
            return blobs

        @functools.wraps(put)
        def timed_put(cache, key, payload, summary_blob):
            start = time.perf_counter()
            put(cache, key, payload, summary_blob)
            bench.cache_put_s += time.perf_counter() - start

        @functools.wraps(run_until)
        def timed_run_until(sim, end_us):
            if bench.phase != "cold":
                run_until(sim, end_us)
                bench.clock.tick()
                return
            begin_us = sim.now
            start = time.perf_counter()
            run_until(sim, end_us)
            bench.sim_host_s += time.perf_counter() - start
            bench.sim_us += sim.now - begin_us
            bench.clock.tick()

        ScenarioCache.get = timed_get
        ScenarioCache.put = timed_put
        Simulator.run_until = timed_run_until

    def _pass(self, phase: str, out: Path, cache_dir: Path) -> Dict[str, Any]:
        from repro.cli import main as cli_main

        self.phase, self.figure = phase, ""
        buf = io.StringIO()
        start = self.clock.mark()
        error = None
        try:
            with redirect_stdout(buf):
                rc = cli_main([
                    "reproduce-all", "--scale", str(self.scale),
                    "--out", str(out), "--cache-dir", str(cache_dir),
                ])
            if rc != 0:
                error = f"exit code {rc}"
        except Exception as exc:  # a failed figure is a counted failure
            error = f"{type(exc).__name__}: {exc}"
        end = self.clock.mark()
        stats = {}
        for line in buf.getvalue().splitlines():
            if line.startswith("cache: "):
                stats = {
                    k: int(v) for k, v in
                    (item.split("=") for item in line[len("cache: "):].split())
                }
        return {"s": self.clock.ref_s(start, end),
                "host_s": self.clock.host_s(start, end),
                "speed": self.clock.speed(start, end),
                "error": error, "stats": stats, "report": out / "REPORT.md"}

    def body(self, k: int) -> Dict[str, Any]:
        self._reset()
        opdir = self.tmp / f"seed{self.seed}-op{k}"
        cache_dir = opdir / "cache"
        cold = self._pass("cold", opdir / "cold", cache_dir)
        warm = self._pass("warm", opdir / "warm", cache_dir)
        self.phase = ""
        return {"cold": cold, "warm": warm, "cache_dir": cache_dir}

    @staticmethod
    def _sections(path: Path) -> Dict[str, str]:
        try:
            text = path.read_text(encoding="utf-8")
        except OSError:
            return {}
        sections: Dict[str, str] = {}
        name = None
        for line in text.splitlines():
            if line.startswith("## "):
                name = line[3:].strip()
                sections[name] = ""
            elif name is not None:
                sections[name] += line + "\n"
        return sections

    def check(self, k: int, art: Dict[str, Any]) -> OpResult:
        from repro.run.cache import ScenarioCache

        cold, warm = art["cold"], art["warm"]
        op = OpResult(attempted=2 * len(FIGURES))
        failed = set()
        for phase, res in (("cold", cold), ("warm", warm)):
            if res["error"]:
                op.failures.append(f"{phase} pass: {res['error']}")
            sections = self._sections(res["report"])
            for figure in FIGURES:
                if not self.fig_done.get((phase, figure)) or figure not in sections:
                    failed.add((phase, figure))
        cold_sections = self._sections(cold["report"])
        warm_sections = self._sections(warm["report"])
        for figure in FIGURES:
            if cold_sections.get(figure) != warm_sections.get(figure):
                failed.add(("warm", figure))
            if self.fig_misses.get(("warm", figure), 0):
                failed.add(("warm", figure))
        warm_misses = warm["stats"].get("misses", -1)
        if warm_misses != 0:
            op.failures.append(f"warm pass reported {warm_misses} cache misses")
            if not any(p == "warm" for p, _ in failed):
                failed.add(("warm", "?"))
        op.failures += [f"{phase} {figure} failed" for phase, figure in sorted(failed)]
        same_report = (
            cold["report"].is_file() and warm["report"].is_file()
            and cold["report"].read_bytes() == warm["report"].read_bytes()
        )
        if not same_report:
            op.failures.append("warm REPORT.md differs from cold")
        op.failed = max(len(failed), 1 if op.failures else 0)

        cache_dir = art["cache_dir"]
        for _ in range(5):  # what each CLI invocation pays to open the cache
            start = self.clock.mark()
            ScenarioCache(cache_dir=cache_dir)
            end = self.clock.mark()
            op.setup_s.append(self.clock.ref_s(start, end))
            op.host_setup_s.append(self.clock.host_s(start, end))
        cache_bytes = sum(
            p.stat().st_size for p in cache_dir.rglob("*") if p.is_file()
        )
        hits = cold["stats"].get("hits", 0) + warm["stats"].get("hits", 0)
        misses = cold["stats"].get("misses", 0) + max(warm_misses, 0)
        warm_lookups = warm["stats"].get("hits", 0) + max(warm_misses, 0)
        host_sim_speed = (
            (self.sim_us / 1e6) / self.sim_host_s if self.sim_host_s > 0 else 0.0
        )
        op.host_spans = {
            "cold_s": cold["host_s"], "warm_s": warm["host_s"],
            "total_s": cold["host_s"] + warm["host_s"],
            "sim_speed": host_sim_speed,
        }
        op.spans = {
            "cold_s": cold["s"], "warm_s": warm["s"],
            "total_s": cold["s"] + warm["s"],
            # run loops inside the cold pass, at the pass's host speed
            "sim_speed": host_sim_speed / cold["speed"],
            "run.cache_get_s": self.cache_get_s,
            "run.cache_put_s": self.cache_put_s,
            **self.fig_s,
        }
        op.counts = {
            "run.cache_hits": float(hits),
            "run.cache_misses": float(misses),
            "run.hit_ratio": warm["stats"].get("hits", 0) / warm_lookups
            if warm_lookups else 0.0,
            "run.cache_bytes": float(cache_bytes),
        }
        op.fingerprint = {
            "report_sha256": hashlib.sha256(
                cold["report"].read_bytes() if cold["report"].is_file() else b""
            ).hexdigest(),
            "run.cache_entries": cold["stats"].get("entries", 0),
            "run.cold_hits": cold["stats"].get("hits", 0),
            "run.cold_misses": cold["stats"].get("misses", 0),
        }
        return op


WORKLOADS = {
    cls.name: cls for cls in (OverloadCell, ConferenceLive, ReproduceAll)
}
