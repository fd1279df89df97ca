"""Athena benchmark: end-to-end metrics, or per-layer metrics when traced.

Run from the repository root::

    python3 perfbench/run.py --workload conference_live --seed 1 \\
        --seconds 30 --trace 0

Workloads are ``overload_cell``, ``conference_live`` and ``reproduce_all``
(see perfbench/README.md).  The last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``; the line before
it is the run's simulated-statistics fingerprint.  ``--trace 0`` reports
the end-to-end metrics of untraced operations, timed in reference seconds
(see hostclock.py); a line before the fingerprint gives them in plain host
seconds.  ``--trace 1`` runs one
untraced reference operation, then operations under cProfile, and reports
the per-layer metrics.
"""

from __future__ import annotations

import argparse
import cProfile
import dataclasses
import gc
import json
import os
import pstats
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Tuple

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

#: Fresh interpreters timed per run for the import part of ``setup_s``.
IMPORT_PROBES = 5

#: Largest share of traced wall time the per-layer split may leave
#: unattributed (benchmark code, profiler overhead) before the run fails.
MAX_UNATTRIBUTED_SHARE = 0.25

#: Per-layer stage times taken from the untraced reference operation:
#: metric -> span name recorded by the workload.
STAGE_SPANS = {
    "trace.save_s": "save_s",
    "core.analyze_s": "analyze_s",
    "run.cache_get_s": "run.cache_get_s",
    "run.cache_put_s": "run.cache_put_s",
}

#: Per-layer counts of the reference operation, with units.
COUNTS = {
    "trace.records": "count",
    "trace.jsonl_bytes": "bytes",
    "core.records_per_s": "1/s",
    "run.cache_hits": "count",
    "run.cache_misses": "count",
    "run.hit_ratio": "ratio",
    "run.cache_bytes": "bytes",
}

#: Simulated statistics that repeat exactly for one commit and seed.
FINGERPRINT_COUNTS = {
    "net.packets_delivered": "count",
    "net.packets_dropped": "count",
    "app.frames_rendered": "count",
    "app.stalls": "count",
    "phy.harq_rounds": "count",
    "phy.grant_use_ratio": "ratio",
}


def _median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def _percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile, q in [0, 100]."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, min(len(ordered), round(q / 100 * len(ordered) + 0.5)))
    return ordered[rank - 1]


def import_seconds(modules, clock) -> Tuple[float, float]:
    """Median import time of ``modules`` over fresh interpreters, in
    reference and in host seconds."""
    code = (
        "import time; t = time.perf_counter(); import {}; "
        "print(time.perf_counter() - t)".format(", ".join(modules))
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    ref, host = [], []
    for _ in range(IMPORT_PROBES):
        start = clock.mark()
        done = subprocess.run(
            [sys.executable, "-c", code], env=env, cwd=str(ROOT),
            capture_output=True, text=True, timeout=120, check=True,
        )
        host.append(float(done.stdout.strip().splitlines()[-1]))
        ref.append(host[-1] * clock.speed(start, clock.mark()))
    return _median(ref), _median(host)


def peak_rss_mb() -> float:
    """Largest resident set of this process and of any child it waited on."""
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(self_kb, child_kb) / 1024.0


def run_op(workload, k: int, profiler=None):
    """One operation and the wall time of its body (the profiled part)."""
    from workloads import FIGURES, OpResult

    gc.collect()  # no garbage from the previous operation in this one's time
    start = time.perf_counter()
    try:
        if profiler is not None:
            profiler.enable()
        try:
            art = workload.body(k)
        finally:
            if profiler is not None:
                profiler.disable()
            body_s = time.perf_counter() - start
        op = workload.check(k, art)
    except Exception as exc:  # a crashed operation is a counted failure
        attempted = 2 * len(FIGURES) if workload.name == "reproduce_all" else 1
        op = OpResult(attempted=attempted, failed=attempted,
                      failures=[f"op {k}: {type(exc).__name__}: {exc}"])
    return op, body_s


def _stop_profiling_in_child() -> None:
    # Pool workers forked mid-profile would otherwise keep profiling and
    # run slower than untraced; their time is the parent's pool wait.
    sys.setprofile(None)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Internal: run untraced operations and print them as JSON.
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--first", type=int, default=0, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {SRC / 'repro'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2

    base_tmp = ROOT / ".perfbench-tmp"
    base_tmp.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=str(base_tmp)))
    # Anything the program puts in a temp dir stays inside the checkout.
    os.environ["TMPDIR"] = str(tmp)
    tempfile.tempdir = str(tmp)
    try:
        return _run(args, WORKLOADS[args.workload], tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            base_tmp.rmdir()
        except OSError:
            pass


def _fits(start: float, op_s: List[float], seconds: float) -> bool:
    """Whether one more operation, as long as the median so far, ends
    within ``seconds`` of ``start``; so a run does not overshoot its time."""
    return time.perf_counter() - start + _median(op_s) <= seconds


def _loop(workload, seconds: float) -> List:
    """Untraced operations for ``seconds`` (at least ``min_ops``)."""
    ops, op_s = [], []
    start = time.perf_counter()
    while len(ops) < workload.min_ops or _fits(start, op_s, seconds):
        t = time.perf_counter()
        ops.append(run_op(workload, len(ops))[0])
        op_s.append(time.perf_counter() - t)
    return ops


def _child_ops(args, share: float, first: int) -> List:
    """Run ``share`` seconds of operations in a fresh interpreter, starting
    on scenario ``first``."""
    from workloads import OpResult

    cmd = [sys.executable, __file__, "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(share), "--child",
           "--first", str(first)]
    try:
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
        sys.stderr.write(done.stderr)
        if done.returncode != 0:
            raise ValueError(f"exit code {done.returncode}")
        return [OpResult(**op) for op in json.loads(done.stdout.splitlines()[-1])]
    except (subprocess.TimeoutExpired, ValueError, IndexError) as exc:
        return [OpResult(failed=1, failures=[f"child process: {exc!r}"])]


def _run(args, workload_cls, tmp: Path) -> int:
    from hostclock import HostClock

    # A traced run's spans are profiled, so they are not probed.
    clock = HostClock(probe=not args.trace)
    try:
        return _measure(args, workload_cls, tmp, clock)
    finally:
        clock.close()


def _measure(args, workload_cls, tmp: Path, clock) -> int:
    if args.child:
        ops = _loop(workload_cls(args.seed, tmp, clock, args.first), args.seconds)
        print(json.dumps([dataclasses.asdict(op) for op in ops]))
        return 0
    import_s = import_seconds(workload_cls.import_modules, clock)
    host_line = None
    if not args.trace:
        n = workload_cls.fresh_processes
        if n:
            groups = [_child_ops(args, args.seconds / n, p) for p in range(n)]
        else:
            groups = [_loop(workload_cls(args.seed, tmp, clock), args.seconds)]
        results = [op for group in groups for op in group]
        metrics = end_to_end(workload_cls, groups, import_s[0], "spans")
        host_line = {name: m["value"] for name, m in end_to_end(
            workload_cls, groups, import_s[1], "host_spans").items()}
    else:
        from attribution import LAYERS, LayerAttributor, src_lines

        attributor = LayerAttributor(SRC)
        workload = workload_cls(args.seed, tmp, clock)
        start = time.perf_counter()
        os.register_at_fork(after_in_child=_stop_profiling_in_child)
        reference, _ = run_op(workload, 0)
        profiler = cProfile.Profile()
        traced, op_s = [], []
        while not traced or _fits(start, op_s, args.seconds):
            t = time.perf_counter()
            traced.append(run_op(workload, len(traced) + 1, profiler))
            op_s.append(time.perf_counter() - t)
        results = [reference] + [op for op, _ in traced]
        profiled_wall = sum(body_s for _, body_s in traced)
        attribution = attributor.attribute(pstats.Stats(profiler).stats)
        metrics, closure_failures = per_layer(
            reference, [op for op, _ in traced], attribution, profiled_wall,
            src_lines(SRC), LAYERS,
        )
        results[0].failures += closure_failures

    # One commit and scenario seed must give one trace (or report), in
    # every process.
    first_digest: Dict[object, str] = {}
    for op in results:
        seed = op.fingerprint.get("seed")
        digest = op.fingerprint.get("trace_sha256", op.fingerprint.get("report_sha256"))
        if not digest:
            continue
        reference = first_digest.setdefault(seed, digest)
        if digest != reference:
            op.failed = op.attempted
            op.failures.append(
                f"sha256 {digest} != first operation's {reference} (seed {seed})")
    attempted = sum(op.attempted for op in results)
    failed = sum(op.failed for op in results)
    for op in results:
        for failure in op.failures:
            print(f"perfbench: {failure}", file=sys.stderr)
    if host_line is not None:
        print(json.dumps({"host_seconds": host_line}, sort_keys=True))
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "fingerprint": results[0].fingerprint}, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0 and not any(op.failures for op in results),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


def _metric(value: float, unit: str) -> Dict[str, object]:
    return {"value": value, "unit": unit}


def end_to_end(workload_cls, groups, import_s: float,
               field: str) -> Dict[str, Dict[str, object]]:
    """Medians over the run's operations of the user-visible metrics, from
    each operation's ``field`` (``spans`` or ``host_spans``).

    ``groups`` holds the operations of each process, in order.
    """
    ops = [op for group in groups for op in group]

    def spans(name: str, chosen=ops) -> List[float]:
        return [getattr(op, field)[name] for op in chosen if name in getattr(op, field)]

    setup_field = "setup_s" if field == "spans" else "host_setup_s"
    setup = [s for op in ops for s in getattr(op, setup_field)]
    if workload_cls.fresh_processes:
        # Sessions: each process's first operation, then the rest.
        cold = spans("total_s", [group[0] for group in groups])
        warm = spans("total_s", [op for group in groups for op in group[1:]])
    else:
        cold, warm = spans("cold_s"), spans("warm_s")
    return {
        "setup_s": _metric(import_s + _median(setup), "s"),
        "total_s": _metric(_median(spans("total_s")), "s"),
        "sim_speed": _metric(_median(spans("sim_speed")), "s/s"),
        "cold_s": _metric(_median(cold), "s"),
        "warm_s": _metric(_median(warm), "s"),
        "peak_rss_mb": _metric(peak_rss_mb(), "MB"),
    }


def per_layer(reference, traced, attribution, profiled_wall, lines, layers):
    """Per-layer metrics: profile-derived ones per traced operation, span
    and count metrics from the untraced reference operation."""
    n = len(traced)
    m: Dict[str, Dict[str, object]] = {}
    for layer in layers:
        m[f"{layer}.self_s"] = _metric(attribution.layer_self_s[layer] / n, "s")
        m[f"{layer}.calls"] = _metric(attribution.layer_calls[layer] / n, "count")
        m[f"{layer}.src_lines"] = _metric(lines[layer], "count")
    for name in sorted(attribution.hot_self_s):
        m[f"{name}.self_s"] = _metric(attribution.hot_self_s[name] / n, "s")
        m[f"{name}.calls"] = _metric(attribution.hot_calls[name] / n, "count")
    unattributed_s = profiled_wall - sum(attribution.layer_self_s.values())
    m["unattributed_s"] = _metric(unattributed_s / n, "s")
    m["traced_wall_s"] = _metric(profiled_wall / n, "s")
    m["run.pool_wait_s"] = _metric(attribution.pool_wait_s / n, "s")
    ref_total = reference.spans.get("total_s", 0.0)
    traced_total = _median([op.spans.get("total_s", 0.0) for op in traced])
    m["trace_overhead"] = _metric(traced_total / ref_total if ref_total else 0.0, "ratio")

    steps = reference.steps_ms
    m["sim.step_ms_p50"] = _metric(_percentile(steps, 50), "ms")
    m["sim.step_ms_p90"] = _metric(_percentile(steps, 90), "ms")
    for name, span in STAGE_SPANS.items():
        m[name] = _metric(reference.spans.get(span, 0.0), "s")
    for name, unit in COUNTS.items():
        m[name] = _metric(reference.counts.get(name, 0.0), unit)
    from workloads import FIGURES

    for figure in FIGURES:
        for phase in ("cold", "warm"):
            key = f"experiments.{figure}.{phase}_s"
            m[key] = _metric(reference.spans.get(key, 0.0), "s")
    for name, unit in FINGERPRINT_COUNTS.items():
        m[name] = _metric(reference.fingerprint.get(name, 0), unit)

    # Closure: attribution conserves profiled self time, and the layers
    # plus the unattributed rest account for the traced wall time.
    failures = []
    attributed = sum(attribution.layer_self_s.values()) + attribution.unattributed_s
    if abs(attributed - attribution.profiled_s) > 1e-6 * max(1.0, attribution.profiled_s):
        failures.append(
            f"closure: layers + unattributed = {attributed:.6f} s but "
            f"profiled self time = {attribution.profiled_s:.6f} s")
    if not 0.0 <= unattributed_s <= MAX_UNATTRIBUTED_SHARE * profiled_wall:
        failures.append(
            f"closure: unattributed {unattributed_s:.3f} s of "
            f"{profiled_wall:.3f} s traced wall time")
    return m, failures


if __name__ == "__main__":
    sys.exit(main())
