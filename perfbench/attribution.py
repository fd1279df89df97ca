"""Per-layer attribution of a cProfile run over the ``repro`` packages.

A layer is one package under ``src/repro/``.  Self time of a function
defined in a layer is charged to that layer.  Self time of everything else
(builtins, the standard library, numpy, ``repro`` modules outside the
layers) is charged to the nearest calling layer function through the
profiler's caller edges; time with no calling layer function above it
(the benchmark's own code, the interpreter) stays unattributed.  Every
second of profiled self time lands in exactly one bucket, which is what
the closure check relies on.
"""

from __future__ import annotations

import inspect
import os
from collections import defaultdict
from dataclasses import dataclass, field
from importlib import import_module
from pathlib import Path
from typing import Dict, Optional, Tuple

#: The layers, one per package under ``src/repro/``.
LAYERS = (
    "sim", "phy", "net", "app", "media", "cc", "mitigation",
    "core", "trace", "run", "experiments",
)

#: Hot functions reported on their own: metric prefix -> import path.
#: ``sim.events`` is the engine run loop; its call count is the number of
#: event callbacks it dispatched, not the number of times it was entered.
HOT_FUNCTIONS = {
    "phy.pending_grants_for": "repro.phy.scheduler:GnbScheduler.pending_grants_for",
    "cc.incoming_rate_kbps": "repro.cc.gcc:GccEstimator.incoming_rate_kbps",
    "phy.cross_traffic_packets": "repro.phy.crosstraffic:CrossTrafficSource._next_packet",
    "sim.events": "repro.sim.engine:Simulator.run_until",
}

#: Builtins the run loop calls itself; every other callee is an event.
_RUN_LOOP_BUILTINS = ("heappop", "heappush", "next", "max")

Func = Tuple[str, int, str]  # cProfile's (filename, first line, name)


def src_lines(src: Path) -> Dict[str, int]:
    """Non-blank lines of Python under ``src/repro/<layer>/`` per layer."""
    out: Dict[str, int] = {}
    for layer in LAYERS:
        total = 0
        for path in sorted((src / "repro" / layer).rglob("*.py")):
            with open(path, encoding="utf-8") as fh:
                total += sum(1 for line in fh if line.strip())
        out[layer] = total
    return out


def _resolve(path: str) -> Optional[Tuple[str, int, int]]:
    """(file, first line, last line) of ``module:Qual.name``, or None."""
    module_name, _, qualname = path.partition(":")
    try:
        obj = import_module(module_name)
        for part in qualname.split("."):
            obj = getattr(obj, part)
        obj = inspect.unwrap(obj)
        lines, first = inspect.getsourcelines(obj)
        filename = inspect.getsourcefile(obj)
    except (ImportError, AttributeError, OSError, TypeError):
        return None
    if filename is None:
        return None
    return os.path.realpath(filename), first, first + len(lines) - 1


@dataclass
class Attribution:
    """Self time and calls per layer and per hot function, plus the rest."""

    layer_self_s: Dict[str, float] = field(default_factory=dict)
    layer_calls: Dict[str, int] = field(default_factory=dict)
    hot_self_s: Dict[str, float] = field(default_factory=dict)
    hot_calls: Dict[str, int] = field(default_factory=dict)
    unattributed_s: float = 0.0  # profiled self time outside every layer
    profiled_s: float = 0.0  # all profiled self time
    pool_wait_s: float = 0.0  # parent blocked on worker results


class LayerAttributor:
    """Turns ``pstats``-style raw stats into an :class:`Attribution`."""

    def __init__(self, src: Path) -> None:
        self.prefix = os.path.realpath(src / "repro") + os.sep
        self._layer_cache: Dict[str, Optional[str]] = {}
        self.hot_spans = {
            name: span
            for name, span in (
                (name, _resolve(path)) for name, path in HOT_FUNCTIONS.items()
            )
            if span is not None
        }

    def layer_of(self, func: Func) -> Optional[str]:
        filename = func[0]
        if filename not in self._layer_cache:
            layer = None
            real = os.path.realpath(filename) if filename.endswith(".py") else ""
            if real.startswith(self.prefix):
                head = real[len(self.prefix):].split(os.sep, 1)[0]
                if head in LAYERS:
                    layer = head
            self._layer_cache[filename] = layer
        return self._layer_cache[filename]

    def _hot_of(self, func: Func) -> Optional[str]:
        """The hot function whose body defines ``func`` (itself or a
        generator/comprehension/lambda written inside it)."""
        real = os.path.realpath(func[0]) if func[0].endswith(".py") else ""
        for name, (filename, first, last) in self.hot_spans.items():
            if real != filename:
                continue
            if func[1] == first and not func[2].startswith("<"):
                return name
            if func[2].startswith("<") and first <= func[1] <= last:
                return name
        return None

    def attribute(self, stats: Dict[Func, tuple]) -> Attribution:
        """``stats`` is ``pstats.Stats(profile).stats``."""
        owners: Dict[Func, Dict[Optional[Func], float]] = {}
        visiting: set = set()

        def owner_share(func: Func) -> Dict[Optional[Func], float]:
            """Share of ``func``'s time owed to each nearest layer function
            above it (``None``: no layer function above it)."""
            if func in owners:
                return owners[func]
            if func in visiting or func not in stats:
                return {None: 1.0}
            visiting.add(func)
            callers = stats[func][4]
            weights = {c: edge[3] for c, edge in callers.items()}
            total = sum(weights.values())
            if total <= 0:
                weights = {c: edge[1] for c, edge in callers.items()}
                total = sum(weights.values())
            share: Dict[Optional[Func], float] = defaultdict(float)
            if total <= 0:
                share[None] = 1.0
            else:
                for caller, weight in weights.items():
                    if self.layer_of(caller) is not None:
                        share[caller] += weight / total
                    else:
                        for owner, part in owner_share(caller).items():
                            share[owner] += weight / total * part
            visiting.discard(func)
            owners[func] = dict(share)
            return owners[func]

        owned: Dict[Optional[Func], float] = defaultdict(float)
        profiled = 0.0
        for func, (_cc, _nc, tt, _ct, callers) in stats.items():
            profiled += tt
            if self.layer_of(func) is not None:
                owned[func] += tt
                continue
            # Split by the caller edges' self times, scaled so the parts sum
            # to ``tt`` exactly (recursive entries can skew the edges).
            charged = sum(edge[2] for edge in callers.values())
            if charged <= 0:
                owned[None] += tt
                continue
            for caller, edge in callers.items():
                part = tt * edge[2] / charged
                if self.layer_of(caller) is not None:
                    owned[caller] += part
                else:
                    for owner, frac in owner_share(caller).items():
                        owned[owner] += part * frac

        out = Attribution(
            layer_self_s={layer: 0.0 for layer in LAYERS},
            layer_calls={layer: 0 for layer in LAYERS},
            hot_self_s={name: 0.0 for name in HOT_FUNCTIONS},
            hot_calls={name: 0 for name in HOT_FUNCTIONS},
        )
        for owner, seconds in owned.items():
            if owner is None:
                out.unattributed_s += seconds
                continue
            out.layer_self_s[self.layer_of(owner)] += seconds
            hot = self._hot_of(owner)
            if hot is not None:
                out.hot_self_s[hot] += seconds
        # Attribution moves time between buckets but must not create or
        # lose any: the per-layer split closes on the profiled total.
        out.profiled_s = profiled
        for func, (_cc, nc, _tt, _ct, callers) in stats.items():
            layer = self.layer_of(func)
            if layer is not None:
                out.layer_calls[layer] += nc
                hot = self._hot_of(func)
                if hot is not None and hot != "sim.events" and func[2][0] != "<":
                    out.hot_calls[hot] += nc
            if func[0].endswith(os.sep.join(("concurrent", "futures", "_base.py"))) \
                    and func[2] == "result":
                out.pool_wait_s += stats[func][3]
        out.hot_calls["sim.events"] = self._events_dispatched(stats)
        return out

    def _events_dispatched(self, stats: Dict[Func, tuple]) -> int:
        span = self.hot_spans.get("sim.events")
        if span is None:
            return 0
        events = 0
        for func, (_cc, _nc, _tt, _ct, callers) in stats.items():
            if func[0] == "~" and any(b in func[2] for b in _RUN_LOOP_BUILTINS):
                continue
            for caller, edge in callers.items():
                if self._hot_of(caller) == "sim.events" and caller[2][0] != "<":
                    events += edge[1]
        return events

