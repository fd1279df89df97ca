"""Shared scenario presets for the per-figure experiments.

Durations are scaled down from the paper's 20-minute session so every
figure regenerates in seconds on a laptop; pass ``duration_s`` explicitly
to run at paper scale.
"""

from __future__ import annotations

from typing import Optional, Sequence, Union

from ..app.session import ScenarioConfig, SessionResult, run_session
from ..phy.params import CrossTrafficConfig, CrossTrafficPhase, RanConfig
from ..run.batch import RunSpec, run_batch
from ..run.cache import CachedSessionResult, ScenarioCache
from ..sim.units import seconds

#: Process-wide scenario cache shared by every figure script in one
#: ``reproduce-all`` invocation, so figures that run the same baseline
#: scenario (idle cell, phased cross traffic, ...) simulate it once.
_EXPERIMENT_CACHE: Optional[ScenarioCache] = None


def set_experiment_cache(cache: Optional[ScenarioCache]) -> None:
    """Install (or clear with ``None``) the shared figure-script cache."""
    global _EXPERIMENT_CACHE
    _EXPERIMENT_CACHE = cache


def experiment_cache() -> Optional[ScenarioCache]:
    """The currently installed shared cache, if any."""
    return _EXPERIMENT_CACHE


def _as_is(result: CachedSessionResult) -> CachedSessionResult:
    return result


def cached_run_session(
    config: ScenarioConfig,
) -> Union[SessionResult, CachedSessionResult]:
    """``run_session`` through the shared experiment cache when installed.

    With no cache installed this is exactly ``run_session(config)``.  With a
    cache, the run goes through :func:`~repro.run.batch.run_batch`: hits
    rehydrate the stored columnar payload, and misses simulate, store, and
    return the same rehydrated :class:`CachedSessionResult`, so a cold and
    a warm pass hand figure scripts the same kind of result.  Figure
    scripts that only read the result's data surface
    (``trace``/``summary``/``diagnosis``/``qoe``) can use this as a drop-in
    replacement.
    """
    cache = _EXPERIMENT_CACHE
    if cache is None:
        return run_session(config)
    runs = run_batch(
        [RunSpec("cached", config)], collect=_as_is, jobs=1, cache=cache
    )
    return runs[0].value


def idle_cell_scenario(
    duration_s: float = 30.0, seed: int = 7, **overrides
) -> ScenarioConfig:
    """Monitored UE alone in the cell (Figs 5, 9a, 10, §5 benches)."""
    return ScenarioConfig(
        duration_s=duration_s,
        seed=seed,
        access="5g",
        cross_traffic=None,
        **overrides,
    )


def cross_traffic_scenario(
    duration_s: float = 80.0,
    seed: int = 7,
    phase_rates_mbps: Sequence[float] = (0.0, 14.0, 16.0, 18.0),
    ran: Optional[RanConfig] = None,
    **overrides,
) -> ScenarioConfig:
    """The paper's §2 experiment: phased cross traffic from six mobiles.

    The paper uses four five-minute phases at 0/14/16/18 Mbps; by default
    we keep the phase structure but compress each phase to a quarter of the
    run.
    """
    phase_len = seconds(duration_s / len(phase_rates_mbps))
    phases = [
        CrossTrafficPhase(start_us=i * phase_len, rate_kbps=rate * 1_000)
        for i, rate in enumerate(phase_rates_mbps)
    ]
    return ScenarioConfig(
        duration_s=duration_s,
        seed=seed,
        access="5g",
        ran=ran or RanConfig(),
        cross_traffic=CrossTrafficConfig(phases=phases),
        **overrides,
    )


def saturating_scenario(
    duration_s: float = 90.0,
    seed: int = 7,
    overload_mbps: float = 34.0,
    **overrides,
) -> ScenarioConfig:
    """Cross traffic briefly exceeding uplink capacity (drives Fig 8's
    >1 s delay spikes and the persistent 14 fps adaptation)."""
    third = seconds(duration_s / 3)
    phases = [
        CrossTrafficPhase(start_us=0, rate_kbps=10_000),
        CrossTrafficPhase(start_us=third, rate_kbps=overload_mbps * 1_000),
        CrossTrafficPhase(start_us=2 * third, rate_kbps=8_000),
    ]
    return ScenarioConfig(
        duration_s=duration_s,
        seed=seed,
        access="5g",
        cross_traffic=CrossTrafficConfig(phases=phases),
        **overrides,
    )


def emulated_scenario(
    duration_s: float = 30.0,
    seed: int = 7,
    rate_kbps: float = 0.0,
    **overrides,
) -> ScenarioConfig:
    """The Fig 7 wired baseline: tc-shaped link at the cell's capacity with
    a fixed 15 ms latency."""
    return ScenarioConfig(
        duration_s=duration_s,
        seed=seed,
        access="emulated",
        emulated_rate_kbps=rate_kbps,
        record_tbs=False,
        **overrides,
    )
