"""The gNB grant backlog under overload: golden traces and owed-bits counts.

Fig 8's saturating cell is the regime where a UE's queue of unserved
requested grants grows deep.  The short golden sessions in
``test_multicall`` never build such a backlog, so the overload runs here
pin the scheduler's behaviour where it matters:

* trace hashes of two 6-s saturating sessions, captured before the
  scheduler kept a running owed-bits total, with a check that the backlog
  really does get deep;
* ``pending_grants_for`` equals the brute-force sum of every queued
  grant's remaining bits after every 10 ms step of real runs, with and
  without the §5.2 app-aware advisor injecting grants.
"""

from __future__ import annotations

import pytest

from repro.experiments.common import saturating_scenario
from repro.run.builder import SessionBuilder
from repro.run.scenario import ScenarioConfig
from repro.sim.units import seconds
from repro.trace.ids import use_id_space

from tests.test_multicall import trace_hash

#: trace_hash of ``saturating_scenario(duration_s=6.0, seed=s,
#: record_tbs=False)``, captured from the scheduler that re-summed every
#: pending grant on each query.
GOLDEN_OVERLOAD = {
    7: "711fefd7fa0832c854c7b4cde1c16359c1c2e10c7007d84fadd94d1a233e1ca2",
    11: "87ac9cc0a0434f2287ad596ee6f65252f4714eb3a78a05b698030e03fe365975",
}

STEP_US = 10_000


def _owed_mismatches(sched, ue_ids):
    """(ue, counter, brute-force sum) for every UE whose counts disagree."""
    bad = []
    for ue_id in ue_ids:
        brute = sum(g.remaining_bits for g in sched._pending.get(ue_id, ()))
        owed = sched.pending_grants_for(ue_id)
        if owed != brute:
            bad.append((ue_id, owed, brute))
    return bad


def _stepped_run(config: ScenarioConfig):
    """Run a session in 10 ms steps, checking the owed-bits count after each.

    Returns the session context, its trace, the deepest per-UE grant queue
    seen at a step boundary, and the first few owed-bits mismatches.
    """
    builder = SessionBuilder(config)
    end_us = seconds(config.duration_s)
    peak = 0
    mismatches = []
    with use_id_space(builder.id_space):
        ctx = builder.build()
        builder.start(ctx)
        sched = ctx.ran.scheduler
        now_us = 0
        while now_us < end_us:
            now_us = min(now_us + STEP_US, end_us)
            ctx.sim.run_until(now_us)
            peak = max([peak, *(len(q) for q in sched._pending.values())])
            if len(mismatches) < 5:
                mismatches += _owed_mismatches(sched, ctx.ran._ues)
    ctx.sink.close()
    return ctx, ctx.sink.result_trace(), peak, mismatches


@pytest.fixture(scope="module")
def overload_runs():
    return {
        seed: _stepped_run(
            saturating_scenario(duration_s=6.0, seed=seed, record_tbs=False)
        )
        for seed in sorted(GOLDEN_OVERLOAD)
    }


@pytest.mark.parametrize("seed", sorted(GOLDEN_OVERLOAD))
def test_overload_golden_hash(overload_runs, seed):
    _, trace, peak, _ = overload_runs[seed]
    assert peak >= 30, "the saturating cell no longer builds a grant backlog"
    assert trace_hash(trace) == GOLDEN_OVERLOAD[seed]


@pytest.mark.parametrize("seed", sorted(GOLDEN_OVERLOAD))
def test_owed_bits_match_queue_under_overload(overload_runs, seed):
    *_, mismatches = overload_runs[seed]
    assert mismatches == []


def test_owed_bits_match_queue_with_advisor_grants():
    config = ScenarioConfig(duration_s=2.0, seed=6, aware_ran=True,
                            fixed_bitrate_kbps=900.0, record_tbs=False)
    ctx, _, _, mismatches = _stepped_run(config)
    assert ctx.calls[0].advisor.grants_issued > 50
    assert mismatches == []

