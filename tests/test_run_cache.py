"""Content-addressed scenario result cache (repro.run.cache).

The correctness oracle throughout is byte-identity: a cache hit must be
indistinguishable — down to serialized JSONL bytes — from re-running the
simulation.  Everything else (fingerprint stability, corruption recovery,
LRU eviction) protects that property or bounds the store.
"""

from __future__ import annotations

import filecmp
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.run import RunSpec, ScenarioCache, run_batch, run_session
from repro.run.batch import collect_qoe, run_batch_traces, sweep_grid
from repro.run.cache import (
    cache_entry_from_result,
    canonical_scenario,
    code_version_token,
    scenario_fingerprint,
    scenario_key,
)
from repro.run.scenario import CallSpec, ScenarioConfig
from repro.trace import save_trace

SRC_DIR = Path(__file__).resolve().parent.parent / "src"


def _config(**overrides) -> ScenarioConfig:
    defaults = dict(duration_s=0.4, seed=7, record_tbs=False)
    defaults.update(overrides)
    return ScenarioConfig(**defaults)


# ---------------------------------------------------------------------------
# fingerprints


class TestFingerprint:
    def test_stable_within_process(self):
        a = scenario_fingerprint(_config())
        b = scenario_fingerprint(_config())
        assert a == b

    def test_stable_across_interpreter_restarts(self):
        script = (
            "from repro.run.cache import scenario_fingerprint\n"
            "from repro.run.scenario import ScenarioConfig\n"
            "print(scenario_fingerprint("
            "ScenarioConfig(duration_s=0.4, seed=7, record_tbs=False)))\n"
        )
        env = dict(os.environ, PYTHONPATH=str(SRC_DIR), PYTHONHASHSEED="")
        outs = set()
        for seed in ("0", "1"):  # different hash randomization per run
            env["PYTHONHASHSEED"] = seed
            outs.add(
                subprocess.run(
                    [sys.executable, "-c", script],
                    check=True, capture_output=True, text=True, env=env,
                ).stdout.strip()
            )
        assert len(outs) == 1
        assert outs == {scenario_fingerprint(_config())}

    def test_semantic_fields_change_the_key(self):
        base = scenario_fingerprint(_config())
        assert scenario_fingerprint(_config(seed=8)) != base
        assert scenario_fingerprint(_config(access="emulated")) != base
        assert scenario_fingerprint(_config(live_analysis=True)) != base

    def test_legacy_and_single_call_modes_differ(self):
        # calls=None (legacy RNG stream names) vs an explicit one-call
        # list run different RNG streams; they must never share a key.
        legacy = scenario_fingerprint(_config(calls=None))
        single = scenario_fingerprint(_config(calls=[CallSpec(call_id=0)]))
        assert legacy != single

    def test_call_overrides_resolved_into_key(self):
        inherit = _config(calls=[CallSpec(call_id=0)], jitter_buffer_margin_ms=12.0)
        explicit = _config(
            calls=[CallSpec(call_id=0, jitter_buffer_margin_ms=12.0)],
            jitter_buffer_margin_ms=12.0,
        )
        # The override equals the inherited value: same resolved scenario.
        assert scenario_key(inherit) == scenario_key(explicit)

    def test_salt_bump_invalidates(self):
        config = _config()
        assert scenario_fingerprint(config) == scenario_fingerprint(
            config, salt=code_version_token()
        )
        assert scenario_fingerprint(config) != scenario_fingerprint(
            config, salt="2.0.0+deadbeefdeadbeef"
        )

    def test_canonical_form_is_json_stable(self):
        canon = canonical_scenario(_config(calls=[CallSpec(call_id=0)]))
        dumped = json.dumps(canon, sort_keys=True)
        assert json.loads(dumped) == json.loads(json.dumps(canon, sort_keys=True))


# ---------------------------------------------------------------------------
# store behaviour


def _through(cache: ScenarioCache, config: ScenarioConfig):
    """One scenario through the store's only caller: hit or simulate+store."""
    runs = run_batch(
        [RunSpec("x", config)], collect=lambda result: result, jobs=1,
        cache=cache,
    )
    return runs[0].value


def _entry_bytes(n: int):
    """Deterministic ``(payload, summary)`` for synthetic key ``n``."""
    return f"payload-{n}-".encode() * (4 + n % 5), f"summary-{n}".encode()


class TestStore:
    def test_roundtrip_and_stats(self, tmp_path):
        cache = ScenarioCache(cache_dir=tmp_path / "c")
        config = _config()
        cold = _through(cache, config)
        assert cache.misses == 1 and cache.hits == 0
        warm = _through(cache, config)
        assert cache.hits == 1
        assert type(cold) is type(warm)
        assert warm.qoe().medians() == run_session(config).qoe().medians()
        assert warm.qoe().medians() == cold.qoe().medians()
        stats = cache.stats()
        assert stats["entries"] == 1
        assert stats["total_bytes"] > 0
        assert stats["salt"] == code_version_token()

    def test_hit_jsonl_byte_identical_to_fresh_run(self, tmp_path):
        cache = ScenarioCache(cache_dir=tmp_path / "c")
        for seed in (7, 8):
            for access in ("5g", "emulated"):
                config = _config(seed=seed, access=access)
                _through(cache, config)  # populate
                hits = cache.hits
                hit = _through(cache, config)
                assert cache.hits == hits + 1
                fresh_path = tmp_path / "fresh.jsonl"
                hit_path = tmp_path / "hit.jsonl"
                save_trace(run_session(config).trace, str(fresh_path))
                save_trace(hit.trace, str(hit_path))
                assert filecmp.cmp(fresh_path, hit_path, shallow=False), (
                    f"cache hit diverged for seed={seed} access={access}"
                )

    def test_entries_survive_reopen(self, tmp_path):
        config = _config()
        _through(ScenarioCache(cache_dir=tmp_path / "c"), config)
        reopened = ScenarioCache(cache_dir=tmp_path / "c")
        assert len(reopened) == 1
        assert reopened.get(scenario_fingerprint(config)) is not None
        assert reopened.hits == 1

    def test_two_instances_share_one_directory(self, tmp_path):
        # Regression: each instance used to rewrite a shared index from
        # its own view, so the last writer silently orphaned the other's
        # entry (on disk, never served, never counted, never evicted).
        a, b = "aa" + "0" * 62, "bb" + "0" * 62
        ScenarioCache(cache_dir=tmp_path / "c").put(a, *_entry_bytes(1))
        ScenarioCache(cache_dir=tmp_path / "c").put(b, *_entry_bytes(2))
        fresh = ScenarioCache(cache_dir=tmp_path / "c")
        assert fresh.get(a) == _entry_bytes(1)
        assert fresh.get(b) == _entry_bytes(2)
        assert fresh.hits == 2 and len(fresh) == 2
        on_disk = sum(
            p.stat().st_size for p in (tmp_path / "c").rglob("*") if p.is_file()
        )
        assert fresh.total_bytes == on_disk

    def test_stale_salt_clears_store(self, tmp_path, monkeypatch):
        # Entries written under another code version are never served, and
        # when the store outgrows its cap they go before any current entry.
        import repro.run.cache as cache_module

        cache = ScenarioCache(cache_dir=tmp_path / "c", max_bytes=500)
        key = "aa" + "0" * 62
        stale = ScenarioCache(cache_dir=tmp_path / "c", max_bytes=500)
        monkeypatch.setattr(
            cache_module, "code_version_token", lambda: "0.0.0+0000000000000000"
        )
        stale.put(key, b"x" * 100, b"x" * 100)
        monkeypatch.undo()
        stale_dir = tmp_path / "c" / "objects" / "0.0.0+0000000000000000"
        assert stale_dir.is_dir()
        assert cache.get(key) is None  # same key, other salt: a miss
        assert len(cache) == 0
        current = ["bb" + "0" * 62, "cc" + "0" * 62]
        for other in current:
            cache.put(other, b"x" * 100, b"x" * 100)  # 2nd put overflows 500
        assert not stale_dir.exists()
        assert cache.evictions == 0
        assert all(cache.get(other) is not None for other in current)

    def test_corrupted_entry_is_a_miss_then_heals(self, tmp_path):
        config = _config()
        cache = ScenarioCache(cache_dir=tmp_path / "c")
        payload, summary = cache_entry_from_result(run_session(config))
        key = scenario_fingerprint(config)
        cache.put(key, payload, summary)
        entry_path = cache._entry_path(key)
        raw = entry_path.read_bytes()
        entry_path.write_bytes(raw[: len(raw) // 2])  # truncate mid-payload
        assert cache.get(key) is None  # corrupt -> miss
        assert cache.misses == 1
        assert len(cache) == 0  # dropped, not retried forever
        cache.put(key, payload, summary)  # re-simulated result re-stores
        assert cache.get(key) == (payload, summary)

    def test_garbage_magic_is_a_miss(self, tmp_path):
        key = "ab" + "0" * 62
        cache = ScenarioCache(cache_dir=tmp_path / "c")
        cache.put(key, *_entry_bytes(1))
        cache._entry_path(key).write_bytes(b"not a cache entry")
        assert cache.get(key) is None

    def test_lru_eviction_under_small_cap(self, tmp_path):
        entry = b"x" * 100
        cache = ScenarioCache(cache_dir=tmp_path / "c", max_bytes=400)
        keys = [f"{i:02d}" + "0" * 62 for i in range(3)]
        for key in keys:
            cache.put(key, entry, entry)
        assert len(cache) == 1  # each entry ~222 bytes; cap keeps one
        assert cache.evictions == 2
        assert cache.get(keys[-1]) is not None  # newest survived
        assert cache.get(keys[0]) is None

    def test_lru_prefers_recently_hit(self, tmp_path):
        entry = b"x" * 30
        cache = ScenarioCache(cache_dir=tmp_path / "c", max_bytes=200)
        a, b = "aa" + "0" * 62, "bb" + "0" * 62
        cache.put(a, entry, entry)
        cache.put(b, entry, entry)
        assert len(cache) == 2
        assert cache.get(a) is not None  # touch a: b becomes LRU
        cache.put("cc" + "0" * 62, entry, entry)  # overflows the cap
        assert cache.get(a) is not None
        assert cache.get(b) is None

    def test_lru_across_instances_follows_mtime(self, tmp_path):
        # A fresh instance has no access history: a hit's mtime touch is
        # what carries recency from one process to the next.
        entry = b"x" * 30
        a, b = "aa" + "0" * 62, "bb" + "0" * 62
        writer = ScenarioCache(cache_dir=tmp_path / "c")
        writer.put(a, entry, entry)
        writer.put(b, entry, entry)
        os.utime(writer._entry_path(a), ns=(1_000_000_000, 1_000_000_000))
        os.utime(writer._entry_path(b), ns=(2_000_000_000, 2_000_000_000))
        reader = ScenarioCache(cache_dir=tmp_path / "c")
        assert reader.get(a) is not None  # touches a's mtime: now newest
        cache = ScenarioCache(cache_dir=tmp_path / "c", max_bytes=200)
        cache.put("cc" + "0" * 62, entry, entry)  # overflows the cap
        assert cache.get(a) is not None
        assert cache.get(b) is None

    def test_failed_replace_leaves_no_temp_file(self, tmp_path, monkeypatch):
        # A temp object stranded by a failed write would never count toward
        # max_bytes nor be evicted; the failure must stay a plain miss.
        import repro.atomicio

        def fail(src, dst):
            raise OSError("simulated replace failure")

        key = "ee" + "0" * 62
        cache = ScenarioCache(cache_dir=tmp_path / "c")
        monkeypatch.setattr(repro.atomicio.os, "replace", fail)
        cache.put(key, b"payload", b"summary")  # no exception
        monkeypatch.undo()
        assert [p for p in (tmp_path / "c").rglob("*") if p.is_file()] == []
        assert len(cache) == 0
        assert cache.get(key) is None
        assert cache.misses == 1
        cache.put(key, b"payload", b"summary")  # later writes still land
        assert cache.get(key) == (b"payload", b"summary")

    def test_clear_reports_removed(self, tmp_path):
        cache = ScenarioCache(cache_dir=tmp_path / "c")
        cache.put("dd" + "0" * 62, b"p", b"s")
        assert cache.clear() == 1
        assert len(cache) == 0
        assert cache.total_bytes == 0

    def test_clear_removes_legacy_index(self, tmp_path):
        # Older versions kept a JSON index (written through index*.tmp
        # temp files) beside objects/<k[:2]>/<k>; clear leaves none of it.
        root = tmp_path / "c"
        legacy_entry = root / "objects" / "dd" / ("dd" + "0" * 62)
        legacy_entry.parent.mkdir(parents=True)
        legacy_entry.write_bytes(b"old entry")
        (root / "index.json").write_text("{}", encoding="utf-8")
        (root / "indexab12.tmp").write_text("{", encoding="utf-8")
        cache = ScenarioCache(cache_dir=root)
        cache.put("ee" + "0" * 62, b"p", b"s")
        assert cache.clear() == 2
        assert list(root.rglob("*")) == []

    def test_concurrent_writers_stay_consistent(self, tmp_path):
        # Four processes race puts (keys 0-3 shared by all) and evictions
        # through one small store.  Every file left must be a whole,
        # servable entry, and a single later put restores the cap.
        max_bytes = 1500
        script = (
            "import sys\n"
            "from repro.run.cache import ScenarioCache\n"
            "root, worker = sys.argv[1], int(sys.argv[2])\n"
            f"cache = ScenarioCache(root, max_bytes={max_bytes})\n"
            "for i in range(10):\n"
            "    n = i if i < 4 else 100 * worker + i\n"
            "    payload = f'payload-{n}-'.encode() * (4 + n % 5)\n"
            "    cache.put(f'{n:064x}', payload, f'summary-{n}'.encode())\n"
            "    cache.get(f'{(n * 7) % 10:064x}')\n"
        )
        root = tmp_path / "c"
        env = dict(os.environ, PYTHONPATH=str(SRC_DIR))
        procs = [
            subprocess.Popen(
                [sys.executable, "-c", script, str(root), str(worker)], env=env
            )
            for worker in range(4)
        ]
        assert [proc.wait(timeout=120) for proc in procs] == [0] * 4
        assert list(root.rglob("*.tmp")) == []
        fresh = ScenarioCache(cache_dir=root, max_bytes=max_bytes)
        files = [p for p in root.rglob("*") if p.is_file()]
        assert files and len(fresh) == len(files)
        for path in files:
            assert fresh.get(path.name) == _entry_bytes(int(path.name, 16))
        fresh.put(f"{999:064x}", *_entry_bytes(999))
        on_disk = sum(p.stat().st_size for p in root.rglob("*") if p.is_file())
        assert fresh.total_bytes == on_disk <= max_bytes


# ---------------------------------------------------------------------------
# batch wiring


class TestBatchWiring:
    def _specs(self):
        return [
            RunSpec("a", _config(seed=7)),
            RunSpec("b", _config(seed=8)),
            RunSpec("a2", _config(seed=7)),  # duplicate of "a"
        ]

    def test_cold_then_warm(self, tmp_path):
        cache = ScenarioCache(cache_dir=tmp_path / "c")
        cold = run_batch(self._specs(), collect=collect_qoe, jobs=2, cache=cache)
        assert cache.misses == 2 and cache.hits == 0  # in-flight dedup
        assert len(cache) == 2
        warm_cache = ScenarioCache(cache_dir=tmp_path / "c")
        warm = run_batch(
            self._specs(), collect=collect_qoe, jobs=2, cache=warm_cache
        )
        assert warm_cache.hits == 2 and warm_cache.misses == 0
        assert [r.value.medians() for r in cold] == [
            r.value.medians() for r in warm
        ]
        assert [r.label for r in warm] == ["a", "b", "a2"]

    def test_partial_hit_batch(self, tmp_path):
        cache = ScenarioCache(cache_dir=tmp_path / "c")
        run_batch([RunSpec("a", _config(seed=7))], collect=collect_qoe,
                  jobs=1, cache=cache)
        cache2 = ScenarioCache(cache_dir=tmp_path / "c")
        runs = run_batch(self._specs(), collect=collect_qoe, jobs=2,
                         cache=cache2)
        assert cache2.hits == 1 and cache2.misses == 1
        assert len(runs) == 3

    def test_cached_traces_match_uncached(self, tmp_path):
        specs = sweep_grid(
            _config(), [7, 8], {"5g": {"access": "5g"}}
        )
        plain = run_batch_traces(specs, jobs=2)
        cache = ScenarioCache(cache_dir=tmp_path / "c")
        run_batch_traces(specs, jobs=2, cache=cache)  # populate
        cached = run_batch_traces(specs, jobs=2, cache=cache)
        assert cache.hits == len(specs)
        for a, b in zip(plain, cached):
            pa = tmp_path / "a.jsonl"
            pb = tmp_path / "b.jsonl"
            save_trace(a.value, str(pa))
            save_trace(b.value, str(pb))
            assert filecmp.cmp(pa, pb, shallow=False)

    def test_collector_runs_identically_for_hits_and_misses(self, tmp_path):
        seen = []

        def probe(result):
            seen.append(type(result).__name__)
            return result.qoe().medians()

        cache = ScenarioCache(cache_dir=tmp_path / "c")
        config = _config()
        miss = run_batch([RunSpec("x", config)], collect=probe, jobs=1,
                         cache=cache)
        hit = run_batch([RunSpec("x", config)], collect=probe, jobs=1,
                        cache=cache)
        # Hits AND misses rehydrate through the same CachedSessionResult
        # path, so collector output is identical by construction.
        assert seen == ["CachedSessionResult", "CachedSessionResult"]
        assert miss[0].value == hit[0].value

    def test_cached_run_session_same_kind_cold_and_warm(self, tmp_path):
        from repro.experiments.common import (
            cached_run_session,
            set_experiment_cache,
        )
        from repro.run.cache import CachedSessionResult

        cache = ScenarioCache(cache_dir=tmp_path / "c")
        config = _config()
        set_experiment_cache(cache)
        try:
            cold = cached_run_session(config)
            warm = cached_run_session(config)
        finally:
            set_experiment_cache(None)
        assert cache.misses == 1 and cache.hits == 1
        assert isinstance(cold, CachedSessionResult)
        assert isinstance(warm, CachedSessionResult)
        assert cold.qoe().medians() == warm.qoe().medians()


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-v"]))
