"""Tests for ``repro.serve`` — the sharded multi-worker serving front-end.

The load-bearing guarantees pinned here:

* sharding and micro-batch planning are pure arithmetic with exact,
  pinnable outputs (round-robin assignment, deadline-aware flushes),
* a farm run on the spawn worker pool is **bit-identical** to the same
  plan executed sequentially in-process, for every worker count and
  compile level — the determinism contract of docs/serving.md,
* a hard worker crash is detected, the worker restarted, the shard task
  requeued, and the results are *still* bit-identical (tasks are pure),
* per-shard observability snapshots merge into one ``repro-obs/1``
  document whose counters/histograms equal a single registry that saw
  every sample,
* the ``repro.core.api`` facade (``build_farm``/``serve_frames``)
  validates its inputs and round-trips through the farm.
"""

import os
import signal
import time

import numpy as np
import pytest

import repro
from repro.core.api import RuntimeConfig, build_farm, serve_frames
from repro.plants import BeamLossPlant
from repro.hls import HLSConfig, convert
from repro.nn import Conv1D, Dense, Flatten, Input, Model, ReLU, Sigmoid
from repro.obs import MetricsRegistry, ObsConfig, Observability
from repro.serve import (
    BatchingPolicy,
    FarmSpec,
    ShardedNodeFarm,
    ShardPlan,
    WorkerCrashError,
    WorkerPool,
    merge_obs_snapshots,
    plan_microbatches,
    shard_seed,
)
from repro.serve.batching import backlog_arrivals, stream_arrivals
from repro.serve.merge import merge_histogram_summaries, merge_metrics_snapshots
from repro.soc.board import FRAME_PERIOD_S
from repro.soc.faults import (
    ACNETFault,
    FaultInjector,
    HubDelayFault,
    HubDropFault,
    IPHangFault,
    LostIRQFault,
    NoisyMonitorFault,
    SEUFault,
    StuckMonitorFault,
)

N_MONITORS = 16


@pytest.fixture(scope="module")
def tiny_model():
    inp = Input((N_MONITORS, 1), name="in")
    x = Conv1D(4, 3, seed=21, name="c1")(inp)
    x = ReLU(name="r1")(x)
    x = Dense(2, seed=23, name="d1")(x)
    x = Sigmoid(name="s1")(x)
    return Model(inp, Flatten(name="f1")(x), name="serve-tiny")


@pytest.fixture(scope="module")
def tiny_hls(tiny_model):
    return convert(tiny_model, HLSConfig())


def frames_for(n, seed=77):
    rng = np.random.default_rng(seed)
    return rng.normal(0.0, 1.0, size=(n, N_MONITORS))


def farm_for(hls, *, level=0, n_shards=3, obs=None, max_batch=4,
             arrival_mode="backlog", seed=3):
    return build_farm(
        hls,
        config=RuntimeConfig(compile_level=level, batch_inference=True),
        plant=BeamLossPlant(min_votes=1),
        obs=obs,
        n_shards=n_shards,
        batching=BatchingPolicy(max_batch=max_batch),
        seed=seed,
        arrival_mode=arrival_mode,
    )


# ----------------------------------------------------------------------
# Sharding: pure round-robin arithmetic
# ----------------------------------------------------------------------
class TestSharding:
    def test_round_robin_round_trip(self):
        plan = ShardPlan(n_frames=11, n_shards=3)
        for g in range(11):
            s, p = plan.shard_of(g), plan.local_of(g)
            assert plan.global_of(s, p) == g
        assert plan.shard_globals(0) == (0, 3, 6, 9)
        assert plan.shard_globals(1) == (1, 4, 7, 10)
        assert plan.shard_globals(2) == (2, 5, 8)
        assert [plan.shard_size(s) for s in range(3)] == [4, 4, 3]

    def test_gather_inverts_sharding(self):
        plan = ShardPlan(n_frames=10, n_shards=4)
        per_shard = [[g for g in plan.shard_globals(s)] for s in range(4)]
        assert plan.gather(per_shard) == list(range(10))

    def test_gather_validates_sizes(self):
        plan = ShardPlan(n_frames=6, n_shards=2)
        with pytest.raises(ValueError, match="expected 2 shard lists"):
            plan.gather([[0, 2, 4]])
        with pytest.raises(ValueError, match="shard 1"):
            plan.gather([[0, 2, 4], [1, 3]])

    def test_shard_seeds_are_independent_and_reproducible(self):
        draws = {}
        for shard in range(4):
            rng = np.random.default_rng(shard_seed(3, shard))
            draws[shard] = tuple(rng.integers(0, 2**63, size=4))
            again = np.random.default_rng(shard_seed(3, shard))
            assert tuple(again.integers(0, 2**63, size=4)) == draws[shard]
        assert len(set(draws.values())) == 4      # pairwise distinct
        other_farm = np.random.default_rng(shard_seed(4, 0))
        assert tuple(other_farm.integers(0, 2**63, size=4)) != draws[0]

    def test_validation(self):
        with pytest.raises(ValueError):
            ShardPlan(n_frames=4, n_shards=0)
        with pytest.raises(ValueError):
            shard_seed(0, -1)
        with pytest.raises(ValueError):
            ShardPlan(n_frames=4, n_shards=2).shard_globals(2)


# ----------------------------------------------------------------------
# Micro-batching: deterministic, pinnable plans
# ----------------------------------------------------------------------
class TestBatching:
    def test_backlog_fills_to_max_batch(self):
        plan = plan_microbatches(backlog_arrivals(10),
                                 BatchingPolicy(max_batch=4))
        assert plan == [(0, 4), (4, 8), (8, 10)]

    def test_zero_slack_stream_dispatches_singletons(self):
        plan = plan_microbatches(stream_arrivals(4, FRAME_PERIOD_S),
                                 BatchingPolicy(max_batch=8, slack_s=0.0))
        assert plan == [(0, 1), (1, 2), (2, 3), (3, 4)]

    def test_deadline_aware_early_flush(self):
        # Slack of 3 ticks, 1 ms predicted dispatch cost per queued
        # frame: the 4th frame would push the oldest past its deadline
        # (9 ms arrival + 4 ms dispatch > 0 ms + 9 ms slack), so every
        # batch flushes at 3 frames although max_batch is 32.
        policy = BatchingPolicy(max_batch=32, slack_s=3 * FRAME_PERIOD_S,
                                est_cost_per_frame_s=1e-3)
        plan = plan_microbatches(stream_arrivals(10, FRAME_PERIOD_S), policy)
        assert plan == [(0, 3), (3, 6), (6, 9), (9, 10)]

    def test_plan_covers_exactly_once_in_order(self):
        plan = plan_microbatches(stream_arrivals(23, FRAME_PERIOD_S),
                                 BatchingPolicy(max_batch=5))
        flat = [i for a, b in plan for i in range(a, b)]
        assert flat == list(range(23))

    def test_arrivals_must_be_sorted(self):
        with pytest.raises(ValueError, match="non-decreasing"):
            plan_microbatches([0.0, 2.0, 1.0], BatchingPolicy())

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            BatchingPolicy(max_batch=0)
        with pytest.raises(ValueError):
            BatchingPolicy(slack_s=-1.0)
        with pytest.raises(ValueError):
            BatchingPolicy(est_cost_per_frame_s=-1.0)


# ----------------------------------------------------------------------
# The determinism contract: pool == sequential reference, bit for bit
# ----------------------------------------------------------------------
class TestBitIdentity:
    @pytest.mark.parametrize("level", [0, 1, 2])
    def test_pool_matches_reference_across_worker_counts(self, tiny_hls,
                                                         level):
        frames = frames_for(24)
        farm = farm_for(tiny_hls, level=level)
        reference = farm.serve_reference(frames)
        assert len(reference.records) == 24
        assert not np.isnan(reference.outputs).any()
        for workers in (1, 2, 4):
            result = farm.serve(frames, workers=workers)
            assert result.records == reference.records, \
                f"workers={workers} level={level} diverged"
            assert np.array_equal(result.outputs, reference.outputs)
            assert result.health.worker_restarts == 0
            assert result.health.frames_total == 24

    def test_stream_arrival_mode_matches_reference(self, tiny_hls):
        frames = frames_for(18)
        farm = farm_for(tiny_hls, arrival_mode="stream", max_batch=8)
        reference = farm.serve_reference(frames)
        result = farm.serve(frames, workers=2)
        assert result.records == reference.records

    def test_records_interleave_in_global_order(self, tiny_hls):
        frames = frames_for(10)
        farm = farm_for(tiny_hls)
        result = farm.serve_reference(frames)
        assert [r.frame_index for r in
                result.by_shard[0]] == [0, 1, 2, 3]      # shard-local
        assert len(result.records) == 10
        # Row g of the output block belongs to global frame g: its
        # score column equals the gathered record's decision score.
        for g, record in enumerate(result.records):
            assert result.outputs[g, 0] == float(record.decision.score)


# ----------------------------------------------------------------------
# Crash recovery: requeued tasks stay bit-identical
# ----------------------------------------------------------------------
class TestCrashRecovery:
    def test_crashes_are_detected_requeued_and_identical(self, tiny_hls):
        frames = frames_for(18)
        farm = farm_for(tiny_hls)
        reference = farm.serve_reference(frames)
        result = farm.serve(frames, workers=2, chaos_crash_shards=(0, 2))
        assert result.health.worker_restarts == 2
        assert result.health.requeued_tasks == 2
        assert result.records == reference.records
        assert np.array_equal(result.outputs, reference.outputs)
        assert "worker restarts: 2" in result.health.render()

    def test_restart_budget_exhaustion_raises(self, tiny_hls):
        frames = frames_for(6)
        farm = farm_for(tiny_hls)
        with pytest.raises(WorkerCrashError, match="budget"):
            farm.serve(frames, workers=1, chaos_crash_shards=(1,),
                       max_restarts=0)

    def test_worker_exits_when_supervisor_dies_at_startup(self, tiny_hls):
        """A supervisor killed while its worker is still starting up
        (the SIGKILLed host agent of the partition tests) must not leave
        the worker orphaned: its parent-death guard fires anyway."""
        import multiprocessing

        ctx = multiprocessing.get_context("spawn")
        recv, send = ctx.Pipe(duplex=False)
        supervisor = ctx.Process(target=_start_one_worker_and_die,
                                 args=(FarmSpec(model=tiny_hls), send))
        supervisor.start()
        send.close()
        assert recv.poll(60), "supervisor never reported its worker"
        worker = recv.recv()
        supervisor.join(timeout=60)
        assert not supervisor.is_alive()
        deadline = time.monotonic() + 60
        while _alive(worker):
            assert time.monotonic() < deadline, "orphaned worker lives on"
            time.sleep(0.1)

    def test_pool_validation(self, tiny_hls):
        spec = FarmSpec(model=tiny_hls)
        with pytest.raises(ValueError):
            WorkerPool(spec, 0)
        with pytest.raises(ValueError):
            WorkerPool(spec, 1, max_restarts=-1)


def _start_one_worker_and_die(spec, send) -> None:
    """Supervisor process body: start a one-worker pool, report the
    worker's pid, and die at once without closing the pool."""
    pool = WorkerPool(spec, 1).start()
    send.send(pool.worker_pid(0))
    os._exit(0)


def _alive(pid: int) -> bool:
    """Whether *pid* still runs (a zombie awaiting its reaper does not)."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:  # no procfs: the signal probe is all there is
        return True


# ----------------------------------------------------------------------
# Farm-level chaos: speculation keeps pool == sequential, bit for bit
# ----------------------------------------------------------------------
class TestFarmChaos:
    SPECS = [
        HubDropFault(rate=0.03),
        HubDelayFault(rate=0.02, delay_s=4e-3),
        StuckMonitorFault(monitor=5, value=4.0, rate=0.03),
        NoisyMonitorFault(monitor=12, sigma=8.0, rate=0.03),
        IPHangFault(rate=0.02, extra_s=5e-3),
        LostIRQFault(rate=0.02),
        SEUFault(rate=0.03, ram="output", bit=15),
        ACNETFault(rate=0.03, failures=1),
    ]

    def chaos_farm(self, hls, *, speculation=True, obs=None):
        return build_farm(
            hls,
            config=RuntimeConfig(speculation=speculation),
            plant=BeamLossPlant(min_votes=1),
            obs=obs,
            injector=FaultInjector(self.SPECS, seed=99),
            n_shards=3,
            batching=BatchingPolicy(max_batch=16),
            seed=3,
            arrival_mode="backlog",
        )

    def test_pool_matches_reference_under_chaos(self, tiny_hls):
        frames = frames_for(220)
        farm = self.chaos_farm(tiny_hls)
        reference = farm.serve_reference(frames)

        # The speculative farm is bit-identical to the same farm with
        # speculation disabled (the all-sequential fault path).
        sequential = self.chaos_farm(tiny_hls, speculation=False)
        seq_ref = sequential.serve_reference(frames)
        assert reference.records == seq_ref.records
        assert seq_ref.health.frames_speculated == 0

        # The ladder actually engaged: faults fired, yet the majority of
        # the block rode the precomputed fast path.
        h = reference.health
        assert h.fault_counts, "chaos farm injected no faults"
        assert h.frames_speculated + h.frames_replayed == 220
        assert h.frames_speculated > 110
        assert sum(h.invalidation_counts.values()) == h.frames_replayed
        assert "speculation:" in h.render()

        for workers in (1, 2, 4):
            result = farm.serve(frames, workers=workers)
            assert result.records == reference.records, \
                f"workers={workers} diverged under chaos"
            assert np.array_equal(result.outputs, reference.outputs)
            rh = result.health
            assert rh.frames_speculated == h.frames_speculated
            assert rh.frames_replayed == h.frames_replayed
            assert rh.invalidation_counts == h.invalidation_counts

    def test_merged_obs_snapshot_carries_spec_counters(self, tiny_hls):
        frames = frames_for(36)
        farm = self.chaos_farm(tiny_hls, obs=ObsConfig(flight_frames=8))
        result = farm.serve(frames, workers=2)
        counters = result.obs["metrics"]["counters"]
        assert counters["spec.speculated"] == result.health.frames_speculated
        assert (counters.get("spec.replayed", 0)
                == result.health.frames_replayed)
        assert result.health.frames_speculated > 0
        per_shard = sum(s["metrics"]["counters"].get("spec.speculated", 0)
                        for s in result.obs["shards"])
        assert per_shard == counters["spec.speculated"]


# ----------------------------------------------------------------------
# Observability merging
# ----------------------------------------------------------------------
class TestObsMerge:
    def test_merged_histogram_equals_single_registry(self):
        buckets = (1e-3, 2e-3, 4e-3)
        shard_a, shard_b, whole = (MetricsRegistry() for _ in range(3))
        a_vals = [0.5e-3, 1.5e-3, 3e-3, 9e-3]
        b_vals = [0.2e-3, 1.1e-3, 1.9e-3]
        for v in a_vals:
            shard_a.histogram("lat", buckets_s=buckets).observe(v)
        for v in b_vals:
            shard_b.histogram("lat", buckets_s=buckets).observe(v)
        for v in a_vals + b_vals:
            whole.histogram("lat", buckets_s=buckets).observe(v)

        merged = merge_histogram_summaries(
            [shard_a.snapshot()["histograms"]["lat"],
             shard_b.snapshot()["histograms"]["lat"]])
        expected = whole.snapshot()["histograms"]["lat"]
        assert merged["count"] == expected["count"] == 7
        assert merged["mean"] == pytest.approx(expected["mean"])
        for q in ("p50", "p90", "p99", "max"):
            assert merged[q] == expected[q]
        assert merged["buckets"] == expected["buckets"]

    def test_farm_merges_shard_snapshots(self, tiny_hls):
        frames = frames_for(12)
        farm = farm_for(tiny_hls, obs=ObsConfig(flight_frames=8))
        result = farm.serve(frames, workers=2)
        obs = result.obs
        assert obs is not None
        assert obs["meta"]["format"] == "repro-obs/1"
        assert obs["meta"]["merged_shards"] == 3
        assert obs["meta"]["workers"] == 2
        assert obs["metrics"]["counters"]["frames.total"] == 12
        assert len(obs["shards"]) == 3
        shard_total = sum(s["metrics"]["counters"]["frames.total"]
                          for s in obs["shards"])
        assert shard_total == 12
        assert obs["recorder"]["frames_seen"] == 12

    def test_counters_sum_and_gauges_max(self):
        snaps = [
            {"metrics": {"counters": {"a": 2}, "gauges": {"g": 1.0},
                         "histograms": {}},
             "spans": {"count": 3, "dropped": 0,
                       "stages_sim": {}, "stages_wall": {}},
             "recorder": {"capacity": 4, "frames_seen": 3,
                          "retained": 3, "trips": 0}},
            {"metrics": {"counters": {"a": 5, "b": 1},
                         "gauges": {"g": 7.0}, "histograms": {}},
             "spans": {"count": 2, "dropped": 1,
                       "stages_sim": {}, "stages_wall": {}},
             "recorder": {"capacity": 4, "frames_seen": 2,
                          "retained": 2, "trips": 1}},
        ]
        merged = merge_obs_snapshots(snaps, include_shards=False)
        assert merged["metrics"]["counters"] == {"a": 7, "b": 1}
        assert merged["metrics"]["gauges"] == {"g": 7.0}
        assert merged["spans"] == {"count": 5, "dropped": 1,
                                   "stages_sim": {}, "stages_wall": {}}
        assert merged["recorder"]["trips"] == 1
        assert "shards" not in merged

    def test_heterogeneous_histogram_sets_merge(self):
        # Cross-host merges see uneven shards: a host that served no
        # frames ships no latency histogram at all, another ships an
        # empty one.  Metrics present on only some shards must merge
        # as if the others simply observed nothing.
        buckets = (1e-3, 4e-3)
        with_lat, without = MetricsRegistry(), MetricsRegistry()
        for v in (0.5e-3, 2e-3, 9e-3):
            with_lat.histogram("lat", buckets_s=buckets).observe(v)
        without.histogram("other", buckets_s=buckets).observe(1e-3)
        empty = MetricsRegistry()
        empty.histogram("lat", buckets_s=buckets)      # declared, unused
        snaps = [{"metrics": r.snapshot()}
                 for r in (with_lat, without, empty)]
        merged = merge_metrics_snapshots([s["metrics"] for s in snaps])
        assert set(merged["histograms"]) == {"lat", "other"}
        lat = merged["histograms"]["lat"]
        assert lat["count"] == 3 and lat["max"] == 9e-3
        solo = merge_histogram_summaries(
            [with_lat.snapshot()["histograms"]["lat"]])
        for q in ("count", "mean", "p50", "p90", "p99", "max"):
            assert lat[q] == solo[q]
        assert merged["histograms"]["other"]["count"] == 1

    def test_all_empty_histograms_merge_to_zero(self):
        merged = merge_histogram_summaries(
            [{"count": 0, "mean": 0.0, "max": 0.0, "buckets": []},
             {}])                           # host with no histogram data
        assert merged == {"count": 0, "mean": 0.0, "p50": 0.0,
                          "p90": 0.0, "p99": 0.0, "max": 0.0,
                          "buckets": []}

    def test_empty_counter_maps_and_mismatched_stages_merge(self):
        # One shard with empty counters/gauges, one missing the metrics
        # key entirely, and span stage sets that only partially overlap
        # (a remote host that never ran the publish stage).
        snaps = [
            {"metrics": {"counters": {}, "gauges": {}, "histograms": {}},
             "spans": {"count": 1, "dropped": 0,
                       "stages_sim": {"infer": {"count": 2,
                                                "mean_s": 2.0,
                                                "max_s": 3.0}},
                       "stages_wall": {}}},
            {"spans": {"count": 2, "dropped": 1,
                       "stages_sim": {"infer": {"count": 2,
                                                "mean_s": 4.0,
                                                "max_s": 5.0},
                                      "publish": {"count": 1,
                                                  "mean_s": 1.0,
                                                  "max_s": 1.0}},
                       "stages_wall": {"io": {"count": 0}}}},
            {"metrics": {"counters": {"frames.total": 4}}},
        ]
        merged = merge_obs_snapshots(snaps, include_shards=False,
                                     extra_meta={"transport": "hosts"})
        assert merged["meta"]["merged_shards"] == 3
        assert merged["meta"]["transport"] == "hosts"
        assert merged["metrics"]["counters"] == {"frames.total": 4}
        assert merged["metrics"]["gauges"] == {}
        stages = merged["spans"]["stages_sim"]
        assert stages["infer"] == {"count": 4, "mean_s": 3.0,
                                   "max_s": 5.0}   # count-weighted mean
        assert stages["publish"] == {"count": 1, "mean_s": 1.0,
                                     "max_s": 1.0}
        # a stage present only with zero count folds to the zero row
        assert merged["spans"]["stages_wall"]["io"] == {
            "count": 0, "mean_s": 0.0, "max_s": 0.0}
        assert merged["spans"]["count"] == 3
        assert merged["recorder"]["frames_seen"] == 0


# ----------------------------------------------------------------------
# The facade
# ----------------------------------------------------------------------
class TestServeFacade:
    def test_top_level_exports(self):
        assert repro.build_farm is build_farm
        assert repro.serve_frames is serve_frames

    def test_serve_frames_builds_and_serves(self, tiny_hls):
        frames = frames_for(9)
        result = serve_frames(tiny_hls, frames, workers=0, n_shards=3,
                              plant=BeamLossPlant(min_votes=1),
                              batching=BatchingPolicy(max_batch=4),
                              arrival_mode="backlog", seed=3)
        farm = farm_for(tiny_hls, max_batch=4)
        assert result.records == farm.serve_reference(frames).records

    def test_serve_frames_accepts_ready_farm(self, tiny_hls):
        frames = frames_for(6)
        farm = farm_for(tiny_hls)
        result = serve_frames(farm, frames, workers=0)
        assert result.records == farm.serve_reference(frames).records
        with pytest.raises(TypeError, match="ready farm"):
            serve_frames(farm, frames, workers=0,
                         config=RuntimeConfig())

    def test_build_farm_rejects_shared_observability(self, tiny_hls):
        with pytest.raises(TypeError, match="ObsConfig"):
            build_farm(tiny_hls,
                       obs=Observability.from_config(ObsConfig()))
        with pytest.raises(TypeError, match="ObsConfig"):
            build_farm(tiny_hls, obs=object())

    def test_farm_validation(self, tiny_hls):
        spec = FarmSpec(model=tiny_hls)
        with pytest.raises(ValueError, match="n_shards"):
            ShardedNodeFarm(spec, n_shards=0)
        with pytest.raises(ValueError, match="arrival_mode"):
            ShardedNodeFarm(spec, arrival_mode="poisson")
        farm = ShardedNodeFarm(spec, n_shards=2)
        with pytest.raises(ValueError, match="2-D"):
            farm.serve(np.zeros(4), workers=0)
        with pytest.raises(ValueError, match="workers"):
            farm.serve(frames_for(4), workers=-1)
        with pytest.raises(ValueError, match="chaos"):
            farm.serve(frames_for(4), workers=0, chaos_crash_shards=(0,))
        with pytest.raises(ValueError, match="outside"):
            farm.plan(4, chaos_crash_shards=(5,))

    def test_plan_is_deterministic(self, tiny_hls):
        farm = farm_for(tiny_hls, max_batch=4)
        assert farm.plan(10) == farm.plan(10)
        plan = farm.plan(10)
        assert plan.n_batches == sum(len(t.batches) for t in plan.tasks)
        assert plan.tasks[1].batches == ((0, 3),)      # 3 frames, 1 batch


# ----------------------------------------------------------------------
# Batching contracts: NaN rejection, backlog x cost-model interaction
# ----------------------------------------------------------------------
class TestBatchingContracts:
    def test_nan_arrivals_rejected(self):
        # NaN compares false against everything, so without the explicit
        # check it would sail through the monotonicity guard and poison
        # every deadline comparison (batch boundaries — and hence seeds
        # and records — would silently depend on NaN semantics).
        with pytest.raises(ValueError, match="NaN"):
            plan_microbatches([0.0, float("nan"), 0.0], BatchingPolicy())
        with pytest.raises(ValueError, match="NaN"):
            plan_microbatches([float("nan")], BatchingPolicy())

    def test_backlog_cost_model_splits_before_max_batch(self):
        arr = backlog_arrivals(9)
        # Cost model off (the default): batches fill to max_batch.
        assert plan_microbatches(arr, BatchingPolicy(max_batch=4)) == [
            (0, 4), (4, 8), (8, 9)]
        # Positive per-frame cost: even though every frame arrived at
        # t=0, the oldest frame's deadline is slack_s after arrival, so
        # the batch splits as soon as cost * (len + 1) > slack — here
        # at 3 frames, well before max_batch=8 (docstring contract of
        # backlog_arrivals).
        pol = BatchingPolicy(max_batch=8, slack_s=3e-3,
                             est_cost_per_frame_s=1e-3)
        assert plan_microbatches(arr, pol) == [(0, 3), (3, 6), (6, 9)]


# ----------------------------------------------------------------------
# Persistent warm pool: start_pool + supervision regressions
# ----------------------------------------------------------------------
class TestWarmPool:
    def test_warm_serves_are_bit_identical_to_cold_reference(self, tiny_hls):
        farm = farm_for(tiny_hls, n_shards=4)
        frames = frames_for(24)
        ref = farm.serve_reference(frames)
        with farm:
            pool = farm.start_pool(4)
            r1 = farm.serve(frames)
            r2 = farm.serve(frames)
            assert r1.records == ref.records
            assert r2.records == ref.records
            assert np.array_equal(r2.outputs, ref.outputs)
            assert pool.stats.worker_restarts == 0
            assert pool.alive_workers() == 4
            # The result pipes back the host agent's event loop: one
            # selectable Connection per live worker.
            conns = pool.result_connections()
            assert len(conns) == 4
            assert all(isinstance(c.fileno(), int) for c in conns)
            with pytest.raises(ValueError, match="fixed at start_pool"):
                farm.serve(frames, max_restarts=1)
            with pytest.raises(RuntimeError, match="already holds"):
                farm.start_pool(4)
        assert farm.pool is None

    def test_idle_worker_crash_respawns_to_full_strength(self, tiny_hls):
        # Regression: the old supervisor respawned only when *every*
        # worker was gone, so an idle casualty with survivors left a
        # 4-worker pool at 3 forever — and wasn't counted as a restart.
        farm = farm_for(tiny_hls, n_shards=4)
        frames = frames_for(24)
        ref = farm.serve_reference(frames)
        with farm:
            pool = farm.start_pool(4)
            farm.serve(frames)                       # pool is idle now
            t_kill = time.monotonic()
            wid = pool.worker_ids()[0]
            os.kill(pool.worker_pid(wid), signal.SIGKILL)
            deadline = time.monotonic() + 60
            while (pool.stats.worker_restarts < 1
                   and time.monotonic() < deadline):
                pool.pump(0.02)
            assert pool.stats.worker_restarts == 1   # counted
            while (pool.alive_workers() < 4
                   and time.monotonic() < deadline):
                time.sleep(0.02)
            assert pool.alive_workers() == 4         # held at strength
            # Regression: the respawn must refresh the stall clock —
            # recovery is progress, not a hang to time out on.
            assert pool._last_progress >= t_kill
            r = farm.serve(frames)
            assert r.records == ref.records
            assert r.health.worker_restarts == 0     # per-call delta
        assert pool.stats.worker_restarts == 1       # cumulative

    def test_drain_sleeps_instead_of_busy_spinning_without_pipes(
            self, tiny_hls):
        # Regression: with every result pipe down (workers mid-respawn
        # after a mass crash) the supervisor used to spin a zero-timeout
        # poll loop at 100% CPU.  A pipeless _drain must sleep.
        pool = WorkerPool(FarmSpec(model=tiny_hls), 2)
        t0_wall, t0_cpu = time.perf_counter(), time.process_time()
        for _ in range(5):
            assert pool._drain(0.03) is False
        wall = time.perf_counter() - t0_wall
        cpu = time.process_time() - t0_cpu
        assert wall >= 0.12          # it actually waited
        assert cpu < wall / 2        # ... by sleeping, not spinning
