"""Integration tests for the hardened `CentralNodeRuntime`: degradation
ladder, fallback hysteresis, fault-free bit-identity and the chaos sweep
(zero silent failures)."""

import numpy as np
import pytest

from repro.beamloss.controller import TripController
from repro.beamloss.hubs import HubNetwork
from repro.hls import HLSConfig, convert
from repro.soc import runtime as runtime_module
from repro.soc.board import FRAME_PERIOD_S, AchillesBoard
from repro.soc.faults import (
    ACNETFault,
    FaultInjector,
    FaultKind,
    HubDelayFault,
    HubDropFault,
    IPHangFault,
    LostIRQFault,
    NoisyMonitorFault,
    SEUFault,
    StuckMonitorFault,
)
from repro.soc.ip_core import BATCH_BLOCK_FRAMES
from repro.soc.runtime import (
    ENGINE_FALLBACK,
    ENGINE_PRIMARY,
    STATUS_CORRUPT,
    STATUS_DEGRADED,
    STATUS_OK,
    STATUS_STALE,
    STATUS_WATCHDOG,
    CentralNodeRuntime,
    DegradationPolicy,
)

N_MONITORS = 16
N_HUBS = 4


@pytest.fixture(scope="module")
def tiny_hls(tiny_model):
    return convert(tiny_model, HLSConfig())


@pytest.fixture(scope="module")
def frames():
    rng = np.random.default_rng(42)
    return rng.normal(0.0, 1.0, size=(220, N_MONITORS))


def make_runtime(tiny_hls, specs=None, seed=2024, with_fallback=True,
                 batch=True, speculation=True, **policy_kw):
    """A fresh runtime over tiny boards (identical primary/fallback)."""
    return CentralNodeRuntime(
        board=AchillesBoard(tiny_hls),
        fallback_board=AchillesBoard(tiny_hls) if with_fallback else None,
        hubs=HubNetwork(n_monitors=N_MONITORS, n_hubs=N_HUBS),
        controller=TripController(min_votes=1),
        injector=(FaultInjector(specs, seed=seed)
                  if specs is not None else None),
        policy=DegradationPolicy(**policy_kw),
        batch_inference=batch,
        speculation=speculation,
    )


class TestFaultFreeEquivalence:
    """With no injector the hardened loop must be bit-identical to the
    plain hubs → board.run(paced) → controller pipeline."""

    def test_bit_identical_records(self, tiny_hls, frames):
        n = 40
        runtime = make_runtime(tiny_hls, with_fallback=False)
        records = runtime.run(frames[:n], seed=5)

        # Reconstruct the unhardened pipeline with the same seed stream.
        from repro.soc.runtime import derive_stream_seeds
        hub_seed, board_seed = derive_stream_seeds(5, 0)
        hubs = HubNetwork(n_monitors=N_MONITORS, n_hubs=N_HUBS)
        arrivals = hubs.arrival_times(n, seed=hub_seed)
        board = AchillesBoard(tiny_hls)
        result = board.run(frames[:n], seed=board_seed, paced=True)
        controller = TripController(min_votes=1)

        assert len(records) == n
        for i, r in enumerate(records):
            assert r.status == STATUS_OK
            assert r.engine == ENGINE_PRIMARY
            assert not r.flagged
            assert r.hub_delay_s == arrivals[i].max()
            assert r.node_latency_s == result.timings[i].total
            ref = controller.decide(result.outputs[i],
                                    latency_s=r.total_latency_s,
                                    frame_index=i)
            assert r.decision.machine == ref.machine
            assert r.decision.score == ref.score
            assert r.decision.latency_s == ref.latency_s
            assert r.decision.deadline_met == ref.deadline_met

    def test_hardening_counters_stay_zero(self, tiny_hls, frames):
        runtime = make_runtime(tiny_hls, with_fallback=False)
        runtime.run(frames[:20], seed=1)
        health = runtime.health_report()
        assert health.status_counts == {STATUS_OK: 20}
        assert health.fault_counts == {}
        assert health.watchdog_trips == 0
        assert health.substituted_slices == 0
        assert health.publish_retries == 0
        assert health.dead_letters == 0
        assert health.transitions == ()


class TestWatchdog:
    def test_ip_hang_times_out_without_blocking(self, tiny_hls, frames):
        specs = [IPHangFault(rate=1.0, start=2, stop=3, extra_s=5e-3)]
        runtime = make_runtime(tiny_hls, specs, with_fallback=False)
        records = runtime.run(frames[:6], seed=0)
        hung = records[2]
        assert hung.status == STATUS_WATCHDOG
        assert hung.node_latency_s == runtime.watchdog_s
        assert hung.decision.machine is None  # no trip on a hung frame
        assert hung.flagged
        assert records[3].status == STATUS_OK  # next frame unaffected

    def test_lost_irq_recovers(self, tiny_hls, frames):
        specs = [LostIRQFault(rate=1.0, start=1, stop=2)]
        runtime = make_runtime(tiny_hls, specs, with_fallback=False)
        records = runtime.run(frames[:4], seed=0)
        assert records[1].status == STATUS_WATCHDOG
        assert records[1].decision.machine is None
        assert [r.status for r in records[2:]] == [STATUS_OK, STATUS_OK]
        assert runtime.health_report().watchdog_trips == 1


class TestLastKnownGood:
    def test_substitution_then_staleness(self, tiny_hls, frames):
        specs = [HubDropFault(hub=1, rate=1.0, start=3, stop=9)]
        runtime = make_runtime(tiny_hls, specs, with_fallback=False,
                               staleness_limit=2)
        records = runtime.run(frames[:12], seed=0)
        # Within the staleness bound: substituted, decided, degraded.
        for r in records[3:5]:
            assert r.status == STATUS_DEGRADED
            assert r.substituted_hubs == (1,)
        # Past the bound: stale inputs, explicit no-trip.
        for r in records[5:9]:
            assert r.status == STATUS_STALE
            assert r.decision.machine is None
        # Hub back online: healthy again.
        for r in records[9:]:
            assert r.status == STATUS_OK
        assert runtime.health_report().substituted_slices == 2

    def test_drop_before_any_good_data_is_stale(self, tiny_hls, frames):
        specs = [HubDropFault(hub=0, rate=1.0, start=0, stop=1)]
        runtime = make_runtime(tiny_hls, specs, with_fallback=False)
        records = runtime.run(frames[:2], seed=0)
        assert records[0].status == STATUS_STALE  # nothing to substitute yet
        assert records[1].status == STATUS_OK


class TestCorruptionGuard:
    def test_output_seu_abstains(self, tiny_hls, frames):
        specs = [SEUFault(rate=1.0, start=2, stop=3, ram="output", bit=15)]
        runtime = make_runtime(tiny_hls, specs, with_fallback=False)
        records = runtime.run(frames[:5], seed=0)
        corrupt = records[2]
        assert corrupt.status == STATUS_CORRUPT
        assert corrupt.decision.machine is None
        assert records[3].status == STATUS_OK


class TestPublishRetry:
    def test_transient_failure_retried(self, tiny_hls, frames):
        specs = [ACNETFault(rate=1.0, start=3, stop=4, failures=1)]
        runtime = make_runtime(tiny_hls, specs, with_fallback=False)
        records = runtime.run(frames[:6], seed=0)
        assert records[3].publish_attempts == 2
        assert records[3].published
        assert all(r.publish_attempts == 1 for r in records[:3])
        health = runtime.health_report()
        assert health.publish_retries == 1
        assert health.dead_letters == 0
        assert len(runtime.acnet) == 6  # nothing lost

    def test_persistent_failure_dead_letters(self, tiny_hls, frames):
        specs = [ACNETFault(rate=1.0, start=2, stop=3, failures=5)]
        runtime = make_runtime(tiny_hls, specs, with_fallback=False,
                               max_publish_attempts=3)
        records = runtime.run(frames[:5], seed=0)
        dead = records[2]
        assert dead.publish_attempts == 3
        assert not dead.published
        assert dead.flagged
        health = runtime.health_report()
        assert health.dead_letters == 1
        # Leftover injected failures must not leak into later frames.
        assert all(r.published for r in records[3:])
        assert len(runtime.acnet) == 4

    def test_publish_order_monotonic(self, tiny_hls, frames):
        """Degraded timing (watchdog frames charged the full budget) must
        never produce out-of-order ACNET publishes."""
        specs = [LostIRQFault(rate=0.3)]
        runtime = make_runtime(tiny_hls, specs, with_fallback=False)
        runtime.run(frames[:30], seed=0)
        sent = [m.sent_at_s for m in runtime.acnet.records]
        assert sent == sorted(sent)


class TestFallbackHysteresis:
    """Satellite (d): forced primary-engine misses engage the fallback
    within the configured window; recovery switches back; no frame is
    ever silently dropped."""

    def test_fallback_and_recovery(self, tiny_hls, frames):
        n = 20
        specs = [IPHangFault(rate=1.0, start=5, stop=9, extra_s=5e-3)]
        runtime = make_runtime(tiny_hls, specs, miss_threshold=2,
                               recovery_streak=4)
        records = runtime.run(frames[:n], seed=3)

        # No silent drops: one record per frame, in order, all published
        # or explicitly flagged.
        assert [r.frame_index for r in records] == list(range(n))
        assert all(r.published or r.flagged for r in records)

        # Two misses (frames 5, 6) trip the fallback at frame 6 ...
        assert runtime.transitions[0] == (6, ENGINE_PRIMARY, ENGINE_FALLBACK)
        # ... so frames 7+ run on the fallback engine.
        assert records[6].engine == ENGINE_PRIMARY
        assert records[7].engine == ENGINE_FALLBACK
        # The hang window (5..8) also hits the fallback; healthy frames
        # resume at 9 and the recovery streak (4) switches back at 12.
        assert runtime.transitions[1] == (12, ENGINE_FALLBACK, ENGINE_PRIMARY)
        assert records[12].engine == ENGINE_FALLBACK
        assert records[13].engine == ENGINE_PRIMARY
        assert len(runtime.transitions) == 2

        # Fallback frames that decided cleanly are degraded, not ok.
        for r in records[9:13]:
            assert r.status == STATUS_DEGRADED
            assert r.engine == ENGINE_FALLBACK
        # Back on the primary, fully healthy.
        for r in records[13:]:
            assert r.status == STATUS_OK
            assert not r.flagged

        health = runtime.health_report()
        assert health.engine_frames[ENGINE_FALLBACK] == 6
        assert health.transitions == tuple(runtime.transitions)

    @pytest.mark.parametrize("speculation", [True, False])
    def test_switch_and_recovery_inside_chunks(self, tiny_hls, frames,
                                               speculation, monkeypatch):
        """The engine falls back in the middle of one precompute chunk
        and recovers in the middle of the next: the streamed loop still
        equals the sequential oracle record for record, and the
        whole-block run counter for counter."""
        b = BATCH_BLOCK_FRAMES
        n, hang = 3 * b, b - 3
        specs = [IPHangFault(rate=1.0, start=hang, stop=hang + 4,
                             extra_s=5e-3)]
        kw = dict(miss_threshold=2, recovery_streak=4)
        oracle = make_runtime(tiny_hls, specs, batch=False, **kw)
        whole = make_runtime(tiny_hls, specs, speculation=speculation, **kw)
        streamed = make_runtime(tiny_hls, specs, speculation=speculation,
                                **kw)
        expected = oracle.run(frames[:n], seed=3)
        with monkeypatch.context() as m:
            m.setattr(runtime_module, "BATCH_BLOCK_FRAMES", n + 1)
            assert whole.run(frames[:n], seed=3) == expected
        assert streamed.run(frames[:n], seed=3) == expected

        (switch, _, _), (recover, _, _) = streamed.transitions
        assert (switch, recover) == (hang + 1, hang + 7)
        assert switch // b == 0 and 0 < switch % b < b - 1
        assert recover // b == 1 and 0 < recover % b < b - 1
        fallback = sum(r.engine == ENGINE_FALLBACK for r in expected)
        assert fallback == 6
        assert streamed.counters.count("frame.batched") == (
            n - fallback if speculation else 0)
        assert streamed.counters.counts() == whole.counters.counts()
        assert streamed.health_report() == whole.health_report()

    def test_no_fallback_board_never_switches(self, tiny_hls, frames):
        specs = [IPHangFault(rate=1.0, start=2, stop=8, extra_s=5e-3)]
        runtime = make_runtime(tiny_hls, specs, with_fallback=False,
                               miss_threshold=2)
        records = runtime.run(frames[:10], seed=3)
        assert all(r.engine == ENGINE_PRIMARY for r in records)
        assert runtime.transitions == []


class TestDeterminism:
    """Satellite (c): identical seeds + specs ⇒ bit-identical fault
    schedules, FrameRecord streams and HealthReports."""

    SPECS = [
        HubDropFault(rate=0.10),
        HubDelayFault(rate=0.05, delay_s=4e-3),
        StuckMonitorFault(monitor=3, value=4.0, rate=0.08),
        NoisyMonitorFault(monitor=11, sigma=8.0, rate=0.08),
        IPHangFault(rate=0.05, extra_s=5e-3),
        LostIRQFault(rate=0.04),
        SEUFault(rate=0.08, ram="output", bit=15),
        ACNETFault(rate=0.06, failures=1),
    ]

    def test_identical_runs(self, tiny_hls, frames):
        runs = []
        for _ in range(2):
            runtime = make_runtime(tiny_hls, self.SPECS, seed=77,
                                   miss_threshold=2, recovery_streak=6)
            records = runtime.run(frames[:60], seed=9)
            runs.append((records, runtime.health_report(),
                         runtime.injector.plan(0, 60).signature()))
        (rec_a, health_a, sig_a), (rec_b, health_b, sig_b) = runs
        assert sig_a == sig_b  # bit-identical fault schedules
        assert rec_a == rec_b  # bit-identical record streams
        assert health_a == health_b


class TestChaosSweep:
    """Acceptance criterion: sweep every fault class through a ≥200-frame
    run and assert zero *silent* failures — every frame produces a
    record, and any frame whose decision differs from the fault-free
    baseline is flagged."""

    SPECS = [
        HubDropFault(rate=0.08),
        HubDelayFault(rate=0.05, delay_s=4e-3),
        StuckMonitorFault(monitor=5, value=4.0, rate=0.08),
        NoisyMonitorFault(monitor=12, sigma=8.0, rate=0.08),
        IPHangFault(rate=0.05, extra_s=5e-3),
        LostIRQFault(rate=0.05),
        SEUFault(rate=0.08, ram="output", bit=15),
        SEUFault(rate=0.05, ram="input"),
        ACNETFault(rate=0.08, failures=1),
        ACNETFault(rate=0.02, failures=5),
    ]

    def test_zero_silent_failures(self, tiny_hls, frames):
        n = 220
        baseline = make_runtime(tiny_hls, with_fallback=False)
        base_records = baseline.run(frames[:n], seed=11)

        runtime = make_runtime(tiny_hls, self.SPECS, seed=4242,
                               miss_threshold=2, recovery_streak=8)
        records = runtime.run(frames[:n], seed=11)
        health = runtime.health_report()

        # Every fault class actually fired in this sweep.
        assert set(health.fault_counts) == {k.value for k in FaultKind}

        # A record for every frame, in order — nothing dropped.
        assert [r.frame_index for r in records] == list(range(n))

        # Zero silent failures: injected faults always leave a flag ...
        for r in records:
            if r.fault_kinds:
                assert r.flagged, f"frame {r.frame_index} faulted but clean"
        # ... and any decision differing from the fault-free baseline is
        # flagged — an unflagged record implies a bit-identical decision
        # (never an unflagged wrong trip).
        for r, b in zip(records, base_records):
            if not r.flagged:
                assert r.decision.machine == b.decision.machine
                assert r.decision.score == b.decision.score

        # Abstaining statuses never trip a machine.
        for r in records:
            if r.status in (STATUS_WATCHDOG, STATUS_STALE, STATUS_CORRUPT):
                assert r.decision.machine is None

        # Health accounting is consistent with the record stream.
        assert health.frames_total == n
        assert sum(health.status_counts.values()) == n
        assert sum(health.engine_frames.values()) == n
        published = sum(1 for r in records if r.published)
        assert len(runtime.acnet) == published
        assert health.dead_letters == n - published


class TestChaosBitIdentityMatrix:
    """Acceptance criterion for the speculative ladder: a ≥220-frame
    chaos sweep produces records bit-identical to the sequential
    reference across injector seeds × compile levels {0, 1, 2} ×
    speculation on/off — and with speculation on, the counters prove the
    majority of fault-free frames rode the batched fast path."""

    # Every fault class at a moderate rate: chaotic enough that every
    # taint class fires repeatedly over 220 frames, light enough that
    # fault-free frames dominate the block (the deployment regime the
    # fast path is for).
    SPECS = [
        HubDropFault(rate=0.03),
        HubDelayFault(rate=0.02, delay_s=4e-3),
        StuckMonitorFault(monitor=5, value=4.0, rate=0.03),
        NoisyMonitorFault(monitor=12, sigma=8.0, rate=0.03),
        IPHangFault(rate=0.02, extra_s=5e-3),
        LostIRQFault(rate=0.02),
        SEUFault(rate=0.03, ram="output", bit=15),
        SEUFault(rate=0.02, ram="input"),
        ACNETFault(rate=0.03, failures=1),
    ]

    @pytest.mark.parametrize("inj_seed", [4242, 1337])
    def test_matrix(self, tiny_model, frames, inj_seed):
        from repro.hls import HLSConfig, convert

        n = 220
        # The sequential reference is level-independent by the compiler's
        # bit-identity contract — asserted below, not assumed.
        ref_rt = make_runtime(convert(tiny_model, HLSConfig()),
                              self.SPECS, seed=inj_seed, batch=False,
                              miss_threshold=2, recovery_streak=8)
        reference = ref_rt.run(frames[:n], seed=11)
        assert any(r.fault_kinds for r in reference)

        for level in (0, 1, 2):
            for speculation in (True, False):
                hls = convert(tiny_model, HLSConfig())
                if level:
                    hls.compile(level=level)
                rt = make_runtime(hls, self.SPECS, seed=inj_seed,
                                  speculation=speculation,
                                  miss_threshold=2, recovery_streak=8)
                records = rt.run(frames[:n], seed=11)
                label = f"level={level} speculation={speculation}"
                assert records == reference, label

                batched = rt.counters.count("frame.batched")
                speculated = rt.counters.count("spec.speculated")
                replayed = rt.counters.count("spec.replayed")
                if speculation:
                    # Every frame either speculated or replayed, and the
                    # majority of the block rode the fast path.
                    assert batched == speculated, label
                    assert speculated + replayed == n, label
                    assert speculated > n // 2, label
                    # Majority of *fault-free* frames rode it, proved
                    # from the counters alone: a fault-free frame can
                    # only replay via model-state propagation (scrubs)
                    # or fallback-engine residency, never input taint.
                    clean = sum(1 for r in records if not r.fault_kinds)
                    inval = rt.health_report().invalidation_counts
                    clean_replays = (inval.get("model_state", 0)
                                     + inval.get("fallback", 0))
                    assert clean_replays < clean / 2, label
                else:
                    # Historical behaviour: injector disengages batching.
                    assert batched == 0, label
                    assert speculated == 0 and replayed == 0, label
