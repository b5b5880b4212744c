"""The operational control loop: hubs → board → controller → ACNET.

:class:`CentralNodeRuntime` is the library form of the deployment the
paper schedules for the Fermilab facility: it owns the hub network
(step 0), the Achilles board (steps 1–8), the trip controller and the
ACNET uplink (step 9), and advances frame by frame on the 3 ms digitizer
grid.

Beyond the happy path, the runtime is *hardened* — a machine-protection
node must degrade loudly, never silently:

* a **watchdog** times out a hung or over-budget frame and emits an
  explicit ``watchdog_timeout`` :class:`FrameRecord` (no trip issued)
  instead of blocking the digitizer grid,
* **last-known-good substitution** patches missing hub slices, bounded
  by a staleness limit after which the frame is declared
  ``stale_inputs`` and no trip is issued,
* **NaN/range guards** on the model output detect corrupted results
  (``corrupt_output``) rather than voting on garbage,
* **ACNET publish retry** with bounded backoff and a dead-letter count,
* a **degraded-mode fallback**: after enough consecutive deadline
  misses / watchdog trips the runtime switches from the primary board
  (the paper's 1.74 ms U-Net) to a fallback board (the 0.31 ms MLP,
  Table 3) and switches back after a healthy streak.

Faults are injected through a :class:`~repro.soc.faults.FaultInjector`;
with no injector and healthy hardware every guard is a pure observer and
the per-frame outputs are bit-identical to the unhardened loop.  The
:class:`HealthReport` summarises fault counts, degradation transitions
and miss/dead-letter rates, backed by the runtime's
:class:`~repro.soc.counters.PerformanceCounters` event counters.

With an injector attached the runtime does not abandon the batched fast
path: it runs a **speculative execution ladder** (``speculation=True``).
The block's raw outputs are precomputed anyway, each frame is
validated against the schedule's taint set
(:mod:`repro.soc.taint`), and only frames a fault actually touched —
input-tainted frames, the SEU hit and its propagation window, frames the
hysteresis ladder moved to the fallback engine — are invalidated and
replayed through the sequential reference path.  Timing faults (IP hang,
lost IRQ) and publish faults ride the speculative words: their raw
outputs are bit-identical by construction, only the surrounding
timing/publish behaviour differs.  Records stay bit-identical to the
sequential reference under every schedule (pinned by the chaos matrix in
``tests/test_degradation.py``).
"""

from __future__ import annotations

import time as _time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.beamloss.acnet import ACNETLog, ACNETTransportError
from repro.beamloss.controller import TripController, TripDecision
from repro.beamloss.hubs import HubNetwork
from repro.obs import Observability
from repro.soc.board import FRAME_PERIOD_S, AchillesBoard, FrameTiming
from repro.soc.counters import PerformanceCounters
from repro.soc.faults import (
    FaultEvent,
    FaultInjector,
    FaultKind,
    FrameFaults,
    FrameHangError,
    fold_health_counters,
)
from repro.soc.ip_core import BATCH_BLOCK_FRAMES
from repro.soc.taint import (
    CAUSE_FALLBACK,
    CAUSE_INPUT,
    CAUSE_MODEL_STATE,
    classify_events,
    speculation_mask,
)
from repro.utils.rng import SeedLike, default_rng

__all__ = [
    "CentralNodeRuntime",
    "FrameRecord",
    "DegradationPolicy",
    "HealthReport",
    "derive_stream_seeds",
    "ENGINE_PRIMARY",
    "ENGINE_FALLBACK",
    "STATUS_OK",
    "STATUS_DEGRADED",
    "STATUS_WATCHDOG",
    "STATUS_CORRUPT",
    "STATUS_STALE",
]

#: Engine labels for :attr:`FrameRecord.engine`.
ENGINE_PRIMARY = "primary"
ENGINE_FALLBACK = "fallback"


def derive_stream_seeds(seed: SeedLike, start: int) -> Tuple[int, int]:
    """Derive the per-run ``(hub_seed, board_seed)`` pair.

    The starting frame index is folded into the derivation via a
    :class:`numpy.random.SeedSequence` spawn key, so two successive
    ``run()`` calls on one runtime (different ``start``) draw
    uncorrelated jitter/arrival streams, while re-running the same frame
    range with the same seed stays bit-reproducible.  (Before this
    existed the seeds came from ``seed`` alone and back-to-back calls
    replayed identical streams for different frame ranges.)

    A ``Generator`` is consumed directly — its state already advances
    across calls, which is exactly the caller-managed contract.
    """
    if isinstance(seed, np.random.Generator):
        rng = seed
    else:
        if isinstance(seed, np.random.SeedSequence):
            child = np.random.SeedSequence(
                entropy=seed.entropy,
                spawn_key=tuple(seed.spawn_key) + (start,))
        else:
            # seed may be None (entropy-seeded): SeedSequence handles it.
            child = np.random.SeedSequence(entropy=seed, spawn_key=(start,))
        rng = default_rng(child)
    return int(rng.integers(0, 2**62)), int(rng.integers(0, 2**62))

#: Frame statuses, ordered from healthy to most degraded.
STATUS_OK = "ok"
STATUS_DEGRADED = "degraded"          # decided, but on substituted inputs
                                      # or the fallback engine
STATUS_STALE = "stale_inputs"         # hub data too stale → no trip
STATUS_CORRUPT = "corrupt_output"     # NaN/range guard fired → no trip
STATUS_WATCHDOG = "watchdog_timeout"  # frame hung / over budget → no trip


@dataclass(frozen=True)
class FrameRecord:
    """Everything that happened to one digitizer frame.

    A record exists for *every* frame the runtime was handed — degraded,
    timed-out and corrupted frames are flagged, never dropped.
    """

    frame_index: int
    hub_delay_s: float       # step 0: last hub packet arrival
    node_latency_s: float    # steps 1–8
    decision: TripDecision   # step 9 payload (no-trip when abstained)
    status: str = STATUS_OK
    engine: str = ENGINE_PRIMARY
    fault_kinds: Tuple[str, ...] = ()       # injected faults hitting the frame
    substituted_hubs: Tuple[int, ...] = ()  # hubs patched from last-known-good
    publish_attempts: int = 1
    published: bool = True

    @property
    def total_latency_s(self) -> float:
        """Digitizer tick → decision available."""
        return self.hub_delay_s + self.node_latency_s

    @property
    def flagged(self) -> bool:
        """Whether anything other than clean full-path processing
        happened (degraded status, injected fault, fallback engine or a
        failed publish)."""
        return (self.status != STATUS_OK or bool(self.fault_kinds)
                or self.engine != ENGINE_PRIMARY or not self.published)


@dataclass(frozen=True)
class DegradationPolicy:
    """Tunables of the graceful-degradation ladder.

    Parameters
    ----------
    watchdog_s:
        Node-latency budget (steps 1–8) before a frame is declared hung;
        ``None`` uses the digitizer period.
    miss_threshold:
        Consecutive bad frames (deadline miss or watchdog trip) before
        switching to the fallback board.
    recovery_streak:
        Consecutive healthy frames on the fallback before switching back.
    staleness_limit:
        Consecutive frames a hub slice may be substituted from
        last-known-good before the frame is declared ``stale_inputs``.
    max_publish_attempts / publish_backoff_s:
        Bounded-backoff retry for ACNET publishes; exhausting the
        attempts dead-letters the message.
    output_low / output_high:
        Valid range for model outputs (sigmoid probabilities with
        quantization margin); values outside, or non-finite, trip the
        corruption guard.
    """

    watchdog_s: Optional[float] = None
    miss_threshold: int = 3
    recovery_streak: int = 12
    staleness_limit: int = 3
    max_publish_attempts: int = 3
    publish_backoff_s: float = 50e-6
    output_low: float = -0.05
    output_high: float = 1.05

    def __post_init__(self):
        if self.watchdog_s is not None and self.watchdog_s <= 0:
            raise ValueError("watchdog_s must be positive")
        if self.miss_threshold < 1:
            raise ValueError("miss_threshold must be >= 1")
        if self.recovery_streak < 1:
            raise ValueError("recovery_streak must be >= 1")
        if self.staleness_limit < 0:
            raise ValueError("staleness_limit must be >= 0")
        if self.max_publish_attempts < 1:
            raise ValueError("max_publish_attempts must be >= 1")
        if self.publish_backoff_s < 0:
            raise ValueError("publish_backoff_s must be >= 0")
        if self.output_low >= self.output_high:
            raise ValueError("output_low must be < output_high")


@dataclass(frozen=True)
class HealthReport:
    """Aggregated robustness telemetry of a runtime.

    Built from the runtime's :class:`PerformanceCounters` event counters
    plus the record stream; printable via :meth:`render` (the
    ``robustness`` experiment harness prints one).
    """

    frames_total: int
    status_counts: Dict[str, int]
    fault_counts: Dict[str, int]
    engine_frames: Dict[str, int]
    transitions: Tuple[Tuple[int, str, str], ...]
    deadline_miss_rate: float
    watchdog_trips: int
    substituted_slices: int
    publish_retries: int
    dead_letters: int
    dropped_out_of_order: int
    # Speculative-ladder telemetry (zero when speculation never engaged,
    # so pre-existing consumers see unchanged reports).
    frames_speculated: int = 0
    frames_replayed: int = 0
    invalidation_counts: Dict[str, int] = field(default_factory=dict)
    #: Control-quality summary (:class:`repro.plants.ControlQuality`)
    #: when a plant scored the run; ``None`` for plain frame blocks.
    control: Optional[Any] = None

    def render(self) -> str:
        """Multi-line printable summary."""
        lines = ["health report:"]
        lines.append(f"  frames: {self.frames_total}")
        for status in (STATUS_OK, STATUS_DEGRADED, STATUS_STALE,
                       STATUS_CORRUPT, STATUS_WATCHDOG):
            if self.status_counts.get(status):
                lines.append(f"    {status}: {self.status_counts[status]}")
        if self.fault_counts:
            lines.append("  injected faults:")
            for kind in sorted(self.fault_counts):
                lines.append(f"    {kind}: {self.fault_counts[kind]}")
        lines.append(f"  engines: " + ", ".join(
            f"{k}={v}" for k, v in sorted(self.engine_frames.items())))
        if self.transitions:
            lines.append("  degradation transitions:")
            for frame, src, dst in self.transitions:
                lines.append(f"    frame {frame}: {src} -> {dst}")
        if self.frames_speculated or self.frames_replayed:
            lines.append(f"  speculation: {self.frames_speculated} frames "
                         f"rode the fast path, {self.frames_replayed} "
                         f"replayed in-line")
            for cause in sorted(self.invalidation_counts):
                lines.append(
                    f"    invalidated.{cause}: "
                    f"{self.invalidation_counts[cause]}")
        lines.append(f"  deadline miss rate: {self.deadline_miss_rate:.2%}")
        lines.append(f"  watchdog trips: {self.watchdog_trips}")
        lines.append(f"  substituted hub slices: {self.substituted_slices}")
        lines.append(f"  publish retries: {self.publish_retries}, "
                     f"dead letters: {self.dead_letters}, "
                     f"dropped out-of-order: {self.dropped_out_of_order}")
        if self.control is not None:
            lines.extend("  " + line
                         for line in self.control.render().splitlines())
        return "\n".join(lines)


@dataclass
class CentralNodeRuntime:
    """The assembled central node plus its communication fabric.

    Parameters
    ----------
    board:
        The primary :class:`AchillesBoard` (the paper's U-Net design).
    hubs / controller / acnet:
        Substituted for customization; defaults match the facility.
    period_s:
        Digitizer frame period (3 ms).
    fallback_board:
        Optional degraded-mode board (the paper's MLP design, Table 3);
        engaged by the degradation policy, never required.
    injector:
        Optional :class:`FaultInjector`; ``None`` runs fault-free.
    policy:
        The :class:`DegradationPolicy` tunables.
    """

    board: AchillesBoard
    hubs: HubNetwork = field(default_factory=HubNetwork)
    controller: TripController = field(default_factory=TripController)
    acnet: ACNETLog = field(default_factory=ACNETLog)
    period_s: float = FRAME_PERIOD_S
    records: List[FrameRecord] = field(default_factory=list)
    fallback_board: Optional[AchillesBoard] = None
    injector: Optional[FaultInjector] = None
    policy: DegradationPolicy = field(default_factory=DegradationPolicy)
    counters: PerformanceCounters = field(default_factory=PerformanceCounters)
    #: Batched-inference fast path: with no injector attached and the
    #: primary engine active, the frame block streams through batched
    #: ``predict`` calls of ``BATCH_BLOCK_FRAMES`` frames, each chunk's
    #: decisions published before the next chunk is computed, and the
    #: per-frame ladder consumes precomputed output words
    #: (bit-identical; see docs/performance.md).  Disable to
    #: force the historical frame-at-a-time compute.  Orthogonal to the
    #: graph compiler: a board whose model carries a compiled plan
    #: (``HLSModel.compile``) uses it on both the batched and the
    #: frame-at-a-time path, again without changing a bit.
    batch_inference: bool = True
    #: Speculative fault-aware batching: with an injector attached, still
    #: precompute the block's raw outputs and consume them on every frame
    #: the schedule's taint set leaves clean, replaying only tainted
    #: frames through the in-line reference path (see
    #: :mod:`repro.soc.taint` and docs/robustness.md).  Disable to
    #: restore the historical behaviour — any active schedule forces the
    #: whole block sequential.  Only meaningful with ``batch_inference``;
    #: bit-identical either way.
    speculation: bool = True
    #: Observability bundle (:mod:`repro.obs`): tracer + metrics +
    #: flight recorder.  ``None`` (default) is the zero-cost no-op
    #: path; when attached, every frame emits a nested span tree, the
    #: latency histograms and health counters fill in, and the flight
    #: recorder keeps the last N frames for post-mortems.  Purely
    #: observational: outputs are bit-identical either way.
    obs: Optional[Observability] = None
    #: The :class:`~repro.plants.Plant` this runtime was built for
    #: (``None`` when assembled by hand).  Purely descriptive at this
    #: layer — the facade and the farm use it to drive closed-loop
    #: sessions and attach control-quality scoring.
    plant: Optional[Any] = None

    # Degradation state (persists across run() calls).
    engine: str = field(default=ENGINE_PRIMARY, init=False)
    transitions: List[Tuple[int, str, str]] = field(default_factory=list,
                                                    init=False)
    _consecutive_bad: int = field(default=0, init=False, repr=False)
    _healthy_streak: int = field(default=0, init=False, repr=False)
    _last_good: Optional[np.ndarray] = field(default=None, init=False,
                                             repr=False)
    _lkg_valid: Optional[np.ndarray] = field(default=None, init=False,
                                             repr=False)
    _hub_stale: Optional[np.ndarray] = field(default=None, init=False,
                                             repr=False)
    _last_sent_at: float = field(default=-np.inf, init=False, repr=False)
    # Model-state taint carried across frames (and run() calls): True
    # from an SEU hit until an in-line frame completes un-hung with no
    # new hit, fully rewriting both RAM spans (the scrub).
    _model_tainted: bool = field(default=False, init=False, repr=False)

    def __post_init__(self):
        if self.period_s <= 0:
            raise ValueError("period_s must be positive")
        if self.obs is not None:
            self.attach_observability(self.obs)

    # ------------------------------------------------------------------
    def attach_observability(self, obs: Optional[Observability]) -> None:
        """Attach (or detach, with ``None``) an observability bundle.

        Threads the tracer into both boards and — when the config asks
        for kernel-level detail — into their HLS models, so the whole
        inference path reports into one span tree.

        The kernel tracer is *always* assigned (to the new tracer or to
        ``None``), never conditionally left alone: re-attaching a bundle
        with ``trace_kernels=False`` after one with ``trace_kernels=True``
        must clear the old bundle's tracer from the HLS models, or the
        detached bundle keeps silently receiving kernel spans.
        """
        self.obs = obs
        tracer = obs.tracer if obs is not None else None
        kernel_tracer = (tracer if (obs is not None
                                    and obs.config.trace_kernels) else None)
        boards = [self.board] + (
            [self.fallback_board] if self.fallback_board is not None else [])
        for board in boards:
            board.tracer = tracer
            board.ip.hls_model.tracer = kernel_tracer

    # ------------------------------------------------------------------
    @property
    def watchdog_s(self) -> float:
        """Resolved watchdog budget (policy override or frame period)."""
        return (self.policy.watchdog_s if self.policy.watchdog_s is not None
                else self.period_s)

    def _board_for(self, engine: str) -> AchillesBoard:
        if engine == ENGINE_FALLBACK and self.fallback_board is not None:
            return self.fallback_board
        return self.board

    def _switch_engine(self, frame_index: int, target: str) -> None:
        self.transitions.append((frame_index, self.engine, target))
        self.counters.increment("degrade.transition")
        self.engine = target
        self._consecutive_bad = 0
        self._healthy_streak = 0

    # ------------------------------------------------------------------
    # Hub-level fault resolution
    # ------------------------------------------------------------------
    def _resolve_hub(self, event: FaultEvent) -> int:
        """Map a hub-fault event to a concrete hub index."""
        if event.target >= 0:
            return event.target % self.hubs.n_hubs
        frac = event.value if event.kind is FaultKind.HUB_DROP else float(
            event.detail or 0.0)
        return min(int(frac * self.hubs.n_hubs), self.hubs.n_hubs - 1)

    def _hub_fault_arrays(self, schedule, start: int,
                          n: int) -> Tuple[np.ndarray, np.ndarray]:
        """Per-(frame, hub) extra delays and drop mask from a schedule."""
        extra = np.zeros((n, self.hubs.n_hubs))
        drops = np.zeros((n, self.hubs.n_hubs), dtype=bool)
        for i in range(n):
            for e in schedule.for_frame(start + i):
                if e.kind is FaultKind.HUB_DELAY:
                    extra[i, self._resolve_hub(e)] += e.value
                elif e.kind is FaultKind.HUB_DROP:
                    drops[i, self._resolve_hub(e)] = True
        return extra, drops

    # ------------------------------------------------------------------
    def run(self, frames: np.ndarray, seed: SeedLike = 0) -> List[FrameRecord]:
        """Process a stretch of frames on the digitizer grid.

        *frames* are standardized model inputs, one per 3 ms tick.
        Returns (and appends to :attr:`records`) one :class:`FrameRecord`
        per frame — every frame, including hung/degraded ones; decisions
        are published to ACNET in tick order with bounded retry.
        """
        frames = np.asarray(frames, dtype=np.float64)
        if frames.ndim != 2:
            raise ValueError(f"frames must be 2-D, got {frames.shape}")
        n = frames.shape[0]
        start = len(self.records)
        hub_seed, board_seed = derive_stream_seeds(seed, start)

        schedule = (self.injector.plan(start, n)
                    if self.injector is not None else None)
        if schedule is not None:
            extra_delay, drop_mask = self._hub_fault_arrays(schedule, start, n)
            arrivals = self.hubs.faulted_arrival_times(
                n, seed=hub_seed, extra_delay_s=extra_delay,
                drop_mask=drop_mask)
        else:
            arrivals = self.hubs.arrival_times(n, seed=hub_seed)
        # OS jitter is always drawn from the primary board's model so the
        # stream (and fault-free behaviour) is independent of fallback
        # engagement.
        jitters = self.board.jitter.sample(n, rng=board_seed)

        n_hubs = self.hubs.n_hubs
        if self._hub_stale is None:
            self._hub_stale = np.zeros(n_hubs, dtype=np.int64)
            self._lkg_valid = np.zeros(n_hubs, dtype=bool)
        spans = self.hubs.spans()
        # Pacing anchors: one per board, captured the first time the
        # board runs in this call (matches AchillesBoard.run(paced=True)).
        anchors: Dict[int, float] = {}

        # Batched fast path: with no fault schedule and the primary
        # engine active at block start, the block's output words are
        # precomputed by batched predicts; the per-frame ladder below
        # consumes them.  Frames that land on the fallback engine
        # (hysteresis can engage mid-block even fault-free, e.g. on
        # jitter-spike deadline misses) drop back to in-line compute
        # frame by frame.
        #
        # With a schedule active and ``speculation`` enabled the block is
        # precomputed *anyway*, masked by the schedule's static taint set
        # (rows a fault is known to invalidate are never computed); the
        # per-frame ladder then re-validates dynamically and replays only
        # tainted frames through the in-line reference.
        #
        # Whether to precompute, and the mask, are decided once for the
        # whole block; the compute itself streams in BATCH_BLOCK_FRAMES
        # chunks, each chunk's decisions published before the next chunk
        # is computed, so a frame waits for its own chunk, not the block.
        obs = self.obs
        precompute = (self.batch_inference and n > 0
                      and (self.fallback_board is None
                           or self.engine == ENGINE_PRIMARY)
                      and (schedule is None or self.speculation))
        speculative = precompute and schedule is not None
        spec_valid: Optional[np.ndarray] = (
            speculation_mask(schedule, start, n,
                             model_tainted=self._model_tainted)
            if speculative else None)

        new_records = []
        precomputed: Optional[np.ndarray] = None
        for i in range(n):
            if precompute and i % BATCH_BLOCK_FRAMES == 0:
                precomputed = self._precompute_chunk(frames, start, i,
                                                     spec_valid)
            fi = start + i
            events = schedule.for_frame(fi) if schedule is not None else ()
            for e in events:
                self.counters.increment(f"fault.{e.kind.value}")
            fault_kinds = tuple(sorted({e.kind.value for e in events}))

            # Frame validation ladder: decide whether this frame may
            # consume its precomputed raw row, and if not, why.  The
            # in-line replay is the unmodified sequential reference, so
            # an invalidated frame is bit-identical by construction; a
            # consuming frame is bit-identical because its input vector
            # is untouched (no input taint) and the board's timing and
            # RAM traffic are the same either way.
            use_batched = False
            invalidation_cause: Optional[str] = None
            if precomputed is not None:
                on_primary = (self.fallback_board is None
                              or self.engine == ENGINE_PRIMARY)
                if not speculative:
                    use_batched = not events and on_primary
                else:
                    taint = classify_events(events)
                    if not on_primary:
                        # Hysteresis moved us to the fallback engine: the
                        # precomputed rows are the primary model's words.
                        # Recovery mid-block re-engages speculation for
                        # free — rows are index-addressed and the mask
                        # never depended on engine state.
                        invalidation_cause = CAUSE_FALLBACK
                    elif self._model_tainted or taint.model_state:
                        invalidation_cause = CAUSE_MODEL_STATE
                    elif taint.input:
                        invalidation_cause = CAUSE_INPUT
                    elif not spec_valid[i]:
                        # Statically masked row (SEU propagation window
                        # whose dynamic taint already cleared): the row
                        # was never computed, so it cannot be consumed.
                        invalidation_cause = CAUSE_MODEL_STATE
                    else:
                        use_batched = True
            if use_batched:
                self.counters.increment("frame.batched")
                if speculative:
                    self.counters.increment("spec.speculated")
            elif speculative:
                self.counters.increment("spec.replayed")
                self.counters.increment(
                    f"spec.invalidated.{invalidation_cause}")
            raw_i = (precomputed[i % BATCH_BLOCK_FRAMES] if use_batched
                     else None)
            if obs is None:
                record = self._process_one(
                    fi, i, frames[i], arrivals[i], float(jitters[i]),
                    events, fault_kinds, spans, anchors,
                    precomputed_raw=raw_i,
                )
            else:
                tick0 = fi * self.period_s
                with obs.tracer.span("frame", frame=fi, sim_t0=tick0) as sp:
                    record = self._process_one(
                        fi, i, frames[i], arrivals[i], float(jitters[i]),
                        events, fault_kinds, spans, anchors,
                        precomputed_raw=raw_i,
                    )
                    sp.sim_t1 = tick0 + record.total_latency_s
                    sp.attrs["status"] = record.status
                    sp.attrs["engine"] = record.engine
            new_records.append(record)
            self.counters.increment(f"frame.{record.status}")

            # Model-state taint propagation: an SEU hit poisons the
            # on-chip RAMs from this frame forward; a later *in-line*
            # frame that completes un-hung rewrites both RAM spans in
            # full and scrubs the taint.  A consuming (batched) frame or
            # a watchdog-abandoned frame never scrubs — conservatively
            # keep the taint alive, which costs a replay, never a bit.
            if any(e.kind is FaultKind.SEU for e in events):
                self._model_tainted = True
            elif (self._model_tainted and not use_batched
                    and record.status != STATUS_WATCHDOG):
                self._model_tainted = False

            if obs is not None:
                self._observe_frame(record, obs)
        self.records.extend(new_records)
        return new_records

    # ------------------------------------------------------------------
    def _precompute_chunk(self, frames: np.ndarray, start: int, lo: int,
                          spec_valid: Optional[np.ndarray]) -> np.ndarray:
        """Raw output words for the chunk of the block starting at frame
        *lo*, under a ``batch_precompute`` (or, masked,
        ``spec_precompute``) span when a tracer is attached."""
        hi = min(lo + BATCH_BLOCK_FRAMES, len(frames))
        mask = None if spec_valid is None else spec_valid[lo:hi]
        span = nullcontext()
        if self.obs is not None:
            attrs = {"first": start + lo, "frames": hi - lo}
            if mask is None:
                name = "batch_precompute"
            else:
                name = "spec_precompute"
                attrs["masked"] = int(mask.size - int(mask.sum()))
            span = self.obs.tracer.span(name, **attrs)
        with span:
            return self.board.ip.precompute_raw_outputs(frames[lo:hi],
                                                        valid_mask=mask)

    # ------------------------------------------------------------------
    def _process_one(self, fi: int, i: int, frame: np.ndarray,
                     arrival_row: np.ndarray, jitter_s: float,
                     events: Tuple[FaultEvent, ...],
                     fault_kinds: Tuple[str, ...],
                     spans, anchors: Dict[int, float],
                     precomputed_raw: Optional[np.ndarray] = None
                     ) -> FrameRecord:
        """One frame through the full degradation ladder."""
        policy = self.policy
        arrived = np.isfinite(arrival_row)
        has_hub_faults = not arrived.all() or any(
            e.kind in (FaultKind.STUCK_MONITOR, FaultKind.NOISY_MONITOR)
            for e in events)

        fvec = frame
        if has_hub_faults:
            if frame.shape[-1] != self.hubs.n_monitors:
                raise ValueError(
                    f"hub/monitor faults need frames with "
                    f"{self.hubs.n_monitors} monitors, got {frame.shape[-1]}"
                )
            fvec = frame.copy()
            # Monitor faults corrupt the *received* data (the physical
            # channel is broken) before any substitution bookkeeping.
            for e in events:
                if e.kind is FaultKind.STUCK_MONITOR:
                    fvec[e.target % fvec.size] = e.value
                elif e.kind is FaultKind.NOISY_MONITOR:
                    fvec[e.target % fvec.size] += e.value

        # Last-known-good substitution for missing hub slices.  The
        # bookkeeping only runs under an injector so the fault-free path
        # stays allocation-free (and bit-identical to the plain loop).
        substituted: List[int] = []
        stale = False
        track_lkg = (self.injector is not None
                     and frame.shape[-1] == self.hubs.n_monitors)
        if not arrived.all():
            for h in np.nonzero(~arrived)[0]:
                self._hub_stale[h] += 1
                a, b = spans[h]
                if (track_lkg and self._lkg_valid[h]
                        and self._hub_stale[h] <= policy.staleness_limit):
                    fvec[a:b] = self._last_good[a:b]
                    substituted.append(int(h))
                    self.counters.increment("hub.substituted")
                else:
                    stale = True
                    self.counters.increment("hub.stale")
        if track_lkg:
            if self._last_good is None:
                self._last_good = np.zeros(self.hubs.n_monitors)
            for h in np.nonzero(arrived)[0]:
                self._hub_stale[h] = 0
                a, b = spans[h]
                self._last_good[a:b] = fvec[a:b]
                self._lkg_valid[h] = True
        else:
            self._hub_stale[arrived] = 0

        # Step 0 completion: the last *arrived* packet.  With every hub
        # lost the node has nothing to wait for — charge the period.
        if arrived.any():
            hub_delay = float(arrival_row[arrived].max())
        else:
            hub_delay = self.period_s
            stale = True
        obs = self.obs
        if obs is not None:
            tick0 = fi * self.period_s
            obs.tracer.record("hub_readout", frame=fi, sim_t0=tick0,
                              sim_t1=tick0 + hub_delay,
                              arrived=int(arrived.sum()),
                              substituted=len(substituted))

        # Steps 1–8 on the active engine, paced to the digitizer grid.
        engine = self.engine if self.fallback_board is not None else ENGINE_PRIMARY
        board = self._board_for(engine)
        base = anchors.setdefault(id(board), board.sim.now)
        tick = base + i * self.period_s
        if board.sim.now < tick:
            board.sim.advance(tick - board.sim.now)

        frame_faults = FrameFaults.from_events(events)
        hung = False
        output: Optional[np.ndarray] = None
        timing: Optional[FrameTiming] = None
        try:
            timing = board.process_frame(fvec, jitter_s=jitter_s,
                                         faults=frame_faults,
                                         precomputed_raw=precomputed_raw)
            node_latency = float(timing.total)
            if node_latency > self.watchdog_s:
                # Over-budget frame: the watchdog abandons it at the
                # budget boundary rather than blocking the grid.
                hung = True
                node_latency = self.watchdog_s
            else:
                output = board.last_output()
        except FrameHangError:
            board.recover()
            hung = True
            node_latency = self.watchdog_s
        if hung:
            self.counters.increment("watchdog.trip")

        if obs is not None and timing is not None and not hung:
            m = obs.metrics
            for stage, dur in (("preprocess", timing.preprocess),
                               ("write_input", timing.write_input),
                               ("trigger", timing.trigger),
                               ("ip_compute", timing.ip_compute),
                               ("irq", timing.irq),
                               ("read_output", timing.read_output),
                               ("postprocess", timing.postprocess),
                               ("jitter", timing.jitter)):
                m.observe(f"stage.{stage}_s", dur)

        total_latency = hub_delay + node_latency

        if obs is not None:
            _w_decide = _time.perf_counter()

        # Decision ladder: watchdog > stale inputs > corruption guard >
        # degraded > ok.
        if hung:
            status = STATUS_WATCHDOG
            decision = self.controller.abstain(frame_index=fi,
                                               latency_s=total_latency)
        elif stale:
            status = STATUS_STALE
            decision = self.controller.abstain(frame_index=fi,
                                               latency_s=total_latency)
        elif not self._output_valid(output):
            status = STATUS_CORRUPT
            self.counters.increment("guard.corrupt_output")
            decision = self.controller.abstain(frame_index=fi,
                                               latency_s=total_latency)
        else:
            status = (STATUS_DEGRADED
                      if substituted or engine != ENGINE_PRIMARY
                      else STATUS_OK)
            decision = self.controller.decide(output, latency_s=total_latency,
                                              frame_index=fi)

        if obs is not None:
            obs.tracer.record("decide", frame=fi, wall_t0=_w_decide,
                              status=status,
                              machine=decision.machine)
            _w_publish = _time.perf_counter()

        attempts, published = self._publish(decision, events,
                                            fi * self.period_s + total_latency)
        if obs is not None:
            obs.tracer.record("publish", frame=fi, wall_t0=_w_publish,
                              attempts=attempts, published=published)

        # Degradation ladder bookkeeping + hysteresis.
        bad = hung or not decision.deadline_met
        if bad:
            self._consecutive_bad += 1
            self._healthy_streak = 0
        else:
            self._healthy_streak += 1
            self._consecutive_bad = 0
        if self.fallback_board is not None:
            if (self.engine == ENGINE_PRIMARY
                    and self._consecutive_bad >= self.policy.miss_threshold):
                self._switch_engine(fi, ENGINE_FALLBACK)
            elif (self.engine == ENGINE_FALLBACK
                    and self._healthy_streak >= self.policy.recovery_streak):
                self._switch_engine(fi, ENGINE_PRIMARY)

        return FrameRecord(
            frame_index=fi,
            hub_delay_s=hub_delay,
            node_latency_s=node_latency,
            decision=decision,
            status=status,
            engine=engine,
            fault_kinds=fault_kinds,
            substituted_hubs=tuple(substituted),
            publish_attempts=attempts,
            published=published,
        )

    # ------------------------------------------------------------------
    def _observe_frame(self, record: FrameRecord, obs: Observability) -> None:
        """Fold one processed frame into the observability bundle.

        Pure observer: reads the record, the counters and the tracer's
        finished spans; never touches the datapath or any RNG stream.
        """
        m = obs.metrics
        m.inc("frames.total")
        m.inc(f"frames.status.{record.status}")
        m.inc(f"frames.engine.{record.engine}")
        if not record.decision.deadline_met:
            m.inc("frames.deadline_miss")
        m.observe("latency.total_s", record.total_latency_s)
        m.observe("latency.hub_s", record.hub_delay_s)
        m.observe("latency.node_s", record.node_latency_s)
        m.set_gauge("engine.fallback_active",
                    1.0 if self.engine == ENGINE_FALLBACK else 0.0)
        m.set_gauge("degrade.consecutive_bad", float(self._consecutive_bad))
        fold_health_counters(self.counters, m)

        entry = {
            "frame": record.frame_index,
            "status": record.status,
            "engine": record.engine,
            "hub_ms": round(record.hub_delay_s * 1e3, 6),
            "node_ms": round(record.node_latency_s * 1e3, 6),
            "total_ms": round(record.total_latency_s * 1e3, 6),
            "deadline_met": record.decision.deadline_met,
            "machine": record.decision.machine,
            "faults": list(record.fault_kinds),
            "substituted_hubs": [int(h) for h in record.substituted_hubs],
            "published": record.published,
            "publish_attempts": record.publish_attempts,
            "spans": [s.to_dict()
                      for s in obs.tracer.frame_spans(record.frame_index)],
        }
        obs.recorder.append(entry)
        if record.status in (STATUS_WATCHDOG, STATUS_CORRUPT):
            postmortem = obs.recorder.mark_trip(record.status,
                                                record.frame_index)
            if obs.config.dump_path:
                obs.recorder.dump(obs.config.dump_path, postmortem)

    # ------------------------------------------------------------------
    def _output_valid(self, output: Optional[np.ndarray]) -> bool:
        """NaN/range guard: sigmoid probabilities with margin."""
        if output is None:
            return False
        if not np.isfinite(output).all():
            return False
        return bool((output >= self.policy.output_low).all()
                    and (output <= self.policy.output_high).all())

    def _publish(self, decision: TripDecision,
                 events: Tuple[FaultEvent, ...],
                 sent_at_s: float) -> Tuple[int, bool]:
        """Publish with bounded-backoff retry; returns (attempts, ok)."""
        injected = sum(int(e.value) for e in events
                       if e.kind is FaultKind.ACNET_FAIL)
        if injected:
            self.acnet.inject_failures(injected)
        attempts = 0
        published = False
        sent_at = sent_at_s
        while attempts < self.policy.max_publish_attempts:
            attempts += 1
            try:
                # The uplink serializes messages: a decision computed
                # "before" the previous send (degraded timing) queues
                # behind it rather than violating ACNET ordering.
                self.acnet.publish(decision,
                                   sent_at_s=max(sent_at, self._last_sent_at))
                published = True
                break
            except ACNETTransportError:
                self.counters.increment("acnet.retry")
                sent_at += self.policy.publish_backoff_s * attempts
        if published:
            self._last_sent_at = max(sent_at, self._last_sent_at)
        else:
            self.counters.increment("acnet.dead_letter")
            # Clear any leftover injected failures so they cannot leak
            # into the next frame's publish.
            self.acnet.inject_failures(0)
        return attempts, published

    # ------------------------------------------------------------------
    def health_report(self) -> HealthReport:
        """Aggregate robustness telemetry over all processed frames."""
        status_counts: Dict[str, int] = {}
        engine_frames: Dict[str, int] = {}
        for r in self.records:
            status_counts[r.status] = status_counts.get(r.status, 0) + 1
            engine_frames[r.engine] = engine_frames.get(r.engine, 0) + 1
        fault_counts = {
            name[len("fault."):]: count
            for name, count in self.counters.counts().items()
            if name.startswith("fault.")
        }
        invalidation_counts = {
            name[len("spec.invalidated."):]: count
            for name, count in self.counters.counts().items()
            if name.startswith("spec.invalidated.")
        }
        misses = sum(1 for r in self.records if not r.decision.deadline_met)
        return HealthReport(
            frames_total=len(self.records),
            status_counts=status_counts,
            fault_counts=fault_counts,
            engine_frames=engine_frames,
            transitions=tuple(self.transitions),
            deadline_miss_rate=misses / max(len(self.records), 1),
            watchdog_trips=self.counters.count("watchdog.trip"),
            substituted_slices=self.counters.count("hub.substituted"),
            publish_retries=self.counters.count("acnet.retry"),
            dead_letters=self.counters.count("acnet.dead_letter"),
            dropped_out_of_order=self.acnet.dropped_out_of_order,
            frames_speculated=self.counters.count("spec.speculated"),
            frames_replayed=self.counters.count("spec.replayed"),
            invalidation_counts=invalidation_counts,
        )

    # ------------------------------------------------------------------
    @property
    def total_latencies_s(self) -> np.ndarray:
        """Tick-to-decision latency of every processed frame."""
        return np.array([r.total_latency_s for r in self.records])

    def deadline_compliance(self, deadline_s: Optional[float] = None) -> float:
        """Fraction of frames decided inside the deadline (default: the
        digitizer period)."""
        if not self.records:
            return 1.0
        deadline = deadline_s if deadline_s is not None else self.period_s
        return float((self.total_latencies_s <= deadline).mean())

    def decisions(self) -> List[TripDecision]:
        """All decisions in frame order."""
        return [r.decision for r in self.records]
