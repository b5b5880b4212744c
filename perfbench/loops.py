"""In-process control-loop workloads: ``loop_unet``, ``loop_unet_chaos``
and ``cartpole_ticks``.

Each one builds its inputs from the seed, computes the oracle with the
sequential naive runtime (``batch_inference=False``, ``compile_level=0``)
outside the timed window, then repeats the same block (or episode)
through the public facade until the time is up.  Every repetition runs
on a fresh runtime, so every repetition must reproduce the oracle's
records exactly; one that does not, or that raises, counts all its
frames as failed.

With tracing on, repetitions alternate between the untraced path and
the traced one, which times the runtime's calls into ``soc``, ``hls``
and ``plants`` from here (see :mod:`harness`), so the two halves give
``trace.overhead_frac``.
"""

from __future__ import annotations

import statistics
from contextlib import nullcontext
from typing import Callable, Dict, List

import numpy as np

from harness import (COMPILE_LEVEL, STEP_GROUPS, CallTimer, Outcome,
                     PredictProbe, beamloss_frames, child_seeds, cpu_clock,
                     health_counts, int_seed, median_tail,
                     node_latencies_ms, peak_rss_mib,
                     reset_peak_rss, setup_unet, sim_step_means_us,
                     wall_clock, windowed_median_tail)

#: Frames per ``run_control_loop`` call on the U-Net workloads.
BLOCK_FRAMES = 1000

#: Ticks per closed-loop cartpole episode.
EPISODE_TICKS = 3000

#: Ticks per latency window: the tick tail is the p99 within a window
#: (its ten slowest ticks), and the median over windows is reported.
TICK_WINDOW = 1000

#: The cartpole set-up is cheap, so it is repeated and its median kept.
CARTPOLE_SETUPS = 100


def chaos_injector(seed: int):
    """The moderate fault mix of ``tools/bench_report.py``, reseeded.

    Every fault is finite: the mix never feeds a non-finite monitor
    word, which today aborts the whole block.
    """
    from repro.soc.faults import (ACNETFault, FaultInjector, HubDropFault,
                                  IPHangFault, LostIRQFault,
                                  NoisyMonitorFault, SEUFault)

    return FaultInjector([
        HubDropFault(rate=0.02),
        NoisyMonitorFault(monitor=129, sigma=8.0, rate=0.03),
        IPHangFault(rate=0.02, extra_s=5e-3),
        LostIRQFault(rate=0.02),
        SEUFault(rate=0.02, ram="output"),
        ACNETFault(rate=0.03, failures=1),
    ], seed=seed)


class _Repeats:
    """Bookkeeping of the timed repetitions of one block or episode."""

    def __init__(self, frames_per_rep: int, window: int):
        self.frames_per_rep = frames_per_rep
        self.windows = frames_per_rep // window
        self.out = Outcome()
        self.seconds = {False: [], True: []}   # CPU time, keyed by traced
        self.wall_seconds: List[float] = []    # untraced, whole call
        self.latencies_ms: List[np.ndarray] = []
        self.last = None                       # last good repetition

    def run(self, seconds: float, trace: bool,
            rep: Callable[[bool], tuple], check: Callable[[tuple], bool]):
        """Alternate untraced/traced repetitions until *seconds* pass.

        *rep(traced)* returns ``(cpu_s, records, latencies_ms, extra)``.
        """
        deadline = wall_clock() + seconds
        i = 0
        while wall_clock() < deadline or (trace and i < 2) or i < 1:
            traced = trace and i % 2 == 1
            i += 1
            self.out.attempted += self.frames_per_rep
            start = wall_clock()
            try:
                result = rep(traced)
            except Exception as exc:  # a broken repetition fails its frames
                self.out.fail(self.frames_per_rep, f"{type(exc).__name__}: {exc}")
                continue
            wall_s = wall_clock() - start
            cpu_s, records, latencies_ms, _extra = result
            if not check(result):
                self.out.fail(self.frames_per_rep, "records differ from the "
                              "sequential naive oracle")
                continue
            self.out.failed += sum(1 for r in records if not r.published)
            self.seconds[traced].append(cpu_s)
            if not traced:
                self.wall_seconds.append(wall_s)
                self.latencies_ms.extend(
                    np.array_split(latencies_ms, self.windows))
            self.last = result

    def fps(self, traced: bool) -> float:
        """Frames over the median repetition's CPU time."""
        return self.frames_per_rep / statistics.median(self.seconds[traced])

    def overhead_frac(self) -> float:
        return 1.0 - self.fps(True) / self.fps(False)

    def end_to_end(self, records, setup_s: float, deadline_miss_rate: float
                   ) -> Dict[str, float]:
        p50, tail, q, n, k = windowed_median_tail(self.latencies_ms)
        n50, ntail, nq, nn = median_tail(node_latencies_ms(records))
        self.out.notes.append(f"frame latency: median over {k} windows "
                              f"of {n} samples each, tail = p{q:g}")
        self.out.notes.append(f"sim node latency: {nn} samples per "
                              f"repetition, tail = p{nq:g}")
        wall_fps = self.frames_per_rep / statistics.median(self.wall_seconds)
        self.out.notes.append(f"wall clock: {wall_fps:.1f} frames/s over the "
                              f"median repetition, runtime build included")
        return {
            "setup_s": setup_s,
            "frames_per_s": self.fps(False),
            "frame_p50_ms": p50,
            "frame_p99_ms": tail,
            "sim_node_p50_ms": n50,
            "sim_node_p99_ms": ntail,
            "deadline_met_frac": 1.0 - deadline_miss_rate,
            "completed_frac": 1.0 - self.out.failed / self.out.attempted,
            "peak_rss_mib": peak_rss_mib(),
        }


class _LayerTotals:
    """Sums the traced repetitions' probe readings."""

    def __init__(self):
        self.frames = 0
        self.predict_s = 0.0
        self.run_s = 0.0
        self.steps = dict.fromkeys(STEP_GROUPS, 0.0)

    def add(self, frames: int, probe: PredictProbe, run: CallTimer) -> None:
        self.frames += frames
        self.predict_s += probe.seconds
        self.run_s += run.seconds
        for g in STEP_GROUPS:
            self.steps[g] += probe.step_seconds[g]

    def metrics(self) -> Dict[str, float]:
        per = 1e6 / self.frames
        out = {"hls.predict_us_per_frame": self.predict_s * per,
               "soc.run_us_per_frame": self.run_s * per,
               "soc.self_us_per_frame": (self.run_s - self.predict_s) * per}
        for g in STEP_GROUPS:
            out[f"hls.{g}_us_per_frame"] = self.steps[g] * per
        return out


class _PublishClock:
    """Stamps the CPU clock when each frame's decision is published.

    Publishing to ACNET is the last step of a frame (step 9), so this is
    when a frame's decision leaves the node.  Installed on the runtime's
    own ``ACNETLog`` instance, which each repetition builds afresh.
    """

    def __init__(self, runtime):
        self.stamps: Dict[int, float] = {}
        publish = runtime.acnet.publish

        def stamped(decision, **kwargs):
            record = publish(decision, **kwargs)
            self.stamps.setdefault(decision.frame_index, cpu_clock())
            return record

        runtime.acnet.publish = stamped

    def latencies_ms(self, start: float) -> np.ndarray:
        return (np.fromiter(self.stamps.values(), float) - start) * 1e3


# ----------------------------------------------------------------------
# loop_unet / loop_unet_chaos
# ----------------------------------------------------------------------
def _unet_loop(seed: int, seconds: float, trace: bool,
               chaos: bool) -> Outcome:
    from repro.core.api import RuntimeConfig, build_runtime, run_control_loop
    from repro.hls.converter import convert

    s_frames, s_run, s_faults = child_seeds(seed, 3)
    run_seed, fault_seed = int_seed(s_run), int_seed(s_faults)
    setup = setup_unet()
    frames = beamloss_frames(s_frames, BLOCK_FRAMES,
                             setup.bundle.dataset.standardizer)
    model = setup.model
    config = RuntimeConfig(compile_level=COMPILE_LEVEL)

    def injector():
        return chaos_injector(fault_seed) if chaos else None

    naive = convert(setup.bundle.unet, setup.hls_config)
    oracle = run_control_loop(
        naive, frames, seed=run_seed, injector=injector(),
        config=RuntimeConfig(batch_inference=False, compile_level=0))
    layers = _LayerTotals()
    reset_peak_rss()

    def rep(traced: bool):
        probe = PredictProbe(model) if traced else nullcontext()
        with probe:
            t = cpu_clock()
            runtime = build_runtime(model, config=config, injector=injector())
            published = _PublishClock(runtime)
            run = CallTimer(runtime, "run") if traced else nullcontext()
            with run:
                res = run_control_loop(runtime, frames, seed=run_seed)
            spent = cpu_clock() - t
        if traced:
            layers.add(BLOCK_FRAMES, probe, run)
        return spent, res.records, published.latencies_ms(t), res

    reps = _Repeats(BLOCK_FRAMES, BLOCK_FRAMES)
    reps.run(seconds, trace, rep,
             lambda result: result[1] == oracle.records)
    out = reps.out
    if reps.last is None:
        return out
    res = reps.last[3]
    out.notes.append(
        f"per {BLOCK_FRAMES}-frame block: {res.health.frames_speculated} "
        f"speculated, {res.health.frames_replayed} replayed, "
        f"{sum(r.flagged for r in res.records)} flagged")
    if chaos:
        out.notes.append("fault mix is finite only: non-finite monitor "
                         "words are not exercised (they abort the block)")
    if not trace:
        out.metrics = reps.end_to_end(res.records, setup.seconds,
                                      res.health.deadline_miss_rate)
        return out
    out.metrics = {**setup.stages, **layers.metrics(),
                   **health_counts(res.health),
                   **sim_step_means_us(res.runtime, res.records),
                   "trace.overhead_frac": reps.overhead_frac()}
    return out


def loop_unet(seed: int, seconds: float, trace: bool) -> Outcome:
    return _unet_loop(seed, seconds, trace, chaos=False)


def loop_unet_chaos(seed: int, seconds: float, trace: bool) -> Outcome:
    return _unet_loop(seed, seconds, trace, chaos=True)


# ----------------------------------------------------------------------
# cartpole_ticks
# ----------------------------------------------------------------------
class _TickClock:
    """Plant session proxy stamping each tick as ``run_closed_loop`` asks
    for its frame; traced, it also times the plant's own calls."""

    def __init__(self, session, traced: bool):
        self.session = session
        self.traced = traced
        self.stamps: List[float] = []
        self.next_frame_s = 0.0
        self.step_s = 0.0

    def next_frame(self):
        t = cpu_clock()
        self.stamps.append(t)
        frame = self.session.next_frame()
        if self.traced:
            self.next_frame_s += cpu_clock() - t
        return frame

    def step(self, record) -> None:
        if not self.traced:
            return self.session.step(record)
        t = cpu_clock()
        self.session.step(record)
        self.step_s += cpu_clock() - t


def _cartpole_setup(plant):
    """Model, uniform ``<16,7>`` conversion and compile, each timed."""
    from repro.core.api import RuntimeConfig
    from repro.hls.converter import convert
    from repro.hls.precision import uniform_config

    stages = {}
    t = cpu_clock()
    float_model = plant.default_model()
    stages["setup.load_s"] = cpu_clock() - t
    t = cpu_clock()
    width, integer = RuntimeConfig().precision
    model = convert(float_model, uniform_config(width, integer,
                                                model=float_model))
    stages["setup.convert_s"] = cpu_clock() - t
    t = cpu_clock()
    model.compile(level=COMPILE_LEVEL)
    stages["setup.compile_s"] = cpu_clock() - t
    return float_model, model, stages


def cartpole_ticks(seed: int, seconds: float, trace: bool) -> Outcome:
    from repro.core.api import RuntimeConfig, build_runtime
    from repro.hls.converter import convert
    from repro.hls.precision import uniform_config
    from repro.plants import CartpolePlant, run_closed_loop

    (s_run,) = child_seeds(seed, 1)
    run_seed = int_seed(s_run)
    plant = CartpolePlant()
    timings = []
    for _ in range(CARTPOLE_SETUPS):
        float_model, model, stages = _cartpole_setup(plant)
        timings.append(stages)
    stages = {k: statistics.median(t[k] for t in timings)
              for k in timings[0]}
    setup_s = statistics.median(sum(t.values()) for t in timings)
    config = RuntimeConfig(compile_level=COMPILE_LEVEL)

    width, integer = RuntimeConfig().precision
    naive = convert(float_model, uniform_config(width, integer,
                                                model=float_model))
    ref_runtime = build_runtime(
        naive, plant=plant,
        config=RuntimeConfig(batch_inference=False, compile_level=0))
    ref_session = plant.session(run_seed)
    oracle = run_closed_loop(ref_runtime, ref_session, EPISODE_TICKS,
                             seed=run_seed)
    oracle_q = ref_session.quality(oracle)
    plant_s = {"next_frame": 0.0, "step": 0.0}
    layers = _LayerTotals()
    reset_peak_rss()

    def rep(traced: bool):
        runtime = build_runtime(model, config=config, plant=plant)
        session = _TickClock(plant.session(run_seed), traced)
        if traced:
            with PredictProbe(model) as probe, \
                    CallTimer(runtime, "run") as run:
                t = cpu_clock()
                records = run_closed_loop(runtime, session, EPISODE_TICKS,
                                          seed=run_seed)
                end = cpu_clock()
            layers.add(EPISODE_TICKS, probe, run)
            plant_s["next_frame"] += session.next_frame_s
            plant_s["step"] += session.step_s
        else:
            t = cpu_clock()
            records = run_closed_loop(runtime, session, EPISODE_TICKS,
                                      seed=run_seed)
            end = cpu_clock()
        ticks_ms = np.diff(np.append(session.stamps, end)) * 1e3
        return (end - t, records, ticks_ms,
                (runtime, session.session.quality(records)))

    def check(result) -> bool:
        quality = result[3][1]
        return (result[1] == oracle and quality.stabilized
                and quality.trip_precision == oracle_q.trip_precision
                and quality.trip_recall == oracle_q.trip_recall)

    reps = _Repeats(EPISODE_TICKS, TICK_WINDOW)
    reps.run(seconds, trace, rep, check)
    out = reps.out
    if reps.last is None:
        return out
    _, records, _, (runtime, quality) = reps.last
    out.notes.append(
        f"episode of {EPISODE_TICKS} ticks: stabilised in "
        f"{quality.stabilization_time_s * 1e3:.1f} ms, trip precision "
        f"{quality.trip_precision:.4f}, recall {quality.trip_recall:.4f}")
    if not trace:
        out.metrics = reps.end_to_end(
            records, setup_s, runtime.health_report().deadline_miss_rate)
        return out
    n_traced = EPISODE_TICKS * len(reps.seconds[True])
    out.metrics = {**stages, **layers.metrics(),
                   **health_counts(runtime.health_report()),
                   **sim_step_means_us(runtime, records),
                   "plants.next_frame_us": plant_s["next_frame"] / n_traced * 1e6,
                   "plants.step_us": plant_s["step"] / n_traced * 1e6,
                   "trace.overhead_frac": reps.overhead_frac()}
    return out
