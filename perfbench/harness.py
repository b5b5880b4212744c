"""Shared pieces of the benchmark: environment, seeded inputs, set-up,
statistics, peak-memory probes and the timing wrappers of the traced run.

Every workload module builds on these; nothing here starts a thread or a
process at import time.
"""

from __future__ import annotations

import ctypes
import glob
import math
import os
import platform
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence

import numpy as np

#: Root of the checkout (``perfbench/`` sits directly under it).
ROOT = Path(__file__).resolve().parent.parent

#: Graph-compiler level of every deployed design in the benchmark.
COMPILE_LEVEL = 2

#: Wall clock: the run's time limit and the paced daemon round.
wall_clock = time.perf_counter

#: CPU time of this process, what in-process work is timed with.  The
#: host is shared: wall time also counts the time the operating system
#: or the hypervisor gives to other tenants, which changes the figures
#: by up to a factor of two from minute to minute.  Those workloads run
#: on one thread (``run.py`` pins BLAS to one), so on an idle core this
#: clock reads what the wall clock would.
cpu_clock = time.process_time


# ----------------------------------------------------------------------
# Environment
# ----------------------------------------------------------------------
def _git_sha() -> Optional[str]:
    """HEAD of the checkout, read from ``.git`` (None outside a clone)."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def _blas_threads() -> Optional[int]:
    """Thread count of the OpenBLAS numpy was built against, if bundled."""
    import numpy

    libdir = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(glob.glob(str(libdir / "*openblas*.so*"))):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for name in ("scipy_openblas_get_num_threads64_",
                     "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(handle, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    env = os.environ.get("OPENBLAS_NUM_THREADS")
    return int(env) if env and env.isdigit() else None


def environment(seed: int, workload: str, seconds: float,
                trace: bool) -> Dict[str, object]:
    """What every result is recorded with."""
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "nproc": os.cpu_count(),
        "blas_threads": _blas_threads(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_sha": _git_sha(),
    }


@dataclass
class Outcome:
    """What one workload run hands back to ``run.py``."""

    attempted: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)
    metrics: Dict[str, float] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)

    def fail(self, frames: int, why: str) -> None:
        self.failed += frames
        self.errors.append(why)

    @property
    def correct(self) -> bool:
        return not self.errors and self.attempted > 0


# ----------------------------------------------------------------------
# Seeds and inputs
# ----------------------------------------------------------------------
def child_seeds(seed: int, n: int) -> List[np.random.SeedSequence]:
    """*n* independent seed sequences derived from the workload seed."""
    return np.random.SeedSequence(seed).spawn(n)


def int_seed(seq: np.random.SeedSequence) -> int:
    """A plain integer seed (what the facade's ``seed=`` takes)."""
    return int(seq.generate_state(1, dtype=np.uint32)[0])


def beamloss_frames(seq: np.random.SeedSequence, n: int,
                    standardizer) -> np.ndarray:
    """*n* fresh standardised beam-loss frames drawn from *seq*.

    Blends the two default machines over the reference tunnel and
    digitizes them through the reference BLM array, exactly as the
    dataset is made, so every seed gives statistically fresh frames
    instead of cycling the evaluation split.
    """
    from repro.beamloss import (BLMArray, TunnelGeometry, blend,
                                default_mi, default_rr)

    s_blend, s_noise = seq.spawn(2)
    blended = blend([default_mi(), default_rr()], TunnelGeometry(), n,
                    seed=s_blend)
    raw = BLMArray().digitize(blended.total,
                              rng=np.random.default_rng(s_noise))
    return standardizer.transform(raw)


# ----------------------------------------------------------------------
# Set-up
# ----------------------------------------------------------------------
@dataclass
class UNetSetup:
    """The deployed layer-based ``<16,x>`` U-Net and what it cost."""

    bundle: object
    hls_config: object
    model: object                      # compiled HLSModel
    stages: Dict[str, float] = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return sum(self.stages.values())


def setup_unet() -> UNetSetup:
    """Cold set-up a user pays before the first frame.

    ``load_pretrained``, layer-based profiling over the 1500-frame
    training split, conversion and compilation, each timed on its own.
    """
    from repro.core.api import load_pretrained
    from repro.hls.converter import convert
    from repro.hls.precision import layer_based_config

    stages = {}
    t = cpu_clock()
    bundle = load_pretrained()
    stages["setup.load_s"] = cpu_clock() - t
    t = cpu_clock()
    x_profile = bundle.dataset.unet_inputs(bundle.dataset.x_train)
    hls_config = layer_based_config(bundle.unet, x_profile)
    stages["setup.profile_s"] = cpu_clock() - t
    t = cpu_clock()
    model = convert(bundle.unet, hls_config)
    stages["setup.convert_s"] = cpu_clock() - t
    t = cpu_clock()
    model.compile(level=COMPILE_LEVEL)
    stages["setup.compile_s"] = cpu_clock() - t
    return UNetSetup(bundle, hls_config, model, stages)


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def tail_percentile(n: int) -> float:
    """Highest percentile (at most 99) with at least ten samples above.

    The tail metrics are named ``*_p99_*``; with fewer than 1000 samples
    they report this lower percentile, printed next to the sample count.
    """
    if n <= 10:
        return 50.0
    return min(99.0, math.floor(1000.0 * (1.0 - 10.0 / n)) / 10.0)


def percentile(values: Sequence[float], q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def median_tail(values: Sequence[float]):
    """``(p50, tail, tail percentile, n)`` of *values*."""
    n = len(values)
    q = tail_percentile(n)
    return percentile(values, 50), percentile(values, q), q, n


def windowed_median_tail(windows: Sequence[Sequence[float]]):
    """p50 and tail within each window, then the median over windows.

    A window is one repetition of the workload (or a slice of the
    daemon's round).  The host's CPU is shared and stalls in bursts that
    hit every frame in flight at once; taken over all frames pooled, the
    tail would measure how many bursts one run happened to meet.  Within
    windows, a burst moves one window's figures and not their median.
    Returns ``(p50, tail, tail percentile, samples per window, windows)``.
    """
    stats = [median_tail(w) for w in windows]
    return (statistics.median(s[0] for s in stats),
            statistics.median(s[1] for s in stats),
            min(s[2] for s in stats), min(s[3] for s in stats), len(stats))


# ----------------------------------------------------------------------
# Peak resident memory
# ----------------------------------------------------------------------
def peak_rss_mib(pid: object = "self") -> float:
    """Peak resident set (``VmHWM``) of a live process, in MiB."""
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")


def reset_peak_rss() -> None:
    """Restart this process's peak-RSS count from its current RSS.

    Lets the workload report the memory its timed phase holds instead of
    the profiling pass of set-up, which dwarfs it.
    """
    with open("/proc/self/clear_refs", "w") as f:
        f.write("5")


# ----------------------------------------------------------------------
# Traced-run wrappers
# ----------------------------------------------------------------------
#: Compiled-step groups reported as ``hls.<group>_us_per_frame``.
STEP_GROUPS = ("conv", "pool", "upsample", "concat", "other")
_KIND_GROUP = {"conv1d": "conv", "maxpool": "pool", "upsample": "upsample",
               "concat": "concat"}


def step_groups(model) -> Dict[str, str]:
    """Compiled step name → group, from the kinds of the kernels it covers."""
    kinds = {k.name: k.kind for k in model.kernels}
    groups = {}
    for step in model.compiled_plan.steps:
        covered = {_KIND_GROUP.get(kinds.get(name)) for name in step.covers}
        groups[step.name] = next(
            (g for g in STEP_GROUPS if g in covered), "other")
    return groups


class PredictProbe:
    """Times ``HLSModel.predict`` calls made by the runtime.

    Installed as an instance attribute of the benchmark's own model
    object for one traced block and removed afterwards; every call runs
    with ``profile=True`` so the compiled plan's per-step times come from
    the very calls the runtime made.
    """

    def __init__(self, model):
        self.model = model
        self.groups = step_groups(model)
        self.seconds = 0.0
        self.frames = 0
        self.step_seconds = dict.fromkeys(STEP_GROUPS, 0.0)

    def __enter__(self) -> "PredictProbe":
        predict = type(self.model).predict
        model = self.model

        def timed(x, **kwargs):
            t = cpu_clock()
            y = predict(model, x, profile=True, **kwargs)
            self.seconds += cpu_clock() - t
            self.frames += int(np.shape(x)[0])
            for name, dt in model.last_run_stats.step_times.items():
                self.step_seconds[self.groups.get(name, "other")] += dt
            return y

        model.predict = timed
        return self

    def __exit__(self, *exc) -> None:
        del self.model.predict


class CallTimer:
    """Wraps one bound method of a benchmark-owned object with a timer."""

    def __init__(self, obj, name: str):
        self.obj, self.name = obj, name
        self.seconds = 0.0
        self.calls = 0

    def __enter__(self) -> "CallTimer":
        method = getattr(self.obj, self.name)

        def timed(*args, **kwargs):
            t = cpu_clock()
            try:
                return method(*args, **kwargs)
            finally:
                self.seconds += cpu_clock() - t
                self.calls += 1

        setattr(self.obj, self.name, timed)
        return self

    def __exit__(self, *exc) -> None:
        delattr(self.obj, self.name)


def sim_step_means_us(runtime, records) -> Dict[str, float]:
    """Mean simulated time of the node's steps, in microseconds.

    Step 0 (hub delay) from the records; steps 1, 3–6 and 8 from the
    board's performance counters.
    """
    counters = runtime.board.counters

    def mean_us(name: str) -> float:
        d = counters.durations(name)
        return float(np.mean(d)) * 1e6 if d else 0.0

    return {
        "sim.hub_delay_us": float(np.mean(
            [r.hub_delay_s for r in records])) * 1e6,
        "sim.write_input_us": mean_us("step1_write_input"),
        "sim.ip_compute_us": mean_us("ip_compute"),
        "sim.read_output_us": mean_us("step8_read_output"),
    }


def node_latencies_ms(records) -> List[float]:
    """Simulated node latency (steps 1–8) of the frames the node finished.

    A frame the watchdog abandoned reports the watchdog budget instead;
    those frames show in ``deadline_met_frac`` and ``soc.watchdog_trips``.
    """
    from repro.soc.runtime import STATUS_WATCHDOG

    return [r.node_latency_s * 1e3 for r in records
            if r.status != STATUS_WATCHDOG]


def health_counts(health) -> Dict[str, float]:
    """The ``soc.*`` counters of a ``HealthReport`` or ``FarmHealth``."""
    spec = health.frames_speculated
    return {
        "soc.frames_speculated": float(spec),
        "soc.frames_replayed": float(health.frames_replayed),
        "soc.spec_useful_frac": ((spec - health.frames_replayed) / spec
                                 if spec else 0.0),
        "soc.watchdog_trips": float(health.watchdog_trips),
        "soc.publish_retries": float(health.publish_retries),
        "soc.dead_letters": float(health.dead_letters),
    }
