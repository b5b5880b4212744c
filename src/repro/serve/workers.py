"""Shard execution: runtime replicas, worker processes, crash recovery.

The execution layer under :class:`~repro.serve.farm.ShardedNodeFarm`
and :class:`~repro.serve.daemon.ServingDaemon`:

* :class:`FarmSpec` — a picklable recipe for one runtime replica
  (model + fallback + :class:`~repro.core.api.RuntimeConfig` +
  :class:`~repro.obs.ObsConfig`).  Every replica is built from a
  pickle round-trip of the spec's models, so the in-process reference
  constructs *exactly* what a spawned worker deserialises — sharing no
  mutable state with the parent either way.
* :class:`ReplicaSource` — a per-process warm template: the first
  replica pays the full cold build (conversion + compilation), later
  replicas deserialise the cached converted/compiled models.  Replicas
  still share no mutable state (the cache holds bytes), and warm ==
  cold bit-exactly because conversion and compilation are
  deterministic.
* :class:`ShardTask` / :class:`StreamTask` / :class:`PlantTask` /
  :class:`TaskResult` — units of work.  Shard tasks are **pure**
  (re-executing one from scratch yields bit-identical results, which
  makes crash-requeue provably safe).  Stream tasks are stateful
  continuations of a long-lived per-stream replica; they become pure
  again when they carry their stream's full ``replay_batches`` history
  (the crash-recovery path).  Plant tasks run one shard's complete
  **closed-loop** session (the spec's plant synthesises every frame
  and consumes every published action); like shard tasks they are pure
  — the whole loop is a function of (spec, seed entropy, shard) — so
  crash-requeue stays safe even though actions feed back.
* :func:`execute_shard_task` / :func:`execute_stream_task` — the
  execution paths shared by the in-process reference and the workers.
* :class:`WorkerPool` — a **persistent** ``multiprocessing`` (spawn)
  pool.  ``start()`` spawns the workers once; ``submit()`` ships frame
  blocks against the live workers and ``pump()``/``wait()`` drive
  supervision (crash detection via liveness polling, worker respawn,
  task requeue, stream→worker affinity).  ``run()`` remains as the
  one-shot compatibility path and reuses a started pool when present.

Frames travel to workers through a per-block :class:`SharedMemory`
block and per-frame numeric outputs come back through another (score,
machine code, latency breakdown, status code, publish flag — see
:data:`OUTPUT_COLUMNS`); the rich :class:`FrameRecord` stream returns
through a **per-worker result pipe**.  One pipe per worker — never a
queue shared between workers — is load-bearing for crash recovery:
``multiprocessing.Queue.put`` hands the payload to a feeder thread
that flushes it while holding a write lock *shared by every writer*,
so a worker that hard-exits moments after a put can die inside that
critical section and silently deadlock all surviving writers.  A pipe
has exactly one writer and no shared lock, so a crashing worker can
only ever poison its own channel, and results it flushed before dying
are still delivered ahead of the EOF that signals the crash.
"""

from __future__ import annotations

import dataclasses
import os
import pickle
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.obs import ObsConfig, Observability
from repro.serve.sharding import shard_seed
from repro.soc.runtime import (
    STATUS_CORRUPT,
    STATUS_DEGRADED,
    STATUS_OK,
    STATUS_STALE,
    STATUS_WATCHDOG,
    CentralNodeRuntime,
    FrameRecord,
)

__all__ = [
    "FarmSpec",
    "ReplicaSource",
    "ShardTask",
    "StreamTask",
    "StreamFinish",
    "PlantTask",
    "TaskResult",
    "localize_shard_task",
    "WorkerCrashError",
    "WorkerPool",
    "BlockHandle",
    "PoolStats",
    "execute_shard_task",
    "execute_stream_task",
    "execute_plant_task",
    "OUTPUT_COLUMNS",
    "STATUS_CODES",
]

#: Status → numeric code for the shared-memory output buffer.
STATUS_CODES: Tuple[str, ...] = (STATUS_OK, STATUS_DEGRADED, STATUS_STALE,
                                 STATUS_CORRUPT, STATUS_WATCHDOG)

#: Columns of the per-frame output row a worker writes into shared
#: memory (float64 each).  ``machine`` is the index into the
#: controller's ``machine_names`` (-1 = no trip); ``status`` indexes
#: :data:`STATUS_CODES`.
OUTPUT_COLUMNS: Tuple[str, ...] = ("score", "machine", "total_latency_s",
                                   "node_latency_s", "hub_delay_s",
                                   "status", "published")


@dataclass(frozen=True)
class FarmSpec:
    """Picklable recipe for one shard's runtime replica.

    ``model``/``fallback`` may be float :class:`~repro.nn.Model`\\ s or
    converted :class:`~repro.hls.HLSModel`\\ s — they pass through
    :func:`repro.core.api.build_runtime`, which converts and compiles
    per ``config.compile_level``.  ``obs`` being non-None gives every
    replica its *own* observability bundle; the farm merges the
    per-shard snapshots afterwards (:mod:`repro.serve.merge`).

    ``injector`` arms every replica with the same
    :class:`~repro.soc.faults.FaultInjector` recipe (specs + seed);
    schedules are a pure function of (seed, spec, frame index), so each
    shard's chaos is identical no matter which worker runs it, and the
    runtime's speculative ladder keeps the batched fast path live under
    the armed injector.

    ``plant`` (a :class:`~repro.plants.Plant`, or None for the default
    beam-loss wiring) rides the spec to every replica: it supplies the
    hub topology and trip controller at build time, and — for
    closed-loop plants — the per-shard session a :class:`PlantTask`
    drives.  Plants are small frozen dataclasses, so the pickle
    round-trip is cheap and every worker reconstructs the same
    workload.
    """

    model: Any
    fallback: Any = None
    config: Any = None          # RuntimeConfig (default built lazily)
    obs: Optional[ObsConfig] = None
    injector: Any = None        # FaultInjector (stateless, picklable)
    plant: Any = None           # Plant (frozen, picklable)

    def build_runtime(self) -> CentralNodeRuntime:
        """A fresh, fully private runtime replica (cold build).

        The models are pickle round-tripped so replicas built in this
        process share nothing with the spec (or each other) — the exact
        object graph a spawned worker gets off the wire.
        """
        from repro.core.api import RuntimeConfig, build_runtime

        model = pickle.loads(pickle.dumps(self.model))
        fallback = (pickle.loads(pickle.dumps(self.fallback))
                    if self.fallback is not None else None)
        injector = (pickle.loads(pickle.dumps(self.injector))
                    if self.injector is not None else None)
        plant = (pickle.loads(pickle.dumps(self.plant))
                 if self.plant is not None else None)
        return build_runtime(
            model,
            fallback=fallback,
            config=self.config or RuntimeConfig(),
            obs=Observability.from_config(self.obs),
            injector=injector,
            plant=plant,
        )


class ReplicaSource:
    """Per-process warm replica factory for one :class:`FarmSpec`.

    The first :meth:`build_runtime` call performs the full cold build
    (pickle round-trip, float→HLS conversion, graph compilation per
    ``config.compile_level``) and caches the *converted and compiled*
    models as pickled bytes.  Every later call deserialises that
    template and assembles a fresh runtime shell (boards, RAMs, hub
    network, controller, counters) around it.  Replicas therefore
    share **no mutable state** — the cache holds bytes, not objects —
    while the expensive model work is paid once per worker process
    instead of once per task.

    Warm is bit-identical to cold: conversion and compilation are
    deterministic functions of the spec, so the cached template is
    exactly what every cold build would have produced, and
    :func:`repro.core.api.build_runtime` skips re-compilation when it
    receives an already-compiled :class:`~repro.hls.HLSModel`.
    """

    def __init__(self, spec: FarmSpec):
        self.spec = spec
        self._template: Optional[bytes] = None
        self.cold_builds = 0
        self.warm_builds = 0

    def build_runtime(self) -> CentralNodeRuntime:
        from repro.core.api import RuntimeConfig, build_runtime

        spec = self.spec
        if self._template is None:
            runtime = spec.build_runtime()
            fallback_model = (runtime.fallback_board.ip.hls_model
                              if runtime.fallback_board is not None else None)
            self._template = pickle.dumps(
                (runtime.board.ip.hls_model, fallback_model))
            self.cold_builds += 1
            return runtime
        model, fallback = pickle.loads(self._template)
        injector = (pickle.loads(pickle.dumps(spec.injector))
                    if spec.injector is not None else None)
        plant = (pickle.loads(pickle.dumps(spec.plant))
                 if spec.plant is not None else None)
        self.warm_builds += 1
        return build_runtime(
            model,
            fallback=fallback,
            config=spec.config or RuntimeConfig(),
            obs=Observability.from_config(spec.obs),
            injector=injector,
            plant=plant,
        )


@dataclass(frozen=True)
class ShardTask:
    """One shard's complete, self-contained unit of work.

    ``global_indices`` are the shard's frames (arrival order) in the
    shared frame buffer; ``batches`` is the micro-batch plan as
    half-open ranges over those indices.  ``crash`` is a test hook: a
    worker claiming a crash-flagged task dies hard before executing it
    (the supervisor requeues it with the flag cleared).
    """

    task_id: int
    shard: int
    seed_entropy: Optional[int]
    global_indices: Tuple[int, ...]
    batches: Tuple[Tuple[int, int], ...]
    crash: bool = False


def localize_shard_task(task: ShardTask,
                        frames: np.ndarray) -> Tuple[ShardTask, np.ndarray]:
    """Rewrite *task* against its own frame slice (cross-host shipping).

    The host transport sends each shard only its own frames; the
    returned task indexes that slice contiguously (``0..n-1``) while
    keeping ``shard``/``seed_entropy``/``batches`` untouched, so the
    replica sees exactly the frames, seed, and batch boundaries the
    global task describes — bit-identical by construction.  The
    caller scatters the n local output rows back to the original
    ``global_indices``.
    """
    idx = np.asarray(task.global_indices, dtype=np.intp)
    local = np.ascontiguousarray(frames[idx], dtype=np.float64)
    localized = dataclasses.replace(
        task, global_indices=tuple(range(len(idx))))
    return localized, local


@dataclass(frozen=True)
class PlantTask:
    """One shard's complete closed-loop plant session.

    The worker synthesises every frame from the spec's plant session
    (seeded from ``(seed_entropy, shard)``) and feeds each published
    action back before the next frame — no caller frames travel at
    all.  ``global_indices`` are the rows of the block's output matrix
    this shard fills (its frames in the farm's interleaved global
    order).

    Closed-loop streams never split across workers: the whole session
    is one task, so actuation ordering within the shard is total and
    the result is bit-identical to the in-process reference no matter
    how many workers the pool runs.  The task is **pure** — a fresh
    replica and a fresh session are a function of (spec, seed entropy,
    shard) — so crash-requeue is as safe as for :class:`ShardTask`.
    ``crash`` is the same die-before-executing test hook.
    """

    task_id: int
    shard: int
    seed_entropy: Optional[int]
    global_indices: Tuple[int, ...]
    crash: bool = False

    @property
    def batches(self) -> Tuple[Tuple[int, int], ...]:
        """Closed-loop stepping is per-frame: one micro-batch each."""
        return tuple((i, i + 1) for i in range(len(self.global_indices)))


@dataclass(frozen=True)
class StreamTask:
    """One micro-batch of one long-lived stream.

    Unlike :class:`ShardTask`, a stream task is *stateful*: the worker
    that owns the stream keeps its runtime replica alive between
    batches, so batch ``k+1`` continues exactly where batch ``k`` left
    off (record index and seed derivation, degradation hysteresis, SEU
    taint, ACNET publish ordering).  The pool pins every stream to its
    home worker for exactly this reason.

    ``replay_batches`` makes a task **self-contained** again: the
    task's frame block then leads with the stream's full accepted
    history (one half-open range per historical batch, stream-local
    indices), so a fresh worker can rebuild the replica state by
    re-running history before the new batch.  Replay is a pure function
    of the accepted frame sequence and batch boundaries, hence
    bit-identical to the lost state — the crash-recovery path.

    ``start`` is the stream-local index of the first *new* frame;
    ``n_frames`` counts the new frames (the trailing rows of the
    block).  ``crash`` is the same test hook as on shard tasks.
    """

    task_id: int
    stream: int
    seed_entropy: Optional[int]
    start: int
    n_frames: int
    replay_batches: Tuple[Tuple[int, int], ...] = ()
    crash: bool = False

    @property
    def replay_rows(self) -> int:
        return sum(b - a for a, b in self.replay_batches)

    @property
    def self_contained(self) -> bool:
        """True when this task can run on a worker with no stream state."""
        return self.start == 0 or self.replay_rows == self.start


@dataclass(frozen=True)
class StreamFinish:
    """Close a stream: return its final health/obs snapshot, drop state."""

    task_id: int
    stream: int


@dataclass
class TaskResult:
    """Everything one executed task produced."""

    task_id: int
    shard: int
    records: List[FrameRecord]
    health: Dict[str, Any]
    obs_snapshot: Optional[Dict[str, Any]] = None


class WorkerCrashError(RuntimeError):
    """The pool exhausted its restart budget (or lost all workers)."""


# ----------------------------------------------------------------------
# Task execution (shared by the inline reference and worker processes)
# ----------------------------------------------------------------------
def output_row_writer(runtime: CentralNodeRuntime) -> Callable[[Any], tuple]:
    """Build a FrameRecord → :data:`OUTPUT_COLUMNS` row encoder.

    The machine-name→code and status→code maps are precomputed once —
    ``machine_names.index()`` per frame was a linear scan per record.
    """
    machine_codes = {name: float(i) for i, name
                     in enumerate(runtime.controller.machine_names)}
    status_codes = {status: float(i)
                    for i, status in enumerate(STATUS_CODES)}

    def row(r: FrameRecord) -> tuple:
        machine = r.decision.machine
        return (
            float(r.decision.score),
            -1.0 if machine is None else machine_codes[machine],
            float(r.total_latency_s),
            float(r.node_latency_s),
            float(r.hub_delay_s),
            status_codes[r.status],
            1.0 if r.published else 0.0,
        )

    return row


def execute_shard_task(spec: FarmSpec, task: ShardTask, frames: np.ndarray,
                       out: Optional[np.ndarray] = None, *,
                       source: Optional[ReplicaSource] = None) -> TaskResult:
    """Run one shard task on a fresh replica; optionally fill *out*.

    *frames* is the **global** frame block; the task's own indices
    select the shard's slice.  *out* (when given) is the global
    ``(n_frames, len(OUTPUT_COLUMNS))`` output buffer; the task writes
    exactly its own rows.  *source* (when given) supplies warm replicas
    (bit-identical to cold ones).  Pure: no state survives the call
    except the returned :class:`TaskResult` and the output rows.
    """
    runtime = (source.build_runtime() if source is not None
               else spec.build_runtime())
    seed = shard_seed(task.seed_entropy, task.shard)
    local = frames[np.asarray(task.global_indices, dtype=np.intp)]
    records: List[FrameRecord] = []
    for a, b in task.batches:
        records.extend(runtime.run(local[a:b], seed=seed))
    if len(records) != len(task.global_indices):
        raise AssertionError(
            f"shard {task.shard}: {len(records)} records for "
            f"{len(task.global_indices)} frames")
    if out is not None:
        row = output_row_writer(runtime)
        for g, r in zip(task.global_indices, records):
            out[g, :] = row(r)
    obs_snapshot = (runtime.obs.snapshot(runtime=runtime)
                    if runtime.obs is not None else None)
    return TaskResult(
        task_id=task.task_id,
        shard=task.shard,
        records=records,
        health=dataclasses.asdict(runtime.health_report()),
        obs_snapshot=obs_snapshot,
    )


def execute_plant_task(spec: FarmSpec, task: PlantTask,
                       frames: Optional[np.ndarray] = None,
                       out: Optional[np.ndarray] = None, *,
                       source: Optional[ReplicaSource] = None) -> TaskResult:
    """Run one closed-loop plant session on a fresh replica.

    *frames* is accepted (and ignored) so the worker dispatch path
    stays uniform — a plant block ships a placeholder frame buffer.
    *out* (when given) receives this shard's rows at
    ``task.global_indices``.  Pure: session state dies with the call.
    """
    plant = spec.plant
    if plant is None or not getattr(plant, "closed_loop", False):
        raise ValueError(
            f"PlantTask needs a closed-loop plant on the spec, got "
            f"{type(plant).__name__ if plant is not None else None}")
    from repro.plants import run_closed_loop

    runtime = (source.build_runtime() if source is not None
               else spec.build_runtime())
    seed = shard_seed(task.seed_entropy, task.shard)
    session = runtime.plant.session(seed)
    records = run_closed_loop(runtime, session,
                              len(task.global_indices), seed=seed)
    if out is not None:
        row = output_row_writer(runtime)
        for g, r in zip(task.global_indices, records):
            out[g, :] = row(r)
    health = dataclasses.replace(runtime.health_report(),
                                 control=session.quality(records))
    if runtime.obs is not None:
        from repro.plants import fold_control_metrics

        fold_control_metrics(runtime.obs.metrics, health.control)
    obs_snapshot = (runtime.obs.snapshot(runtime=runtime)
                    if runtime.obs is not None else None)
    return TaskResult(
        task_id=task.task_id,
        shard=task.shard,
        records=records,
        health=dataclasses.asdict(health),
        obs_snapshot=obs_snapshot,
    )


def execute_stream_task(spec: FarmSpec, task: StreamTask, frames: np.ndarray,
                        out: Optional[np.ndarray] = None, *,
                        source: Optional[ReplicaSource] = None,
                        streams: Optional[Dict[int, dict]] = None,
                        ) -> TaskResult:
    """Run one stream batch against persistent per-stream replica state.

    *streams* maps stream id → live state; pass the same dict across
    calls to keep replicas warm between batches (the worker does
    exactly this).  *frames* is the task's block: ``replay_rows``
    history rows first, then ``n_frames`` new rows.  *out* (when given)
    receives one row per **new** frame at rows ``0..n_frames-1``.
    """
    if streams is None:
        streams = {}
    frames = np.asarray(frames, dtype=np.float64)
    state = streams.get(task.stream)
    if state is not None and task.replay_batches:
        # A replay task supersedes whatever state exists (the
        # supervisor only replays when the home worker's state died,
        # so this is defensive — but replay must win if it happens).
        state = None
    if state is None:
        if not task.self_contained:
            raise AssertionError(
                f"stream {task.stream}: continuation task at start "
                f"{task.start} reached a worker holding no stream state")
        runtime = (source.build_runtime() if source is not None
                   else spec.build_runtime())
        seed = shard_seed(task.seed_entropy, task.stream)
        pos = 0
        for a, b in task.replay_batches:
            runtime.run(frames[pos:pos + (b - a)], seed=seed)
            pos += b - a
        if len(runtime.records) != task.start:
            raise AssertionError(
                f"stream {task.stream}: replay rebuilt {len(runtime.records)}"
                f" frames of state, task starts at {task.start}")
        state = {"runtime": runtime, "seed": seed}
        streams[task.stream] = state
    runtime = state["runtime"]
    if len(runtime.records) != task.start:
        raise AssertionError(
            f"stream {task.stream}: replica state is at frame "
            f"{len(runtime.records)}, task starts at {task.start}")
    new = frames[task.replay_rows:task.replay_rows + task.n_frames]
    records = list(runtime.run(new, seed=state["seed"]))
    if out is not None:
        row = output_row_writer(runtime)
        for i, r in enumerate(records):
            out[i, :] = row(r)
    return TaskResult(
        task_id=task.task_id,
        shard=task.stream,
        records=records,
        health=dataclasses.asdict(runtime.health_report()),
    )


def finish_stream(streams: Dict[int, dict], task: StreamFinish) -> TaskResult:
    """Drop a stream's replica state, returning its final health/obs."""
    state = streams.pop(task.stream, None)
    if state is None:
        return TaskResult(task_id=task.task_id, shard=task.stream,
                          records=[], health={})
    runtime = state["runtime"]
    obs_snapshot = (runtime.obs.snapshot(runtime=runtime)
                    if runtime.obs is not None else None)
    return TaskResult(
        task_id=task.task_id,
        shard=task.stream,
        records=[],
        health=dataclasses.asdict(runtime.health_report()),
        obs_snapshot=obs_snapshot,
    )


# ----------------------------------------------------------------------
# Worker process body
# ----------------------------------------------------------------------
def _attach_shm(name: str):
    """Attach an existing SharedMemory block.

    Spawn children share the parent's resource-tracker process, whose
    name cache is a set — the attach-side ``register`` this interpreter
    performs is therefore a no-op duplicate, and the parent's
    ``unlink`` retires the single entry.  (Do **not** ``unregister``
    here: that would strip the parent's entry and make its unlink
    complain about an unknown name.)
    """
    from multiprocessing import shared_memory

    return shared_memory.SharedMemory(name=name)


def _worker_main(worker_id: int, spec: FarmSpec, inbox, results) -> None:
    """Worker loop: pull task messages until the ``None`` sentinel.

    One :class:`ReplicaSource` per process keeps replica builds warm
    across tasks; the ``streams`` dict keeps per-stream runtimes alive
    between stream batches.  Shared-memory blocks are per *frame
    block* now (the pool is persistent), so each task message carries
    its block's shm names and the worker attaches/detaches per task.

    *results* is this worker's private end of a one-writer pipe —
    ``send`` completes synchronously in this thread, so once a task's
    result is on the wire no later crash can retract or block it.  A
    deterministic task failure is reported as an ``("error", ...)``
    message (with traceback) before the worker dies, so the supervisor
    can fail loudly instead of requeue-looping a poisoned task.
    """
    import multiprocessing
    from queue import Empty

    supervisor = multiprocessing.parent_process()
    source = ReplicaSource(spec)
    streams: Dict[int, dict] = {}
    try:
        while True:
            try:
                msg = inbox.get(timeout=1.0)
            except Empty:
                # Orphan guard: if the supervising process vanished
                # without the sentinel (SIGKILLed host agent, crashed
                # parent), exit instead of blocking on the inbox
                # forever.  The supervisor's sentinel pipe reports its
                # death whenever it happened — also before this worker
                # finished starting, when a getppid() snapshot taken
                # here would already read init's pid.
                if not supervisor.is_alive():
                    break
                continue
            if msg is None:
                break
            kind = msg[0]
            task = msg[1]
            try:
                if kind == "finish":
                    result = finish_stream(streams, task)
                    results.send(("done", worker_id, task.task_id, result))
                    continue
                _, _, f_name, f_shape, o_name, o_shape = msg
                if task.crash:
                    # Test hook: die hard (no cleanup, no result) so
                    # the supervisor exercises real crash detection.
                    os._exit(13)
                f_shm = _attach_shm(f_name)
                o_shm = _attach_shm(o_name)
                try:
                    frames = np.ndarray(f_shape, dtype=np.float64,
                                        buffer=f_shm.buf)
                    out = np.ndarray(o_shape, dtype=np.float64,
                                     buffer=o_shm.buf)
                    if kind == "shard":
                        result = execute_shard_task(spec, task, frames, out,
                                                    source=source)
                    elif kind == "plant":
                        result = execute_plant_task(spec, task, frames, out,
                                                    source=source)
                    else:
                        result = execute_stream_task(spec, task, frames, out,
                                                     source=source,
                                                     streams=streams)
                finally:
                    f_shm.close()
                    o_shm.close()
                results.send(("done", worker_id, task.task_id, result))
            except Exception:
                import traceback

                results.send(("error", worker_id, task.task_id,
                              traceback.format_exc()))
                raise
    finally:
        results.close()


# ----------------------------------------------------------------------
# The pool
# ----------------------------------------------------------------------
@dataclass
class PoolStats:
    """Supervisor bookkeeping (cumulative for a persistent pool).

    ``host_failures`` counts remote host-agent connections lost by a
    :class:`~repro.serve.remote.HostPool` (always 0 for a plain
    in-process pool); each one requeued that host's in-flight shards.
    """

    workers: int = 0
    worker_restarts: int = 0
    requeued_tasks: int = 0
    host_failures: int = 0


class _Entry:
    """One submitted task with its routing/bookkeeping state."""

    __slots__ = ("task", "kind", "block", "completed")

    def __init__(self, task, kind: str, block: "BlockHandle"):
        self.task = task
        self.kind = kind            # "shard" | "stream" | "finish" | "plant"
        self.block = block
        self.completed = False


@dataclass
class BlockHandle:
    """One submitted frame block making its way through the pool.

    ``results`` fills in by ``task_id`` as workers report; ``outputs``
    and ``stats`` (the per-block delta of the pool's cumulative
    counters) appear when ``done`` flips.  ``failed`` collects tasks
    the pool could not run — only possible for non-self-contained
    stream tasks whose home worker died (the caller owns the stream
    history and decides whether to resubmit a replay).
    """

    block_id: int
    tasks: Tuple[Any, ...]
    results: Dict[int, TaskResult] = field(default_factory=dict)
    outputs: Optional[np.ndarray] = None
    failed: List[Any] = field(default_factory=list)
    done: bool = False
    stats: Optional[PoolStats] = None
    _f_shm: Any = None
    _o_shm: Any = None
    _out_shape: Tuple[int, int] = (0, 0)
    _frames_shape: Tuple[int, ...] = (0, 0)
    _remaining: int = 0
    _stats0: Tuple[int, int] = (0, 0)


class WorkerPool:
    """Persistent spawn-based worker pool with crash detection.

    Lifecycle: :meth:`start` spawns ``n_workers`` processes once (each
    holding a warm :class:`ReplicaSource`); :meth:`submit` ships frame
    blocks against the live workers; :meth:`pump` (or :meth:`wait`)
    drives dispatch, result draining, and liveness supervision;
    :meth:`close` tears the pool down.  :meth:`run` is the one-shot
    compatibility path — on an unstarted pool it spawns, executes, and
    tears down like the pre-daemon pool did; on a started pool it is a
    warm ``submit`` + ``wait``.

    Any worker death is repaired up to the restart budget — idle or
    busy, whether or not other workers survive — so a persistent pool
    holds its capacity (an N-worker pool that quietly degrades to one
    worker would pass every bit-identity test while losing all its
    throughput).  A busy casualty's pure task is requeued; a stream
    continuation dies with its replica state and is failed back to the
    caller for replay.

    Parameters
    ----------
    spec:
        The replica recipe shipped to every worker once (at spawn).
    n_workers:
        Processes held live while the pool is up.
    start_method:
        ``multiprocessing`` start method; the default ``spawn`` is the
        only one that never inherits parent state (determinism) and
        works identically everywhere.
    max_restarts:
        Cumulative crash budget; exceeding it raises
        :class:`WorkerCrashError` (a farm that cannot hold its workers
        must fail loudly).
    stall_timeout_s:
        Maximum wall time with work outstanding but no completed task,
        no detected crash, and no respawn before the pool gives up
        (guards CI against silent hangs).
    """

    def __init__(self, spec: FarmSpec, n_workers: int, *,
                 start_method: str = "spawn", max_restarts: int = 8,
                 stall_timeout_s: float = 300.0):
        if n_workers < 1:
            raise ValueError(f"n_workers must be >= 1, got {n_workers}")
        if max_restarts < 0:
            raise ValueError(f"max_restarts must be >= 0, got {max_restarts}")
        self.spec = spec
        self.n_workers = n_workers
        self.start_method = start_method
        self.max_restarts = max_restarts
        self.stall_timeout_s = stall_timeout_s
        self.stats = PoolStats()
        self._started = False
        self._persistent = False
        self._ctx = None
        self._workers: Dict[int, Any] = {}
        self._inboxes: Dict[int, Any] = {}
        self._outpipes: Dict[int, Any] = {}     # wid -> parent recv end
        self._pipe_wid: Dict[Any, int] = {}
        self._assigned: Dict[int, Optional[_Entry]] = {}
        self._stream_homes: Dict[int, int] = {}  # stream -> wid
        self._pending: deque = deque()           # of _Entry
        self._active: Dict[int, _Entry] = {}     # task_id -> live entry
        self._blocks: List[BlockHandle] = []
        self._next_wid = 0
        self._next_block = 0
        self._last_progress = time.monotonic()

    # -- lifecycle -----------------------------------------------------
    @property
    def started(self) -> bool:
        return self._started

    def start(self) -> "WorkerPool":
        """Spawn the workers; the pool then holds capacity until close.

        Idempotent.  A started pool respawns *any* dead worker (idle or
        busy) to keep ``n_workers`` live, each respawn counted against
        ``max_restarts``.
        """
        if not self._started:
            self._persistent = True
            self._start(self.n_workers)
        return self

    def _start(self, n: int) -> None:
        import multiprocessing as mp

        self._ctx = mp.get_context(self.start_method)
        self.stats.workers = self.n_workers
        self._started = True
        self._last_progress = time.monotonic()
        for _ in range(n):
            self._spawn_worker()

    def _spawn_worker(self) -> int:
        wid = self._next_wid
        self._next_wid += 1
        inbox = self._ctx.Queue()
        r_recv, r_send = self._ctx.Pipe(duplex=False)
        proc = self._ctx.Process(
            target=_worker_main,
            args=(wid, self.spec, inbox, r_send),
            daemon=True,
        )
        proc.start()
        # Drop the parent's copy of the send end so the pipe hits EOF
        # the instant its (sole) worker dies.
        r_send.close()
        self._workers[wid] = proc
        self._inboxes[wid] = inbox
        self._outpipes[wid] = r_recv
        self._pipe_wid[r_recv] = wid
        self._assigned[wid] = None
        return wid

    def _drop_pipe(self, wid: int) -> None:
        conn = self._outpipes.pop(wid, None)
        if conn is not None:
            self._pipe_wid.pop(conn, None)
            conn.close()

    def close(self) -> None:
        """Tear the pool down (sentinels, join, force-kill stragglers)."""
        if not self._started:
            return
        for inbox in self._inboxes.values():
            try:
                inbox.put(None)
            except Exception:  # pragma: no cover - defensive
                pass
        for proc in self._workers.values():
            proc.join(timeout=5.0)
            if proc.is_alive():  # pragma: no cover - defensive
                proc.terminate()
                proc.join(timeout=1.0)
        for wid in list(self._outpipes):
            self._drop_pipe(wid)
        self._workers.clear()
        self._inboxes.clear()
        self._assigned.clear()
        self._stream_homes.clear()
        self._pending.clear()
        self._active.clear()
        for block in self._blocks:
            if not block.done:
                self._release_block_shm(block)
        self._blocks.clear()
        self._started = False
        self._persistent = False

    def __enter__(self) -> "WorkerPool":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.close()

    # -- introspection -------------------------------------------------
    def alive_workers(self) -> int:
        """Live worker processes right now (no supervision side effects)."""
        return sum(1 for p in self._workers.values() if p.is_alive())

    def worker_ids(self) -> List[int]:
        return sorted(self._workers)

    def worker_pid(self, wid: int) -> int:
        return self._workers[wid].pid

    def stream_home(self, stream: int) -> Optional[int]:
        """The worker holding *stream*'s replica state, if any."""
        return self._stream_homes.get(stream)

    def result_connections(self) -> List[Any]:
        """The live workers' result pipe ends (selectable objects).

        For callers embedding the pool in their own event loop (the
        host agent): each returned :class:`~multiprocessing.connection.
        Connection` has a ``fileno()`` and becomes readable the moment
        its worker posts a result, so it can sit in a selector beside
        sockets instead of being poll-pumped on a timer.  Never read
        them directly — readiness means "call :meth:`pump` now".  The
        set changes when a worker dies or respawns; re-sync after every
        pump.
        """
        return list(self._outpipes.values())

    def _outstanding(self) -> int:
        return len(self._pending) + sum(
            1 for e in self._assigned.values()
            if e is not None and not e.completed)

    # -- submission ----------------------------------------------------
    def submit(self, frames: np.ndarray, tasks: Sequence[Any],
               ) -> BlockHandle:
        """Ship a frame block + its tasks to the live workers.

        Shard tasks index *frames* globally and fill the block's output
        matrix at their own rows.  A stream task (at most one per
        block) takes the whole block as its frames (replay history
        first, new frames last) and fills rows ``0..n_frames-1``.
        :class:`StreamFinish` blocks carry no frames.  Task ids must be
        unique among in-flight work (blocks may overlap arbitrarily).
        """
        from multiprocessing import shared_memory

        if not self._started:
            raise RuntimeError("pool is not started")
        if not tasks:
            raise ValueError("submit needs at least one task")
        for t in tasks:
            if t.task_id in self._active:
                raise ValueError(
                    f"task_id {t.task_id} is already in flight")

        frames = np.ascontiguousarray(frames, dtype=np.float64)
        if frames.ndim != 2:
            frames = frames.reshape(len(frames), -1)
        kinds = []
        for t in tasks:
            if isinstance(t, ShardTask):
                kinds.append("shard")
            elif isinstance(t, StreamTask):
                kinds.append("stream")
            elif isinstance(t, StreamFinish):
                kinds.append("finish")
            elif isinstance(t, PlantTask):
                kinds.append("plant")
            else:
                raise TypeError(f"unsupported task type {type(t).__name__}")
        if len(set(kinds)) > 1:
            raise ValueError("a block must hold tasks of one kind")
        kind = kinds[0]
        if kind == "stream" and len(tasks) != 1:
            raise ValueError("a stream block holds exactly one task")

        if kind == "stream":
            out_rows = tasks[0].n_frames
        elif kind == "shard":
            out_rows = frames.shape[0]
        elif kind == "plant":
            # Plant blocks ship a placeholder frame buffer — workers
            # synthesise their own frames — but the output matrix still
            # covers every global row the tasks will fill.
            out_rows = sum(len(t.global_indices) for t in tasks)
        else:
            out_rows = 0
        out_shape = (out_rows, len(OUTPUT_COLUMNS))

        handle = BlockHandle(
            block_id=self._next_block,
            tasks=tuple(tasks),
            _out_shape=out_shape,
            _remaining=len(tasks),
            _stats0=(self.stats.worker_restarts, self.stats.requeued_tasks),
        )
        self._next_block += 1
        if kind != "finish":
            f_shm = shared_memory.SharedMemory(
                create=True, size=max(frames.nbytes, 8))
            o_shm = shared_memory.SharedMemory(
                create=True, size=max(8 * out_rows * len(OUTPUT_COLUMNS), 8))
            np.ndarray(frames.shape, dtype=np.float64,
                       buffer=f_shm.buf)[...] = frames
            np.ndarray(out_shape, dtype=np.float64,
                       buffer=o_shm.buf)[...] = np.nan
            handle._f_shm = f_shm
            handle._o_shm = o_shm
            handle._frames_shape = frames.shape
        self._blocks.append(handle)
        for t, k in zip(tasks, kinds):
            entry = _Entry(t, k, handle)
            self._pending.append(entry)
            self._active[t.task_id] = entry
        self._last_progress = time.monotonic()
        return handle

    # -- supervision ---------------------------------------------------
    def pump(self, timeout_s: float = 0.05) -> bool:
        """One supervision step: dispatch, drain, repair.

        Returns True when any result landed.  Raises
        :class:`WorkerCrashError` on budget exhaustion, a reported task
        error, or a stall (work outstanding, nothing moving).
        """
        if not self._started:
            raise RuntimeError("pool is not started")
        self._dispatch()
        progressed = self._drain(timeout_s)
        if progressed:
            self._last_progress = time.monotonic()
            return True
        self._reap()
        if (self._outstanding()
                and time.monotonic() - self._last_progress
                > self.stall_timeout_s):
            raise WorkerCrashError(
                f"no worker progress for {self.stall_timeout_s:.0f}s "
                f"({self._outstanding()} tasks outstanding)")
        return False

    def wait(self, handle: BlockHandle,
             timeout_s: Optional[float] = None) -> BlockHandle:
        """Pump until *handle* completes (stall timeout still applies)."""
        deadline = None if timeout_s is None else time.monotonic() + timeout_s
        while not handle.done:
            self.pump()
            if deadline is not None and time.monotonic() > deadline:
                raise WorkerCrashError(
                    f"block {handle.block_id} incomplete after "
                    f"{timeout_s:.0f}s")
        return handle

    def _routable(self, entry: _Entry, wid: int) -> Optional[bool]:
        """Can *entry* run on *wid*?  None = unroutable anywhere."""
        if entry.kind in ("shard", "plant"):
            return True  # pure tasks run anywhere
        home = self._stream_homes.get(entry.task.stream)
        if entry.kind == "finish":
            return None if home is None else home == wid
        if home is not None:
            return home == wid
        # No home: only a self-contained task may seed one.
        return True if entry.task.self_contained else None

    def _dispatch(self) -> None:
        for wid in list(self._workers):
            if self._assigned.get(wid) is not None:
                continue
            if not self._workers[wid].is_alive():
                continue
            chosen = None
            for entry in list(self._pending):
                if entry.completed:
                    # Duplicate of a requeued-then-completed task.
                    self._pending.remove(entry)
                    continue
                ok = self._routable(entry, wid)
                if ok is None:
                    self._pending.remove(entry)
                    self._fail_entry(
                        entry, "stream state lost (home worker died)")
                    continue
                if ok:
                    chosen = entry
                    break
            if chosen is None:
                continue
            self._pending.remove(chosen)
            self._assigned[wid] = chosen
            if chosen.kind in ("stream", "finish"):
                self._stream_homes.setdefault(chosen.task.stream, wid)
            block = chosen.block
            if chosen.kind == "finish":
                self._inboxes[wid].put(("finish", chosen.task))
            else:
                self._inboxes[wid].put(
                    (chosen.kind, chosen.task,
                     block._f_shm.name, block._frames_shape,
                     block._o_shm.name, block._out_shape))

    def _drain(self, timeout_s: float) -> bool:
        from multiprocessing import connection as mp_connection

        pipes = list(self._outpipes.values())
        if not pipes:
            # Every pipe is down (workers mid-respawn after a mass
            # crash): sleep instead of busy-spinning the supervisor.
            time.sleep(min(max(timeout_s, 0.0), 0.05))
            return False
        progressed = False
        for conn in mp_connection.wait(pipes, timeout=timeout_s):
            wid = self._pipe_wid.get(conn)
            try:
                msg = conn.recv()
            except EOFError:
                # Worker gone; the reap pass requeues whatever it held.
                self._drop_pipe(wid)
                continue
            kind, src_wid, tid, payload = msg
            if kind == "error":
                raise WorkerCrashError(
                    f"worker {src_wid} failed task {tid}:\n{payload}")
            entry = self._active.get(tid)
            if entry is not None and not entry.completed:
                entry.completed = True
                del self._active[tid]
                if entry.kind == "finish":
                    # Stream closed: release its worker pinning.
                    self._stream_homes.pop(entry.task.stream, None)
                block = entry.block
                block.results[tid] = payload
                block._remaining -= 1
                if block._remaining == 0:
                    self._finalize_block(block)
                progressed = True
            if self._assigned.get(wid) is not None:
                self._assigned[wid] = None
        return progressed

    def _reap(self) -> None:
        """Repair dead workers: requeue/fail their work, respawn."""
        for wid in list(self._workers):
            proc = self._workers[wid]
            if proc.is_alive():
                continue
            entry = self._assigned.pop(wid, None)
            self._workers.pop(wid)
            self._inboxes.pop(wid)
            self._drop_pipe(wid)
            # Any stream homed here lost its replica state.
            for stream in [s for s, w in self._stream_homes.items()
                           if w == wid]:
                del self._stream_homes[stream]
            if entry is not None and not entry.completed:
                requeue = (entry.kind in ("shard", "plant")
                           or (entry.kind == "stream"
                               and entry.task.self_contained))
                if requeue:
                    self.stats.requeued_tasks += 1
                    self._pending.appendleft(_Entry(
                        dataclasses.replace(entry.task, crash=False),
                        entry.kind, entry.block))
                    self._active[entry.task.task_id] = self._pending[0]
                else:
                    self._fail_entry(
                        entry, "worker died holding stream state")
            # Hold capacity: a persistent pool replaces every casualty
            # (idle or busy); a run()-scoped pool replaces casualties
            # while work remains.  Either way the respawn counts
            # against the restart budget and refreshes the stall clock
            # (recovery is progress, not a hang).
            if self._persistent or self._outstanding():
                self.stats.worker_restarts += 1
                if self.stats.worker_restarts > self.max_restarts:
                    raise WorkerCrashError(
                        f"worker crash budget exhausted "
                        f"({self.max_restarts} restarts); last casualty "
                        f"was worker {wid}")
                self._spawn_worker()
                self._last_progress = time.monotonic()

    def _fail_entry(self, entry: _Entry, reason: str) -> None:
        entry.completed = True
        self._active.pop(entry.task.task_id, None)
        block = entry.block
        block.failed.append(entry.task)
        block._remaining -= 1
        if block._remaining == 0:
            self._finalize_block(block)

    def _finalize_block(self, block: BlockHandle) -> None:
        if block._o_shm is not None:
            block.outputs = np.array(
                np.ndarray(block._out_shape, dtype=np.float64,
                           buffer=block._o_shm.buf),
                copy=True)
        self._release_block_shm(block)
        r0, q0 = block._stats0
        block.stats = PoolStats(
            workers=self.n_workers,
            worker_restarts=self.stats.worker_restarts - r0,
            requeued_tasks=self.stats.requeued_tasks - q0,
        )
        block.done = True
        self._blocks = [b for b in self._blocks if not b.done]

    def _release_block_shm(self, block: BlockHandle) -> None:
        for shm in (block._f_shm, block._o_shm):
            if shm is not None:
                shm.close()
                shm.unlink()
        block._f_shm = None
        block._o_shm = None

    # -- one-shot compatibility path -----------------------------------
    def run(self, frames: np.ndarray, tasks: List[ShardTask],
            ) -> Tuple[List[TaskResult], np.ndarray, PoolStats]:
        """Execute *tasks* over *frames*; returns (results, outputs, stats).

        Results come back ordered by ``task_id``; ``outputs`` is the
        assembled ``(n_frames, len(OUTPUT_COLUMNS))`` matrix.  On an
        unstarted pool this spawns workers for the call and tears them
        down after (the pre-daemon behaviour); on a started pool it
        reuses the live, warm workers and ``stats`` is the per-call
        delta of the cumulative pool counters.
        """
        owns = not self._started
        if owns:
            self._persistent = False
            self._start(min(self.n_workers, max(len(tasks), 1)))
        try:
            handle = self.submit(frames, list(tasks))
            self.wait(handle)
            if handle.failed:  # pragma: no cover - shard tasks requeue
                raise WorkerCrashError(
                    f"{len(handle.failed)} tasks failed unrecoverably")
            ordered = [handle.results[t.task_id] for t in tasks]
            return ordered, handle.outputs, handle.stats
        finally:
            if owns:
                self.close()
