"""``daemon_paced``: open-loop paced streams against the serving daemon.

The daemon runs through ``repro.start_daemon`` in a child process this
module owns, so the generator never shares its interpreter lock.  The
generator is one thread driving ``STREAMS`` TCP streams: stream ``s``
is due to send frame ``i`` at ``t0 + (i + s / STREAMS) * STREAM_PERIOD_S``
whatever the replies do, and between sends the thread blocks in a single
``selectors`` wait that ends at the next due time or at a reply.  A
frame's latency runs from its due time to the receipt of its result.

Batch boundaries are a pure function of each stream's accepted frames,
so the benchmark rebuilds them from outside with ``plan_microbatches``
and splits every frame's latency into

* ``batch_wait``: due time until its batch closes, which is when the
  first frame of the next batch is sent (or the end of stream);
* ``inflight_wait``: batch close until the stream's previous batch has
  returned, since a stream has one batch in flight at a time;
* ``batch_service``: from then until the result is received, i.e. the
  daemon's ingress, pool driver polls, pool IPC, shared memory, worker
  compute and the reply.
"""

from __future__ import annotations

import multiprocessing as mp
import selectors
import traceback
from multiprocessing import resource_tracker
from dataclasses import dataclass, field
from typing import Dict, List

import numpy as np

from harness import (COMPILE_LEVEL, Outcome, beamloss_frames, child_seeds,
                     health_counts, int_seed, median_tail,
                     node_latencies_ms, windowed_median_tail,
                     peak_rss_mib, percentile, reset_peak_rss, setup_unet,
                     tail_percentile, wall_clock)

#: Concurrent streams and daemon workers (the reference host's nproc).
STREAMS = 2
WORKERS = 2

#: Each stream sends one frame per period.  Faster rates make today's
#: daemon bistable (see README.md), so the workload stays at 30 ms.
STREAM_PERIOD_S = 0.030

#: One frame per batch.  The daemon closes a batch only when the next
#: batch's first frame arrives; with the default policy every batch holds
#: two frames, so half the frames wait one period and half wait two, and
#: the median of that even split jumps between the two modes from run to
#: run.  With single-frame batches every frame waits one period.
MAX_BATCH = 1

#: Frames per stream in the discarded warm-up round (charged to set-up).
WARMUP_FRAMES = 30

#: The round's frame latencies are summarised per slice of this many
#: consecutive due times, and the median over slices is reported.
LATENCY_WINDOWS = 3

#: Lead time between connecting the streams and the first due time.
START_LEAD_S = 0.02

BOOT_TIMEOUT_S = 90.0
RESULT_TIMEOUT_S = 20.0

#: The parts of a frame's latency must sum to it within this (seconds).
CLOSURE_TOL_S = 1e-9

# ----------------------------------------------------------------------
# Daemon host (child process)
# ----------------------------------------------------------------------
def _policy():
    from repro.serve import BatchingPolicy

    return BatchingPolicy(max_batch=MAX_BATCH)


def _host(conn, model, seed: int) -> None:
    """Serve until the parent asks for the epoch report (or goes away)."""
    from repro.core.api import RuntimeConfig, start_daemon

    try:
        handle = start_daemon(model, workers=WORKERS, seed=seed,
                              config=RuntimeConfig(compile_level=COMPILE_LEVEL),
                              batching=_policy(), arrival_mode="stream")
    except BaseException:
        conn.send(("error", traceback.format_exc()))
        raise
    try:
        conn.send(("ready", handle.address))
        conn.recv()
        report = handle.drain()
        rss = peak_rss_mib() + sum(peak_rss_mib(p.pid)
                                   for p in mp.active_children())
        conn.send(("report", report, rss))
    except EOFError:
        pass
    except BaseException:
        conn.send(("error", traceback.format_exc()))
        raise
    finally:
        handle.stop()


def _receive(conn, timeout_s: float, what: str):
    if not conn.poll(timeout_s):
        raise TimeoutError(f"daemon host sent no {what} in {timeout_s:.0f} s")
    msg = conn.recv()
    if msg[0] == "error":
        raise RuntimeError(f"daemon host failed:\n{msg[1]}")
    return msg


# ----------------------------------------------------------------------
# Generator
# ----------------------------------------------------------------------
@dataclass
class Round:
    """Wall-clock stamps of one paced round, indexed ``[stream, frame]``."""

    sids: List[int]
    due: np.ndarray
    send_start: np.ndarray
    send_end: np.ndarray
    recv: np.ndarray
    eos_at: np.ndarray
    rows: List[Dict[int, np.ndarray]] = field(default_factory=list)
    shed: List[List[int]] = field(default_factory=list)

    @property
    def latency_s(self) -> np.ndarray:
        return self.recv - self.due

    def frames_per_s(self) -> float:
        done = np.isfinite(self.recv)
        return int(done.sum()) / (np.nanmax(self.recv) - self.due.min())


def paced_round(address, sids: List[int], frames: List[np.ndarray],
                traced: bool) -> Round:
    """Send every stream's frames on its fixed schedule; stamp replies.

    Traced, each ``StreamClient.send`` is timed as well.
    """
    from repro.serve.protocol import ProtocolError, StreamClient

    host, port = address
    k, n = len(sids), frames[0].shape[0]
    nan = np.full((k, n), np.nan)
    clients = []
    sel = selectors.DefaultSelector()
    try:
        for s, sid in enumerate(sids):
            clients.append(StreamClient(host, port, stream_id=sid))
            sel.register(clients[-1].sock, selectors.EVENT_READ, s)
        t0 = wall_clock() + START_LEAD_S
        offsets = np.arange(k) / k
        rnd = Round(sids, t0 + (np.arange(n)[None, :] + offsets[:, None])
                    * STREAM_PERIOD_S, nan.copy(), nan.copy(), nan.copy(),
                    np.full(k, np.nan))
        cursor = [0] * k
        total = (n + 1) * k        # every frame, then one EOS per stream
        give_up = t0 + (n + 1) * STREAM_PERIOD_S + RESULT_TIMEOUT_S
        j = 0
        while True:
            now = wall_clock()
            while j < total:
                i, s = divmod(j, k)
                if t0 + (i + offsets[s]) * STREAM_PERIOD_S > now:
                    break
                if i == n:
                    rnd.eos_at[s] = wall_clock()
                    clients[s].send_eos()
                elif traced:
                    rnd.send_start[s, i] = wall_clock()
                    clients[s].send(frames[s][i])
                    rnd.send_end[s, i] = wall_clock()
                else:
                    clients[s].send(frames[s][i])
                j += 1
                now = wall_clock()
            if j == total and all(c.eos_seen and c.settled()
                                  for c in clients):
                break
            if now > give_up:
                raise TimeoutError(f"streams {sids}: results missing "
                                   f"{RESULT_TIMEOUT_S:.0f} s after the end")
            if j < total:
                i, s = divmod(j, k)
                wait = t0 + (i + offsets[s]) * STREAM_PERIOD_S - now
            else:
                wait = give_up - now
            for key, _ in sel.select(max(wait, 0.0)):
                s = key.data
                c = clients[s]
                c.pump()
                t = wall_clock()
                while cursor[s] < n:
                    seq = cursor[s]
                    if seq in c.results:
                        rnd.recv[s, seq] = t
                    elif seq not in c.shed:
                        break
                    cursor[s] += 1
                if c.errors:
                    raise ProtocolError(f"stream {sids[s]}: {c.errors[0]}")
        rnd.rows = [dict(c.results) for c in clients]
        rnd.shed = [list(c.shed) for c in clients]
        return rnd
    finally:
        sel.close()
        for c in clients:
            c.close()


# ----------------------------------------------------------------------
# Batch timeline
# ----------------------------------------------------------------------
def batch_plan(n_accepted: int):
    """The batches the daemon forms over a stream's accepted frames."""
    from repro.serve.batching import plan_microbatches, stream_arrivals

    return plan_microbatches(stream_arrivals(n_accepted), _policy())


def timeline(rnd: Round) -> Dict[str, np.ndarray]:
    """Split every received frame's latency into its three parts."""
    parts = {"batch_wait": [], "inflight_wait": [], "batch_service": [],
             "latency": []}
    for s in range(len(rnd.sids)):
        acc = np.flatnonzero(np.isfinite(rnd.recv[s]))
        prev_result = -np.inf
        for a, b in batch_plan(acc.size):
            idx = acc[a:b]
            close = (rnd.send_end[s, acc[b]] if b < acc.size
                     else rnd.eos_at[s])
            dispatch = max(close, prev_result)
            prev_result = rnd.recv[s, idx].max()
            parts["batch_wait"].append(close - rnd.due[s, idx])
            parts["inflight_wait"].append(np.full(idx.size, dispatch - close))
            parts["batch_service"].append(rnd.recv[s, idx] - dispatch)
            parts["latency"].append(rnd.latency_s[s, idx])
    return {k: np.concatenate(v) for k, v in parts.items()}


# ----------------------------------------------------------------------
# The workload
# ----------------------------------------------------------------------
def daemon_paced(seed: int, seconds: float, trace: bool) -> Outcome:
    from repro.core.api import RuntimeConfig
    from repro.serve import FarmSpec
    from repro.serve.daemon import serve_streams_reference
    from repro.serve.workers import OUTPUT_COLUMNS

    col = OUTPUT_COLUMNS.index
    out = Outcome()
    s_frames, s_daemon = child_seeds(seed, 2)
    daemon_seed = int_seed(s_daemon)
    setup = setup_unet()
    stages = dict(setup.stages)

    # Warm-up streams first, then one round (two when traced: untraced,
    # traced), each on fresh stream ids.
    names = ["untraced", "traced"] if trace else ["untraced"]
    per_stream = max(2, int(seconds / len(names) / STREAM_PERIOD_S))
    groups = [list(range(STREAMS))] + [
        list(range(STREAMS * (r + 1), STREAMS * (r + 2)))
        for r in range(len(names))]
    sizes = [WARMUP_FRAMES] + [per_stream] * len(names)
    standardizer = setup.bundle.dataset.standardizer
    seqs = s_frames.spawn(sum(len(g) for g in groups))
    stream_frames = {}
    for group, size in zip(groups, sizes):
        for sid in group:
            stream_frames[sid] = beamloss_frames(seqs[sid], size,
                                                 standardizer)
    spec = FarmSpec(model=setup.model,
                    config=RuntimeConfig(compile_level=COMPILE_LEVEL))
    refs = serve_streams_reference(spec, stream_frames, seed=daemon_seed,
                                   batching=_policy(), arrival_mode="stream")

    ctx = mp.get_context("spawn")
    conn, child_conn = ctx.Pipe()
    t = wall_clock()
    proc = ctx.Process(target=_host, args=(child_conn, setup.model,
                                           daemon_seed),
                       name="perfbench-daemon")
    proc.start()
    child_conn.close()
    try:
        _, address = _receive(conn, BOOT_TIMEOUT_S, "address")
        stages["setup.daemon_start_s"] = wall_clock() - t
        t = wall_clock()
        warm = paced_round(address, groups[0],
                           [stream_frames[s] for s in groups[0]], False)
        stages["setup.warmup_s"] = wall_clock() - t
        reset_peak_rss()
        rounds = [paced_round(address, g, [stream_frames[s] for s in g],
                              name == "traced")
                  for name, g in zip(names, groups[1:])]
        conn.send("drain")
        _, report, child_rss = _receive(conn, RESULT_TIMEOUT_S, "report")
    finally:
        conn.close()
        proc.join(timeout=60.0)
        if proc.is_alive():
            proc.kill()
            proc.join()
        # Starting a spawn process also started multiprocessing's resource
        # tracker; stop it and wait for it, so no process outlives the run.
        resource_tracker._resource_tracker._stop()

    # Correctness: every accepted frame against the sequential reference.
    planned = 0
    checked = {}
    for rnd in [warm] + rounds:
        counted = rnd is not warm
        for s, sid in enumerate(rnd.sids):
            n = rnd.due.shape[1]
            shed = set(rnd.shed[s])
            accepted = [i for i in range(n) if i not in shed]
            planned += len(batch_plan(len(accepted)))
            missing = [i for i in accepted if i not in rnd.rows[s]]
            ref = refs[sid]
            if shed:
                ref = serve_streams_reference(
                    spec, {sid: stream_frames[sid][accepted]},
                    seed=daemon_seed, batching=_policy(),
                    arrival_mode="stream")[sid]
            checked[sid] = ref
            width = ref.rows.shape[1]
            got = np.array([rnd.rows[s].get(i, np.full(width, np.nan))
                            for i in accepted]).reshape(-1, width)
            wrong = int((~(got == ref.rows).all(axis=1)).sum()) - len(missing)
            if not counted:
                if shed or missing or wrong:
                    out.fail(0, f"warm-up stream {sid} incomplete or wrong")
                continue
            out.attempted += n
            out.failed += len(shed) + len(missing) + wrong
            out.failed += int((got[:, col("published")] == 0.0).sum())
            if missing:
                out.fail(0, f"stream {sid}: {len(missing)} frames without "
                         f"a result")
            if wrong:
                out.fail(0, f"stream {sid}: {wrong} rows differ from "
                         f"serve_streams_reference")
    if planned != report.batches:
        out.fail(0, f"rebuilt {planned} batches, daemon reports "
                 f"{report.batches}")

    main = rounds[0]
    lat_ms = main.latency_s * 1e3
    p50, tail, q, n, k = windowed_median_tail([
        w[np.isfinite(w)] for w in
        np.array_split(lat_ms, LATENCY_WINDOWS, axis=1)])
    out.notes.append(f"frame latency: median over {k} consecutive slices "
                     f"of the round, {n} samples each, tail = p{q:g}")
    rows = np.array([r for rnd in rounds[:1] for d in rnd.rows
                     for r in d.values()])
    # The rows equal these records, which also carry the deadline flag.
    records = [r for sid in main.sids for r in checked[sid].records]
    node = median_tail(node_latencies_ms(records))
    out.notes.append(
        f"{report.batches} batches for {report.frames_total} frames "
        f"(warm-up included), {report.frames_shed} shed")
    if not trace:
        out.metrics = {
            "setup_s": sum(stages.values()),
            "frames_per_s": main.frames_per_s(),
            "frame_p50_ms": p50,
            "frame_p99_ms": tail,
            "sim_node_p50_ms": node[0],
            "sim_node_p99_ms": node[1],
            "deadline_met_frac": float(np.mean(
                [r.decision.deadline_met for r in records])),
            "completed_frac": 1.0 - out.failed / max(out.attempted, 1),
            "peak_rss_mib": peak_rss_mib() + child_rss,
        }
        return out

    traced = rounds[1]
    parts = timeline(traced)
    gap = np.abs(parts["batch_wait"] + parts["inflight_wait"]
                 + parts["batch_service"] - parts["latency"])
    negative = min(v.min() for k, v in parts.items())
    if gap.max() > CLOSURE_TOL_S or negative < -CLOSURE_TOL_S:
        out.fail(0, f"latency parts do not add up (gap {gap.max():.3g} s, "
                 f"smallest part {negative:.3g} s)")
    ms = {k: v * 1e3 for k, v in parts.items()}
    tq = tail_percentile(ms["latency"].size)
    late_ms = (traced.send_start - traced.due)[np.isfinite(
        traced.send_start)] * 1e3
    out.notes.append(
        "traced round, p50 / p{:g} ms: latency {:.3f} / {:.3f}, batch wait "
        "{:.3f} / {:.3f}, in-flight wait {:.3f} / {:.3f}, service {:.3f} / "
        "{:.3f}".format(tq, *[percentile(ms[k], q) for k in
                              ("latency", "batch_wait", "inflight_wait",
                               "batch_service") for q in (50, tq)]))
    sends = (traced.send_end - traced.send_start)[np.isfinite(
        traced.send_start)]
    out.metrics = {
        **stages,
        **health_counts(report.health),
        "sim.hub_delay_us": float(np.mean(rows[:, col("hub_delay_s")]))
        * 1e6,
        "serve.send_us": float(np.mean(sends)) * 1e6,
        "serve.batch_wait_p50_ms": percentile(ms["batch_wait"], 50),
        "serve.batch_wait_p99_ms": percentile(ms["batch_wait"], tq),
        "serve.inflight_wait_p99_ms": percentile(ms["inflight_wait"], tq),
        "serve.batch_service_p50_ms": percentile(ms["batch_service"], 50),
        "serve.batch_service_p99_ms": percentile(ms["batch_service"], tq),
        "serve.batch_frames_mean": report.frames_total / report.batches,
        "serve.frames_shed": float(report.frames_shed),
        "serve.worker_restarts": float(report.worker_restarts),
        "serve.requeued_tasks": float(report.requeued_tasks),
        "serve.generator_late_p99_ms": percentile(
            late_ms, tail_percentile(late_ms.size)),
        "trace.overhead_frac": 1.0 - traced.frames_per_s()
        / main.frames_per_s(),
    }
    return out
