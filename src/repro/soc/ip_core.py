"""The neural-network IP core on the fabric.

Wraps a converted :class:`~repro.hls.model.HLSModel`: when triggered it
*actually reads* the raw 16-bit words from the input buffer, dequantizes
them onto the input stream grid, runs the bit-accurate fixed-point
forward pass, quantizes the results into the output buffer's words, and
reports a completion time from the cycle-accurate latency model.  The
simulated board therefore produces outputs bit-identical to the HLS
C-simulation — the equivalence the paper's on-board verification checks.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.fixed import FixedPointFormat, from_raw, to_raw
from repro.hls.latency import LatencyReport, estimate_latency
from repro.hls.model import HLSModel
from repro.soc.ocram import DualPortRAM

__all__ = ["NeuralIPCore", "BATCH_BLOCK_FRAMES"]

#: Frames per batched forward pass in :meth:`NeuralIPCore.precompute_raw_outputs`,
#: and per streamed chunk of :meth:`CentralNodeRuntime.run`.
#: Chunking keeps the intermediate tensors cache-resident — one huge batch
#: is *slower* than a per-frame loop once the working set spills out of
#: LLC — and bounds how long a frame waits for its decision.  8 is the
#: measured throughput knee on the deployed U-Net (docs/performance.md
#: has the sweep).  Chunk size does not affect the results: products and
#: sums are exact in float64, so any split is bit-identical.
BATCH_BLOCK_FRAMES = 8


class NeuralIPCore:
    """Memory-mapped-host neural IP (the paper's modified hls4ml IP).

    Parameters
    ----------
    hls_model:
        The converted fixed-point model to execute.
    input_ram / output_ram:
        The on-chip buffers the IP's Avalon MM host ports read/write.
    latency:
        Optional pre-computed latency report (estimated on demand).
    """

    def __init__(self, hls_model: HLSModel, input_ram: DualPortRAM,
                 output_ram: DualPortRAM,
                 latency: Optional[LatencyReport] = None,
                 name: str = "nn_ip"):
        self.name = name
        self.hls_model = hls_model
        self.input_ram = input_ram
        self.output_ram = output_ram
        self.latency = latency or estimate_latency(hls_model)
        self.runs = 0

        self._n_in = int(np.prod(hls_model.input_shape))
        self._n_out = int(np.prod(hls_model.output_shape))
        if input_ram.n_words < self._n_in:
            raise ValueError(
                f"input RAM too small: {input_ram.n_words} < {self._n_in}"
            )
        if output_ram.n_words < self._n_out:
            raise ValueError(
                f"output RAM too small: {output_ram.n_words} < {self._n_out}"
            )
        # Buffer word format = the model's input/output stream formats.
        self.input_format = self._stream_format(hls_model.kernels[0])
        self.output_format = self._stream_format(hls_model.kernels[-1])

    @staticmethod
    def _stream_format(kernel) -> FixedPointFormat:
        fmt = kernel.config.result
        if fmt.width > 16:
            # The buffers have 16-bit IP-side ports; wider stream formats
            # transfer their top 16 bits (width-preserving designs keep
            # result widths ≤ 16 on the boundary layers).
            fmt = fmt.with_(width=16, integer=min(fmt.integer, 16))
        return fmt

    # ------------------------------------------------------------------
    @property
    def compute_latency_s(self) -> float:
        """IP busy time per frame from the cycle model."""
        return self.latency.latency_s

    def run(self, extra_busy_s: float = 0.0,
            precomputed_raw: Optional[np.ndarray] = None) -> float:
        """Execute one frame: buffer → network → buffer.

        Returns the IP busy time in seconds (the caller schedules the
        done pulse after it).  ``extra_busy_s`` is the fault-injection
        hook: an :class:`~repro.soc.faults.IPHangFault` inflates the busy
        time past the watchdog budget without touching the datapath.

        ``precomputed_raw`` is the batched-inference fast path: raw
        output words already computed by :meth:`precompute_raw_outputs`
        for this frame.  The forward pass is skipped and the words are
        written straight to the output buffer — bit-identical to the
        in-line compute (asserted by the fast-path tests), with identical
        busy-time accounting.
        """
        if extra_busy_s < 0:
            raise ValueError(f"extra_busy_s must be >= 0, got {extra_busy_s}")
        if precomputed_raw is None:
            raw_in = self.input_ram.read(0, self._n_in)
            x = from_raw(raw_in, self.input_format)
            x = x.reshape((1,) + tuple(self.hls_model.input_shape))
            y = self.hls_model.predict(x)[0]
            raw_out = to_raw(y.ravel(), self.output_format)
        else:
            raw_out = np.asarray(precomputed_raw, dtype=np.int64)
            if raw_out.shape != (self._n_out,):
                raise ValueError(
                    f"precomputed_raw must have shape ({self._n_out},), "
                    f"got {raw_out.shape}"
                )
        self.output_ram.write(0, raw_out)
        self.runs += 1
        return self.compute_latency_s + extra_busy_s

    def precompute_raw_outputs(self, frames: np.ndarray,
                               valid_mask: Optional[np.ndarray] = None
                               ) -> np.ndarray:
        """Batched forward pass → per-frame raw output words.

        Runs *frames* through :meth:`HLSModel.predict` in
        :data:`BATCH_BLOCK_FRAMES` chunks and returns the quantized
        output-buffer words, shape ``(n, n_outputs)``
        — row *i* is exactly what :meth:`run` would have produced in the
        output RAM for frame *i* (the float → raw → float round trip at
        the buffer boundary is applied identically).  When the model has
        a compiled plan installed (:meth:`HLSModel.compile`), ``predict``
        dispatches to it — bit-identical by the compiler's contract, so
        nothing here needs to care which executor ran.

        ``valid_mask`` (shape ``(n,)`` bool) is the speculative ladder's
        hook: only masked-True rows are computed, the rest stay zero.
        The caller promises never to consume an unmasked row, so zeros
        are safe placeholders.  Bit-identity of the computed rows does
        not depend on the mask shape: all sums are exact in float64, so
        batching any *subset* of frames yields the same words as batching
        all of them (the same invariance that makes
        :data:`BATCH_BLOCK_FRAMES` chunking safe).
        """
        frames = np.asarray(frames, dtype=np.float64)
        if frames.ndim != 2 or frames.shape[1] != self._n_in:
            raise ValueError(
                f"frames must be (n, {self._n_in}), got {frames.shape}"
            )
        n = frames.shape[0]
        if valid_mask is not None:
            valid_mask = np.asarray(valid_mask, dtype=bool)
            if valid_mask.shape != (n,):
                raise ValueError(
                    f"valid_mask must have shape ({n},), got {valid_mask.shape}"
                )
            if not valid_mask.all():
                out = np.zeros((n, self._n_out), dtype=np.int64)
                idx = np.flatnonzero(valid_mask)
                if idx.size:
                    out[idx] = self.precompute_raw_outputs(frames[idx])
                return out
        raw_in = to_raw(frames, self.input_format)
        x = from_raw(raw_in, self.input_format)
        x = x.reshape((n,) + tuple(self.hls_model.input_shape))
        out = np.empty((n, self._n_out), dtype=np.int64)
        for i in range(0, n, BATCH_BLOCK_FRAMES):
            xb = x[i:i + BATCH_BLOCK_FRAMES]
            y = self.hls_model.predict(xb)
            to_raw(y.reshape(xb.shape[0], -1), self.output_format,
                   out=out[i:i + BATCH_BLOCK_FRAMES])
        return out

    # ------------------------------------------------------------------
    def quantize_input(self, frame: np.ndarray) -> np.ndarray:
        """Float frame → raw input-buffer words (what the HPS writes)."""
        frame = np.asarray(frame, dtype=np.float64).ravel()
        if frame.size != self._n_in:
            raise ValueError(f"frame must have {self._n_in} values, got {frame.size}")
        return to_raw(frame, self.input_format)

    def dequantize_output(self, raw: np.ndarray) -> np.ndarray:
        """Raw output-buffer words → float probabilities (HPS side)."""
        return from_raw(np.asarray(raw, dtype=np.int64), self.output_format)

    @property
    def n_inputs(self) -> int:
        """Input words per frame (260)."""
        return self._n_in

    @property
    def n_outputs(self) -> int:
        """Output words per frame (520 for the U-Net)."""
        return self._n_out
