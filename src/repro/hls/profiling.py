"""Per-layer value profiling.

The paper's central optimization: "we re-evaluated the maximum absolute
output value generated inside each individual layer of the model.  Using
this maximum, we calculated the required number of integer bits for each
layer" (Section IV-D).  :func:`profile_model` runs the *float* network
over a representative dataset and records, per layer, the maximum
absolute activation and maximum absolute weight — the two numbers the
precision optimizer needs, and the only two it records.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

import numpy as np

from repro.nn.model import Model

__all__ = ["LayerProfile", "profile_model"]

#: Frames per profiling forward pass, small enough that each conv's im2col
#: copy stays in cache (measured sweep: docs/performance.md, "Cold set-up").
PROFILE_BATCH = 16


@dataclass(frozen=True)
class LayerProfile:
    """Observed value ranges for one layer.

    Attributes
    ----------
    max_abs_output:
        Largest |activation| the layer produced over the profiling set.
    max_abs_weight:
        Largest |parameter| (0.0 for parameter-free layers).
    """

    max_abs_output: float
    max_abs_weight: float

    def __post_init__(self):
        if self.max_abs_output < 0 or self.max_abs_weight < 0:
            raise ValueError("profile magnitudes must be non-negative")


def profile_model(model: Model, x: np.ndarray,
                  batch_size: int = PROFILE_BATCH) -> Dict[str, LayerProfile]:
    """Profile every layer of *model* on dataset *x*.

    Runs inference-mode forward passes in batches (the profiling set can
    be the full training split) and accumulates per-layer maxima.
    Returns ``{layer_name: LayerProfile}`` including the input layer
    (whose "activation" is the standardized input itself — the paper's
    input-buffer precision is derived from it).

    Raises ``ValueError`` naming the layer when an activation or weight
    is not finite: a NaN or inf has no integer-bit count.
    """
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    x = np.asarray(x, dtype=np.float64)
    if x.shape[0] == 0:
        raise ValueError("profiling dataset is empty")
    max_out = dict.fromkeys((layer.name for layer in model.layers), 0.0)
    for start in range(0, x.shape[0], batch_size):
        model.forward(x[start:start + batch_size], training=False)
        for layer in model.layers:
            out = model._last_outputs[layer]
            # max|a| without the |a| temporary; a NaN propagates to the end.
            max_out[layer.name] = np.maximum(max_out[layer.name],
                                             max(out.max(), -out.min()))
    profiles = {}
    for layer in model.layers:
        w_max = np.max([np.abs(p).max() for p in layer.params.values()],
                       initial=0.0)
        if not np.isfinite(max_out[layer.name] + w_max):
            raise ValueError(f"layer {layer.name!r} has a non-finite "
                             "activation or weight on the profiling set")
        profiles[layer.name] = LayerProfile(float(max_out[layer.name]),
                                            float(w_max))
    return profiles
