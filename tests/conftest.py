"""Shared fixtures.

Session-scoped fixtures hold the expensive artefacts (synthetic dataset,
the pre-trained bundle, converted HLS models) so the whole suite pays
for them once.
"""

from __future__ import annotations

import multiprocessing
import time

import numpy as np
import pytest

from repro.beamloss import make_dataset
from repro.nn import (
    Conv1D,
    Dense,
    Flatten,
    Input,
    MaxPooling1D,
    Model,
    ReLU,
    Sigmoid,
)


@pytest.fixture(scope="session", autouse=True)
def no_leaked_child_processes():
    """Fail the session when a test leaves a multiprocessing child (a
    pool worker, a daemon) running: every pool must be closed."""
    yield
    deadline = time.monotonic() + 10.0
    while multiprocessing.active_children() and time.monotonic() < deadline:
        time.sleep(0.05)
    leaked = multiprocessing.active_children()
    assert not leaked, f"child processes left running: {leaked}"


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(1234)


@pytest.fixture(scope="session")
def small_dataset():
    """A small but fully-featured de-blending dataset."""
    return make_dataset(n_train=120, n_val=30, n_eval=60, seed=7)


@pytest.fixture(scope="session")
def tiny_model():
    """A tiny trained-ish conv model exercising every HLS-relevant layer
    type except batch-norm/up-sampling (those have dedicated tests)."""
    inp = Input((16, 1), name="in")
    x = Conv1D(4, 3, seed=11, name="c1")(inp)
    x = ReLU(name="r1")(x)
    x = MaxPooling1D(2, name="p1")(x)
    x = Conv1D(6, 3, seed=12, name="c2")(x)
    x = ReLU(name="r2")(x)
    x = Dense(2, seed=13, name="d1")(x)
    x = Sigmoid(name="s1")(x)
    out = Flatten(name="f1")(x)
    return Model(inp, out, name="tiny")


@pytest.fixture(scope="session")
def reference_bundle():
    """The pre-trained reference bundle (requires shipped weights)."""
    from repro.pretrained import load_reference_bundle

    return load_reference_bundle(train_if_missing=False)


@pytest.fixture(scope="session")
def reference_hls_unet(reference_bundle):
    """The deployed layer-based U-Net design (cached conversion)."""
    from repro.experiments.common import converted

    return converted("Layer-based Precision ac_fixed<16, x>")
