import time

import numpy as np
import pytest

from evfuse.data import SyntheticSpec, generate_synthetic, standardize
from evfuse.model import _MLP, EncoderSpec, MultimodalClassifier, TrainConfig, train

# The reference setup used by the training-sanity and noise-trend tests:
# three well-separated classes per modality, 500/100/100 split, everything
# seeded.  Training takes a couple of seconds on one core.
REFERENCE_SPEC = SyntheticSpec(
    n_classes=3,
    n_per_class=234,
    dims=(6, 6),
    separation=(3.0, 3.0),
    seed=42,
    split_sizes=(500, 100, 100),
)
REFERENCE_SEED = 42


def build_reference_run():
    start = time.perf_counter()
    train_raw, val_raw, test_raw = generate_synthetic(REFERENCE_SPEC)
    (train_ds, val_ds, test_ds), stats = standardize(train_raw, val_raw, test_raw)
    specs = [EncoderSpec(d, (64,), "tanh") for d in REFERENCE_SPEC.dims]
    model = MultimodalClassifier(specs, REFERENCE_SPEC.n_classes, seed=REFERENCE_SEED)
    config = TrainConfig(seed=REFERENCE_SEED)
    model, record = train(model, train_ds, config, val_dataset=val_ds)
    elapsed = time.perf_counter() - start
    return model, record, train_ds, val_ds, test_ds, elapsed


@pytest.fixture(scope="session")
def reference_run():
    return build_reference_run()


@pytest.fixture
def encoder_calls(monkeypatch):
    """The (modality, rows) of each encoder call, modality 0-based, of the models
    built or loaded while the test runs; the heads, also `_MLP`s, are not recorded."""
    calls, models = [], []
    init, forward = MultimodalClassifier.__init__, _MLP.forward

    def built(self, *args, **kwargs):
        init(self, *args, **kwargs)
        models.append(self)

    def recorded(self, x, out=None):
        for model in models:
            if self in model.encoders:
                calls.append((model.encoders.index(self), len(x)))
        return forward(self, x, out)

    monkeypatch.setattr(MultimodalClassifier, "__init__", built)
    monkeypatch.setattr(_MLP, "forward", recorded)
    return calls


def random_nig_params(rng: np.random.Generator, n: int) -> np.ndarray:
    """(n, 4) array of valid, well-scaled (gamma, delta, alpha, beta) rows."""
    gamma = rng.uniform(-3.0, 3.0, n)
    delta = rng.uniform(0.1, 3.0, n)
    alpha = rng.uniform(1.2, 4.0, n)
    beta = rng.uniform(0.1, 3.0, n)
    return np.column_stack([gamma, delta, alpha, beta])
