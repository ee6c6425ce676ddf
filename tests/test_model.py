import copy
import json
import math
import pickle

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from evfuse.data import Dataset, SyntheticSpec, generate_synthetic, standardize
from evfuse.losses import total_loss_and_grads_arrays
from evfuse.model import (
    EncoderSpec,
    MultimodalClassifier,
    TrainConfig,
    TrainingDivergedError,
    _batch_loss_and_param_grads,
    _constrain_arrays,
    _dataset_loss,
    config_hash,
    readout,
    train,
)

LOG2 = math.log(2.0)


def _constrain(raw):
    return _constrain_arrays(np.array(raw, dtype=float))


class TestHeadConstrain:
    def test_zero_anchor(self):
        gamma, delta, alpha, beta = _constrain([0.0, 0.0, 0.0, 0.0])
        assert gamma == 0.0
        assert delta == pytest.approx(LOG2 + 1e-6, rel=1e-12)
        assert alpha == pytest.approx(1.0 + LOG2 + 1e-4, rel=1e-12)
        assert beta == pytest.approx(LOG2 + 1e-6, rel=1e-12)

    def test_alpha_floor(self):
        alpha = _constrain([0.0, 0.0, -1e4, 0.0])[2]
        assert alpha == pytest.approx(1.0 + 1e-4, rel=1e-12)

    def test_softplus_linear_regime(self):
        alpha = _constrain([0.0, 0.0, 20.0, 0.0])[2]
        assert alpha == pytest.approx(21.0, abs=1e-3)

    @given(st.lists(st.floats(-50, 50), min_size=4, max_size=4))
    def test_constraint_map_is_total(self, raw):
        _, delta, alpha, beta = _constrain(raw)
        assert delta > 0 and alpha > 1 and beta > 0


def _tiny_model(seed=0, activation="tanh"):
    specs = [EncoderSpec(3, (5,), activation), EncoderSpec(2, (4,), activation)]
    return MultimodalClassifier(specs, n_classes=3, seed=seed)


def _sample(rng):
    return [rng.normal(size=3), rng.normal(size=2)]


class TestForward:
    def test_structural_invariants(self):
        model = _tiny_model()
        out = model.forward(_sample(np.random.default_rng(0)))
        for vec in out.nig:
            for p in vec:
                assert p.delta > 0 and p.alpha > 1 and p.beta > 0
        for k, f in enumerate(out.fused):
            vs = [out.st[m][k].v for m in range(2)]
            assert f.st.v == min(vs)
        assert 0 <= out.predicted_class < 3
        assert out.confidences.sum() == pytest.approx(1.0, abs=1e-12)
        assert out.fused_uncertainty > 0

    def test_pure_function_of_weights_and_input(self):
        model = _tiny_model()
        x = _sample(np.random.default_rng(1))
        o1, o2 = model.forward(x), model.forward(x)
        assert o1.predicted_class == o2.predicted_class
        np.testing.assert_array_equal(o1.confidences, o2.confidences)

    def test_identical_modalities_tie_path(self):
        spec = EncoderSpec(3, (4,), "tanh")
        model = MultimodalClassifier([spec, spec], n_classes=2, seed=0)
        # force both branches to identical weights, in place: the layer
        # arrays are views into model.params
        for dst, src in zip(model.encoders[1].arrays + model.heads[1].arrays,
                            model.encoders[0].arrays + model.heads[0].arrays):
            dst[...] = src
        x = np.random.default_rng(2).normal(size=3)
        out = model.forward([x, x])
        for k, f in enumerate(out.fused):
            assert f.st.u == out.st[0][k].u == out.st[1][k].u
            assert f.source_index == 0  # full tie breaks to the lower index

    def test_dimension_mismatch_rejected(self):
        model = _tiny_model()
        with pytest.raises(ValueError):
            model.forward([np.zeros(4), np.zeros(2)])

    @pytest.mark.parametrize(
        "d, hidden, n",
        [(6, (64,), 150), (6, (64,), 4097), (6, (64,), 8191), (6, (64,), 8192),
         (6, (64,), 12345), (3, (16,), 12345), (3, (16,), 50000), (3, (5, 3), 139869)],
    )
    def test_head_outputs_equal_training_forward(self, d, hidden, n):
        # the chunked, cache-free pass gives the unchunked pass's bits,
        # also where a fixed 4096-row chunk would not (a 16 -> 12 head)
        model = MultimodalClassifier([EncoderSpec(d, hidden, "tanh")] * 2, n_classes=3, seed=4)
        rng = np.random.default_rng(n)
        feats = [rng.normal(size=(n, d)), rng.normal(size=(n, d))]
        raw = np.stack([model.head_outputs(m, x) for m, x in enumerate(feats)])
        assert np.array_equal(raw, model.forward_batch(feats)["raw"])

    def test_head_outputs_one_unit_layer_matches_to_rounding(self):
        # BLAS splits a matrix-vector product by row count, so a layer one
        # unit wide may round differently in chunks of 87,382 rows
        model = MultimodalClassifier([EncoderSpec(3, (16, 1), "tanh")], n_classes=3, seed=4)
        x = np.random.default_rng(0).normal(size=(2 * 87382 + 57, 3))
        np.testing.assert_allclose(
            model.head_outputs(0, x), model.forward_batch([x])["raw"][0], rtol=1e-12, atol=1e-12
        )

    @pytest.mark.parametrize(
        "d, hidden, n, chunks",
        [
            (6, (64,), 5, [5]),
            (6, (64,), 8191, [8191]),
            (6, (64,), 12345, [4096, 4096, 4153]),
            # 3 -> 16 does 48 multiply-adds per row: 2**20 / 48 -> 21,846 rows
            (3, (16,), 50000, [21846, 28154]),
        ],
    )
    def test_head_outputs_chunk_rows(self, d, hidden, n, chunks):
        model = MultimodalClassifier([EncoderSpec(d, hidden, "tanh")], n_classes=3)
        enc = model.encoders[0]
        rows = []

        def forward(x, _f=enc.forward):
            rows.append(len(x))
            return _f(x)

        enc.forward = forward
        model.head_outputs(0, np.zeros((n, d)))
        assert rows == chunks

    def test_head_outputs_reject_non_finite_rows(self):
        model = _tiny_model()
        x = np.zeros((10, 2))
        x[7, 1] = np.nan
        x[8, 0] = np.inf
        with pytest.raises(ValueError, match="modality 2 has a non-finite feature in row 7"):
            model.head_outputs(1, x)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_forward_rejects_non_finite_features(self, bad):
        x = _sample(np.random.default_rng(5))
        x[1][1] = bad
        with pytest.raises(ValueError, match="modality 2 has a non-finite feature in row 0"):
            _tiny_model().forward(x)

    def test_forward_is_one_row_of_the_inference_pass(self):
        # BLAS may round a one-row product differently from a batch, so the
        # values agree to rounding and the decisions exactly
        model = _tiny_model()
        rng = np.random.default_rng(6)
        feats = [rng.normal(size=(7, 3)), rng.normal(size=(7, 2))]
        batch = readout(model.all_head_outputs(feats))
        t = batch["trace"]
        for i in range(7):
            out = model.forward([x[i] for x in feats])
            fused = np.array([(f.st.u, f.st.sigma, f.st.v) for f in out.fused])
            np.testing.assert_allclose(fused, np.stack([t.u[i], t.sigma[i], t.v[i]], axis=-1), rtol=1e-12)
            nig = np.array([[(p.gamma, p.delta, p.alpha, p.beta) for p in vec] for vec in out.nig])
            np.testing.assert_allclose(nig, np.stack(
                [batch[k][:, i] for k in ("gamma", "delta", "alpha", "beta")], axis=-1), rtol=1e-12)
            assert [f.source_index for f in out.fused] == t.source[i].tolist()
            assert out.predicted_class == int(np.argmax(t.u[i]))

    def test_fused_uncertainty_is_argmax_channel_variance(self):
        model = _tiny_model()
        out = model.forward(_sample(np.random.default_rng(3)))
        f = out.fused[out.predicted_class].st
        assert out.fused_uncertainty == pytest.approx(
            f.sigma * f.v / (f.v - 2.0), rel=1e-15
        )


class TestPredict:
    def test_contract(self):
        out = _tiny_model().forward(_sample(np.random.default_rng(4)))
        assert out.predicted_class == int(np.argmax(out.confidences))
        assert out.confidences.sum() == pytest.approx(1.0, abs=1e-12)
        assert out.aleatoric.shape == (2, 3)
        assert out.epistemic.shape == (2, 3)
        assert np.all(out.aleatoric > 0) and np.all(out.epistemic > 0)
        assert out.fused_uncertainty > 0


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        model = _tiny_model(seed=11)
        path = tmp_path / "ckpt.json"
        model.save(path)
        loaded = MultimodalClassifier.load(path)
        for a, b in zip(model.encoders, loaded.encoders):
            for w1, w2 in zip(a.weights, b.weights):
                np.testing.assert_array_equal(w1, w2)
        for a, b in zip(model.heads, loaded.heads):
            np.testing.assert_array_equal(a.weight, b.weight)
            np.testing.assert_array_equal(a.bias, b.bias)
        path2 = tmp_path / "ckpt2.json"
        loaded.save(path2)
        assert path.read_bytes() == path2.read_bytes()

    def test_every_weight_is_a_view_into_params(self):
        model = _tiny_model()
        for m in (model, copy.deepcopy(model), pickle.loads(pickle.dumps(model))):
            arrays = [a for layer in m.encoders + m.heads for a in layer.arrays]
            assert sum(a.size for a in arrays) == m.params.size
            assert all(np.shares_memory(a, m.params) for a in arrays)
            np.testing.assert_array_equal(m.params, model.params)

    @pytest.mark.parametrize(
        "mutate, message",
        [
            (lambda s: s["encoders"][0].update(biases=[[0.0]]),
             r"encoders\[0\]\.biases\[0\] has shape \(1,\), expected \(5,\)"),
            (lambda s: s["heads"][1]["weight"].pop(),
             r"heads\[1\]\.weight has shape \(3, 12\), expected \(4, 12\)"),
            (lambda s: s["encoders"][1]["weights"].append([[0.0]]),
             r"encoders\[1\]\.weights holds 2 arrays, expected 1"),
            (lambda s: s["encoders"].pop(), "one encoder and one head per encoder spec"),
            (lambda s: s["heads"].pop(), "one encoder and one head per encoder spec"),
        ],
        ids=["bias-shape", "head-shape", "weight-count", "encoder-count", "head-count"],
    )
    def test_rejects_malformed_weights(self, mutate, message):
        state = _tiny_model().state_dict()
        mutate(state)
        with pytest.raises(ValueError, match=message):
            MultimodalClassifier.from_state_dict(state)

    def test_rejects_unknown_format_version(self, tmp_path):
        model = _tiny_model()
        state = model.state_dict()
        state["format_version"] = 999
        with pytest.raises(ValueError):
            MultimodalClassifier.from_state_dict(state)


def _toy_dataset(n=64, seed=0):
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, 3, n)
    means = np.eye(3) * 3.0
    x1 = means[labels] + rng.normal(size=(n, 3))
    x2 = rng.normal(size=(n, 2))
    return Dataset([x1, x2], labels)


class TestTrain:
    def test_zero_epochs_leaves_model_unchanged(self):
        model = _tiny_model(seed=3)
        before = copy.deepcopy(model.state_dict())
        train(model, _toy_dataset(), TrainConfig(max_epochs=0, seed=0))
        assert model.state_dict() == before

    def test_negative_epochs_rejected(self):
        with pytest.raises(ValueError, match="max_epochs must be >= 0"):
            TrainConfig(max_epochs=-3)

    def test_determinism(self):
        ds = _toy_dataset()
        cfg = TrainConfig(max_epochs=3, seed=7)
        m1, r1 = train(_tiny_model(seed=5), ds, cfg)
        m2, r2 = train(_tiny_model(seed=5), ds, cfg)
        assert r1.epoch_losses == r2.epoch_losses
        assert m1.state_dict() == m2.state_dict()

    def test_loss_decreases(self):
        model = _tiny_model(seed=1)
        _, record = train(model, _toy_dataset(), TrainConfig(max_epochs=10, seed=0))
        assert record.epoch_losses[-1] <= record.epoch_losses[0]

    def test_separable_two_class_accuracy(self):
        spec = SyntheticSpec(
            n_classes=2, n_per_class=150, dims=(3, 3), separation=(5.0, 5.0), seed=1
        )
        train_raw, val_raw, test_raw = generate_synthetic(spec)
        (tr, _, _), _ = standardize(train_raw, val_raw, test_raw)
        model = MultimodalClassifier(
            [EncoderSpec(3, (16,), "tanh")] * 2, n_classes=2, seed=1
        )
        train(model, tr, TrainConfig(max_epochs=100, seed=1))
        out = model.forward_batch(tr.features)
        preds = np.argmax(out["trace"].u, axis=-1)
        assert np.mean(preds == tr.labels) >= 0.98

    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    def test_diverged_loss_raises_with_diagnostics(self):
        model = _tiny_model(seed=2)
        model.heads[0].weight[:] = np.nan
        with pytest.raises(TrainingDivergedError, match="epoch 0"):
            train(model, _toy_dataset(), TrainConfig(max_epochs=1, seed=0))

    @pytest.mark.parametrize("split", ["train", "val"])
    def test_non_finite_features_rejected(self, split):
        bad = _toy_dataset()
        bad.features[0][3, 1] = np.nan
        ds, val = (bad, None) if split == "train" else (_toy_dataset(seed=1), bad)
        model = _tiny_model()
        before = model.params.copy()
        with pytest.raises(ValueError, match="modality 1 has a non-finite feature in row 3"):
            train(model, ds, TrainConfig(max_epochs=1), val_dataset=val)
        assert np.array_equal(model.params, before)  # rejected before any step

    def test_labels_out_of_range_rejected(self):
        ds = _toy_dataset()
        ds.labels = ds.labels + 5
        with pytest.raises(ValueError):
            train(_tiny_model(), ds, TrainConfig(max_epochs=1))

    def test_keep_best_restores_best_val_epoch(self):
        ds = _toy_dataset(seed=3)
        val = _toy_dataset(n=32, seed=4)
        cfg = TrainConfig(max_epochs=5, seed=0, keep_best=True)
        model, record = train(_tiny_model(seed=9), ds, cfg, val_dataset=val)
        assert record.best_epoch is not None
        assert record.val_losses[record.best_epoch] == min(record.val_losses)

    def test_keep_best_restores_an_earlier_epoch(self):
        # here the best validation epoch (16 of 0-19) is not the last one,
        # so the final weights must be restored to reach the minimum
        val = _toy_dataset(n=32, seed=4)
        cfg = TrainConfig(learning_rate=0.1, max_epochs=20, seed=0, keep_best=True)
        model, record = train(_tiny_model(seed=9), _toy_dataset(seed=3), cfg, val_dataset=val)
        assert record.best_epoch < cfg.max_epochs - 1
        assert _dataset_loss(model, val, cfg.lam) == min(record.val_losses)

    def test_freeze_encoders_trains_only_the_heads(self):
        model = _tiny_model(seed=6)
        enc_before = [a.copy() for enc in model.encoders for a in enc.arrays]
        head_before = [a.copy() for head in model.heads for a in head.arrays]
        train(model, _toy_dataset(), TrainConfig(max_epochs=2, seed=0, freeze_encoders=True))
        for a, a0 in zip([a for enc in model.encoders for a in enc.arrays], enc_before):
            np.testing.assert_array_equal(a, a0)
        for a, a0 in zip([a for head in model.heads for a in head.arrays], head_before):
            assert np.any(a != a0)


class TestEndToEndGradients:
    def test_micro_model_matches_finite_differences(self):
        # the smallest two-modality, two-class architecture
        specs = [EncoderSpec(1, (1,), "tanh"), EncoderSpec(1, (1,), "tanh")]
        model = MultimodalClassifier(specs, n_classes=2, seed=0)
        feats = [np.array([[0.7]]), np.array([[-0.4]])]
        y = np.array([[1.0, 0.0]])

        def loss():
            out = model.forward_batch(feats)
            parts, _ = total_loss_and_grads_arrays(
                out["gamma"], out["delta"], out["alpha"], out["beta"], y, 0.5
            )
            return float(parts["total"].mean())

        _, grad = _batch_loss_and_param_grads(model, feats, y, 0.5)
        h = 1e-6
        params = model.params  # every scalar weight, through its view
        for i in range(params.size):
            orig = params[i]
            params[i] = orig + h
            plus = loss()
            params[i] = orig - h
            minus = loss()
            params[i] = orig
            fd = (plus - minus) / (2 * h)
            assert grad[i] == pytest.approx(fd, rel=1e-4, abs=1e-8)


class TestConfigHash:
    def test_stable_and_order_insensitive(self):
        h1 = config_hash({"a": 1, "b": [2, 3]})
        h2 = config_hash({"b": [2, 3], "a": 1})
        assert h1 == h2 and len(h1) == 16
        assert config_hash({"a": 2, "b": [2, 3]}) != h1
