import collections
import copy
import json
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import evfuse.losses
import evfuse.model
import step_oracle
from evfuse.cli import config_hash
from evfuse.data import Dataset, SyntheticSpec, generate_synthetic, standardize
from evfuse.distributions import nig_to_st_arrays, st_variance_arrays
from evfuse.evaluation import class_posterior, evaluate_model
from evfuse.fusion import fuse_stack
from evfuse.losses import total_loss_and_grads_arrays
from evfuse.model import (
    INFERENCE_CHUNK_ROWS,
    EncoderSpec,
    MultimodalClassifier,
    TrainConfig,
    TrainingDivergedError,
    _Adam,
    _batch_loss_and_param_grads,
    _constrain_arrays,
    _constrain_backward,
    _dataset_loss,
    _MLP,
    _score_modalities,
    row_chunks,
    softplus,
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

    def test_softplus_within_4_ulp_of_logaddexp(self):
        x = np.concatenate([np.linspace(-300.0, 300.0, 600_001), [-0.0, 1e-300, -1e-300]])
        got, ref = softplus(x), np.logaddexp(0.0, x)
        assert np.all(np.abs(got - ref) <= 4 * np.spacing(ref))

    def test_softplus_zero_and_0d(self):
        assert softplus(np.float64(0.0)) == LOG2
        assert softplus(np.array(0.0)) == LOG2 and np.ndim(softplus(np.array(0.0))) == 0
        assert softplus(np.array(-700.0)) > 0.0 and softplus(np.array(745.2)) == 745.2

    def test_softplus_does_not_depend_on_the_layout(self):
        raw = np.random.default_rng(3).standard_normal((37, 3, 4)) * 40.0
        block = softplus(raw[..., 1:])
        assert np.array_equal(block, softplus(np.ascontiguousarray(raw[..., 1:])))
        assert np.array_equal(block, np.stack([softplus(raw[i, :, 1:]) for i in range(37)]))
        assert np.array_equal(block, np.stack([softplus(raw[..., j]) for j in (1, 2, 3)], axis=-1))

    def test_softplus_leaves_its_input_alone(self):
        raw = np.random.default_rng(4).standard_normal((9, 3, 4)) * 40.0
        before = raw.copy()
        softplus(raw[..., 1:])
        assert np.array_equal(raw, before)

    @given(hnp.array_shapes(min_dims=0, max_dims=2, max_side=5), st.integers(1, 4), st.data())
    def test_whole_block_equals_the_evidence_view_form(self, lead, k, data):
        # the softplus of the location column is computed and dropped: no
        # location, however large, may change a bit of the evidence or warn
        locations = st.sampled_from([-np.inf, -1e308, 1e308, np.inf]) | st.floats(allow_nan=False)
        raw = np.empty(lead + (k, 4))
        raw[..., 0] = data.draw(hnp.arrays(float, lead + (k,), elements=locations))
        raw[..., 1:] = data.draw(hnp.arrays(float, lead + (k, 3), elements=st.floats(-800, 800)))
        evidence = softplus(raw[..., 1:])
        ref = (raw[..., 0], evidence[..., 0] + evfuse.model._DELTA_FLOOR,
               1.0 + evidence[..., 1] + evfuse.model._ALPHA_FLOOR, evidence[..., 2] + evfuse.model._BETA_FLOOR)
        for got, want in zip(_constrain_arrays(raw), ref):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    @given(st.lists(st.floats(-50, 50), min_size=4, max_size=4))
    def test_constraint_map_is_total(self, raw):
        _, delta, alpha, beta = _constrain(raw)
        assert delta > 0 and alpha > 1 and beta > 0



@st.composite
def _raw_heads(draw):
    """Raw head outputs (M, B, K, 4) over the constrained space's extremes.

    gamma and alpha's raw values span +-300, so alpha reaches its floor
    1 + 1e-4 (v = 2.0002) and 301; delta and beta reach from their floors
    to 1e6.
    """
    m, b, k = draw(st.integers(1, 3)), draw(st.integers(1, 4)), draw(st.integers(2, 4))
    edges = st.sampled_from([-300.0, 0.0, 300.0])
    narrow = hnp.arrays(float, (m, b, k, 2), elements=st.floats(-300, 300) | edges)
    wide = hnp.arrays(float, (m, b, k, 2), elements=st.floats(-300, 1e6) | edges)
    raw = np.empty((m, b, k, 4))
    raw[..., [0, 2]] = draw(narrow)
    raw[..., [1, 3]] = draw(wide)
    labels = draw(hnp.arrays(np.int64, b, elements=st.integers(0, k - 1)))
    return raw, np.eye(k)[labels]


class TestFiniteInFiniteOut:
    @settings(max_examples=200, deadline=None)
    @given(_raw_heads(), st.sampled_from([0.0, 0.5, 1.0]))
    def test_readout_posterior_and_loss_stay_finite(self, case, lam):
        raw, y = case
        nig = _constrain_arrays(raw)
        st = nig_to_st_arrays(*nig)
        trace = fuse_stack(*st)
        readings = [*nig, *st, trace.u, trace.sigma, trace.v, trace.c]
        readings.append(class_posterior(trace.u, trace.sigma, trace.v))
        parts, grads = total_loss_and_grads_arrays(*nig, y, lam)
        readings += list(parts.values()) + [grads, _constrain_backward(raw, grads)]
        for a in readings:
            assert np.isfinite(a).all()


def _tiny_model(seed=0, activation="tanh"):
    specs = [EncoderSpec(3, (5,), activation), EncoderSpec(2, (4,), activation)]
    return MultimodalClassifier(specs, n_classes=3, seed=seed)


def _sample(rng):
    return [rng.normal(size=3), rng.normal(size=2)]


class TestForward:
    def test_pure_function_of_weights_and_input(self):
        model = _tiny_model()
        x = _sample(np.random.default_rng(1))
        o1, o2 = model.forward(x), model.forward(x)
        assert (o1.predicted_class, o1.confidence, o1.fused_uncertainty) == (
            o2.predicted_class, o2.confidence, o2.fused_uncertainty)
        for key in ("modality_preds", "modality_uncertainty", "modality_epistemic"):
            assert np.array_equal(getattr(o1, key), getattr(o2, key))

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
        # the fused t of two equal inputs is that input: its location, so its
        # own prediction, and its variance, the mean of the two
        assert out.modality_preds.tolist() == [out.predicted_class] * 2
        assert out.modality_uncertainty[0] == out.modality_uncertainty[1]
        _, sigma, v = (a[0, 0] for a in model.forward_batch([x[None], x[None]])["st"])
        assert out.fused_uncertainty == pytest.approx(
            st_variance_arrays(sigma, v)[out.predicted_class], rel=1e-15)

    def test_dimension_mismatch_rejected(self):
        model = _tiny_model()
        with pytest.raises(ValueError):
            model.forward([np.zeros(4), np.zeros(2)])

    @pytest.mark.parametrize("sample, message", [
        ([np.zeros((2, 3)), np.zeros(2)], r"modality 1 sample has shape \(2, 3\), expected \(6,\)"),
        ([np.zeros((3, 2)), np.zeros(2)], r"modality 1 sample has shape \(3, 2\), expected \(6,\)"),
        ([np.zeros((1, 6)), np.zeros(2)], r"modality 1 sample has shape \(1, 6\), expected \(6,\)"),
        ([np.zeros(5), np.zeros(2)], r"modality 1 sample has shape \(5,\), expected \(6,\)"),
        ([np.zeros(6), 1.0], r"modality 2 sample has shape \(\), expected \(2,\)"),
    ], ids=["2x3", "3x2", "1x6", "5-values", "0-d"])
    def test_forward_refuses_a_misshapen_sample(self, sample, message):
        # a sample is one (d_m,) array per modality; any other shape with
        # d_m values was scored as that sample, and 5 values for 6 features
        # were refused as a "(1, 5)" feature block
        model = MultimodalClassifier([EncoderSpec(6, (4,)), EncoderSpec(2, (4,))], n_classes=3)
        with pytest.raises(ValueError, match=f"^{message}$"):
            model.forward(sample)

    @pytest.mark.parametrize("feats", [[np.zeros(3), np.zeros(2)], [1.0, 2.0]], ids=["1-d", "0-d"])
    def test_forward_batch_checks_shapes_before_rows(self, feats):
        with pytest.raises(ValueError, match=r"^feature block has shape \(\d?,?\), expected \(B, 3\)$"):
            _tiny_model().forward_batch(feats)

    @pytest.mark.parametrize("rows", [(5, 4), (4, 5)])
    def test_forward_batch_rejects_unequal_row_counts(self, rows):
        feats = [np.zeros((rows[0], 3)), np.zeros((rows[1], 2))]
        message = rf"^modality 2 has {rows[1]} rows, modality 1 has {rows[0]}$"
        with pytest.raises(ValueError, match=message):
            _tiny_model().forward_batch(feats)

    def test_forward_batch_rejects_a_surplus_block(self):
        # counted before `_feature_block` looks up a block's encoder spec
        feats = [np.zeros((4, 3)), np.zeros((4, 2)), np.zeros((4, 2))]
        with pytest.raises(ValueError, match="^expected 2 feature blocks, got 3$"):
            _tiny_model().forward_batch(feats)

    @pytest.mark.parametrize(
        "d, hidden, n",
        [(6, (64,), 150), (6, (64,), 4097), (6, (64,), 8191), (6, (64,), 8192),
         (6, (64,), 12345), (3, (16,), 12345), (3, (16,), 50000), (3, (5, 3), 139869)],
    )
    def test_head_outputs_equal_training_forward(self, d, hidden, n):
        # each modality's chunked, cache-free readout gives the unchunked
        # training forward's bits, also where a fixed 4096-row chunk would
        # not (a 16 -> 12 head)
        model = MultimodalClassifier([EncoderSpec(d, hidden, "tanh")] * 2, n_classes=3, seed=4)
        rng = np.random.default_rng(n)
        feats = [rng.normal(size=(n, d)), rng.normal(size=(n, d))]
        scores, out = _score_modalities(model, feats), model.forward_batch(feats)
        assert np.array_equal(scores.st, np.stack(out["st"]))
        assert np.array_equal(scores.pred, np.argmax(out["gamma"], axis=-1))

    @pytest.mark.parametrize("activation", ["tanh", "relu"])
    def test_forward_passes_leave_their_features_alone(self, activation):
        # the layers write into arrays of their own, never into the input
        model = MultimodalClassifier([EncoderSpec(3, (8, 5), activation)] * 2, n_classes=3, seed=2)
        rng = np.random.default_rng(8)
        feats = [rng.normal(size=(50, 3)), rng.normal(size=(50, 3))]
        before = [x.copy() for x in feats]
        first = _score_modalities(model, feats), model.forward_batch(feats)
        second = _score_modalities(model, feats), model.forward_batch(feats)
        assert all(np.array_equal(x, b) for x, b in zip(feats, before))
        assert np.array_equal(first[0].st, second[0].st)
        for key in ("raw", "gamma", "delta", "alpha", "beta"):
            assert np.array_equal(first[1][key], second[1][key])
        for acts_1, acts_2 in zip(first[1]["caches"], second[1]["caches"]):
            assert all(np.array_equal(a, b) for a, b in zip(acts_1, acts_2))

    def test_head_outputs_one_unit_layer_matches_to_rounding(self):
        # BLAS splits a matrix-vector product by row count, so a layer one
        # unit wide may round differently in chunks of 87,382 rows
        model = MultimodalClassifier([EncoderSpec(3, (16, 1), "tanh")], n_classes=3, seed=4)
        x = np.random.default_rng(0).normal(size=(2 * 87382 + 57, 3))
        for a, b in zip(_score_modalities(model, [x]).st, model.forward_batch([x])["st"]):
            np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-12)

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
    def test_head_outputs_chunk_rows(self, monkeypatch, d, hidden, n, chunks):
        # the rows of each encoder call of the inference pass
        model = MultimodalClassifier([EncoderSpec(d, hidden, "tanh")], n_classes=3)
        rows = []

        def forward(self, x, _f=_MLP.forward):
            rows.append(len(x))
            return _f(self, x)

        monkeypatch.setattr(_MLP, "forward", forward)
        _score_modalities(model, [np.zeros((n, d))])
        assert rows == chunks

    def test_row_chunks_remainder_joins_the_last_chunk(self):
        assert list(row_chunks(0)) == [(0, 0)]
        assert list(row_chunks(4095)) == [(0, 4095)]
        assert list(row_chunks(8193)) == [(0, 4096), (4096, 8193)]
        assert list(row_chunks(11, rows=4)) == [(0, 4), (4, 11)]
        assert list(row_chunks(12, rows=4)) == [(0, 4), (4, 8), (8, 12)]

    def test_head_outputs_reject_non_finite_rows(self):
        model = _tiny_model()
        x = np.zeros((10, 2))
        x[7, 1] = np.nan
        x[8, 0] = np.inf
        with pytest.raises(ValueError, match="modality 2 has a non-finite feature in row 7"):
            _score_modalities(model, [np.zeros((10, 3)), x])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_forward_rejects_non_finite_features(self, bad):
        x = _sample(np.random.default_rng(5))
        x[1][1] = bad
        with pytest.raises(ValueError, match="modality 2 has a non-finite feature in row 0"):
            _tiny_model().forward(x)

    def test_forward_is_one_row_of_the_inference_pass(self):
        # every row of a split one row longer than a chunk, for M = 1, 2 and 3;
        # BLAS may round a one-row product differently from a batch, so the
        # values agree to rounding and the decisions exactly
        n = INFERENCE_CHUNK_ROWS + 1
        for dims in ((6,), (6, 4), (3, 6, 4)):
            rng = np.random.default_rng(len(dims))
            labels = rng.integers(0, 3, n)
            feats = [np.eye(3, d)[labels] * 2.0 + rng.normal(size=(n, d)) for d in dims]
            model = MultimodalClassifier([EncoderSpec(d, (16,), "tanh") for d in dims], 3, seed=len(dims))
            res = evaluate_model(model, Dataset(feats, labels))
            rows = [model.forward([x[i] for x in feats]) for i in range(n)]
            assert [r.predicted_class for r in rows] == res.preds.tolist()
            assert np.array_equal([r.modality_preds for r in rows], res.modality_preds.T)
            for key, batch in (("confidence", res.confidences), ("fused_uncertainty", res.fused_uncertainty),
                               ("modality_uncertainty", res.modality_uncertainty.T),
                               ("modality_epistemic", res.modality_epistemic.T)):
                np.testing.assert_allclose([getattr(r, key) for r in rows], batch, rtol=1e-12, atol=0)

    def test_fused_uncertainty_is_argmax_channel_variance(self):
        # by the fused-variance identity, the mean of the inputs' variances
        model = _tiny_model()
        x = _sample(np.random.default_rng(3))
        out = model.forward(x)
        _, sigma, v = (a[:, 0] for a in model.forward_batch([a[None] for a in x])["st"])
        assert out.fused_uncertainty == pytest.approx(
            st_variance_arrays(sigma, v)[:, out.predicted_class].mean(), rel=1e-14
        )


class TestPredict:
    def test_contract(self):
        out = _tiny_model().forward(_sample(np.random.default_rng(4)))
        assert isinstance(out.predicted_class, int) and 0 <= out.predicted_class < 3
        assert 0.0 < out.confidence <= 1.0
        assert out.fused_uncertainty > 0
        assert out.modality_preds.shape == out.modality_uncertainty.shape == (2,)
        assert out.modality_epistemic.shape == (2,)
        assert np.all((out.modality_preds >= 0) & (out.modality_preds < 3))
        assert np.all(out.modality_uncertainty > 0) and np.all(out.modality_epistemic > 0)


class TestCheckpoint:
    def test_round_trip_bit_exact(self):
        # the in-memory form through JSON text, as the CLI's checkpoint file holds it
        model = _tiny_model(seed=11)
        text = json.dumps(model.state_dict())
        loaded = MultimodalClassifier.from_state_dict(json.loads(text))
        for a, b in zip(model.encoders, loaded.encoders):
            for w1, w2 in zip(a.weights, b.weights):
                np.testing.assert_array_equal(w1, w2)
        for a, b in zip(model.heads, loaded.heads):
            np.testing.assert_array_equal(a.weight, b.weight)
            np.testing.assert_array_equal(a.bias, b.bias)
        assert json.dumps(loaded.state_dict()) == text

    def test_every_weight_is_a_view_into_params(self):
        model = _tiny_model()
        for m in (model, copy.deepcopy(model), pickle.loads(pickle.dumps(model))):
            arrays = [a for layer in m.encoders + m.heads for a in layer.arrays]
            assert sum(a.size for a in arrays) == m.params.size
            assert all(np.shares_memory(a, m.params) for a in arrays)
            np.testing.assert_array_equal(m.params, model.params)

    def test_every_gradient_is_a_view_into_grad(self):
        model = _tiny_model()
        copies = (copy.deepcopy(model), pickle.loads(pickle.dumps(model)))
        for m in (model,) + copies:
            layers = m.encoders + m.heads
            grads = [g for layer in layers for g in layer.grads]
            assert [g.shape for g in grads] == [a.shape for layer in layers for a in layer.arrays]
            assert all(np.shares_memory(g, m.grad) for g in grads)
            m.grad[:] = np.arange(m.params.size)  # laid out like `params`, in `_layers()` order
            np.testing.assert_array_equal(np.concatenate([g.ravel() for g in grads]), m.grad)
        assert not any(np.shares_memory(c.grad, model.grad) for c in copies)

    @pytest.mark.parametrize(
        "mutate, message",
        [
            (lambda s: s["encoders"][0].update(biases=[[0.0]]),
             r"encoders\[0\]\.biases\[0\] has shape \(1,\), expected \(5,\)"),
            (lambda s: s["heads"][1]["weight"].pop(),
             r"heads\[1\]\.weight has shape \(3, 12\), expected \(4, 12\)"),
            (lambda s: s["encoders"][1]["weights"].append([[0.0]]),
             r"encoders\[1\]\.weights holds 2 arrays, expected 1"),
            (lambda s: s["encoders"].pop(), r"^checkpoint encoders holds 1 entries, expected 2 from encoder_specs$"),
            (lambda s: s["heads"].pop(), r"^checkpoint heads holds 1 entries, expected 2 from encoder_specs$"),
            (lambda s: s["heads"][0]["bias"].__setitem__(2, None),
             r"^checkpoint heads\[0\]\.bias\[2\] must be a number, got null$"),
            (lambda s: s["encoders"][1]["weights"][0][0].__setitem__(0, float("inf")),
             r"encoders\[1\]\.weights\[0\] must be finite"),
            (lambda s: s["heads"][0]["weight"][0].__setitem__(0, float("nan")),
             r"heads\[0\]\.weight must be finite"),
            (lambda s: s["heads"][0]["weight"][1].__setitem__(0, "1.5"),
             r"^checkpoint heads\[0\]\.weight\[1\]\[0\] must be a number, got \"1\.5\"$"),
            (lambda s: s["encoders"][0]["biases"][0].__setitem__(1, True),
             r"^checkpoint encoders\[0\]\.biases\[0\]\[1\] must be a number, got true$"),
            (lambda s: s["heads"][1]["weight"][0].__setitem__(3, [0.0]),
             r"^checkpoint heads\[1\]\.weight\[0\]\[3\] must be a number, got \[0\.0\]$"),
            (lambda s: s["heads"][1]["weight"][0].pop(),
             r"^checkpoint heads\[1\]\.weight has shape \(4,\), expected \(4, 12\) "
             r"from encoder_specs\[1\] and n_classes$"),
            (lambda s: s.update(seed=True), r"^checkpoint seed must be an integer, got true$"),
            (lambda s: s.update(n_classes=3.0), r"^checkpoint n_classes must be an integer, got 3\.0$"),
            (lambda s: s["encoder_specs"][0].update(input_dim="3"),
             r"^checkpoint encoder_specs\[0\]\.input_dim must be an integer, got \"3\"$"),
            (lambda s: s["encoder_specs"][1].update(hidden_dims=[4.0]),
             r"^checkpoint encoder_specs\[1\]\.hidden_dims\[0\] must be an integer, got 4\.0$"),
            (lambda s: s["encoder_specs"][1].update(hidden_dims=8),
             r"^checkpoint encoder_specs\[1\]\.hidden_dims must be a list, got 8$"),
            (lambda s: s.update(encoder_specs=5), r"^checkpoint encoder_specs must be a list, got 5$"),
            # declared sizes of 10**15, whose weights numpy refuses to allocate:
            # the saved arrays are checked against them before the model is built
            (lambda s: s["encoder_specs"][0].update(input_dim=10**15),
             r"^checkpoint encoders\[0\]\.weights\[0\] has shape \(3, 5\), "
             r"expected \(1000000000000000, 5\) from encoder_specs\[0\]$"),
            (lambda s: s["encoder_specs"][1].update(hidden_dims=[10**15]),
             r"^checkpoint encoders\[1\]\.weights\[0\] has shape \(2, 4\), "
             r"expected \(2, 1000000000000000\) from encoder_specs\[1\]$"),
            (lambda s: s.update(n_classes=10**15),
             r"^checkpoint heads\[0\]\.weight has shape \(5, 12\), "
             r"expected \(5, 4000000000000000\) from encoder_specs\[0\] and n_classes$"),
            # value rules run before the arrays are checked against the sizes
            (lambda s: s.update(n_classes=1), r"^checkpoint n_classes must be >= 2, got 1$"),
            (lambda s: s.update(seed=-1), r"^checkpoint seed must be >= 0, got -1$"),
            (lambda s: s["encoder_specs"][1].update(activation="sigmoid"),
             r"^checkpoint encoder_specs\[1\]\.activation must be relu or tanh, got 'sigmoid'$"),
            (lambda s: s["encoder_specs"][0].update(hidden_dims=[]),
             r"^checkpoint encoder_specs\[0\]\.hidden_dims must be one or more sizes >= 1, got \[\]$"),
            (lambda s: s["encoder_specs"][1].pop("input_dim"), r"^checkpoint encoder_specs\[1\]\.input_dim is missing$"),
            (lambda s: s.update(format_version=2), r"^checkpoint format_version must be 1, got 2$"),
            (lambda s: s["heads"][0].update(bias=[10**400] * 12), r"^checkpoint heads\[0\]\.bias must be finite$"),
        ],
        ids=["bias-shape", "head-shape", "weight-count", "encoder-count", "head-count",
             "null-bias", "inf-weight", "nan-weight", "string-weight", "bool-bias", "list-in-weight",
             "ragged-weight", "bool-seed", "float-classes", "string-input-dim", "float-hidden",
             "int-hidden", "int-encoder-specs",
             "huge-input-dim", "huge-hidden-dim", "huge-classes",
             "one-class", "negative-seed", "unknown-activation", "no-hidden-dims", "no-input-dim",
             "format-2", "int-beyond-float"],
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

    @pytest.mark.parametrize("fields, message", [
        ({"learning_rate": math.inf}, "learning_rate must be finite and > 0, got inf"),
        ({"learning_rate": math.nan}, "learning_rate must be finite and > 0, got nan"),
        ({"learning_rate": 0.0}, "learning_rate must be finite and > 0, got 0.0"),
        ({"seed": -1}, "seed must be >= 0, got -1"),
    ], ids=["inf-lr", "nan-lr", "zero-lr", "negative-seed"])
    def test_config_rules_name_the_field(self, fields, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            TrainConfig(**fields)

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

    @pytest.mark.parametrize(
        "split, relabel",
        [
            ("validation", lambda y: np.where(y == 0, -1, y)),
            ("validation", lambda y: np.full_like(y, 3)),
            ("training", lambda y: y.astype(float)),
        ],
        ids=["validation-minus-one", "validation-K", "training-floats"],
    )
    def test_labels_checked_on_both_splits(self, split, relabel):
        ds, val = _toy_dataset(), _toy_dataset(n=32, seed=1)
        bad = val if split == "validation" else ds
        bad.labels = relabel(bad.labels)
        model = _tiny_model()
        before = model.params.copy()
        with pytest.raises(ValueError, match=rf"^{split} labels must be integers in \[0, 3\)$"):
            train(model, ds, TrainConfig(max_epochs=1), val_dataset=val)
        assert np.array_equal(model.params, before)  # rejected before any step

    def test_empty_validation_set_rejected(self):
        val = Dataset([np.zeros((0, 3)), np.zeros((0, 2))], np.zeros(0, dtype=np.int64))
        model = _tiny_model()
        before = model.params.copy()
        with pytest.raises(ValueError, match="^validation dataset is empty$"):
            train(model, _toy_dataset(), TrainConfig(max_epochs=2), val)
        assert np.array_equal(model.params, before)  # rejected before any step

    @pytest.mark.parametrize(
        "mutate, message",
        [
            (lambda feats: feats.__setitem__(0, np.zeros((32, 4))),
             r"^feature block has shape \(32, 4\), expected \(B, 3\)$"),
            (lambda feats: feats.pop(), "^expected 2 feature blocks, got 1$"),
        ],
        ids=["4-wide-block", "missing-modality"],
    )
    def test_validation_blocks_checked_before_any_step(self, mutate, message):
        val = _toy_dataset(n=32, seed=1)
        mutate(val.features)  # past Dataset's own check
        model = _tiny_model()
        before = model.params.copy()
        with pytest.raises(ValueError, match=message):
            train(model, _toy_dataset(), TrainConfig(max_epochs=1), val_dataset=val)
        assert np.array_equal(model.params, before)  # rejected before any step

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


class TestTrainingStep:
    def test_fusion_calls_per_step_and_validation_pass(self, monkeypatch):
        # perfbench/test_perfbench.py pins these counts (2.0625 fuse_stack and
        # 1.03125 fuse_stack_backward calls per step, with the validation pass):
        # only a change to the benchmark re-pins them
        calls = collections.Counter()

        def counting(module, name):
            inner = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return inner(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)

        counting(evfuse.model, "fuse_stack")
        counting(evfuse.losses, "fuse_stack")
        counting(evfuse.losses, "fuse_stack_backward")
        model, ds = _tiny_model(), _toy_dataset(n=16)
        _batch_loss_and_param_grads(model, ds.features, np.eye(3)[ds.labels], 0.5)
        assert calls == {"fuse_stack": 2, "fuse_stack_backward": 1}
        calls.clear()
        _dataset_loss(model, ds, 0.5)
        assert calls == {"fuse_stack": 2, "fuse_stack_backward": 1}

    @pytest.mark.parametrize("freeze", [False, True], ids=["all", "frozen-encoders"])
    @pytest.mark.parametrize("dims", [(3,), (3, 2, 4)], ids=["M1", "M3"])
    @pytest.mark.parametrize("hidden", [(5,), (6, 4)], ids=["one-layer", "two-layers"])
    @pytest.mark.parametrize("activation", ["tanh", "relu"])
    def test_twenty_adam_steps_equal_the_oracle(self, activation, hidden, dims, freeze):
        model = MultimodalClassifier([EncoderSpec(d, hidden, activation) for d in dims], 3, seed=7)
        twin = pickle.loads(pickle.dumps(model))
        first = sum(a.size for enc in model.encoders for a in enc.arrays) if freeze else 0
        opt = _Adam(model.params.size - first, 1e-2)
        twin_opt = step_oracle.Adam(twin.params.size - first, 1e-2)
        rng = np.random.default_rng(11)
        for _ in range(20):
            feats = [rng.normal(size=(16, d)) for d in dims]
            y = np.eye(3)[rng.integers(0, 3, 16)]
            loss, grad = _batch_loss_and_param_grads(model, feats, y, 0.5)
            want_loss, want_grad = step_oracle.loss_and_grad(twin, feats, y, 0.5)
            assert grad is model.grad  # the model's buffer, overwritten by the next step
            assert loss == want_loss and np.array_equal(grad, want_grad)
            opt.step(model.params[first:], grad[first:])
            twin_opt.step(twin.params[first:], want_grad[first:])
            assert np.array_equal(model.params, twin.params)
        untrained = MultimodalClassifier(model.encoder_specs, 3, seed=7)
        assert not np.array_equal(model.params, untrained.params)


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

    @pytest.mark.parametrize("activation", ["tanh", "relu"])
    def test_two_hidden_layers_match_finite_differences(self, activation):
        specs = [EncoderSpec(2, (3, 2), activation), EncoderSpec(1, (2, 2), activation)]
        model = MultimodalClassifier(specs, n_classes=2, seed=3)
        rng = np.random.default_rng(3)
        feats = [rng.normal(size=(4, 2)), rng.normal(size=(4, 1))]
        y = np.eye(2)[[0, 1, 1, 0]]

        def loss():
            return _dataset_loss(model, Dataset(feats, np.argmax(y, axis=1)), 0.5)

        _, grad = _batch_loss_and_param_grads(model, feats, y, 0.5)
        h = 1e-6
        params = model.params
        for i in range(params.size):
            orig = params[i]
            params[i] = orig + h
            plus = loss()
            params[i] = orig - h
            minus = loss()
            params[i] = orig
            assert grad[i] == pytest.approx((plus - minus) / (2 * h), rel=1e-4, abs=1e-8)


class TestConfigHash:
    def test_stable_and_order_insensitive(self):
        h1 = config_hash({"a": 1, "b": [2, 3]})
        h2 = config_hash({"b": [2, 3], "a": 1})
        assert h1 == h2 and len(h1) == 16
        assert config_hash({"a": 2, "b": [2, 3]}) != h1
