import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from evfuse import evaluation
from evfuse.data import Dataset
from evfuse.distributions import st_nll_arrays
from evfuse.evaluation import (
    NoiseSpec,
    _score_fused,
    _score_modalities,
    accuracy,
    class_posterior,
    cohen_kappa,
    ece,
    evaluate_model,
    inject_noise,
    noise_sweep,
    uncertainty_density,
    write_json,
)
from evfuse.losses import softmax
from evfuse.model import _MLP, EncoderSpec, MultimodalClassifier


class TestAccuracy:
    def test_anchors(self):
        assert accuracy([1, 2, 3], [1, 2, 3]) == 1.0
        assert accuracy([1, 2, 3], [0, 0, 0]) == 0.0
        assert accuracy([1] * 7 + [0] * 3, [1] * 10) == pytest.approx(0.7)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            accuracy([], [])
        with pytest.raises(ValueError):
            accuracy([1], [1, 2])


class TestKappa:
    def test_perfect_agreement(self):
        assert cohen_kappa([0, 1, 2, 1], [0, 1, 2, 1], 3) == pytest.approx(1.0)

    def test_constant_preds_uniform_labels(self):
        # p_o = 0.5 = p_e, so chance-corrected agreement is zero
        preds = [0] * 10
        labels = [0, 1] * 5
        assert cohen_kappa(preds, labels, 2) == pytest.approx(0.0, abs=1e-12)

    def test_hand_confusion_table(self):
        # labels: 0,0,1,1,2,2 ; preds: 0,1,1,1,2,0
        labels = [0, 0, 1, 1, 2, 2]
        preds = [0, 1, 1, 1, 2, 0]
        # p_o = 4/6; marginals preds (2,3,1)/6, labels (2,2,2)/6
        p_o = 4 / 6
        p_e = (2 * 2 + 3 * 2 + 1 * 2) / 36
        expected = (p_o - p_e) / (1 - p_e)
        assert cohen_kappa(preds, labels, 3) == pytest.approx(expected, rel=1e-12)

    def test_degenerate_single_class(self):
        assert cohen_kappa([1, 1], [1, 1], 3) == 0.0

    @pytest.mark.parametrize("weighted", [False, True])
    @pytest.mark.parametrize("k", [2, 3, 5])
    def test_matches_confusion_loop(self, k, weighted):
        rng = np.random.default_rng(k)
        for n in (1, 7, 1000):
            labels = rng.integers(0, k, n)
            preds = np.where(rng.random(n) < 0.6, labels, rng.integers(0, k, n))
            assert cohen_kappa(preds, labels, k, weighted) == _kappa_loop(preds, labels, k, weighted)

    @pytest.mark.parametrize("preds", [[0, 3], [-1, 0]])
    def test_out_of_range_class_rejected(self, preds):
        with pytest.raises(ValueError, match="preds must lie in"):
            cohen_kappa(preds, [0, 1], 3)

    @pytest.mark.parametrize("name", ["preds", "labels"])
    def test_non_integer_classes_rejected(self, name):
        # truncating them would report agreement that `accuracy` denies
        ints, floats = [0, 1, 2, 1], [0.5, 1.9, 2.2, 1.0]
        args = (floats, ints) if name == "preds" else (ints, floats)
        assert accuracy(*args) == 0.25
        with pytest.raises(ValueError, match=f"^{name} must be integers, got dtype float64$"):
            cohen_kappa(*args, 3)

    def test_quadratic_weights_order_sensitivity(self):
        labels = [0, 2, 1, 0, 2]
        near = [0, 1, 1, 0, 2]  # errors off by one class
        far = [2, 0, 1, 2, 2]  # errors off by two classes
        kw_near = cohen_kappa(near, labels, 3, weighted=True)
        kw_far = cohen_kappa(far, labels, 3, weighted=True)
        assert kw_near > kw_far


def _kappa_loop(preds, labels, n_classes, weighted):
    """Reference: the confusion matrix built one sample at a time."""
    cm = np.zeros((n_classes, n_classes))
    for p, t in zip(preds, labels):
        cm[int(t), int(p)] += 1
    idx = np.arange(n_classes)
    w = (idx[:, None] - idx[None, :]) ** 2 if weighted else 1.0 - np.eye(n_classes)
    expected = np.outer(cm.sum(axis=1), cm.sum(axis=0)) / cm.sum()
    d_exp = (w * expected).sum()
    return 0.0 if d_exp == 0.0 else float(1.0 - (w * cm).sum() / d_exp)


def _mask_loop_ece(confidences, correct, n_bins):
    """The ECE as one mask pass per bin: the oracle of the sorted-segment `ece`."""
    conf = np.asarray(confidences, dtype=float)
    corr = np.asarray(correct, dtype=float)
    idx = np.clip(np.ceil(conf * n_bins).astype(int) - 1, 0, n_bins - 1)
    total, per_bin = 0.0, []
    for b in range(n_bins):
        mask = idx == b
        count = int(mask.sum())
        if count == 0:
            per_bin.append((0.0, 0.0, 0))
            continue
        mean_conf = float(conf[mask].mean())
        acc_b = float(corr[mask].mean())
        per_bin.append((mean_conf, acc_b, count))
        total += count / len(conf) * abs(acc_b - mean_conf)
    return float(total), per_bin


@st.composite
def _ece_inputs(draw):
    """Confidences in [0, 1], often exactly on a bin edge, and their outcomes."""
    n_bins = draw(st.integers(1, 20))
    edges = st.sampled_from([0.0, 0.1, 1.0]) | st.integers(0, n_bins).map(lambda b: b / n_bins)
    conf = draw(st.lists(st.floats(0.0, 1.0) | edges, min_size=1, max_size=60))
    correct = draw(st.lists(st.booleans(), min_size=len(conf), max_size=len(conf)))
    return conf, correct, n_bins


class TestEce:
    @given(_ece_inputs())
    def test_equals_the_mask_loop(self, case):
        conf, correct, n_bins = case
        assert ece(conf, correct, n_bins) == _mask_loop_ece(conf, correct, n_bins)

    @pytest.mark.parametrize("n_bins", [1, 7, 10, 20, 300])
    def test_equals_the_mask_loop_on_many_rows(self, n_bins):
        rng = np.random.default_rng(n_bins)
        conf = rng.random(20_000) ** 0.25  # crowds the top bins, leaves low ones empty
        conf[::97] = np.round(conf[::97] * n_bins) / n_bins  # exactly on an edge
        correct = rng.random(20_000) < conf
        assert ece(conf, correct, n_bins) == _mask_loop_ece(conf, correct, n_bins)

    def test_edges_join_the_bin_below(self):
        conf = np.arange(11) / 10  # 0, 0.1, ..., 1.0
        _, per_bin = ece(conf, [True] * 11, n_bins=10)
        assert [c for _, _, c in per_bin] == [2] + [1] * 9

    def test_perfectly_calibrated(self):
        val, _ = ece([1.0] * 5, [True] * 5)
        assert val == 0.0

    def test_maximally_miscalibrated(self):
        val, _ = ece([1.0] * 5, [False] * 5)
        assert val == pytest.approx(1.0)

    def test_two_bin_hand_case(self):
        conf = [0.4, 0.3, 0.9, 0.8]
        correct = [True, False, True, False]
        # bins (0,0.5] and (0.5,1]: each holds two samples
        expected = 0.5 * abs(0.5 - 0.35) + 0.5 * abs(0.5 - 0.85)
        val, per_bin = ece(conf, correct, n_bins=2)
        assert val == pytest.approx(expected, rel=1e-12)
        assert per_bin[0] == (pytest.approx(0.35), 0.5, 2)
        assert per_bin[1] == (pytest.approx(0.85), 0.5, 2)

    def test_counts_sum_and_top_bin_assignment(self):
        conf = [0.0, 0.05, 1.0, 0.9999]
        val, per_bin = ece(conf, [True] * 4, n_bins=10)
        assert sum(c for _, _, c in per_bin) == 4
        assert per_bin[9][2] == 2  # both near-1 confidences in the top bin
        assert 0.0 <= val <= 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            ece([1.5], [True])
        with pytest.raises(ValueError):
            ece([], [])

    def test_rejects_nan_confidences(self):
        with pytest.raises(ValueError, match=r"confidences must lie in \[0, 1\]"):
            ece([np.nan, 0.5], [True, False])


class TestInjectNoise:
    def _feats(self):
        rng = np.random.default_rng(0)
        return [rng.normal(size=(50, 3)), rng.normal(size=(50, 2))]

    def test_sigma_zero_is_identity(self):
        feats = self._feats()
        out = inject_noise(feats, NoiseSpec(0, 0.0, seed=1))
        for a, b in zip(out, feats):
            np.testing.assert_array_equal(a, b)

    def test_untouched_modality_bit_identical(self):
        feats = self._feats()
        out = inject_noise(feats, NoiseSpec(0, 1.0, seed=1))
        np.testing.assert_array_equal(out[1], feats[1])
        assert not np.array_equal(out[0], feats[0])

    def test_seeded_determinism(self):
        feats = self._feats()
        a = inject_noise(feats, NoiseSpec(1, 0.5, seed=3))
        b = inject_noise(feats, NoiseSpec(1, 0.5, seed=3))
        np.testing.assert_array_equal(a[1], b[1])

    def test_empirical_noise_std(self):
        feats = [np.zeros((1000, 100))]
        out = inject_noise(feats, NoiseSpec(0, 0.7, seed=5))
        assert out[0].std() == pytest.approx(0.7, rel=0.02)
        assert out[0].mean() == pytest.approx(0.0, abs=0.01)

    def test_invalid_modality(self):
        with pytest.raises(ValueError):
            inject_noise(self._feats(), NoiseSpec(5, 0.1))

    def test_negative_sigma_rejected(self):
        with pytest.raises(ValueError):
            NoiseSpec(0, -0.1)

    @pytest.mark.parametrize("sigma", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_sigma_rejected(self, sigma):
        with pytest.raises(ValueError, match="sigma must be finite and >= 0"):
            NoiseSpec(0, sigma)


def _model_and_data(n=60):
    rng = np.random.default_rng(10)
    labels = np.repeat(np.arange(3), n // 3)
    means = np.eye(3) * 4.0
    x1 = means[labels] + rng.normal(size=(n, 3))
    x2 = means[labels] + rng.normal(size=(n, 3))
    model = MultimodalClassifier(
        [EncoderSpec(3, (8,), "tanh")] * 2, n_classes=3, seed=0
    )
    return model, Dataset([x1, x2], labels)


class TestEvaluateModel:
    def test_report_consistency(self):
        model, ds = _model_and_data()
        res = evaluate_model(model, ds)
        r = res.report
        assert r.n_samples == len(ds)
        assert sum(c for _, _, c in r.per_bin) == r.n_samples
        assert 0.0 <= r.ece <= 1.0
        # ece recomputable from its own bins
        recomputed = sum(
            c / r.n_samples * abs(a - m) for m, a, c in r.per_bin if c
        )
        assert r.ece == pytest.approx(recomputed, rel=1e-12)
        assert res.modality_uncertainty.shape == (2, len(ds))
        assert np.all(res.confidences >= 0) and np.all(res.confidences <= 1)

    def test_class_posterior_normalizes(self):
        u = np.array([[0.2, 0.9, -0.1]])
        sigma = np.array([[0.5, 1.0, 2.0]])
        v = np.array([[3.0, 4.0, 5.0]])
        post = class_posterior(u, sigma, v)
        assert post.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.argmax(post) == 1

    @staticmethod
    def _channels(seed, v_max, shape=(500, 4)):
        rng = np.random.default_rng(seed)
        u = rng.normal(0.5, 2.0, shape)
        sigma = np.exp(rng.uniform(np.log(1e-3), np.log(1e2), shape))
        v = np.exp(rng.uniform(np.log(2.0001), np.log(v_max), shape))
        return u, sigma, v

    def test_class_posterior_matches_log_density_difference(self):
        u, sigma, v = self._channels(0, 1e3)
        llr = st_nll_arrays(u, sigma, v, 0.0) - st_nll_arrays(u, sigma, v, 1.0)
        np.testing.assert_allclose(class_posterior(u, sigma, v), softmax(llr), rtol=0, atol=1e-9)

    def test_class_posterior_at_large_v_matches_extended_precision(self):
        # up to v = 1e6, where the difference of two log-densities loses digits
        u, sigma, v = self._channels(1, 1e6)
        post = class_posterior(u, sigma, v)
        assert np.isfinite(post).all()
        u, sigma, v = (a.astype(np.longdouble) for a in (u, sigma, v))
        vs = v * sigma
        llr = 0.5 * (v + 1) * (np.log1p(u**2 / vs) - np.log1p((1 - u) ** 2 / vs))
        e = np.exp(llr - llr.max(axis=-1, keepdims=True))
        np.testing.assert_allclose(post, (e / e.sum(axis=-1, keepdims=True)).astype(float),
                                   rtol=0, atol=1e-12)


def _reference_evaluate(model, features, labels):
    """Reference: evaluate_model's readouts computed from the training forward."""
    out = model.forward_batch(features)
    trace, gamma, delta, alpha, beta = (out[k] for k in ("trace", "gamma", "delta", "alpha", "beta"))
    rows = np.arange(len(labels))
    preds = np.argmax(trace.u, axis=-1)
    conf = class_posterior(trace.u, trace.sigma, trace.v)[rows, preds]
    fused_unc = (trace.sigma * trace.v / (trace.v - 2.0))[rows, preds]
    al = beta / (alpha - 1.0)
    ep = beta / (delta * (alpha - 1.0))
    own_pred = np.argmax(gamma, axis=-1)
    mod_unc = np.stack([(al + ep)[m, rows, own_pred[m]] for m in range(len(features))])
    return preds, conf, fused_unc, mod_unc, ep.mean(axis=-1), own_pred


def _wide_model_and_data(n, dims, hidden, seed=0):
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, 3, n)
    feats = [np.eye(3, d)[labels] * 2.0 + rng.normal(size=(n, d)) for d in dims]
    model = MultimodalClassifier([EncoderSpec(d, hidden, "tanh") for d in dims], 3, seed=seed)
    return model, Dataset(feats, labels)


class TestInferencePass:
    @pytest.mark.parametrize("dims, hidden, n", [
        pytest.param((6, 6), (64,), n, id=str(n)) for n in (150, 4097, 8191, 8192, 12345)
    ] + [
        # 3 -> 16 does 48 multiply-adds per row, so its chunks hold 21,846 rows
        # where a fixed 4096-row chunk would round a 16 -> 12 head differently
        pytest.param((3, 3), (16,), 12345, id="narrow-12345"),
        pytest.param((3, 3), (16,), 50000, id="narrow-50000"),
        # 15 multiply-adds per row in 3 -> 5 and 5 -> 3: chunks of 69,906 rows
        pytest.param((3, 3), (5, 3), 139869, id="two-layer-139869"),
        # chunks of 21,846, 10,923 and 16,384 rows: one rule per modality
        pytest.param((3, 6, 4), (16,), 50001, id="mixed-50001"),
    ])
    def test_evaluate_model_equals_training_forward_readout(self, dims, hidden, n):
        # the chunked, cache-free pass gives the unchunked pass's bits, also
        # on ragged last chunks: 4097 = one chunk of 4097, 12345 = 4096 + 4096 + 4153
        model, ds = _wide_model_and_data(n, dims, hidden)
        res = evaluate_model(model, ds)
        got = (res.preds, res.confidences, res.fused_uncertainty,
               res.modality_uncertainty, res.modality_epistemic, res.modality_preds)
        for a, b in zip(got, _reference_evaluate(model, ds.features, ds.labels)):
            assert np.array_equal(a, b)

    def test_readout_memory_does_not_grow_with_rows(self):
        # fusing and scoring the modalities' t's allocates its O(N) results
        # and metrics, about 85 bytes per row here; a readout of all N rows at
        # once took about 590, in (M, N, K) temporaries
        n = 40_000
        model, ds = _wide_model_and_data(n, (6, 6), (16,))
        scores = _score_modalities(model, ds.features)
        tracemalloc.start()
        try:
            _score_fused(scores, ds.labels, model.n_classes, 10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 320 * n

    @pytest.mark.parametrize("dims", [(6, 4), (3, 6, 4)])
    def test_noise_sweep_equals_per_pair_evaluation(self, dims):
        # the old definition: evaluate_model on inject_noise'd data for each pair
        model, ds = _wide_model_and_data(9000, dims, (16,), seed=len(dims))
        sigmas, seeds, noisy = (0.0, 0.4, 1.5), (3, 8), 1
        rows = []
        for sigma in sigmas:
            for seed in seeds:
                feats = inject_noise(ds.features, NoiseSpec(noisy, sigma, seed))
                res = evaluate_model(model, Dataset(feats, ds.labels.copy()))
                row = {
                    "sigma": sigma, "modality": noisy, "seed": seed,
                    "acc": res.report.acc, "kappa": res.report.kappa, "ece": res.report.ece,
                    "mean_unc_fused": float(res.fused_uncertainty.mean()),
                }
                for m in range(len(dims)):
                    row[f"mean_unc_m{m + 1}"] = float(res.modality_uncertainty[m].mean())
                    row[f"mean_ep_m{m + 1}"] = float(res.modality_epistemic[m].mean())
                    row[f"acc_m{m + 1}"] = accuracy(res.modality_preds[m], ds.labels)
                rows.append(row)
        sweep = noise_sweep(model, ds, sigmas, noisy, seeds)
        assert sweep["rows"] == rows
        assert [r["acc_m1"] for r in rows] == [rows[0]["acc_m1"]] * len(rows)

    @pytest.mark.parametrize("sigmas, draws", [((0.0, 0.4, 1.5), 2), ((0.0,), 0)])
    def test_noise_sweep_draws_each_seeds_noise_once(self, monkeypatch, sigmas, draws):
        model, ds = _wide_model_and_data(500, (3, 4), (8,))
        drawn = []
        box_muller = evaluation._box_muller

        def counted(rng, shape):
            drawn.append(shape)
            return box_muller(rng, shape)

        monkeypatch.setattr(evaluation, "_box_muller", counted)
        noise_sweep(model, ds, sigmas, 1, (3, 8))
        assert drawn == [(500, 4)] * draws

    def test_noise_sweep_memory(self):
        # the sweep keeps one set of per-modality scores and re-scores the
        # corrupted modality into it: about 580 bytes per row here, at peak
        # while encoding a noisy block; keeping a second, stacked copy of the
        # M modalities' t's for the whole sweep took about 795, and keeping
        # the raw (M, N, K, 4) head outputs about 840
        n = 40_000
        model, ds = _wide_model_and_data(n, (6, 6, 6), (16,))
        tracemalloc.start()
        try:
            noise_sweep(model, ds, (0.0, 0.5), 0, (1, 2))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 700 * n

    def test_encoder_runs_only_where_the_noise_reaches(self, monkeypatch):
        model, ds = _wide_model_and_data(3000, (3, 6, 4), (16,), seed=3)
        clean = evaluate_model(model, ds)
        encoded = []

        def counted(self, x, _f=_MLP.forward):
            encoded.append(model.encoders.index(self))
            return _f(self, x)

        monkeypatch.setattr(_MLP, "forward", counted)
        sweep = noise_sweep(model, ds, (0.0, 0.4, 1.5), 1, (3, 8))
        # each clean modality once, then the corrupted one per sigma > 0 pair
        assert encoded == [0, 1, 2] + [1] * 4
        expected = {
            "acc": clean.report.acc, "kappa": clean.report.kappa, "ece": clean.report.ece,
            "mean_unc_fused": float(clean.fused_uncertainty.mean()),
        }
        for m in range(3):
            expected[f"mean_unc_m{m + 1}"] = float(clean.modality_uncertainty[m].mean())
            expected[f"mean_ep_m{m + 1}"] = float(clean.modality_epistemic[m].mean())
            expected[f"acc_m{m + 1}"] = accuracy(clean.modality_preds[m], ds.labels)
        for row, seed in zip(sweep["rows"][:2], (3, 8)):
            assert row == {"sigma": 0.0, "modality": 1, "seed": seed, **expected}

    @pytest.mark.parametrize("sigmas, modality, message", [
        ((0.1, -1.0), 0, "sigma must be finite and >= 0"),
        ((0.1, float("nan")), 0, "sigma must be finite and >= 0"),
        ((0.1,), 2, "modality_index 2 out of range"),
    ])
    def test_noise_sweep_checks_before_encoding(self, monkeypatch, sigmas, modality, message):
        model, ds = _model_and_data()
        encoded = []
        monkeypatch.setattr(_MLP, "forward", lambda self, x: encoded.append(x))
        with pytest.raises(ValueError, match=message):
            noise_sweep(model, ds, sigmas, modality, (1,))
        assert encoded == []

    @pytest.mark.parametrize("n_bins", [0, -1])
    @pytest.mark.parametrize("run", [
        lambda model, ds, n_bins: evaluate_model(model, ds, n_bins),
    ], ids=["evaluate_model"])
    def test_bins_checked_before_encoding(self, monkeypatch, run, n_bins):
        # it was refused only by `ece`, after every modality was encoded
        model, ds = _model_and_data()
        encoded = []
        monkeypatch.setattr(_MLP, "forward", lambda self, x: encoded.append(x))
        with pytest.raises(ValueError, match="^n_bins must be >= 1$"):
            run(model, ds, n_bins)
        assert encoded == []

    @pytest.mark.parametrize("run", [
        lambda model, ds: noise_sweep(model, ds, (0.0, 1e308), 0, (0,)),
        lambda model, ds: uncertainty_density(model, ds, NoiseSpec(0, 1e308, 0)),
        lambda model, ds: inject_noise(ds.features, NoiseSpec(0, 1e308, 0)),
    ], ids=["noise_sweep", "uncertainty_density", "inject_noise"])
    def test_overflowing_noise_is_named(self, run):
        # on finite data the first two blamed the data ("modality 1 has a
        # non-finite feature") and inject_noise returned inf features
        model, ds = _model_and_data()
        message = r"^modality 1 has a non-finite feature in row \d+ under noise sigma 1e\+308 with seed 0$"
        with pytest.raises(ValueError, match=message):
            run(model, ds)

    @pytest.mark.parametrize("sigmas, seeds, message", [
        ((0.5, 0.5), (1,), "noise sweep sigma 0.5 is repeated"),
        ((0.0, 0.5, -0.0), (1,), r"noise sweep sigma -0\.0 is repeated"),
        ((0.5,), (1, 2, 1), "noise sweep seed 1 is repeated"),
        ((0.0, 0.5), (1, -1), "seed must be >= 0, got -1"),
    ], ids=["sigma", "signed-zero", "seed", "negative-seed"])
    def test_noise_sweep_refuses_repeated_values(self, monkeypatch, sigmas, seeds, message):
        # a repeated pair wrote identical rows, and its sigma's aggregate
        # counted each copy as one more seed; a negative seed reached numpy's
        # generator only after the clean data was scored
        model, ds = _model_and_data()
        encoded = []
        monkeypatch.setattr(_MLP, "forward", lambda self, x: encoded.append(x))
        with pytest.raises(ValueError, match=f"^{message}$"):
            noise_sweep(model, ds, sigmas, 0, seeds)
        assert encoded == []

    @pytest.mark.parametrize("split, message", [
        (lambda x, y: (x, y + 0.5), r"^evaluation labels must be integers in \[0, 3\)$"),
        (lambda x, y: (x, np.where(y == 2, 3, y)), r"^evaluation labels must be integers in \[0, 3\)$"),
        (lambda x, y: (x, y[:-1]), r"^evaluation labels have shape \(59,\), expected \(60,\)$"),
        (lambda x, y: ([a[:0] for a in x], y[:0]), "^evaluation dataset is empty$"),
    ], ids=["float-labels", "label-K", "fewer-labels", "empty"])
    @pytest.mark.parametrize("run", [
        evaluate_model, lambda model, ds: noise_sweep(model, ds, (0.0, 0.5), 0, (1,)),
        lambda model, ds: uncertainty_density(model, ds, NoiseSpec(0, 0.5, 3)),
    ], ids=["evaluate_model", "noise_sweep", "uncertainty_density"])
    def test_split_checked_before_encoding(self, monkeypatch, run, split, message):
        model, ds = _model_and_data()
        features, labels = split(ds.features, ds.labels)
        encoded = []
        monkeypatch.setattr(_MLP, "forward", lambda self, x: encoded.append(x))
        with pytest.raises(ValueError, match=message):
            run(model, SimpleNamespace(features=features, labels=labels))  # a duck-typed dataset
        assert encoded == []

    def test_feature_blocks_of_unequal_rows_rejected(self):
        model, ds = _model_and_data()
        ds.features[1] = ds.features[1][:-1]  # past Dataset's own check
        with pytest.raises(ValueError, match="modality 2 has 59 rows, modality 1 has 60"):
            evaluate_model(model, ds)

    def test_non_finite_features_rejected(self):
        # the data's fault, not blamed on noise added to it
        model, ds = _model_and_data()
        ds.features[1][4, 2] = np.nan
        for run in (lambda: evaluate_model(model, ds), lambda: noise_sweep(model, ds, [0.5], 0, [1]),
                    lambda: noise_sweep(model, ds, [0.5], 1, [1]),
                    lambda: uncertainty_density(model, ds, NoiseSpec(1, 0.5, 3)),
                    lambda: inject_noise(ds.features, NoiseSpec(1, 0.5, 3))):
            with pytest.raises(ValueError, match="^modality 2 has a non-finite feature in row 4$"):
                run()


class TestNoiseSweep:
    def test_sigma_zero_matches_plain_eval(self):
        model, ds = _model_and_data()
        plain = evaluate_model(model, ds)
        sweep = noise_sweep(model, ds, [0.0], 0, [1, 2])
        for row in sweep["rows"]:
            assert row["acc"] == plain.report.acc
            assert row["kappa"] == plain.report.kappa
            assert row["ece"] == plain.report.ece
            assert row["mean_unc_fused"] == float(plain.fused_uncertainty.mean())

    def test_row_cardinality(self):
        model, ds = _model_and_data()
        sweep = noise_sweep(model, ds, [0.0, 0.5, 1.0], 1, [1, 2, 3])
        assert len(sweep["rows"]) == 9
        assert len(sweep["aggregates"]) == 3

    def test_aggregate_mean_and_std(self):
        model, ds = _model_and_data()
        sweep = noise_sweep(model, ds, [0.8], 0, [1, 2, 3])
        accs = np.array([r["acc"] for r in sweep["rows"]])
        agg = sweep["aggregates"][0]
        assert agg["acc_mean"] == pytest.approx(accs.mean())
        assert agg["acc_std"] == pytest.approx(accs.std())
        assert agg["n_seeds"] == 3


class TestUncertaintyDensity:
    def test_bin_counts_sum_to_dataset_size(self):
        model, ds = _model_and_data()
        out = uncertainty_density(model, ds)
        assert len(out["bin_edges"]) == 65
        for counts in out["histograms"].values():
            assert sum(counts) == len(ds)

    def test_noise_spec_applied(self):
        model, ds = _model_and_data()
        clean = uncertainty_density(model, ds)
        noisy = uncertainty_density(model, ds, NoiseSpec(0, 2.0, seed=1))
        assert noisy["means"]["modality_1"] != clean["means"]["modality_1"]
        assert noisy["means"]["modality_2"] == pytest.approx(
            clean["means"]["modality_2"]
        )
        # the sweep row at the same (sigma, seed) draws the same noise
        row, = noise_sweep(model, ds, [2.0], 0, [1])["rows"]
        assert (noisy["means"]["modality_1"], noisy["means"]["fused"]) == (
            row["mean_unc_m1"], row["mean_unc_fused"]
        )


class TestWriteJson:
    def test_sorted_indented_with_newline(self, tmp_path):
        path = tmp_path / "m.json"
        write_json({"b": 1.5, "a": [1, 2]}, path)
        assert path.read_text() == '{\n  "a": [\n    1,\n    2\n  ],\n  "b": 1.5\n}\n'

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_refuses_non_finite_values_before_opening(self, tmp_path, bad):
        path = tmp_path / "m.json"
        with pytest.raises(FloatingPointError, match="not writing .*m.json"):
            write_json({"metrics": {"ece": bad}}, path)
        assert not path.exists()
