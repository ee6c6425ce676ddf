"""End-to-end acceptance gate.

One test per acceptance criterion, in order.  Each test name states what it
checks; tolerances and runtime budgets are asserted inside.
"""

import math
import time

import numpy as np
import pytest

from evfuse.data import Dataset
from evfuse.distributions import (
    NIGParams,
    StudentT,
    nig_aleatoric,
    nig_epistemic,
    nig_to_student_t,
    student_t_pdf,
    student_t_variance,
)
from evfuse.evaluation import cohen_kappa, ece, evaluate_model, noise_sweep, write_json
from evfuse.fusion import fuse_pair, fused_prediction
from evfuse.losses import nig_nll, total_loss_and_grads_arrays
from evfuse.model import EncoderSpec, MultimodalClassifier, _batch_loss_and_param_grads
from conftest import random_nig_params
from quadrature_oracle import nig_marginal_pdf_quadrature, nig_nll_closed_form

SIGMAS = (0.0, 0.3, 1.0)
NOISE_SEEDS = (1, 2, 3)


def test_criterion_01_quadrature_matches_closed_form_density():
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    nodes = 601  # grids sized so the whole sweep stays inside the budget
    worst = 0.0
    for row in random_nig_params(rng, 50):
        p = NIGParams(*row)
        stt = nig_to_student_t(p)
        width = 5.0 * math.sqrt(nig_aleatoric(p))
        ys = p.gamma + rng.uniform(-width, width, 20)
        quad = nig_marginal_pdf_quadrature(p, ys, nodes)
        closed = np.array([student_t_pdf(stt, y) for y in ys])
        worst = max(worst, float(np.max(np.abs(quad - closed))))
    elapsed = time.perf_counter() - start
    assert worst <= 1e-5, f"max |quadrature - closed form| = {worst:.2e}"
    assert elapsed <= 60.0, f"took {elapsed:.1f}s"


def test_criterion_02_nig_and_student_t_nll_agree():
    start = time.perf_counter()
    anchor = nig_nll(NIGParams(0, 1, 2, 1), 0.0)
    assert anchor == pytest.approx(math.log(8.0 / 3.0), abs=1e-12)
    rng = np.random.default_rng(102)
    worst = 0.0
    for row in random_nig_params(rng, 1000):
        p = NIGParams(*row)
        y = p.gamma + rng.uniform(-5, 5)
        # nig_nll takes the t NLL of the converted parameters; the oracle is the NIG form
        diff = abs(nig_nll(p, y) - nig_nll_closed_form(*row, y))
        worst = max(worst, diff)
    elapsed = time.perf_counter() - start
    assert worst <= 1e-10, f"max NLL disagreement = {worst:.2e}"
    assert elapsed <= 5.0, f"took {elapsed:.1f}s"


def test_criterion_03_uncertainty_sum_equals_predictive_variance():
    rng = np.random.default_rng(103)
    for row in random_nig_params(rng, 1000):
        p = NIGParams(*row)
        var = student_t_variance(nig_to_student_t(p))
        total = nig_aleatoric(p) + nig_epistemic(p)
        assert var == pytest.approx(total, rel=1e-12)


def test_criterion_04_fusion_rule_anchor_and_properties():
    start = time.perf_counter()
    f = fuse_pair(StudentT(0, 1, 4), StudentT(1, 2, 6))
    assert (f.st.u, f.st.sigma, f.st.v) == (0.0, 1.25, 4.0)
    assert fused_prediction(f) == (0.0, 2.5)

    rng = np.random.default_rng(104)
    for _ in range(10_000):
        a = StudentT(rng.normal(), rng.uniform(0.05, 10), rng.uniform(2.05, 40))
        b = StudentT(rng.normal(), rng.uniform(0.05, 10), rng.uniform(2.05, 40))
        fab = fuse_pair(a, b)
        assert fab.st.v == min(a.v, b.v)
        if a.v != b.v:
            assert fuse_pair(b, a).st == fab.st
        else:
            # equal degrees of freedom: the scale average is symmetric
            fba = fuse_pair(b, a)
            assert fba.st.sigma == pytest.approx(fab.st.sigma, rel=1e-14)
    elapsed = time.perf_counter() - start
    assert elapsed <= 5.0, f"took {elapsed:.1f}s"


def _rel_err(analytic, fd):
    scale = max(abs(analytic), abs(fd), 1e-6)
    return abs(analytic - fd) / scale


def test_criterion_05_analytic_gradients_match_finite_differences():
    start = time.perf_counter()
    rng = np.random.default_rng(105)
    h = 1e-5

    # loss layer: 200 random two-modality, two-class instances
    worst = 0.0
    for _ in range(200):
        params = random_nig_params(rng, 4).reshape(2, 2, 4)
        y = np.array([1.0, 0.0]) if rng.random() < 0.5 else np.array([0.0, 1.0])

        def loss(arr):
            parts, _ = total_loss_and_grads_arrays(
                arr[..., 0], arr[..., 1], arr[..., 2], arr[..., 3], y, 0.5
            )
            return float(parts["total"])

        _, grads = total_loss_and_grads_arrays(
            params[..., 0], params[..., 1], params[..., 2], params[..., 3], y, 0.5
        )
        flat = params.reshape(-1)
        gflat = grads.reshape(-1)
        for i in range(flat.size):
            bumped = flat.copy()
            bumped[i] += h
            plus = loss(bumped.reshape(2, 2, 4))
            bumped[i] -= 2 * h
            minus = loss(bumped.reshape(2, 2, 4))
            fd = (plus - minus) / (2 * h)
            worst = max(worst, _rel_err(gflat[i], fd))
    assert worst <= 1e-4, f"loss-layer max rel err = {worst:.2e}"

    # end-to-end micro-model: smallest two-modality, two-class network
    specs = [EncoderSpec(1, (1,), "tanh"), EncoderSpec(1, (1,), "tanh")]
    model = MultimodalClassifier(specs, n_classes=2, seed=0)
    feats = [np.array([[0.7]]), np.array([[-0.4]])]
    y = np.array([[1.0, 0.0]])

    def model_loss():
        out = model.forward_batch(feats)
        parts, _ = total_loss_and_grads_arrays(
            out["gamma"], out["delta"], out["alpha"], out["beta"], y, 0.5
        )
        return float(parts["total"].mean())

    _, grad = _batch_loss_and_param_grads(model, feats, y, 0.5)
    worst_e2e = 0.0
    # every scalar weight, through its view in the flat parameter vector
    params = model.params
    for i in range(params.size):
        orig = params[i]
        params[i] = orig + h
        plus = model_loss()
        params[i] = orig - h
        minus = model_loss()
        params[i] = orig
        fd = (plus - minus) / (2 * h)
        worst_e2e = max(worst_e2e, _rel_err(grad[i], fd))
    assert worst_e2e <= 1e-4, f"end-to-end max rel err = {worst_e2e:.2e}"

    elapsed = time.perf_counter() - start
    assert elapsed <= 60.0, f"took {elapsed:.1f}s"


def test_criterion_06_training_reaches_accuracy_and_calibration(reference_run):
    model, record, _, _, test_ds, elapsed = reference_run
    res = evaluate_model(model, test_ds)
    assert record.epoch_losses[-1] <= record.epoch_losses[0]
    assert res.report.acc >= 0.90, f"test accuracy {res.report.acc:.3f}"
    assert res.report.ece <= 0.15, f"test ECE {res.report.ece:.3f}"
    assert elapsed <= 300.0, f"training took {elapsed:.0f}s"


@pytest.fixture(scope="module")
def reference_sweep(reference_run):
    model, _, _, _, test_ds, _ = reference_run
    return noise_sweep(model, test_ds, SIGMAS, 0, NOISE_SEEDS)


def _agg(sweep, sigma):
    return next(a for a in sweep["aggregates"] if a["sigma"] == sigma)


def test_criterion_07_fusion_shields_accuracy_from_single_modality_noise(
    reference_sweep,
):
    clean, noisy = _agg(reference_sweep, 0.0), _agg(reference_sweep, 1.0)
    fused_drop = clean["acc_mean"] - noisy["acc_mean"]
    unimodal_drop = clean["acc_m1_mean"] - noisy["acc_m1_mean"]
    assert fused_drop < 0.5 * unimodal_drop, (
        f"fused dropped {fused_drop:.3f}, corrupted-modality readout "
        f"dropped {unimodal_drop:.3f}"
    )
    floor = clean["acc_m2_mean"] - 0.05
    assert noisy["acc_mean"] >= floor, (
        f"fused accuracy {noisy['acc_mean']:.3f} under floor {floor:.3f}"
    )


def test_criterion_08_corrupted_modality_epistemic_uncertainty_increases(
    reference_sweep,
):
    eps = [_agg(reference_sweep, s)["mean_ep_m1_mean"] for s in SIGMAS]
    assert eps[0] < eps[1] < eps[2], f"epistemic means not increasing: {eps}"


def test_criterion_09_fused_uncertainty_tracks_clean_modality(reference_sweep):
    noisy = _agg(reference_sweep, 1.0)
    fused = noisy["mean_unc_fused_mean"]
    corrupted = noisy["mean_unc_m1_mean"]
    clean = noisy["mean_unc_m2_mean"]
    assert abs(fused - clean) < abs(fused - corrupted), (
        f"fused {fused:.3f}, clean modality {clean:.3f}, "
        f"corrupted modality {corrupted:.3f}"
    )


def test_criterion_10_metric_examples_and_byte_identical_outputs(
    reference_run, tmp_path
):
    # exact example tables
    assert cohen_kappa([0, 1, 2, 1], [0, 1, 2, 1], 3) == 1.0
    assert cohen_kappa([0] * 10, [0, 1] * 5, 2) == 0.0
    labels = [0, 0, 1, 1, 2, 2]
    preds = [0, 1, 1, 1, 2, 0]
    p_o, p_e = 4 / 6, (4 + 6 + 2) / 36
    assert cohen_kappa(preds, labels, 3) == pytest.approx(
        (p_o - p_e) / (1 - p_e), abs=1e-15
    )
    assert ece([1.0] * 4, [True] * 4)[0] == 0.0
    assert ece([1.0] * 4, [False] * 4)[0] == 1.0
    val, _ = ece([0.4, 0.3, 0.9, 0.8], [True, False, True, False], n_bins=2)
    assert val == pytest.approx(0.5 * 0.15 + 0.5 * 0.35, abs=1e-15)

    # two identical evaluation runs serialize to byte-identical JSON
    model, _, _, _, test_ds, _ = reference_run
    paths = []
    for name in ("a.json", "b.json"):
        ds = Dataset([x.copy() for x in test_ds.features], test_ds.labels.copy())
        res = evaluate_model(model, ds)
        path = tmp_path / name
        write_json({"metrics": res.report.to_dict()}, path)
        paths.append(path)
    assert paths[0].read_bytes() == paths[1].read_bytes()
