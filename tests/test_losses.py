import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from evfuse.distributions import NIGParams, StudentT, nig_to_student_t, st_nll_arrays
from evfuse.fusion import fuse_many
from evfuse.losses import (
    argmax_last_axis,
    cross_entropy_arrays,
    nig_nll,
    reduce_last_axis,
    softmax,
    st_nll_and_grads_arrays,
    student_t_nll,
    total_loss_and_grads_arrays,
)
from conftest import random_nig_params
from quadrature_oracle import nig_nll_closed_form

valid_nig = st.builds(
    NIGParams,
    gamma=st.floats(-5, 5),
    delta=st.floats(0.05, 10),
    alpha=st.floats(1.05, 10),
    beta=st.floats(0.05, 10),
)


class TestNigNll:
    def test_exact_anchor(self):
        assert nig_nll(NIGParams(0, 1, 2, 1), 0.0) == pytest.approx(
            math.log(8.0 / 3.0), abs=1e-12
        )

    @given(valid_nig, st.floats(-10, 10))
    def test_matches_negative_logpdf(self, p, y):
        # nig_nll takes the t of the NIG -> t map; the oracle is the NIG form of -log pdf
        lhs = nig_nll(p, y)
        rhs = nig_nll_closed_form(p.gamma, p.delta, p.alpha, p.beta, y)
        assert lhs == pytest.approx(rhs, abs=1e-10)

    def test_increasing_in_residual(self):
        p = NIGParams(1.0, 0.7, 2.2, 1.3)
        vals = [nig_nll(p, 1.0 + d) for d in (0.0, 0.5, 1.0, 3.0)]
        assert vals == sorted(vals)


class TestStudentTNll:
    def test_anchor_matches_nig(self):
        assert student_t_nll(StudentT(0, 1, 4), 0.0) == pytest.approx(
            0.980829, abs=1e-6
        )

    @given(valid_nig, st.floats(-10, 10))
    def test_consistency_with_nig_nll(self, p, y):
        stt = nig_to_student_t(p)
        expected = nig_nll_closed_form(p.gamma, p.delta, p.alpha, p.beta, y)
        assert student_t_nll(stt, y) == pytest.approx(expected, abs=1e-10)

    def test_logarithmic_tail_growth(self):
        stt = StudentT(0, 1, 4)
        # heavy tail: far out, the NLL grows like (v+1) * log|y|
        slope = student_t_nll(stt, 1e8) - student_t_nll(stt, 1e6)
        assert slope == pytest.approx(5.0 * math.log(100.0), rel=1e-6)

    @pytest.mark.parametrize("v", [2e9, 2e12, 1e300])
    def test_gaussian_limit_at_large_v(self, v):
        # the t tends to N(u, sigma) as v grows; at these v the Gaussian NLL is
        # exact to better than 1e-9
        sigma, z = 1.0, 0.5
        gaussian = 0.5 * math.log(2.0 * math.pi * sigma) + z**2 / (2.0 * sigma)
        assert student_t_nll(StudentT(0, sigma, v), z) == pytest.approx(gaussian, abs=1e-9)


def _ce(logits, label):
    """Reference cross-entropy of one logit vector, in plain floats."""
    return math.log(sum(math.exp(l) for l in logits)) - logits[label]


def _ce_arrays(logits, label):
    return cross_entropy_arrays(np.array(logits, dtype=float), np.eye(len(logits))[label])


class TestCrossEntropy:
    def test_uniform_logits(self):
        assert _ce_arrays([3.0, 3.0, 3.0], 1)[0] == pytest.approx(math.log(3.0))

    def test_saturated_logits(self):
        assert _ce_arrays([1e6, 0.0], 0)[0] == pytest.approx(0.0, abs=1e-12)

    def test_hand_value(self):
        logits = [1.0, 2.0, 3.0]
        ce, grad = _ce_arrays(logits, 2)
        assert ce == pytest.approx(_ce(logits, 2), rel=1e-12)
        # d CE / d logits = softmax - one-hot
        e = np.exp(logits)
        np.testing.assert_allclose(grad, e / e.sum() - [0.0, 0.0, 1.0], rtol=1e-12)


class TestReduceLastAxis:
    """The column-op reduction is numpy's own reduction, bit for bit."""

    @pytest.mark.parametrize("k", [2, 3, 4, 5, 6, 7, 8, 10])
    @pytest.mark.parametrize("lead", [(), (9,), (2, 3, 5)], ids=["1d", "2d", "4d"])
    def test_equals_numpy_reduce(self, k, lead):
        rng = np.random.default_rng(k)
        # mixed magnitudes, so a different summation order would show in the last bits
        x = rng.standard_normal(lead + (k,)) * 10.0 ** rng.integers(-8, 9, lead + (k,))
        for ufunc, ref in ((np.maximum, x.max(axis=-1, keepdims=True)),
                           (np.add, x.sum(axis=-1, keepdims=True))):
            got = reduce_last_axis(ufunc, x)
            assert got.shape == ref.shape and np.array_equal(got, ref)

    @given(hnp.array_shapes(min_dims=0, max_dims=3, min_side=1, max_side=12), st.integers(1, 12), st.data())
    def test_equals_numpy_reduce_on_any_axis(self, lead, k, data):
        x = data.draw(hnp.arrays(float, lead + (k,), elements=st.floats(-1e300, 1e300)))
        assert np.array_equal(reduce_last_axis(np.maximum, x), x.max(axis=-1, keepdims=True))
        assert np.array_equal(reduce_last_axis(np.add, x), x.sum(axis=-1, keepdims=True))

    def test_leaves_the_input_alone(self):
        x = np.arange(300.0).reshape(100, 3)
        reduce_last_axis(np.add, x)
        assert np.array_equal(x, np.arange(300.0).reshape(100, 3))

    def test_softmax_equals_the_axis_reduction_form(self):
        x = np.random.default_rng(0).standard_normal((500, 3)) * 30.0
        e = np.exp(x - x.max(axis=-1, keepdims=True))
        assert np.array_equal(softmax(x), e / e.sum(axis=-1, keepdims=True))


class TestArgmaxLastAxis:
    """The column-op argmax is numpy's argmax, index for index."""

    # a small pool makes ties, signed zeros and infinities common
    values = st.sampled_from([-np.inf, -1.0, -0.0, 0.0, 0.5, 1.0, np.inf]) | st.floats(allow_nan=False)

    @given(st.sampled_from([(7,), (2, 5)]), st.integers(1, 9), st.booleans(), st.data())
    def test_equals_numpy_argmax(self, lead, k, with_nan, data):
        x = data.draw(hnp.arrays(float, lead + (k,), elements=self.values))
        if with_nan:  # NaNs at drawn places, in any column
            x[data.draw(hnp.arrays(bool, x.shape))] = np.nan
        got = argmax_last_axis(x)
        assert got.dtype == np.intp and np.array_equal(got, np.argmax(x, axis=-1))

    def test_strided_view(self):
        raw = np.random.default_rng(2).integers(-2, 3, (500, 3, 4)).astype(float)
        raw[::7, 1, 0] = np.nan
        assert np.array_equal(argmax_last_axis(raw[..., 0]), np.argmax(raw[..., 0], axis=-1))


def _parts(per_modality, y, lam):
    """Loss parts of NIG parameter rows shaped (M, K, 4)."""
    arr = np.asarray(per_modality, dtype=float)
    return total_loss_and_grads_arrays(*(arr[..., i] for i in range(4)), np.asarray(y), lam)[0]


def _toy_modality():
    return [NIGParams(2.0, 0.5, 2.5, 1.0), NIGParams(-1.0, 1.5, 3.0, 2.0)]


def _rows(nigs):
    return [[p.gamma, p.delta, p.alpha, p.beta] for p in nigs]


class TestModalityAndFusedLoss:
    def test_lambda_zero_is_pure_nll(self):
        nigs = _toy_modality()
        got = _parts([_rows(nigs)], [1.0, 0.0], 0.0)["per_modality_nig"][0]
        expected = nig_nll(nigs[0], 1.0) + nig_nll(nigs[1], 0.0)
        assert got == pytest.approx(expected, rel=1e-14)

    def test_hand_sum_with_ce(self):
        nigs = _toy_modality()
        expected = (
            nig_nll(nigs[0], 1.0)
            + nig_nll(nigs[1], 0.0)
            + 0.5 * _ce([2.0, -1.0], 0)
        )
        got = _parts([_rows(nigs)], [1.0, 0.0], 0.5)["per_modality_nig"][0]
        assert got == pytest.approx(expected)

    def test_fused_matches_modality_under_conversion(self):
        # one modality: the fused t is its converted t, so the two terms agree
        parts = _parts([_rows(_toy_modality())], [0.0, 1.0], 0.5)
        assert parts["fused_st"] == pytest.approx(parts["per_modality_nig"][0], abs=1e-10)


def _toy_pair():
    m2 = [NIGParams(0.5, 1.0, 2.0, 0.7), NIGParams(1.5, 0.3, 4.0, 1.1)]
    return [_rows(_toy_modality()), _rows(m2)]


class TestTotalLoss:
    def test_additivity(self):
        parts = _parts(_toy_pair(), [1.0, 0.0], 0.5)
        assert parts["total"] == pytest.approx(
            parts["per_modality_nig"].sum() + parts["fused_st"], abs=1e-12
        )

    def test_lambda_linearity(self):
        l0, l5, l1 = (_parts(_toy_pair(), [1.0, 0.0], lam)["total"] for lam in (0.0, 0.5, 1.0))
        assert l5 == pytest.approx(0.5 * (l0 + l1), rel=1e-12)

    def test_class_permutation_invariance(self):
        base = _parts(_toy_pair(), [1.0, 0.0], 0.5)["total"]
        flipped = _parts([vec[::-1] for vec in _toy_pair()], [0.0, 1.0], 0.5)["total"]
        assert flipped == pytest.approx(base, rel=1e-12)


def _central_diff(f, x, h=1e-5):
    return (f(x + h) - f(x - h)) / (2.0 * h)


def _single_modality_grads(g, d, a, b, y):
    """NIG NLL gradients of one channel, read off the loss at lam = 0 with one modality.

    With one modality the fused t is the modality's own t, so the total is
    twice the NIG NLL summed over the channels.
    """
    params = np.array([[[g, d, a, b], [0.0, 1.0, 2.0, 1.0]]])  # second channel: target 0
    _, grads = total_loss_and_grads_arrays(*(params[..., i] for i in range(4)), np.array([y, 0.0]), 0.0)
    return grads[0, 0] / 2.0


class TestGradients:
    def test_nig_grads_match_finite_differences(self):
        rng = np.random.default_rng(5)
        for row in random_nig_params(rng, 50):
            g, d, a, b = row
            y = g + rng.uniform(-3, 3)
            grads = _single_modality_grads(g, d, a, b, y)
            args = [g, d, a, b]
            for i in range(4):
                def f(x, i=i):
                    vals = list(args)
                    vals[i] = x
                    return nig_nll_closed_form(*vals, y)
                fd = _central_diff(f, args[i])
                assert grads[i] == pytest.approx(fd, rel=1e-5, abs=1e-7)

    def test_st_grads_match_finite_differences(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            u, s, v = rng.normal(), rng.uniform(0.2, 5), rng.uniform(2.2, 30)
            y = u + rng.uniform(-3, 3)
            grads = st_nll_and_grads_arrays(u, s, v, y)[1:]
            args = [u, s, v]
            for i in range(3):
                def f(x, i=i):
                    vals = list(args)
                    vals[i] = x
                    return st_nll_arrays(*vals, y)
                fd = _central_diff(f, args[i])
                assert grads[i] == pytest.approx(fd, rel=1e-5, abs=1e-7)

    def test_gamma_gradient_zero_at_target(self):
        p = NIGParams(0.7, 1.0, 2.0, 1.0)
        g = _single_modality_grads(p.gamma, p.delta, p.alpha, p.beta, p.gamma)[0]
        assert g == pytest.approx(0.0, abs=1e-14)

    def test_per_modality_term_is_nig_nll_plus_ce(self):
        rng = np.random.default_rng(11)
        params = random_nig_params(rng, 3 * 8 * 4).reshape(3, 8, 4, 4)
        gamma, delta, alpha, beta = (params[..., i] for i in range(4))
        y = np.eye(4)[rng.integers(0, 4, 8)]
        parts, _ = total_loss_and_grads_arrays(gamma, delta, alpha, beta, y, 0.3)
        ce, _ = cross_entropy_arrays(gamma, y)
        expected = nig_nll_closed_form(gamma, delta, alpha, beta, y).sum(-1) + 0.3 * ce
        np.testing.assert_allclose(parts["per_modality_nig"], expected, rtol=1e-12, atol=0)

    def test_lambda_zero_drops_ce_gradients(self):
        rng = np.random.default_rng(8)
        params = random_nig_params(rng, 4).reshape(2, 2, 4)
        gamma, delta, alpha, beta = (params[..., i] for i in range(4))
        y = np.array([1.0, 0.0])
        _, g0 = total_loss_and_grads_arrays(gamma, delta, alpha, beta, y, 0.0)
        _, g5 = total_loss_and_grads_arrays(gamma, delta, alpha, beta, y, 0.5)
        # the two differ only through CE terms, which act on locations
        np.testing.assert_allclose(g0[..., 1:], g5[..., 1:], rtol=1e-12)
        assert np.any(np.abs(g0[..., 0] - g5[..., 0]) > 1e-6)

    def test_loss_gradients_match_finite_differences(self):
        rng = np.random.default_rng(9)
        per_modality = [
            [NIGParams(*row) for row in random_nig_params(rng, 3)] for _ in range(2)
        ]
        y = [0.0, 1.0, 0.0]
        arr = np.array([_rows(vec) for vec in per_modality])
        parts, grads = total_loss_and_grads_arrays(
            *(arr[..., i] for i in range(4)), np.array(y), 0.5
        )
        assert parts["total"] == pytest.approx(_reference_total(per_modality, y, 0.5), rel=1e-12)

        h = 1e-6
        names = ["gamma", "delta", "alpha", "beta"]
        for m in range(2):
            for k in range(3):
                for j, name in enumerate(names):
                    def bumped(eps):
                        pm = [list(vec) for vec in per_modality]
                        p = pm[m][k]
                        kw = {n: getattr(p, n) for n in names}
                        kw[name] += eps
                        pm[m][k] = NIGParams(**kw)
                        return _reference_total(pm, y, 0.5)
                    fd = (bumped(h) - bumped(-h)) / (2 * h)
                    assert grads[m, k, j] == pytest.approx(fd, rel=1e-4, abs=1e-6)


def _reference_total(per_modality, y, lam):
    """The total objective from the scalar API, one class channel at a time."""
    label = y.index(1.0)
    total = 0.0
    for vec in per_modality:
        total += sum(nig_nll(p, yk) for p, yk in zip(vec, y))
        total += lam * _ce([p.gamma for p in vec], label)
    fused = [fuse_many([nig_to_student_t(vec[k]) for vec in per_modality]).st for k in range(len(y))]
    total += sum(student_t_nll(f, yk) for f, yk in zip(fused, y))
    return total + lam * _ce([f.u for f in fused], label)
