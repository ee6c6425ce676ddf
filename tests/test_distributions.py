import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import trapezoid
from scipy.special import betaln, digamma

from evfuse.distributions import (
    NIGParams,
    StudentT,
    _gamma_ratio_arrays,
    nig_aleatoric,
    nig_epistemic,
    nig_to_student_t,
    student_t_logpdf,
    student_t_pdf,
    student_t_variance,
)
from conftest import random_nig_params
from quadrature_oracle import nig_marginal_pdf_quadrature

valid_nig = st.builds(
    NIGParams,
    gamma=st.floats(-5, 5),
    delta=st.floats(0.05, 10),
    alpha=st.floats(1.05, 10),
    beta=st.floats(0.05, 10),
)

# a coarse grid is plenty for unit tests; acceptance uses a finer one
FAST_NODES = 401


class TestValidation:
    def test_nig_rejects_bad_params(self):
        with pytest.raises(ValueError):
            NIGParams(0.0, 0.0, 2.0, 1.0)
        with pytest.raises(ValueError):
            NIGParams(0.0, 1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            NIGParams(0.0, 1.0, 2.0, 0.0)
        with pytest.raises(ValueError):
            NIGParams(math.inf, 1.0, 2.0, 1.0)

    def test_student_t_rejects_bad_params(self):
        with pytest.raises(ValueError):
            StudentT(0.0, 0.0, 4.0)
        with pytest.raises(ValueError):
            StudentT(0.0, 1.0, 2.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["u", "sigma", "v"])
    def test_student_t_rejects_non_finite(self, field, bad):
        kwargs = {"u": 0.0, "sigma": 1.0, "v": 4.0, field: bad}
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            StudentT(**kwargs)


class TestUncertainties:
    def test_aleatoric_anchors(self):
        assert nig_aleatoric(NIGParams(0, 1, 2, 1)) == 1.0
        assert nig_aleatoric(NIGParams(2, 2, 3, 6)) == 3.0

    def test_aleatoric_vanishes_for_large_alpha(self):
        vals = [nig_aleatoric(NIGParams(0, 1, a, 1)) for a in (10, 100, 1000)]
        assert vals == sorted(vals, reverse=True)
        assert vals[-1] < 1e-2

    def test_epistemic_anchors(self):
        assert nig_epistemic(NIGParams(2, 2, 3, 6)) == 1.5
        assert nig_epistemic(NIGParams(0, 1, 2, 1)) == 1.0

    def test_epistemic_vanishes_for_large_delta(self):
        assert nig_epistemic(NIGParams(0, 1e9, 2, 1)) < 1e-8

    @given(valid_nig)
    def test_epistemic_is_aleatoric_over_delta(self, p):
        # identical up to association of the two divisions
        assert nig_epistemic(p) == pytest.approx(
            nig_aleatoric(p) / p.delta, rel=4e-16
        )


class TestConversion:
    def test_anchor_unit_scale(self):
        stt = nig_to_student_t(NIGParams(0, 1, 2, 1))
        assert (stt.u, stt.sigma, stt.v) == (0.0, 1.0, 4.0)

    def test_anchor_scaled(self):
        stt = nig_to_student_t(NIGParams(2, 2, 3, 6))
        assert (stt.u, stt.sigma, stt.v) == (2.0, 3.0, 6.0)

    def test_alpha_boundary(self):
        eps = 1e-6
        stt = nig_to_student_t(NIGParams(0, 1, 1 + eps, 1))
        assert stt.v == pytest.approx(2 + 2 * eps)

    @given(valid_nig)
    def test_moment_identity(self, p):
        # variance of the converted distribution is exactly AL + EP
        var = student_t_variance(nig_to_student_t(p))
        assert var == pytest.approx(
            nig_aleatoric(p) + nig_epistemic(p), rel=1e-12
        )


class TestDensity:
    def test_pdf_anchor_v4(self):
        assert student_t_pdf(StudentT(0, 1, 4), 0.0) == pytest.approx(
            0.375, abs=1e-15
        )

    def test_pdf_anchor_v6(self):
        assert student_t_pdf(StudentT(0, 1, 6), 0.0) == pytest.approx(
            15.0 / (16.0 * math.sqrt(6.0)), rel=1e-14
        )

    def test_pdf_integrates_to_one(self):
        stt = StudentT(0, 1, 4)
        ys = np.linspace(-50, 50, 200001)
        vals = np.array([student_t_pdf(stt, y) for y in ys])
        total = trapezoid(vals, ys)  # np.trapezoid needs numpy >= 2.0
        assert total == pytest.approx(1.0, abs=1e-4)

    def test_logpdf_anchor(self):
        assert student_t_logpdf(StudentT(0, 1, 4), 0.0) == pytest.approx(
            math.log(0.375), rel=1e-14
        )

    def test_logpdf_matches_pdf(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            stt = StudentT(rng.uniform(-3, 3), rng.uniform(0.1, 5), rng.uniform(2.1, 20))
            y = rng.uniform(-10, 10)
            assert math.exp(student_t_logpdf(stt, y)) == pytest.approx(
                student_t_pdf(stt, y), rel=1e-12
            )

    def test_far_tail_no_overflow(self):
        val = student_t_logpdf(StudentT(0, 1, 4), 1e6)
        assert math.isfinite(val) and val < -60

    def test_pdf_peaks_at_location_and_decays(self):
        stt = StudentT(1.5, 0.7, 5)
        offsets = [0.0, 0.5, 1.0, 2.0, 5.0]
        vals = [student_t_pdf(stt, 1.5 + d) for d in offsets]
        assert vals == sorted(vals, reverse=True)
        for d in offsets[1:]:
            assert student_t_pdf(stt, 1.5 - d) == pytest.approx(
                student_t_pdf(stt, 1.5 + d), rel=1e-12
            )


class TestVariance:
    def test_anchors(self):
        assert student_t_variance(StudentT(0, 1, 4)) == 2.0
        assert student_t_variance(StudentT(0, 0.875, 4)) == 1.75

    def test_gaussian_limit(self):
        assert student_t_variance(StudentT(0, 1.3, 1e9)) == pytest.approx(
            1.3, rel=1e-8
        )

    @given(valid_nig)
    def test_variance_exceeds_scale(self, p):
        stt = nig_to_student_t(p)
        assert student_t_variance(stt) > stt.sigma


class TestGammaRatio:
    def test_matches_scipy_from_the_training_floor(self):
        # h = v / 2 = alpha > 1 in training; 1 + 1e-4 is the head's floor.  The
        # ln-ratio oracle is ln B(h, 1/2) - ln G(1/2): a difference of two scipy
        # gammalns is itself off by 1.8e-13 near h = 92
        h = np.concatenate([[1.0, 1.0 + 1e-4], np.linspace(1.0, 100.0, 9901)])
        lg, dg = _gamma_ratio_arrays(h)
        np.testing.assert_allclose(lg, betaln(h, 0.5) - 0.5 * math.log(math.pi), rtol=0, atol=1e-13)
        np.testing.assert_allclose(dg, digamma(h) - digamma(h + 0.5), rtol=0, atol=1e-13)

    def test_matches_the_asymptotic_series_at_large_h(self):
        # the series' next terms are below 1e-14 of the value from h = 1e4 on;
        # no intermediate may overflow up to 5e299
        h = np.geomspace(1e4, 5e299, 2001)
        x = 1.0 / h
        lg, dg = _gamma_ratio_arrays(h)
        np.testing.assert_allclose(lg, -(0.5 * np.log(h) - x / 8 + x**3 / 192), rtol=1e-14, atol=0)
        np.testing.assert_allclose(dg, -(x / 2 + x**2 / 8 - x**4 / 64), rtol=1e-14, atol=0)

    def test_values_do_not_depend_on_the_shape(self):
        h = np.geomspace(1.0, 1e12, 24)
        lg, dg = _gamma_ratio_arrays(h.reshape(2, 3, 4))
        assert lg.shape == dg.shape == (2, 3, 4)
        alone = np.array([_gamma_ratio_arrays(x) for x in h])
        assert np.array_equal(lg.ravel(), alone[:, 0]) and np.array_equal(dg.ravel(), alone[:, 1])


class TestQuadratureOracle:
    def test_anchor_unit(self):
        p = NIGParams(0, 1, 2, 1)
        (val,) = nig_marginal_pdf_quadrature(p, 0.0, FAST_NODES)
        assert val == pytest.approx(0.375, abs=1e-5)

    def test_anchor_scaled(self):
        p = NIGParams(2, 2, 3, 6)
        expected = student_t_pdf(nig_to_student_t(p), 3.0)
        (val,) = nig_marginal_pdf_quadrature(p, 3.0, FAST_NODES)
        assert val == pytest.approx(expected, abs=1e-5)

    def test_symmetry_in_y_minus_gamma(self):
        p = NIGParams(1.0, 0.8, 2.5, 1.2)
        for c in (0.5, 1.7, 4.0):
            (lhs,) = nig_marginal_pdf_quadrature(p, 1.0 + c, FAST_NODES)
            (rhs,) = nig_marginal_pdf_quadrature(p, 1.0 - c, FAST_NODES)
            assert lhs == pytest.approx(rhs, abs=1e-8)

    def test_matches_closed_form_at_random_points(self):
        rng = np.random.default_rng(11)
        for row in random_nig_params(rng, 5):
            p = NIGParams(*row)
            stt = nig_to_student_t(p)
            width = 5.0 * math.sqrt(nig_aleatoric(p))
            ys = p.gamma + rng.uniform(-width, width, 4)
            quad = nig_marginal_pdf_quadrature(p, ys, FAST_NODES)
            closed = np.array([student_t_pdf(stt, y) for y in ys])
            np.testing.assert_allclose(quad, closed, atol=1e-5)

    def test_rejects_even_node_counts(self):
        with pytest.raises(ValueError, match="odd integer >= 3, got 400"):
            nig_marginal_pdf_quadrature(NIGParams(0, 1, 2, 1), 0.0, 400)
