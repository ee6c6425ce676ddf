import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from evfuse.distributions import StudentT, student_t_variance
from evfuse.fusion import (
    FuseTrace,
    fuse_classwise,
    fuse_many,
    fuse_pair,
    fuse_stack,
    fuse_stack_backward,
    fused_prediction,
)

valid_st = st.builds(
    StudentT,
    u=st.floats(-10, 10),
    sigma=st.floats(0.05, 10),
    v=st.floats(2.05, 50),
)


class TestFusePair:
    def test_hand_anchor(self):
        f = fuse_pair(StudentT(0, 1, 4), StudentT(1, 2, 6))
        assert (f.st.u, f.st.sigma, f.st.v) == (0.0, 1.25, 4.0)
        assert f.source_index == 0

    def test_argument_order_invariance(self):
        a, b = StudentT(0, 1, 4), StudentT(1, 2, 6)
        f1, f2 = fuse_pair(a, b), fuse_pair(b, a)
        assert f1.st == f2.st

    def test_equal_v_tie_prefers_smaller_scale(self):
        a, b = StudentT(0, 1, 4), StudentT(1, 1, 4)
        f = fuse_pair(a, b)
        # scales also tie, so the first argument wins
        assert f.st == StudentT(0, 1, 4) and f.source_index == 0
        g = fuse_pair(StudentT(0, 2, 4), StudentT(1, 1, 4))
        assert g.st.u == 1.0 and g.source_index == 1

    @given(valid_st, valid_st)
    def test_v_is_min_and_source_consistent(self, a, b):
        f = fuse_pair(a, b)
        assert f.st.v == min(a.v, b.v)
        assert (a, b)[f.source_index].v == f.st.v

    @given(valid_st, valid_st)
    def test_order_invariance_property(self, a, b):
        if a.v == b.v:
            return
        assert fuse_pair(a, b).st == fuse_pair(b, a).st

    def test_equal_v_scale_symmetry(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            v = rng.uniform(2.1, 30)
            s1, s2 = rng.uniform(0.1, 5, 2)
            f12 = fuse_pair(StudentT(0, s1, v), StudentT(0, s2, v))
            f21 = fuse_pair(StudentT(0, s2, v), StudentT(0, s1, v))
            assert f12.st.sigma == pytest.approx(f21.st.sigma, rel=1e-14)
            # with v1 = v2 the correction coefficient is 1
            assert f12.st.sigma == pytest.approx(0.5 * (s1 + s2), rel=1e-14)

    def test_identical_inputs_fixed_point(self):
        a = StudentT(0.3, 1.7, 5.0)
        assert fuse_pair(a, a).st == a

    def test_monotone_in_each_scale(self):
        a = StudentT(0, 1, 4)
        sig = [fuse_pair(a, StudentT(1, s, 6)).st.sigma for s in (0.5, 1, 2, 4)]
        assert sig == sorted(sig)

    def test_fused_variance_is_mean_of_input_variances(self):
        # algebraic consequence of the tail-corrected scale average
        rng = np.random.default_rng(1)
        for _ in range(200):
            a = StudentT(rng.normal(), rng.uniform(0.1, 5), rng.uniform(2.1, 40))
            b = StudentT(rng.normal(), rng.uniform(0.1, 5), rng.uniform(2.1, 40))
            f = fuse_pair(a, b)
            lhs = student_t_variance(f.st)
            rhs = 0.5 * (student_t_variance(a) + student_t_variance(b))
            assert lhs == pytest.approx(rhs, rel=1e-12)


class TestFuseMany:
    def test_single_identity(self):
        a = StudentT(1, 2, 5)
        f = fuse_many([a])
        assert f.st == a and f.source_index == 0

    def test_pair_matches_fuse_pair(self):
        a, b = StudentT(0, 1, 4), StudentT(1, 2, 6)
        assert fuse_many([a, b]).st == fuse_pair(a, b).st

    def test_triple_hand_expansion(self):
        a = StudentT(0.0, 1.0, 4.0)
        b = StudentT(1.0, 2.0, 6.0)
        c = StudentT(2.0, 1.5, 8.0)
        step1 = fuse_pair(a, b)
        expected = fuse_pair(step1.st, c)
        got = fuse_many([a, b, c])
        assert got.st == expected.st
        assert got.st.v == 4.0 and got.source_index == 0
        # hand expansion of the two applications
        s1 = 0.5 * (1.0 + (6.0 * 2.0 / (4.0 * 4.0)) * 2.0)
        s2 = 0.5 * (s1 + (8.0 * 2.0 / (4.0 * 6.0)) * 1.5)
        assert got.st.sigma == pytest.approx(s2, rel=1e-15)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            fuse_many([])

    def test_source_index_tracks_original_position(self):
        sts = [StudentT(0, 1, 8), StudentT(1, 1, 3), StudentT(2, 1, 5)]
        f = fuse_many(sts)
        assert f.source_index == 1 and f.st.u == 1.0


class TestFusedPrediction:
    def test_anchors(self):
        y, u = fused_prediction(fuse_pair(StudentT(0, 1, 4), StudentT(1, 2, 6)))
        assert (y, u) == (0.0, 2.5)
        f = fuse_many([StudentT(2, 3, 6)])
        assert fused_prediction(f) == (2.0, 4.5)

    @given(valid_st, valid_st)
    def test_uncertainty_exceeds_scale(self, a, b):
        f = fuse_pair(a, b)
        _, u_hat = fused_prediction(f)
        assert u_hat > f.st.sigma


class TestFuseClasswise:
    def test_per_channel_rule(self):
        m1 = [StudentT(0, 1, 4), StudentT(1, 1, 4)]
        m2 = [StudentT(5, 1, 9), StudentT(6, 1, 9)]
        fused = fuse_classwise([m1, m2])
        assert [f.st.u for f in fused] == [0.0, 1.0]
        assert all(f.source_index == 0 for f in fused)

    def test_mixed_dofs_hand_table(self):
        m1 = [StudentT(0, 1, 4), StudentT(1, 2, 9), StudentT(2, 1, 5)]
        m2 = [StudentT(3, 2, 6), StudentT(4, 1, 3), StudentT(5, 2, 5)]
        fused = fuse_classwise([m1, m2])
        for k in range(3):
            assert fused[k].st == fuse_pair(m1[k], m2[k]).st
        assert [f.source_index for f in fused] == [0, 1, 0]

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            fuse_classwise([[StudentT(0, 1, 4)], []])


class TestFuseStack:
    def _random_stack(self, rng, m, shape):
        u = rng.normal(size=(m,) + shape)
        sigma = rng.uniform(0.1, 5, size=(m,) + shape)
        v = rng.uniform(2.1, 30, size=(m,) + shape)
        return u, sigma, v

    def test_matches_scalar_fold(self):
        rng = np.random.default_rng(7)
        u, sigma, v = self._random_stack(rng, 3, (4, 5))
        trace = fuse_stack(u, sigma, v)
        for i in range(4):
            for j in range(5):
                sts = [StudentT(u[m, i, j], sigma[m, i, j], v[m, i, j]) for m in range(3)]
                f = fuse_many(sts)
                assert trace.u[i, j] == pytest.approx(f.st.u)
                assert trace.sigma[i, j] == pytest.approx(f.st.sigma, rel=1e-13)
                assert trace.v[i, j] == pytest.approx(f.st.v)
                assert trace.source[i, j] == f.source_index

    def test_backward_matches_finite_differences(self):
        rng = np.random.default_rng(13)
        u, sigma, v = self._random_stack(rng, 3, (6,))
        trace = fuse_stack(u, sigma, v)
        w_u = rng.normal(size=trace.u.shape)
        w_s = rng.normal(size=trace.u.shape)
        w_v = rng.normal(size=trace.u.shape)

        def scalar_out(uu, ss, vv):
            t = fuse_stack(uu, ss, vv)
            return float((w_u * t.u + w_s * t.sigma + w_v * t.v).sum())

        gu, gs, gv = fuse_stack_backward(trace, w_u, w_s, w_v)
        h = 1e-6
        for arr, grad in ((u, gu), (sigma, gs), (v, gv)):
            for idx in [(0, 2), (1, 4), (2, 0)]:
                bump = np.zeros_like(arr)
                bump[idx] = h
                plus = scalar_out(
                    u + (bump if arr is u else 0),
                    sigma + (bump if arr is sigma else 0),
                    v + (bump if arr is v else 0),
                )
                minus = scalar_out(
                    u - (bump if arr is u else 0),
                    sigma - (bump if arr is sigma else 0),
                    v - (bump if arr is v else 0),
                )
                fd = (plus - minus) / (2 * h)
                assert grad[idx] == pytest.approx(fd, rel=1e-5, abs=1e-7)
