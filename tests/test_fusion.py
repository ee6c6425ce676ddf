import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evfuse.distributions import StudentT, student_t_variance
from evfuse.fusion import (
    fuse_many,
    fuse_pair,
    fuse_stack,
    fuse_stack_backward,
    fused_prediction,
)
from evfuse.model import _fused_readout, _Scores
from fusion_oracle import fuse_stack_select

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
        got = fuse_many([a, b, c])
        assert got.st.u == 0.0 and got.st.v == 4.0 and got.source_index == 0
        # mean of c_m * sigma_m with c_m = v_m (v_F - 2) / (v_F (v_m - 2))
        expected = (1.0 + (6.0 * 2.0 / (4.0 * 4.0)) * 2.0 + (8.0 * 2.0 / (4.0 * 6.0)) * 1.5) / 3
        assert got.st.sigma == pytest.approx(expected, rel=1e-15)
        # fused variance 7/6 * 4/2 = mean of the input variances 2, 3 and 2
        assert student_t_variance(got.st) == pytest.approx(7 / 3, rel=1e-15)
        for order in ([c, b, a], [b, c, a], [c, a, b]):
            assert fuse_many(order).st == got.st

    def test_tie_break_compares_input_scales(self):
        # a left fold would compare c's scale 1.5 with the folded scale 1.32
        a, b, c = StudentT(0, 2, 4), StudentT(1, 1, 9), StudentT(2, 1.5, 4)
        f = fuse_many([a, b, c])
        assert f.source_index == 2 and f.st.u == 2.0 and f.st.v == 4.0
        # full ties go to the lower index
        g = fuse_many([StudentT(0, 1, 5), StudentT(1, 1, 4), StudentT(2, 1, 4)])
        assert g.source_index == 1 and g.st.u == 1.0

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


def _stack(per_modality):
    """(u, sigma, v) arrays shaped (M, K) from per-modality lists of StudentT."""
    return tuple(
        np.array([[getattr(st, f) for st in vec] for vec in per_modality], dtype=float)
        for f in ("u", "sigma", "v")
    )


class TestFuseClasswise:
    def test_per_channel_rule(self):
        m1 = [StudentT(0, 1, 4), StudentT(1, 1, 4)]
        m2 = [StudentT(5, 1, 9), StudentT(6, 1, 9)]
        trace = fuse_stack(*_stack([m1, m2]))
        assert trace.u.tolist() == [0.0, 1.0]
        assert trace.source.tolist() == [0, 0]

    def test_mixed_dofs_hand_table(self):
        m1 = [StudentT(0, 1, 4), StudentT(1, 2, 9), StudentT(2, 1, 5)]
        m2 = [StudentT(3, 2, 6), StudentT(4, 1, 3), StudentT(5, 2, 5)]
        trace = fuse_stack(*_stack([m1, m2]))
        for k in range(3):
            f = fuse_pair(m1[k], m2[k]).st
            assert (trace.u[k], trace.sigma[k], trace.v[k]) == (f.u, f.sigma, f.v)
        assert trace.source.tolist() == [0, 1, 0]


def _float_fold(sts):
    """Reference left fold of the pairwise rule over (u, sigma, v) float triples."""
    (u, s, v), src = sts[0], 0
    for i, (u2, s2, v2) in enumerate(sts[1:], start=1):
        new_wins = v2 < v or (v2 == v and s2 < s)
        sel, oth = ((u2, s2, v2), (u, s, v)) if new_wins else ((u, s, v), (u2, s2, v2))
        c = oth[2] * (sel[2] - 2.0) / (sel[2] * (oth[2] - 2.0))
        u, s, v = sel[0], 0.5 * (sel[1] + c * oth[1]), sel[2]
        src = i if new_wins else src
    return u, s, v, src


def _float_closed_form(sts):
    """Reference closed form over (u, sigma, v) float triples: the min-v winner
    (then the smaller input scale, then the lower index) and the mean of the
    tail-corrected scales."""
    src = 0
    for i, (_, s, v) in enumerate(sts):
        if v < sts[src][2] or (v == sts[src][2] and s < sts[src][1]):
            src = i
    u_f, _, v_f = sts[src]
    terms = [v * (v_f - 2.0) / (v_f * (v - 2.0)) * s for _, s, v in sts]
    return u_f, sum(terms) / len(sts), v_f, src


class TestFuseStack:
    def _random_stack(self, rng, m, shape):
        u = rng.normal(size=(m,) + shape)
        sigma = rng.uniform(0.1, 5, size=(m,) + shape)
        v = rng.uniform(2.1, 30, size=(m,) + shape)
        return u, sigma, v

    def _check_against(self, reference, m, seed):
        rng = np.random.default_rng(seed)
        u, sigma, v = self._random_stack(rng, m, (4, 50))
        # ties on v in half of the channels, and on the scale too in a quarter
        v[:, :, :25] = rng.choice([3.0, 4.0], size=(m, 4, 25))
        sigma[:, 2:, :25] = rng.choice([1.0, 2.0], size=(m, 2, 25))
        trace = fuse_stack(u, sigma, v)
        for i in range(4):
            for j in range(50):
                ref = reference([(float(u[k, i, j]), float(sigma[k, i, j]), float(v[k, i, j]))
                                 for k in range(m)])
                got = (trace.u[i, j], trace.sigma[i, j], trace.v[i, j], trace.source[i, j])
                assert got == ref

    def test_matches_scalar_fold(self):
        # for one and two inputs the closed form is the pairwise rule, bit for bit
        for m in (1, 2):
            self._check_against(_float_fold, m, 7 + m)

    def test_matches_scalar_closed_form(self):
        for m in (3, 5):
            self._check_against(_float_closed_form, m, 7 + m)

    def test_backward_matches_finite_differences(self):
        rng = np.random.default_rng(13)
        for m in (3, 5):
            u, sigma, v = self._random_stack(rng, m, (6,))
            trace = fuse_stack(u, sigma, v)
            w_u, w_s, w_v = rng.normal(size=(3,) + trace.u.shape)

            def scalar_out(uu, ss, vv):
                t = fuse_stack(uu, ss, vv)
                return float((w_u * t.u + w_s * t.sigma + w_v * t.v).sum())

            grads = fuse_stack_backward(trace, w_u, w_s, w_v)
            h = 1e-6
            for which, grad in enumerate(grads):
                for idx in np.ndindex(u.shape):
                    plus = [u.copy(), sigma.copy(), v.copy()]
                    minus = [u.copy(), sigma.copy(), v.copy()]
                    plus[which][idx] += h
                    minus[which][idx] -= h
                    fd = (scalar_out(*plus) - scalar_out(*minus)) / (2 * h)
                    assert grad[idx] == pytest.approx(fd, rel=1e-5, abs=1e-7), (m, which, idx)


class TestOrderFreeRule:
    """Properties of the closed form that a left fold lacks beyond two inputs."""

    # v and scale ties are drawn often; inputs share no (v, scale) pair, so the
    # winner is unique and must not depend on the input order
    stack = st.lists(
        st.builds(
            StudentT,
            u=st.floats(-10, 10),
            sigma=st.one_of(st.sampled_from([1.0, 2.0]), st.floats(0.05, 10)),
            v=st.one_of(st.sampled_from([3.0, 4.0]), st.floats(2.05, 50)),
        ),
        min_size=1,
        max_size=5,
        unique_by=lambda t: (t.v, t.sigma),
    )

    @given(stack, st.randoms(use_true_random=False))
    def test_permutation_invariance(self, inputs, random):
        f = fuse_many(inputs)
        shuffled = random.sample(inputs, len(inputs))
        g = fuse_many(shuffled)
        assert (g.st.u, g.st.v) == (f.st.u, f.st.v)
        assert shuffled[g.source_index] == inputs[f.source_index]
        assert abs(g.st.sigma - f.st.sigma) <= 1e-15 * f.st.sigma

    @given(stack)
    def test_fused_variance_is_mean_of_input_variances(self, inputs):
        f = fuse_many(inputs)
        mean_var = sum(student_t_variance(t) for t in inputs) / len(inputs)
        assert student_t_variance(f.st) == pytest.approx(mean_var, rel=1e-12)
        assert f.st.v == min(t.v for t in inputs)


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())


class TestSelectOracle:
    """`fuse_stack`'s running minimum and maximum against the `np.where` fusion."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 4), st.sampled_from([(), (16, 3), (4097, 3)]), st.integers(0, 2**32 - 1),
           st.floats(0.0, 1.0), st.floats(0.0, 1.0))
    def test_equals_the_select_form_bit_for_bit(self, m, channels, seed, v_ties, sigma_ties):
        rng = np.random.default_rng(seed)
        shape = (m,) + channels
        u = rng.normal(size=shape)
        sigma = rng.uniform(0.05, 10.0, size=shape)
        v = rng.uniform(2.0001, 60.0, size=shape)
        # in a share of the channels every input draws v from two values, and
        # in a share of those its scale too, so v and scale ties are common
        tie_v = np.asarray(rng.random(channels) < v_ties)
        v[:, tie_v] = rng.choice([3.0, 4.0], size=(m, tie_v.sum()))
        tie_s = tie_v & (rng.random(channels) < sigma_ties)
        sigma[:, tie_s] = rng.choice([1.0, 2.0], size=(m, tie_s.sum()))
        got, ref = fuse_stack(u, sigma, v), fuse_stack_select(u, sigma, v)
        for field in ("u", "sigma", "v", "source", "c"):
            assert _same_bits(getattr(got, field), getattr(ref, field)), field

    @pytest.mark.parametrize("m", [0, 1])
    def test_nan_v_makes_the_fused_readout_raise(self, m):
        rng = np.random.default_rng(5)
        st_in = np.stack([rng.normal(size=(2, 50, 3)), rng.uniform(0.1, 5.0, (2, 50, 3)),
                          rng.uniform(2.1, 30.0, (2, 50, 3))])
        st_in[2, m, 17, 1] = np.nan
        # the running minimum carries a NaN v of any modality into v_F; the
        # select form keeps modality 1's v there when modality 2's is NaN
        assert np.isnan(fuse_stack(*st_in).v[17, 1])
        assert np.isnan(fuse_stack_select(*st_in).v[17, 1]) == (m == 0)
        scores = _Scores(st_in, np.zeros((2, 50), dtype=np.intp), np.zeros((2, 50)), np.zeros((2, 50)))
        with pytest.raises(FloatingPointError, match="not finite"):
            _fused_readout(scores)
