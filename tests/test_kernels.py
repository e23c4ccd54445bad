from fractions import Fraction

import numpy as np
import pytest

from cctrack.kernels import (
    BatchNormParams,
    ConvSpec,
    InvertedResidualWeights,
    Tensor3,
    batchnorm,
    conv2d_full,
    conv_output_size,
    depthwise_conv,
    depthwise_conv_macs,
    depthwise_separable,
    full_conv_macs,
    inverted_residual,
    pointwise_conv,
    pointwise_conv_macs,
    relu,
    separable_conv_macs,
    separable_to_full_mac_ratio,
)
from cctrack.selfcheck import MultiplyCounter, conv_full_loops, depthwise_loops, pointwise_loops


def t3(array):
    return Tensor3(np.asarray(array, dtype=np.float64))


def delta_kernels(channels, k=3):
    kernels = np.zeros((channels, k, k))
    kernels[:, k // 2, k // 2] = 1.0
    return kernels


class TestTensor3:
    def test_rejects_wrong_rank_and_nonfinite(self):
        with pytest.raises(ValueError):
            Tensor3(np.zeros((3, 3)))
        with pytest.raises(ValueError):
            Tensor3(np.full((2, 2, 1), np.nan))

    def test_shape_accessors(self):
        x = t3(np.zeros((4, 5, 2)))
        assert (x.height, x.width, x.channels) == (4, 5, 2)


class TestFullConv:
    def test_identity_kernel_on_single_pixel(self):
        x = t3([[[3.5]]])
        w = np.ones((1, 1, 1, 1))
        out = conv2d_full(x, w, ConvSpec(1, 1, 0, 1, 1))
        assert out.data[0, 0, 0] == 3.5

    def test_zero_input_stays_zero(self, rng):
        x = t3(np.zeros((4, 4, 2)))
        w = rng.normal(size=(3, 3, 3, 2))
        out = conv2d_full(x, w, ConvSpec(3, 1, 1, 2, 3))
        assert np.all(out.data == 0)

    def test_box_filter_sums_to_nine(self):
        x = t3(np.ones((3, 3, 1)))
        w = np.ones((1, 3, 3, 1))
        out = conv2d_full(x, w, ConvSpec(3, 1, 0, 1, 1))
        assert out.shape == (1, 1, 1)
        assert out.data[0, 0, 0] == 9.0

    def test_agrees_with_loop_oracle(self, rng):
        for _ in range(25):
            h, w = rng.integers(3, 8, 2)
            c, out_c = rng.integers(1, 4, 2)
            stride = int(rng.integers(1, 3))
            padding = int(rng.integers(0, 2))
            x = rng.normal(size=(h, w, c))
            weights = rng.normal(size=(out_c, 3, 3, c))
            got = conv2d_full(t3(x), weights, ConvSpec(3, stride, padding, int(c), int(out_c)))
            want = conv_full_loops(x, weights, stride, padding)
            assert np.max(np.abs(got.data - want)) < 1e-12

    def test_shape_mismatch_names_dimension(self):
        x = t3(np.zeros((4, 4, 2)))
        bad = np.zeros((3, 3, 3, 5))
        with pytest.raises(ValueError, match="in_channels"):
            conv2d_full(x, bad, ConvSpec(3, 1, 1, 2, 3))
        with pytest.raises(ValueError, match="out_channels"):
            conv2d_full(x, np.zeros((4, 3, 3, 2)), ConvSpec(3, 1, 1, 2, 3))

    def test_empty_output_rejected(self):
        with pytest.raises(ValueError, match="empty output"):
            conv_output_size(2, 5, 1, 0)


class TestDepthwise:
    def test_delta_kernels_are_identity(self, rng):
        x = rng.normal(size=(5, 6, 3))
        out = depthwise_conv(t3(x), delta_kernels(3), stride=1, padding=1)
        assert np.array_equal(out.data, x)

    def test_channel_independence(self, rng):
        x = rng.normal(size=(4, 4, 2))
        kernels = np.stack([np.zeros((3, 3)), delta_kernels(1)[0]])
        out = depthwise_conv(t3(x), kernels, stride=1, padding=1)
        assert np.all(out.data[:, :, 0] == 0)
        assert np.array_equal(out.data[:, :, 1], x[:, :, 1])

    def test_agrees_with_loop_oracle(self, rng):
        x = rng.normal(size=(4, 4, 2))
        kernels = rng.normal(size=(2, 3, 3))
        got = depthwise_conv(t3(x), kernels, stride=1, padding=0)
        want = depthwise_loops(x, kernels, 1, 0)
        assert np.max(np.abs(got.data - want)) < 1e-9

    def test_perturbing_other_channels_never_leaks(self, rng):
        for _ in range(30):
            c = int(rng.integers(2, 5))
            x = rng.normal(size=(6, 6, c))
            kernels = rng.normal(size=(c, 3, 3))
            base = depthwise_conv(t3(x), kernels, 1, 1).data
            target = int(rng.integers(0, c))
            bumped = x.copy()
            bumped[:, :, target] += rng.normal(size=(6, 6))
            out = depthwise_conv(t3(bumped), kernels, 1, 1).data
            keep = [ch for ch in range(c) if ch != target]
            assert np.array_equal(out[:, :, keep], base[:, :, keep])

    def test_channel_mismatch_rejected(self):
        with pytest.raises(ValueError, match="channel"):
            depthwise_conv(t3(np.zeros((3, 3, 2))), np.zeros((3, 3, 3)))


class TestPointwise:
    def test_identity_matrix(self, rng):
        x = rng.normal(size=(3, 3, 4))
        out = pointwise_conv(t3(x), np.eye(4))
        assert np.array_equal(out.data, x)

    def test_dot_product_by_hand(self):
        x = t3([[[1.0, 2.0, 3.0]]])
        out = pointwise_conv(x, np.array([[1.0, 1.0, 1.0]]))
        assert out.shape == (1, 1, 1)
        assert out.data[0, 0, 0] == 6.0

    def test_zero_matrix(self, rng):
        x = rng.normal(size=(2, 5, 3))
        assert np.all(pointwise_conv(t3(x), np.zeros((4, 3))).data == 0)

    def test_agrees_with_loop_oracle(self, rng):
        x = rng.normal(size=(4, 3, 3))
        mix = rng.normal(size=(5, 3))
        got = pointwise_conv(t3(x), mix)
        assert np.max(np.abs(got.data - pointwise_loops(x, mix))) < 1e-12

    def test_mismatch_rejected(self):
        with pytest.raises(ValueError, match="columns"):
            pointwise_conv(t3(np.zeros((2, 2, 3))), np.zeros((4, 2)))


class TestSeparable:
    def test_composition_of_identities(self, rng):
        x = rng.normal(size=(5, 5, 3))
        out = depthwise_separable(t3(x), delta_kernels(3), np.eye(3), stride=1, padding=1)
        assert np.array_equal(out.data, x)

    def test_definitional_two_step_equality(self, rng):
        x = t3(rng.normal(size=(6, 6, 3)))
        kernels = rng.normal(size=(3, 3, 3))
        mix = rng.normal(size=(4, 3))
        fused = depthwise_separable(x, kernels, mix, stride=1, padding=1)
        two_step = pointwise_conv(depthwise_conv(x, kernels, 1, 1), mix)
        assert np.array_equal(fused.data, two_step.data)

    def test_equals_factorized_full_conv(self, rng):
        # weights W[o,i,j,c] = dw[c,i,j] * mix[o,c] make the full conv separable
        for _ in range(30):
            h, w = (int(v) for v in rng.integers(3, 9, 2))
            c = int(rng.integers(1, 5))
            out_c = int(rng.integers(1, 5))
            x = t3(rng.normal(size=(h, w, c)))
            dw = rng.normal(size=(c, 3, 3))
            mix = rng.normal(size=(out_c, c))
            sep = depthwise_separable(x, dw, mix, stride=1, padding=1)
            full_weights = np.einsum("cij,oc->oijc", dw, mix)
            full = conv2d_full(x, full_weights, ConvSpec(3, 1, 1, c, out_c))
            assert np.max(np.abs(sep.data - full.data)) < 1e-9


class TestBatchNormRelu:
    def test_identity_parameters(self, rng):
        x = t3(rng.normal(size=(3, 4, 2)))
        out = batchnorm(x, np.zeros(2), np.ones(2), np.ones(2), np.zeros(2), epsilon=0.0)
        assert np.array_equal(out.data, x.data)

    def test_centering_a_constant_channel(self):
        x = t3(np.full((2, 2, 1), 7.0))
        out = batchnorm(x, np.array([7.0]), np.ones(1), np.ones(1), np.zeros(1), epsilon=0.0)
        assert np.all(out.data == 0)

    def test_scalar_case_hand_arithmetic(self):
        # (4 - 2) / sqrt(4) * 3 + 1 == 4
        x = t3([[[4.0]]])
        out = batchnorm(x, np.array([2.0]), np.array([4.0]), np.array([3.0]), np.array([1.0]), 0.0)
        assert out.data[0, 0, 0] == 4.0

    def test_parameter_length_mismatch(self):
        x = t3(np.zeros((2, 2, 3)))
        with pytest.raises(ValueError, match="mean"):
            batchnorm(x, np.zeros(2), np.ones(3), np.ones(3), np.zeros(3))

    def test_negative_variance_rejected(self):
        x = t3(np.zeros((1, 1, 1)))
        with pytest.raises(ValueError, match="variance"):
            batchnorm(x, np.zeros(1), np.array([-1.0]), np.ones(1), np.zeros(1))

    def test_relu_basics(self, rng):
        x = t3([[[-1.0], [0.0], [2.0]]])
        assert np.array_equal(relu(x).data.ravel(), [0.0, 0.0, 2.0])
        assert np.all(relu(t3(-np.abs(rng.normal(size=(3, 3, 2))))).data == 0)

    def test_relu_idempotent_and_monotone(self, rng):
        x = rng.normal(size=(4, 4, 3))
        once = relu(t3(x))
        assert np.array_equal(relu(once).data, once.data)
        y = x + np.abs(rng.normal(size=x.shape))
        assert np.all(relu(t3(y)).data >= once.data)


class TestInvertedResidual:
    def test_zero_weights_identity_through_skip(self, rng):
        x = t3(rng.normal(size=(5, 5, 4)))
        weights = InvertedResidualWeights.zeros(4, 4, expansion_factor=6)
        out = inverted_residual(x, 6, weights, stride=1)
        assert np.array_equal(out.data, x.data)

    def test_stride_two_halves_and_drops_skip(self, rng):
        x = t3(rng.normal(size=(6, 6, 3)))
        weights = InvertedResidualWeights.zeros(3, 3, expansion_factor=2)
        out = inverted_residual(x, 2, weights, stride=2)
        assert out.shape == (3, 3, 3)
        assert np.all(out.data == 0)  # zero weights, no residual add

    def test_matches_explicit_stage_composition(self, rng):
        c, out_c, t = 3, 5, 2
        x = t3(rng.normal(size=(5, 5, c)))
        mid = c * t
        weights = InvertedResidualWeights(
            expand_mix=rng.normal(size=(mid, c)),
            expand_bn=BatchNormParams(
                rng.normal(size=mid), np.abs(rng.normal(size=mid)) + 0.1,
                rng.normal(size=mid), rng.normal(size=mid),
            ),
            depthwise_kernels=rng.normal(size=(mid, 3, 3)),
            depthwise_bn=BatchNormParams(
                rng.normal(size=mid), np.abs(rng.normal(size=mid)) + 0.1,
                rng.normal(size=mid), rng.normal(size=mid),
            ),
            project_mix=rng.normal(size=(out_c, mid)),
            project_bn=BatchNormParams(
                rng.normal(size=out_c), np.abs(rng.normal(size=out_c)) + 0.1,
                rng.normal(size=out_c), rng.normal(size=out_c),
            ),
        )
        got = inverted_residual(x, t, weights, stride=1)

        def bn(tensor, p):
            return batchnorm(tensor, p.mean, p.variance, p.scale, p.shift, weights.epsilon)

        manual = pointwise_conv(x, weights.expand_mix)
        manual = relu(bn(manual, weights.expand_bn))
        manual = depthwise_conv(manual, weights.depthwise_kernels, stride=1, padding=1)
        manual = relu(bn(manual, weights.depthwise_bn))
        manual = pointwise_conv(manual, weights.project_mix)
        manual = bn(manual, weights.project_bn)
        assert np.array_equal(got.data, manual.data)  # bit-identical composition

    def test_residual_with_matching_channels_adds_input(self, rng):
        c = 3
        x = t3(rng.normal(size=(4, 4, c)))
        weights = InvertedResidualWeights(
            expand_mix=rng.normal(size=(c, c)),
            expand_bn=BatchNormParams.identity(c),
            depthwise_kernels=rng.normal(size=(c, 3, 3)),
            depthwise_bn=BatchNormParams.identity(c),
            project_mix=rng.normal(size=(c, c)),
            project_bn=BatchNormParams.identity(c),
            epsilon=0.0,
        )
        with_skip = inverted_residual(x, 1, weights, stride=1)
        branch = pointwise_conv(x, weights.expand_mix)
        branch = relu(branch)
        branch = depthwise_conv(branch, weights.depthwise_kernels, stride=1, padding=1)
        branch = relu(branch)
        branch = pointwise_conv(branch, weights.project_mix)
        assert np.allclose(with_skip.data, branch.data + x.data, atol=1e-12)

    def test_inconsistent_bundle_rejected(self, rng):
        x = t3(rng.normal(size=(4, 4, 3)))
        weights = InvertedResidualWeights.zeros(3, 3, expansion_factor=2)
        with pytest.raises(ValueError, match="expand_mix"):
            inverted_residual(x, 4, weights, stride=1)


class TestMacAccounting:
    def test_degenerate_single_mac(self):
        assert full_conv_macs(1, 1, 1, 1, 1) == 1

    def test_formulas_match_instrumented_counters(self, rng):
        for _ in range(10):
            h, w = (int(v) for v in rng.integers(3, 7, 2))
            c = int(rng.integers(1, 4))
            out_c = int(rng.integers(1, 5))
            stride = int(rng.integers(1, 3))
            padding = int(rng.integers(0, 2))
            out_h = (h + 2 * padding - 3) // stride + 1
            out_w = (w + 2 * padding - 3) // stride + 1
            if out_h < 1 or out_w < 1:
                continue
            x = rng.normal(size=(h, w, c))

            counter = MultiplyCounter()
            conv_full_loops(x, rng.normal(size=(out_c, 3, 3, c)), stride, padding, counter)
            assert counter.count == full_conv_macs(out_h, out_w, 3, c, out_c)

            dw_counter = MultiplyCounter()
            depthwise_loops(x, rng.normal(size=(c, 3, 3)), stride, padding, dw_counter)
            assert dw_counter.count == depthwise_conv_macs(out_h, out_w, 3, c)

            pw_counter = MultiplyCounter()
            pointwise_loops(rng.normal(size=(out_h, out_w, c)), rng.normal(size=(out_c, c)), pw_counter)
            assert pw_counter.count == pointwise_conv_macs(out_h, out_w, c, out_c)

            assert dw_counter.count + pw_counter.count == separable_conv_macs(
                out_h, out_w, 3, c, out_c
            )

    def test_ratio_for_k3_out64_is_exact(self):
        # counted on a real configuration, then compared as exact fractions
        h = w = 4
        c, out_c = 8, 64
        x = np.zeros((h, w, c))
        full_counter = MultiplyCounter()
        conv_full_loops(x, np.zeros((out_c, 3, 3, c)), 1, 1, full_counter)
        sep_counter = MultiplyCounter()
        depthwise_loops(x, np.zeros((c, 3, 3)), 1, 1, sep_counter)
        pointwise_loops(x, np.zeros((out_c, c)), sep_counter)
        assert Fraction(sep_counter.count, full_counter.count) == Fraction(1, 64) + Fraction(1, 9)
        assert separable_to_full_mac_ratio(3, 64) == 1 / 64 + 1 / 9

    def test_ratio_formula_matches_counts_generally(self, rng):
        for _ in range(5):
            k = 3
            c = int(rng.integers(1, 5))
            out_c = int(rng.integers(1, 9))
            out_h, out_w = 5, 4
            sep = separable_conv_macs(out_h, out_w, k, c, out_c)
            full = full_conv_macs(out_h, out_w, k, c, out_c)
            assert Fraction(sep, full) == Fraction(1, out_c) + Fraction(1, k * k)
