import dataclasses
from fractions import Fraction

import numpy as np
import pytest

import cctrack.kernels
from cctrack.kernels import (
    BatchNormParams,
    InvertedResidualWeights,
    Tensor3,
    batchnorm,
    conv2d_full,
    conv_output_size,
    depthwise_conv,
    depthwise_separable,
    full_conv_macs,
    inverted_residual,
    pointwise_conv,
    relu,
    separable_conv_macs,
)
from cctrack.selfcheck import (
    check_channel_independence,
    check_identities,
    check_kernels_against_loops,
    check_mac_formulas,
    check_mac_ratio_exact,
    check_separable_equivalence,
    run_all,
)


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
        out = conv2d_full(x, w)
        assert out.data[0, 0, 0] == 3.5

    def test_zero_input_stays_zero(self, rng):
        x = t3(np.zeros((4, 4, 2)))
        w = rng.normal(size=(3, 3, 3, 2))
        out = conv2d_full(x, w, padding=1)
        assert np.all(out.data == 0)

    def test_box_filter_sums_to_nine(self):
        x = t3(np.ones((3, 3, 1)))
        w = np.ones((1, 3, 3, 1))
        out = conv2d_full(x, w)
        assert out.shape == (1, 1, 1)
        assert out.data[0, 0, 0] == 9.0

    def test_shape_mismatch_names_dimension(self):
        x = t3(np.zeros((4, 4, 2)))
        bad = np.zeros((3, 3, 3, 5))
        with pytest.raises(ValueError, match="in_channels"):
            conv2d_full(x, bad, padding=1)

    @pytest.mark.parametrize(
        "shape", [(3, 2, 2, 2), (3, 3, 5, 2), (3, 3, 3)], ids=["even", "non-square", "3-D"]
    )
    def test_kernel_shape_read_off_the_weights_is_checked(self, shape):
        with pytest.raises(ValueError, match="k odd"):
            conv2d_full(t3(np.zeros((6, 6, 2))), np.zeros(shape))

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


_X = t3(np.zeros((5, 5, 2)))
_SPATIAL_KERNELS = {
    "conv_output_size": lambda stride, padding: conv_output_size(5, 3, stride, padding),
    "conv2d_full": lambda stride, padding: conv2d_full(_X, np.ones((1, 3, 3, 2)), stride, padding),
    "depthwise_conv": lambda stride, padding: depthwise_conv(_X, np.ones((2, 3, 3)), stride, padding),
    "depthwise_separable": lambda stride, padding: depthwise_separable(
        _X, np.ones((2, 3, 3)), np.ones((1, 2)), stride, padding),
    "inverted_residual": lambda stride, padding: inverted_residual(
        _X, InvertedResidualWeights.zeros(2, 2, 1), stride),
}


@pytest.mark.parametrize(
    "kernel, stride, padding, bad",
    [(kernel, *case) for kernel in _SPATIAL_KERNELS if kernel != "inverted_residual"
     for case in [(0, 0, "stride"), (-1, 0, "stride"), (1, -1, "padding")]]
    + [("inverted_residual", 0, 0, "stride")],
)
def test_bad_stride_or_padding_is_named(kernel, stride, padding, bad):
    with pytest.raises(ValueError, match=f"^{bad} must be"):
        _SPATIAL_KERNELS[kernel](stride, padding)


class TestBatchNormRelu:
    def test_centering_a_constant_channel(self):
        x = t3(np.full((2, 2, 1), 7.0))
        params = BatchNormParams(np.array([7.0]), np.ones(1), np.ones(1), np.zeros(1))
        out = batchnorm(x, params, epsilon=0.0)
        assert np.all(out.data == 0)

    def test_scalar_case_hand_arithmetic(self):
        # (4 - 2) / sqrt(4) * 3 + 1 == 4
        x = t3([[[4.0]]])
        params = BatchNormParams(np.array([2.0]), np.array([4.0]), np.array([3.0]), np.array([1.0]))
        out = batchnorm(x, params, 0.0)
        assert out.data[0, 0, 0] == 4.0

    def test_parameter_length_mismatch(self):
        x = t3(np.zeros((2, 2, 3)))
        with pytest.raises(ValueError, match="mean"):
            batchnorm(x, BatchNormParams(np.zeros(2), np.ones(3), np.ones(3), np.zeros(3)))

    def test_negative_variance_rejected(self):
        x = t3(np.zeros((1, 1, 1)))
        with pytest.raises(ValueError, match="variance"):
            batchnorm(x, BatchNormParams(np.zeros(1), np.array([-1.0]), np.ones(1), np.zeros(1)))

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
        got = inverted_residual(x, weights, stride=1)

        manual = pointwise_conv(x, weights.expand_mix)
        manual = relu(batchnorm(manual, weights.expand_bn, weights.epsilon))
        manual = depthwise_conv(manual, weights.depthwise_kernels, stride=1, padding=1)
        manual = relu(batchnorm(manual, weights.depthwise_bn, weights.epsilon))
        manual = pointwise_conv(manual, weights.project_mix)
        manual = batchnorm(manual, weights.project_bn, weights.epsilon)
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
        with_skip = inverted_residual(x, weights, stride=1)
        branch = pointwise_conv(x, weights.expand_mix)
        branch = relu(branch)
        branch = depthwise_conv(branch, weights.depthwise_kernels, stride=1, padding=1)
        branch = relu(branch)
        branch = pointwise_conv(branch, weights.project_mix)
        assert np.allclose(with_skip.data, branch.data + x.data, atol=1e-12)

    def test_inconsistent_bundle_rejected(self, rng):
        weights = InvertedResidualWeights.zeros(3, 3, expansion_factor=2)
        with pytest.raises(ValueError, match="expand_mix"):
            inverted_residual(t3(rng.normal(size=(4, 4, 4))), weights, stride=1)
        torn = dataclasses.replace(weights, depthwise_kernels=np.zeros((5, 3, 3)))
        with pytest.raises(ValueError, match="depthwise_kernels"):
            inverted_residual(t3(rng.normal(size=(4, 4, 3))), torn, stride=1)


class TestMacAccounting:
    def test_degenerate_single_mac(self):
        assert full_conv_macs(1, 1, 1, 1, 1) == 1

    def test_ratio_formula_matches_counts_generally(self, rng):
        for _ in range(5):
            k = 3
            c = int(rng.integers(1, 5))
            out_c = int(rng.integers(1, 9))
            out_h, out_w = 5, 4
            sep = separable_conv_macs(out_h, out_w, k, c, out_c)
            full = full_conv_macs(out_h, out_w, k, c, out_c)
            assert Fraction(sep, full) == Fraction(1, out_c) + Fraction(1, k * k)


def _leak_across_channels(out):
    """Adds a trace of every output channel into all of them."""
    return Tensor3(out.data + 1e-3 * out.data.sum(axis=2, keepdims=True))


class TestConvcheckProperties:
    """The kernel properties live once, in cctrack.selfcheck; these run them."""

    @pytest.mark.parametrize("seed", range(5))
    def test_every_check_passes(self, seed):
        failed = [f"{r.name}: {r.detail}" for r in run_all(seed) if not r.passed]
        assert not failed

    @pytest.mark.parametrize(
        "check, name, fault",
        [
            pytest.param(
                check_separable_equivalence, "depthwise_separable",
                lambda real: lambda x, dw, mix, stride=1, padding=0: real(
                    x, np.transpose(dw, (0, 2, 1)), mix, stride, padding),
                id="separable-transposed-depthwise-kernel",
            ),
            pytest.param(
                check_kernels_against_loops, "conv2d_full",
                lambda real: lambda x, w, **kwargs: real(x, w[:, ::-1, ::-1, :], **kwargs),
                id="full-conv-flipped-kernel",
            ),
            pytest.param(
                check_channel_independence, "depthwise_conv",
                lambda real: lambda *args, **kwargs: _leak_across_channels(real(*args, **kwargs)),
                id="depthwise-channel-leak",
            ),
            pytest.param(
                check_identities, "batchnorm",
                lambda real: lambda x, params, epsilon=1e-5: real(x, params, 1e-5),
                id="batchnorm-ignores-epsilon-zero",
            ),
            pytest.param(
                check_mac_formulas, "full_conv_macs",
                lambda real: lambda *args: real(*args) + 1,
                id="full-conv-macs-plus-one",
            ),
            pytest.param(
                check_mac_formulas, "depthwise_conv_macs",
                lambda real: lambda *args: real(*args) + 1,
                id="depthwise-conv-macs-plus-one",
            ),
            pytest.param(
                check_mac_formulas, "pointwise_conv_macs",
                lambda real: lambda *args: real(*args) + 1,
                id="pointwise-conv-macs-plus-one",
            ),
            pytest.param(
                check_mac_formulas, "separable_conv_macs",
                lambda real: lambda *args: real(*args) + 1,
                id="separable-conv-macs-plus-one",
            ),
            pytest.param(
                check_mac_ratio_exact, "separable_to_full_mac_ratio",
                lambda real: lambda *args: real(*args) + 1e-3,
                id="mac-ratio-plus-1e-3",
            ),
        ],
    )
    def test_check_reports_planted_fault(self, monkeypatch, check, name, fault):
        monkeypatch.setattr(cctrack.kernels, name, fault(getattr(cctrack.kernels, name)))
        result = check() if check is check_mac_ratio_exact else check(np.random.default_rng(0))
        assert not result.passed

