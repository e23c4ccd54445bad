"""Reference numeric kernels for the mobile detector's building blocks.

Full, depthwise, and pointwise convolution, their separable composition,
batch normalization, ReLU, the inverted residual block, and exact
multiply-accumulate accounting. "Convolution" means cross-correlation
(no kernel flip), the universal deep-learning convention.

These are desk-scale reference implementations (tensors up to roughly
32x32x16); there is no vectorization contract and no learned weights.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


@dataclass(frozen=True)
class Tensor3:
    """A feature map: float array in row-major (height, width, channels) order."""

    data: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.data, dtype=np.float64)
        if arr.ndim != 3:
            raise ValueError(f"tensor must have 3 axes (h, w, c), got shape {arr.shape}")
        if min(arr.shape) < 1:
            raise ValueError(f"tensor axes must be positive, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("tensor values must be finite")
        object.__setattr__(self, "data", arr)

    @property
    def height(self) -> int:
        return self.data.shape[0]

    @property
    def width(self) -> int:
        return self.data.shape[1]

    @property
    def channels(self) -> int:
        return self.data.shape[2]

    @property
    def shape(self) -> tuple[int, int, int]:
        return self.data.shape


def conv_output_size(in_size: int, kernel_size: int, stride: int, padding: int) -> int:
    """Spatial output extent: floor((in + 2*padding - kernel) / stride) + 1.

    Every spatial convolution calls this: it is the one check of stride and padding.
    """
    if stride < 1:
        raise ValueError(f"stride must be positive, got {stride}")
    if padding < 0:
        raise ValueError(f"padding must be non-negative, got {padding}")
    out = (in_size + 2 * padding - kernel_size) // stride + 1
    if out < 1:
        raise ValueError(
            f"convolution produces empty output: input {in_size}, kernel {kernel_size}, "
            f"stride {stride}, padding {padding}"
        )
    return out


def _pad_and_window(data: np.ndarray, kernel_size: int, stride: int, padding: int) -> np.ndarray:
    """Zero-pad spatially and return strided (h_out, w_out, c, k, k) windows."""
    conv_output_size(data.shape[0], kernel_size, stride, padding)
    conv_output_size(data.shape[1], kernel_size, stride, padding)
    if padding:
        data = np.pad(data, ((padding, padding), (padding, padding), (0, 0)))
    windows = sliding_window_view(data, (kernel_size, kernel_size), axis=(0, 1))
    return windows[::stride, ::stride]


def conv2d_full(x: Tensor3, weights: np.ndarray, stride: int = 1, padding: int = 0) -> Tensor3:
    """Standard (full) convolution with zero padding.

    weights has shape (out_channels, k, k, in_channels) with k odd.
    """
    weights = np.asarray(weights, dtype=np.float64)
    if weights.ndim != 4 or weights.shape[1] != weights.shape[2] or weights.shape[1] % 2 == 0:
        raise ValueError(f"weights must be (out, k, k, in) with k odd, got {weights.shape}")
    if weights.shape[3] != x.channels:
        raise ValueError(f"weights have {weights.shape[3]} in_channels, input has {x.channels}")
    windows = _pad_and_window(x.data, weights.shape[1], stride, padding)
    out = np.einsum("hwcij,oijc->hwo", windows, weights)
    return Tensor3(out)


def depthwise_conv(
    x: Tensor3, per_channel_kernels: np.ndarray, stride: int = 1, padding: int = 0
) -> Tensor3:
    """Per-channel spatial convolution; no cross-channel mixing.

    per_channel_kernels has shape (channels, k, k); output channel c
    depends only on input channel c.
    """
    kernels = np.asarray(per_channel_kernels, dtype=np.float64)
    if kernels.ndim != 3 or kernels.shape[1] != kernels.shape[2]:
        raise ValueError(f"kernels must have shape (channels, k, k), got {kernels.shape}")
    if kernels.shape[0] != x.channels:
        raise ValueError(
            f"kernel channel count is {kernels.shape[0]}, input has {x.channels} channels"
        )
    k = kernels.shape[1]
    windows = _pad_and_window(x.data, k, stride, padding)
    out = np.einsum("hwcij,cij->hwc", windows, kernels)
    return Tensor3(out)


def pointwise_conv(x: Tensor3, mix: np.ndarray) -> Tensor3:
    """1x1 convolution: the same channel-mixing matrix at every location.

    mix has shape (out_channels, in_channels); spatial dims are unchanged.
    """
    mix = np.asarray(mix, dtype=np.float64)
    if mix.ndim != 2:
        raise ValueError(f"mix must be a 2D (out_channels, in_channels) matrix, got {mix.shape}")
    if mix.shape[1] != x.channels:
        raise ValueError(f"mix has {mix.shape[1]} columns, input has {x.channels} channels")
    out = np.einsum("hwc,oc->hwo", x.data, mix)
    return Tensor3(out)


def depthwise_separable(
    x: Tensor3,
    per_channel_kernels: np.ndarray,
    mix: np.ndarray,
    stride: int = 1,
    padding: int = 0,
) -> Tensor3:
    """Depthwise convolution followed by a pointwise channel mix."""
    return pointwise_conv(depthwise_conv(x, per_channel_kernels, stride, padding), mix)


def batchnorm(x: Tensor3, params: BatchNormParams, epsilon: float = 1e-5) -> Tensor3:
    """Per-channel normalization: (x - mean) / sqrt(variance + epsilon) * scale + shift."""
    arrays = {}
    for field in fields(params):
        vec = np.asarray(getattr(params, field.name), dtype=np.float64)
        if vec.shape != (x.channels,):
            raise ValueError(
                f"batchnorm {field.name} has length {vec.size}, input has {x.channels} channels"
            )
        arrays[field.name] = vec
    if np.any(arrays["variance"] < 0):
        raise ValueError("variance must be non-negative")
    denom = arrays["variance"] + epsilon
    if np.any(denom <= 0):
        raise ValueError("variance + epsilon must be positive on every channel")
    out = (x.data - arrays["mean"]) / np.sqrt(denom) * arrays["scale"] + arrays["shift"]
    return Tensor3(out)


def relu(x: Tensor3) -> Tensor3:
    """Elementwise max(0, x)."""
    return Tensor3(np.maximum(x.data, 0.0))


@dataclass(frozen=True)
class BatchNormParams:
    """Per-channel batchnorm parameter vectors."""

    mean: np.ndarray
    variance: np.ndarray
    scale: np.ndarray
    shift: np.ndarray

    @classmethod
    def identity(cls, channels: int) -> "BatchNormParams":
        return cls(
            np.zeros(channels), np.ones(channels), np.ones(channels), np.zeros(channels)
        )

    @classmethod
    def zeros(cls, channels: int) -> "BatchNormParams":
        return cls(
            np.zeros(channels), np.zeros(channels), np.zeros(channels), np.zeros(channels)
        )


@dataclass(frozen=True)
class InvertedResidualWeights:
    """Weight bundle for one inverted residual block.

    With in_channels c and intermediate width m (t*c for expansion
    factor t): expand_mix (m, c), depthwise_kernels (m, 3, 3),
    project_mix (out_channels, m), plus one batchnorm per stage.
    """

    expand_mix: np.ndarray
    expand_bn: BatchNormParams
    depthwise_kernels: np.ndarray
    depthwise_bn: BatchNormParams
    project_mix: np.ndarray
    project_bn: BatchNormParams
    epsilon: float = 1e-5

    @classmethod
    def zeros(cls, in_channels: int, out_channels: int, expansion_factor: int):
        """All-zero weights; with stride 1 and equal channels the block is the identity."""
        mid = in_channels * expansion_factor
        return cls(
            expand_mix=np.zeros((mid, in_channels)),
            expand_bn=BatchNormParams.zeros(mid),
            depthwise_kernels=np.zeros((mid, 3, 3)),
            depthwise_bn=BatchNormParams.zeros(mid),
            project_mix=np.zeros((out_channels, mid)),
            project_bn=BatchNormParams.zeros(out_channels),
        )


def inverted_residual(x: Tensor3, weights: InvertedResidualWeights, stride: int = 1) -> Tensor3:
    """Expand (pointwise) -> 3x3 depthwise -> project (pointwise, linear).

    The first two stages get batchnorm + ReLU; the projection gets
    batchnorm only (linear bottleneck). The skip connection adds the
    input iff stride == 1 and the channel count is preserved.
    """
    expand_mix = np.asarray(weights.expand_mix, dtype=np.float64)
    if expand_mix.shape[1:] != (x.channels,):
        raise ValueError(
            f"expand_mix shape {expand_mix.shape} does not fit {x.channels} input channels"
        )
    mid = expand_mix.shape[0]
    dw = np.asarray(weights.depthwise_kernels, dtype=np.float64)
    if dw.shape != (mid, 3, 3):
        raise ValueError(f"depthwise_kernels shape {dw.shape}, expected {(mid, 3, 3)}")

    out = pointwise_conv(x, expand_mix)
    out = relu(batchnorm(out, weights.expand_bn, weights.epsilon))
    out = depthwise_conv(out, dw, stride=stride, padding=1)
    out = relu(batchnorm(out, weights.depthwise_bn, weights.epsilon))
    out = pointwise_conv(out, np.asarray(weights.project_mix, dtype=np.float64))
    out = batchnorm(out, weights.project_bn, weights.epsilon)

    if stride == 1 and out.channels == x.channels:
        if out.shape != x.shape:
            raise ValueError(f"residual shapes diverged: {x.shape} vs {out.shape}")
        return Tensor3(out.data + x.data)
    return out


def full_conv_macs(out_h: int, out_w: int, kernel_size: int, in_channels: int, out_channels: int) -> int:
    """Multiply-accumulates of a full convolution: h*w*k^2*c_in*c_out."""
    return out_h * out_w * kernel_size * kernel_size * in_channels * out_channels


def depthwise_conv_macs(out_h: int, out_w: int, kernel_size: int, channels: int) -> int:
    """Multiply-accumulates of a depthwise convolution: h*w*k^2*c."""
    return out_h * out_w * kernel_size * kernel_size * channels


def pointwise_conv_macs(out_h: int, out_w: int, in_channels: int, out_channels: int) -> int:
    """Multiply-accumulates of a pointwise convolution: h*w*c_in*c_out."""
    return out_h * out_w * in_channels * out_channels


def separable_conv_macs(
    out_h: int, out_w: int, kernel_size: int, in_channels: int, out_channels: int
) -> int:
    """Depthwise + pointwise cost of the separable substitute for a full convolution."""
    return depthwise_conv_macs(out_h, out_w, kernel_size, in_channels) + pointwise_conv_macs(
        out_h, out_w, in_channels, out_channels
    )


def separable_to_full_mac_ratio(kernel_size: int, out_channels: int) -> float:
    """Exact separable/full cost ratio for stride-1 same-shape configurations.

    (h*w*k^2*c + h*w*c*c_out) / (h*w*k^2*c*c_out) == 1/c_out + 1/k^2,
    independent of the spatial extent and the input channel count.
    """
    return 1.0 / out_channels + 1.0 / (kernel_size * kernel_size)
