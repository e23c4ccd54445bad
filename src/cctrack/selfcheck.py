"""Runnable property suite for the convolution kernels.

Backs the `convcheck` subcommand: re-derives every kernel result with
plain counted loops and checks the algebraic identities, reporting one
PASS/FAIL line per property. The loop implementations below are written
independently of kernels.py on purpose — they are the measuring stick,
not the thing being measured.

The six check_* functions are the single copy of the kernel properties:
the test suite does not re-derive them, it runs run_all at seeds 0-4 and
runs each check against a planted kernel fault it must report.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import kernels
from .kernels import Tensor3


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str


def conv_full_loops(x, weights, stride, padding):
    """Full convolution by nested loops over an (h, w, c) array; returns (out, multiplies)."""
    h, w, c = x.shape
    out_c, k, _, _ = weights.shape
    padded = np.zeros((h + 2 * padding, w + 2 * padding, c))
    padded[padding : padding + h, padding : padding + w, :] = x
    out_h = (h + 2 * padding - k) // stride + 1
    out_w = (w + 2 * padding - k) // stride + 1
    out = np.zeros((out_h, out_w, out_c))
    multiplies = 0
    for oy in range(out_h):
        for ox in range(out_w):
            for oc in range(out_c):
                acc = 0.0
                for ky in range(k):
                    for kx in range(k):
                        for ic in range(c):
                            acc += padded[oy * stride + ky, ox * stride + kx, ic] * weights[oc, ky, kx, ic]
                            multiplies += 1
                out[oy, ox, oc] = acc
    return out, multiplies


def depthwise_loops(x, per_channel, stride, padding):
    """Per-channel 2D convolution by nested loops; returns (out, multiplies)."""
    h, w, c = x.shape
    k = per_channel.shape[1]
    padded = np.zeros((h + 2 * padding, w + 2 * padding, c))
    padded[padding : padding + h, padding : padding + w, :] = x
    out_h = (h + 2 * padding - k) // stride + 1
    out_w = (w + 2 * padding - k) // stride + 1
    out = np.zeros((out_h, out_w, c))
    multiplies = 0
    for oy in range(out_h):
        for ox in range(out_w):
            for ch in range(c):
                acc = 0.0
                for ky in range(k):
                    for kx in range(k):
                        acc += padded[oy * stride + ky, ox * stride + kx, ch] * per_channel[ch, ky, kx]
                        multiplies += 1
                out[oy, ox, ch] = acc
    return out, multiplies


def pointwise_loops(x, mix):
    """Per-pixel channel mixing by nested loops; returns (out, multiplies)."""
    h, w, c = x.shape
    out_c = mix.shape[0]
    out = np.zeros((h, w, out_c))
    multiplies = 0
    for oy in range(h):
        for ox in range(w):
            for oc in range(out_c):
                acc = 0.0
                for ic in range(c):
                    acc += x[oy, ox, ic] * mix[oc, ic]
                    multiplies += 1
                out[oy, ox, oc] = acc
    return out, multiplies


def _factorized_full_weights(per_channel, mix):
    """Full-conv weights equivalent to depthwise+pointwise: W[o,i,j,c] = dw[c,i,j]*mix[o,c]."""
    return np.einsum("cij,oc->oijc", per_channel, mix)


def _max_diff(got, want) -> float:
    """Largest elementwise |got - want|; inf when the shapes differ."""
    return float(np.max(np.abs(got - want))) if got.shape == want.shape else float("inf")


def check_separable_equivalence(rng, trials=100, tol=1e-9) -> CheckResult:
    """Separable result equals the rank-1-factorized full convolution."""
    worst = 0.0
    for _ in range(trials):
        h = int(rng.integers(2, 9))
        w = int(rng.integers(2, 9))
        c = int(rng.integers(1, 5))
        out_c = int(rng.integers(1, 5))
        x = Tensor3(rng.normal(size=(h, w, c)))
        dw = rng.normal(size=(c, 3, 3))
        mix = rng.normal(size=(out_c, c))
        sep = kernels.depthwise_separable(x, dw, mix, stride=1, padding=1)
        full = kernels.conv2d_full(x, _factorized_full_weights(dw, mix), stride=1, padding=1)
        worst = max(worst, _max_diff(sep.data, full.data))
    return CheckResult(
        "separable equals factorized full convolution",
        worst <= tol,
        f"{trials} random instances, max |diff| = {worst:.3e} (tol {tol:.0e})",
    )


def check_kernels_against_loops(rng, trials=20, tol=1e-12) -> CheckResult:
    """Vectorized kernels agree with the nested-loop references."""
    worst = 0.0
    for _ in range(trials):
        h = int(rng.integers(3, 8))
        w = int(rng.integers(3, 8))
        c = int(rng.integers(1, 4))
        out_c = int(rng.integers(1, 6))
        stride = int(rng.integers(1, 3))
        padding = int(rng.integers(0, 2))
        x = rng.normal(size=(h, w, c))
        weights = rng.normal(size=(out_c, 3, 3, c))
        dw = rng.normal(size=(c, 3, 3))
        mix = rng.normal(size=(out_c, c))
        full = kernels.conv2d_full(Tensor3(x), weights, stride=stride, padding=padding)
        full_ref, _ = conv_full_loops(x, weights, stride, padding)
        depth = kernels.depthwise_conv(Tensor3(x), dw, stride=stride, padding=padding)
        depth_ref, _ = depthwise_loops(x, dw, stride, padding)
        point = kernels.pointwise_conv(Tensor3(x), mix)
        point_ref, _ = pointwise_loops(x, mix)
        worst = max(
            worst,
            _max_diff(full.data, full_ref),
            _max_diff(depth.data, depth_ref),
            _max_diff(point.data, point_ref),
        )
    return CheckResult(
        "kernels agree with nested-loop references",
        worst <= tol,
        f"{trials} random instances, max |diff| = {worst:.3e} (tol {tol:.0e})",
    )


def check_mac_formulas(rng, trials=12) -> CheckResult:
    """Closed-form MAC counts equal the loops' own multiply counts exactly."""
    name = "MAC formulas match instrumented counters"
    for _ in range(trials):
        h = int(rng.integers(3, 8))
        w = int(rng.integers(3, 8))
        c = int(rng.integers(1, 4))
        out_c = int(rng.integers(1, 5))
        stride = int(rng.integers(1, 3))
        padding = int(rng.integers(0, 2))
        x = rng.normal(size=(h, w, c))
        out_h = (h + 2 * padding - 3) // stride + 1
        out_w = (w + 2 * padding - 3) // stride + 1
        _, full = conv_full_loops(x, rng.normal(size=(out_c, 3, 3, c)), stride, padding)
        _, depth = depthwise_loops(x, rng.normal(size=(c, 3, 3)), stride, padding)
        _, point = pointwise_loops(rng.normal(size=(out_h, out_w, c)), rng.normal(size=(out_c, c)))
        for label, counted, formula in (
            ("full conv", full, kernels.full_conv_macs(out_h, out_w, 3, c, out_c)),
            ("depthwise", depth, kernels.depthwise_conv_macs(out_h, out_w, 3, c)),
            ("pointwise", point, kernels.pointwise_conv_macs(out_h, out_w, c, out_c)),
            ("separable", depth + point, kernels.separable_conv_macs(out_h, out_w, 3, c, out_c)),
        ):
            if counted != formula:
                return CheckResult(name, False, f"{label}: counted {counted}, formula {formula}")
    return CheckResult(name, True, f"{trials} random shapes, every counter exact")


def check_mac_ratio_exact() -> CheckResult:
    """Counted separable/full ratio for k=3, out_c=64 is exactly 1/64 + 1/9."""
    h = w = 8
    c = 8
    out_c = 64
    x = np.zeros((h, w, c))
    _, full = conv_full_loops(x, np.zeros((out_c, 3, 3, c)), 1, 1)
    _, depth = depthwise_loops(x, np.zeros((c, 3, 3)), 1, 1)
    _, point = pointwise_loops(np.zeros((h, w, c)), np.zeros((out_c, c)))
    counted = Fraction(depth + point, full)
    expected = Fraction(1, 64) + Fraction(1, 9)
    formula = kernels.separable_to_full_mac_ratio(3, 64)
    ok = counted == expected and formula == float(expected)
    return CheckResult(
        "separable/full MAC ratio (k=3, 64 out channels)",
        ok,
        f"counted {counted}, formula {formula!r}; 1/64 + 1/9 == {float(expected)!r}",
    )


def check_identities(rng) -> CheckResult:
    """Batchnorm/ReLU/residual identity behaviors."""
    x = Tensor3(rng.normal(size=(5, 5, 4)))
    c = x.channels
    bn = kernels.batchnorm(x, kernels.BatchNormParams.identity(c), epsilon=0.0)
    if not np.array_equal(bn.data, x.data):
        return CheckResult("identity parameter behaviors", False, "batchnorm identity failed")
    r1 = kernels.relu(x)
    if not np.array_equal(kernels.relu(r1).data, r1.data):
        return CheckResult("identity parameter behaviors", False, "relu not idempotent")
    zero_w = kernels.InvertedResidualWeights.zeros(c, c, expansion_factor=6)
    block = kernels.inverted_residual(x, zero_w, stride=1)
    if not np.array_equal(block.data, x.data):
        return CheckResult("identity parameter behaviors", False, "zero-weight residual not identity")
    # same channel count in and out, so only the stride keeps the skip away
    strided = kernels.inverted_residual(Tensor3(rng.normal(size=(6, 6, 3))),
                                        kernels.InvertedResidualWeights.zeros(3, 3, 2), stride=2)
    if strided.shape != (3, 3, 3) or np.any(strided.data):
        return CheckResult("identity parameter behaviors", False,
                           f"stride-2 zero-weight block: shape {strided.shape}, "
                           f"max |out| {np.max(np.abs(strided.data)):.3e}; expected all-zero (3, 3, 3)")
    return CheckResult("identity parameter behaviors", True,
                       "batchnorm/relu/zero-residual identities hold, stride-2 zero block is all-zero")


def check_channel_independence(rng, trials=10) -> CheckResult:
    """Depthwise output channel c ignores perturbations of other input channels."""
    for _ in range(trials):
        c = int(rng.integers(2, 5))
        x = rng.normal(size=(6, 6, c))
        dw = rng.normal(size=(c, 3, 3))
        base = kernels.depthwise_conv(Tensor3(x), dw, 1, 1).data
        target = int(rng.integers(0, c))
        perturbed = x.copy()
        perturbed[:, :, target] += rng.normal(size=(6, 6))
        out = kernels.depthwise_conv(Tensor3(perturbed), dw, 1, 1).data
        others = [ch for ch in range(c) if ch != target]
        if others and not np.array_equal(out[:, :, others], base[:, :, others]):
            return CheckResult("depthwise channel independence", False,
                               f"channel {target} perturbation leaked")
    return CheckResult("depthwise channel independence", True, f"{trials} perturbation trials")


def run_all(seed: int = 0) -> list[CheckResult]:
    rng = np.random.default_rng(seed)
    return [
        check_separable_equivalence(rng),
        check_kernels_against_loops(rng),
        check_channel_independence(rng),
        check_identities(rng),
        check_mac_formulas(rng),
        check_mac_ratio_exact(),
    ]
