"""Why depthwise-separable convolutions are the cheap substitute.

A full convolution mixes space and channels in one big product. Splitting
it into a per-channel spatial pass (depthwise) plus a 1x1 channel mix
(pointwise) computes the same *family* of functions at a fraction of the
multiply-accumulate cost. When the full conv's weights happen to factor,
the two results agree to machine precision.
"""

import numpy as np

from cctrack import (
    Tensor3,
    conv2d_full,
    depthwise_separable,
    full_conv_macs,
    separable_conv_macs,
    separable_to_full_mac_ratio,
)

rng = np.random.default_rng(0)

# --- equivalence on factorized weights -----------------------------------
x = Tensor3(rng.normal(size=(8, 8, 4)))
depthwise = rng.normal(size=(4, 3, 3))
mix = rng.normal(size=(16, 4))

separable = depthwise_separable(x, depthwise, mix, stride=1, padding=1)
# conv2d_full(x, weights, stride=1, padding=0) reads k and both channel
# counts off the (out_channels, k, k, in_channels) weights.
factorized_weights = np.einsum("cij,oc->oijc", depthwise, mix)
full = conv2d_full(x, factorized_weights, stride=1, padding=1)

print("separable vs factorized full convolution")
print(f"  output shape      {separable.shape}")
print(f"  max |difference|  {np.max(np.abs(separable.data - full.data)):.2e}")

# --- the cost story --------------------------------------------------------
print("\nMAC counts on a 32x32 feature map, 3x3 kernel:")
print(f"{'channels':>10} {'full':>12} {'separable':>12} {'ratio':>8}")
for channels in (16, 32, 64, 128):
    full_cost = full_conv_macs(32, 32, 3, channels, channels)
    sep_cost = separable_conv_macs(32, 32, 3, channels, channels)
    print(f"{channels:>10} {full_cost:>12,} {sep_cost:>12,} {sep_cost / full_cost:>8.4f}")

print("\nThe ratio closes on 1/out_channels + 1/k^2:")
print(f"  64 output channels, k=3 -> {separable_to_full_mac_ratio(3, 64):.6f} "
      f"(= 1/64 + 1/9 = {1 / 64 + 1 / 9:.6f})")
