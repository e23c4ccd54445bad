"""Detector-agnostic centroid + correlation multi-object tracking toolkit.

Ships the association/lifecycle tracker, NCC patch correlation, SSD-style
prior-box grid arithmetic, separable-convolution reference kernels with
MAC accounting, precision/recall/accuracy threshold sweeps, and a seeded
synthetic crowd generator, all wired behind the `cctrack` CLI.

Names and submodules are imported on first use (PEP 562), so numpy is
loaded only by the code that handles pixels.
"""

import importlib

_NAMES_BY_SUBMODULE = {
    "correlation": ("CorrelationResult", "correlate_track"),
    "evaluation": (
        "NINE_THRESHOLDS",
        "ConfusionCounts",
        "GroundTruthRecord",
        "MetricsReport",
        "count_tn",
        "evaluate_at",
        "group_by_frame",
        "match_frame",
        "metrics",
        "threshold_sweep",
    ),
    "geometry": ("BoundingBox", "Detection", "Point", "centroid", "euclidean", "iou"),
    "kernels": (
        "BatchNormParams",
        "InvertedResidualWeights",
        "Tensor3",
        "batchnorm",
        "conv2d_full",
        "conv_output_size",
        "depthwise_conv",
        "depthwise_conv_macs",
        "depthwise_separable",
        "full_conv_macs",
        "inverted_residual",
        "pointwise_conv",
        "pointwise_conv_macs",
        "relu",
        "separable_conv_macs",
        "separable_to_full_mac_ratio",
    ),
    "priorbox": (
        "FeatureMapSpec",
        "default_layer_specs",
        "generate_prior_centers",
        "prior_box_count",
    ),
    "scenario": (
        "SCENARIO_PRESETS",
        "Scenario",
        "ScenarioConfig",
        "crowd_category",
        "generate",
        "preset_config",
        "render_frames",
    ),
    "tracker": (
        "AssociationResult",
        "CentroidCorrelationTracker",
        "FrameUpdate",
        "Track",
        "TrackerConfig",
        "associate",
    ),
}

# Each public name and the submodule that defines it.
_EXPORTS = {name: module for module, names in _NAMES_BY_SUBMODULE.items() for name in names}

_SUBMODULES = (*_NAMES_BY_SUBMODULE, "cli", "io", "selfcheck")

__all__ = list(_EXPORTS)

__version__ = "0.1.0"


def __getattr__(name):
    if name in _EXPORTS:
        value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    elif name in _SUBMODULES:
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_EXPORTS, *_SUBMODULES})
