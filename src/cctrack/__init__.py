"""Detector-agnostic centroid + correlation multi-object tracking toolkit.

Ships the association/lifecycle tracker, NCC patch correlation, SSD-style
prior-box grid arithmetic, separable-convolution reference kernels with
MAC accounting, precision/recall/accuracy threshold sweeps, and a seeded
synthetic crowd generator, all wired behind the `cctrack` CLI.
"""

from .correlation import CorrelationResult, correlate_track
from .evaluation import (
    NINE_THRESHOLDS,
    ConfusionCounts,
    GroundTruthRecord,
    MetricsReport,
    count_tn,
    evaluate_at,
    group_by_frame,
    match_frame,
    metrics,
    threshold_sweep,
)
from .geometry import BoundingBox, Detection, Point, centroid, euclidean, iou
from .kernels import (
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
from .priorbox import (
    FeatureMapSpec,
    PriorBoxLayout,
    default_layer_specs,
    generate_prior_centers,
    per_layer_counts,
    prior_box_count,
)
from .scenario import (
    SCENARIO_PRESETS,
    Scenario,
    ScenarioConfig,
    crowd_category,
    generate,
    preset_config,
    render_frames,
)
from .tracker import (
    AssociationResult,
    CentroidCorrelationTracker,
    FrameUpdate,
    Track,
    TrackerConfig,
    associate,
)

__version__ = "0.1.0"
