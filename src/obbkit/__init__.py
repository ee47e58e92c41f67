"""Oriented bounding box toolkit.

Geometry for the OBB <-> HBB+(w, h) transform, per-pixel training
targets, the detection loss stack with analytic gradients, channel
self-attention branch fusion, rotated NMS, and VOC-style mAP evaluation
over DOTA-format files.
"""

from .errors import (
    DegenerateQuad,
    Diverged,
    NonFiniteScore,
    ObbkitError,
    ParseError,
    ShapeMismatch,
    UnknownCategory,
    UnknownClass,
)
from .geometry import (
    EncodedBox,
    HBB,
    Point2,
    Quad,
    canonicalize,
    canonicalize_many,
    decode,
    encode,
    encode_many,
    hbb_overlap,
    polygon_iou,
    polygon_iou_pairs,
    quad_arrays,
    quad_from_offsets,
    quad_list,
    quads_from_offsets,
    raster_iou_oracle,
)
from .targets import (
    FeatureGridSpec,
    GroundTruthObject,
    LevelRanges,
    TargetMaps,
    assign_targets,
    centerness,
    grid_specs,
)
from .losses import (
    FitDemoResult,
    LossBreakdown,
    LossWeights,
    PredictionBatch,
    TotalLossResult,
    bce,
    fit_demo,
    focal_loss,
    grad_check,
    inner_box,
    iou_hbb_loss,
    iou_obb_loss,
    smooth_l1,
    total_loss,
)
from .ie_attention import AttentionWeights, FeatureMap, ie_fuse
from .inference import (
    Detection,
    DetectionSet,
    nms_per_image,
    run_inference,
)
from .evaluation import (
    APReport,
    ClassTable,
    GtIndex,
    MODE_11POINT,
    MODE_ALLPOINT,
    PRCurve,
    average_precision,
    evaluate,
    match_detections,
    pr_curve,
)
from .config import RunConfig, build_config, read_config_file

__version__ = "0.1.0"
