"""refscan: reference-conditioned trajectory retrieval and grounding.

Given per-frame visual token grids, a textual reference, and keyframe
detections, the pipeline retrieves semantic-aligned token trajectories,
aggregates them with linear state-space scans at three semantic
hierarchies, fuses the hierarchies with prompt-augmented cross-attention
over temporal and spatial branches, and predicts the referred person's
box plus multi-label actions. Trainable end to end on synthetic
planted-signal fixtures.
"""

from .config import TrainConfig
from .fusion import (
    ModelOutput,
    PipelineSample,
    cross_attention,
    forward,
    fuse_predictions,
    init_model_params,
    pool_spatial,
    pool_temporal,
)
from .metrics import EvalRecord, auroc, iou, mean_iou, multilabel_map
from .retrieval import TrajectorySet, VisualTokenGrid, build_trajectory_set, nearest_token
from .semantics import (
    Detection,
    ReferenceBundle,
    SyntheticEncoder,
    build_scene_attribute_tokens,
    default_stopwords,
    embed_reference,
    synthetic_encode,
    tokenize_and_filter,
)
from .ssm import ScanOutput, SsmLayerParams, ssm_scan, ssm_scan_oracle

__version__ = "0.1.0"

__all__ = [
    "Detection",
    "EvalRecord",
    "ModelOutput",
    "PipelineSample",
    "ReferenceBundle",
    "ScanOutput",
    "SsmLayerParams",
    "SyntheticEncoder",
    "TrajectorySet",
    "TrainConfig",
    "VisualTokenGrid",
    "auroc",
    "build_scene_attribute_tokens",
    "build_trajectory_set",
    "cross_attention",
    "default_stopwords",
    "embed_reference",
    "forward",
    "fuse_predictions",
    "init_model_params",
    "iou",
    "mean_iou",
    "multilabel_map",
    "nearest_token",
    "pool_spatial",
    "pool_temporal",
    "ssm_scan",
    "ssm_scan_oracle",
    "synthetic_encode",
    "tokenize_and_filter",
]
