"""Weighted-averaging classification with conformal guarantees.

A small MLP maps inputs to a low-dimensional embedding; predictions are
Gaussian-kernel-weighted votes over embedded training instances, which
makes every prediction explainable by the training data that produced it.
A held-out calibration split turns nonconformity scores into per-class
p-values: error-rate-controlled label sets, confidence, credibility, and
out-of-domain detection. A conventional softmax head is included for
comparison.
"""

from .conformal import (
    EPSILON_GRID,
    MEASURES,
    NEG_PROB,
    NEG_WEIGHT_SUM,
    ConformalScores,
    CoverageRow,
    calibrate,
    conformal_predict,
    coverage_report,
    nonconformity,
    p_values,
)
from .data import (
    ColumnSpec,
    Dataset,
    FeatureStats,
    ModelArtifact,
    Schema,
    load_model,
    make_blobs,
    save_model,
)
from .evaluate import (
    CalibrationMae,
    OodReport,
    accuracy,
    calibration_mae,
    ood_cross_dataset,
    ood_holdout_class_multi,
)
from .explain import Explanation, agreement_at_k, explain_many, explain_with_agreement
from .heads import (
    DEFAULT_SIGMA,
    EmbeddedTrainingSet,
    Predictions,
    dwac_batch_loss,
    dwac_predict,
    kernel_weights,
    softmax_batch_loss,
    softmax_predict,
)
from .linalg import make_rng, pairwise_sq_distances, shuffle_split
from .network import (
    DWAC,
    SOFTMAX,
    AdamState,
    EmbeddingModel,
    MlpSpec,
    adam_step,
    backward,
    forward,
    init_model,
)
from .trainer import TrainConfig, TrainResult, embed_training_set, predict, train, train_many

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_SIGMA",
    "DWAC",
    "EPSILON_GRID",
    "MEASURES",
    "NEG_PROB",
    "NEG_WEIGHT_SUM",
    "SOFTMAX",
    "AdamState",
    "CalibrationMae",
    "ColumnSpec",
    "ConformalScores",
    "CoverageRow",
    "Dataset",
    "EmbeddedTrainingSet",
    "EmbeddingModel",
    "Explanation",
    "FeatureStats",
    "MlpSpec",
    "ModelArtifact",
    "OodReport",
    "Predictions",
    "Schema",
    "TrainConfig",
    "TrainResult",
    "accuracy",
    "adam_step",
    "agreement_at_k",
    "backward",
    "calibrate",
    "calibration_mae",
    "conformal_predict",
    "coverage_report",
    "dwac_batch_loss",
    "dwac_predict",
    "embed_training_set",
    "explain_many",
    "explain_with_agreement",
    "forward",
    "init_model",
    "kernel_weights",
    "load_model",
    "make_blobs",
    "make_rng",
    "nonconformity",
    "ood_cross_dataset",
    "ood_holdout_class_multi",
    "p_values",
    "pairwise_sq_distances",
    "predict",
    "save_model",
    "shuffle_split",
    "softmax_batch_loss",
    "softmax_predict",
    "train",
    "train_many",
]
