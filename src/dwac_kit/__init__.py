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
)
from .data import (
    ColumnSpec,
    Dataset,
    FeatureStats,
    ModelArtifact,
    Schema,
    blob_data,
    load_model,
    make_blobs,
    save_model,
)
from .evaluate import (
    OodReport,
    accuracy,
    calibration_mae,
    ood_cross_dataset,
    ood_holdout_class_multi,
    trial_splits,
)
from .explain import Explanation, explain_with_agreement
from .heads import (
    DEFAULT_SIGMA,
    EmbeddedTrainingSet,
    Predictions,
    dwac_batch_loss,
    dwac_predict,
    softmax_batch_loss,
    softmax_predict,
)
from .linalg import make_rng, pairwise_sq_distances, shuffle_split
from .network import (
    DWAC,
    SOFTMAX,
    EmbeddingModel,
    MlpSpec,
    forward,
)
from .trainer import TrainConfig, TrainResult, embed_training_set, predict, train, train_many

__version__ = "0.1.0"
