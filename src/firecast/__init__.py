"""firecast: discrete-location event risk with mutually exciting point
processes, dynamic detection thresholds, and ensemble conformal sets."""

# the one version literal: pyproject.toml and run manifests read it from here
__version__ = "0.1.0"

from .conformal import (
    ConformalRun,
    LogisticClassifier,
    ScoreParams,
    build_set,
    eraps,
    sraps,
)
from .estimation import (
    FeasibleSet,
    FitConfig,
    FitResult,
    NonFiniteGradientError,
    alternating_fit,
    grid_fit,
    pgd_fit,
    project,
    projected_gradient_descent,
)
from .events import EventSequence, load_events_csv, save_events_csv
from .marks import LinearMarkModel, NonLinearMarkModel, kde_scorer
from .model import (
    ModelParams,
    RATE_FLOOR,
    mask_from_centroids,
    neighbor_pairs,
    objective_gradient,
    penalized_objective,
)
from .pipeline import (
    GridSpec,
    MetricsReport,
    f1_metrics,
    ingest,
    risk_series,
    run_end_to_end,
)
from .simulation import SimConfig, simulate, simulate_clusters
from .thresholding import DetectionTrace, ScreeningState, ThresholdConfig, detect
