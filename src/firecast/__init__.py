"""firecast: discrete-location event risk with mutually exciting point
processes, dynamic detection thresholds, and ensemble conformal sets."""

# the one version literal: pyproject.toml and run manifests read it from here
__version__ = "0.1.0"

from .conformal import (
    CalibrationStore,
    ConformalRun,
    LogisticClassifier,
    PredictionSet,
    ScoreParams,
    build_set,
    coverage_report,
    eraps,
    mass_above,
    rank_of,
    score,
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
    conditional_intensity,
    ground_intensity,
    integrated_ground_intensity,
    log_likelihood,
    mask_from_centroids,
    mask_from_index_distance,
    objective_gradient,
    penalized_objective,
)
from .pipeline import (
    GridSpec,
    MetricsReport,
    PreprocessConfig,
    f1_metrics,
    ingest,
    risk_series,
    run_end_to_end,
)
from .simulation import RecoveryReport, SimConfig, recovery_experiment, simulate
from .thresholding import DetectionTrace, ScreeningState, ThresholdConfig, detect
