"""Binary event detection from risk trajectories via dynamic thresholds.

Per location the detector keeps a threshold that is updated only after
incorrect predictions (raise after a false alarm, lower after a miss on the
first step), projected into a per-location band, floored so that sharp risk
rises lift it quickly, and reset outright when the risk collapses.  A step
is flagged only when the relative risk increase clears a slope gate and the
risk exceeds the threshold.  Three screening rules can additionally veto
positives before they are emitted, to cap false alarms:

1. the location must have had at least one fire in the validation window,
2. emitted detections must not exceed the validation-window fire count,
3. the time since the last emitted positive must reach the average
   validation occurrence gap.

Screening filters the output stream only; the threshold feedback runs on
the detector's own raw predictions.  The validation statistics are frozen
and every ``detect`` call starts its detection counters at zero.

Locations never interact, so the detector steps all of them together: one
loop over the T steps on K-vectors runs the gate and the updates, and the
screening rules are applied as vector masks over the same steps.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ThresholdConfig:
    """Detector knobs: a per-location band and learning rate, and one slope
    gate and two ratio knobs shared by every location.

    ``from_first_day_risk`` derives the defaults: band endpoints at
    risk/1.8 and risk*1.8, learning rate (band width) / horizon^1.5, slope
    gate 0.05, and both ratio knobs at 1.1.
    """

    tau_min: np.ndarray
    tau_max: np.ndarray
    eta: np.ndarray
    delta: float
    a1: float
    a2: float

    def __post_init__(self):
        for name in ("tau_min", "tau_max", "eta"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        for name in ("delta", "a1", "a2"):
            object.__setattr__(self, name, float(getattr(self, name)))
        if np.any(self.tau_min > self.tau_max):
            raise ValueError("tau_min must be <= tau_max")
        if np.any(self.eta < 0) or not self.delta >= 0:  # a NaN delta too; an infinite one blocks every alarm
            raise ValueError("eta and delta must be nonnegative")
        if not self.a1 > 0 or not self.a2 > 0:  # NaN too
            raise ValueError("a1 and a2 must be positive")

    @classmethod
    def from_first_day_risk(
        cls,
        first_risk: np.ndarray,
        horizon_steps: int,
        delta: float = 0.05,
        a1: float = 1.1,
        a2: float = 1.1,
    ) -> "ThresholdConfig":
        first_risk = np.asarray(first_risk, dtype=float)
        if np.any(first_risk <= 0):
            raise ValueError(
                "first-day risk must be strictly positive (clamp the risk series upstream)"
            )
        tau_min = first_risk / 1.8
        tau_max = first_risk * 1.8
        eta = (tau_max - tau_min) / horizon_steps**1.5
        return cls(tau_min=tau_min, tau_max=tau_max, eta=eta, delta=delta, a1=a1, a2=a2)


@dataclass(frozen=True)
class ScreeningState:
    """Per-location validation statistics the screening rules read."""

    fire_count: np.ndarray     # fires per location in the validation window
    avg_gap: np.ndarray        # mean gap (days) between validation fires

    def __post_init__(self):
        object.__setattr__(self, "fire_count", np.asarray(self.fire_count, dtype=np.int64))
        object.__setattr__(self, "avg_gap", np.asarray(self.avg_gap, dtype=float))

    @classmethod
    def from_validation(cls, truth: np.ndarray) -> "ScreeningState":
        """Build the per-location statistics from a (T, K) validation truth
        matrix with entries in {-1, 1}; a single fire gets gap = T."""
        truth = np.asarray(truth)
        T, K = truth.shape
        fires = truth == 1
        counts = fires.sum(axis=0)
        # mean gap between consecutive fire steps = (last - first) / (count - 1)
        steps = np.arange(T)[:, None]
        first = np.where(fires, steps, T).min(axis=0, initial=T)
        last = np.where(fires, steps, -1).max(axis=0, initial=-1)
        spread = (last - first) / np.maximum(counts - 1, 1)
        gaps = np.where(counts >= 2, spread, np.where(counts == 1, float(T), np.inf))
        return cls(fire_count=counts, avg_gap=gaps)


@dataclass(frozen=True)
class DetectionTrace:
    """Per (step, location): risk, final threshold, emitted prediction, truth."""

    risk: np.ndarray        # (T, K)
    threshold: np.ndarray   # (T, K)
    prediction: np.ndarray  # (T, K), values in {-1, 1}
    truth: np.ndarray       # (T, K), values in {-1, 1}


def detect(
    risk: np.ndarray,
    truth: np.ndarray,
    config: ThresholdConfig,
    screening: ScreeningState | None = None,
) -> DetectionTrace:
    """Run the dynamic-threshold detector on a (T, K) risk matrix.

    ``truth`` has entries in {-1, 1} and is consumed one step behind the
    predictions (feedback).  ``screening=None`` disables the veto rules;
    otherwise no detection has been emitted before the first step.

    All locations advance together: one loop over the T steps runs the
    dynamics on K-vectors, and a second applies the screening rules to the
    raw predictions as vector masks.
    """
    risk = np.asarray(risk, dtype=float)
    truth = np.asarray(truth)
    if risk.shape != truth.shape:
        raise ValueError(f"risk shape {risk.shape} != truth shape {truth.shape}")
    if risk.ndim != 2:
        raise ValueError("risk must be (steps, locations)")
    if np.any(risk <= 0):
        raise ValueError("risk series must be strictly positive (clamp upstream)")
    if not np.all(np.isin(truth, (-1, 1))):
        raise ValueError("truth entries must be -1 or 1")
    T, K = risk.shape
    if len(config.tau_min) != K:
        raise ValueError("config has wrong number of locations")
    tau_min, eta, delta, a2 = config.tau_min, config.eta, config.delta, config.a2

    def raised(base, prev):
        """False-alarm update: clamp into [tau_min, tau_max], floor at prev / a1."""
        return np.maximum(np.clip(base, tau_min, config.tau_max), prev / config.a1)

    thresholds = np.empty((T, K))
    raw = np.empty((T, K), dtype=np.int64)
    # first step: no slope gate, and a miss lowers the threshold as well
    thresholds[0] = tau_min
    raw[0] = np.where(risk[0] > tau_min, 1, -1)
    tau = np.where(raw[0] != truth[0], raised(tau_min + eta * raw[0], risk[0]), tau_min)
    for t in range(1, T):
        lam, prev = risk[t], risk[t - 1]
        fire = (np.abs((lam - prev) / prev) >= delta) & (lam > tau)
        tau = np.where(fire & (truth[t] != 1), raised(thresholds[t - 1] + eta, prev), tau)
        tau = np.where(lam <= prev / a2, lam, tau)
        thresholds[t] = tau
        raw[t] = np.where(fire, 1, -1)
    predictions = raw if screening is None else _screen(raw, screening)
    return DetectionTrace(risk=risk, threshold=thresholds, prediction=predictions, truth=truth)


def _screen(raw: np.ndarray, state: ScreeningState) -> np.ndarray:
    """Veto the raw positives that break a screening rule, step by step;
    the detection counters start at zero and advance with every emitted
    positive."""
    emitted = raw.copy()
    detections = np.zeros(raw.shape[1], dtype=np.int64)
    last_positive = np.full(raw.shape[1], -np.inf)
    for t in range(len(raw)):
        positive = raw[t] == 1
        allowed = (
            positive
            & (state.fire_count >= 1)
            & (detections < state.fire_count)
            & (t - last_positive >= state.avg_gap)
        )
        emitted[t, positive & ~allowed] = -1
        detections += allowed
        last_positive[allowed] = t
    return emitted
