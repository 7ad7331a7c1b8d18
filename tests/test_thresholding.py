import dataclasses

import numpy as np
import pytest

from firecast.thresholding import ScreeningState, ThresholdConfig, detect

from oracles import detect_oracle, screening_gaps_oracle
from reference_threshold import reference_dynamic_threshold


def default_config(first_risk, steps):
    return ThresholdConfig.from_first_day_risk(np.atleast_1d(first_risk), steps)


def random_series(rng, steps=50, K=1):
    # lognormal-ish positive risk with occasional spikes and drops
    base = np.exp(rng.normal(0.0, 0.4, size=(steps, K)))
    truth = np.where(rng.uniform(size=(steps, K)) < 0.15, 1, -1)
    return base, truth


class TestThresholdConfig:
    def test_defaults_from_first_day_risk(self):
        cfg = ThresholdConfig.from_first_day_risk(np.array([1.8]), horizon_steps=100)
        assert cfg.tau_min[0] == pytest.approx(1.0)
        assert cfg.tau_max[0] == pytest.approx(1.8 * 1.8)
        assert cfg.eta[0] == pytest.approx((1.8 * 1.8 - 1.0) / 100**1.5)
        assert cfg.delta == 0.05 and type(cfg.delta) is float
        assert cfg.a1 == cfg.a2 == 1.1 and type(cfg.a1) is type(cfg.a2) is float

    def test_degenerate_zero_risk_rejected(self):
        with pytest.raises(ValueError):
            ThresholdConfig.from_first_day_risk(np.array([0.0]), 10)

    def test_invariant_validation(self):
        with pytest.raises(ValueError):
            ThresholdConfig(
                tau_min=np.array([2.0]),
                tau_max=np.array([1.0]),
                eta=np.array([0.1]),
                delta=0.0,
                a1=1.1,
                a2=1.1,
            )
        for knob in ("delta", "a1", "a2"):
            with pytest.raises(ValueError, match=knob):
                ThresholdConfig(
                    tau_min=np.array([1.0]), tau_max=np.array([2.0]), eta=np.array([0.1]),
                    **{"delta": 0.05, "a1": 1.1, "a2": 1.1, knob: -1.0},
                )

    @pytest.mark.parametrize("knob", ["delta", "a1", "a2"])
    def test_nan_knob_rejected(self, knob):
        # every comparison with NaN is false, so a "knob < 0" check used to pass it
        with pytest.raises(ValueError, match=knob):
            ThresholdConfig(
                tau_min=np.array([1.0]), tau_max=np.array([2.0]), eta=np.array([0.1]),
                **{"delta": 0.05, "a1": 1.1, "a2": 1.1, knob: float("nan")},
            )


class TestDetect:
    def test_flat_series_slope_gate_blocks(self):
        # constant risk: the slope gate keeps every step from t=2 negative;
        # the first step has no gate and fires once against tau_min
        risk = np.ones((10, 1))
        truth = np.full((10, 1), -1)
        cfg = default_config(risk[0], 10)
        trace = detect(risk, truth, cfg)
        assert np.all(trace.prediction[1:] == -1)

    def test_hand_trace_step_and_spike(self):
        # frozen hand evaluation of the update rule on a 10-step series
        risk = np.array([1.0, 1.0, 1.0, 1.0, 2.0, 2.0, 2.0, 2.0, 2.0, 2.0]).reshape(-1, 1)
        truth = np.array([-1, -1, -1, -1, 1, -1, -1, -1, -1, -1]).reshape(-1, 1)
        cfg = default_config(risk[0], 10)
        trace = detect(risk, truth, cfg)

        tau1 = 1.0 / 1.8
        eta = (1.8 - tau1) / 10**1.5
        # t=1: 1 > tau1 -> positive, truth negative -> floor lifts to lam/a1
        tau2 = max(min(max(tau1 + eta, tau1), 1.8), 1.0 / 1.1)
        assert trace.prediction[0, 0] == 1
        assert trace.threshold[0, 0] == pytest.approx(tau1)
        assert trace.threshold[1, 0] == pytest.approx(tau2)
        # t=2..4 flat: negative, no updates
        assert np.all(trace.prediction[1:4, 0] == -1)
        assert np.allclose(trace.threshold[2:5, 0], tau2)
        # t=5: doubles and crosses -> positive, truth is fire -> no update
        assert trace.prediction[4, 0] == 1
        assert trace.threshold[4, 0] == pytest.approx(tau2)
        assert trace.threshold[5, 0] == pytest.approx(tau2)

    def test_matches_reference_interpreter(self):
        rng = np.random.default_rng(123)
        for trial in range(30):
            risk, truth = random_series(rng)
            cfg = default_config(risk[0], len(risk))
            trace = detect(risk, truth, cfg)
            ref_tau, ref_pred = reference_dynamic_threshold(
                risk[:, 0],
                truth[:, 0],
                float(cfg.tau_min[0]),
                float(cfg.tau_max[0]),
                float(cfg.eta[0]),
                cfg.delta,
                cfg.a1,
                cfg.a2,
            )
            assert np.array_equal(trace.prediction[:, 0], ref_pred)
            assert np.array_equal(trace.threshold[:, 0], ref_tau)

    def test_infinite_slope_gate_blocks_everything(self):
        rng = np.random.default_rng(5)
        risk, _ = random_series(rng, steps=40)
        truth = np.full_like(risk, -1, dtype=np.int64)
        cfg = ThresholdConfig(
            tau_min=np.array([float(risk[0, 0])]),  # first step cannot fire either
            tau_max=np.array([float(risk[0, 0]) * 2]),
            eta=np.array([0.01]),
            delta=np.inf,
            a1=1.1,
            a2=1.1,
        )
        trace = detect(risk, truth, cfg)
        assert np.all(trace.prediction == -1)

    def test_zero_slope_gate_is_pure_crossing(self):
        rng = np.random.default_rng(6)
        risk, truth = random_series(rng, steps=60)
        cfg = ThresholdConfig(
            tau_min=np.array([0.8]),
            tau_max=np.array([1.5]),
            eta=np.array([0.02]),
            delta=0.0,
            a1=1.1,
            a2=1.1,
        )
        trace = detect(risk, truth, cfg)
        # with delta=0 the gate always passes: positives are exactly
        # crossings of the threshold carried in from the previous step
        # (in-step rewrites happen after the decision)
        for t in range(1, len(risk)):
            carried = trace.threshold[t - 1, 0]
            assert trace.prediction[t, 0] == (1 if risk[t, 0] > carried else -1)

    def test_thresholds_update_only_on_errors_or_reset(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            risk, truth = random_series(rng, steps=50)
            cfg = default_config(risk[0], 50)
            trace = detect(risk, truth, cfg)
            for t in range(1, 50):
                changed = trace.threshold[t, 0] != trace.threshold[t - 1, 0]
                if not changed:
                    continue
                false_alarm = trace.prediction[t, 0] == 1 and truth[t, 0] == -1
                reset = risk[t, 0] <= risk[t - 1, 0] / cfg.a2
                # the step-2 threshold also moves when the ungated first
                # prediction was wrong (the initializer's error update)
                first_step_error = t == 1 and trace.prediction[0, 0] != truth[0, 0]
                assert false_alarm or reset or first_step_error

    def test_out_of_band_thresholds_come_from_reset_or_floor(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            risk, truth = random_series(rng, steps=50)
            cfg = default_config(risk[0], 50)
            trace = detect(risk, truth, cfg)
            lo, hi = cfg.tau_min[0], cfg.tau_max[0]
            for t in range(50):
                tau = trace.threshold[t, 0]
                if lo - 1e-12 <= tau <= hi + 1e-12:
                    continue
                # out-of-band values enter via the reset rule or the a1 floor
                # and may then persist by carry until the next update
                came_from_reset = tau == risk[t, 0]
                came_from_floor = t > 0 and tau == risk[t - 1, 0] / cfg.a1
                carried = t > 0 and tau == trace.threshold[t - 1, 0]
                assert came_from_reset or came_from_floor or carried

    def test_input_validation(self):
        cfg = default_config(np.array([1.0]), 5)
        with pytest.raises(ValueError):
            detect(np.ones((5, 1)), np.full((4, 1), -1), cfg)
        with pytest.raises(ValueError):
            detect(np.zeros((5, 1)), np.full((5, 1), -1), cfg)
        with pytest.raises(ValueError):
            detect(np.ones((5, 1)), np.zeros((5, 1)), cfg)


class TestScreening:
    def spiky_scenario(self, steps=30):
        # repeated sharp spikes that cross the threshold, never a real fire
        risk = np.ones((steps, 1))
        risk[4::5] = 4.0
        truth = np.full((steps, 1), -1)
        return risk, truth

    def test_rule1_vetoes_everything_without_history(self):
        risk, truth = self.spiky_scenario()
        cfg = default_config(risk[0], len(risk))
        screening = ScreeningState(fire_count=np.array([0]), avg_gap=np.array([np.inf]))
        trace = detect(risk, truth, cfg, screening)
        assert np.all(trace.prediction == -1)
        unscreened = detect(risk, truth, cfg)
        assert (unscreened.prediction == 1).any()

    def test_rule2_caps_detections_at_validation_count(self):
        risk, truth = self.spiky_scenario(60)
        cfg = default_config(risk[0], len(risk))
        screening = ScreeningState(fire_count=np.array([2]), avg_gap=np.array([1.0]))
        trace = detect(risk, truth, cfg, screening)
        assert (trace.prediction == 1).sum() <= 2

    def test_rule3_enforces_minimum_gap(self):
        risk, truth = self.spiky_scenario(60)
        cfg = default_config(risk[0], len(risk))
        screening = ScreeningState(fire_count=np.array([50]), avg_gap=np.array([12.0]))
        trace = detect(risk, truth, cfg, screening)
        positives = np.flatnonzero(trace.prediction[:, 0] == 1)
        assert len(positives) >= 1
        assert np.all(np.diff(positives) >= 12)

    def test_from_validation_statistics(self):
        truth = np.full((20, 2), -1)
        truth[3, 0] = truth[9, 0] = truth[15, 0] = 1
        truth[5, 1] = 1
        st = ScreeningState.from_validation(truth)
        assert st.fire_count.tolist() == [3, 1]
        assert st.avg_gap[0] == pytest.approx(6.0)
        assert st.avg_gap[1] == 20.0  # single fire: gap = window length

    def test_frozen_state_gives_the_same_detections_on_every_call(self):
        # each call starts its detection counters at zero, so the cap binds anew
        risk, truth = self.spiky_scenario(60)
        cfg = default_config(risk[0], len(risk))
        screening = ScreeningState(fire_count=[2], avg_gap=[1])
        assert screening.fire_count.dtype == np.int64 and screening.avg_gap.dtype == float
        first = detect(risk, truth, cfg, screening)
        second = detect(risk, truth, cfg, screening)
        assert (first.prediction == 1).sum() == 2
        assert np.array_equal(first.prediction, second.prediction)
        with pytest.raises(dataclasses.FrozenInstanceError):
            screening.fire_count = np.array([5])


def reference_columns(risk, truth, cfg):
    """reference_dynamic_threshold run on every column; (thresholds, predictions)."""
    cols = [
        reference_dynamic_threshold(
            risk[:, k], truth[:, k], float(cfg.tau_min[k]), float(cfg.tau_max[k]), float(cfg.eta[k]),
            cfg.delta, cfg.a1, cfg.a2,
        )
        for k in range(risk.shape[1])
    ]
    return np.stack([c[0] for c in cols], axis=1), np.stack([c[1] for c in cols], axis=1)


def heterogeneous_case(seed=0, T=60):
    """K=6 columns with different bands and learning rates under one slope
    gate and a1 != a2: a column that collapses (resets) often, and exact ties
    lam[t] == carried tau and lam[t] == lam[t-1]/a2 planted by construction."""
    rng = np.random.default_rng(seed)
    risk, truth = random_series(rng, steps=T, K=6)
    risk[::7, 3] *= 0.3  # column 3 collapses every week
    cfg = ThresholdConfig(
        tau_min=risk[0] / np.array([1.8, 1.0, 1.5, 1.8, 1.2, 1.8]),  # column 1: lam[0] == tau_min
        tau_max=risk[0] * 1.8,
        eta=np.array([0.05, 0.02, 0.1, 0.05, 0.0, 0.03]),
        delta=0.05,
        a1=1.3,
        a2=1.2,
    )
    for k, ties in ((0, (5, 17, 33)), (4, (9, 26)), (5, (12, 40))):
        for t in ties:
            # the threshold carried into step t is the final one of step t-1
            tau, _ = reference_columns(risk[:t], truth[:t], cfg)
            risk[t, k] = tau[t - 1, k]
    for k, t in ((1, 21), (2, 8), (3, 30), (4, 44)):
        risk[t, k] = risk[t - 1, k] / cfg.a2
    return risk, truth, cfg


class TestDetectAcrossLocations:
    def test_columns_match_reference_bit_for_bit(self):
        for seed in range(5):
            risk, truth, cfg = heterogeneous_case(seed)
            trace = detect(risk, truth, cfg)
            ref_tau, ref_pred = reference_columns(risk, truth, cfg)
            assert np.array_equal(trace.threshold, ref_tau)
            assert np.array_equal(trace.prediction, ref_pred)

    def test_planted_ties_are_exercised(self):
        risk, truth, cfg = heterogeneous_case(0)
        trace = detect(risk, truth, cfg)
        carried = np.vstack([trace.threshold[:1], trace.threshold[:-1]])
        assert (risk[1:] == carried[1:]).sum() >= 7
        assert (risk[1:] == risk[:-1] / cfg.a2).sum() >= 4
        resets = risk[1:] <= risk[:-1] / cfg.a2
        assert resets[:, 3].sum() >= 5

    def test_screened_columns_match_per_location_oracle(self):
        for seed in range(5):
            risk, truth, cfg = heterogeneous_case(seed)
            risk[5::5] *= 3.0  # regular spikes: raw positives every 5 steps
            screening = ScreeningState(
                fire_count=np.array([0, 2, 50, 50, 50, 3]),  # none; cap hit; gap ties
                avg_gap=np.array([np.inf, 1.0, 5.0, 10.0, 5.0, 0.0]),
            )
            trace = detect(risk, truth, cfg, screening)
            ref_tau, ref_pred = detect_oracle(risk, truth, cfg, screening)
            assert np.array_equal(trace.threshold, ref_tau)
            assert np.array_equal(trace.prediction, ref_pred)
            # screening only vetoes: thresholds follow the raw predictions
            assert np.array_equal(trace.threshold, detect(risk, truth, cfg).threshold)
            assert np.all(trace.prediction[:, 0] == -1)
            # from zero counters the cap binds: the oracle emits each validation count
            assert np.array_equal((ref_pred[:, [1, 5]] == 1).sum(axis=0), screening.fire_count[[1, 5]])
            # rule 3 passes on the tie t - last_positive == avg_gap
            for k in (3, 4):
                gaps = np.diff(np.flatnonzero(trace.prediction[:, k] == 1))
                assert len(gaps) >= 2 and gaps.min() == screening.avg_gap[k]


class TestFromValidation:
    def test_gaps_match_per_column_loop(self):
        rng = np.random.default_rng(11)
        for trial in range(20):
            T, K = int(rng.integers(2, 40)), int(rng.integers(2, 12))
            rate = rng.uniform(0.0, 0.5, size=K)
            truth = np.where(rng.uniform(size=(T, K)) < rate, 1, -1)
            truth[:, 0] = -1  # no fire
            truth[:, 1] = -1
            truth[int(rng.integers(T)), 1] = 1  # one fire
            st = ScreeningState.from_validation(truth)
            assert np.array_equal(st.fire_count, (truth == 1).sum(axis=0))
            assert st.avg_gap.tobytes() == screening_gaps_oracle(truth).tobytes()
        assert ((truth == 1).sum(axis=0) >= 2).any()
        empty = np.zeros((0, 3), dtype=np.int64)
        assert np.array_equal(ScreeningState.from_validation(empty).avg_gap, screening_gaps_oracle(empty))
