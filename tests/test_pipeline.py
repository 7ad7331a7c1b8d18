import json

import numpy as np
import pytest

from firecast.conformal import ConformalRun
from firecast.events import EventSequence, load_events_csv, save_events_csv
from firecast.marks import LinearMarkModel, NonLinearMarkModel, kde_scorer
from firecast.model import RATE_FLOOR, ModelParams
from firecast.pipeline import (
    GridSpec,
    MarkStats,
    PipelineError,
    counterfactual_delta,
    daily_truths,
    f1_metrics,
    impute_series,
    ingest,
    query_marks_by_location,
    read_detections_csv,
    risk_series,
    run_end_to_end,
    write_conformal_sets_jsonl,
    write_detections_csv,
    write_metrics_csv,
)
from firecast.thresholding import DetectionTrace

from oracles import (
    f1_oracle,
    naive_ground_intensity,
    read_detections_csv_oracle,
    save_events_csv_oracle,
    write_conformal_sets_jsonl_oracle,
    write_detections_csv_oracle,
)


class TestGridSpec:
    def setup_method(self):
        self.grid = GridSpec(lat_min=32.0, lon_min=-124.0, lat_max=34.4, lon_max=-121.6,
                             cell_size=0.24, excluded=(0, 5, 17))

    def test_round_trip_identity(self):
        for cid in range(self.grid.num_cells):
            lat, lon = self.grid.centroid(cid)
            assert self.grid.cell_of(lat, lon) == cid

    def test_excluded_and_outside_map_nowhere(self):
        full = GridSpec(lat_min=0, lon_min=0, lat_max=1, lon_max=1, cell_size=0.5,
                        excluded=(0,))
        assert full.cell_of(0.1, 0.1) is None  # excluded cell
        assert full.cell_of(2.0, 0.1) is None  # outside the box
        assert full.num_cells == 3

    def test_boundary_points_clamp_into_last_cell(self):
        grid = GridSpec(lat_min=0, lon_min=0, lat_max=1, lon_max=1, cell_size=0.5)
        assert grid.cell_of(1.0, 1.0) == grid.num_cells - 1

    def test_dict_round_trip(self):
        back = GridSpec.from_dict(self.grid.to_dict())
        assert back == self.grid


class TestImputation:
    def test_sinusoid_with_holes(self):
        rng = np.random.default_rng(0)
        t = np.sort(rng.uniform(0, 40, size=120))
        signal = np.sin(2 * np.pi * t / 17.0)
        holes = rng.uniform(size=len(t)) < 0.10
        holes[[0, -1]] = False  # keep the support ends observed
        values = np.where(holes, np.nan, signal)
        filled = impute_series(t, values)
        assert np.max(np.abs(filled[holes] - signal[holes])) < 0.05
        # observed entries never change
        assert np.array_equal(filled[~holes], signal[~holes])

    def test_linear_fallback_below_six_points(self):
        t = np.array([0.0, 1.0, 2.0, 3.0, 4.0])
        v = np.array([0.0, np.nan, 2.0, np.nan, 4.0])
        filled = impute_series(t, v)
        assert filled[1] == pytest.approx(1.0)
        assert filled[3] == pytest.approx(3.0)

    def test_constant_fallback_single_point(self):
        t = np.array([0.0, 1.0])
        v = np.array([3.0, np.nan])
        assert impute_series(t, v)[1] == 3.0


def write_csv(path, header, rows):
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(str(x) for x in row) + "\n")


class TestIngest:
    def test_rank_preservation_without_missing(self, tmp_path):
        path = tmp_path / "ev.csv"
        raw = [0.3, 0.9, 0.1, 0.5]
        write_csv(path, "time,location,temp",
                  [(i + 1.0, 0, v) for i, v in enumerate(raw)])
        res = ingest(path, horizon=10.0)
        col = res.sequence.marks[:, 0]
        assert list(np.argsort(col)) == list(np.argsort(raw))
        assert col.min() == 0.0 and col.max() == 1.0

    def test_constant_column_maps_to_half(self, tmp_path):
        path = tmp_path / "ev.csv"
        write_csv(path, "time,location,flat", [(i + 1.0, 0, 7.7) for i in range(5)])
        res = ingest(path, horizon=10.0)
        assert np.all(res.sequence.marks[:, 0] == 0.5)

    def test_unparseable_row_reports_line(self, tmp_path):
        path = tmp_path / "ev.csv"
        write_csv(path, "time,location,x", [(1.0, 0, 0.5), ("oops", 0, 0.5)])
        with pytest.raises(ValueError, match=r":3"):
            ingest(path, horizon=10.0)

    def test_outside_bbox_dropped_with_count(self, tmp_path):
        grid = GridSpec(lat_min=0, lon_min=0, lat_max=1, lon_max=1, cell_size=0.5)
        path = tmp_path / "raw.csv"
        write_csv(path, "time,lat,lon,x",
                  [(1.0, 0.2, 0.2, 0.4), (2.0, 5.0, 5.0, 0.6), (3.0, 0.8, 0.8, 0.9)])
        res = ingest(path, grid=grid, horizon=5.0)
        assert res.dropped_outside == 1
        assert "dropped 1 events" in res.messages[0]
        assert len(res.sequence) == 2

    def test_one_hot_and_magnitude(self, tmp_path):
        path = tmp_path / "ev.csv"
        write_csv(path, "time,location,season,magnitude",
                  [(1.0, 0, "summer", 2), (2.0, 0, "winter", 1), (3.0, 0, "summer", 3)])
        res = ingest(path, categorical_columns=("season",), horizon=5.0)
        assert res.stats.columns == ["season=summer", "season=winter"]
        assert set(np.unique(res.sequence.marks)) <= {0.0, 1.0}
        assert res.sequence.magnitudes.tolist() == [2, 1, 3]

    def test_frozen_stats_are_idempotent_on_scaled_data(self):
        rng = np.random.default_rng(1)
        col = rng.uniform(size=(50, 1))
        col[0, 0], col[1, 0] = 0.0, 1.0  # attain both ends
        stats = MarkStats.fit(col, ["x"])
        once = stats.transform(col)
        stats2 = MarkStats.fit(once, ["x"])
        assert np.allclose(stats2.transform(once), once, atol=1e-12)

    def test_missing_marks_imputed_per_location(self, tmp_path):
        path = tmp_path / "ev.csv"
        rows = []
        for i in range(12):
            val = "" if i == 6 else 0.1 * i
            rows.append((float(i + 1), 0, val))
        write_csv(path, "time,location,x", rows)
        res = ingest(path, horizon=15.0)
        assert not np.isnan(res.sequence.marks).any()
        # the hole sits on a straight line: spline reproduces it, scaling keeps order
        assert res.sequence.marks[6, 0] == pytest.approx(6 / 11, abs=1e-6)


class TestMetrics:
    def test_conventions(self):
        pred = np.full((5, 3), -1)
        truth = np.full((5, 3), -1)
        pred[1, 1] = truth[1, 1] = 1
        pred[2, 2] = 1  # false alarm at location 2
        rep = f1_metrics(pred, truth)
        assert rep.precision[0] == rep.recall[0] == rep.f1[0] == 1.0  # nothing anywhere
        assert rep.f1[1] == 1.0
        assert rep.precision[2] == 0.0 and rep.recall[2] == 1.0 and rep.f1[2] == 0.0

    def test_hand_counts(self):
        # |U| = 4 fires, |V| = 5 alarms, 3 hits
        T = 12
        truth = np.full((T, 1), -1)
        pred = np.full((T, 1), -1)
        for t in (0, 1, 2, 3):
            truth[t, 0] = 1
        for t in (0, 1, 2, 8, 9):
            pred[t, 0] = 1
        rep = f1_metrics(pred, truth)
        assert rep.precision[0] == pytest.approx(0.6)
        assert rep.recall[0] == pytest.approx(0.75)
        assert rep.f1[0] == pytest.approx(2 * 0.45 / 1.35)

    def test_bounds_on_random_pairs(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            pred = np.where(rng.uniform(size=(30, 4)) < 0.2, 1, -1)
            truth = np.where(rng.uniform(size=(30, 4)) < 0.2, 1, -1)
            rep = f1_metrics(pred, truth)
            for arr in (rep.precision, rep.recall, rep.f1):
                assert np.all((0 <= arr) & (arr <= 1))
            assert rep.hist_counts.sum() == 4

    def test_columns_match_per_location_loop(self, tmp_path):
        rng = np.random.default_rng(9)
        for trial in range(20):
            T, K = int(rng.integers(2, 30)), int(rng.integers(4, 10))
            pred = np.where(rng.uniform(size=(T, K)) < rng.uniform(0, 0.4, size=K), 1, -1)
            truth = np.where(rng.uniform(size=(T, K)) < rng.uniform(0, 0.4, size=K), 1, -1)
            truth[:, 0] = pred[:, 0] = -1  # no fire, no alarm
            truth[:, 1] = -1
            truth[int(rng.integers(T)), 1] = 1  # one fire
            pred[:, 2] = -1  # fires, no alarm
            rep = f1_metrics(pred, truth)
            precision, recall, f1 = f1_oracle(pred, truth)
            assert rep.precision.tobytes() == precision.tobytes()
            assert rep.recall.tobytes() == recall.tobytes()
            assert rep.f1.tobytes() == f1.tobytes()
            oracle = rep.__class__(precision, recall, f1, rep.hist_counts, rep.hist_edges)
            write_metrics_csv(tmp_path / "a.csv", rep)
            write_metrics_csv(tmp_path / "b.csv", oracle)
            assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


class TestRiskSeries:
    def _params_seq(self):
        params = ModelParams(
            mu=np.array([0.3, 0.2]),
            alpha=np.array([[0.3, 0.1], [0.0, 0.25]]),
            beta=1.1,
            gamma=np.array([0.6, 0.5]),
            mask=np.ones((2, 2), dtype=bool),
        )
        seq = EventSequence(
            times=np.array([0.4, 2.5, 2.5, 7.9]),
            locations=np.array([0, 1, 0, 1]),
            marks=np.array([[0.2, 0.8], [0.5, 0.5], [0.9, 0.1], [0.4, 0.6]]),
            horizon=12.0,
            num_locations=2,
        )
        return params, seq

    def _assert_matches_pointwise(self, params, seq, mm):
        # the oracle's event-by-event ground intensity times the per-point mark score
        qm = query_marks_by_location(seq)
        series = risk_series(params, seq, mm)
        assert series.shape == (12, 2)
        for t_idx, t in enumerate(np.arange(1.0, 13.0)):
            for k in range(2):
                ground = naive_ground_intensity(params, seq, float(t), k)
                direct = max(ground * mm.score(params.gamma, qm[k], float(t), k), RATE_FLOOR)
                assert series[t_idx, k] == pytest.approx(direct, rel=1e-10)

    def test_matches_pointwise_intensity(self):
        params, seq = self._params_seq()
        self._assert_matches_pointwise(params, seq, LinearMarkModel())

    def test_kde_model_matches_pointwise_intensity(self):
        params, seq = self._params_seq()
        train = np.random.default_rng(5).uniform(size=(40, 2))
        self._assert_matches_pointwise(params, seq, NonLinearMarkModel(kde_scorer(train)))

    def test_time_and_location_scorer_matches_pointwise(self):
        # distinct per (day, location), so a transposed or mis-tiled grid fails
        params, seq = self._params_seq()
        self._assert_matches_pointwise(params, seq, NonLinearMarkModel(lambda m, t, k: 1 + t + 10 * k))

    def test_one_scorer_call_per_series(self):
        params, seq = self._params_seq()
        calls = []

        def scorer(m, t, k):
            calls.append(len(t))
            return m.sum(axis=1)

        series = risk_series(params, seq, NonLinearMarkModel(scorer))
        assert calls == [series.size]

    def test_daily_truths_bucketing(self):
        _, seq = self._params_seq()
        truth = daily_truths(seq, 12)
        assert truth[0, 0] == 1      # event at 0.4 lands in day 1
        assert truth[2, 0] == 1 and truth[2, 1] == 1  # both events at 2.5 -> day 3
        assert truth[7, 1] == 1      # 7.9 -> day 8
        assert (truth == 1).sum() == 4

    def test_daily_truths_edges(self):
        seq = EventSequence(
            times=np.array([0.0, 1.0, 3.0, 3.5, 9.0]),
            locations=np.array([1, 0, 1, 0, 1]),
            marks=np.full((5, 2), 0.5),
            horizon=10.0,
            num_locations=2,
        )
        truth = daily_truths(seq, 3)
        expected = np.full((3, 2), -1)
        expected[0, 1] = expected[0, 0] = 1  # t=0 and t=1 both land in day 1
        expected[2, 1] = 1  # t=3 closes day 3; t=3.5 and t=9 fall past num_days
        assert np.array_equal(truth, expected)

    def test_counterfactual_is_difference(self):
        params, seq = self._params_seq()
        mm = LinearMarkModel()
        out = counterfactual_delta(params, seq, mm, 5.0, 0, [0.1, 0.1], [0.9, 0.9])
        assert out["delta"] == pytest.approx(out["lambda_b"] - out["lambda_a"])
        assert out["delta"] > 0

    def test_counterfactual_at_day_end_is_the_forecast(self):
        # with a location's default query marks the counterfactual is the predict stage's risk
        params, seq = self._params_seq()
        mm = LinearMarkModel()
        qm = query_marks_by_location(seq)
        series = risk_series(params, seq, mm)
        for t_idx, t in enumerate(np.arange(1.0, 13.0)):
            for k in range(2):
                out = counterfactual_delta(params, seq, mm, float(t), k, qm[k], qm[1 - k])
                assert out["lambda_a"] == series[t_idx, k]


class TestDetectionsCsv:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(3)
        risk = np.exp(rng.normal(size=(6, 2)))
        thr = np.exp(rng.normal(size=(6, 2)))
        pred = np.where(rng.uniform(size=(6, 2)) < 0.5, 1, -1)
        truth = np.where(rng.uniform(size=(6, 2)) < 0.5, 1, -1)
        trace = DetectionTrace(risk=risk, threshold=thr, prediction=pred, truth=truth)
        path = tmp_path / "det.csv"
        write_detections_csv(path, trace)
        back = read_detections_csv(path)
        assert np.array_equal(back.risk, risk)
        assert np.array_equal(back.threshold, thr)
        assert np.array_equal(back.prediction, pred)
        assert np.array_equal(back.truth, truth)

    def test_reads_rows_in_any_order(self, tmp_path):
        rng = np.random.default_rng(4)
        T, K = 5, 3
        times = np.array([0.5, 1.25, 2.0, 7.5, 10.0])
        risk, thr = np.exp(rng.normal(size=(T, K))), np.exp(rng.normal(size=(T, K)))
        pred = np.where(rng.uniform(size=(T, K)) < 0.5, 1, -1)
        truth = np.where(rng.uniform(size=(T, K)) < 0.5, 1, -1)
        rows = [
            f"{float(times[t])!r},{k},{float(risk[t, k])!r},{float(thr[t, k])!r},{pred[t, k]},{truth[t, k]}\n"
            for t in range(T)
            for k in range(K)
        ]
        path = tmp_path / "det.csv"
        path.write_text("time,location,risk,threshold,prediction,truth\n" + "".join(rng.permutation(rows)))
        back = read_detections_csv(path)
        assert np.array_equal(back.risk, risk)
        assert np.array_equal(back.threshold, thr)
        assert np.array_equal(back.prediction, pred)
        assert np.array_equal(back.truth, truth)

    def test_bytes_match_per_cell_writer(self, tmp_path):
        rng = np.random.default_rng(5)
        T, K = 6, 7
        risk = np.exp(rng.normal(size=(T, K)) * 5)
        thr = np.exp(rng.normal(size=(T, K)) * 5)
        risk[0, :5] = [1e-16, 1e16, 5e-324, RATE_FLOOR, 1.0]
        thr[1, :4] = [5e-324, RATE_FLOOR, 1e16, 0.1 + 0.2]
        pred = np.where(rng.uniform(size=(T, K)) < 0.5, 1, -1)
        truth = np.where(rng.uniform(size=(T, K)) < 0.5, 1, -1)
        trace = DetectionTrace(risk=risk, threshold=thr, prediction=pred, truth=truth)
        for times in (None, np.array([0.1, 0.5, 1.0, 1e-7, 2.75, 1e16])):
            write_detections_csv(tmp_path / "a.csv", trace, times)
            write_detections_csv_oracle(tmp_path / "b.csv", trace, times)
            assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
        # integer risk is written as floats, as the per-cell writer does
        ints = DetectionTrace(risk=np.ones((T, K), dtype=np.int64) * 3, threshold=thr, prediction=pred, truth=truth)
        write_detections_csv(tmp_path / "a.csv", ints)
        write_detections_csv_oracle(tmp_path / "b.csv", ints)
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_one_row_file(self, tmp_path):
        path = tmp_path / "det.csv"
        path.write_text("time,location,risk,threshold,prediction,truth\n3.0,0,0.25,1e-12,1,-1\n")
        back = read_detections_csv(path)
        assert back.risk.shape == (1, 1)
        assert back.risk[0, 0] == 0.25 and back.threshold[0, 0] == RATE_FLOOR
        assert back.prediction[0, 0] == 1 and back.truth[0, 0] == -1
        assert back.prediction.dtype == back.truth.dtype == np.int64

    def test_rejects_columns_in_another_order(self, tmp_path):
        path = tmp_path / "det.csv"
        path.write_text("time,location,threshold,risk,prediction,truth\n3.0,0,0.25,1e-12,1,-1\n")
        with pytest.raises(ValueError, match="header"):
            read_detections_csv(path)

    def test_bits_match_genfromtxt_reader(self, tmp_path):
        rng = np.random.default_rng(6)
        T, K = 5, 4
        risk = np.exp(rng.normal(size=(T, K)) * 5)
        thr = np.exp(rng.normal(size=(T, K)) * 5)
        risk[0] = [5e-324, 1e16, RATE_FLOOR, 0.1 + 0.2]
        thr[2] = [RATE_FLOOR, 5e-324, 1e-16, 1e16]
        pred = np.where(rng.uniform(size=(T, K)) < 0.5, 1, -1)
        truth = np.where(rng.uniform(size=(T, K)) < 0.5, 1, -1)
        times = np.array([0.5, 1.0, 1e-7, 2.75, 1e16])
        path = tmp_path / "det.csv"
        write_detections_csv(path, DetectionTrace(risk=risk, threshold=thr, prediction=pred, truth=truth), times)
        back = read_detections_csv(path)
        expected = read_detections_csv_oracle(path)
        for got, want in zip((back.risk, back.threshold, back.prediction, back.truth), expected):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()
        # rows come back in time order
        order = np.argsort(times)
        assert back.risk.tobytes() == risk[order].tobytes()
        assert back.threshold.tobytes() == thr[order].tobytes()

    def test_rejects_labels_other_than_plus_minus_one(self, tmp_path):
        trace = DetectionTrace(
            risk=np.ones((2, 2)), threshold=np.ones((2, 2)), prediction=np.zeros((2, 2)), truth=np.ones((2, 2))
        )
        with pytest.raises(ValueError):
            write_detections_csv(tmp_path / "a.csv", trace)


class TestConformalSetsJsonl:
    def test_bytes_match_json_dumps_writer(self, tmp_path):
        rng = np.random.default_rng(7)
        classes = np.array([1, 2, 3, 5])
        alphas = (0.05, 0.1, 1e-05, 0.2, 1 / 3)
        sets = {a: rng.uniform(size=(26, 4)) < rng.uniform() for a in alphas}
        sets[1e-05][0] = False
        sets[0.1][1] = True
        empty = ConformalRun(method="sraps", alphas=(0.1,), sets={0.1: np.zeros((0, 4), dtype=bool)},
                             coverage={}, mean_size={}, class_labels=classes)
        full = ConformalRun(method="eraps", alphas=alphas, sets=sets, coverage={}, mean_size={},
                            class_labels=classes)
        # labels may come out of np.unique as floats; both writers print them as ints
        floats = ConformalRun(method="eraps", alphas=alphas, sets=sets, coverage={}, mean_size={},
                              class_labels=classes.astype(float))
        for run in (empty, floats, full):
            write_conformal_sets_jsonl(tmp_path / "a.jsonl", run)
            write_conformal_sets_jsonl_oracle(tmp_path / "b.jsonl", run)
            got = (tmp_path / "a.jsonl").read_bytes()
            assert got == (tmp_path / "b.jsonl").read_bytes()
        assert b'{"alpha": 1e-05, "index": 0, "set": []}\n' in got
        assert b'{"alpha": 0.1, "index": 1, "set": [1, 2, 3, 5]}\n' in got
        assert got.count(b"\n") == len(alphas) * 26


class TestEventsCsv:
    @pytest.mark.parametrize("p", [0, 1, 3])
    @pytest.mark.parametrize("with_magnitudes", [False, True])
    def test_bytes_match_csv_writer(self, tmp_path, p, with_magnitudes):
        rng = np.random.default_rng(p)
        n = 25
        marks = rng.uniform(size=(n, p))
        if p:
            marks[0, 0], marks[1, -1] = 5e-324, 1.0
        seq = EventSequence(
            times=np.concatenate([[0.0, 1e-16], np.sort(rng.uniform(0, 50, size=n - 2))]),
            locations=rng.integers(0, 12, size=n),
            marks=marks,
            horizon=50.0,
            num_locations=12,
            magnitudes=rng.integers(0, 4, size=n) if with_magnitudes else None,
        )
        for s in (seq, EventSequence(times=[], locations=[], marks=np.zeros((0, p)), horizon=1.0, num_locations=1)):
            save_events_csv(s, tmp_path / "a.csv")
            save_events_csv_oracle(s, tmp_path / "b.csv")
            assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def small_bundle(with_conformal=True):
    params = {
        "mu": [0.35, 0.3],
        "alpha": [[0.25, 0.1], [0.1, 0.2]],
        "beta": 1.0,
        "gamma": [0.7071067811865475, 0.7071067811865475],
        "mask": [[True, True], [True, True]],
    }
    bundle = {
        "seed": 5,
        "simulate": {"params": params, "horizon": 150.0, "magnitude_classes": 3},
        "fit": {"grid_points": 2, "pgd_steps": 60, "beta_low": 0.5, "beta_high": 1.5},
        "predict": {"screening": True},
    }
    if with_conformal:
        bundle["conformal"] = {
            "num_bootstrap": 4,
            "batch_size": 5,
            "alphas": [0.1, 0.2],
            "train_fraction": 0.6,
            "method": "eraps",
        }
    return bundle


class TestRunEndToEnd:
    def test_artifacts_and_manifest(self, tmp_path):
        out = tmp_path / "run"
        manifest = run_end_to_end(small_bundle(), out)
        expected = {
            "events.csv", "params.json", "fit_trace.csv", "detections.csv",
            "metrics.csv", "conformal_sets.jsonl", "conformal_summary.csv",
        }
        assert set(manifest["artifacts"]) == expected
        for name in expected:
            assert (out / name).exists()
        assert manifest["stages"] == ["data", "fit", "predict", "eval", "conformal"]
        saved = json.loads((out / "manifest.json").read_text())
        assert saved == manifest

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        run_end_to_end(small_bundle(), a)
        run_end_to_end(small_bundle(), b)
        for name in sorted(p.name for p in a.iterdir()):
            assert (a / name).read_bytes() == (b / name).read_bytes(), name

    @pytest.mark.parametrize("method", ["eraps", "sraps"])
    def test_conformal_summary_agrees_with_the_sets(self, tmp_path, method):
        # the summary's coverage and mean size are what conformal_sets.jsonl
        # gives against the test stream's magnitudes in events.csv
        bundle = small_bundle()
        bundle["conformal"]["method"] = method
        out = tmp_path / "run"
        run_end_to_end(bundle, out)
        magnitudes = load_events_csv(out / "events.csv", horizon=150.0, num_locations=2).magnitudes
        truths = magnitudes[max(10, int(0.6 * len(magnitudes))):].tolist()
        streams = {}
        for line in (out / "conformal_sets.jsonl").read_text().splitlines():
            row = json.loads(line)
            stream = streams.setdefault(row["alpha"], [])
            assert row["index"] == len(stream)
            stream.append(row["set"])
        summary = [line.split(",") for line in (out / "conformal_summary.csv").read_text().splitlines()[1:]]
        assert [(float(alpha), name) for alpha, _, _, name in summary] == [(0.1, method), (0.2, method)]
        for alpha, coverage, mean_size, _ in summary:
            stream = streams[float(alpha)]
            assert len(stream) == len(truths) > 0
            assert float(coverage) == np.mean([t in labels for t, labels in zip(truths, stream)])
            assert float(mean_size) == np.mean([len(labels) for labels in stream])

    def test_stage_tagged_errors(self, tmp_path):
        with pytest.raises(PipelineError, match=r"\[data\]"):
            run_end_to_end({"seed": 1}, tmp_path / "x")
        bad = small_bundle(with_conformal=False)
        bad["fit"]["grid_points"] = 0
        with pytest.raises(PipelineError, match=r"\[fit\]"):
            run_end_to_end(bad, tmp_path / "y")


class TestBundleChecks:
    @pytest.mark.parametrize("section, key, stage", [
        (None, "conformall", "data"),
        ("simulate", "horizn", "data"),
        ("ingest", "neighbour_radius", "data"),
        ("ingest", "spline_degree", "data"),  # a constant since the spline degree became fixed
        ("fit", "pgd_step", "fit"),
        ("predict", "screenning", "predict"),
        ("conformal", "alpha", "conformal"),
    ])
    def test_unknown_key_fails_before_any_stage(self, tmp_path, section, key, stage):
        bundle = small_bundle()
        if section == "ingest":
            bundle["ingest"] = {"csv": "incidents.csv"}
        (bundle if section is None else bundle[section])[key] = 1
        with pytest.raises(PipelineError, match=rf"^\[{stage}\] unknown keys \['{key}'\]"):
            run_end_to_end(bundle, tmp_path / "run")
        assert not (tmp_path / "run").exists()
        if section is not None:
            bundle[section] = [key]
            with pytest.raises(PipelineError, match=rf"^\[{stage}\] section '{section}' must be a JSON object"):
                run_end_to_end(bundle, tmp_path / "run")

    @pytest.mark.parametrize("section, key, value, stage", [
        ("simulate", "mark_distribution", "Linear", "data"),
        ("fit", "method", "Grid", "fit"),
        ("conformal", "method", "rapss", "conformal"),
    ])
    def test_unknown_choice_fails_its_stage(self, tmp_path, section, key, value, stage):
        bundle = small_bundle()
        bundle[section][key] = value
        with pytest.raises(PipelineError, match=rf"^\[{stage}\] unknown .*'{value}'"):
            run_end_to_end(bundle, tmp_path / "run")


class TestGridRowCol:
    def test_rowcol_round_trip(self):
        grid = GridSpec(lat_min=0, lon_min=0, lat_max=1.2, lon_max=1.2, cell_size=0.4,
                        excluded=(4,))
        for cid in range(grid.num_cells):
            row, col = grid.rowcol_of(cid)
            assert grid.cell_at(row, col) == cid
        assert grid.cell_at(1, 1) is None  # the excluded cell
        assert grid.cell_at(9, 0) is None


class TestFrozenStatsAcrossFiles:
    def test_validation_file_uses_training_statistics(self, tmp_path):
        train = tmp_path / "train.csv"
        write_csv(train, "time,location,x", [(float(i + 1), 0, i * 1.0) for i in range(10)])
        fitted = ingest(train, horizon=20.0)
        val = tmp_path / "val.csv"
        # values outside the training range get clipped into [0, 1]
        write_csv(val, "time,location,x", [(1.0, 0, -5.0), (2.0, 0, 4.5), (3.0, 0, 20.0)])
        res = ingest(val, horizon=20.0, stats=fitted.stats)
        col = res.sequence.marks[:, 0]
        assert col[0] == 0.0 and col[2] == 1.0
        assert col[1] == pytest.approx(0.5)  # 4.5 on the 0..9 training scale

    def test_column_mismatch_rejected(self, tmp_path):
        train = tmp_path / "train.csv"
        write_csv(train, "time,location,x", [(1.0, 0, 0.5)])
        fitted = ingest(train, horizon=5.0)
        other = tmp_path / "other.csv"
        write_csv(other, "time,location,y", [(1.0, 0, 0.5)])
        with pytest.raises(ValueError, match="columns"):
            ingest(other, horizon=5.0, stats=fitted.stats)


class TestRunVariants:
    def test_alternating_method_in_bundle(self, tmp_path):
        bundle = small_bundle(with_conformal=False)
        bundle["fit"] = {"method": "alternating", "pgd_steps": 60, "max_outer": 4,
                         "eps_beta": 0.05}
        manifest = run_end_to_end(bundle, tmp_path / "alt")
        assert "fit" in manifest["stages"]
        assert (tmp_path / "alt" / "params.json").exists()

    def test_ingest_data_stage(self, tmp_path):
        raw = tmp_path / "raw.csv"
        rng = np.random.default_rng(0)
        with open(raw, "w") as fh:
            fh.write("time,lat,lon,temp,humidity\n")
            t = 0.0
            for _ in range(120):
                t += float(rng.exponential(1.0))
                lat, lon = rng.uniform(0, 1), rng.uniform(0, 1)
                fh.write(f"{t},{lat},{lon},{rng.normal(20, 5)},{rng.uniform(10, 90)}\n")
        bundle = {
            "seed": 3,
            "ingest": {
                "csv": str(raw),
                "grid": {"lat_min": 0, "lon_min": 0, "lat_max": 1, "lon_max": 1,
                         "cell_size": 0.5},
                "horizon": 200.0,
                "neighbor_radius": 0.6,  # keeps 0.5-apart neighbors, cuts 0.707 diagonals
            },
            "fit": {"grid_points": 2, "pgd_steps": 40, "beta_low": 0.5, "beta_high": 1.5},
            "predict": {"screening": False},
        }
        manifest = run_end_to_end(bundle, tmp_path / "ing")
        assert manifest["stages"] == ["data", "fit", "predict", "eval"]
        params = json.loads((tmp_path / "ing" / "params.json").read_text())
        assert len(params["mu"]) == 4  # 2x2 grid
        # neighbor mask excluded the diagonal-opposite pairs
        pairs = set(zip(params["support"]["src"], params["support"]["dst"]))
        assert len(params["alpha"]) == len(pairs) == 12
        assert (0, 3) not in pairs and (3, 0) not in pairs

    def test_neighbor_radius_without_grid_fails(self, tmp_path):
        # cell ids carry no centroids, so a radius cannot build a mask
        raw = tmp_path / "raw.csv"
        raw.write_text("time,location,temp\n" + "".join(f"{0.5 + i},{i % 3},{20.0 + i}\n" for i in range(30)))
        bundle = {"seed": 3, "ingest": {"csv": str(raw), "horizon": 31.0, "neighbor_radius": 0.0},
                  "fit": {"grid_points": 1, "pgd_steps": 5}}
        with pytest.raises(PipelineError, match=r"^\[data\] neighbor_radius needs a grid"):
            run_end_to_end(bundle, tmp_path / "run")
        assert not (tmp_path / "run" / "params.json").exists()


def test_perfect_predictor_gives_all_ones_histogram():
    rng = np.random.default_rng(9)
    truth = np.where(rng.uniform(size=(40, 6)) < 0.2, 1, -1)
    rep = f1_metrics(truth, truth)
    assert np.all(rep.f1 == 1.0)
    assert rep.hist_counts[-1] == 6 and rep.hist_counts[:-1].sum() == 0


def test_run_end_to_end_recovers_generating_parameters(tmp_path):
    # simulate -> fit through the orchestrator lands near the truth
    from firecast.model import ModelParams
    from oracles import mask_from_index_distance
    from firecast.simulation import parameter_errors

    K, p = 4, 3
    mask = mask_from_index_distance(K, 2)
    mu = np.array([0.25, 0.2, 0.225, 0.175])
    alpha = np.zeros((K, K))
    diag = [0.30, 0.25, 0.30, 0.28]
    for i in range(K):
        alpha[i, i] = diag[i]
        if i > 0:
            alpha[i, i - 1] = 0.12
        if i < K - 1:
            alpha[i, i + 1] = 0.14
    alpha *= mask
    truth = ModelParams(
        mu=mu, alpha=alpha, beta=0.8, gamma=np.full(p, 1 / np.sqrt(p)), mask=mask
    ).validate()
    bundle = {
        "seed": 21,
        "simulate": {"params": json.loads(truth.to_json()), "horizon": 2800.0},
        "fit": {"grid_points": 8, "pgd_steps": 800},
        "predict": {"screening": True},
    }
    run_end_to_end(bundle, tmp_path / "rec")
    fitted = ModelParams.from_json((tmp_path / "rec" / "params.json").read_text())
    assert parameter_errors(truth, fitted)["relative"] < 0.15
