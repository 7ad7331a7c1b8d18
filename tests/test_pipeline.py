import hashlib
import json
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest

from firecast import estimation
from firecast.conformal import ConformalRun
from firecast.events import EventSequence, load_events_csv, save_events_csv
from firecast.marks import LinearMarkModel, NonLinearMarkModel, kde_scorer
from firecast.model import RATE_FLOOR, ModelParams
from firecast.pipeline import (
    CONFORMAL_METHOD_KEYS,
    SECTION_DEFAULTS,
    GridSpec,
    MarkStats,
    DETECTIONS_HEADER,
    PipelineError,
    _sha256,
    _stage,
    conformal_stage,
    counterfactual_delta,
    daily_truths,
    f1_metrics,
    fit_stage,
    impute_series,
    ingest,
    query_marks_by_location,
    read_detections_csv,
    read_section,
    risk_series,
    run_end_to_end,
    write_conformal_sets_jsonl,
    write_detections_csv,
    write_metrics_csv,
)
from firecast.thresholding import DetectionTrace

from oracles import (
    f1_oracle,
    impute_by_location_oracle,
    mark_stats_oracle,
    naive_ground_intensity,
    query_marks_by_location_oracle,
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
        centroids = self.grid.centroids()
        for cid in range(self.grid.num_cells):
            lat, lon = centroids[cid]
            assert self.grid.cell_of(lat, lon) == cid

    def test_excluded_and_outside_map_nowhere(self):
        full = GridSpec(lat_min=0, lon_min=0, lat_max=1, lon_max=1, cell_size=0.5,
                        excluded=(0,))
        assert full.cell_of(0.1, 0.1) is None  # excluded cell
        assert full.cell_of(2.0, 0.1) is None  # outside the box
        assert full.num_cells == 3

    def test_excluded_ids_outside_the_grid_rejected(self):
        # they used to be ignored: this grid kept all 4 cells
        with pytest.raises(ValueError, match=r"excluded cell ids \[-1, 7\] are outside the grid's 4 cells"):
            GridSpec(lat_min=0, lon_min=0, lat_max=1, lon_max=1, cell_size=0.5, excluded=(7, -1))
        assert GridSpec(lat_min=0, lon_min=0, lat_max=1, lon_max=1, cell_size=0.5, excluded=(3,)).num_cells == 3

    def test_fractional_excluded_ids_rejected(self):
        # from_dict used to truncate 1.7 to cell 1, and the constructor kept all 4 cells for 1.5
        box = dict(lat_min=0, lon_min=0, lat_max=1, lon_max=1, cell_size=0.5)
        with pytest.raises(ValueError, match=r"^excluded cell ids \[1\.7\] are not integers$"):
            GridSpec.from_dict({**box, "excluded": [1.7]})
        with pytest.raises(ValueError, match=r"^excluded cell ids \[1\.5\] are not integers$"):
            GridSpec(**box, excluded=(1.5,))
        for ids in ([1], [1.0]):
            for grid in (GridSpec.from_dict({**box, "excluded": ids}), GridSpec(**box, excluded=tuple(ids))):
                assert grid.num_cells == 3 and grid.excluded == (1,) and grid.cell_of(0.1, 0.6) is None

    def test_boundary_points_clamp_into_last_cell(self):
        grid = GridSpec(lat_min=0, lon_min=0, lat_max=1, lon_max=1, cell_size=0.5)
        assert grid.cell_of(1.0, 1.0) == grid.num_cells - 1

    def test_dict_round_trip(self):
        back = GridSpec.from_dict(self.grid.to_dict())
        assert back == self.grid

    @pytest.mark.parametrize("key, value, message", [
        # from_dict used to read true as 1.0, "2" as 2.0, and "12" as the cells 1 and 2
        ("lat_min", True, "lat_min must be a number, got True"),
        ("lat_max", "2", "lat_max must be a number, got '2'"),
        ("excluded", "12", "excluded must be a list of numbers, got '12'"),
    ])
    def test_values_of_the_wrong_kind_rejected(self, key, value, message):
        box = dict(lat_min=0, lon_min=0, lat_max=3, lon_max=1, cell_size=0.5)
        with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
            GridSpec.from_dict({**box, key: value})
        with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
            GridSpec(**{**box, key: value})

    def test_unknown_keys_rejected(self):
        # a misspelt cell_size used to run at the default 0.24: 25 cells instead of 4
        box = dict(lat_min=0, lon_min=0, lat_max=1, lon_max=1)
        with pytest.raises(ValueError, match=r"^unknown grid keys \['cellsize'\]; expected some of \['lat_min', "):
            GridSpec.from_dict({**box, "cellsize": 0.5})
        assert GridSpec.from_dict({**box, "cell_size": 0.5}).num_cells == 4


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

    def test_many_points_and_duplicates_interpolate_linearly(self):
        # seven distinct observed times, one of them twice: holes get np.interp
        # of the averaged points, constant beyond the ends
        t = np.array([0.0, 1.0, 2.0, 2.0, 3.0, 4.5, 5.0, 6.0, 7.0, 8.0, 9.0])
        v = np.array([np.nan, 1.0, 4.0, 2.0, np.nan, 0.5, 7.0, np.nan, 2.5, 6.0, np.nan])
        observed = ~np.isnan(v)
        t_obs = np.array([1.0, 2.0, 4.5, 5.0, 7.0, 8.0])
        v_obs = np.array([1.0, 3.0, 0.5, 7.0, 2.5, 6.0])
        filled = impute_series(t, v)
        assert np.array_equal(filled[observed], v[observed])
        assert np.array_equal(filled[~observed], np.interp(t[~observed], t_obs, v_obs))
        assert filled[0] == 1.0 and filled[-1] == 6.0


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

    def test_a_column_named_twice_fails_in_both_readers(self, tmp_path):
        # ingest used to read the second temp column into both: events 20, 20 and 40 in each
        path = tmp_path / "ev.csv"
        write_csv(path, "time,location,temp,temp", [(1.0, 0, 10, 20), (2.0, 0, 30, 40), (3.0, 1, 50, 60)])
        message = f"{path}: the header names column 'temp' more than once"
        with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
            ingest(path, horizon=10.0)
        write_csv(path, "time,location,m_0,m_1,m_0", [(1.0, 0, 0.1, 0.2, 0.3)])
        message = f"{path}: the header names column 'm_0' more than once"
        with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
            load_events_csv(path, horizon=10.0, num_locations=1)

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
        # the hole sits on a straight line: interpolation reproduces it, scaling keeps order
        assert res.sequence.marks[6, 0] == pytest.approx(6 / 11, abs=1e-6)


class TestLocationRuns:
    """The per-location loops read each location's run of the rows sorted by
    location; the bits must be those of one boolean mask per location."""

    @staticmethod
    def random_rows(rng, n):
        # locations drawn from a sparse subset (empty cells between), in no order, with tied times
        K = int(rng.integers(1, 12))
        present = rng.choice(K, size=int(rng.integers(1, K + 1)), replace=False)
        times = np.round(rng.uniform(0.0, 30.0, size=n), 1)
        return K, rng.choice(present, size=n), times

    @pytest.mark.parametrize("seed", range(6))
    def test_query_marks_match_the_mask_loop(self, seed):
        rng = np.random.default_rng(seed)
        for n in (0, 1, 2, 17, 120):
            K, locations, times = self.random_rows(rng, n)
            p = int(rng.integers(1, 4))
            seq = EventSequence(times=np.sort(times), locations=locations, marks=rng.uniform(size=(n, p)),
                                horizon=31.0, num_locations=K)
            assert query_marks_by_location(seq).tobytes() == query_marks_by_location_oracle(seq).tobytes()

    @pytest.mark.parametrize("seed", range(6))
    def test_imputed_columns_match_the_mask_loop(self, tmp_path, seed, monkeypatch):
        rng = np.random.default_rng(100 + seed)
        n = int(rng.integers(1, 150))
        K, locations, times = self.random_rows(rng, n)
        values = rng.normal(size=(n, 3))
        values[rng.uniform(size=(n, 3)) < 0.3] = np.nan
        values[locations == locations[0], 1] = np.nan  # one location never observes column b
        if seed == 0:
            values[:, 2] = np.nan  # a column missing everywhere
        rows = [(repr(float(t)), int(k)) + tuple("" if np.isnan(v) else repr(float(v)) for v in vals)
                for t, k, vals in zip(times, locations, values)]
        path = tmp_path / "ev.csv"
        write_csv(path, "time,location,a,b,c", rows)
        calls = []
        monkeypatch.setattr("firecast.pipeline.impute_series",
                            lambda t, v: calls.append(1) or impute_series(t, v))
        res = ingest(path, horizon=31.0)

        order = np.argsort(times, kind="stable")
        imputed = np.column_stack([
            impute_by_location_oracle(times[order], locations[order], values[order, j]) for j in range(3)
        ])
        expected = MarkStats.fit(imputed, ["a", "b", "c"]).transform(imputed)
        assert res.sequence.marks.tobytes() == expected.tobytes()
        assert len(calls) == 3 * len(np.unique(locations))


@pytest.mark.parametrize("seed", range(6))
def test_mark_stats_match_the_column_loop(seed):
    # bit for bit, with no RuntimeWarning (an error here) from a zero-variance column
    rng = np.random.default_rng(300 + seed)
    n = int(rng.integers(1, 40))
    train = rng.normal(size=(n, 5)) * rng.uniform(0.01, 100.0, 5) + rng.normal(size=5)
    train[:, 1] = 3.25  # zero variance
    train[:, 2] = 7.0 + 1e-14 * rng.normal(size=n)  # a std under 1e-12 counts as none
    held_out = rng.normal(size=(2 * n, 5)) * 60.0  # values beyond the training range are clipped
    stats = MarkStats.fit(train, list("abcde"))
    for values in (train, held_out):
        assert stats.transform(values).tobytes() == mark_stats_oracle(train, values).tobytes()
    assert stats.std[1] == stats.std[2] == 0.0


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
                assert arr.shape == (4,)
                assert np.all((0 <= arr) & (arr <= 1))

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
            oracle = rep.__class__(precision, recall, f1)
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
                direct = max(ground * mm.score(params.gamma, qm[k]), RATE_FLOOR)
                assert series[t_idx, k] == pytest.approx(direct, rel=1e-10)

    def test_matches_pointwise_intensity(self):
        params, seq = self._params_seq()
        self._assert_matches_pointwise(params, seq, LinearMarkModel())

    def test_kde_model_matches_pointwise_intensity(self):
        params, seq = self._params_seq()
        train = np.random.default_rng(5).uniform(size=(40, 2))
        self._assert_matches_pointwise(params, seq, NonLinearMarkModel(kde_scorer(train)))

    def test_one_scorer_call_per_series(self):
        params, seq = self._params_seq()
        calls = []

        def scorer(m):
            calls.append(len(m))
            return m.sum(axis=1)

        risk_series(params, seq, NonLinearMarkModel(scorer))
        assert calls == [seq.num_locations]  # the K query rows, not the T x K grid

    def test_descending_query_times_raise(self):
        # the state only moves forward: t=2 after t=5 would see the events before 5
        params, seq = self._params_seq()
        with pytest.raises(ValueError, match="ascending"):
            risk_series(params, seq, LinearMarkModel(), times=[5.0, 2.0])

    def test_tied_query_times_match_pointwise(self):
        # ties are ascending too; 2.5 is also the time of two events, which it must not see
        params, seq = self._params_seq()
        times = [1.0, 2.5, 2.5, 7.9, 12.0]
        mm, qm = LinearMarkModel(), query_marks_by_location(seq)
        series = risk_series(params, seq, mm, times=times)
        for t_idx, t in enumerate(times):
            for k in range(2):
                direct = max(naive_ground_intensity(params, seq, t, k) * mm.score(params.gamma, qm[k]), RATE_FLOOR)
                assert series[t_idx, k] == pytest.approx(direct, rel=1e-10)

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

    @pytest.mark.parametrize("marks", ["linear", "kde"])
    def test_counterfactual_at_day_end_is_the_forecast(self, marks):
        # with a location's default query marks the counterfactual is the predict
        # stage's risk, bit for bit: the KDE scores a row the same in any batch
        params, seq = self._params_seq()
        train = np.random.default_rng(5).uniform(size=(40, 2))
        mm = LinearMarkModel() if marks == "linear" else NonLinearMarkModel(kde_scorer(train))
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

    @pytest.mark.parametrize("times", [
        [1.0, 1.0, 2.0],  # days that share a time
        [3.0, 0.5, 2.0, 2.0, 1e-7],  # not ascending
        [1e16, 2.5, 1e16],
        [-0.0, 0.0, 7.0],  # told apart by bits
        [4.0],
    ])
    @pytest.mark.parametrize("K", [1, 4])
    def test_round_trip_keeps_the_writers_days(self, tmp_path, times, K):
        rng = np.random.default_rng(len(times) * K)
        T = len(times)
        risk, thr = np.exp(rng.normal(size=(T, K)) * 5), np.exp(rng.normal(size=(T, K)) * 5)
        risk[0, 0], thr[-1, -1] = -0.0, np.nan
        pred = np.where(rng.uniform(size=(T, K)) < 0.5, 1, -1)
        truth = np.where(rng.uniform(size=(T, K)) < 0.5, 1, -1)
        path = tmp_path / "det.csv"
        write_detections_csv(path, DetectionTrace(risk=risk, threshold=thr, prediction=pred, truth=truth), np.array(times))
        back = read_detections_csv(path)
        for got, want in ((back.risk, risk), (back.threshold, thr), (back.prediction, pred), (back.truth, truth)):
            assert got.shape == (T, K) and got.tobytes() == want.astype(got.dtype).tobytes()
        assert back.prediction.dtype == back.truth.dtype == np.int64

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

    def test_bytes_match_per_cell_writer_on_repeated_values(self, tmp_path):
        # a day reuses the previous day's text where a cell's bits repeat and formats the rest
        rng = np.random.default_rng(15)
        T, K = 9, 6
        risk, thr = np.exp(rng.normal(size=(T, K)) * 3), np.exp(rng.normal(size=(T, K)) * 3)
        risk[1], thr[1] = risk[0], thr[0]  # a whole row repeats
        risk[2, :4], thr[2, 1:5] = risk[1, :4], thr[1, 1:5]  # single cells repeat
        risk[3], thr[3] = risk[2], thr[2]
        risk[3, 0], thr[3, 5] = -0.0, np.nan
        risk[4], thr[4] = risk[3], thr[3]
        risk[4, 0], thr[4, 5] = 0.0, -np.nan  # 0.0 after -0.0, a NaN of another sign after a NaN
        risk[5], thr[5] = np.exp(rng.normal(size=(2, K)))  # the whole row changes
        risk[6], thr[6] = risk[5], thr[5]
        risk[6, 3] = risk[6, 3] * (1 + 2**-52)  # one ulp
        risk[7:], thr[7:] = 0.0, -0.0
        pred = np.where(rng.uniform(size=(T, K)) < 0.5, 1, -1)
        truth = np.where(rng.uniform(size=(T, K)) < 0.5, 1, -1)
        trace = DetectionTrace(risk=risk, threshold=thr, prediction=pred, truth=truth)
        for times in (None, np.array([0.5, 1.0, 1.0, 2.0, 2.5, 3.0, 1e-7, 4.0, 1e16])):
            write_detections_csv(tmp_path / "a.csv", trace, times)
            write_detections_csv_oracle(tmp_path / "b.csv", trace, times)
            assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
        text = (tmp_path / "a.csv").read_text()
        assert ",-0.0," in text and ",nan," in text and ",0.0," in text

    def test_peak_memory_is_per_day(self, tmp_path):
        # regional-run's trace shape: the writer peaks near 2.5 MB, all its risk and threshold texts take 17.5 MB
        rng = np.random.default_rng(16)
        T, K = 240, 400
        trace = DetectionTrace(risk=np.exp(rng.normal(size=(T, K))), threshold=np.exp(rng.normal(size=(T, K))),
                               prediction=np.where(rng.uniform(size=(T, K)) < 0.5, 1, -1),
                               truth=np.where(rng.uniform(size=(T, K)) < 0.5, 1, -1))
        tracemalloc.start()
        try:
            write_detections_csv(tmp_path / "det.csv", trace)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5e6

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
        # days come back in file order, not time order
        assert back.risk.tobytes() == risk.tobytes()
        assert back.threshold.tobytes() == thr.tobytes()

    def test_bytes_match_per_cell_writer_where_thresholds_equal_risk(self, tmp_path):
        # a changed threshold whose bits equal the same day's risk takes the risk's text
        rng = np.random.default_rng(17)
        T, K = 8, 6
        risk, thr = np.exp(rng.normal(size=(T, K)) * 3), np.exp(rng.normal(size=(T, K)) * 3)
        thr[0, :2] = risk[0, :2]  # on the first day
        thr[1] = risk[1]  # a whole row equals the day's risk
        thr[2, :3] = risk[2, :3]  # single cells do
        risk[3, 0], thr[3, 0] = 0.0, -0.0  # -0.0 beside 0.0, both ways
        risk[3, 1], thr[3, 1] = -0.0, 0.0
        risk[4, :3] = thr[4, :3] = np.nan
        thr[4, 1] = risk[4, 2] = np.copysign(np.nan, -1.0)  # NaNs with different sign bits
        risk[5] = risk[4]  # the risk row is updated in place, not formatted whole
        risk[5, 4] = 2.5
        thr[5] = risk[5]  # and the thresholds take its texts
        thr[6] = risk[6]
        thr[7] = thr[6]  # unchanged thresholds keep their texts while the risk moves on
        pred = np.where(rng.uniform(size=(T, K)) < 0.5, 1, -1)
        truth = np.where(rng.uniform(size=(T, K)) < 0.5, 1, -1)
        trace = DetectionTrace(risk=risk, threshold=thr, prediction=pred, truth=truth)
        write_detections_csv(tmp_path / "a.csv", trace)
        write_detections_csv_oracle(tmp_path / "b.csv", trace)
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
        lines = (tmp_path / "a.csv").read_text().splitlines()
        assert lines[1 + 3 * K].split(",")[2:4] == ["0.0", "-0.0"]
        assert lines[2 + 3 * K].split(",")[2:4] == ["-0.0", "0.0"]

    def _write_rows(self, tmp_path, rows):
        path = tmp_path / "det.csv"
        path.write_text(DETECTIONS_HEADER + "\n" + "".join(f"{row}\n" for row in rows))
        return path

    def test_rejects_a_header_only_file(self, tmp_path):
        path = self._write_rows(tmp_path, ["", " "])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: no rows after the header$"):
                read_detections_csv(path)

    def _rejects(self, path, message):
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: {re.escape(message)}$"):
            read_detections_csv(path)

    def test_rejects_a_repeated_cell(self, tmp_path):
        # one cell missing and another repeated: 4 rows for a 2 x 2 trace
        rows = ["1.0,0,0.5,0.25,1,1", "1.0,1,0.5,0.25,-1,-1", "2.0,0,0.5,0.25,1,1", "2.0,0,0.5,0.25,1,1"]
        self._rejects(self._write_rows(tmp_path, rows),
                      "line 5 has time 2.0 and location 0; its day starts at time 2.0 and lists locations 0..1 in order")

    def test_rejects_a_missing_cell(self, tmp_path):
        rows = [f"{t}.0,{k},0.5,0.25,1,-1" for t in (1, 2, 3) for k in (0, 1)]
        # without (2.0, 0) the first day runs on to the next location 0, three rows on
        self._rejects(self._write_rows(tmp_path, rows[:2] + rows[3:]),
                      "line 4 has time 2.0 and location 1; its day starts at time 1.0 and lists locations 0..2 in order")
        self._rejects(self._write_rows(tmp_path, rows[:-1]), "line 6 ends the last day after 1 of its 2 rows")

    @pytest.mark.parametrize("location", ["-1", "0.5"])
    def test_rejects_a_location_that_is_no_cell_index(self, tmp_path, location):
        path = self._write_rows(tmp_path, ["1.0,0,0.5,0.25,1,1", f"1.0,{location},0.5,0.25,1,1"])
        self._rejects(path, f"line 3 has time 1.0 and location {location}; "
                            "its day starts at time 1.0 and lists locations 0..1 in order")

    def test_rejects_a_day_that_starts_elsewhere(self, tmp_path):
        path = self._write_rows(tmp_path, ["1.0,1,0.5,0.25,1,1", "1.0,0,0.5,0.25,1,1"])
        self._rejects(path, "line 2 has time 1.0 and location 1; its day starts at time 1.0 and lists locations 0..0 in order")

    def test_rejects_two_times_in_one_day(self, tmp_path):
        rows = ["1.0,0,0.5,0.25,1,1", "1.0,1,0.5,0.25,1,1", "2.0,0,0.5,0.25,1,1", "3.0,1,0.5,0.25,1,1"]
        self._rejects(self._write_rows(tmp_path, rows),
                      "line 5 has time 3.0 and location 1; its day starts at time 2.0 and lists locations 0..1 in order")
        # by bits: -0.0 is another time than 0.0
        rows = ["0.0,0,0.5,0.25,1,1", "-0.0,1,0.5,0.25,1,1"]
        self._rejects(self._write_rows(tmp_path, rows),
                      "line 3 has time -0.0 and location 1; its day starts at time 0.0 and lists locations 0..1 in order")

    def test_rejects_rows_after_blank_lines_by_their_line(self, tmp_path):
        path = self._write_rows(tmp_path, ["", "1.0,0,0.5,0.25,1,1", "1.0,2,0.5,0.25,1,1"])
        self._rejects(path, "line 4 has time 1.0 and location 2; its day starts at time 1.0 and lists locations 0..1 in order")

    @pytest.mark.parametrize("rows, message", [
        (["1.0,0,0.5,0.25,0.7,1", "1.0,1,0.5,0.25,-1,-1"], "line 2 has prediction 0.7 and truth 1"),
        (["1.0,0,0.5,0.25,1,1", "1.0,1,0.5,0.25,-1,0"], "line 3 has prediction -1 and truth 0"),
    ], ids=["prediction", "truth"])
    def test_rejects_a_label_other_than_minus_one_or_one(self, tmp_path, rows, message):
        # a prediction of 0.7 used to be truncated to 0 and scored as -1
        self._rejects(self._write_rows(tmp_path, rows), f"{message}; both must be -1 or 1")

    def test_rejects_labels_other_than_plus_minus_one(self, tmp_path):
        trace = DetectionTrace(
            risk=np.ones((2, 2)), threshold=np.ones((2, 2)), prediction=np.zeros((2, 2)), truth=np.ones((2, 2))
        )
        with pytest.raises(ValueError):
            write_detections_csv(tmp_path / "a.csv", trace)


class TestSha256:
    @pytest.mark.parametrize("size", [0, 1, (1 << 20) - 1, 1 << 20, (1 << 20) + 1, 3 * (1 << 20) + 7])
    def test_matches_hashlib_of_the_bytes(self, tmp_path, size):
        data = np.random.default_rng(size).integers(0, 256, size=size, dtype=np.uint8).tobytes()
        path = tmp_path / "artifact"
        path.write_bytes(data)
        assert _sha256(path) == hashlib.sha256(data).hexdigest()


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
        if method == "sraps":
            for key in ("num_bootstrap", "batch_size"):
                del bundle["conformal"][key]
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

    @pytest.mark.parametrize("with_conformal", [True, False])
    def test_the_manifest_digests_exactly_the_files_written(self, tmp_path, with_conformal):
        out = tmp_path / "run"
        manifest = run_end_to_end(small_bundle(with_conformal), out)
        assert set(manifest["artifacts"]) == {p.name for p in out.iterdir()} - {"manifest.json"}
        assert ("conformal_summary.csv" in manifest["artifacts"]) == with_conformal
        for name, digest in manifest["artifacts"].items():
            assert digest == hashlib.sha256((out / name).read_bytes()).hexdigest()

    @pytest.mark.parametrize("case", ["negative radius", "radius without a grid", "one magnitude class", "missing csv"])
    def test_a_failed_data_stage_leaves_no_output_directory(self, tmp_path, case):
        # each failed as [data] but left an empty output directory behind
        raw = tmp_path / "raw.csv"
        raw.write_text("time,location\n" + "".join(f"{0.5 + i},{i % 3}\n" for i in range(30)))
        grid = {"lat_min": 0, "lon_min": 0, "lat_max": 1, "lon_max": 1, "cell_size": 0.5}
        bundle = {
            "negative radius": {"ingest": {"csv": str(raw), "grid": grid, "neighbor_radius": -1}},
            "radius without a grid": {"ingest": {"csv": str(raw), "neighbor_radius": 0.5}},
            "one magnitude class": {"simulate": {**small_bundle()["simulate"], "magnitude_classes": 1}},
            "missing csv": {"ingest": {"csv": str(tmp_path / "ingest.csv")}},
        }[case]
        with pytest.raises(PipelineError, match=r"^\[data\] "):
            run_end_to_end(bundle, tmp_path / "run")
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("section, key", [
        ("fit", "kappa"), ("fit", "l1_weight"), ("fit", "eps_beta"), ("fit", "beta_high"), ("fit", "beta_init"),
        ("conformal", "lambda_reg"),
    ])
    def test_an_infinite_fit_or_score_setting_fails_by_name(self, tmp_path, section, key):
        # json.loads reads Infinity: kappa took no step, l1_weight wrote an inf objective,
        # lambda_reg a coverage of 0, and beta_high and beta_init failed as non-finite gradients
        bundle = small_bundle()
        bundle[section][key] = math.inf
        with pytest.raises(PipelineError, match="^" + re.escape(f"[{section}] {key} must be finite, got inf") + "$"):
            run_end_to_end(bundle, tmp_path / "run")

    @pytest.mark.parametrize("seed", [3.7, True, "abc"])
    def test_seed_must_be_an_integer(self, tmp_path, seed):
        # 3.7 used to run as seed 3 and true as seed 1; "abc" raised a bare ValueError
        with pytest.raises(PipelineError, match=rf"^\[data\] seed must be an integer, got {re.escape(repr(seed))}$"):
            run_end_to_end({**small_bundle(with_conformal=False), "seed": seed}, tmp_path / "run")
        assert not (tmp_path / "run").exists()

    def test_stage_tagged_errors(self, tmp_path):
        with pytest.raises(PipelineError, match=r"\[data\]"):
            run_end_to_end({"seed": 1}, tmp_path / "x")
        bad = small_bundle(with_conformal=False)
        bad["fit"]["grid_points"] = 0
        with pytest.raises(PipelineError, match=r"\[fit\]"):
            run_end_to_end(bad, tmp_path / "y")


def test_a_stop_iteration_in_a_stage_is_tagged():
    # a generator-based context manager would let it escape bare (PEP 479)
    done = []
    with pytest.raises(PipelineError, match=r"^\[fit\] StopIteration$") as info:
        with _stage("fit", done):
            next(iter([]))
    assert isinstance(info.value.__cause__, StopIteration)
    assert done == []
    with _stage("fit", done):
        pass
    assert done == ["fit"]


@pytest.mark.parametrize("method", ["grid", "alternating"])
def test_fit_stage_calls_the_estimation_function_set_at_call_time(monkeypatch, method):
    # a wrapper set on the estimation module (as the benchmark's tracer sets one) is the one run
    calls = []
    monkeypatch.setattr(estimation, f"{method}_fit", lambda *args: calls.append(args) or "fit")
    fit, mark_model = fit_stage("seq", {"method": method, "pgd_steps": 3}, "feasible")
    assert fit == "fit" and isinstance(mark_model, LinearMarkModel)
    assert calls == [("seq", mark_model, estimation.FitConfig(pgd_steps=3), "feasible")]


def wrong_values(default):
    """Values of the wrong type for a stage key with this default: an unknown
    name for a choice, a string or a number for a bool, a fraction, a bool or a
    string for an int, a bool or a string for a float, and a scalar or a list
    of non-numbers for a tuple."""
    if isinstance(default, str):
        return ["no_such_" + default, 1]
    if isinstance(default, bool):  # before int: a bool is an int
        return ["false", 0]
    if isinstance(default, int):
        return [3.7, 4.0, True, "3"]
    if isinstance(default, float):
        return [True, "0.5"]
    if isinstance(default, tuple):
        return [0.1, [True], ["0.1"]]
    raise AssertionError(f"no wrong values for a {type(default).__name__} default")


SECTION_STAGES = {"simulate": "data", "fit": "fit", "predict": "predict", "conformal": "conformal"}
WRONG_TYPED = [
    pytest.param(section, key, value, id=f"{section}.{key}={value!r}")
    for section, defaults in SECTION_DEFAULTS.items()
    for key, default in defaults.items()
    for value in wrong_values(default)
]


def test_read_section_checks_without_converting():
    cfg = read_section("conformal", {"lambda_reg": 1, "alphas": [0.1, 0.2], "method": "sraps"})
    assert cfg == {**SECTION_DEFAULTS["conformal"], "lambda_reg": 1, "alphas": [0.1, 0.2], "method": "sraps"}
    assert type(cfg["lambda_reg"]) is int
    # a key without a default is checked against the kind its section declares
    with pytest.raises(ValueError, match=r"^horizon must be a number, got '150'$"):
        read_section("simulate", {"params_file": "params.json", "horizon": "150"})


class TestBundleChecks:
    @pytest.mark.parametrize("section, key, value", WRONG_TYPED)
    def test_a_wrong_typed_value_fails_before_any_stage(self, tmp_path, section, key, value):
        # every key of SECTION_DEFAULTS, so a key added later is covered too
        bundle = small_bundle()
        if section == "conformal":  # alone, under the method that reads the key
            owner = [method for method, keys in CONFORMAL_METHOD_KEYS.items() if key in keys]
            bundle["conformal"] = {key: value, **({"method": owner[0]} if owner else {})}
        else:
            bundle[section][key] = value
        if isinstance(SECTION_DEFAULTS[section][key], str):
            expected = rf"^\[{SECTION_STAGES[section]}\] unknown .* {re.escape(repr(value))}; expected '"
        else:
            expected = rf"^\[{SECTION_STAGES[section]}\] {key} must be .*, got {re.escape(repr(value))}$"
        with pytest.raises(PipelineError, match=expected):
            run_end_to_end(bundle, tmp_path / "run")
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("section, key, value, message", [
        # a bundle used to truncate the counts (3 bootstraps, batches of 4, k_reg 1, 2 classes)
        ("conformal", "num_bootstrap", 3.7, "[conformal] num_bootstrap must be an integer, got 3.7"),
        ("conformal", "batch_size", 4.9, "[conformal] batch_size must be an integer, got 4.9"),
        ("conformal", "k_reg", 1.5, "[conformal] k_reg must be an integer, got 1.5"),
        ("simulate", "magnitude_classes", 2.5, "[data] magnitude_classes must be an integer, got 2.5"),
        # ran with screening on, and with one grid point
        ("predict", "screening", "false", "[predict] screening must be true or false, got 'false'"),
        ("fit", "grid_points", True, "[fit] grid_points must be an integer, got True"),
        # failed only in their stage, after earlier artifacts were written
        ("fit", "pgd_steps", 4.0, "[fit] pgd_steps must be an integer, got 4.0"),
        ("conformal", "alphas", 0.1, "[conformal] alphas must be a list of numbers, got 0.1"),
    ])
    def test_a_wrong_type_is_named_in_the_message(self, tmp_path, section, key, value, message):
        bundle = small_bundle()
        bundle[section][key] = value
        with pytest.raises(PipelineError, match="^" + re.escape(message) + "$"):
            run_end_to_end(bundle, tmp_path / "run")
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("section, key, stage", [
        (None, "conformall", "data"),
        ("simulate", "horizn", "data"),
        ("ingest", "neighbour_radius", "data"),
        ("ingest", "spline_degree", "data"),  # gone with the spline imputation
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

    @pytest.mark.parametrize("section, drop, message", [
        # a missing key used to fail in the data stage as a bare name: "[data] 'horizon'"
        ("simulate", "horizon", "[data] simulate needs horizon"),
        ("simulate", "params", "[data] simulate needs params or params_file"),
        ("ingest", "csv", "[data] ingest needs csv"),
    ])
    def test_a_missing_data_key_fails_before_any_stage(self, tmp_path, section, drop, message):
        bundle = small_bundle(with_conformal=False)
        if section == "ingest":
            del bundle["simulate"]
            bundle["ingest"] = {"csv": "incidents.csv", "horizon": 5.0}
        del bundle[section][drop]
        with pytest.raises(PipelineError, match="^" + re.escape(message) + "$"):
            run_end_to_end(bundle, tmp_path / "run")
        assert not (tmp_path / "run").exists()

    def test_params_and_params_file_together_fail(self, tmp_path):
        # params_file used to win without a word
        bundle = small_bundle(with_conformal=False)
        params_file = tmp_path / "params.json"
        params_file.write_text(json.dumps(bundle["simulate"]["params"]))
        bundle["simulate"]["params_file"] = str(params_file)
        message = "[data] simulate needs params or params_file, not both"
        with pytest.raises(PipelineError, match="^" + re.escape(message) + "$"):
            run_end_to_end(bundle, tmp_path / "run")
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("key, value, message", [
        # the grid used to run from 1.0 and to 2.0, and without the cells 1 and 2
        ("lat_min", True, "[data] lat_min must be a number, got True"),
        ("lat_max", "2", "[data] lat_max must be a number, got '2'"),
        ("excluded", "12", "[data] excluded must be a list of numbers, got '12'"),
    ])
    def test_a_grid_value_of_the_wrong_kind_fails_before_any_stage(self, tmp_path, key, value, message):
        raw = tmp_path / "raw.csv"
        raw.write_text("time,lat,lon\n" + "".join(f"{0.5 + i},{1.1 + 0.02 * i},0.3\n" for i in range(30)))
        grid = {"lat_min": 0, "lon_min": 0, "lat_max": 3, "lon_max": 1, "cell_size": 0.5, key: value}
        bundle = {"seed": 3, "ingest": {"csv": str(raw), "grid": grid, "horizon": 31.0},
                  "fit": {"grid_points": 1, "pgd_steps": 5}}
        with pytest.raises(PipelineError, match="^" + re.escape(message) + "$"):
            run_end_to_end(bundle, tmp_path / "run")
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("section, key, value, stage", [
        ("simulate", "mark_distribution", "Linear", "data"),
        ("fit", "method", "Grid", "fit"),
        ("fit", "mark_model", "KDE", "fit"),
        ("conformal", "method", "rapss", "conformal"),
    ])
    def test_unknown_choice_fails_its_stage(self, tmp_path, section, key, value, stage):
        bundle = small_bundle()
        bundle[section][key] = value
        with pytest.raises(PipelineError, match=rf"^\[{stage}\] unknown .*'{value}'"):
            run_end_to_end(bundle, tmp_path / "run")
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("method, foreign", [
        ("sraps", {"num_bootstrap": 4, "batch_size": 5}),
        ("sraps", {"batch_size": 5}),
        ("eraps", {"split_fraction": 0.5}),
        (None, {"split_fraction": 0.5}),  # eraps by default
    ])
    def test_other_methods_keys_fail_before_any_stage(self, tmp_path, method, foreign):
        bundle = small_bundle()
        conformal = {k: v for k, v in bundle["conformal"].items() if k not in ("num_bootstrap", "batch_size", "method")}
        if method is not None:
            conformal["method"] = method
        bundle["conformal"] = {**conformal, **foreign}
        expected = re.escape(f"[conformal] keys {sorted(foreign)} do not apply to method '{method or 'eraps'}'")
        with pytest.raises(PipelineError, match="^" + expected):
            run_end_to_end(bundle, tmp_path / "run")
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("method, foreign", [
        ("sraps", {"num_bootstrap": 3, "batch_size": 99}),
        ("eraps", {"split_fraction": 0.5}),
    ])
    def test_a_direct_conformal_stage_call_refuses_the_other_methods_keys(self, method, foreign):
        # the stage used to run, ignoring the keys
        rng = np.random.default_rng(0)
        seq = EventSequence(times=np.arange(1.0, 41.0), locations=np.zeros(40, dtype=int),
                            marks=rng.uniform(size=(40, 2)), horizon=41.0, num_locations=1,
                            magnitudes=rng.integers(1, 4, size=40))
        expected = re.escape(f"keys {sorted(foreign)} do not apply to method '{method}'")
        with pytest.raises(ValueError, match="^" + expected + "$"):
            conformal_stage(seq, {"method": method, **foreign}, 0)


class TestGridRowCol:
    def test_rowcol_round_trip(self):
        grid = GridSpec(lat_min=0, lon_min=0, lat_max=1.2, lon_max=1.2, cell_size=0.4,
                        excluded=(4,))
        retained = [full for full in range(9) if full != 4]  # row-major, the excluded cell skipped
        assert [grid.rowcol_of(cid) for cid in range(grid.num_cells)] == [divmod(full, 3) for full in retained]


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
    def test_magnitude_classes_label_events_without_a_conformal_stage(self, tmp_path):
        # the same draws and labels as a run that has a conformal stage
        run_end_to_end(small_bundle(), tmp_path / "with")
        run_end_to_end(small_bundle(with_conformal=False), tmp_path / "without")
        events = (tmp_path / "without" / "events.csv").read_bytes()
        assert events.startswith(b"time,location,m_0,m_1,magnitude\r\n")
        assert events == (tmp_path / "with" / "events.csv").read_bytes()

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

    @pytest.mark.parametrize("columns", ["season", ["season", 3]])
    def test_categorical_columns_must_be_a_list_of_names(self, tmp_path, columns):
        # a bare "season" was read as six one-letter names, so the season column was parsed as
        # numbers and failed as "could not convert string to float"
        raw = tmp_path / "raw.csv"
        raw.write_text("time,location,season\n" + "".join(f"{0.5 + i},{i % 3},{'ab'[i % 2]}\n" for i in range(30)))
        bundle = {"seed": 3, "ingest": {"csv": str(raw), "horizon": 31.0, "categorical_columns": columns},
                  "fit": {"grid_points": 1, "pgd_steps": 5}}
        message = f"[data] categorical_columns must be a list of column names, got {columns!r}"
        with pytest.raises(PipelineError, match="^" + re.escape(message) + "$"):
            run_end_to_end(bundle, tmp_path / "run")
        assert not (tmp_path / "run" / "events.csv").exists()
        bundle["ingest"]["categorical_columns"] = ["season"]
        run_end_to_end(bundle, tmp_path / "run")
        assert (tmp_path / "run" / "events.csv").read_text().startswith("time,location,m_0,m_1")

    def test_an_empty_alphas_list_fails_the_conformal_stage(self, tmp_path):
        # it used to fit every classifier and write a header-only conformal_summary.csv
        bundle = small_bundle()
        bundle["conformal"]["alphas"] = []
        with pytest.raises(PipelineError, match=r"^\[conformal\] alphas must name at least one level$"):
            run_end_to_end(bundle, tmp_path / "run")
        assert not (tmp_path / "run" / "conformal_summary.csv").exists()

    @pytest.mark.parametrize("classes", [1, -2])
    def test_magnitude_classes_must_be_zero_or_at_least_two(self, tmp_path, classes):
        # both used to draw no labels without a word
        bundle = small_bundle(with_conformal=False)
        bundle["simulate"]["magnitude_classes"] = classes
        message = f"[data] magnitude_classes must be 0 (no labels) or at least 2, got {classes}"
        with pytest.raises(PipelineError, match="^" + re.escape(message) + "$"):
            run_end_to_end(bundle, tmp_path / "run")
        assert not (tmp_path / "run" / "events.csv").exists()

    def test_neighbor_radius_without_grid_fails(self, tmp_path):
        # cell ids carry no centroids, so a radius cannot build a mask
        raw = tmp_path / "raw.csv"
        raw.write_text("time,location,temp\n" + "".join(f"{0.5 + i},{i % 3},{20.0 + i}\n" for i in range(30)))
        bundle = {"seed": 3, "ingest": {"csv": str(raw), "horizon": 31.0, "neighbor_radius": 0.0},
                  "fit": {"grid_points": 1, "pgd_steps": 5}}
        with pytest.raises(PipelineError, match=r"^\[data\] neighbor_radius needs a grid"):
            run_end_to_end(bundle, tmp_path / "run")
        assert not (tmp_path / "run" / "params.json").exists()

    def test_excluded_id_outside_the_grid_fails(self, tmp_path):
        raw = tmp_path / "raw.csv"
        raw.write_text("time,lat,lon\n" + "".join(f"{0.5 + i},{0.1 + 0.02 * i},0.3\n" for i in range(30)))
        grid = {"lat_min": 0, "lon_min": 0, "lat_max": 1, "lon_max": 1, "cell_size": 0.5, "excluded": [4]}
        bundle = {"seed": 3, "ingest": {"csv": str(raw), "grid": grid, "horizon": 31.0},
                  "fit": {"grid_points": 1, "pgd_steps": 5}}
        with pytest.raises(PipelineError, match=r"^\[data\] excluded cell ids \[4\] are outside the grid's 4 cells"):
            run_end_to_end(bundle, tmp_path / "run")
        assert not (tmp_path / "run" / "events.csv").exists()

    def test_unknown_grid_key_fails(self, tmp_path):
        raw = tmp_path / "raw.csv"
        raw.write_text("time,lat,lon\n" + "".join(f"{0.5 + i},{0.1 + 0.02 * i},0.3\n" for i in range(30)))
        grid = {"lat_min": 0, "lon_min": 0, "lat_max": 1, "lon_max": 1, "cellsize": 0.5}
        bundle = {"seed": 3, "ingest": {"csv": str(raw), "grid": grid, "horizon": 31.0},
                  "fit": {"grid_points": 1, "pgd_steps": 5}}
        with pytest.raises(PipelineError, match=r"^\[data\] unknown grid keys \['cellsize'\]"):
            run_end_to_end(bundle, tmp_path / "run")
        assert not (tmp_path / "run" / "events.csv").exists()

    @pytest.mark.parametrize("radius", [-0.1, math.nan, -math.inf])
    def test_negative_or_nan_neighbor_radius_fails(self, tmp_path, radius):
        # either would allow no pair at all and fit a model without interactions
        raw = tmp_path / "raw.csv"
        raw.write_text("time,lat,lon\n" + "".join(f"{0.5 + i},{0.1 + 0.02 * i},0.3\n" for i in range(30)))
        grid = {"lat_min": 0, "lon_min": 0, "lat_max": 1, "lon_max": 1, "cell_size": 0.5}
        bundle = {"seed": 3, "ingest": {"csv": str(raw), "grid": grid, "horizon": 31.0, "neighbor_radius": radius},
                  "fit": {"grid_points": 1, "pgd_steps": 5}}
        with pytest.raises(PipelineError, match=r"^\[data\] neighbor_radius must be a nonnegative distance"):
            run_end_to_end(bundle, tmp_path / "run")
        assert not (tmp_path / "run" / "events.csv").exists()

    @pytest.mark.parametrize("horizon", [None, 31.0], ids=["no-horizon", "horizon"])
    @pytest.mark.parametrize("time", ["nan", "inf"])
    def test_non_finite_time_fails_the_data_stage(self, tmp_path, time, horizon):
        # a NaN time sorts last and passes every range check: with a horizon it used to reach
        # events.csv and fail the fit with a non-finite gradient; without one, the horizon read
        # off the last time failed first, as "cannot convert float ... to integer"
        raw = tmp_path / "raw.csv"
        raw.write_text("time,lat,lon\n" + "".join(f"{0.5 + i},0.3,0.3\n" for i in range(30)) + f"{time},0.3,0.3\n")
        grid = {"lat_min": 0, "lon_min": 0, "lat_max": 1, "lon_max": 1, "cell_size": 0.5}
        ingest = {"csv": str(raw), "grid": grid} | ({} if horizon is None else {"horizon": horizon})
        bundle = {"seed": 3, "ingest": ingest, "fit": {"grid_points": 1, "pgd_steps": 5}}
        with pytest.raises(PipelineError, match=r"^\[data\] column 'time' has a non-finite value$"):
            run_end_to_end(bundle, tmp_path / "run")
        assert not (tmp_path / "run" / "events.csv").exists()

    def test_infinite_neighbor_radius_allows_every_pair(self, tmp_path):
        raw = tmp_path / "raw.csv"
        raw.write_text("time,lat,lon\n" + "".join(f"{0.5 + i},{0.1 + 0.02 * i},0.3\n" for i in range(30)))
        grid = {"lat_min": 0, "lon_min": 0, "lat_max": 1, "lon_max": 1, "cell_size": 0.5}
        bundle = {"seed": 3, "ingest": {"csv": str(raw), "grid": grid, "horizon": 31.0, "neighbor_radius": math.inf},
                  "fit": {"grid_points": 1, "pgd_steps": 5}, "predict": {"screening": False}}
        run_end_to_end(bundle, tmp_path / "run")
        support = json.loads((tmp_path / "run" / "params.json").read_text())["support"]
        assert list(zip(support["src"], support["dst"])) == [(i, j) for i in range(4) for j in range(4)]


def test_perfect_predictor_gives_all_ones_f1():
    rng = np.random.default_rng(9)
    truth = np.where(rng.uniform(size=(40, 6)) < 0.2, 1, -1)
    rep = f1_metrics(truth, truth)
    assert np.all(rep.precision == 1.0) and np.all(rep.recall == 1.0)
    assert np.all(rep.f1 == 1.0)


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
