import math

import numpy as np
import pytest

from hwsynth.latlab import (
    CSV_HEADER,
    HysteresisBin,
    LatencyProfile,
    MeasurementError,
    NativeBackend,
    ProfileParseError,
    SampleStats,
    SweepConfig,
    SyntheticBackend,
    SyntheticCurveSpec,
    detect_lhps,
    dim_grid,
    load_profile,
    make_backend,
    measure_point,
    nearest_lhp,
    profile_svg,
    save_hysteresis_report,
    save_profile,
    spearman,
    sweep,
)
from hwsynth.numkit import ContractViolation
from oracles import prefix_min_lhps


def profile_from(grid, medians, batch=16):
    samples = [SampleStats(mean_ns=m, median_ns=m, p95_ns=m, runs=5)
               for m in medians]
    return LatencyProfile(hardware_id="test", batch=batch, grid=list(grid),
                          samples=samples)


class TestSyntheticCurve:
    def test_minimum_exactly_at_period_multiples(self):
        spec = SyntheticCurveSpec()  # base 10000, slope -1, period 64, jump 8192
        assert spec.latency_ns(64) == 10000.0 - 64.0
        assert spec.latency_ns(128) == 10000.0 - 128.0

    def test_dimension_just_below_multiple_is_slower(self):
        spec = SyntheticCurveSpec()
        # hand arithmetic: d=63 sits one step before the drop at 64
        # phase = 63/64, so latency = 10000 - 63 + 8192 * 63/64 = 18001
        assert spec.latency_ns(63) == pytest.approx(10000.0 - 63.0 + 8064.0)
        assert spec.latency_ns(63) > spec.latency_ns(64)

    def test_every_multiple_is_a_fresh_prefix_minimum(self):
        spec = SyntheticCurveSpec()
        grid = list(range(1, 641))
        lats = [spec.latency_ns(d) for d in grid]
        lhps = prefix_min_lhps(grid, lats)
        assert lhps == [1] + [64 * k for k in range(1, 11)]

    def test_nonpositive_curve_rejected(self):
        spec = SyntheticCurveSpec(base_ns=10.0, slope_ns=-1.0, jump_ns=0.0)
        with pytest.raises(ContractViolation):
            spec.latency_ns(100)

    def test_json_round_trip(self, tmp_path):
        path = tmp_path / "curve.json"
        path.write_text('{"base_ns": 500.0, "period": 16, "jump_ns": 64.0}',
                        encoding="utf-8")
        spec = SyntheticCurveSpec.from_json(path)
        assert spec.base_ns == 500.0 and spec.period == 16
        assert spec.slope_ns == -1.0  # default preserved

    @pytest.mark.parametrize("period", [0, -16])
    def test_curve_period_floor(self, period):
        # 0 divided by zero in the sawtooth; a negative period made every dim an LHP
        with pytest.raises(ContractViolation, match="period"):
            SyntheticCurveSpec(period=period)


class TestMeasurePoint:
    def test_virtual_backend_exact(self):
        backend = SyntheticBackend(SyntheticCurveSpec())
        stats = measure_point(backend, 64, batch=16, measured_runs=9)
        assert stats.median_ns == 9936.0
        assert stats.mean_ns == 9936.0
        assert stats.p95_ns == 9936.0
        assert stats.runs == 9

    def test_noise_bounded_and_seeded(self):
        spec = SyntheticCurveSpec(noise_ns=100.0, seed=3)
        s1 = measure_point(SyntheticBackend(spec), 64, 16, measured_runs=50)
        s2 = measure_point(SyntheticBackend(spec), 64, 16, measured_runs=50)
        base = SyntheticCurveSpec().latency_ns(64)
        assert base <= s1.median_ns <= base + 100.0
        assert s1.median_ns == s2.median_ns  # same seed, same draws

    def test_run_floor(self):
        backend = SyntheticBackend(SyntheticCurveSpec())
        with pytest.raises(ContractViolation):
            measure_point(backend, 8, 16, measured_runs=4)

    def test_dim_floor(self):
        backend = SyntheticBackend(SyntheticCurveSpec())
        with pytest.raises(ContractViolation):
            measure_point(backend, 0, 16)

    def test_native_backend_positive_times(self):
        stats = measure_point(NativeBackend(), 8, batch=4,
                              warmup_runs=2, measured_runs=5)
        assert stats.median_ns > 0.0
        assert stats.mean_ns >= stats.median_ns or stats.mean_ns > 0.0

    def test_backend_failure_carries_dim(self):
        class Broken(NativeBackend):
            def measure(self, dim, batch, warmup_runs, measured_runs):
                raise RuntimeError("boom")
        with pytest.raises(MeasurementError, match="dim 7"):
            measure_point(Broken(), 7, 16, warmup_runs=0, measured_runs=5)

    def test_synthetic_backend_failure_carries_dim(self):
        class Broken(SyntheticBackend):
            def measure(self, dim, batch, warmup_runs, measured_runs):
                raise RuntimeError("boom")
        with pytest.raises(MeasurementError, match="dim 7"):
            measure_point(Broken(SyntheticCurveSpec()), 7, 16, measured_runs=5)


class TestSweep:
    def test_point_count_matches_grid_arithmetic(self):
        # 16:128:4 inclusive grid has (128-16)/4 + 1 = 29 points
        grid = list(range(16, 129, 4))
        assert len(grid) == 29
        backend = SyntheticBackend(SyntheticCurveSpec())
        profile = sweep(backend, grid, batch=16,
                        cfg=SweepConfig(measured_runs=5))
        assert len(profile.samples) == 29
        assert profile.grid == grid

    def test_empty_grid_rejected(self):
        with pytest.raises(ContractViolation):
            sweep(SyntheticBackend(SyntheticCurveSpec()), [], 16)

    def test_grid_rule(self):
        # inclusive: 16:128:4 has (128 - 16) / 4 + 1 = 29 points, the last one hi
        grid = dim_grid((16, 128, 4))
        assert len(grid) == 29 and (grid[0], grid[-1]) == (16, 128)
        assert dim_grid((1, 12, 2))[-1] == 11          # a step may stop below hi
        assert dim_grid((5, 5, 3)) == [5]

    def test_failure_stops_the_sweep_at_its_dim(self):
        measured = []

        class FailsAt(SyntheticBackend):
            def measure(self, dim, batch, warmup_runs, measured_runs):
                if dim >= 32:
                    raise MeasurementError(dim, "thermal")
                measured.append(dim)
                return super().measure(dim, batch, warmup_runs, measured_runs)
        backend = FailsAt(SyntheticCurveSpec())
        with pytest.raises(MeasurementError, match="dim 32") as exc_info:
            sweep(backend, [8, 16, 32, 64], 16, SweepConfig(measured_runs=5))
        assert exc_info.value.dim == 32
        assert measured == [8, 16]

    def test_non_ascending_grid_rejected(self):
        with pytest.raises(ContractViolation):
            profile_from([4, 4, 8], [1.0, 1.0, 1.0])


class TestDetectLhps:
    def test_monotone_decreasing_all_lhps(self):
        profile = profile_from([1, 2, 3], [30.0, 20.0, 10.0])
        hmap = detect_lhps(profile)
        assert hmap.lhp_set == [1, 2, 3]
        assert hmap.redundancy == 0.0

    def test_monotone_increasing_single_lhp(self):
        profile = profile_from([1, 2, 3, 4], [10.0, 20.0, 30.0, 40.0])
        hmap = detect_lhps(profile)
        assert hmap.lhp_set == [1]
        assert hmap.redundancy == 0.75

    def test_ties_pick_smallest_dimension(self):
        profile = profile_from([1, 2, 3], [10.0, 10.0, 10.0])
        hmap = detect_lhps(profile)
        assert hmap.lhp_set == [1]

    def test_first_grid_point_always_lhp(self):
        profile = profile_from([5, 6, 7], [99.0, 98.0, 100.0])
        assert detect_lhps(profile).lhp_set[0] == 5

    def test_bins_partition_grid(self):
        profile = profile_from([1, 2, 3, 4, 5, 6],
                               [50.0, 40.0, 45.0, 30.0, 35.0, 33.0])
        hmap = detect_lhps(profile)
        assert hmap.lhp_set == [1, 2, 4]
        assert hmap.bins == [HysteresisBin(0, 1, 1), HysteresisBin(1, 2, 2),
                             HysteresisBin(2, 4, 4), HysteresisBin(4, 6, 4)]
        # every grid dim falls in exactly one (lower, upper] interval
        for d in profile.grid:
            hits = [b for b in hmap.bins if b.lower < d <= b.upper]
            assert len(hits) == 1

    def test_empty_profile_rejected(self):
        profile = profile_from([], [])
        with pytest.raises(ContractViolation):
            detect_lhps(profile)

    def test_matches_prefix_min_oracle_on_random_curves(self):
        rng = np.random.default_rng(9)
        for _ in range(200):
            n = int(rng.integers(1, 60))
            grid = np.sort(rng.choice(np.arange(1, 500), size=n,
                                      replace=False)).tolist()
            lats = rng.uniform(1.0, 100.0, size=n).tolist()
            hmap = detect_lhps(profile_from(grid, lats))
            assert hmap.lhp_set == prefix_min_lhps(grid, lats)
            assert hmap.redundancy == 1.0 - len(hmap.lhp_set) / n

    def test_synthetic_default_redundancy_exceeds_90pct(self):
        spec = SyntheticCurveSpec()
        grid = list(range(1, 641))
        profile = profile_from(grid, [spec.latency_ns(d) for d in grid])
        hmap = detect_lhps(profile)
        assert len(hmap.lhp_set) == 11
        assert hmap.redundancy > 0.9


class TestNearestLhp:
    def hmap(self):
        # jump > |slope| * period * (period - 1) keeps the LHP set at exactly
        # the multiples of the period
        spec = SyntheticCurveSpec(base_ns=30000.0, period=100, jump_ns=20000.0)
        grid = list(range(1, 1301))
        return detect_lhps(profile_from(grid, [spec.latency_ns(d) for d in grid]))

    def test_recovery_rounds_up_to_next_lhp(self):
        assert nearest_lhp(self.hmap(), 1197) == 1200

    def test_exact_lhp_is_its_own_target(self):
        assert nearest_lhp(self.hmap(), 700) == 700

    def test_above_all_lhps_not_found(self):
        profile = profile_from([1, 2, 3], [10.0, 20.0, 30.0])
        assert nearest_lhp(detect_lhps(profile), 3) is None

    def test_query_above_grid_rejected(self):
        with pytest.raises(ContractViolation):
            nearest_lhp(self.hmap(), 1301)

    def test_dominance_property(self):
        # the recovered dimension is never slower than any smaller grid point
        spec = SyntheticCurveSpec(period=32)
        grid = list(range(1, 257))
        lats = [spec.latency_ns(d) for d in grid]
        hmap = detect_lhps(profile_from(grid, lats))
        for d in range(1, 257, 7):
            target = nearest_lhp(hmap, d)
            if target is not None:
                assert all(lats[target - 1] <= lats[k - 1] for k in range(1, target))


class TestSpearman:
    def test_perfect_monotone(self):
        assert spearman([1, 2, 3, 4], [10, 20, 30, 40]) == pytest.approx(1.0)

    def test_perfect_inverse(self):
        assert spearman([1, 2, 3], [9, 5, 1]) == pytest.approx(-1.0)

    def test_constant_series(self):
        assert spearman([1, 2, 3], [5, 5, 5]) == 0.0

    def test_hand_computed_with_tie(self):
        # x ranks: 1,2,3,4 ; y = [1,3,3,4] ranks: 1,2.5,2.5,4
        x = [1, 2, 3, 4]
        y = [1, 3, 3, 4]
        rx = np.array([1, 2, 3, 4], dtype=float)
        ry = np.array([1, 2.5, 2.5, 4])
        rx -= rx.mean()
        ry -= ry.mean()
        expected = (rx * ry).sum() / math.sqrt((rx**2).sum() * (ry**2).sum())
        assert spearman(x, y) == pytest.approx(expected)

    def test_invariant_under_monotone_transform(self):
        rng = np.random.default_rng(4)
        x = rng.uniform(1, 10, size=30)
        y = rng.uniform(1, 10, size=30)
        assert spearman(x, y) == pytest.approx(spearman(np.log(x), y ** 3))


class TestPersistence:
    def test_csv_round_trip_bitwise(self, tmp_path):
        backend = SyntheticBackend(SyntheticCurveSpec(noise_ns=7.0, seed=5))
        profile = sweep(backend, [16, 32, 48], 8, SweepConfig(measured_runs=9))
        path = tmp_path / "p.csv"
        save_profile(profile, path)
        loaded = load_profile(path)
        assert loaded.grid == profile.grid
        assert loaded.batch == 8
        for a, b in zip(loaded.samples, profile.samples):
            assert a.median_ns == b.median_ns  # repr() round trip is exact
            assert a.mean_ns == b.mean_ns
            assert a.p95_ns == b.p95_ns
        save_profile(loaded, tmp_path / "p2.csv")
        assert (tmp_path / "p.csv").read_bytes() == (tmp_path / "p2.csv").read_bytes()

    def test_hardware_id_round_trip(self, tmp_path):
        profile = profile_from([1, 2, 3], [30.0, 10.0, 20.0])
        profile.hardware_id = "host-a"
        save_profile(profile, tmp_path / "p.csv")
        assert load_profile(tmp_path / "p.csv").hardware_id == "host-a"

    def test_profile_without_hardware_column_loads(self, tmp_path):
        path = tmp_path / "old.csv"
        path.write_text("dim,batch,mean_ns,median_ns,p95_ns,runs\n"
                        "16,8,1.0,2.0,3.0,5\n", encoding="utf-8")
        loaded = load_profile(path)
        assert loaded.hardware_id == "" and loaded.grid == [16]
        assert loaded.samples[0].median_ns == 2.0

    def test_missing_column_named(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("dim,batch,mean_ns,median_ns,runs\n", encoding="utf-8")
        with pytest.raises(ProfileParseError, match="p95_ns"):
            load_profile(path)

    def test_bad_value_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(",".join(CSV_HEADER) + "\n"
                        "16,8,1.0,1.0,1.0,5\n"
                        "oops,8,1.0,1.0,1.0,5\n", encoding="utf-8")
        with pytest.raises(ProfileParseError, match=":3:"):
            load_profile(path)

    def test_rows_that_disagree_on_batch_name_the_first_line(self, tmp_path):
        path = tmp_path / "mixed.csv"
        path.write_text(",".join(CSV_HEADER) + "\n"
                        "16,8,1.0,1.0,1.0,5\n"
                        "32,8,1.0,1.0,1.0,5\n"
                        "48,16,1.0,1.0,1.0,5\n"
                        "64,32,1.0,1.0,1.0,5\n", encoding="utf-8")
        with pytest.raises(ProfileParseError, match=r"mixed\.csv:4: batch 16.* 8"):
            load_profile(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("", encoding="utf-8")
        with pytest.raises(ProfileParseError, match="empty"):
            load_profile(path)

    def test_hysteresis_report_contents(self, tmp_path):
        profile = profile_from([1, 2, 3, 4], [10.0, 20.0, 30.0, 40.0])
        hmap = detect_lhps(profile)
        out = tmp_path / "h.json"
        save_hysteresis_report(hmap, out)
        text = out.read_text(encoding="utf-8")
        assert '"lhp_set": [' in text
        assert '"redundancy_pct": "75.0%"' in text

    def test_svg_marks_lhps(self):
        profile = profile_from([1, 2, 3], [30.0, 10.0, 20.0])
        hmap = detect_lhps(profile)
        svg = profile_svg(profile, hmap)
        assert svg.startswith("<svg ")
        assert svg.count("<circle") == len(hmap.lhp_set) == 2
        assert "polyline" in svg


class TestBackendFactory:
    def test_native(self):
        backend = make_backend("native")
        assert type(backend) is NativeBackend

    def test_synthetic_from_file(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text('{"period": 16}', encoding="utf-8")
        backend = make_backend(f"synthetic:{path}")
        assert type(backend) is SyntheticBackend
        assert backend.spec.period == 16

    def test_unknown_rejected(self):
        with pytest.raises(ContractViolation):
            make_backend("fpga")
