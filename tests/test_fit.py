import math
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from periodetect.densities import FITTED_RATE_FLOOR, FITTED_VARIANCE_FLOOR, Gaussian
from periodetect.detectors import ClassifierBankDetector
from periodetect.fit import (
    CycleSet,
    fit_gaussian,
    fit_poisson,
    median_smooth,
    read_cycles_csv,
    read_long_csv,
    resample_cycle,
    restrict_slots,
)
from periodetect.model import ClassBank, IpidLaw
from periodetect.simulate import sample_law, trial_rng


def gaussian_law(means, variance=1.0):
    return IpidLaw(period=len(means), slots=tuple(Gaussian(m, variance) for m in means))


@pytest.mark.parametrize("period", [3.5, "3", True])
def test_a_target_period_that_is_no_whole_number_is_rejected(period):
    assert CycleSet(((1.0, 2.0),), 3.0) == CycleSet(((1.0, 2.0),), 3)
    with pytest.raises(ValueError, match=f"^target period must be a whole number, got {re.escape(repr(period))}$"):
        CycleSet(((1.0, 2.0),), period)


@pytest.mark.parametrize("make, message", [
    (lambda: CycleSet(cycles=(), target_period=2), "need at least one cycle"),
    (lambda: CycleSet(cycles=((1.0, 2.0), ()), target_period=2), "cycles must be nonempty"),
    (lambda: CycleSet(cycles=((1.0, 2.0),), target_period=1), "target period must be >= 2"),
    (lambda: resample_cycle([1.0, 2.0], 1), "target period must be >= 2")])
def test_a_cycle_set_or_a_resample_names_the_fault(make, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        make()


class TestResample:
    def test_same_length_is_identity(self):
        np.testing.assert_array_equal(resample_cycle([3.0, 1.0, 4.0], 3), [3.0, 1.0, 4.0])

    def test_two_points_to_three(self):
        np.testing.assert_allclose(resample_cycle([0.0, 2.0], 3), [0.0, 1.0, 2.0])

    def test_endpoints_preserved(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            length = rng.integers(2, 40)
            target = rng.integers(2, 40)
            cycle = rng.normal(0, 1, length)
            out = resample_cycle(cycle, int(target))
            assert out[0] == cycle[0]
            assert out[-1] == cycle[-1]

    def test_short_cycle_rejected(self):
        with pytest.raises(ValueError):
            resample_cycle([1.0], 4)

    @given(st.lists(st.floats(-50, 50), min_size=2, max_size=30), st.integers(2, 40))
    def test_monotone_preserving(self, values, target):
        values = sorted(values)
        out = resample_cycle(values, target)
        assert all(a <= b + 1e-12 for a, b in zip(out, out[1:]))


class TestMedianSmooth:
    def test_window_one_is_identity(self):
        np.testing.assert_array_equal(median_smooth([5.0, 2.0, 8.0], 1), [5.0, 2.0, 8.0])

    def test_hand_values_with_partial_start(self):
        # trailing windows: [1], [1,9], [1,9,1], [9,1,1]
        np.testing.assert_allclose(median_smooth([1.0, 9.0, 1.0, 1.0], 3), [1.0, 5.0, 1.0, 1.0])

    def test_constant_series_unchanged(self):
        np.testing.assert_array_equal(median_smooth([2.0] * 7, 4), [2.0] * 7)

    @given(st.lists(st.floats(-100, 100), min_size=1, max_size=40), st.integers(1, 10))
    def test_output_bounded_by_window_extremes(self, values, window):
        out = median_smooth(values, window)
        for i, v in enumerate(out):
            lo = min(values[max(0, i - window + 1):i + 1])
            hi = max(values[max(0, i - window + 1):i + 1])
            assert lo - 1e-9 <= v <= hi + 1e-9


class TestFitGaussian:
    def test_hand_computed_two_cycles(self):
        law = fit_gaussian(CycleSet(cycles=((0.0, 1.0), (2.0, 3.0)), target_period=2))
        assert [d.mean for d in law.slots] == [1.0, 2.0]
        assert [d.variance for d in law.slots] == [2.0, 2.0]  # unbiased denominator

    def test_identical_cycles_hit_variance_floor(self):
        law = fit_gaussian(CycleSet(cycles=((1.0, 2.0),) * 5, target_period=2))
        assert all(d.variance == FITTED_VARIANCE_FLOOR for d in law.slots)

    def test_only_degenerate_slot_floored(self):
        law = fit_gaussian(CycleSet(cycles=((1.0, 0.0), (1.0, 2.0)), target_period=2))
        assert law.slots[0].variance == FITTED_VARIANCE_FLOOR
        assert law.slots[1].variance == 2.0

    def test_single_cycle_rejected(self):
        with pytest.raises(ValueError):
            fit_gaussian(CycleSet(cycles=((1.0, 2.0),), target_period=2))

    def test_unequal_cycles_resampled(self):
        law = fit_gaussian(CycleSet(cycles=((0.0, 2.0), (0.0, 1.0, 2.0)), target_period=3))
        assert [d.mean for d in law.slots] == [0.0, 1.0, 2.0]

    def test_round_trip_recovery(self):
        truth = gaussian_law([0.0, 2.0, -1.0, 0.5], variance=0.25)
        n_cycles = 500
        rng = trial_rng(200)
        obs = sample_law(rng, truth, n_cycles * truth.period)
        cycles = tuple(tuple(obs[i * 4:(i + 1) * 4]) for i in range(n_cycles))
        fitted = fit_gaussian(CycleSet(cycles=cycles, target_period=4))
        for est, true in zip(fitted.slots, truth.slots):
            assert abs(est.mean - true.mean) < 3 * math.sqrt(true.variance / n_cycles)
            assert abs(est.variance - true.variance) / true.variance < 0.20


class TestFitPoisson:
    def test_hand_computed_rates(self):
        law = fit_poisson(CycleSet(cycles=((2.0, 4.0), (4.0, 6.0)), target_period=2))
        assert [d.rate for d in law.slots] == [3.0, 5.0]

    def test_single_cycle_allowed(self):
        law = fit_poisson(CycleSet(cycles=((2.0, 7.0),), target_period=2))
        assert [d.rate for d in law.slots] == [2.0, 7.0]

    def test_empty_slot_hits_rate_floor(self):
        law = fit_poisson(CycleSet(cycles=((0.0, 3.0), (0.0, 5.0)), target_period=2))
        assert law.slots[0].rate == FITTED_RATE_FLOOR

    def test_non_integer_counts_rejected(self):
        with pytest.raises(ValueError):
            fit_poisson(CycleSet(cycles=((1.5, 2.0),), target_period=2))
        with pytest.raises(ValueError):
            fit_poisson(CycleSet(cycles=((-1.0, 2.0),), target_period=2))


class TestRestrictSlots:
    def test_full_subset_keeps_statistics(self):
        laws = (gaussian_law([0, 0]), gaussian_law([1, 1]), gaussian_law([-1, 2]))
        bank = ClassBank(2, laws)
        restricted = restrict_slots(bank, range(2))
        xs = np.random.default_rng(1).normal(0.5, 1.0, 20)
        a, b = ClassifierBankDetector(bank, 1e9), ClassifierBankDetector(restricted, 1e9)
        for x in xs:
            assert a.step(x).statistic == b.step(x).statistic

    def test_degenerate_restriction_rejected(self):
        laws = (gaussian_law([0, 0]), gaussian_law([1, 0]), gaussian_law([2, 5]))
        bank = ClassBank(2, laws)
        with pytest.raises(ValueError):
            restrict_slots(bank, {1})  # laws 0 and 1 coincide on slot 1

    def test_updates_zero_outside_subset(self):
        laws = (gaussian_law([0, 0]), gaussian_law([1, 1]), gaussian_law([-1, 2]))
        restricted = restrict_slots(ClassBank(2, laws), {1})
        det = ClassifierBankDetector(restricted, 1e9)
        res = det.step(10.0)  # slot 0 is outside the active set
        assert res.statistic == 0.0

    @pytest.mark.parametrize("slots, message", [
        ([0.5], "an index of active_slots must be a whole number, got 0.5"),
        ([], "active_slots must be nonempty"),
        ([0, 2], "active_slots [0, 2] outside 0..1")])
    def test_invalid_slots_rejected(self, slots, message):
        bank = ClassBank(2, (gaussian_law([0, 0]), gaussian_law([1, 1]), gaussian_law([-1, 2])))
        assert restrict_slots(bank, [1.0]) == restrict_slots(bank, {1})
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            restrict_slots(bank, slots)


class TestCsvIngestion:
    def test_long_format(self, tmp_path):
        path = tmp_path / "long.csv"
        rows = ["time,value"] + [f"{i},{float(v)}" for i, v in enumerate([1, 2, 3, 4, 5])]
        path.write_text("\n".join(rows) + "\n")
        cycles = read_long_csv(path, period=2)
        assert cycles.cycles == ((1.0, 2.0), (3.0, 4.0))  # trailing partial dropped

    def test_long_format_bad_line_reports_number(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("time,value\n0,1.0\n1,oops\n")
        with pytest.raises(ValueError, match="line 3"):
            read_long_csv(path, period=2)

    def test_cycle_rows(self, tmp_path):
        path = tmp_path / "cycles.csv"
        path.write_text("1,2,3\n4,5,6,7\n")
        cycles = read_cycles_csv(path)
        assert cycles.target_period == 3
        assert cycles.cycles == ((1.0, 2.0, 3.0), (4.0, 5.0, 6.0, 7.0))

    @pytest.mark.parametrize("read, text, message", [
        # after a quoted field over two lines, the next row starts on line 4, not 3
        ("long", 'time,value\n1,"1.5\n"\n2,abc\n', "line 4: cannot parse observation values"),
        ("cycles", '1,"1.5\n"\nabc,2\n', "line 3: cannot parse observation values"),
        ("long", "time,value\n1,1.5\n2\n3,2.5\n", "line 3: expected at least 2 fields, got 1"),
        ("long", "value,time\n1.5,1\n,2\n", "line 3: cannot parse observation values"),
        ("long", "time,value\n1," + " " * 140_000 + "1.5\n", "line 2: field larger than field limit (131072)"),
        ("cycles", "1,2\n" + " " * 140_000 + "1.5,2\n", "line 2: field larger than field limit (131072)"),
    ], ids=["long-after-two-lines", "cycles-after-two-lines", "long-short-row", "long-blank-value", "long-huge-field",
            "cycles-huge-field"])
    def test_a_bad_row_is_named_by_the_line_it_starts_on(self, tmp_path, read, text, message):
        path = tmp_path / "train.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            read_long_csv(path, period=2) if read == "long" else read_cycles_csv(path)

    @pytest.mark.parametrize("blank", ["", "   ", ",", " , \t"])
    def test_blank_rows_are_skipped_before_and_after_the_header(self, tmp_path, blank):
        path = tmp_path / "long.csv"
        path.write_text(f"{blank}\ntime,value\n0,1.0\n{blank}\n1,2.0\n{blank}\n2,3.0\n3,4.0\n")
        assert read_long_csv(path, period=2).cycles == ((1.0, 2.0), (3.0, 4.0))

    def test_a_repeated_value_column_is_read_from_its_last_field(self, tmp_path):
        path = tmp_path / "long.csv"
        path.write_text("time,value,value\n0,1.0,5.0\n1,2.0,6.0\n")
        assert read_long_csv(path, period=2).cycles == ((5.0, 6.0),)

    def test_too_short_stream_rejected(self, tmp_path):
        path = tmp_path / "short.csv"
        path.write_text("time,value\n0,1.0\n")
        with pytest.raises(ValueError):
            read_long_csv(path, period=4)

    @pytest.mark.parametrize("read, period, text, message", [
        (read_long_csv, 1, "time,value\n0,1.0\n1,2.0\n", "period must be >= 2"),
        (read_long_csv, 2, "time,count\n0,1.0\n1,2.0\n", "expected a header containing 'value'"),
        (read_cycles_csv, None, "\n , \n", "no cycles found")])
    def test_a_file_without_the_input_is_named(self, tmp_path, read, period, text, message):
        path = tmp_path / "train.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            read(path, period)
