"""Tests for median-window coreset selection and its quality measurement."""

import math

import numpy as np
import numpy.testing as npt
import pytest

from streamfp.core_math import angular_cost
from streamfp.coreset import check_quality_bound, select_coreset


def window_oracle(similarity, sigma):
    """Independent sort-then-slice reference for the selection window."""
    b = len(similarity)
    c = max(1, math.floor(sigma * b))
    order = sorted(range(b), key=lambda i: (-similarity[i], i))
    lo = b // 2 - c // 2
    return order[lo:lo + c]


class TestSelectCoreset:
    def test_window_positions_b20(self):
        # b=20, sigma=0.5: c=10, window [5, 15) of the sorted order
        s = np.arange(20, dtype=np.float64)  # descending order is 19..0
        sel = select_coreset(s, 0.5)
        assert sel.c == 10
        # sorted order is index 19, 18, ..., 0; positions 5..14 are 14..5
        npt.assert_array_equal(sel.indices, np.arange(14, 4, -1))

    def test_window_positions_b5(self):
        # b=5, sigma=0.4: c=2, window [1, 3)
        s = np.array([0.1, 0.2, 0.3, 0.4, 0.5])
        sel = select_coreset(s, 0.4)
        assert sel.c == 2
        npt.assert_array_equal(sel.indices, [3, 2])

    def test_full_ratio_is_whole_batch(self):
        rng = np.random.default_rng(3)
        s = rng.standard_normal(16)
        sel = select_coreset(s, 1.0)
        assert sorted(sel.indices.tolist()) == list(range(16))

    def test_odd_c_extends_right(self):
        s = np.arange(10, dtype=np.float64)
        sel = select_coreset(s, 0.31)  # c = 3
        assert sel.c == 3
        assert len(sel.indices) == 3
        # window is [5-1, 5+1) extended right -> positions [4, 7)
        npt.assert_array_equal(sel.indices, [5, 4, 3])

    def test_matches_brute_force_oracle(self):
        # acceptance-grade exactness, including ties: quantized values
        # force many equal similarities
        rng = np.random.default_rng(1234)
        for _ in range(1000):
            b = int(rng.integers(2, 501))
            sigma = float(rng.uniform(0.0, 1.0)) or 1.0
            sigma = min(1.0, max(sigma, 1e-6))
            if rng.random() < 0.5:
                s = rng.integers(0, 8, size=b).astype(np.float64) / 7.0
            else:
                s = rng.uniform(-1, 1, size=b)
            sel = select_coreset(s, sigma)
            npt.assert_array_equal(sel.indices, window_oracle(s, sigma))

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(5)
        s = rng.uniform(-1, 1, size=37)
        a = select_coreset(s, 0.4).indices
        b = select_coreset(np.exp(3.0 * s) + 2.0, 0.4).indices
        npt.assert_array_equal(a, b)

    def test_window_nesting(self):
        rng = np.random.default_rng(6)
        s = rng.uniform(-1, 1, size=40)
        small = set(select_coreset(s, 0.2).indices.tolist())  # c = 8
        large = set(select_coreset(s, 0.6).indices.tolist())  # c = 24
        assert small <= large

    def test_excludes_extremes(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            b = int(rng.integers(4, 60))
            s = rng.uniform(-1, 1, size=b)
            sigma = float(rng.uniform(0.05, (b - 2) / b))
            sel = select_coreset(s, sigma)
            if sel.c <= b - 2:
                assert int(np.argmax(s)) not in sel.indices
                assert int(np.argmin(s)) not in sel.indices

    def test_errors(self):
        with pytest.raises(ValueError):
            select_coreset(np.array([]), 0.5)
        with pytest.raises(ValueError):
            select_coreset(np.array([0.1]), 0.0)
        with pytest.raises(ValueError):
            select_coreset(np.array([0.1]), 1.5)


class TestCostAndBound:
    def test_cost_of_aligned_is_zero(self):
        assert angular_cost(np.ones(4)) == pytest.approx(0.0)

    def test_cost_hand_value(self):
        assert angular_cost(np.array([0.5, 0.5])) == pytest.approx(np.pi / 3)

    def test_partition_linearity(self):
        rng = np.random.default_rng(8)
        s = rng.uniform(-1, 1, size=12)
        whole = angular_cost(s)
        part = (angular_cost(s[:5]) * 5 + angular_cost(s[5:]) * 7) / 12
        assert whole == pytest.approx(part)

    def test_full_sigma_zero_deviation(self):
        rng = np.random.default_rng(9)
        s = rng.uniform(-1, 1, size=10)
        sel = select_coreset(s, 1.0)
        assert check_quality_bound(s, sel).deviation == pytest.approx(0.0)

    def test_constant_similarity_zero_deviation(self):
        s = np.full(8, 0.3)
        sel = select_coreset(s, 0.5)
        assert check_quality_bound(s, sel).deviation == pytest.approx(0.0)

    def test_hand_evaluation_b4(self):
        s = np.array([0.9, 0.5, 0.1, -0.3])
        sel = select_coreset(s, 0.5)
        # sorted descending: [0.9, 0.5, 0.1, -0.3]; window [1, 3)
        npt.assert_array_equal(np.sort(sel.indices), [1, 2])
        full = np.arccos(s).mean()
        subset = np.arccos(s[[1, 2]]).mean()
        report = check_quality_bound(s, sel)
        assert report.deviation == pytest.approx(abs(subset - full) / full)
        assert report.sigma_b == pytest.approx(2.0)

    def test_zero_cost_batch_reports_zero(self):
        s = np.ones(6)
        sel = select_coreset(s, 0.5)
        assert check_quality_bound(s, sel).deviation == 0.0
