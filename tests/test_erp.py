import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from avq360.erp import cos_latitude_prior, partition_erp, row_latitude
from avq360.errors import ValidationError

from oracles import LatitudeWeights, aggregate_band_features


class TestPartition:
    def test_equal_division(self):
        part = partition_erp(32, 4)
        assert part.band_row_ranges == [(0, 8), (8, 16), (16, 24), (24, 32)]

    def test_single_band_centered_on_equator(self):
        part = partition_erp(32, 1)
        assert part.band_row_ranges == [(0, 32)]
        assert part.band_latitude_centers[0] == pytest.approx(0.0, abs=1e-15)

    def test_remainder_goes_north(self):
        part = partition_erp(10, 3)
        assert part.band_row_ranges == [(0, 4), (4, 7), (7, 10)]

    def test_out_of_range(self):
        with pytest.raises(ValidationError):
            partition_erp(8, 0)
        with pytest.raises(ValidationError):
            partition_erp(8, 9)

    @given(st.integers(1, 128), st.data())
    def test_tiles_exactly(self, height, data):
        m = data.draw(st.integers(1, height))
        part = partition_erp(height, m)
        covered = []
        for a, b in part.band_row_ranges:
            assert a < b
            covered.extend(range(a, b))
        assert covered == list(range(height))
        # ordered north to south, centers strictly decreasing latitude
        centers = part.band_latitude_centers
        assert np.all(np.diff(centers) < 0) or m == 1
        assert np.all(np.abs(centers) < math.pi / 2)

    def test_row_latitude_endpoints(self):
        # first row center sits just south of the pole
        assert row_latitude(0, 32) == pytest.approx(math.pi / 2 - math.pi * 0.5 / 32)
        assert row_latitude(31, 32) == pytest.approx(-math.pi / 2 + math.pi * 0.5 / 32)


class TestCosPrior:
    def test_single_band_is_one(self):
        np.testing.assert_allclose(cos_latitude_prior(partition_erp(16, 1)), [1.0])

    def test_two_symmetric_bands(self):
        np.testing.assert_allclose(
            cos_latitude_prior(partition_erp(32, 2)), [0.5, 0.5], atol=1e-12
        )

    def test_polar_bands_lighter_than_equatorial(self):
        prior = cos_latitude_prior(partition_erp(32, 4))
        # summation oracle
        expected = np.zeros(4)
        for m, (a, b) in enumerate(partition_erp(32, 4).band_row_ranges):
            expected[m] = sum(
                math.cos(math.pi / 2 - math.pi * (r + 0.5) / 32) for r in range(a, b)
            )
        expected /= expected.sum()
        np.testing.assert_allclose(prior, expected, atol=1e-12)
        assert prior[0] < prior[1] and prior[3] < prior[2]

    @given(st.integers(2, 64), st.data())
    def test_mirror_symmetry(self, height, data):
        m = data.draw(st.integers(1, height))
        prior = cos_latitude_prior(partition_erp(height, m))
        assert prior.sum() == pytest.approx(1.0, abs=1e-12)
        if height % m == 0:  # equal-height bands mirror exactly
            np.testing.assert_allclose(prior, prior[::-1], atol=1e-12)


class TestAggregation:
    def test_identical_features_any_weights(self):
        rng = np.random.default_rng(0)
        f = rng.normal(size=(3, 5))
        weights = LatitudeWeights.from_logits([0.7, 0.2, 0.1], [0.5, -1.0, 2.0])
        out = aggregate_band_features([f, f, f], weights)
        np.testing.assert_allclose(out, f, atol=1e-12)

    def test_one_hot_selects_band(self):
        rng = np.random.default_rng(1)
        feats = [rng.normal(size=(4,)) for _ in range(3)]
        # huge logit on band 2 makes the softmax effectively one-hot
        weights = LatitudeWeights.from_logits([1 / 3] * 3, [0.0, 0.0, 50.0])
        out = aggregate_band_features(feats, weights)
        np.testing.assert_allclose(out, feats[2], atol=1e-10)

    def test_uniform_prior_zero_logits_is_mean(self):
        rng = np.random.default_rng(2)
        feats = [rng.normal(size=(2, 3)) for _ in range(4)]
        weights = LatitudeWeights.from_logits([0.25] * 4, np.zeros(4))
        np.testing.assert_allclose(
            aggregate_band_features(feats, weights), np.mean(feats, axis=0), atol=1e-12
        )

    def test_shape_mismatch(self):
        weights = LatitudeWeights.from_logits([0.5, 0.5], [0.0, 0.0])
        with pytest.raises(ValidationError, match="shapes differ"):
            aggregate_band_features([np.zeros(3), np.zeros(4)], weights)

    @given(st.integers(0, 2 ** 31 - 1))
    def test_probability_vector_and_convexity(self, seed):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(1, 6))
        prior = rng.uniform(0.1, 1.0, m)
        prior /= prior.sum()
        logits = rng.normal(0, 2, m)
        weights = LatitudeWeights.from_logits(prior, logits)
        eff = weights.effective_weights
        assert np.all(eff >= 0)
        assert eff.sum() == pytest.approx(1.0, abs=1e-9)
        feats = [rng.normal(size=(3, 2)) for _ in range(m)]
        out = aggregate_band_features(feats, weights)
        stacked = np.stack(feats)
        assert np.all(out <= stacked.max(axis=0) + 1e-12)
        assert np.all(out >= stacked.min(axis=0) - 1e-12)

    def test_log_prior_acts_as_bias(self):
        # softmax(logits + log prior) equals prior when logits are zero
        prior = np.array([0.1, 0.2, 0.3, 0.4])
        weights = LatitudeWeights.from_logits(prior, np.zeros(4))
        np.testing.assert_allclose(weights.effective_weights, prior, atol=1e-12)
