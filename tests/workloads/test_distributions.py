"""Unit tests for the work distributions (Figure 3 stand-ins)."""

import numpy as np
import pytest

from repro.workloads.distributions import (
    BingDistribution,
    BoundedParetoDistribution,
    ConstantDistribution,
    ExponentialDistribution,
    FinanceDistribution,
    LogNormalDistribution,
    MixtureDistribution,
    UniformDistribution,
)

ALL_DISTRIBUTIONS = [
    BingDistribution,
    FinanceDistribution,
    LogNormalDistribution,
    UniformDistribution,
    ConstantDistribution,
    ExponentialDistribution,
    BoundedParetoDistribution,
]


class TestCommonContract:
    @pytest.mark.parametrize("cls", ALL_DISTRIBUTIONS)
    def test_samples_positive(self, cls):
        ms = cls().sample_ms(0, 5000)
        assert np.all(ms > 0)

    @pytest.mark.parametrize("cls", ALL_DISTRIBUTIONS)
    def test_mean_calibration(self, cls):
        dist = cls(mean_ms=25.0)
        ms = dist.sample_ms(0, 100_000)
        assert ms.mean() == pytest.approx(25.0, rel=0.03)

    @pytest.mark.parametrize("cls", ALL_DISTRIBUTIONS)
    def test_units_are_positive_integers(self, cls):
        units = cls().sample_units(0, 2000, units_per_ms=4.0)
        assert units.dtype == np.int64
        assert np.all(units >= 1)

    @pytest.mark.parametrize("cls", ALL_DISTRIBUTIONS)
    def test_seeded_determinism(self, cls):
        a = cls().sample_ms(7, 100)
        b = cls().sample_ms(7, 100)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("cls", ALL_DISTRIBUTIONS)
    def test_name_is_stable_string(self, cls):
        assert isinstance(cls().name, str) and cls().name

    def test_invalid_mean_rejected(self):
        with pytest.raises(ValueError):
            BingDistribution(mean_ms=0.0)

    def test_invalid_units_per_ms_rejected(self):
        with pytest.raises(ValueError):
            BingDistribution().sample_units(0, 10, units_per_ms=0.0)

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            BingDistribution().sample_ms(0, -1)


class TestShapes:
    """The Figure 3 shape properties the substitutes must preserve."""

    def test_bing_is_right_skewed_with_long_tail(self):
        ms = BingDistribution().sample_ms(0, 100_000)
        assert np.median(ms) < ms.mean()  # right skew
        assert np.percentile(ms, 99) > 3 * np.median(ms)  # long tail

    def test_bing_bounded_support(self):
        d = BingDistribution(mean_ms=10.0)
        ms = d.sample_ms(0, 100_000)
        # Canonical support [5, 205] scaled by ~10/35; generous envelope.
        assert ms.max() <= 205.0
        assert ms.min() > 0.0

    def test_finance_is_bimodal(self):
        """Both published modes must carry visible probability mass."""
        d = FinanceDistribution(mean_ms=10.0)
        ms = d.sample_ms(0, 200_000)
        scale = 10.0 / 21.0  # roughly canonical mean 21ms -> 10ms
        low_mass = np.mean(np.abs(ms - 12.0 * scale) < 4.0 * scale)
        high_mass = np.mean(np.abs(ms - 36.0 * scale) < 6.0 * scale)
        valley = np.mean(np.abs(ms - 24.0 * scale) < 2.0 * scale)
        assert low_mass > 0.2
        assert high_mass > 0.1
        assert valley < low_mass  # a dip between the modes

    def test_finance_short_support(self):
        ms = FinanceDistribution().sample_ms(0, 100_000)
        assert np.percentile(ms, 99.9) < 60.0

    def test_lognormal_heavy_tail(self):
        ms = LogNormalDistribution(sigma=1.0).sample_ms(0, 100_000)
        assert np.percentile(ms, 95) > 3 * np.median(ms)

    def test_lognormal_clip_enforced(self):
        d = LogNormalDistribution(mean_ms=10.0, sigma=1.0, clip=5.0)
        raw = d._sample_canonical(np.random.default_rng(0), 100_000)
        assert raw.max() <= 5.0

    def test_constant_is_degenerate(self):
        ms = ConstantDistribution(mean_ms=7.0).sample_ms(0, 100)
        assert np.allclose(ms, 7.0)

    def test_uniform_bounds(self):
        d = UniformDistribution(mean_ms=10.0, low=0.5, high=1.5)
        ms = d.sample_ms(0, 50_000)
        assert ms.min() >= 10.0 * 0.5 * 0.99
        assert ms.max() <= 10.0 * 1.5 * 1.01

    def test_bounded_pareto_bounds_and_tail(self):
        d = BoundedParetoDistribution(mean_ms=10.0, low=1.0, high=1000.0)
        raw = d._sample_canonical(np.random.default_rng(0), 100_000)
        assert raw.min() >= 1.0
        assert raw.max() <= 1000.0
        # Heavy tail: p99 far above the median.
        assert np.percentile(raw, 99) > 10 * np.median(raw)

    def test_invalid_shape_params(self):
        with pytest.raises(ValueError):
            LogNormalDistribution(sigma=-1.0)
        with pytest.raises(ValueError):
            LogNormalDistribution(clip=0.5)
        with pytest.raises(ValueError):
            UniformDistribution(low=2.0, high=1.0)
        with pytest.raises(ValueError):
            BoundedParetoDistribution(alpha=0.0)
        with pytest.raises(ValueError):
            BoundedParetoDistribution(low=5.0, high=2.0)


class TestMixture:
    def make(self, mean_ms=10.0):
        # 80% cheap constant-ish requests + 20% 10x-expensive ones.
        return MixtureDistribution(
            [
                (0.8, ConstantDistribution(mean_ms=1.0)),
                (0.2, ConstantDistribution(mean_ms=10.0)),
            ],
            mean_ms=mean_ms,
        )

    def test_mean_calibration(self):
        ms = self.make(mean_ms=25.0).sample_ms(0, 100_000)
        assert ms.mean() == pytest.approx(25.0, rel=0.03)

    def test_relative_component_sizes_preserved(self):
        ms = self.make().sample_ms(0, 100_000)
        values = np.unique(np.round(ms, 6))
        assert len(values) == 2
        assert values[1] / values[0] == pytest.approx(10.0, rel=1e-6)

    def test_component_probabilities_respected(self):
        ms = self.make().sample_ms(0, 100_000)
        cheap = np.min(ms)
        assert np.mean(np.isclose(ms, cheap)) == pytest.approx(0.8, abs=0.01)

    def test_name_lists_components(self):
        assert self.make().name == "mixture(constant+constant)"

    def test_heterogeneous_components(self):
        d = MixtureDistribution(
            [(0.5, BingDistribution()), (0.5, ExponentialDistribution())]
        )
        ms = d.sample_ms(0, 10_000)
        assert np.all(ms > 0)

    def test_validation(self):
        with pytest.raises(ValueError, match="at least one"):
            MixtureDistribution([])
        with pytest.raises(ValueError, match="sum to 1"):
            MixtureDistribution([(0.5, ConstantDistribution())])
        with pytest.raises(ValueError, match="positive"):
            MixtureDistribution(
                [(1.5, ConstantDistribution()), (-0.5, ConstantDistribution())]
            )


class TestNaturalScale:
    def test_natural_bing_matches_published_support(self):
        d = BingDistribution.natural()
        ms = d.sample_ms(0, 50_000)
        assert 5.0 <= ms.min()
        assert ms.max() <= 205.0
        # The published histogram peaks in the tens of milliseconds.
        assert 25.0 < np.median(ms) < 45.0

    def test_natural_finance_matches_published_support(self):
        d = FinanceDistribution.natural()
        ms = d.sample_ms(0, 50_000)
        assert 4.0 <= ms.min()
        assert ms.max() <= 56.0

    def test_natural_scale_factor_is_identity(self):
        d = BingDistribution.natural()
        # mean_ms equals the canonical mean, so the rescale multiplier
        # is 1 and samples equal the canonical shape.
        assert d._ensure_scale() == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("cls", ALL_DISTRIBUTIONS)
    def test_natural_exists_for_every_distribution(self, cls):
        d = cls.natural()
        assert d.sample_ms(0, 100).min() > 0


class TestHistogram:
    def test_probabilities_sum_to_one(self):
        edges, probs = BingDistribution().histogram(0, size=20_000)
        assert probs.sum() == pytest.approx(1.0)
        assert len(edges) == len(probs) + 1

    def test_bin_width_respected(self):
        edges, _ = FinanceDistribution().histogram(0, size=5000, bin_width_ms=4.0)
        assert np.allclose(np.diff(edges), 4.0)


class TestCalibrationMemo:
    """One calibration per distinct distribution, shared across instances."""

    @pytest.mark.parametrize("cls", ALL_DISTRIBUTIONS)
    def test_memo_hit_equals_fresh_calibration(self, cls):
        first = cls(mean_ms=7.0)
        first._ensure_scale()
        again = cls(mean_ms=7.0)
        assert again._ensure_scale() == again._calibrate()
        assert again._ensure_scale() == first._ensure_scale()
        assert np.array_equal(again.sample_ms(3, 200), first.sample_ms(3, 200))

    def test_memo_skips_the_calibration_draw(self, monkeypatch):
        BingDistribution(mean_ms=11.0)._ensure_scale()
        d = BingDistribution(mean_ms=11.0)
        monkeypatch.setattr(
            d, "_calibrate", lambda: pytest.fail("calibrated twice")
        )
        d._ensure_scale()

    def test_distinct_distributions_never_share_a_scale(self):
        from repro.workloads.distributions import _SCALES

        dists = [
            BingDistribution(mean_ms=10.0),
            BingDistribution(mean_ms=12.0),
            FinanceDistribution(mean_ms=10.0),
            LogNormalDistribution(mean_ms=10.0, sigma=1.0),
            LogNormalDistribution(mean_ms=10.0, sigma=0.5),
            LogNormalDistribution(mean_ms=10.0, clip=20.0),
        ]
        scales = [d._ensure_scale() for d in dists]
        assert len(set(scales)) == len(dists)
        for d, scale in zip(dists, scales):
            assert scale == d._calibrate()
            assert _SCALES[(type(d), d.token())] == scale

    def test_subclass_with_same_token_text_gets_its_own_scale(self):
        from repro.workloads import distributions

        base = distributions.BingDistribution

        class BingDistribution(base):  # same name, different shape
            BODY_MEDIAN = 60.0

        plain, heavier = base(), BingDistribution()
        assert plain.token() == heavier.token()
        assert heavier._ensure_scale() == heavier._calibrate()
        assert heavier._ensure_scale() != plain._ensure_scale()
