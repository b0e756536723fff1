"""Weight schemes: normalization, monotonicity, frozen reference values."""

import numpy as np
import pytest

from rankzo.weights import (WeightVector, blom_weights, check_scheme, log_weights,
                            uniform_weights, weight_ratio, weights_by_name)

ALL_N = [4, 8, 16, 32, 64, 128, 256]


class TestUniform:
    def test_n8_values(self):
        w = uniform_weights(8)
        np.testing.assert_allclose(w.w_plus, [0.5, 0.5])
        np.testing.assert_allclose(w.w_minus, [-0.5, -0.5])

    def test_n16_magnitude(self):
        w = uniform_weights(16)
        np.testing.assert_allclose(w.magnitudes(), 0.25)

    def test_ratio_exactly_one(self):
        assert weight_ratio(uniform_weights(16)) == 1.0


class TestLog:
    def test_unnormalized_ratio_rank1_rank5(self):
        # raw magnitudes are log(21) - log(k); the rank-1/rank-5 quotient
        # computed by direct logarithm arithmetic
        w = log_weights(20)
        ratio = w.w_plus[0] / w.w_plus[4]
        assert ratio == pytest.approx(2.1214934619336283, rel=1e-12)

    def test_quoted_approximation_close(self):
        # the coarse log(N)/log(4) approximation quoted for N=20 is 2.16
        w = log_weights(20)
        ratio = w.w_plus[0] / w.w_plus[4]
        assert ratio == pytest.approx(2.16, rel=0.02)

    def test_strictly_decreasing_positive_side(self):
        w = log_weights(20)
        assert np.all(np.diff(w.w_plus) < 0)

    def test_negative_side_mirrors(self):
        # worst rank carries the largest magnitude
        w = log_weights(20)
        assert np.all(np.diff(np.abs(w.w_minus)) > 0)
        assert abs(w.w_minus[-1]) == pytest.approx(w.w_plus[0], rel=1e-12)


# |Phi^{-1}((k - 0.375) / 20.25)| for k = 1..5, frozen from a
# high-precision inverse normal CDF evaluation
BLOM_N20_MAGNITUDES = np.array([
    1.8682416548639305, 1.4034126358514014, 1.1281436452787637,
    0.9191355220462101, 0.7441427422201676,
])


class TestBlom:
    def test_best_quartile_magnitudes_n20(self):
        w = blom_weights(20)
        expected = BLOM_N20_MAGNITUDES / BLOM_N20_MAGNITUDES.sum()
        np.testing.assert_allclose(w.w_plus, expected, rtol=1e-12)

    def test_argument_symmetry(self):
        # magnitude at rank k equals magnitude at rank n+1-k
        w = blom_weights(20)
        np.testing.assert_allclose(w.w_plus, np.abs(w.w_minus)[::-1], atol=1e-10)

    def test_correlation_with_log_weights(self):
        wb = blom_weights(20)
        wl = log_weights(20)
        corr = np.corrcoef(wb.w_plus, wl.w_plus)[0, 1]
        assert corr >= 0.95

    def test_monotone_sides(self):
        w = blom_weights(32)
        assert np.all(np.diff(w.w_plus) < 0)
        assert np.all(np.diff(np.abs(w.w_minus)) > 0)


class TestWeightRatio:
    def test_log_n20_frozen(self):
        # 1 / 2.1214934... from the exact unnormalized log weights
        assert weight_ratio(log_weights(20)) == pytest.approx(
            0.4713660531805518, rel=1e-12)

    @pytest.mark.parametrize("scheme", ["uniform", "log", "blom"])
    @pytest.mark.parametrize("n", ALL_N)
    def test_in_unit_interval(self, scheme, n):
        r = weight_ratio(weights_by_name(scheme, n))
        assert 0.0 < r <= 1.0


class TestInvariants:
    @pytest.mark.parametrize("scheme", ["uniform", "log", "blom"])
    @pytest.mark.parametrize("n", ALL_N)
    def test_normalization(self, scheme, n):
        w = weights_by_name(scheme, n)
        assert abs(w.w_plus.sum() - 1.0) <= 1e-12
        assert abs(w.w_minus.sum() + 1.0) <= 1e-12

    @pytest.mark.parametrize("scheme", ["log", "blom"])
    @pytest.mark.parametrize("n", ALL_N)
    def test_side_monotonicity(self, scheme, n):
        w = weights_by_name(scheme, n)
        assert np.all(np.diff(w.w_plus) <= 0)
        assert np.all(np.diff(np.abs(w.w_minus)) >= 0)

    @pytest.mark.parametrize("scheme", ["uniform", "log", "blom"])
    def test_signed_layout(self, scheme):
        w = weights_by_name(scheme, 16)
        signed = w.signed()
        assert signed.shape == (8,)
        assert np.all(signed[:4] > 0) and np.all(signed[4:] < 0)

    def test_indivisible_n_rejected(self):
        for scheme in ("uniform", "log", "blom"):
            with pytest.raises(ValueError):
                weights_by_name(scheme, 10)

    @pytest.mark.parametrize("build", [
        check_scheme,
        lambda scheme: weights_by_name(scheme, 16),
    ], ids=["check_scheme", "weights_by_name"])
    def test_unknown_scheme_message(self, build):
        with pytest.raises(ValueError) as exc:
            build("cma")
        assert str(exc.value) == ("unknown weight scheme 'cma'; "
                                  "choose from ['blom', 'log', 'uniform']")

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ValueError):
            weights_by_name("cma", 16)

    @pytest.mark.parametrize("w_plus,w_minus", [
        ([0.5, 0.5], [-1.0]),
        ([[0.5, 0.5]], [[-0.5, -0.5]]),
        ([], []),
    ], ids=["unequal_lengths", "two_dimensional", "empty"])
    def test_bad_shape_rejected(self, w_plus, w_minus):
        with pytest.raises(ValueError) as exc:
            WeightVector(w_plus=np.array(w_plus), w_minus=np.array(w_minus),
                         scheme="broken")
        assert str(exc.value) == "w_plus and w_minus must be equal-length 1-d arrays"

    def test_invalid_vector_rejected(self):
        with pytest.raises(ValueError):
            WeightVector(w_plus=np.array([0.5, 0.5]),
                         w_minus=np.array([-0.4, -0.4]), scheme="broken")
        with pytest.raises(ValueError):
            WeightVector(w_plus=np.array([1.5, -0.5]),
                         w_minus=np.array([-0.5, -0.5]), scheme="broken")
