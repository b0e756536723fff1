"""Weight schemes: normalization, monotonicity, frozen reference values."""

import numpy as np
import pytest

from rankzo.weights import check_scheme, weight_ratio, weights_by_name

ALL_N = [4, 8, 16, 32, 64, 128, 256]


def quartiles(scheme, n):
    """The best-quartile (positive) and worst-quartile (negative) weights."""
    return np.split(weights_by_name(scheme, n), 2)


class TestUniform:
    def test_n8_values(self):
        np.testing.assert_allclose(weights_by_name("uniform", 8),
                                   [0.5, 0.5, -0.5, -0.5])

    def test_n16_magnitude(self):
        np.testing.assert_allclose(np.abs(weights_by_name("uniform", 16)), 0.25)

    def test_ratio_exactly_one(self):
        assert weight_ratio(weights_by_name("uniform", 16)) == 1.0


class TestLog:
    def test_unnormalized_ratio_rank1_rank5(self):
        # raw magnitudes are log(21) - log(k); the rank-1/rank-5 quotient
        # computed by direct logarithm arithmetic
        w = weights_by_name("log", 20)
        ratio = w[0] / w[4]
        assert ratio == pytest.approx(2.1214934619336283, rel=1e-12)

    def test_quoted_approximation_close(self):
        # the coarse log(N)/log(4) approximation quoted for N=20 is 2.16
        w = weights_by_name("log", 20)
        ratio = w[0] / w[4]
        assert ratio == pytest.approx(2.16, rel=0.02)

    def test_strictly_decreasing_positive_side(self):
        w_plus, _ = quartiles("log", 20)
        assert np.all(np.diff(w_plus) < 0)

    def test_negative_side_mirrors(self):
        # worst rank carries the largest magnitude
        w_plus, w_minus = quartiles("log", 20)
        assert np.all(np.diff(np.abs(w_minus)) > 0)
        assert abs(w_minus[-1]) == pytest.approx(w_plus[0], rel=1e-12)


# |Phi^{-1}((k - 0.375) / 20.25)| for k = 1..5, frozen from a
# high-precision inverse normal CDF evaluation
BLOM_N20_MAGNITUDES = np.array([
    1.8682416548639305, 1.4034126358514014, 1.1281436452787637,
    0.9191355220462101, 0.7441427422201676,
])


class TestBlom:
    def test_best_quartile_magnitudes_n20(self):
        w_plus, _ = quartiles("blom", 20)
        expected = BLOM_N20_MAGNITUDES / BLOM_N20_MAGNITUDES.sum()
        np.testing.assert_allclose(w_plus, expected, rtol=1e-12)

    def test_argument_symmetry(self):
        # magnitude at rank k equals magnitude at rank n+1-k
        w_plus, w_minus = quartiles("blom", 20)
        np.testing.assert_allclose(w_plus, np.abs(w_minus)[::-1], atol=1e-10)

    def test_correlation_with_log_weights(self):
        corr = np.corrcoef(quartiles("blom", 20)[0], quartiles("log", 20)[0])[0, 1]
        assert corr >= 0.95

    def test_monotone_sides(self):
        w_plus, w_minus = quartiles("blom", 32)
        assert np.all(np.diff(w_plus) < 0)
        assert np.all(np.diff(np.abs(w_minus)) > 0)


# float.hex of weights_by_name(scheme, n), frozen bit for bit:
# a magnitude rule that moves the last bit of any weight fails here (for
# example a uniform magnitude of 1 in place of 4/n at n = 24)
FROZEN_HEX = {
    ("uniform", 20): ["0x1.999999999999ap-3"] * 5 + ["-0x1.999999999999ap-3"] * 5,
    ("uniform", 24): ["0x1.5555555555556p-3"] * 6 + ["-0x1.5555555555556p-3"] * 6,
    ("log", 20): [
        "0x1.2ac26c238b951p-2", "0x1.cd7b4cf21ca94p-3", "0x1.7de7a9c15f066p-3",
        "0x1.4571c19d22287p-3", "0x1.19a66f684afdbp-3",
        "-0x1.19a66f684afdcp-3", "-0x1.4571c19d22288p-3", "-0x1.7de7a9c15f067p-3",
        "-0x1.cd7b4cf21ca95p-3", "-0x1.2ac26c238b952p-2"],
    ("log", 24): [
        "0x1.02d83b84cb371p-2", "0x1.9636036f3654cp-3", "0x1.550016e3f8f20p-3",
        "0x1.26bb8fd4d63b6p-3", "0x1.02d83b84cb371p-3", "0x1.cb0b469331b14p-4",
        "-0x1.cb0b469331b14p-4", "-0x1.02d83b84cb371p-3", "-0x1.26bb8fd4d63b6p-3",
        "-0x1.550016e3f8f20p-3", "-0x1.9636036f3654cp-3", "-0x1.02d83b84cb371p-2"],
    ("blom", 20): [
        "0x1.3b878de18fe52p-2", "0x1.da0c48fd37207p-3", "0x1.7d11261fd275ep-3",
        "0x1.3677bda234ea5p-3", "0x1.f6b76efb436a2p-4",
        "-0x1.f6b76efb436a2p-4", "-0x1.3677bda234ea5p-3", "-0x1.7d11261fd275ep-3",
        "-0x1.da0c48fd37207p-3", "-0x1.3b878de18fe52p-2"],
    ("blom", 24): [
        "0x1.1012cf3c85021p-2", "0x1.a2cd7c72ac075p-3", "0x1.596d46efffdadp-3",
        "0x1.224b8f2e62a0fp-3", "0x1.e93f81528ebdfp-4", "0x1.99689c994032ep-4",
        "-0x1.99689c9940332p-4", "-0x1.e93f81528ebe1p-4", "-0x1.224b8f2e62a10p-3",
        "-0x1.596d46efffdafp-3", "-0x1.a2cd7c72ac076p-3", "-0x1.1012cf3c85022p-2"],
}


@pytest.mark.parametrize("scheme,n", sorted(FROZEN_HEX))
def test_weights_frozen_bit_for_bit(scheme, n):
    w = weights_by_name(scheme, n)
    assert [x.hex() for x in w.tolist()] == FROZEN_HEX[scheme, n]


class TestWeightRatio:
    def test_log_n20_frozen(self):
        # 1 / 2.1214934... from the exact unnormalized log weights
        assert weight_ratio(weights_by_name("log", 20)) == pytest.approx(
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
        w_plus, w_minus = quartiles(scheme, n)
        assert abs(w_plus.sum() - 1.0) <= 1e-12
        assert abs(w_minus.sum() + 1.0) <= 1e-12

    @pytest.mark.parametrize("scheme", ["log", "blom"])
    @pytest.mark.parametrize("n", ALL_N)
    def test_side_monotonicity(self, scheme, n):
        w_plus, w_minus = quartiles(scheme, n)
        assert np.all(np.diff(w_plus) <= 0)
        assert np.all(np.diff(np.abs(w_minus)) >= 0)

    @pytest.mark.parametrize("scheme", ["uniform", "log", "blom"])
    def test_signed_layout(self, scheme):
        w = weights_by_name(scheme, 16)
        assert w.shape == (8,)
        assert np.all(w[:4] > 0) and np.all(w[4:] < 0)

    @pytest.mark.parametrize("n", ALL_N)
    def test_is_one_signed_array(self, n):
        # one array lined up with selected_ranks(n), not a wrapper
        w = weights_by_name("log", n)
        assert type(w) is np.ndarray and w.shape == (n // 2,)

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
