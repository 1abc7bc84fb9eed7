"""The entropy score of `moscl.uncertainty` and the scalar loss oracles of
`oracles`."""

import math

import numpy as np
import pytest
from hypothesis import example, given, strategies as st
from hypothesis.extra.numpy import arrays
from scipy.special import entr

from moscl import kernels
from moscl.uncertainty import entropy

from oracles import (
    finite_difference_gradient, inverse_loss, loss, loss_based_uncertainty, sigmoid, sigmoid_array,
)


class TestEntropy:
    def test_endpoints(self):
        assert entropy(1.0) == 0.0
        assert entropy(0.0) == 0.0  # limit convention

    def test_half(self):
        # oracle: -0.5 * ln(0.5)
        assert entropy(0.5) == pytest.approx(0.5 * math.log(2.0), abs=1e-12)
        assert entropy(0.5) == pytest.approx(0.346574, abs=1e-6)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            entropy(1.5)
        with pytest.raises(ValueError):
            entropy(-0.1)

    @given(st.floats(min_value=0.0, max_value=1.0))
    def test_nonnegative(self, p):
        assert entropy(p) >= 0.0

    def test_max_at_1_over_e(self):
        # grid-search oracle for the maximizer of -p ln p
        grid = np.linspace(0.0, 1.0, 200001)
        # one array call; test_array_matches_scalar_elementwise pins it to
        # the scalar one
        vals = entropy(grid)
        k = int(np.argmax(vals))
        assert grid[k] == pytest.approx(1.0 / math.e, abs=1e-5)
        assert vals[k] == pytest.approx(1.0 / math.e, abs=1e-8)

    def test_array_matches_scalar_elementwise(self):
        p = np.array([[0.0, 0.25, 0.5], [1 / math.e, 0.9, 1.0]])
        h = entropy(p)
        assert h.shape == p.shape
        assert h.tolist() == [[entropy(float(v)) for v in row] for row in p]

    def test_array_domain_errors(self):
        with pytest.raises(ValueError, match="1.5"):
            entropy(np.array([0.5, 1.5]))
        with pytest.raises(ValueError):
            entropy(np.array([0.5, float("nan")]))


_probability = st.floats(min_value=0.0, max_value=1.0) | st.sampled_from(
    [0.0, 1.0, 1.0 / math.e, 5e-324, 2.2250738585072014e-308, 1e-310, 0.5]
)


def _bits(x):
    return np.asarray(x, dtype=np.float64).view(np.uint64)


class TestEntropyIsScipyEntr:
    """`entropy` is scipy.special.entr to the bit, signed zeros included."""

    @given(_probability)
    def test_scalar(self, p):
        h = entropy(p)
        assert type(h) is float
        assert _bits(h) == _bits(entr(p))

    @given(arrays(np.float64, st.tuples(st.integers(1, 40), st.integers(1, 4)),
                  elements=_probability))
    def test_array(self, P):
        assert np.array_equal(_bits(entropy(P)), _bits(entr(P)))
        assert np.array_equal(_bits(entropy(P[:, 0])), _bits(entr(P[:, 0])))

    def test_uniform_sample(self):
        p = np.random.default_rng(0).random(200_000)
        p[::1000] = 0.0
        assert np.array_equal(_bits(entropy(p)), _bits(entr(p)))


class TestSigmoid:
    def test_symmetry_point(self):
        assert sigmoid(0.0) == 0.5

    def test_saturation(self):
        assert sigmoid(1000.0) == 1.0
        assert sigmoid(-1000.0) == pytest.approx(0.0, abs=1e-300)

    def test_ln3(self):
        assert sigmoid(math.log(3.0)) == pytest.approx(0.75, abs=1e-12)

    @given(st.floats(min_value=-15, max_value=15), st.floats(min_value=1e-3, max_value=1.0))
    def test_strictly_increasing(self, z, dz):
        # strict ordering holds away from float saturation
        assert sigmoid(z + dz) > sigmoid(z)

    # signed zeros, the ends of exp's range, the largest finite values,
    # subnormals and NaN of either sign
    EDGES = [0.0, -0.0, 710.0, -710.0, 745.0, -745.0, 1e308, -1e308, 5e-324, -5e-324,
             1e-310, -1e-310, math.inf, -math.inf, math.nan, -math.nan]

    @given(arrays(np.float64, st.integers(1, 40),
                  elements=st.floats(allow_nan=True) | st.sampled_from(EDGES)))
    @example(np.array(EDGES))
    def test_kernel_keeps_the_bits_of_the_oracle(self, Z):
        want = _bits(sigmoid_array(Z))
        assert np.array_equal(_bits(kernels._sigmoid(Z)), want)
        in_place = Z.copy()
        kernels._sigmoid(in_place, out=in_place)
        assert np.array_equal(_bits(in_place), want)


class TestLoss:
    def test_mse_examples(self):
        assert loss("mse", 1, 1.0) == 0.0
        assert loss("mse", 1, 0.5) == pytest.approx(0.25)

    def test_ce_examples(self):
        assert loss("ce", 1, 0.5) == pytest.approx(math.log(2.0), abs=1e-12)

    def test_ce_domain_error(self):
        with pytest.raises(ValueError):
            loss("ce", 1, 0.0)
        with pytest.raises(ValueError):
            loss("ce", 0, 1.0)

    def test_bad_kind_and_label(self):
        with pytest.raises(ValueError):
            loss("hinge", 1, 0.5)
        with pytest.raises(ValueError):
            loss("mse", 2, 0.5)


class TestInverseLoss:
    def test_examples(self):
        assert inverse_loss("mse", 1, 0.0) == 1.0
        assert inverse_loss("mse", 1, 0.25) == pytest.approx(0.5, abs=1e-12)
        assert inverse_loss("ce", 1, math.log(2.0)) == pytest.approx(0.5, abs=1e-12)

    def test_range_error(self):
        with pytest.raises(ValueError):
            inverse_loss("mse", 1, 2.0)
        with pytest.raises(ValueError):
            inverse_loss("mse", 1, -0.1)

    @pytest.mark.parametrize("kind", ["mse", "ce"])
    @pytest.mark.parametrize("y", [0, 1])
    def test_round_trip_on_grid(self, kind, y):
        for y_hat in np.linspace(0.001, 0.999, 199):
            l = loss(kind, y, y_hat)
            assert inverse_loss(kind, y, l) == pytest.approx(y_hat, abs=1e-10)


class TestLossBasedUncertainty:
    def test_examples(self):
        assert loss_based_uncertainty("mse", 1, 0.0) == 0.0
        assert loss_based_uncertainty("mse", 1, 0.25) == pytest.approx(
            entropy(0.5), abs=1e-12
        )
        assert loss_based_uncertainty("ce", 1, math.log(2.0)) == pytest.approx(
            entropy(0.5), abs=1e-12
        )

    def test_mse_ce_agree_at_same_prediction(self):
        for y in (0, 1):
            for y_hat in np.linspace(0.01, 0.99, 99):
                via_mse = loss_based_uncertainty("mse", y, loss("mse", y, y_hat))
                via_ce = loss_based_uncertainty("ce", y, loss("ce", y, y_hat))
                assert abs(via_mse - via_ce) < 1e-10


class TestFiniteDifference:
    def test_square(self):
        assert finite_difference_gradient(lambda x: x * x, 3.0, 1e-5) == pytest.approx(
            6.0, abs=1e-8
        )

    def test_sigmoid_derivative(self):
        assert finite_difference_gradient(sigmoid, 0.0) == pytest.approx(0.25, abs=1e-8)

    def test_constant(self):
        assert finite_difference_gradient(lambda x: 7.0, 11.3) == 0.0

    def test_bad_step(self):
        with pytest.raises(ValueError):
            finite_difference_gradient(lambda x: x, 0.0, 0.0)

    def test_matches_mse_loss_gradient(self):
        for y in (0, 1):
            for y_hat in np.linspace(0.05, 0.95, 19):
                fd = finite_difference_gradient(lambda p: loss("mse", y, p), y_hat)
                exact = 2.0 * (y_hat - y)
                assert fd == pytest.approx(exact, rel=1e-5)
