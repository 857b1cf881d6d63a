"""Softmax, the normalisation that turns image and prior logits into
probabilities before the joint decision (``venomguard.inference.softmax``)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from venomguard.inference import softmax

logits = st.lists(st.floats(-30, 30), min_size=2, max_size=8).map(
    lambda xs: np.array(xs, dtype=float)
)


class TestSoftmax:
    def test_two_equal_logits_split_evenly(self):
        assert softmax(np.array([0.0, 0.0])).tolist() == [0.5, 0.5]

    def test_large_logits_do_not_overflow(self):
        out = softmax(np.array([1000.0, 0.0]))
        assert np.all(np.isfinite(out))
        assert out[0] == pytest.approx(1.0)

    def test_matches_direct_formula(self):
        z = np.array([1.0, 2.0, 3.0])
        direct = np.exp(z) / np.exp(z).sum()
        assert np.allclose(softmax(z), direct, atol=1e-12)

    def test_non_finite_input_rejected(self):
        with pytest.raises(ValueError):
            softmax(np.array([np.nan, 0.0]))

    @settings(max_examples=100, deadline=None)
    @given(z=logits)
    def test_output_is_a_distribution(self, z):
        out = softmax(z)
        assert np.all(out >= 0)
        assert out.sum() == pytest.approx(1.0, abs=1e-9)
