import numpy as np
import pytest

from venomguard.gradcheck import central_difference, check_loc_loss, relative_error


class TestHelpers:
    def test_central_difference_on_quadratic(self):
        x0 = np.array([1.0, -2.0, 0.5])
        grad = central_difference(lambda v: float(v @ v), x0)
        assert np.allclose(grad, 2.0 * x0, atol=1e-8)

    def test_relative_error_uses_max_scale(self):
        a = np.array([1000.0, 0.0])
        b = np.array([1000.1, 0.0])
        assert relative_error(a, b) == pytest.approx(0.1 / 1000.1, rel=1e-9)

    def test_relative_error_floors_scale_at_one(self):
        a = np.array([1e-8])
        b = np.array([2e-8])
        assert relative_error(a, b) == pytest.approx(1e-8)


class TestChecks:
    def test_loc_loss_passes(self):
        result = check_loc_loss(trials=8, seed=1)
        assert result.passed, f"max rel err {result.max_rel_err}"
        assert result.trials == 8

    @pytest.mark.parametrize("trials", [0, -3])
    def test_fewer_than_one_trial_rejected(self, trials):
        with pytest.raises(ValueError, match="trials must be >= 1"):
            check_loc_loss(trials=trials)

    def test_deterministic_per_seed(self):
        a = check_loc_loss(trials=5, seed=3)
        b = check_loc_loss(trials=5, seed=3)
        assert a.max_rel_err == b.max_rel_err
