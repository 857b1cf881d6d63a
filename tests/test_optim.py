import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from venomguard.optim import AdamWState, CosineSchedule, adamw_step, lr_at

from oracles import reference_adamw


class TestAdamW:
    def test_first_step_moves_by_learning_rate(self):
        state = AdamWState.zeros(1, weight_decay=0.0)
        theta = adamw_step(np.zeros(1), np.ones(1), state, lr=1e-3)
        # Bias correction makes m_hat = g on step one, so the move is ~lr.
        assert theta[0] == pytest.approx(-1e-3, rel=1e-6)
        assert state.t == 1

    def test_zero_gradient_applies_pure_decay(self):
        lr, wd = 1e-2, 0.1
        state = AdamWState.zeros(3, weight_decay=wd)
        theta = np.array([1.0, -2.0, 0.5])
        start = theta.copy()
        for t in range(1, 101):
            theta = adamw_step(theta, np.zeros(3), state, lr=lr)
            assert np.allclose(theta, start * (1.0 - lr * wd) ** t, atol=1e-12)

    def test_zero_gradient_zero_decay_is_identity(self):
        state = AdamWState.zeros(2, weight_decay=0.0)
        theta = np.array([0.7, -0.3])
        start = theta.copy()
        out = adamw_step(theta, np.zeros(2), state, lr=1e-2)
        assert np.array_equal(out, start)
        assert state.t == 1

    def test_inputs_are_left_unchanged(self):
        state = AdamWState.zeros(3)
        theta, grads = np.array([0.7, -0.3, 2.0]), np.array([1.0, -4.0, 0.5])
        theta.flags.writeable = grads.flags.writeable = False
        out = adamw_step(theta, grads, state, lr=1e-2)
        assert out is not theta
        assert theta.tolist() == [0.7, -0.3, 2.0]
        assert grads.tolist() == [1.0, -4.0, 0.5]
        assert not np.array_equal(out, theta)

    def test_minimizes_quadratic(self):
        state = AdamWState.zeros(1, weight_decay=0.0)
        theta = np.array([5.0])
        for _ in range(10_000):
            theta = adamw_step(theta, theta.copy(), state, lr=1e-2)
        assert abs(theta[0]) < 1e-3

    def test_non_finite_gradient_names_index(self):
        state = AdamWState.zeros(3)
        grads = np.array([0.0, np.nan, 0.0])
        with pytest.raises(ValueError, match="index 1"):
            adamw_step(np.zeros(3), grads, state, lr=1e-3)

    def test_shape_mismatch_rejected(self):
        state = AdamWState.zeros(2)
        with pytest.raises(ValueError):
            adamw_step(np.zeros(3), np.zeros(3), state, lr=1e-3)

    def test_negative_lr_rejected(self):
        state = AdamWState.zeros(1)
        with pytest.raises(ValueError):
            adamw_step(np.zeros(1), np.zeros(1), state, lr=-1e-3)

    @settings(max_examples=50, deadline=None)
    @given(
        g=st.lists(st.floats(-100, 100), min_size=1, max_size=6).map(np.array),
    )
    def test_first_step_displacement_bounded_by_lr(self, g):
        # With zero decay, |m_hat| / (sqrt(v_hat) + eps) <= 1 on step one.
        lr = 1e-3
        state = AdamWState.zeros(len(g), weight_decay=0.0)
        theta = adamw_step(np.zeros(len(g)), g, state, lr=lr)
        assert np.all(np.abs(theta) <= lr * (1.0 + 1e-9))

    @settings(max_examples=100, deadline=None)
    @given(
        data=st.data(),
        n=st.integers(1, 8),
        steps=st.integers(1, 5),
        lr=st.floats(0.0, 1.0),
        weight_decay=st.floats(0.0, 0.5),
    )
    def test_update_matches_reference_bit_for_bit(
        self, data, n, steps, lr, weight_decay
    ):
        values = hnp.arrays(np.float64, n, elements=st.floats(-1e3, 1e3))
        params = data.draw(values)
        expected, m, v = params.copy(), np.zeros(n), np.zeros(n)
        state = AdamWState.zeros(n, weight_decay=weight_decay)
        for t in range(1, steps + 1):
            grads = data.draw(values)
            start = params.copy()
            out = adamw_step(params, grads, state, lr)
            expected, m, v = reference_adamw(
                expected, grads, m, v, t, lr, 0.9, 0.999, 1e-8, weight_decay
            )
            assert params.tobytes() == start.tobytes()
            assert out.tobytes() == expected.tobytes()
            assert state.m.tobytes() == m.tobytes()
            assert state.v.tobytes() == v.tobytes()
            params = out


class TestCosineSchedule:
    def schedule(self):
        return CosineSchedule(warmup_steps=100, total_steps=1000)

    def test_defaults_hit_exact_endpoints(self):
        sched = self.schedule()
        assert lr_at(sched, 0) == 2e-7
        assert lr_at(sched, 100) == 2e-5
        assert lr_at(sched, 999) == 0.0

    def test_warmup_is_linear(self):
        sched = self.schedule()
        quarter = lr_at(sched, 25)
        half = lr_at(sched, 50)
        expected_half = 2e-7 + (2e-5 - 2e-7) * 0.5
        assert half == pytest.approx(expected_half, rel=1e-12)
        assert quarter == pytest.approx(2e-7 + (2e-5 - 2e-7) * 0.25, rel=1e-12)

    def test_monotone_up_then_down(self):
        sched = self.schedule()
        values = [lr_at(sched, s) for s in range(1000)]
        assert all(a <= b + 1e-18 for a, b in zip(values[:100], values[1:101]))
        assert all(a >= b - 1e-18 for a, b in zip(values[100:-1], values[101:]))

    def test_cosine_midpoint(self):
        sched = CosineSchedule(
            warmup_steps=0, total_steps=3, warmup_lr=0.0, base_lr=1.0, final_lr=0.0
        )
        assert lr_at(sched, 0) == pytest.approx(1.0)
        assert lr_at(sched, 1) == pytest.approx(0.5)
        assert lr_at(sched, 2) == pytest.approx(0.0)

    def test_single_post_warmup_step_returns_final(self):
        sched = CosineSchedule(
            warmup_steps=4, total_steps=5, base_lr=1.0, final_lr=0.25
        )
        assert lr_at(sched, 4) == 0.25

    def test_nonzero_final_lr_floor(self):
        sched = CosineSchedule(
            warmup_steps=10, total_steps=50, base_lr=1e-3, final_lr=1e-5
        )
        post = [lr_at(sched, s) for s in range(10, 50)]
        assert min(post) == pytest.approx(1e-5)
        assert post[-1] == 1e-5

    def test_step_out_of_range_rejected(self):
        sched = self.schedule()
        for bad in (-1, 1000):
            with pytest.raises(ValueError):
                lr_at(sched, bad)

    def test_invalid_construction_rejected(self):
        with pytest.raises(ValueError):
            CosineSchedule(warmup_steps=10, total_steps=10)
        with pytest.raises(ValueError):
            CosineSchedule(warmup_steps=-1, total_steps=10)
        with pytest.raises(ValueError):
            CosineSchedule(warmup_steps=0, total_steps=5, base_lr=-1.0)


class TestIntegration:
    def test_scheduled_descent_settles(self):
        # Cosine-annealed AdamW on a 2-D quadratic bowl ends near the optimum.
        sched = CosineSchedule(
            warmup_steps=50, total_steps=2000, warmup_lr=1e-4, base_lr=5e-2
        )
        state = AdamWState.zeros(2, weight_decay=0.0)
        theta = np.array([3.0, -4.0])
        for step in range(2000):
            theta = adamw_step(theta, theta.copy(), state, lr=lr_at(sched, step))
        assert np.linalg.norm(theta) < 1e-2
