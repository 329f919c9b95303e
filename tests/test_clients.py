import numpy as np
import pytest

from fedecado.clients import (
    ClientConfig,
    DivergenceError,
    sample_heterogeneity,
    simulate_local,
)
from fedecado.objectives import LogisticObjective, QuadraticObjective


def _unit_quadratic(d=2):
    return QuadraticObjective(np.eye(d), np.zeros(d))


class TestSimulateLocal:
    def test_single_step_identity_quadratic(self):
        obj = _unit_quadratic()
        cfg = ClientConfig(0, lr=0.1, epochs=1, weight=1.0)
        upd = simulate_local(obj, cfg, np.array([1.0, 0.0]), np.zeros(2))
        np.testing.assert_allclose(upd.states[-1], [0.9, 0.0])

    def test_constant_drift_from_flow(self):
        # flat objective: the gradient vanishes everywhere, so the update is
        # pure drift from the held flow term
        flat = QuadraticObjective(np.zeros((2, 2)), np.zeros(2))
        cfg = ClientConfig(0, lr=0.1, epochs=3, weight=1.0)
        start = np.array([1.0, -2.0])
        drift = np.array([0.5, 0.5])
        upd = simulate_local(flat, cfg, start, drift)
        np.testing.assert_allclose(upd.states[-1], start - 0.3 * drift, atol=1e-15)

    def test_window_accounting(self):
        cfg = ClientConfig(3, lr=1e-3, epochs=3, weight=0.5)
        assert cfg.window == pytest.approx(3e-3)
        upd = simulate_local(_unit_quadratic(), cfg, np.ones(2), np.zeros(2))
        assert upd.times[-1] - upd.times[0] == pytest.approx(3e-3, abs=1e-12)

    def test_checkpoint_count_and_spacing(self):
        cfg = ClientConfig(0, lr=0.02, epochs=7, weight=1.0)
        upd = simulate_local(_unit_quadratic(), cfg, np.ones(2), np.zeros(2), t_start=1.5)
        assert len(upd.times) == 8
        np.testing.assert_allclose(np.diff(upd.times), 0.02)
        assert upd.times[0] == 1.5

    def test_matches_plain_gradient_descent_bitwise(self, simple_quadratic):
        cfg = ClientConfig(0, lr=0.05, epochs=10, weight=1.0)
        x0 = np.array([3.0, -2.0])
        upd = simulate_local(simple_quadratic, cfg, x0, np.zeros(2))
        x = x0.copy()
        for _ in range(10):
            x = x - 0.05 * simple_quadratic.gradient(x)
        np.testing.assert_array_equal(upd.states[-1], x)

    def test_stable_step_loss_non_increasing(self, simple_quadratic):
        # lr < 2 / lambda_max = 0.5
        cfg = ClientConfig(0, lr=0.4, epochs=20, weight=1.0)
        upd = simulate_local(simple_quadratic, cfg, np.array([5.0, -3.0]), np.zeros(2))
        losses = [simple_quadratic.loss(s) for s in upd.states]
        assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))

    def test_divergence_reports_step(self, simple_quadratic):
        cfg = ClientConfig(0, lr=1e200, epochs=5, weight=1.0)
        with pytest.raises(DivergenceError) as err:
            simulate_local(simple_quadratic, cfg, np.array([2.0, 3.0]), np.zeros(2))
        assert err.value.step is not None and 1 <= err.value.step <= 5

    def test_growing_state_stops_at_magnitude_guard(self, simple_quadratic):
        # every state stays finite (up to about 1e38), but passes the guard
        cfg = ClientConfig(0, lr=1e12, epochs=3, weight=1.0)
        with pytest.raises(DivergenceError):
            simulate_local(simple_quadratic, cfg, np.array([2.0, 3.0]), np.zeros(2))

    def test_proximal_pull_matches_hand_iteration(self, simple_quadratic):
        mu, lr, w = 0.3, 0.1, 0.5
        cfg = ClientConfig(0, lr=lr, epochs=3, weight=w)
        x0 = np.array([2.0, -1.0])
        drift = np.array([0.2, -0.4])
        upd = simulate_local(simple_quadratic, cfg, x0, drift, mu=mu)
        x = x0.copy()
        for _ in range(3):
            x = x - lr * (w * simple_quadratic.gradient(x) + drift + mu * (x - x0))
        np.testing.assert_array_equal(upd.states[-1], x)

    def test_minibatch_deterministic(self, blob_data):
        obj = LogisticObjective(blob_data)
        cfg = ClientConfig(0, lr=1e-3, epochs=4, weight=1.0)
        x0 = np.zeros(obj.dim)
        a = simulate_local(obj, cfg, x0, np.zeros(obj.dim), minibatch=8,
                           rng=np.random.default_rng(5))
        b = simulate_local(obj, cfg, x0, np.zeros(obj.dim), minibatch=8,
                           rng=np.random.default_rng(5))
        np.testing.assert_array_equal(a.states, b.states)

    def test_minibatch_requires_rng(self, blob_data):
        obj = LogisticObjective(blob_data)
        cfg = ClientConfig(0, lr=1e-3, epochs=2, weight=1.0)
        with pytest.raises(ValueError):
            simulate_local(obj, cfg, np.zeros(obj.dim), np.zeros(obj.dim), minibatch=4)


class TestHeterogeneity:
    def test_ranges(self):
        cfgs = sample_heterogeneity(200, seed=13)
        lrs = np.array([c.lr for c in cfgs])
        eps = np.array([c.epochs for c in cfgs])
        assert (lrs >= 1e-4).all() and (lrs <= 1e-3).all()
        assert (eps >= 1).all() and (eps <= 10).all()
        assert set(np.unique(eps)) <= set(range(1, 11))

    def test_full_epoch_range_hit(self):
        eps = np.array([c.epochs for c in sample_heterogeneity(2000, seed=3)])
        assert set(np.unique(eps)) == set(range(1, 11))

    def test_deterministic(self):
        a = sample_heterogeneity(20, seed=9)
        b = sample_heterogeneity(20, seed=9)
        assert [(c.lr, c.epochs) for c in a] == [(c.lr, c.epochs) for c in b]

    def test_weights_passed_through(self):
        w = np.linspace(0.1, 0.4, 4)
        w = w / w.sum()
        cfgs = sample_heterogeneity(4, seed=1, weights=w)
        np.testing.assert_allclose([c.weight for c in cfgs], w)

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            ClientConfig(0, lr=0.0, epochs=1)
        with pytest.raises(ValueError):
            ClientConfig(0, lr=0.1, epochs=0)
