import numpy as np
import pytest

from fedecado.baselines import fedavg_round, fednova_round, fedprox_round
from fedecado.clients import ClientConfig
from fedecado.objectives import QuadraticObjective


def _quad(diag, center):
    return QuadraticObjective(np.diag(diag), np.asarray(center, dtype=float))


class TestFedAvg:
    def test_single_client_returns_its_result(self, simple_quadratic):
        cfg = ClientConfig(0, lr=0.1, epochs=4, weight=0.3)
        x0 = np.array([2.0, -1.0])
        out = fedavg_round(x0, [simple_quadratic], [cfg])
        x = x0.copy()
        for _ in range(4):
            x = x - 0.1 * 0.3 * simple_quadratic.gradient(x)
        np.testing.assert_array_equal(out, x)

    def test_symmetric_results_average_to_zero(self):
        # equal-weight clients whose single steps land at x and -x
        cfg = [ClientConfig(i, lr=0.1, epochs=1, weight=0.5) for i in range(2)]
        obj_pos = _quad([1.0, 1.0], [2.0, 2.0])
        obj_neg = _quad([1.0, 1.0], [-2.0, -2.0])
        x0 = np.zeros(2)
        out = fedavg_round(x0, [obj_pos, obj_neg], cfg)
        np.testing.assert_allclose(out, 0.0, atol=1e-15)

    def test_identical_clients_match_centralized_gd(self):
        obj = _quad([2.0, 1.0], [1.0, -1.0])
        n = 5
        cfgs = [ClientConfig(i, lr=0.07, epochs=6, weight=1.0) for i in range(n)]
        x0 = np.array([3.0, 3.0])
        out = fedavg_round(x0, [obj] * n, cfgs)
        x = x0.copy()
        for _ in range(6):
            x = x - 0.07 * obj.gradient(x)
        np.testing.assert_allclose(out, x, atol=1e-14)


class TestFedProx:
    def test_mu_zero_equals_fedavg_bitwise(self):
        objs = [_quad([1.0, 3.0], [0.5, 0.5]), _quad([2.0, 2.0], [-1.0, 1.0])]
        cfgs = [ClientConfig(i, lr=0.05, epochs=5, weight=w)
                for i, w in enumerate([0.4, 0.6])]
        x0 = np.array([1.0, 1.0])
        np.testing.assert_array_equal(
            fedprox_round(x0, objs, cfgs, mu=0.0), fedavg_round(x0, objs, cfgs))

    def test_large_mu_pins_iterates_to_global(self):
        objs = [_quad([1.0, 1.0], [50.0, 50.0])]
        cfgs = [ClientConfig(0, lr=1e-7, epochs=10, weight=1.0)]
        x0 = np.zeros(2)
        out = fedprox_round(x0, objs, cfgs, mu=1e6)
        assert np.linalg.norm(out - x0) <= 1e-3

    def test_two_step_hand_iteration(self, simple_quadratic):
        mu, lr, w = 0.1, 0.2, 0.5
        cfg = ClientConfig(0, lr=lr, epochs=2, weight=w)
        x0 = np.array([2.0, 0.0])
        out = fedprox_round(x0, [simple_quadratic], [cfg], mu=mu)
        x = x0.copy()
        for _ in range(2):
            x = x - lr * (w * simple_quadratic.gradient(x) + mu * (x - x0))
        np.testing.assert_allclose(out, x, atol=1e-15)

    def test_negative_mu_rejected(self, simple_quadratic):
        cfg = ClientConfig(0, lr=0.1, epochs=1, weight=1.0)
        with pytest.raises(ValueError):
            fedprox_round(np.zeros(2), [simple_quadratic], [cfg], mu=-1.0)


class TestFedNova:
    def test_single_client_moves_to_its_final_state(self, simple_quadratic):
        cfg = ClientConfig(0, lr=0.05, epochs=7, weight=0.2)
        x0 = np.array([4.0, 4.0])
        out = fednova_round(x0, [simple_quadratic], [cfg])
        ref = fedavg_round(x0, [simple_quadratic], [cfg])
        np.testing.assert_allclose(out, ref, atol=1e-12)

    def test_identical_clients_reduce_to_fedavg(self):
        obj = _quad([1.5, 2.5], [0.0, 1.0])
        cfgs = [ClientConfig(i, lr=0.04, epochs=5, weight=0.25) for i in range(4)]
        x0 = np.array([2.0, -2.0])
        np.testing.assert_allclose(
            fednova_round(x0, [obj] * 4, cfgs), fedavg_round(x0, [obj] * 4, cfgs),
            atol=1e-12)

    def test_less_sensitive_to_epoch_split_than_fedavg(self):
        # same data everywhere; reassigning local epoch budgets across clients
        # moves the normalized aggregate far less than the plain average
        obj = _quad([1.0, 1.0], [1.0, 1.0])
        x0 = np.zeros(2)

        def round_outputs(split):
            cfgs = [ClientConfig(i, lr=0.1, epochs=e, weight=0.5)
                    for i, e in enumerate(split)]
            return (fednova_round(x0, [obj] * 2, cfgs),
                    fedavg_round(x0, [obj] * 2, cfgs))

        nova_a, avg_a = round_outputs((1, 10))
        nova_b, avg_b = round_outputs((5, 6))
        nova_gap = np.linalg.norm(nova_a - nova_b)
        avg_gap = np.linalg.norm(avg_a - avg_b)
        assert nova_gap < avg_gap

    def test_consensus_fixed_point_is_noop(self):
        # both clients already at the optimum of their shared objective
        obj = _quad([2.0, 2.0], [1.0, 1.0])
        cfgs = [ClientConfig(i, lr=0.1, epochs=3, weight=0.5) for i in range(2)]
        x_star = obj.center
        for fn in (lambda: fedavg_round(x_star, [obj] * 2, cfgs),
                   lambda: fedprox_round(x_star, [obj] * 2, cfgs, mu=0.05),
                   lambda: fednova_round(x_star, [obj] * 2, cfgs)):
            np.testing.assert_allclose(fn(), x_star, atol=1e-14)
