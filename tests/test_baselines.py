"""The baselines' server rules, fed final states given by hand: plain
gradient-descent loops stand in for the clients' local windows."""

import numpy as np

from fedecado.baselines import fedavg_round, fednova_round, fedprox_round
from fedecado.clients import ClientConfig, simulate_local
from fedecado.objectives import QuadraticObjective


def _quad(diag, center):
    return QuadraticObjective(np.diag(diag), np.asarray(center, dtype=float))


def _local_gd(obj, cfg, x0, mu=0.0):
    """A client's final state after cfg.epochs weighted, optionally
    proximal, gradient steps from x0."""
    x = x0.copy()
    for _ in range(cfg.epochs):
        x = x - cfg.lr * (cfg.weight * obj.gradient(x) + mu * (x - x0))
    return x


class TestFedAvg:
    def test_single_client_returns_its_result(self):
        cfg = ClientConfig(0, lr=0.1, epochs=4, weight=0.3)
        final = np.array([1.25, -0.5])
        out = fedavg_round(np.array([2.0, -1.0]), final[None, :], [cfg])
        np.testing.assert_array_equal(out, final)

    def test_symmetric_results_average_to_zero(self):
        # equal-weight clients whose windows land at x and -x
        cfg = [ClientConfig(i, lr=0.1, epochs=1, weight=0.5) for i in range(2)]
        finals = np.array([[0.2, 0.2], [-0.2, -0.2]])
        out = fedavg_round(np.zeros(2), finals, cfg)
        np.testing.assert_allclose(out, 0.0, atol=1e-15)

    def test_identical_clients_match_centralized_gd(self):
        obj = _quad([2.0, 1.0], [1.0, -1.0])
        n = 5
        cfgs = [ClientConfig(i, lr=0.07, epochs=6, weight=1.0) for i in range(n)]
        x0 = np.array([3.0, 3.0])
        x = _local_gd(obj, cfgs[0], x0)
        out = fedavg_round(x0, np.tile(x, (n, 1)), cfgs)
        np.testing.assert_allclose(out, x, atol=1e-14)


class TestFedProx:
    def test_large_mu_pins_iterates_to_global(self):
        obj = _quad([1.0, 1.0], [50.0, 50.0])
        cfg = ClientConfig(0, lr=1e-7, epochs=10, weight=1.0)
        x0 = np.zeros(2)
        final = simulate_local(obj, cfg, x0, np.zeros(2), mu=1e6).states[-1]
        out = fedprox_round(x0, final[None, :], [cfg])
        assert np.linalg.norm(out - x0) <= 1e-3

    def test_two_step_hand_iteration(self, simple_quadratic):
        mu, lr, w = 0.1, 0.2, 0.5
        cfg = ClientConfig(0, lr=lr, epochs=2, weight=w)
        x0 = np.array([2.0, 0.0])
        x = _local_gd(simple_quadratic, cfg, x0, mu)
        final = simulate_local(simple_quadratic, cfg, x0, np.zeros(2), mu=mu).states[-1]
        np.testing.assert_allclose(final, x, atol=1e-15)
        np.testing.assert_array_equal(fedprox_round(x0, final[None, :], [cfg]), final)


class TestFedNova:
    def test_single_client_moves_to_its_final_state(self):
        cfg = ClientConfig(0, lr=0.05, epochs=7, weight=0.2)
        x0 = np.array([4.0, 4.0])
        final = np.array([[3.1, 2.6]])
        out = fednova_round(x0, final, [cfg])
        np.testing.assert_allclose(out, final[0], atol=1e-12)
        np.testing.assert_allclose(out, fedavg_round(x0, final, [cfg]), atol=1e-12)

    def test_identical_clients_reduce_to_fedavg(self):
        cfgs = [ClientConfig(i, lr=0.04, epochs=5, weight=0.25) for i in range(4)]
        x0 = np.array([2.0, -2.0])
        finals = np.tile([1.7, -1.4], (4, 1))
        np.testing.assert_allclose(
            fednova_round(x0, finals, cfgs), fedavg_round(x0, finals, cfgs), atol=1e-12)

    def test_less_sensitive_to_epoch_split_than_fedavg(self):
        # same data everywhere; reassigning local epoch budgets across clients
        # moves the normalized aggregate far less than the plain average
        obj = _quad([1.0, 1.0], [1.0, 1.0])
        x0 = np.zeros(2)

        def round_outputs(split):
            cfgs = [ClientConfig(i, lr=0.1, epochs=e, weight=0.5)
                    for i, e in enumerate(split)]
            finals = np.array([_local_gd(obj, c, x0) for c in cfgs])
            return fednova_round(x0, finals, cfgs), fedavg_round(x0, finals, cfgs)

        nova_a, avg_a = round_outputs((1, 10))
        nova_b, avg_b = round_outputs((5, 6))
        nova_gap = np.linalg.norm(nova_a - nova_b)
        avg_gap = np.linalg.norm(avg_a - avg_b)
        assert nova_gap < avg_gap

    def test_consensus_fixed_point_is_noop(self):
        # both clients already at the optimum of their shared objective, so
        # their windows end where they start
        obj = _quad([2.0, 2.0], [1.0, 1.0])
        cfgs = [ClientConfig(i, lr=0.1, epochs=3, weight=0.5) for i in range(2)]
        x_star = obj.center
        finals = np.array([_local_gd(obj, c, x_star, mu=0.05) for c in cfgs])
        for rule in (fedavg_round, fedprox_round, fednova_round):
            np.testing.assert_allclose(rule(x_star, finals, cfgs), x_star, atol=1e-14)
