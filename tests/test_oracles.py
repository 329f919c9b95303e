import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedecado.clients import ClientConfig, simulate_local
from fedecado.consensus import (
    FlowState,
    StepController,
    build_sensitivity,
    consensus_round,
    resample,
)
from fedecado.objectives import LogisticObjective, QuadraticObjective, random_quadratic
from fedecado.oracles import (
    BetaNormSpec,
    IMPLEMENTED_CENTRAL_SIGN,
    Trajectory,
    beta_norm,
    client_response,
    contraction_ratio,
    coupled_system_matrix,
    dense_be_reference,
    finite_diff_gradient,
    gradient_errors,
    quadratic_minimizer,
    run_verification,
    stationary_flows,
    verify_sign_convention,
    weighted_series_bound,
)


class TestQuadraticMinimizer:
    def test_centroid_of_identity_quadratics(self):
        objs = [QuadraticObjective(np.eye(2), np.zeros(2)),
                QuadraticObjective(np.eye(2), np.full(2, 2.0))]
        x = quadratic_minimizer(objs, [0.5, 0.5])
        np.testing.assert_allclose(x, [1.0, 1.0])

    def test_single_client_returns_center(self, simple_quadratic):
        np.testing.assert_allclose(
            quadratic_minimizer([simple_quadratic], [1.0]), simple_quadratic.center)

    def test_residual_on_random_instance(self):
        rng = np.random.default_rng(3)
        objs = [random_quadratic(10, rng, 0.5, 50.0) for _ in range(6)]
        w = rng.dirichlet(np.full(6, 0.7))
        x = quadratic_minimizer(objs, w)
        lhs = sum(wi * o.matrix for wi, o in zip(w, objs))
        rhs = sum(wi * (o.matrix @ o.center) for wi, o in zip(w, objs))
        assert np.linalg.norm(lhs @ x - rhs) <= 1e-10

    def test_stationary_flows_sum_to_zero(self):
        rng = np.random.default_rng(4)
        objs = [random_quadratic(5, rng, 1.0, 5.0) for _ in range(4)]
        w = rng.dirichlet(np.full(4, 1.0))
        x_star = quadratic_minimizer(objs, w)
        flows = stationary_flows(objs, w, x_star)
        np.testing.assert_allclose(flows.sum(axis=0), 0.0, atol=1e-10)


class TestFiniteDifferences:
    def test_quadratic_high_accuracy(self, simple_quadratic):
        x = np.array([0.4, -1.2])
        fd = finite_diff_gradient(simple_quadratic, x, h=1e-5)
        g = simple_quadratic.gradient(x)
        assert np.linalg.norm(fd - g) / np.linalg.norm(g) <= 1e-7

    def test_constant_objective_zero_gradient(self):
        flat = QuadraticObjective(np.zeros((3, 3)), np.zeros(3))
        np.testing.assert_allclose(finite_diff_gradient(flat, np.ones(3)), 0.0, atol=1e-12)

    def test_invalid_h_rejected(self, simple_quadratic):
        with pytest.raises(ValueError):
            finite_diff_gradient(simple_quadratic, np.zeros(2), h=0.0)


@settings(max_examples=60, deadline=None)
@given(curv=st.lists(st.floats(0.1, 10.0), min_size=1, max_size=4),
       weight=st.floats(0.05, 1.0), lr=st.floats(1e-3, 0.05), epochs=st.integers(1, 30),
       seed=st.integers(0, 2**32 - 1))
def test_client_response_closed_form_on_diagonal_quadratics(curv, weight, lr, epochs, seed):
    """A window of K Forward-Euler steps on w * h x^2 / 2 with drift -flow
    moves its end state by (1 - (1 - lr w h)^K) / (w h) per unit of flow."""
    rng = np.random.default_rng(seed)
    h = np.array(curv)
    obj = QuadraticObjective(np.diag(h), rng.normal(size=len(h)))
    cfg = ClientConfig(0, lr=lr, epochs=epochs, weight=weight)
    # the end state is affine in the flow, so a wide difference step is exact
    response = client_response(obj, cfg, rng.normal(size=len(h)), rng.normal(size=len(h)),
                               h=1e-3)
    closed = (1.0 - (1.0 - lr * weight * h) ** epochs) / (weight * h)
    np.testing.assert_allclose(response, closed, rtol=1e-6)


def _constant_update(value, t0=0.0, window=1.0):
    value = np.atleast_1d(np.asarray(value, dtype=float))
    return Trajectory(np.array([t0, t0 + window]), np.vstack([value, value]))


class TestDenseReference:
    def test_fixed_point_preserved(self):
        x_c = np.full(3, 1.5)
        state = FlowState(x_c, np.zeros((2, 3)), 0.0, 0)
        updates = {i: _constant_update(x_c) for i in range(2)}
        g = build_sensitivity(np.array([0.5, 0.5]), np.ones((2, 3)), 0.1)
        out = dense_be_reference(state, [0, 1], resample(updates, 0.2, True), g,
                                 StepController(), 0.2, state.flows)
        np.testing.assert_allclose(out.x_c, x_c, atol=1e-12)
        np.testing.assert_allclose(out.flows, 0.0, atol=1e-12)

    def test_scale_limit_enforced(self):
        state = FlowState(np.zeros(40), np.zeros((2, 40)), 0.0, 0)
        with pytest.raises(ValueError):
            dense_be_reference(state, [], np.zeros((0, 40)), np.zeros((0, 40)),
                               StepController(), 0.1, state.flows)


class TestBetaNorm:
    def test_zero_trajectory(self):
        traj = Trajectory(np.linspace(0, 1, 5), np.zeros((5, 3)))
        assert beta_norm(traj, BetaNormSpec(beta=1.0)) == 0.0

    def test_constant_trajectory_dominated_by_start(self):
        traj = Trajectory(np.linspace(0, 10, 6), np.full((6, 2), 7.0))
        assert beta_norm(traj, BetaNormSpec(beta=2.0)) == pytest.approx(7.0)

    def test_discount_applied(self):
        # value 1 at t=0 and value e at t=1: with beta=1 both contribute 1
        traj = Trajectory(np.array([0.0, 1.0]), np.array([[1.0], [np.e]]))
        assert beta_norm(traj, BetaNormSpec(beta=1.0)) == pytest.approx(1.0, rel=1e-12)

    def test_empty_grid_rejected(self):
        traj = Trajectory(np.array([0.0, 1.0]), np.zeros((2, 1)))
        with pytest.raises(ValueError):
            beta_norm(traj, BetaNormSpec(beta=1.0, grid=np.array([])))

    def test_series_bound_holds_for_random_signals(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            k = int(rng.integers(4, 12))
            times = np.linspace(0.0, 1.0, k)
            sig = Trajectory(times, rng.normal(size=(k, 2)))
            gammas = rng.uniform(-2.0, 2.0, int(rng.integers(2, 9)))
            measured, bound = weighted_series_bound(
                sig, gammas, dt=float(rng.uniform(0.05, 0.3)),
                beta=float(rng.uniform(0.3, 3.0)))
            assert measured <= bound + 1e-12


class TestContractionRatio:
    def test_fixed_point_trace_reports_zeros(self):
        x_star = np.array([1.0, 2.0])
        target_flows = np.zeros(4)
        states = np.tile(np.concatenate([target_flows, x_star]), (3, 1))
        rounds = [Trajectory(np.array([0.0, 0.5, 1.0]) + k, states) for k in range(4)]
        ratios = contraction_ratio(rounds, x_star, target_flows)
        assert ratios == [0.0, 0.0, 0.0]

    def test_geometric_decay_gives_constant_ratio(self):
        x_star = np.zeros(1)
        rounds = []
        for k in range(5):
            val = 0.5 ** k
            states = np.array([[0.0, val], [0.0, val]])
            rounds.append(Trajectory(np.array([0.0, 1.0]) + k, states))
        ratios = contraction_ratio(rounds, x_star)
        np.testing.assert_allclose(ratios, 0.5)


class TestSignConvention:
    def test_implemented_sign_is_stable(self):
        ok, detail = verify_sign_convention()
        assert ok, detail

    def test_opposite_sign_has_unstable_mode(self):
        J = coupled_system_matrix(1.0, 1.0, -IMPLEMENTED_CENTRAL_SIGN)
        assert np.linalg.eigvals(J).real.max() > 0

    def test_implemented_matrix_matches_dynamics(self):
        # numerically integrate the coupled system and check it settles
        J = coupled_system_matrix(2.0, 0.5, IMPLEMENTED_CENTRAL_SIGN)
        z = np.array([1.0, 0.5, -1.0])
        dt = 1e-3
        for _ in range(200000):
            z = z + dt * (J @ z)
        assert np.abs(z).max() <= 1e-6


class TestVerificationSuite:
    def test_all_checks_pass(self):
        results = run_verification()
        failed = [(n, d) for n, ok, d in results if not ok]
        assert not failed, failed

    def test_nan_gradient_fails_gradient_fidelity(self, monkeypatch):
        # one NaN gradient among valid ones must not be dropped by the worst-case
        monkeypatch.setattr(LogisticObjective, "gradient",
                            lambda self, x: np.full(self.dim, np.nan))
        worst = gradient_errors(3, 4)
        assert np.isnan(worst["logistic"]) and worst["quadratic"] <= 1e-5
        assert not np.max(list(worst.values())) <= 1e-5
        checks = {name: ok for name, ok, _ in run_verification()}
        assert not checks["gradient-fidelity"]


def test_coupling_strength_speeds_contraction():
    """Direction-only: a 10x stronger coupling (smaller L) should yield
    contraction ratios farther below 1 on the same instance."""
    rng = np.random.default_rng(33)
    objs = [random_quadratic(4, rng, 30.0, 60.0) for _ in range(3)]
    weights = np.array([0.5, 0.3, 0.2])
    cfgs = [ClientConfig(i, lr=0.0025, epochs=20, weight=weights[i]) for i in range(3)]
    hess = np.array([o.mean_hessian() for o in objs])
    x_star = quadratic_minimizer(objs, weights)
    flows_star = stationary_flows(objs, weights, x_star)

    def median_ratio(L):
        g = build_sensitivity(weights, hess, 0.05)
        ctrl = StepController(delta=1e-2, L=L)
        state = FlowState(np.zeros(4), np.zeros((3, 4)), 0.0, 0)
        rounds = []
        for _ in range(60):
            updates = {i: simulate_local(objs[i], cfgs[i], state.x_c, -state.flows[i],
                                         t_start=state.t_now) for i in range(3)}
            sink = []
            state, _, _ = consensus_round(state, updates, g, ctrl, state_sink=sink)
            times, states = zip(*sink)
            rounds.append(Trajectory(np.array(times), np.array(states)))
        ratios = contraction_ratio(rounds, x_star, flows_star)
        return float(np.median(ratios[5:]))

    weak = median_ratio(0.5)
    strong = median_ratio(0.05)
    assert strong < weak < 1.0
