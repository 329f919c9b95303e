import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fedecado.consensus as consensus
from fedecado.clients import ClientConfig, Trajectory, simulate_local
from fedecado.consensus import (
    FlowState,
    StepControlError,
    adaptive_step,
    be_step,
    build_sensitivity,
    consensus_round,
    interp_state,
    lte,
    resample,
    steady_state_reached,
)
from fedecado.objectives import QuadraticObjective
from fedecado.oracles import dense_be_reference, quadratic_minimizer, reference_consensus_round


def _update(times, states):
    times = np.asarray(times, dtype=float)
    states = np.asarray(states, dtype=float)
    if states.ndim == 1:
        states = states[:, None]
    return Trajectory(times, states)


def _constant_update(value, t0=0.0, window=1.0):
    value = np.atleast_1d(np.asarray(value, dtype=float))
    return Trajectory(np.array([t0, t0 + window]), np.vstack([value, value]))


class TestInterpState:
    def test_midpoint(self):
        upd = _update([0.0, 1.0], np.array([[0.0, 0.0], [2.0, 2.0]]))
        np.testing.assert_allclose(interp_state(upd, 0.5), [1.0, 1.0])

    def test_constant_trajectory_any_tau(self):
        upd = _update([0.0, 0.3, 1.0], np.array([[4.0], [4.0], [4.0]]))
        for tau in (-0.5, 0.0, 0.17, 1.0, 2.5):
            np.testing.assert_allclose(interp_state(upd, tau), [4.0])

    def test_extrapolation_continues_last_slope(self):
        upd = _update([0.0, 1.0], np.array([[0.0], [2.0]]))
        np.testing.assert_allclose(interp_state(upd, 1.5), [3.0])

    def test_extrapolation_before_start(self):
        upd = _update([0.0, 1.0, 2.0], np.array([[0.0], [2.0], [2.0]]))
        np.testing.assert_allclose(interp_state(upd, -1.0), [-2.0])

    def test_piecewise_uses_bracketing_segment(self):
        upd = _update([0.0, 1.0, 2.0], np.array([[0.0], [1.0], [3.0]]))
        np.testing.assert_allclose(interp_state(upd, 1.5), [2.0])

    def test_requires_two_checkpoints(self):
        with pytest.raises(ValueError, match="at least 2 checkpoints"):
            interp_state(_update([0.0], np.zeros((1, 2))), 0.0)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_linearity(self, data):
        k = data.draw(st.integers(2, 6))
        times = np.cumsum(np.array(
            data.draw(st.lists(st.floats(0.01, 1.0), min_size=k, max_size=k))))
        vals = st.floats(-100.0, 100.0)
        ya = np.array(data.draw(st.lists(vals, min_size=k, max_size=k)))[:, None]
        yb = np.array(data.draw(st.lists(vals, min_size=k, max_size=k)))[:, None]
        alpha = data.draw(st.floats(-10.0, 10.0))
        tau = data.draw(st.floats(float(times[0]) - 1.0, float(times[-1]) + 1.0))
        ua, ub = _update(times, ya), _update(times, yb)
        usum, uscale = _update(times, ya + yb), _update(times, alpha * ya)
        scale = max(1.0, np.abs(ya).max(), np.abs(yb).max(), abs(alpha))
        add = interp_state(usum, tau) - interp_state(ua, tau) - interp_state(ub, tau)
        hom = interp_state(uscale, tau) - alpha * interp_state(ua, tau)
        assert np.abs(add).max() <= 1e-9 * scale
        assert np.abs(hom).max() <= 1e-9 * scale * scale

    def test_strict_order_preserved(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            k = int(rng.integers(2, 6))
            times = np.sort(rng.uniform(0, 1, k))
            while (np.diff(times) < 1e-6).any():
                times = np.sort(rng.uniform(0, 1, k))
            lo = rng.normal(size=(k, 1))
            hi = lo + rng.uniform(0.05, 1.0, (k, 1))
            for tau in rng.uniform(times[0], times[-1], 20):
                assert interp_state(_update(times, hi), tau) > interp_state(_update(times, lo), tau)


class TestSensitivity:
    def test_formula(self):
        g = build_sensitivity(np.array([0.5]), np.array([[2.0, 2.0]]), dt_ref=0.1)
        np.testing.assert_allclose(g, [[1 / 11.0, 1 / 11.0]])

    def test_zero_weight_reduces_to_reference_term(self):
        g = build_sensitivity(np.array([0.0]), np.array([[7.0, 3.0]]), dt_ref=0.25)
        np.testing.assert_allclose(g, [[0.25, 0.25]])

    def test_larger_dataset_larger_gain(self):
        h = np.array([[3.0, 1.0], [3.0, 1.0]])
        g = build_sensitivity(np.array([0.2, 0.7]), h, dt_ref=0.5)
        assert (1 / g[1] > 1 / g[0]).all()   # the gain is 1 / g

    def test_nonpositive_dt_ref_rejected(self):
        with pytest.raises(ValueError):
            build_sensitivity(np.array([1.0]), np.array([[1.0]]), dt_ref=0.0)

    def test_negative_curvature_rejected(self):
        with pytest.raises(ValueError):
            build_sensitivity(np.array([1.0]), np.array([[-1.0]]), dt_ref=0.1)


def _fixed_point_setup(n=1, d=1, x_val=2.0, window=1.0):
    x_c = np.full(d, x_val)
    state = FlowState(x_c, np.zeros((n, d)), 0.0, 0)
    updates = {i: _constant_update(x_c, window=window) for i in range(n)}
    g = build_sensitivity(np.full(n, 1.0 / n), np.ones((n, d)), dt_ref=0.1)
    return state, updates, g


class TestBeStep:
    def test_fixed_point_preserved(self):
        state, updates, g = _fixed_point_setup(n=3, d=4)
        out = be_step(state, sorted(updates), resample(updates, 0.2, True), g, 0.7, 0.2,
                      state.flows)
        np.testing.assert_allclose(out.x_c, state.x_c, atol=1e-14)
        np.testing.assert_allclose(out.flows, 0.0, atol=1e-14)

    def test_matches_hand_assembled_2x2_zero_gain_inverse(self):
        # single client, d=1, infinite sensitivity: the flow row loses its
        # damping term and the system is a plain 2x2 solve
        L, dt = 1.0, 1.0
        state = FlowState(np.array([0.7]), np.array([[0.3]]), 0.0, 0)
        upd = _update([0.0, 1.0], np.array([[1.0], [2.0]]))
        g = np.zeros((1, 1))
        out = be_step(state, [0], resample({0: upd}, dt, True), g, L, dt, state.flows)
        gam = interp_state(upd, dt).item()
        lhs = np.array([[1.0, -dt / L], [dt, 1.0]])
        rhs = np.array([0.3 + (dt / L) * (-gam), 0.7])
        flows_ref, xc_ref = np.linalg.solve(lhs, rhs)
        assert out.flows[0, 0] == pytest.approx(flows_ref, abs=1e-12)
        assert out.x_c[0] == pytest.approx(xc_ref, abs=1e-12)

    def test_residual_of_assembled_system(self):
        rng = np.random.default_rng(10)
        n, d = 3, 5
        state = FlowState(rng.normal(size=d), rng.normal(size=(n, d)), 0.0, 0)
        prev = rng.normal(size=(n, d))
        updates = {i: _update([0.0, 0.5], rng.normal(size=(2, d))) for i in range(n)}
        g = build_sensitivity(rng.uniform(0.1, 0.5, n), rng.uniform(0, 4, (n, d)), 0.2)
        L, dt = 0.8, 0.1
        out = be_step(state, sorted(updates), resample(updates, dt, True), g, L, dt,
                      prev_flows=prev)
        for i in range(n):
            gam = interp_state(updates[i], dt)
            lhs = (1 + dt / L * g[i]) * out.flows[i] - dt / L * out.x_c
            rhs = state.flows[i] + dt / L * (-gam + g[i] * prev[i])
            np.testing.assert_allclose(lhs, rhs, atol=1e-10)
        np.testing.assert_allclose(out.x_c + dt * out.flows.sum(axis=0), state.x_c, atol=1e-10)

    def test_inactive_clients_hold_flows(self):
        rng = np.random.default_rng(11)
        n, d = 4, 3
        state = FlowState(rng.normal(size=d), rng.normal(size=(n, d)), 0.0, 0)
        updates = {1: _update([0.0, 0.5], rng.normal(size=(2, d)))}
        g = build_sensitivity(np.full(n, 0.25), np.ones((n, d)), 0.1)[[1]]
        out = be_step(state, [1], resample(updates, 0.05, True), g, 1.0, 0.05, state.flows)
        for i in (0, 2, 3):
            np.testing.assert_array_equal(out.flows[i], state.flows[i])
        # held flows still drive the consensus row
        np.testing.assert_allclose(out.x_c + 0.05 * out.flows.sum(axis=0), state.x_c,
                                   atol=1e-12)

    def test_agrees_with_dense_reference(self):
        rng = np.random.default_rng(12)
        worst = 0.0
        for _ in range(30):
            n = int(rng.integers(1, 9))
            d = int(rng.integers(1, 17))
            active = sorted(rng.choice(n, int(rng.integers(1, n + 1)), replace=False).tolist())
            state = FlowState(rng.normal(size=d), rng.normal(size=(n, d)), 0.0, 0)
            prev = rng.normal(size=(n, d))
            updates = {i: _update([0.0, float(rng.uniform(0.1, 1.0))],
                                  rng.normal(size=(2, d))) for i in active}
            g = build_sensitivity(rng.uniform(0.05, 1.0, n),
                                  rng.uniform(0.0, 5.0, (n, d)),
                                  float(rng.uniform(0.05, 1.0)))[active]
            L = float(rng.uniform(0.05, 2.0))
            dt = float(rng.uniform(0.001, 0.5))
            gam = resample(updates, dt, True)
            fast = be_step(state, active, gam, g, L, dt, prev)
            ref = dense_be_reference(state, active, gam, g, L, dt, prev)
            worst = max(worst, np.abs(fast.x_c - ref.x_c).max(),
                        np.abs(fast.flows - ref.flows).max())
        assert worst <= 1e-10


class TestLte:
    def test_zero_at_fixed_point(self):
        state, updates, g = _fixed_point_setup(n=2, d=2)
        active, gam = sorted(updates), resample(updates, 0.25, True)
        after = be_step(state, active, gam, g, 0.5, 0.25, state.flows)
        eps_c, eps_l = lte(state, after, active, resample(updates, 0.0, True), gam, g, 0.5,
                           state.flows)
        assert eps_c == pytest.approx(0.0, abs=1e-14)
        assert eps_l == pytest.approx(0.0, abs=1e-14)

    def test_errors_shrink_on_converging_run(self):
        obj = QuadraticObjective(np.diag([5.0, 7.0]), np.array([1.0, -1.0]))
        cfg = ClientConfig(0, lr=0.01, epochs=20, weight=1.0)
        state = FlowState(np.array([5.0, 5.0]), np.zeros((1, 2)), 0.0, 0)
        g = build_sensitivity(np.array([1.0]), obj.mean_hessian(state.x_c)[None, :], 0.05)
        eps = []
        for _ in range(300):
            upd = simulate_local(obj, cfg, state.x_c, -state.flows[0], t_start=state.t_now)
            state, records, _ = consensus_round(state, {0: upd}, g, 1e-2, 0.1)
            eps.extend(max(r.eps_c, r.eps_l) for r in records)
        assert np.linalg.norm(state.x_c - obj.center) <= 1e-8  # converged
        third = len(eps) // 3
        assert max(eps[2 * third:]) < max(eps[third:2 * third])

    def test_single_coordinate_change_arithmetic(self):
        n, d, dt, L = 2, 3, 0.2, 0.5
        x_c = np.zeros(d)
        before = FlowState(x_c, np.zeros((n, d)), 0.0, 0)
        flows_after = np.zeros((n, d))
        delta = 0.37
        flows_after[1, 2] = delta
        after = FlowState(x_c, flows_after, dt, 0)
        updates = {i: _constant_update(x_c) for i in range(n)}
        g = build_sensitivity(np.full(n, 0.5), np.ones((n, d)), 0.1)
        eps_c, eps_l = lte(before, after, sorted(updates), resample(updates, 0.0, True),
                           resample(updates, dt, True), g, L, before.flows)
        assert eps_c == pytest.approx(0.5 * dt * delta)
        # rhs change is -delta * g in that coordinate
        expected_l = dt / (2 * L) * delta * g[1, 2]
        assert eps_l == pytest.approx(expected_l)


class TestAdaptiveStep:
    def test_fixed_point_accepts_first_trial(self):
        state, updates, g = _fixed_point_setup(n=2, d=2)
        out, _, dt_used, backtracks, eps_c, eps_l = adaptive_step(
            state, updates, resample(updates, 0.0, True), g, 1e-3, 1.0, 0.3, state.flows)
        assert backtracks == 0
        assert dt_used == pytest.approx(0.3)
        assert max(eps_c, eps_l) == pytest.approx(0.0, abs=1e-14)

    def test_backtrack_scaling_rule(self):
        # a moving single-client instance whose first trial violates the
        # tolerance: the retry must use dt = SAFETY * (delta / eps) * dt
        state = FlowState(np.array([1.0]), np.array([[0.0]]), 0.0, 0)
        upd = _update([0.0, 1.0], np.array([[0.0], [-1.0]]))
        g = build_sensitivity(np.array([1.0]), np.array([[1.0]]), 0.1)
        delta, L = 1e-3, 0.2
        gam0, gam1 = resample({0: upd}, 0.0, True), resample({0: upd}, 0.5, True)
        trial = be_step(state, [0], gam1, g, L, 0.5, state.flows)
        eps0 = max(*lte(state, trial, [0], gam0, gam1, g, L, state.flows))
        assert eps0 > delta  # the constructed instance must force a retry
        out, _, dt_used, backtracks, eps_c, eps_l = adaptive_step(
            state, {0: upd}, gam0, g, delta, L, 0.5, state.flows)
        assert backtracks >= 1
        if backtracks == 1:
            assert dt_used == pytest.approx(consensus.SAFETY * (delta / eps0) * 0.5)
        assert max(eps_c, eps_l) <= delta

    def test_quadratic_error_scaling_passes_second_trial(self):
        # eps scales ~ dt^2, so one shrink by SAFETY*delta/eps lands within
        # the tolerance
        state = FlowState(np.array([1.0]), np.array([[0.0]]), 0.0, 0)
        upd = _update([0.0, 1.0], np.array([[0.0], [-1.0]]))
        g = build_sensitivity(np.array([1.0]), np.array([[1.0]]), 0.1)
        _, _, _, backtracks, _, _ = adaptive_step(
            state, {0: upd}, resample({0: upd}, 0.0, True), g, 1e-3, 0.2, 0.5, state.flows)
        assert backtracks == 1

    def test_exhaustion_raises_with_diagnostics(self, monkeypatch):
        state = FlowState(np.array([1.0]), np.array([[0.0]]), 0.0, 0)
        upd = _update([0.0, 1.0], np.array([[0.0], [-1.0]]))
        g = build_sensitivity(np.array([1.0]), np.array([[1.0]]), 0.1)
        # one trial allowed and a tolerance the first trial cannot meet
        monkeypatch.setattr(consensus, "MAX_BACKTRACKS", 1)
        with pytest.raises(StepControlError) as err:
            adaptive_step(state, {0: upd}, resample({0: upd}, 0.0, True), g, 1e-9, 0.2, 0.5,
                          state.flows)
        assert err.value.dt > 0
        assert max(err.value.eps_c, err.value.eps_l) > 1e-9


class TestConsensusRound:
    def test_consensus_state_unchanged(self):
        state, updates, g = _fixed_point_setup(n=3, d=2)
        out, records, _ = consensus_round(state, updates, g, 1e-3, 1.0)
        np.testing.assert_allclose(out.x_c, state.x_c, atol=1e-12)
        np.testing.assert_allclose(out.flows, 0.0, atol=1e-12)
        assert out.gs_iter == state.gs_iter + 1

    def test_first_trial_is_the_window(self):
        # with no previous step the first trial spans the whole window
        state, updates, g = _fixed_point_setup(window=0.4)
        _, records, dt_last = consensus_round(state, updates, g, 1e-3, 1.0)
        assert len(records) == 1
        assert records[0].dt == dt_last == 0.4

    def test_round_beyond_substep_budget_fails(self, monkeypatch):
        # a round that needs more accepted steps than MAX_SUBSTEPS stops after
        # the step that breaks the budget
        monkeypatch.setattr(consensus, "MAX_SUBSTEPS", 3)
        state, updates, g, L = _random_round(np.random.default_rng(5), 6, 4, 3)
        sink = []
        with pytest.raises(StepControlError, match="exceeded 3 substeps"):
            consensus_round(state, updates, g, 1e-3, L, state_sink=sink)
        assert len(sink) == 5   # entry state plus four accepted substeps

    def test_window_covers_max_client_window(self):
        state = FlowState(np.zeros(1), np.zeros((3, 1)), 0.0, 0)
        windows = (1e-3, 5e-3, 1e-2)
        updates = {i: _constant_update([0.0], window=w)
                   for i, w in enumerate(windows)}
        g = build_sensitivity(np.full(3, 1 / 3), np.ones((3, 1)), 0.1)
        out, records, _ = consensus_round(state, updates, g, 1e-2, 1.0)
        assert out.t_now == pytest.approx(1e-2, abs=1e-12)
        taus = [r.tau for r in records]
        assert max(taus) == pytest.approx(1e-2, abs=1e-12)
        assert all(0.0 < t <= 1e-2 + 1e-12 for t in taus)

    @settings(max_examples=60, deadline=None)
    @given(profiles=st.lists(st.tuples(st.floats(1e-4, 1e-3), st.integers(1, 10)),
                             min_size=1, max_size=5),
           t_now=st.floats(0.0, 50.0))
    def test_round_ends_at_latest_checkpoint_bitwise(self, profiles, t_now):
        # each window ends at fl(t_now + fl(lr * K)) and fl(lr * K) is the
        # config's window, so the latest checkpoint is t_now + max(window)
        obj = QuadraticObjective(np.diag([2.0, 4.0]), np.array([1.0, -2.0]))
        cfgs = [ClientConfig(i, lr=lr, epochs=k) for i, (lr, k) in enumerate(profiles)]
        n = len(cfgs)
        state = FlowState(np.zeros(2), np.zeros((n, 2)), t_now, 0)
        updates = {c.client_id: simulate_local(obj, c, state.x_c, np.zeros(2), t_start=t_now)
                   for c in cfgs}
        g = build_sensitivity(np.full(n, 1.0 / n), np.tile(obj.mean_hessian(state.x_c), (n, 1)),
                              0.01)
        out, _, _ = consensus_round(state, updates, g, 1e-2, 1.0)
        assert out.t_now == state.t_now + max(c.window for c in cfgs)

    def test_single_client_quadratic_converges_to_center(self):
        obj = QuadraticObjective(np.diag([2.0, 4.0]), np.array([1.0, -2.0]))
        cfg = ClientConfig(0, lr=0.05, epochs=20, weight=1.0)
        state = FlowState(np.zeros(2), np.zeros((1, 2)), 0.0, 0)
        g = build_sensitivity(np.array([1.0]), obj.mean_hessian(state.x_c)[None, :], 0.1)
        for _ in range(200):
            upd = simulate_local(obj, cfg, state.x_c, -state.flows[0], t_start=state.t_now)
            state, _, _ = consensus_round(state, {0: upd}, g, 1e-2, 0.5)
        assert np.linalg.norm(state.x_c - obj.center) <= 1e-6

    def test_all_accepted_steps_within_tolerance(self):
        obj = QuadraticObjective(np.diag([3.0, 1.0]), np.array([0.5, 0.5]))
        cfg = ClientConfig(0, lr=0.05, epochs=10, weight=1.0)
        state = FlowState(np.array([4.0, -4.0]), np.zeros((1, 2)), 0.0, 0)
        g = build_sensitivity(np.array([1.0]), obj.mean_hessian(state.x_c)[None, :], 0.1)
        for _ in range(30):
            upd = simulate_local(obj, cfg, state.x_c, -state.flows[0], t_start=state.t_now)
            state, records, _ = consensus_round(state, {0: upd}, g, 1e-3, 0.5)
            for r in records:
                assert max(r.eps_c, r.eps_l) <= 1e-3

    def test_state_sink_collects_substates(self):
        state, updates, g = _fixed_point_setup(n=2, d=2)
        sink = []
        out, records, _ = consensus_round(state, updates, g, 1e-2, 1.0, state_sink=sink)
        assert len(sink) == len(records) + 1
        assert sink[0][0] == state.t_now
        assert sink[-1][0] == pytest.approx(out.t_now)


def _random_round(rng, n, n_active, d, t0=0.0):
    """A central round over n clients, n_active of them active, each active
    client with its own step size and step count (so windows differ), and
    its flow inductance L."""
    active = sorted(rng.choice(n, n_active, replace=False).tolist())
    updates = {}
    for i in active:
        k, lr = int(rng.integers(1, 6)), float(rng.uniform(0.005, 0.03))
        updates[i] = Trajectory(t0 + lr * np.arange(k + 1), rng.normal(size=(k + 1, d)))
    state = FlowState(rng.normal(size=d), rng.normal(size=(n, d)), t0, 0)
    g = build_sensitivity(rng.uniform(0.1, 1.0, n), rng.uniform(0.0, 5.0, (n, d)), 0.05)
    g = g[active]     # the draws of all n clients, so each seed keeps its instance
    L = float(rng.uniform(0.05, 1.0))
    return state, updates, g, L


def _same_round(fast, ref):
    (state, records, dt_last), (ref_state, ref_records, ref_dt_last) = fast, ref
    assert records.tobytes() == ref_records.tobytes()
    assert state.x_c.tobytes() == ref_state.x_c.tobytes()
    assert state.flows.tobytes() == ref_state.flows.tobytes()
    assert (state.t_now, state.gs_iter, dt_last) == (ref_state.t_now, ref_state.gs_iter,
                                                     ref_dt_last)


class TestCarriedResample:
    """consensus_round resamples at t_now once per round and carries each
    accepted trial's resample into the next step; the oracle resamples afresh
    at both ends of every trial.  The two must agree bit for bit."""

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 6), d=st.integers(1, 3),
           sync=st.booleans(), delta=st.sampled_from([1e-1, 1e-2, 1e-3]),
           t0=st.floats(0.0, 5.0), dt_seed=st.one_of(st.none(), st.floats(1e-3, 0.05)))
    def test_matches_fresh_resample_reference(self, seed, n, d, sync, delta, t0, dt_seed):
        rng = np.random.default_rng(seed)
        n_active = int(rng.integers(1, n + 1))
        state, updates, g, L = _random_round(rng, n, n_active, d, t0)

        def loss(x):
            return float(x @ x)

        try:
            fast = consensus_round(state, updates, g, delta, L, dt_seed, sync, loss)
        except StepControlError:
            with pytest.raises(StepControlError):
                reference_consensus_round(state, updates, g, delta, L, dt_seed, sync, loss)
            return
        _same_round(fast, reference_consensus_round(state, updates, g, delta, L, dt_seed,
                                                    sync, loss))

    @pytest.mark.parametrize("sync", [True, False])
    def test_backtracking_round_with_inactive_clients(self, sync):
        state, updates, g, L = _random_round(np.random.default_rng(5), 6, 4, 3)
        assert len({u.times[-1] - u.times[0] for u in updates.values()}) > 1
        fast = consensus_round(state, updates, g, 1e-3, L, sync=sync)
        assert fast[1].backtracks.sum() > 0
        _same_round(fast, reference_consensus_round(state, updates, g, 1e-3, L, sync=sync))

    @pytest.mark.parametrize("sync", [True, False])
    def test_interp_calls_per_round(self, monkeypatch, sync):
        calls = []
        interp = consensus.interp_state

        def counting(update, tau):
            calls.append(tau)
            return interp(update, tau)

        monkeypatch.setattr(consensus, "interp_state", counting)
        state, updates, g, L = _random_round(np.random.default_rng(5), 6, 4, 3)
        _, records, _ = consensus_round(state, updates, g, 1e-3, L, sync=sync)
        trials = len(records) + int(records.backtracks.sum())
        assert trials > len(records)
        assert len(calls) == (len(updates) * (trials + 1) if sync else 0)


class TestSteadyState:
    def test_identical_states(self):
        s = FlowState(np.ones(3), np.zeros((2, 3)), 0.0, 0)
        assert steady_state_reached(s, s, tol=1e-9)

    def test_moved_consensus_not_steady(self):
        a = FlowState(np.zeros(2), np.zeros((1, 2)), 0.0, 0)
        b = FlowState(np.full(2, 1e-5), np.zeros((1, 2)), 0.1, 1)
        assert not steady_state_reached(b, a, tol=1e-6)

    def test_moved_flow_not_steady(self):
        a = FlowState(np.zeros(2), np.zeros((2, 2)), 0.0, 0)
        b = FlowState(np.zeros(2), np.array([[0.0, 0.0], [0.0, 1e-3]]), 0.1, 1)
        assert not steady_state_reached(b, a, tol=1e-6)


class TestFlowStateType:
    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            FlowState(np.array([np.inf]), np.zeros((1, 1)), 0.0, 0)


def test_two_client_round_reaches_weighted_minimizer():
    rng = np.random.default_rng(21)
    objs = [QuadraticObjective(np.diag([4.0, 2.0]), np.array([1.0, 0.0])),
            QuadraticObjective(np.diag([2.0, 6.0]), np.array([-1.0, 2.0]))]
    weights = np.array([0.3, 0.7])
    cfgs = [ClientConfig(i, lr=0.05, epochs=20, weight=weights[i]) for i in range(2)]
    state = FlowState(np.zeros(2), np.zeros((2, 2)), 0.0, 0)
    g = build_sensitivity(weights, np.array([o.mean_hessian(state.x_c) for o in objs]), 0.1)
    for _ in range(300):
        updates = {i: simulate_local(objs[i], cfgs[i], state.x_c, -state.flows[i],
                                     t_start=state.t_now) for i in range(2)}
        state, _, _ = consensus_round(state, updates, g, 1e-2, 0.5)
    x_star = quadratic_minimizer(objs, weights)
    assert np.linalg.norm(state.x_c - x_star) <= 1e-6
