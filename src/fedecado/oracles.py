"""Independent brute-force verifiers: analytic minimizers, the per-client
weighted global objective, finite-difference derivatives (of the losses and
of a client window's response to its flow), a dense reference solve for the
central step, a central round that resamples afresh at both ends of every
trial, a resample that holds final states instead of extrapolating,
discounted trajectory norms, and the stability study that freezes the flow
sign convention.  Everything here is deliberately simple and separate
from the code paths it checks.  The randomized checks that the acceptance
tests and `fedecado verify` share live here too, once each."""

from dataclasses import replace

import numpy as np

from fedecado.clients import Trajectory, simulate_local
from fedecado.consensus import (
    GROWTH,
    MAX_BACKTRACKS,
    SAFETY,
    STEP_DTYPE,
    FlowState,
    StepControlError,
    be_step,
    build_sensitivity,
    interp_state,
    lte,
    resample,
)
from fedecado.objectives import LogisticObjective, MlpObjective, make_blobs, random_quadratic


def quadratic_minimizer(objectives, weights):
    """Solve (sum_i w_i A_i) x = sum_i w_i A_i c_i with a dense factorization;
    regularized by 1e-12 I if the system is singular."""
    weights = np.asarray(weights, dtype=np.float64)
    d = objectives[0].dim
    lhs = np.zeros((d, d))
    rhs = np.zeros(d)
    for w, obj in zip(weights, objectives):
        lhs += w * obj.matrix
        rhs += w * (obj.matrix @ obj.center)
    try:
        return np.linalg.solve(lhs, rhs)
    except np.linalg.LinAlgError:
        lhs = lhs + 1e-12 * np.eye(d)
        return np.linalg.solve(lhs, rhs)


def weighted_loss(objectives, weights, x):
    """The global objective sum_i w_i f_i(x), one client at a time: the
    reference for `objectives.weighted_sum`."""
    return float(sum(w * obj.loss(x) for w, obj in zip(weights, objectives)))


def weighted_gradient(objectives, weights, x):
    """Gradient of the global objective, accumulated one client at a time."""
    g = np.zeros(objectives[0].dim)
    for w, obj in zip(weights, objectives):
        g += w * obj.gradient(x)
    return g


def stationary_flows(objectives, weights, x_star):
    """Per-client flow values at the stationary point of the coupled system:
    each client's weighted gradient at the consensus optimum (they sum to
    zero there)."""
    return np.array([w * obj.gradient(x_star) for w, obj in zip(weights, objectives)])


def finite_diff_gradient(obj, x, h=1e-6):
    """Central-difference gradient of obj.loss, one coordinate at a time."""
    if h <= 0:
        raise ValueError("h must be > 0")
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    for j in range(len(x)):
        e = np.zeros_like(x)
        e[j] = h
        grad[j] = (obj.loss(x + e) - obj.loss(x - e)) / (2.0 * h)
    return grad


def finite_diff_hessian_diag(obj, x, h=1e-4):
    """Second central differences of obj.loss along each coordinate."""
    x = np.asarray(x, dtype=np.float64)
    f0 = obj.loss(x)
    diag = np.zeros_like(x)
    for j in range(len(x)):
        e = np.zeros_like(x)
        e[j] = h
        diag[j] = (obj.loss(x + e) - 2.0 * f0 + obj.loss(x - e)) / (h * h)
    return diag


def client_response(obj, cfg, x, flow, h=1e-6):
    """How far a client's window end state moves per unit change of its flow,
    one coordinate at a time: central differences of `simulate_local` run
    from x with drift -flow (the flow sign convention of `consensus`).  The
    quantity the sensitivity response `g` of `build_sensitivity` models."""
    if h <= 0:
        raise ValueError("h must be > 0")
    flow = np.asarray(flow, dtype=np.float64)
    response = np.zeros_like(flow)
    for j in range(len(flow)):
        e = np.zeros_like(flow)
        e[j] = h
        up = simulate_local(obj, cfg, x, -(flow + e)).states[-1][j]
        down = simulate_local(obj, cfg, x, -(flow - e)).states[-1][j]
        response[j] = (up - down) / (2.0 * h)
    return response


def hold_state(update, tau):
    """`interp_state` that holds a window's final state past its end instead
    of extrapolating the last segment: the resample that synchronization
    would be without extrapolation."""
    return interp_state(update, min(tau, update.times[-1]))


def dense_be_reference(state, active, gam, g, L, dt, prev_flows):
    """Assemble the full (n+1)d-square linear system of one central step and
    solve it densely; takes what `be_step` takes.  Used to validate the
    per-coordinate Schur elimination; desk scale only."""
    n, d = state.flows.shape
    if n > 16 or d > 32:
        raise ValueError("dense reference is desk-scale only (n <= 16, d <= 32)")
    row = {int(i): k for k, i in enumerate(active)}
    size = (n + 1) * d
    A = np.zeros((size, size))
    b = np.zeros(size)
    xc_sl = slice(n * d, (n + 1) * d)
    tau_new = state.t_now + dt
    for i in range(n):
        sl = slice(i * d, (i + 1) * d)
        if i in row:
            A[sl, sl] = np.diag(1.0 + (dt / L) * g[row[i]])
            A[sl, xc_sl] = -(dt / L) * np.eye(d)
            b[i * d:(i + 1) * d] = state.flows[i] + (dt / L) * (-gam[row[i]]
                                                                 + g[row[i]] * prev_flows[i])
        else:
            A[sl, sl] = np.eye(d)
            b[i * d:(i + 1) * d] = state.flows[i]
        A[xc_sl, sl] = dt * np.eye(d)
    A[xc_sl, xc_sl] = np.eye(d)
    b[n * d:] = state.x_c
    cond = np.linalg.cond(A)
    if not np.isfinite(cond) or cond > 1e15:
        raise np.linalg.LinAlgError(f"singular central system (cond={cond:.3e})")
    z = np.linalg.solve(A, b)
    return FlowState(z[n * d:], z[: n * d].reshape(n, d), tau_new, state.gs_iter)


def reference_consensus_round(state, updates, g, delta, L, dt_seed=None, sync=True,
                              loss_fn=None):
    """`consensus.consensus_round` without the carried resample: every trial
    resamples each active client afresh, at its end for the step and at
    both ends for the error estimate.  Same step policy and constants, same
    record rows; no substep budget and no state sink."""
    active = sorted(updates)

    def fresh(tau):
        return np.array([interp_state(updates[i], tau) if sync else updates[i].states[-1]
                         for i in active])

    t_end = float(max(u.times[-1] for u in updates.values()))
    prev_flows, rows, dt = state.flows.copy(), [], dt_seed
    while t_end - state.t_now > 1e-12 * max(1.0, abs(t_end)):
        rest = t_end - state.t_now
        dt = rest if dt is None else min(dt * GROWTH, rest)
        for backtracks in range(MAX_BACKTRACKS):
            trial = be_step(state, active, fresh(state.t_now + dt), g, L, dt, prev_flows)
            eps = lte(state, trial, active, fresh(state.t_now), fresh(trial.t_now), g, L,
                      prev_flows)
            if max(eps) <= delta:
                break
            dt = SAFETY * (delta / max(eps)) * dt
        else:
            raise StepControlError("no step within tolerance", dt, *eps)
        rows.append((state.gs_iter, trial.t_now, dt, *eps, backtracks,
                     float(np.linalg.norm(trial.x_c - state.x_c)),
                     float(loss_fn(trial.x_c)) if loss_fn is not None else float("nan")))
        state = trial
    state = replace(state, t_now=t_end, gs_iter=state.gs_iter + 1)
    return state, np.array(rows, dtype=STEP_DTYPE).view(np.recarray), dt


def beta_norm(trajectory, beta):
    """Exponentially discounted sup-norm of a trajectory window: max over
    its sample times tau of exp(-beta * (tau - t0)) * max_component
    |trajectory resampled at tau|, t0 being the window start."""
    if beta <= 0:
        raise ValueError("beta must be > 0")
    times = np.asarray(trajectory.times, dtype=np.float64)
    traj = Trajectory(times, np.asarray(trajectory.states, dtype=np.float64))
    t0 = times[0]
    best = 0.0
    for tau in times - t0:
        val = np.abs(interp_state(traj, t0 + tau)).max()
        best = max(best, float(np.exp(-beta * tau) * val))
    return best


def contraction_ratio(round_trajectories, x_star, stationary_flows=None, beta=1.0):
    """Per-round ratios of discounted sup-norm distances to the stationary
    state.

    Each element of round_trajectories is a Trajectory whose states stack
    [flows.ravel(), x_c] per sample.  The stationary state uses x_star for
    the consensus block and stationary_flows (default: zeros) for the flow
    blocks.  A zero denominator reports a ratio of 0 (already converged).
    """
    x_star = np.asarray(x_star, dtype=np.float64)
    d = x_star.shape[0]
    norms = []
    for traj in round_trajectories:
        states = np.asarray(traj.states, dtype=np.float64)
        n_flow = states.shape[1] - d
        if stationary_flows is None:
            target_flows = np.zeros(n_flow)
        else:
            target_flows = np.asarray(stationary_flows, dtype=np.float64).ravel()
        target = np.concatenate([target_flows, x_star])
        shifted = Trajectory(np.asarray(traj.times), states - target)
        norms.append(beta_norm(shifted, beta))
    ratios = []
    for k in range(len(norms) - 1):
        ratios.append(0.0 if norms[k] == 0.0 else norms[k + 1] / norms[k])
    return ratios


def weighted_series_bound(signal, gammas, dt, beta):
    """Measured and guaranteed sides of the discounted-norm bound on a
    weighted running sum of resampled trajectory values.

    For tau_m = m * dt and weights gamma_l, compares
        max_m e^{-beta tau_m} | sum_{l<=m} gamma_l * G(signal, tau_{m-l}) |
    against  max_l |gamma_l| / (1 - e^{-beta dt}) * discounted sup-norm of
    the signal.  Returns (measured, bound).
    """
    times = np.asarray(signal.times, dtype=np.float64)
    values = np.asarray(signal.states, dtype=np.float64)
    gammas = np.asarray(gammas, dtype=np.float64)
    m_max = len(gammas) - 1
    grid = times[0] + dt * np.arange(m_max + 1)
    samples = np.array([interp_state(signal, t) for t in grid])
    measured = 0.0
    for m in range(m_max + 1):
        acc = np.zeros(values.shape[1])
        for l in range(m + 1):
            acc = acc + gammas[l] * samples[m - l]
        measured = max(measured, float(np.exp(-beta * dt * m) * np.abs(acc).max()))
    big_m = float(np.abs(gammas).max())
    sup = max(
        float(np.exp(-beta * dt * m) * np.abs(samples[m]).max()) for m in range(m_max + 1))
    bound = big_m / (1.0 - np.exp(-beta * dt)) * sup
    return measured, bound


# ---------------------------------------------------------------------------
# Sign-convention stability study
# ---------------------------------------------------------------------------

def coupled_system_matrix(curvature, L, central_sign):
    """Jacobian of the single-client scalar coupled system
    [client state, flow, consensus state] under the implemented client drift
    (client integrates -curvature*x + flow) and a chosen consensus-row sign:
    dx_c/dt = central_sign * flow."""
    a = float(curvature)
    return np.array([
        [-a, 1.0, 0.0],
        [-1.0 / L, 0.0, 1.0 / L],
        [0.0, central_sign, 0.0],
    ])


IMPLEMENTED_CENTRAL_SIGN = -1.0


def verify_sign_convention(curvatures=(0.1, 1.0, 10.0), inductances=(0.05, 1.0),
                           dt=0.01):
    """Assert the frozen consensus-row sign is the stable one.

    The implemented sign must give continuous dynamics with strictly negative
    real eigenvalues and an implicit-step map with spectral radius < 1 for a
    small dt; the opposite sign must fail the eigenvalue test somewhere.
    """
    opposite_unstable = False
    for a in curvatures:
        for L in inductances:
            J = coupled_system_matrix(a, L, IMPLEMENTED_CENTRAL_SIGN)
            eig = np.linalg.eigvals(J)
            if eig.real.max() >= 0:
                return False, f"implemented sign unstable at a={a}, L={L}"
            step_map = np.linalg.inv(np.eye(3) - dt * J)
            rho = np.abs(np.linalg.eigvals(step_map)).max()
            if rho >= 1.0:
                return False, f"implicit map not contractive at a={a}, L={L} (rho={rho:.6f})"
            J_opp = coupled_system_matrix(a, L, -IMPLEMENTED_CENTRAL_SIGN)
            if np.linalg.eigvals(J_opp).real.max() > 0:
                opposite_unstable = True
    if not opposite_unstable:
        return False, "opposite sign never unstable; study inconclusive"
    return True, "implemented sign stable, opposite sign unstable"


# ---------------------------------------------------------------------------
# Checks shared by the acceptance tests and the `verify` subcommand: each one
# draws `trials` random instances from `seed` and returns what it measured.
# ---------------------------------------------------------------------------

def interp_algebra(seed, trials):
    """The largest additivity/homogeneity gap of `interp_state`, inside and
    beyond the recorded span, and the number of order or constant
    violations inside it."""
    rng = np.random.default_rng(seed)
    worst_lin = 0.0
    violations = 0
    for _ in range(trials):
        k = int(rng.integers(2, 7))
        # keep checkpoint gaps bounded away from zero so slopes stay O(100)
        # and a 1e-12 absolute tolerance is meaningful
        times = np.sort(rng.uniform(0.0, 1.0, k))
        while (np.diff(times) < 1e-2).any():
            times = np.sort(rng.uniform(0.0, 1.0, k))
        ya = rng.uniform(-2.0, 2.0, (k, 2))
        yb = rng.uniform(-2.0, 2.0, (k, 2))
        alpha = float(rng.uniform(-3.0, 3.0))
        ua = Trajectory(times, ya)
        ub = Trajectory(times, yb)
        usum = Trajectory(times, ya + yb)
        uscale = Trajectory(times, alpha * ya)
        hi = Trajectory(times, ya + rng.uniform(0.05, 1.0, (k, 2)))
        const = Trajectory(times, np.full((k, 2), 1.75))
        for tau in rng.uniform(times[0] - 0.5, times[-1] + 0.5, 5):
            worst_lin = np.max([
                worst_lin,
                np.abs(interp_state(usum, tau) - interp_state(ua, tau)
                       - interp_state(ub, tau)).max(),
                np.abs(interp_state(uscale, tau) - alpha * interp_state(ua, tau)).max()])
        for tau in rng.uniform(times[0], times[-1], 5):
            if not (interp_state(hi, tau) > interp_state(ua, tau)).all():
                violations += 1
            if np.abs(interp_state(const, tau) - 1.75).max() > 1e-12:
                violations += 1
    return worst_lin, violations


def solver_discrepancy(seed, trials):
    """The largest elementwise gap between `be_step` and
    `dense_be_reference` over random central steps."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        n = int(rng.integers(1, 9))
        d = int(rng.integers(1, 17))
        active = sorted(rng.choice(n, int(rng.integers(1, n + 1)), replace=False).tolist())
        state = FlowState(rng.normal(size=d), rng.normal(size=(n, d)), 0.0, 0)
        prev = rng.normal(size=(n, d))
        updates = {}
        for i in active:
            times = np.array([0.0, float(rng.uniform(0.05, 1.0))])
            updates[i] = Trajectory(times, rng.normal(size=(2, d)))
        g = build_sensitivity(rng.uniform(0.05, 1.0, n), rng.uniform(0.0, 5.0, (n, d)),
                              float(rng.uniform(0.05, 1.0)))[active]
        L = float(rng.uniform(0.05, 2.0))
        dt = float(rng.uniform(0.001, 0.5))
        gam = resample(updates, dt, True)
        fast = be_step(state, active, gam, g, L, dt, prev)
        ref = dense_be_reference(state, active, gam, g, L, dt, prev)
        worst = np.max([worst, np.abs(fast.x_c - ref.x_c).max(),
                         np.abs(fast.flows - ref.flows).max()])
    return worst


def gradient_errors(seed, trials):
    """The largest relative gap between each objective kind's gradient and
    central differences, over `trials` random points per objective.  The
    worst values here and above are NaN if any gap is, so a bound fails."""
    rng = np.random.default_rng(seed)
    data = make_blobs(60, 4, 3, seed=77)
    worst = {}
    for obj in (random_quadratic(8, rng, 0.5, 20.0), LogisticObjective(data),
                MlpObjective(data, hidden=6)):
        rels = []
        for _ in range(trials):
            x = rng.normal(size=obj.dim) * 0.5
            fd = finite_diff_gradient(obj, x, h=1e-6)
            rels.append(np.linalg.norm(obj.gradient(x) - fd) / max(np.linalg.norm(fd), 1e-300))
        worst[obj.kind] = np.max(rels)
    return worst


# ---------------------------------------------------------------------------
# Self-contained verification suite (used by the `verify` CLI subcommand)
# ---------------------------------------------------------------------------

def _check_solver_equivalence(trials=20, seed=123):
    worst = solver_discrepancy(seed, trials)
    return worst <= 1e-10, f"max discrepancy {worst:.3e} over {trials} instances"


def _check_interp(trials=200, seed=11):
    worst, violations = interp_algebra(seed, trials)
    return ((worst <= 1e-12, f"max additivity/homogeneity gap {worst:.3e}"),
            (violations == 0, f"{violations} ordering/constant violations in {trials} cases"))


def _check_gradients(trials=4, seed=3):
    worst = np.max(list(gradient_errors(seed, trials).values()))
    return worst <= 1e-5, f"max relative gradient error {worst:.3e}"


def _check_minimizer(seed=17):
    rng = np.random.default_rng(seed)
    objs = [random_quadratic(8, rng, 0.2, 20.0) for _ in range(5)]
    w = rng.dirichlet(np.full(5, 1.0))
    x_star = quadratic_minimizer(objs, w)
    lhs = sum(wi * o.matrix for wi, o in zip(w, objs))
    rhs = sum(wi * (o.matrix @ o.center) for wi, o in zip(w, objs))
    res = np.linalg.norm(lhs @ x_star - rhs)
    return res <= 1e-10, f"normal-equation residual {res:.3e}"


def _check_series_bound(seed=23):
    rng = np.random.default_rng(seed)
    ok = True
    worst = -np.inf
    for _ in range(10):
        k = 12
        times = np.linspace(0.0, 1.0, k)
        vals = rng.normal(size=(k, 3))
        sig = Trajectory(times, vals)
        gammas = rng.uniform(-1.0, 1.0, 8)
        measured, bound = weighted_series_bound(sig, gammas, dt=0.1,
                                                beta=float(rng.uniform(0.5, 2.0)))
        worst = max(worst, measured - bound)
        ok = ok and measured <= bound + 1e-12
    return ok, f"max (measured - bound) = {worst:.3e}"


def run_verification():
    """Run the oracle suite; returns a list of (name, ok, detail)."""
    checks = [
        (("sign-convention-stability",), verify_sign_convention),
        (("schur-vs-dense-solver",), _check_solver_equivalence),
        # one interp_algebra run reports both interpolation checks
        (("interp-linearity", "interp-order-and-constants"), _check_interp),
        (("gradient-fidelity",), _check_gradients),
        (("quadratic-minimizer-residual",), _check_minimizer),
        (("discounted-series-bound",), _check_series_bound),
    ]
    results = []
    for names, fn in checks:
        try:
            outcomes = fn() if len(names) > 1 else (fn(),)
        except Exception as exc:  # a crash is a failure, not an abort
            outcomes = [(False, f"raised {type(exc).__name__}: {exc}")] * len(names)
        results += [(name, bool(ok), detail) for name, (ok, detail) in zip(names, outcomes)]
    return results
