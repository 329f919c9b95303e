"""Central agent: couples client trajectories through per-client flow
variables and advances (x_c, flows) with an implicit Backward-Euler solve on
a shared timescale, one linear "arrow" system per step.

Sign convention (frozen after the stability check in fedecado.oracles):
each flow variable integrates the center-to-client gap,

    L * dflow_i/dt = x_c - x_i_hat,      dx_c/dt = - sum_i flow_i,

while a client integrates  dx_i/dt = -w_i grad f_i(x_i) + flow_i,  i.e. the
drift handed to `simulate_local` is the *negative* of the stored flow.  The
reverse pairing of central signs is an unstable saddle.

x_i_hat is the client's window (the `clients.Trajectory` that
`simulate_local` returns) resampled at the synchronization time, plus a
first-order correction through the client's aggregate sensitivity for the
flow change the client has not seen yet.

Only `resample` resamples; `be_step` and `lte` do arithmetic on its output.
A round resamples at t_now once on entry, each trial once at t_now + dt, and
the accepted trial's array is carried as the next step's t_now resample: a
sync=True round makes n_active * (trials + 1) `interp_state` calls, and a
sync=False round (final states throughout) makes none.
"""

from dataclasses import dataclass, replace

import numpy as np


class StepControlError(RuntimeError):
    """Step-size control could not satisfy the error tolerance; carries the
    last attempted step and error estimates."""

    def __init__(self, message, dt, eps_c, eps_l):
        super().__init__(message)
        self.dt = dt
        self.eps_c = eps_c
        self.eps_l = eps_l


@dataclass(frozen=True)
class FlowState:
    """Full central-agent state: consensus iterate, one flow vector per
    client (inactive ones included), current ODE time and round counter."""

    x_c: np.ndarray     # (d,)
    flows: np.ndarray   # (n_clients, d)
    t_now: float = 0.0
    gs_iter: int = 0

    def __post_init__(self):
        object.__setattr__(self, "x_c", np.asarray(self.x_c, dtype=np.float64))
        object.__setattr__(self, "flows", np.asarray(self.flows, dtype=np.float64))
        if self.flows.ndim != 2 or self.flows.shape[1] != self.x_c.shape[0]:
            raise ValueError("flows must be (n_clients, d)")
        if not (np.isfinite(self.x_c).all() and np.isfinite(self.flows).all()):
            raise ValueError("non-finite central state")


def build_sensitivity(weights, hessian_diags, dt_ref):
    """The sensitivity response g = 1 / (1/dt_ref + w_i * H_i), elementwise,
    one row per client passed in: how far a client's state moves per unit of
    flow, smaller for more data (w_i) or sharper curvature (H_i).  g is about
    dt_ref where 1/dt_ref dominates (the window response when dt_ref is the
    window) and 1/(w_i H_i) where it does not (the equilibrium response).
    A round passes its active clients, with H_i at the state they downloaded."""
    if dt_ref <= 0:
        raise ValueError("dt_ref must be > 0")
    weights = np.asarray(weights, dtype=np.float64)
    hessians = np.asarray(hessian_diags, dtype=np.float64)
    if (hessians < 0).any():
        raise ValueError("curvature estimates must be >= 0")
    return 1.0 / (1.0 / dt_ref + weights[:, None] * hessians)


# the step policy's fixed constants, read at call time
SAFETY = 0.9              # a trial over the tolerance retries at SAFETY * delta / error of its dt
GROWTH = 2.0              # a step's first trial grows the last accepted dt by at most this
MAX_BACKTRACKS = 40       # trials per accepted step
MAX_SUBSTEPS = 100_000    # accepted steps per round


@dataclass(frozen=True)
class StepController:
    """Adaptive step-size policy: accept a step when the worst
    truncation-error estimate is within delta, otherwise shrink by
    SAFETY * delta / error and retry; L is the flow coupling constant."""

    delta: float = 1e-3
    L: float = 1.0

    def __post_init__(self):
        if min(self.delta, self.L) <= 0:
            raise ValueError("delta and L must be > 0")


def interp_state(update, tau):
    """Piecewise-linear resampling of a checkpoint trajectory at time tau.

    Inside the recorded span this interpolates the bracketing pair; outside
    it extrapolates with the first or last segment's slope.  Exact for
    constant trajectories and linear in the checkpoint values.
    """
    times, states = update.times, update.states
    if len(times) < 2:
        raise ValueError("need at least 2 checkpoints")
    j = int(np.searchsorted(times, tau, side="right")) - 1
    j = min(max(j, 0), len(times) - 2)
    t1, t2 = times[j], times[j + 1]
    slope = (states[j + 1] - states[j]) / (t2 - t1)
    return states[j] + slope * (tau - t1)


def resample(updates, tau, sync):
    """The active clients' states at time tau as an (n_active, d) array in
    sorted client order: each window resampled at tau when sync is set,
    otherwise each window's final state, states[-1]."""
    if sync:
        return np.array([interp_state(updates[i], tau) for i in sorted(updates)])
    return np.array([updates[i].states[-1] for i in sorted(updates)])


def be_step(state, active, gam, g, ctrl, dt, prev_flows):
    """One implicit step of the coupled central system from state.t_now to
    state.t_now + dt.

    The active clients (sorted ids `active`, responses `g`) get their flow
    equations solved against `gam`, their states resampled at state.t_now +
    dt; inactive clients hold their last flows, which still enter the
    consensus row as constants.  The arrow system is solved exactly per coordinate by
    eliminating the diagonal flow rows (Schur complement), O(n_active * d).
    """
    if dt <= 0:
        raise ValueError("dt must be > 0")
    if not active:
        raise ValueError("need at least one active client")
    n, d = state.flows.shape

    L = ctrl.L
    flows_a = state.flows[active]

    inv_a = 1.0 / (1.0 + (dt / L) * g)              # 1 / a_i, the flow rows' diagonal
    denom = 1.0 + (dt * dt / L) * inv_a.sum(axis=0)
    # flow rows:  a_i * flow_i' - (dt/L) x_c' = flow_i + (dt/L)(-gam_i + g_i prev_i)
    r = flows_a + (dt / L) * (-gam + g * prev_flows[active])
    inactive_mask = np.ones(n, dtype=bool)
    inactive_mask[active] = False
    hold = state.flows[inactive_mask].sum(axis=0) if inactive_mask.any() else 0.0
    # consensus row:  x_c' + dt * sum_i flow_i' = x_c
    x_c_new = (state.x_c - dt * (r * inv_a).sum(axis=0) - dt * hold) / denom
    flows_new = state.flows.copy()
    flows_new[active] = (r + (dt / L) * x_c_new) * inv_a

    if not (np.isfinite(x_c_new).all() and np.isfinite(flows_new).all()):
        raise FloatingPointError("central solve produced non-finite values")
    return FlowState(x_c_new, flows_new, state.t_now + dt, state.gs_iter)


def lte(state_before, state_after, active, gam_before, gam_after, g, ctrl, prev_flows):
    """Truncation-error estimates of the implicit step between two
    consecutive states, given the active clients' resampled states at both
    ends and their sensitivity responses g.

    Returns (eps_c, eps_l): eps_c bounds the consensus-row error as
    dt/2 * |change in the summed flows| (max over coordinates); eps_l bounds
    the flow-row error as dt/(2L) * |change in each flow equation's
    right-hand side| (max over active clients and coordinates).
    """
    dt = state_after.t_now - state_before.t_now
    if dt <= 0:
        raise ValueError("states must be consecutive (dt > 0)")
    eps_c = 0.5 * dt * np.abs(
        state_after.flows[active].sum(axis=0)
        - state_before.flows[active].sum(axis=0)).max()

    rhs_before = (state_before.x_c - state_before.flows[active] * g
                  - gam_before + prev_flows[active] * g)
    rhs_after = (state_after.x_c - state_after.flows[active] * g
                 - gam_after + prev_flows[active] * g)
    eps_l = (dt / (2.0 * ctrl.L)) * np.abs(rhs_after - rhs_before).max()
    return float(eps_c), float(eps_l)


def adaptive_step(state, updates, gam, g, ctrl, dt, prev_flows, sync=True):
    """Take one accepted implicit step from state, shrinking the trial step
    dt until both truncation-error estimates fall within ctrl.delta.

    gam is the resample at state.t_now; each trial resamples at its end.
    Returns (new_state, new_gam, dt_used, backtracks, eps_c, eps_l), new_gam
    being the resample at new_state.t_now.  Raises StepControlError when
    MAX_BACKTRACKS trials all exceed the tolerance.
    """
    active = sorted(updates)
    eps_c = eps_l = float("inf")
    for backtracks in range(MAX_BACKTRACKS):
        gam_trial = resample(updates, state.t_now + dt, sync)
        trial = be_step(state, active, gam_trial, g, ctrl, dt, prev_flows)
        eps_c, eps_l = lte(state, trial, active, gam, gam_trial, g, ctrl, prev_flows)
        worst = max(eps_c, eps_l)
        if worst <= ctrl.delta:
            return trial, gam_trial, dt, backtracks, eps_c, eps_l
        dt = SAFETY * (ctrl.delta / worst) * dt
    raise StepControlError(
        f"no step within tolerance after {MAX_BACKTRACKS} backtracks "
        f"(last dt={dt:.3e}, eps=({eps_c:.3e}, {eps_l:.3e}))", dt, eps_c, eps_l)


# one row per accepted step, 64 bytes each; rows read like records (`r.tau`)
STEP_DTYPE = np.dtype([("round_index", np.int64), ("tau", np.float64), ("dt", np.float64),
                       ("eps_c", np.float64), ("eps_l", np.float64),
                       ("backtracks", np.int64), ("norm_xc_change", np.float64),
                       ("global_loss", np.float64)])


def consensus_round(state, updates, g, ctrl, dt_seed=None, sync=True,
                    loss_fn=None, state_sink=None):
    """Advance the central state across one communication round's window,
    [t_now, latest checkpoint time] over the active clients' windows, by
    repeated adaptive implicit steps.

    g is `build_sensitivity` over the active clients, in sorted id order.
    A step's first trial is the previous step (dt_seed for the first step)
    grown by GROWTH, capped by the rest of the window; with no previous step
    it is the whole window.
    The flow values clients saw this round (state.flows at entry) stay frozen
    as the previous-iterate term of every flow row.  Returns (final_state,
    records, last_dt), records holding one STEP_DTYPE row per accepted step.
    When state_sink is a list, the entry state and every accepted sub-step
    state are appended to it as (time, concat(flows.ravel(), x_c)) pairs.
    Raises StepControlError when the round takes more than MAX_SUBSTEPS
    steps.
    """
    if not updates:
        raise ValueError("need at least one client update")
    t_end = float(max(u.times[-1] for u in updates.values()))
    span = t_end - state.t_now
    prev_flows = state.flows.copy()
    rows = []
    dt_last = dt_seed
    gam = resample(updates, state.t_now, sync)
    if state_sink is not None:
        state_sink.append((state.t_now, np.concatenate([state.flows.ravel(), state.x_c])))
    while t_end - state.t_now > 1e-12 * max(1.0, abs(t_end)):
        rest = t_end - state.t_now
        dt = rest if dt_last is None else min(dt_last * GROWTH, rest)
        new_state, gam, dt_last, backtracks, eps_c, eps_l = adaptive_step(
            state, updates, gam, g, ctrl, dt, prev_flows, sync)
        rows.append((state.gs_iter, new_state.t_now, dt_last, eps_c, eps_l, backtracks,
                     float(np.linalg.norm(new_state.x_c - state.x_c)),
                     float(loss_fn(new_state.x_c)) if loss_fn is not None else float("nan")))
        state = new_state
        if state_sink is not None:
            state_sink.append((state.t_now, np.concatenate([state.flows.ravel(), state.x_c])))
        if len(rows) > MAX_SUBSTEPS:
            raise StepControlError(
                f"round exceeded {MAX_SUBSTEPS} substeps over a window of {span:g}; "
                "the trajectory is likely diverging", dt_last, eps_c, eps_l)
    state = replace(state, t_now=t_end, gs_iter=state.gs_iter + 1)
    return state, np.array(rows, dtype=STEP_DTYPE).view(np.recarray), dt_last


def steady_state_reached(state, prev_state, tol):
    """True when neither the consensus iterate nor any flow variable moved
    more than tol (Euclidean norm) since the previous round."""
    if tol <= 0:
        raise ValueError("tol must be > 0")
    if np.linalg.norm(state.x_c - prev_state.x_c) > tol:
        return False
    gaps = np.linalg.norm(state.flows - prev_state.flows, axis=1)
    return bool(gaps.max(initial=0.0) <= tol)
