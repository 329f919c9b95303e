"""Central agent: couples client trajectories through per-client flow
variables and advances (x_c, flows) with an implicit Backward-Euler solve on
a shared timescale, one linear "arrow" system per step.

Sign convention (frozen after the stability check in fedecado.oracles):
each flow variable integrates the center-to-client gap,

    L * dflow_i/dt = x_c - x_i_hat,      dx_c/dt = - sum_i flow_i,

while a client integrates  dx_i/dt = -w_i grad f_i(x_i) + flow_i,  i.e. the
drift handed to `simulate_local` is the *negative* of the stored flow.  The
reverse pairing of central signs is an unstable saddle.

x_i_hat is the trajectory value resampled at the synchronization time plus a
first-order correction through the client's aggregate sensitivity for the
flow change the client has not seen yet.
"""

from dataclasses import dataclass, fields, replace
from operator import attrgetter

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

    @property
    def n_clients(self):
        return self.flows.shape[0]

    def to_json(self):
        import json
        return json.dumps({
            "x_c": self.x_c.tolist(),
            "flows": self.flows.tolist(),
            "t_now": self.t_now,
            "gs_iter": self.gs_iter,
        })

    @classmethod
    def from_json(cls, text):
        import json
        obj = json.loads(text)
        return cls(np.asarray(obj["x_c"]), np.asarray(obj["flows"]),
                   obj["t_now"], obj["gs_iter"])


@dataclass(frozen=True)
class SensitivityModel:
    """Per-client diagonal response gain: 1/dt_ref + weight * curvature.
    A larger local dataset (larger weight) means a larger gain and a
    correspondingly stronger pull on the consensus state."""

    gain: np.ndarray          # (n_clients, d), entries >= 1/dt_ref > 0
    refresh_period: int = 0   # rounds between curvature refreshes; 0 = never

    def __post_init__(self):
        object.__setattr__(self, "gain", np.asarray(self.gain, dtype=np.float64))
        if (self.gain <= 0).any():
            raise ValueError("sensitivity gains must be positive")

    @property
    def inverse(self):
        return 1.0 / self.gain


def build_sensitivity(weights, hessian_diags, dt_ref, refresh_period=0):
    """Constant aggregate sensitivity per client: 1/dt_ref + w_i * H_i
    elementwise, from precomputed diagonal curvature estimates."""
    if dt_ref <= 0:
        raise ValueError("dt_ref must be > 0")
    weights = np.asarray(weights, dtype=np.float64)
    hessians = np.asarray(hessian_diags, dtype=np.float64)
    if (hessians < 0).any():
        raise ValueError("curvature estimates must be >= 0")
    return SensitivityModel(1.0 / dt_ref + weights[:, None] * hessians, refresh_period)


@dataclass(frozen=True)
class StepController:
    """Adaptive step-size policy: start from dt0, accept a step when the
    worst truncation-error estimate is within delta, otherwise shrink by
    safety * delta / error and retry."""

    dt0: float = 1e-2
    delta: float = 1e-3
    L: float = 1.0
    safety: float = 0.9
    max_backtracks: int = 40
    growth: float = 2.0   # per-step regrowth cap toward dt0

    def __post_init__(self):
        if min(self.dt0, self.delta, self.L, self.safety) <= 0 or self.safety > 1:
            raise ValueError("dt0, delta, L must be > 0 and safety in (0, 1]")
        if self.max_backtracks < 1:
            raise ValueError("max_backtracks must be >= 1")
        if self.growth < 1:
            raise ValueError("growth must be >= 1")


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


def _resample(updates, active_ids, tau, sync):
    if sync:
        return np.array([interp_state(updates[i], tau) for i in active_ids])
    return np.array([updates[i].final_state for i in active_ids])


def be_step(state, updates, sens, ctrl, dt, prev_flows=None, sync=True):
    """One implicit step of the coupled central system from state.t_now to
    state.t_now + dt.

    Active clients (the keys of `updates`) get their flow equations solved
    against their resampled trajectories; inactive clients hold their last
    flows, which still enter the consensus row as constants.  The arrow
    system is solved exactly per coordinate by eliminating the diagonal flow
    rows (Schur complement), O(n_active * d).
    """
    if dt <= 0:
        raise ValueError("dt must be > 0")
    active_ids = sorted(updates)
    if not active_ids:
        raise ValueError("need at least one active client")
    n, d = state.flows.shape
    if prev_flows is None:
        prev_flows = state.flows
    prev_flows = np.asarray(prev_flows, dtype=np.float64)

    L = ctrl.L
    g = sens.inverse[active_ids]                    # (n_a, d)
    flows_a = state.flows[active_ids]
    gam = _resample(updates, active_ids, state.t_now + dt, sync)

    inv_a = 1.0 / (1.0 + (dt / L) * g)              # 1 / a_i, the flow rows' diagonal
    denom = 1.0 + (dt * dt / L) * inv_a.sum(axis=0)
    # flow rows:  a_i * flow_i' - (dt/L) x_c' = flow_i + (dt/L)(-gam_i + g_i prev_i)
    r = flows_a + (dt / L) * (-gam + g * prev_flows[active_ids])
    inactive_mask = np.ones(n, dtype=bool)
    inactive_mask[active_ids] = False
    hold = state.flows[inactive_mask].sum(axis=0) if inactive_mask.any() else 0.0
    # consensus row:  x_c' + dt * sum_i flow_i' = x_c
    x_c_new = (state.x_c - dt * (r * inv_a).sum(axis=0) - dt * hold) / denom
    flows_new = state.flows.copy()
    flows_new[active_ids] = (r + (dt / L) * x_c_new) * inv_a

    if not (np.isfinite(x_c_new).all() and np.isfinite(flows_new).all()):
        raise FloatingPointError("central solve produced non-finite values")
    return FlowState(x_c_new, flows_new, state.t_now + dt, state.gs_iter)


def lte(state_before, state_after, updates, sens, ctrl, prev_flows=None, sync=True):
    """Truncation-error estimates of the implicit step between two
    consecutive states.

    Returns (eps_c, eps_l): eps_c bounds the consensus-row error as
    dt/2 * |change in the summed flows| (max over coordinates); eps_l bounds
    the flow-row error as dt/(2L) * |change in each flow equation's
    right-hand side| (max over active clients and coordinates).
    """
    dt = state_after.t_now - state_before.t_now
    if dt <= 0:
        raise ValueError("states must be consecutive (dt > 0)")
    active_ids = sorted(updates)
    if prev_flows is None:
        prev_flows = state_before.flows
    g = sens.inverse[active_ids]
    eps_c = 0.5 * dt * np.abs(
        state_after.flows[active_ids].sum(axis=0)
        - state_before.flows[active_ids].sum(axis=0)).max()

    gam_before = _resample(updates, active_ids, state_before.t_now, sync)
    gam_after = _resample(updates, active_ids, state_after.t_now, sync)
    rhs_before = (state_before.x_c - state_before.flows[active_ids] * g
                  - gam_before + prev_flows[active_ids] * g)
    rhs_after = (state_after.x_c - state_after.flows[active_ids] * g
                 - gam_after + prev_flows[active_ids] * g)
    eps_l = (dt / (2.0 * ctrl.L)) * np.abs(rhs_after - rhs_before).max()
    return float(eps_c), float(eps_l)


def adaptive_step(state, updates, sens, ctrl, dt_seed=None, dt_cap=None,
                  prev_flows=None, sync=True):
    """Take one accepted implicit step, shrinking the trial step until both
    truncation-error estimates fall within ctrl.delta.

    The trial starts from dt_seed (or ctrl.dt0), grown by ctrl.growth but
    never above ctrl.dt0 or dt_cap.  Returns (new_state, dt_used, backtracks,
    eps_c, eps_l).  Raises StepControlError when max_backtracks trials all
    exceed the tolerance.
    """
    dt = ctrl.dt0 if dt_seed is None else min(ctrl.dt0, dt_seed * ctrl.growth)
    if dt_cap is not None:
        dt = min(dt, dt_cap)
    eps_c = eps_l = float("inf")
    for backtracks in range(ctrl.max_backtracks):
        trial = be_step(state, updates, sens, ctrl, dt, prev_flows, sync)
        eps_c, eps_l = lte(state, trial, updates, sens, ctrl, prev_flows, sync)
        worst = max(eps_c, eps_l)
        if worst <= ctrl.delta:
            return trial, dt, backtracks, eps_c, eps_l
        dt = ctrl.safety * (ctrl.delta / worst) * dt
    raise StepControlError(
        f"no step within tolerance after {ctrl.max_backtracks} backtracks "
        f"(last dt={dt:.3e}, eps=({eps_c:.3e}, {eps_l:.3e}))", dt, eps_c, eps_l)


@dataclass(frozen=True)
class StepRecord:
    """Per-accepted-step trace row."""

    round_index: int
    tau: float
    dt: float
    eps_c: float
    eps_l: float
    backtracks: int
    norm_xc_change: float
    global_loss: float


_STEP_FIELDS = tuple(f.name for f in fields(StepRecord))
_STEP_DTYPE = np.dtype([(f.name, np.int64 if f.type is int else np.float64)
                        for f in fields(StepRecord)])


def step_table(records):
    """StepRecords as one record array, 64 bytes a step: its rows read like
    StepRecord (`r.tau`, `r.eps_c`), and a run of thousands of steps keeps
    no Python object per field."""
    row = attrgetter(*_STEP_FIELDS)
    return np.array([row(r) for r in records], dtype=_STEP_DTYPE).view(np.recarray)


def consensus_round(state, updates, sens, ctrl, dt_seed=None, sync=True,
                    loss_fn=None, max_substeps=100000, state_sink=None):
    """Advance the central state across one communication round's window,
    [t_now, t_now + max(T_i)] over the active clients, by repeated adaptive
    implicit steps.

    The flow values clients saw this round (state.flows at entry) stay
    frozen as the previous-iterate term of every flow row.  Returns
    (final_state, step_records, last_dt).  When state_sink is a list, the
    entry state and every accepted sub-step state are appended to it as
    (time, (flows, x_c)) pairs.  Raises StepControlError when the round takes
    more than max_substeps steps, and up front when the window is too long for
    that many steps of at most ctrl.dt0.
    """
    if not updates:
        raise ValueError("need at least one client update")
    t_end = state.t_now + max(u.window for u in updates.values())
    span = t_end - state.t_now
    # every accepted step has dt <= dt0, so a longer window cannot finish
    if span - 1e-12 * max(1.0, abs(t_end)) > (max_substeps + 1) * ctrl.dt0:
        raise StepControlError(
            f"round window {span:g} needs more than {max_substeps} substeps "
            f"of at most dt0={ctrl.dt0:g}; the trajectory is likely diverging",
            ctrl.dt0, float("nan"), float("nan"))
    prev_flows = state.flows.copy()
    records = []
    dt_last = dt_seed
    if state_sink is not None:
        state_sink.append((state.t_now, (state.flows.copy(), state.x_c.copy())))
    while t_end - state.t_now > 1e-12 * max(1.0, abs(t_end)):
        cap = t_end - state.t_now
        new_state, dt_used, backtracks, eps_c, eps_l = adaptive_step(
            state, updates, sens, ctrl, dt_last, cap, prev_flows, sync)
        records.append(StepRecord(
            round_index=state.gs_iter,
            tau=new_state.t_now,
            dt=dt_used,
            eps_c=eps_c,
            eps_l=eps_l,
            backtracks=backtracks,
            norm_xc_change=float(np.linalg.norm(new_state.x_c - state.x_c)),
            global_loss=float(loss_fn(new_state.x_c)) if loss_fn is not None else float("nan"),
        ))
        state = new_state
        dt_last = dt_used
        if state_sink is not None:
            state_sink.append((state.t_now, (state.flows.copy(), state.x_c.copy())))
        if len(records) > max_substeps:
            raise StepControlError(
                f"round exceeded {max_substeps} substeps over a window of {span:g}; "
                "the trajectory is likely diverging", dt_used, eps_c, eps_l)
    state = replace(state, t_now=t_end, gs_iter=state.gs_iter + 1)
    return state, records, dt_last


def steady_state_reached(state, prev_state, tol):
    """True when neither the consensus iterate nor any flow variable moved
    more than tol (Euclidean norm) since the previous round."""
    if tol <= 0:
        raise ValueError("tol must be > 0")
    if np.linalg.norm(state.x_c - prev_state.x_c) > tol:
        return False
    gaps = np.linalg.norm(state.flows - prev_state.flows, axis=1)
    return bool(gaps.max(initial=0.0) <= tol)
