"""Experiment orchestration: config parsing, seeded instance construction,
the round loop for every algorithm, and deterministic metrics output.

A run is a pure function of its config (seed included): instance data,
client sampling, heterogeneity draws and minibatch draws all derive from the
config seed through fixed stream tags.

The reported `global_loss` is F(x) = sum_i w_i f_i(x) with w_i = |D_i| / |D|.
Client losses are sums over their samples, so each sample counts with its
client's weight.  The metrics row (loss, gradient norm, accuracy) and the
per-substep trace loss evaluate F through one batched object from
`objectives.weighted_sum`; accuracy is unweighted over the pooled shards.
"""

import csv
import io
import json
import time
from dataclasses import dataclass, field, asdict

import numpy as np

from fedecado.baselines import fedavg_round, fednova_round, fedprox_round
from fedecado.clients import (
    ClientConfig,
    DivergenceError,
    sample_heterogeneity,
    simulate_local,
)
from fedecado.consensus import (
    STEP_DTYPE,
    FlowState,
    StepController,
    StepControlError,
    Trajectory,
    build_sensitivity,
    consensus_round,
    steady_state_reached,
)
from fedecado.objectives import (
    LogisticObjective,
    MlpObjective,
    accuracy,
    load_csv_dataset,
    make_blobs,
    random_quadratic,
    weighted_sum,
)
from fedecado.partition import dirichlet_partition, dirichlet_weights, iid_partition


class ConfigError(ValueError):
    """Invalid experiment configuration."""


ALGOS = ("fedecado", "fedavg", "fedprox", "fednova")

DEFAULT_ALGO_PARAMS = {
    "L": 1.0,
    "delta": 1e-3,
    "dt0": 1e-2,
    "safety": 0.9,
    "max_backtracks": 40,
    "growth": 2.0,
    "sensitivity_dt_ref": None,   # defaults to dt0
    "sensitivity_refresh": 0,
    "hessian_samples": 64,
    "sync": True,                 # False replays raw final states (no resampling)
    "mu": 0.01,
    "server_lr": 1.0,
}

METRICS_COLUMNS = ("round", "wall_ms", "global_loss", "grad_norm", "consensus_gap",
                   "accuracy", "dt_min", "dt_mean", "dt_max", "backtracks")
TRACE_COLUMNS = ("round", "tau", "dt", "eps_c", "eps_l", "backtracks",
                 "norm_xc_change", "global_loss")


@dataclass
class ExperimentConfig:
    objective: dict
    n_clients: int
    algo: str = "fedecado"
    name: str = "run"
    seed: int = 0
    participation_ratio: float = 1.0
    partition: dict = field(default_factory=lambda: {"scheme": "iid"})
    heterogeneity: dict = field(default_factory=lambda: {"mode": "fixed", "lr": 1e-3, "epochs": 5})
    algo_params: dict = field(default_factory=dict)
    rounds_max: int = 100
    tol: float = 1e-6
    minibatch: int = None
    record: str = "steps"
    wall_clock: bool = False
    record_flow_trace: bool = False
    out_dir: str = None

    def __post_init__(self):
        self.validate()

    def validate(self):
        if self.algo not in ALGOS:
            raise ConfigError(f"algo must be one of {ALGOS}, got {self.algo!r}")
        if self.n_clients < 1:
            raise ConfigError("n_clients must be >= 1")
        if not (0.0 < self.participation_ratio <= 1.0):
            raise ConfigError("participation_ratio must be in (0, 1]")
        if round(self.participation_ratio * self.n_clients) < 1:
            raise ConfigError("participation_ratio * n_clients rounds to zero clients")
        if self.rounds_max < 1:
            raise ConfigError("rounds_max must be >= 1")
        if self.tol <= 0:
            raise ConfigError("tol must be > 0")
        if self.objective.get("kind") not in ("quadratic", "logistic", "mlp"):
            raise ConfigError("objective.kind must be quadratic | logistic | mlp")
        if self.minibatch is not None:
            if self.objective["kind"] == "quadratic":
                raise ConfigError("minibatch needs a dataset objective (logistic | mlp)")
            if self.minibatch < 1:
                raise ConfigError("minibatch must be >= 1")
        if self.partition.get("scheme", "iid") not in ("iid", "dirichlet"):
            raise ConfigError("partition.scheme must be iid | dirichlet")
        if self.heterogeneity.get("mode", "fixed") not in ("fixed", "random"):
            raise ConfigError("heterogeneity.mode must be fixed | random")
        if self.record not in ("steps", "endpoints"):
            raise ConfigError("record must be steps | endpoints")
        unknown = set(self.algo_params) - set(DEFAULT_ALGO_PARAMS)
        if unknown:
            raise ConfigError(f"unknown algo_params: {sorted(unknown)}")
        if (self.partition.get("scheme", "iid") == "dirichlet"
                and float(self.partition.get("alpha", 0.5)) <= 0):
            raise ConfigError("partition.alpha must be > 0")
        try:
            _client_configs(self, np.ones(self.n_clients))
        except ValueError as exc:
            raise ConfigError(f"heterogeneity: {exc}") from exc
        try:
            self.controller()
        except ValueError as exc:
            raise ConfigError(f"algo_params: {exc}") from exc
        params = self.params()
        if params["mu"] < 0:
            raise ConfigError("algo_params.mu must be >= 0")
        if params["server_lr"] <= 0:
            raise ConfigError("algo_params.server_lr must be > 0")
        if params["sensitivity_dt_ref"] <= 0:
            raise ConfigError("algo_params.sensitivity_dt_ref must be > 0")
        if params["sensitivity_refresh"] < 0:
            raise ConfigError("algo_params.sensitivity_refresh must be >= 0")
        if params["hessian_samples"] is not None and params["hessian_samples"] < 1:
            raise ConfigError("algo_params.hessian_samples must be >= 1 or null")

    def params(self):
        merged = dict(DEFAULT_ALGO_PARAMS)
        merged.update(self.algo_params)
        if merged["sensitivity_dt_ref"] is None:
            merged["sensitivity_dt_ref"] = merged["dt0"]
        return merged

    def controller(self):
        """The central step controller these algo_params describe."""
        params = self.params()
        return StepController(**{k: params[k] for k in (
            "dt0", "delta", "L", "safety", "max_backtracks", "growth")})

    def to_json(self):
        return json.dumps(asdict(self), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text):
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
        if not isinstance(obj, dict):
            raise ConfigError("config must be a JSON object")
        known = set(cls.__dataclass_fields__)
        unknown = set(obj) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        try:
            return cls(**obj)
        except TypeError as exc:
            raise ConfigError(str(exc)) from exc

    @classmethod
    def from_file(cls, path):
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_json(fh.read())


@dataclass
class ExperimentResult:
    config: ExperimentConfig
    status: str                 # converged | rounds_exhausted | diverged
    rounds_run: int
    final_x: np.ndarray
    metrics_rows: list
    step_records: np.recarray  # consensus.STEP_DTYPE, one row per accepted step
    flow_trace: list            # one consensus.Trajectory per round when recorded
    objectives: list
    weights: np.ndarray
    client_configs: list
    x_init: np.ndarray
    reason: str = ""            # why a diverged run stopped

    @property
    def exit_code(self):
        return {"converged": 0, "rounds_exhausted": 2, "diverged": 1}[self.status]


def sample_active_set(n_clients, ratio, round_index, seed):
    """Uniform sample without replacement of round(ratio * n) client ids;
    deterministic in (seed, round_index)."""
    size = max(1, round(ratio * n_clients))
    rng = np.random.default_rng([int(seed), 3301, int(round_index)])
    return np.sort(rng.choice(n_clients, size=size, replace=False))


def partitioned_dataset(cfg):
    """The global dataset of a logistic or MLP config and its client
    partition."""
    spec = cfg.objective
    if spec.get("csv"):
        dataset = load_csv_dataset(spec["csv"])
    else:
        dataset = make_blobs(int(spec.get("n_samples", 2000)),
                             int(spec.get("n_features", 5)),
                             int(spec.get("n_classes", 10)),
                             seed=cfg.seed,
                             center_scale=float(spec.get("center_scale", 2.0)))
    if cfg.partition.get("scheme", "iid") == "dirichlet":
        part = dirichlet_partition(dataset.labels, cfg.n_clients,
                                   float(cfg.partition.get("alpha", 0.5)), cfg.seed)
    else:
        part = iid_partition(len(dataset), cfg.n_clients, cfg.seed)
    return dataset, part


def _build_instance(cfg):
    """Construct the client objectives, their weights and the weighted
    global objective."""
    spec = cfg.objective
    kind = spec["kind"]
    scheme = cfg.partition.get("scheme", "iid")
    if kind == "quadratic":
        rng = np.random.default_rng([int(cfg.seed), 1101])
        dim = int(spec.get("dim", 20))
        eig_min = float(spec.get("eig_min", 1.0))
        eig_max = float(spec.get("eig_max", 10.0))
        center_scale = float(spec.get("center_scale", 1.0))
        objectives = [random_quadratic(dim, rng, eig_min, eig_max, center_scale)
                      for _ in range(cfg.n_clients)]
        if scheme == "dirichlet":
            weights = dirichlet_weights(cfg.n_clients, float(cfg.partition.get("alpha", 0.5)),
                                        cfg.seed)
        else:
            weights = np.full(cfg.n_clients, 1.0 / cfg.n_clients)
        return objectives, weights, weighted_sum(objectives, weights)

    dataset, part = partitioned_dataset(cfg)
    shards = [dataset.subset(idx) for idx in part.client_indices]
    if kind == "logistic":
        objectives = [LogisticObjective(s) for s in shards]
    else:
        objectives = [MlpObjective(s, hidden=int(spec.get("hidden", 8))) for s in shards]
    return objectives, part.weights, weighted_sum(objectives, part.weights)


def _client_configs(cfg, weights):
    het = cfg.heterogeneity
    if het.get("mode", "fixed") == "fixed":
        return [ClientConfig(i, float(het.get("lr", 1e-3)), int(het.get("epochs", 5)),
                             float(weights[i]))
                for i in range(cfg.n_clients)]
    return sample_heterogeneity(
        cfg.n_clients, cfg.seed,
        lr_range=(float(het.get("lr_min", 1e-4)), float(het.get("lr_max", 1e-3))),
        epoch_range=(int(het.get("epochs_min", 1)), int(het.get("epochs_max", 10))),
        weights=weights)


def _initial_point(cfg, objectives):
    obj = objectives[0]
    if cfg.objective["kind"] != "mlp":
        return np.zeros(obj.dim)
    # scaled random init: tanh layers start in their active range
    rng = np.random.default_rng([int(cfg.seed), 1301])
    m, h, k = obj.n_features, obj.hidden, obj.n_classes
    w1 = rng.normal(size=(m, h)) * np.sqrt(2.0 / m)
    w2 = rng.normal(size=(h, k)) * np.sqrt(2.0 / h)
    return np.concatenate([w1.ravel(), np.zeros(h), w2.ravel(), np.zeros(k)])


def _fmt(value):
    if value is None:
        return ""
    if isinstance(value, float):
        if np.isnan(value):
            return "nan"
        return format(value, ".12g")
    return str(value)


def metrics_to_csv(rows):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(METRICS_COLUMNS)
    for row in rows:
        writer.writerow([_fmt(row.get(c)) for c in METRICS_COLUMNS])
    return buf.getvalue()


def trace_to_csv(records):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(TRACE_COLUMNS)
    for r in records:
        writer.writerow([
            r.round_index, _fmt(r.tau), _fmt(r.dt), _fmt(r.eps_c), _fmt(r.eps_l),
            r.backtracks, _fmt(r.norm_xc_change), _fmt(r.global_loss)])
    return buf.getvalue()


def _simulate_active(cfg, objectives, configs, active, state, rng):
    """Run the active clients' local windows in order; each one starts from
    the downloaded consensus state with its stored flow."""
    return {int(i): simulate_local(objectives[i], configs[i], state.x_c, -state.flows[i],
                                   t_start=state.t_now, record=cfg.record,
                                   minibatch=cfg.minibatch, rng=rng)
            for i in active}


def run_experiment(cfg):
    """Execute one experiment to convergence, round budget, or divergence.

    Returns an ExperimentResult; writes metrics.csv, trace.csv and
    final_model.json under cfg.out_dir when set.
    """
    params = cfg.params()
    objectives, weights, global_obj = _build_instance(cfg)
    configs = _client_configs(cfg, weights)
    x_init = _initial_point(cfg, objectives)
    d = objectives[0].dim
    classifies = cfg.objective["kind"] != "quadratic"

    state = FlowState(x_init.copy(), np.zeros((cfg.n_clients, d)), 0.0, 0)
    held = np.tile(x_init, (cfg.n_clients, 1))
    ctrl = cfg.controller()
    hess_rng = np.random.default_rng([int(cfg.seed), 1701])

    def curvatures(at_x):
        return np.array([obj.mean_hessian(at_x, params["hessian_samples"], hess_rng)
                         for obj in objectives])

    # only FedECADO's central solve uses the curvature-based sensitivity model
    sens = (build_sensitivity(weights, curvatures(x_init), params["sensitivity_dt_ref"])
            if cfg.algo == "fedecado" else None)
    refresh = params["sensitivity_refresh"]

    metrics_rows = []
    step_tables = [np.empty(0, STEP_DTYPE)]   # one record array per round, joined at the end
    flow_trace = []
    status = "rounds_exhausted"
    reason = ""
    rounds_run = 0
    dt_seed = None

    for rnd in range(cfg.rounds_max):
        t_start = time.perf_counter()
        active = sample_active_set(cfg.n_clients, cfg.participation_ratio, rnd, cfg.seed)
        round_dts = []
        round_backtracks = 0
        prev_state = state
        # one minibatch stream per round; the active clients draw from it in order
        mb_rng = (np.random.default_rng([int(cfg.seed), 7001, rnd])
                  if cfg.minibatch is not None else None)
        try:
            if cfg.algo == "fedecado":
                if refresh and rnd > 0 and rnd % refresh == 0:
                    sens = build_sensitivity(weights, curvatures(state.x_c),
                                             params["sensitivity_dt_ref"])
                updates = _simulate_active(cfg, objectives, configs, active, state, mb_rng)
                sink = [] if cfg.record_flow_trace else None
                # per-substep loss is only worth computing when a trace is kept
                trace_loss = global_obj.loss if cfg.out_dir else None
                state, records, dt_seed = consensus_round(
                    state, updates, sens, ctrl, dt_seed, sync=params["sync"],
                    loss_fn=trace_loss, state_sink=sink)
                step_tables.append(records)
                round_dts = records.dt.tolist()
                round_backtracks = int(records.backtracks.sum())
                for i, upd in updates.items():
                    held[i] = upd.final_state
                if cfg.record_flow_trace:
                    times, states = zip(*sink)
                    flow_trace.append(Trajectory(np.array(times), np.array(states)))
            else:
                act_objs = [objectives[i] for i in active]
                act_cfgs = [configs[i] for i in active]
                if cfg.algo == "fedavg":
                    agg = fedavg_round(state.x_c, act_objs, act_cfgs, cfg.minibatch, mb_rng)
                elif cfg.algo == "fedprox":
                    agg = fedprox_round(state.x_c, act_objs, act_cfgs, params["mu"],
                                        cfg.minibatch, mb_rng)
                else:
                    agg = fednova_round(state.x_c, act_objs, act_cfgs, cfg.minibatch, mb_rng)
                x_next = state.x_c + params["server_lr"] * (agg - state.x_c)
                for i in active:
                    held[int(i)] = x_next
                state = FlowState(x_next, state.flows, state.t_now, state.gs_iter + 1)
        except (DivergenceError, StepControlError, FloatingPointError) as exc:
            metrics_rows.append({
                "round": rnd, "wall_ms": 0.0, "global_loss": float("nan"),
                "grad_norm": float("nan"), "consensus_gap": float("nan"),
                "accuracy": None, "dt_min": None, "dt_mean": None, "dt_max": None,
                "backtracks": None})
            status = "diverged"
            reason = str(exc)
            rounds_run = rnd + 1
            break

        rounds_run = rnd + 1
        wall_ms = (time.perf_counter() - t_start) * 1e3 if cfg.wall_clock else 0.0
        row = {
            "round": rnd,
            "wall_ms": wall_ms,
            "global_loss": global_obj.loss(state.x_c),
            "grad_norm": float(np.linalg.norm(global_obj.gradient(state.x_c))),
            "consensus_gap": float(np.linalg.norm(state.x_c - held, axis=1).max()),
            "accuracy": accuracy(global_obj, state.x_c) if classifies else None,
            "dt_min": min(round_dts) if round_dts else None,
            "dt_mean": float(np.mean(round_dts)) if round_dts else None,
            "dt_max": max(round_dts) if round_dts else None,
            "backtracks": round_backtracks if cfg.algo == "fedecado" else None,
        }
        metrics_rows.append(row)
        if not np.isfinite(row["global_loss"]):
            status = "diverged"
            reason = f"global loss is not finite after round {rnd}"
            break
        if rnd > 0 and steady_state_reached(state, prev_state, cfg.tol):
            status = "converged"
            break

    result = ExperimentResult(
        config=cfg, status=status, rounds_run=rounds_run, final_x=state.x_c.copy(),
        metrics_rows=metrics_rows, step_records=np.concatenate(step_tables).view(np.recarray),
        flow_trace=flow_trace, objectives=objectives, weights=weights,
        client_configs=configs, x_init=x_init, reason=reason)

    if cfg.out_dir:
        import os
        os.makedirs(cfg.out_dir, exist_ok=True)
        with open(os.path.join(cfg.out_dir, "metrics.csv"), "w", encoding="utf-8") as fh:
            fh.write(metrics_to_csv(metrics_rows))
        with open(os.path.join(cfg.out_dir, "trace.csv"), "w", encoding="utf-8") as fh:
            fh.write(trace_to_csv(result.step_records))
        with open(os.path.join(cfg.out_dir, "final_model.json"), "w", encoding="utf-8") as fh:
            json.dump({"x": result.final_x.tolist(), "status": status, "reason": reason,
                       "rounds": rounds_run}, fh)
    return result
