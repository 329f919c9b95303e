"""Experiment orchestration: config checking, seeded instance construction,
the round loop for every algorithm, and deterministic metrics output.

Building a config checks every field against one schema and replaces each
section dict by its completed copy, so the readers index it directly.

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
from dataclasses import dataclass, field, fields, asdict

import numpy as np

from fedecado.baselines import fedavg_round, fednova_round, fedprox_round
from fedecado.clients import (
    ClientConfig,
    DivergenceError,
    Trajectory,
    sample_heterogeneity,
    simulate_local,
)
from fedecado.consensus import (
    STEP_DTYPE,
    FlowState,
    StepControlError,
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

# The config schema.  A field is (type, default, bound): `T | None` also takes
# null, a float takes an int and stores it as a float, and a bound is a test on
# the value and the section checked so far, with its text.  A tagged section
# is (tag key, default tag, fields per tag).
_GT0, _GE0, _GE1 = ((lambda v, s: v > 0, "> 0"), (lambda v, s: v >= 0, ">= 0"),
                    (lambda v, s: v >= 1, ">= 1"))
_BLOBS = {"n_samples": (int, 2000, _GE1),    # >= n_clients, checked with the dataset
          "n_features": (int, 5, _GE1), "n_classes": (int, 10, (lambda v, s: v >= 2, ">= 2")),
          "center_scale": (float, 2.0, None),
          "csv": (str | None, None, None)}   # a CSV dataset, used in place of the blobs
_SECTIONS = {
    "objective": ("kind", None, {
        "quadratic": {"dim": (int, 20, _GE1), "eig_min": (float, 1.0, _GT0),
                      "eig_max": (float, 10.0, (lambda v, s: v >= s["eig_min"], ">= eig_min")),
                      "center_scale": (float, 1.0, None)},
        "logistic": _BLOBS, "mlp": {**_BLOBS, "hidden": (int, 8, _GE1)}}),
    "partition": ("scheme", "iid", {"iid": {}, "dirichlet": {"alpha": (float, 0.5, _GT0)}}),
    # ClientConfig and sample_heterogeneity check the lr and epochs ranges
    "heterogeneity": ("mode", "fixed", {
        "fixed": {"lr": (float, 1e-3, None), "epochs": (int, 5, None)},
        "random": {"lr_min": (float, 1e-4, None), "lr_max": (float, 1e-3, None),
                   "epochs_min": (int, 1, None), "epochs_max": (int, 10, None)}}),
    # A null sensitivity_dt_ref, the one knob of the sensitivity model (README),
    # is dt0, which has no other role; sync false replays the raw final states
    # (no resampling).
    "algo_params": {
        "L": (float, 1.0, _GT0), "delta": (float, 1e-3, _GT0), "dt0": (float, 1e-2, _GT0),
        "sensitivity_dt_ref": (float | None, None, _GT0),
        "sync": (bool, True, None), "mu": (float, 0.01, _GE0), "server_lr": (float, 1.0, _GT0)},
}
# bounds of the top-level fields, whose types and defaults are ExperimentConfig's
_BOUNDS = {
    "n_clients": _GE1, "seed": _GE0, "rounds_max": _GE1, "tol": _GT0,
    "algo": (lambda v, c: v in ALGOS, "one of " + " | ".join(ALGOS)),
    "participation_ratio": (lambda v, c: 0 < v <= 1 and round(v * c["n_clients"]) >= 1,
                            "in (0, 1] and leave at least one client active"),
    "minibatch": (lambda v, c: v >= 1 and c["objective"]["kind"] != "quadratic",
                  ">= 1, with a dataset objective (logistic | mlp)")}
_TYPE_TEXT = {bool: "true or false", int: "an integer", float: "a finite number", str: "a string"}


def _bad(path, want, value):
    return ConfigError(f"{path} must be {want}, got {json.dumps(value, default=repr)}")


def _value(path, value, kind, bound, section):
    """`value` checked against its field's type and bound."""
    base = getattr(kind, "__args__", (kind,))[0]     # T of `T | None`
    if value is None and base is not kind:
        return None
    if base is float and type(value) is int and abs(value) <= float(np.finfo(float).max):
        value = float(value)
    if (isinstance(value, bool) != (base is bool) or not isinstance(value, base)
            or base is float and not np.isfinite(value)):
        raise _bad(path, _TYPE_TEXT[base] + " or null" * (base is not kind), value)
    if bound and not bound[0](value, section):
        raise _bad(path, bound[1], value)
    return value


def _checked(path, given, schema):
    """The section `given`, checked and completed with its schema's defaults."""
    if not isinstance(given, dict):
        raise _bad(path, "a JSON object", given)
    if isinstance(schema, tuple):
        tag, default_tag, variants = schema
        choice = {tag: default_tag, **given}[tag]
        if choice not in tuple(variants):
            raise _bad(f"{path}.{tag}", "one of " + " | ".join(variants), choice)
        schema = {tag: (str, choice, None), **variants[choice]}
    unknown = sorted(set(given) - set(schema))
    if unknown:
        raise ConfigError(f"unknown key {path}.{unknown[0]}")
    complete = {key: default for key, (_, default, _) in schema.items()} | given
    done = {}
    for key, (kind, _, bound) in schema.items():
        done[key] = _value(f"{path}.{key}", complete[key], kind, bound, done)
    return done


METRICS_COLUMNS = ("round", "wall_ms", "global_loss", "grad_norm", "consensus_gap",
                   "accuracy", "dt_min", "dt_mean", "dt_max", "backtracks")
TRACE_COLUMNS = ("round", "tau", "dt", "eps_c", "eps_l", "backtracks",
                 "norm_xc_change", "global_loss")


@dataclass
class ExperimentConfig:
    """One experiment; building it checks and completes every field."""

    objective: dict
    n_clients: int
    algo: str = "fedecado"
    name: str = "run"
    seed: int = 0
    participation_ratio: float = 1.0
    partition: dict = field(default_factory=dict)
    heterogeneity: dict = field(default_factory=dict)
    algo_params: dict = field(default_factory=dict)
    rounds_max: int = 100
    tol: float = 1e-6
    minibatch: int | None = None
    wall_clock: bool = False
    record_flow_trace: bool = False
    out_dir: str | None = None

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            setattr(self, f.name, _checked(f.name, value, _SECTIONS[f.name])
                    if f.name in _SECTIONS else
                    _value(f.name, value, f.type, _BOUNDS.get(f.name), vars(self)))
        if self.algo_params["sensitivity_dt_ref"] is None:
            self.algo_params["sensitivity_dt_ref"] = self.algo_params["dt0"]
        try:
            _client_configs(self, np.ones(self.n_clients))
        except ValueError as exc:
            raise ConfigError(f"heterogeneity: {exc}") from exc

    def params(self):
        return self.algo_params

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
        try:
            return cls(**obj)
        except TypeError as exc:     # a missing or unknown field
            raise ConfigError(str(exc)) from exc

    @classmethod
    def from_file(cls, path):
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_json(fh.read())


@dataclass
class ExperimentResult:
    config: ExperimentConfig
    status: str                 # converged | rounds_exhausted | diverged
    final_x: np.ndarray
    metrics_rows: list
    step_records: np.recarray  # consensus.STEP_DTYPE, one row per accepted step
    flow_trace: list            # one clients.Trajectory per round when recorded
    objectives: list
    weights: np.ndarray
    client_configs: list
    x_init: np.ndarray
    reason: str = ""            # why a diverged run stopped

    @property
    def rounds_run(self):
        # every exit from the round loop leaves exactly one row per round run
        return len(self.metrics_rows)

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
    if spec["csv"] is None:
        dataset = make_blobs(spec["n_samples"], spec["n_features"], spec["n_classes"],
                             seed=cfg.seed, center_scale=spec["center_scale"])
    else:
        try:
            dataset = load_csv_dataset(spec["csv"])
        except ValueError as exc:
            raise ConfigError(f"objective.csv: {exc}") from exc
    if len(dataset) < cfg.n_clients:
        raise ConfigError(f"objective.{'n_samples' if spec['csv'] is None else 'csv'} gives "
                          f"{len(dataset)} samples, fewer than n_clients ({cfg.n_clients})")
    if cfg.partition["scheme"] == "dirichlet":
        part = dirichlet_partition(dataset.labels, cfg.n_clients, cfg.partition["alpha"], cfg.seed)
    else:
        part = iid_partition(len(dataset), cfg.n_clients, cfg.seed)
    return dataset, part


def _build_instance(cfg):
    """Construct the client objectives, their weights and the weighted
    global objective."""
    spec = cfg.objective
    kind = spec["kind"]
    if kind == "quadratic":
        rng = np.random.default_rng([cfg.seed, 1101])
        objectives = [random_quadratic(spec["dim"], rng, spec["eig_min"], spec["eig_max"],
                                       spec["center_scale"]) for _ in range(cfg.n_clients)]
        if cfg.partition["scheme"] == "dirichlet":
            weights = dirichlet_weights(cfg.n_clients, cfg.partition["alpha"], cfg.seed)
        else:
            weights = np.full(cfg.n_clients, 1.0 / cfg.n_clients)
        return objectives, weights, weighted_sum(objectives, weights)

    dataset, part = partitioned_dataset(cfg)
    shards = [dataset.subset(idx) for idx in part.client_indices]
    if kind == "logistic":
        objectives = [LogisticObjective(s) for s in shards]
    else:
        objectives = [MlpObjective(s, hidden=spec["hidden"]) for s in shards]
    return objectives, part.weights, weighted_sum(objectives, part.weights)


def _client_configs(cfg, weights):
    het = cfg.heterogeneity
    if het["mode"] == "fixed":
        return [ClientConfig(i, het["lr"], het["epochs"], float(weights[i]))
                for i in range(cfg.n_clients)]
    return sample_heterogeneity(cfg.n_clients, cfg.seed, (het["lr_min"], het["lr_max"]),
                                (het["epochs_min"], het["epochs_max"]), weights)


def _initial_point(cfg, objectives):
    obj = objectives[0]
    if cfg.objective["kind"] != "mlp":
        return np.zeros(obj.dim)
    # scaled random init: tanh layers start in their active range
    rng = np.random.default_rng([cfg.seed, 1301])
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
    # FedProx differs from FedAvg only in its clients' proximal pull
    mu = params["mu"] if cfg.algo == "fedprox" else 0.0

    metrics_rows = []
    step_tables = [np.empty(0, STEP_DTYPE)]   # one record array per round, joined at the end
    flow_trace = []
    status = "rounds_exhausted"
    reason = ""
    dt_seed = None

    for rnd in range(cfg.rounds_max):
        t_start = time.perf_counter()
        active = sample_active_set(cfg.n_clients, cfg.participation_ratio, rnd, cfg.seed)
        round_dts = []
        round_backtracks = 0
        prev_state = state
        # one minibatch stream per round; the active clients draw from it in order
        mb_rng = (np.random.default_rng([cfg.seed, 7001, rnd])
                  if cfg.minibatch is not None else None)
        try:
            # every algorithm's active clients start from the downloaded state
            # with their stored flow (zero for the baselines)
            updates = {int(i): simulate_local(objectives[i], configs[i], state.x_c,
                                              -state.flows[i], t_start=state.t_now,
                                              minibatch=cfg.minibatch, rng=mb_rng, mu=mu)
                       for i in active}
            if cfg.algo == "fedecado":
                # the active clients' responses, from curvature where they start
                g = build_sensitivity(weights[active],
                                      [objectives[i].mean_hessian(state.x_c) for i in active],
                                      params["sensitivity_dt_ref"])
                sink = [] if cfg.record_flow_trace else None
                # per-substep loss is only worth computing when a trace is kept
                trace_loss = global_obj.loss if cfg.out_dir else None
                state, records, dt_seed = consensus_round(
                    state, updates, g, params["delta"], params["L"], dt_seed,
                    sync=params["sync"], loss_fn=trace_loss, state_sink=sink)
                step_tables.append(records)
                round_dts = records.dt.tolist()
                round_backtracks = int(records.backtracks.sum())
                for i, upd in updates.items():
                    held[i] = upd.states[-1]
                if cfg.record_flow_trace:
                    times, states = zip(*sink)
                    flow_trace.append(Trajectory(np.array(times), np.array(states)))
            else:
                # looked up by name each round, so a wrapper set on this module is seen
                server_rule = {"fedavg": fedavg_round, "fedprox": fedprox_round,
                               "fednova": fednova_round}[cfg.algo]
                finals = np.array([upd.states[-1] for upd in updates.values()])
                agg = server_rule(state.x_c, finals, [configs[i] for i in active])
                with np.errstate(over="ignore", invalid="ignore"):
                    x_next = state.x_c + params["server_lr"] * (agg - state.x_c)
                if not np.isfinite(x_next).all():
                    raise FloatingPointError(f"{cfg.algo} server step produced non-finite values")
                held[active] = x_next
                state = FlowState(x_next, state.flows, state.t_now, state.gs_iter + 1)
        except (DivergenceError, StepControlError, FloatingPointError) as exc:
            metrics_rows.append({
                "round": rnd, "wall_ms": 0.0, "global_loss": float("nan"),
                "grad_norm": float("nan"), "consensus_gap": float("nan"),
                "accuracy": None, "dt_min": None, "dt_mean": None, "dt_max": None,
                "backtracks": None})
            status = "diverged"
            reason = str(exc)
            break

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
        config=cfg, status=status, final_x=state.x_c.copy(),
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
                       "rounds": result.rounds_run}, fh)
    return result
