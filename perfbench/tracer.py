"""Spans around the program's layer boundaries, installed from outside.

The tracer replaces public functions in `fedecado.harness` and
`fedecado.consensus`, and the `loss`/`gradient`/`mean_hessian` methods of the
objective classes, with wrappers that record one span per call: name, start,
end, parent span and run id.  Spans are kept in flat arrays in memory and
written out once, when the benchmark ends.  Self time is a span's duration
minus the time its child spans cover.

An attach point that a later version of the program no longer has is
reported as missing; every metric that depends on it is then left out rather
than read as 0.
"""

import array
import time

import numpy as np

import fedecado.consensus as consensus
import fedecado.harness as harness
import fedecado.objectives as objectives

ROOT = "harness.run_experiment"

# (module, attribute, span name); the harness entries patch the names the
# harness module imported, which is where its round loop looks them up.
FUNCTION_POINTS = (
    (harness, "_build_instance", "harness.build_instance"),
    (harness, "sample_active_set", "harness.sample_active_set"),
    (harness, "metrics_to_csv", "harness.metrics_to_csv"),
    (harness, "trace_to_csv", "harness.trace_to_csv"),
    (harness, "make_blobs", "objectives.make_blobs"),
    (harness, "random_quadratic", "objectives.random_quadratic"),
    (harness, "accuracy", "objectives.accuracy"),
    (harness, "dirichlet_partition", "partition"),
    (harness, "iid_partition", "partition"),
    (harness, "dirichlet_weights", "partition"),
    (harness, "simulate_local", "clients.simulate_local"),
    (harness, "consensus_round", "consensus.consensus_round"),
    (harness, "build_sensitivity", "consensus.build_sensitivity"),
    (harness, "fedavg_round", "baselines.round"),
    (harness, "fedprox_round", "baselines.round"),
    (harness, "fednova_round", "baselines.round"),
    (consensus, "adaptive_step", "consensus.adaptive_step"),
    (consensus, "be_step", "consensus.be_step"),
    (consensus, "lte", "consensus.lte"),
    (consensus, "interp_state", "consensus.interp_state"),
)
OBJECTIVE_CLASSES = ("QuadraticObjective", "LogisticObjective", "MlpObjective")
METHOD_POINTS = (("loss", "objectives.loss"), ("gradient", "objectives.gradient"),
                 ("mean_hessian", "objectives.mean_hessian"))


class Tracer:
    """In-memory span recorder; `install()` patches the attach points and
    `uninstall()` restores the originals."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.name_id = array.array("l")
        self.parent = array.array("l")
        self.run = array.array("l")
        self.start = array.array("d")
        self.end = array.array("d")
        self.local_steps = {}     # run id -> sum of epochs over simulate_local calls
        self.run_id = 0
        self.missing = set()
        self._stack = []
        self._saved = []

    def _intern(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def span(self, name, fn):
        """Wrap fn so that each call records a span called name."""
        nid = self._intern(name)
        stack, parent, run, start, end, name_ids = (
            self._stack, self.parent, self.run, self.start, self.end, self.name_id)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(start)
            name_ids.append(nid)
            parent.append(stack[-1] if stack else -1)
            run.append(self.run_id)
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                start[idx] = t0
                stack.pop()

        return traced

    def _patch(self, owner, attr, wrapper):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def install(self):
        for module, attr, name in FUNCTION_POINTS:
            if not hasattr(module, attr):
                self.missing.add(name)
                continue
            fn = getattr(module, attr)
            if attr == "simulate_local":
                fn = self._counting_local_steps(fn)
            self._patch(module, attr, self.span(name, fn))
        for cls_name in OBJECTIVE_CLASSES:
            cls = getattr(objectives, cls_name, None)
            for method, name in METHOD_POINTS:
                if cls is None or method not in cls.__dict__:
                    self.missing.add(name)
                    continue
                self._patch(cls, method, self.span(name, cls.__dict__[method]))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _counting_local_steps(self, fn):
        def counted(obj, cfg, *args, **kwargs):
            self.local_steps[self.run_id] = self.local_steps.get(self.run_id, 0) + cfg.epochs
            return fn(obj, cfg, *args, **kwargs)
        return counted

    def run_experiment(self, cfg):
        """Call harness.run_experiment under a root span; returns the result."""
        self.run_id += 1
        return self.span(ROOT, harness.run_experiment)(cfg)

    def arrays(self):
        return {
            "names": np.array(self.names),
            "name_id": np.array(self.name_id, dtype=np.int64),
            "parent": np.array(self.parent, dtype=np.int64),
            "run": np.array(self.run, dtype=np.int64),
            "start": np.array(self.start, dtype=np.float64),
            "end": np.array(self.end, dtype=np.float64),
        }

    def save(self, path):
        np.savez(path, **self.arrays())


def layer_metrics(tracer, run_id):
    """Per-layer metrics of one traced experiment, keyed by metric name.
    Metrics that need a missing attach point are absent."""
    arr = tracer.arrays()
    names = list(arr["names"])
    sel = arr["run"] == run_id
    idx = np.flatnonzero(sel)
    name_id = arr["name_id"][idx]
    dur = arr["end"][idx] - arr["start"][idx]
    start = arr["start"][idx]
    # spans of one run are contiguous, so parents re-index by offset
    offset = idx[0]
    parent = arr["parent"][idx]
    local_parent = np.where(parent >= 0, parent - offset, -1)
    has_parent = local_parent >= 0
    covered = np.bincount(local_parent[has_parent], weights=dur[has_parent], minlength=len(idx))
    self_time = dur - covered
    parent_name = np.full(len(idx), -1)
    parent_name[has_parent] = name_id[local_parent[has_parent]]

    def nid(name):
        return names.index(name) if name in names else -2

    def mask(name):
        return name_id == nid(name)

    def calls(name):
        return int(mask(name).sum())

    def self_s(name):
        return float(self_time[mask(name)].sum())

    def under(name, parent):
        return mask(name) & (parent_name == nid(parent))

    root = np.flatnonzero(mask(ROOT))[0]
    root_end = start[root] + dur[root]
    rounds = start[mask("harness.sample_active_set")]
    loop_start = rounds[0] if len(rounds) else root_end
    csv_starts = start[mask("harness.metrics_to_csv")]
    loop_end = csv_starts[0] if len(csv_starts) else root_end
    top = local_parent == root
    in_loop = top & (start >= loop_start) & (start < loop_end)
    metrics_eval = in_loop & (mask("objectives.loss") | mask("objectives.gradient")
                              | mask("objectives.accuracy"))
    accepted = calls("consensus.adaptive_step")
    trials = calls("consensus.be_step")
    consensus_rounds = calls("consensus.consensus_round")

    out = {
        "objectives.loss.calls": calls("objectives.loss"),
        "objectives.loss.self_s": self_s("objectives.loss"),
        "objectives.gradient.calls": calls("objectives.gradient"),
        "objectives.gradient.self_s": self_s("objectives.gradient"),
        "objectives.mean_hessian.calls": calls("objectives.mean_hessian"),
        "objectives.mean_hessian.self_s": self_s("objectives.mean_hessian"),
        "objectives.accuracy.self_s": self_s("objectives.accuracy"),
        "objectives.build_s": (self_s("harness.build_instance") + self_s("objectives.make_blobs")
                               + self_s("objectives.random_quadratic")),
        "partition.self_s": self_s("partition"),
        "clients.simulate_local.calls": calls("clients.simulate_local"),
        "clients.simulate_local.self_s": self_s("clients.simulate_local"),
        "clients.local_steps": tracer.local_steps.get(run_id, 0),
        "clients.gradient_evals": int(under("objectives.gradient", "clients.simulate_local").sum()),
        "consensus.consensus_round.self_s": self_s("consensus.consensus_round"),
        "consensus.trials": trials,
        "consensus.accepted_steps": accepted,
        "consensus.rejected_trials": trials - accepted,
        "consensus.accept_ratio": accepted / trials if trials else 1.0,
        "consensus.substeps_per_round": accepted / consensus_rounds if consensus_rounds else 0.0,
        "consensus.be_step.self_s": self_s("consensus.be_step"),
        "consensus.lte.self_s": self_s("consensus.lte"),
        "consensus.interp_state.calls": calls("consensus.interp_state"),
        "consensus.interp_state.self_s": self_s("consensus.interp_state"),
        "consensus.trace_loss_s": float(dur[under("objectives.loss", "consensus.consensus_round")].sum()),
        "consensus.build_sensitivity.calls": calls("consensus.build_sensitivity"),
        "consensus.build_sensitivity.self_s": self_s("consensus.build_sensitivity"),
        "baselines.round.calls": calls("baselines.round"),
        "baselines.round.self_s": self_s("baselines.round"),
        "baselines.gradient_evals": int(under("objectives.gradient", "baselines.round").sum()),
        "harness.metrics_eval_s": float(dur[metrics_eval].sum()),
        "harness.metrics_eval_calls": int(metrics_eval.sum()),
        "harness.round_self_s": float((loop_end - loop_start) - dur[in_loop].sum()),
        "harness.output_s": float(root_end - loop_end),
    }
    return {k: v for k, v in out.items() if not (_needs(k) & tracer.missing)}


# Attach points each metric reads; a metric is left out when one is missing.
_NEEDS = {
    "objectives.loss": {"objectives.loss"},
    "objectives.gradient": {"objectives.gradient"},
    "objectives.mean_hessian": {"objectives.mean_hessian"},
    "objectives.accuracy": {"objectives.accuracy"},
    "objectives.build_s": {"harness.build_instance", "objectives.make_blobs",
                           "objectives.random_quadratic", "partition"},
    "partition": {"partition"},
    "clients.simulate_local": {"clients.simulate_local"},
    "clients.local_steps": {"clients.simulate_local"},
    "clients.gradient_evals": {"clients.simulate_local", "objectives.gradient"},
    "consensus.consensus_round": {"consensus.consensus_round", "consensus.adaptive_step",
                                  "objectives.loss"},
    "consensus.trials": {"consensus.be_step"},
    "consensus.accepted_steps": {"consensus.adaptive_step"},
    "consensus.rejected_trials": {"consensus.be_step", "consensus.adaptive_step"},
    "consensus.accept_ratio": {"consensus.be_step", "consensus.adaptive_step"},
    "consensus.substeps_per_round": {"consensus.adaptive_step", "consensus.consensus_round"},
    "consensus.be_step": {"consensus.be_step", "consensus.interp_state"},
    "consensus.lte": {"consensus.lte", "consensus.interp_state"},
    "consensus.interp_state": {"consensus.interp_state"},
    "consensus.trace_loss_s": {"consensus.consensus_round", "objectives.loss"},
    "consensus.build_sensitivity": {"consensus.build_sensitivity"},
    "baselines.round": {"baselines.round", "objectives.gradient"},
    "baselines.gradient_evals": {"baselines.round", "objectives.gradient"},
    "harness.metrics_eval": {"harness.sample_active_set", "objectives.loss",
                             "objectives.gradient", "objectives.accuracy"},
    "harness.round_self_s": {"harness.sample_active_set", "clients.simulate_local",
                             "consensus.consensus_round", "consensus.build_sensitivity",
                             "baselines.round", "objectives.loss", "objectives.gradient",
                             "objectives.accuracy", "objectives.mean_hessian"},
    "harness.output_s": {"harness.metrics_to_csv"},
}


def _needs(metric):
    """Attach points behind a metric, matched on its longest listed prefix."""
    best = ""
    for key in _NEEDS:
        if metric.startswith(key) and len(key) > len(best):
            best = key
    return _NEEDS.get(best, set())
