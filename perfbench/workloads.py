"""The four pinned benchmark workloads.

Each workload is one whole experiment, defined here rather than read from
`configs/` or `tests/`, so that an edit there cannot silently change what the
benchmark measures.  The logistic and quadratic-consensus configs are copies
of `configs/logistic_noniid.json`, `configs/logistic_fednova.json` and
`configs/quadratic_consensus.json`; `hetero` has the parameters of
`hetero_config(7)` in `tests/test_acceptance.py`.

This module imports nothing from numpy or fedecado, so the set-up probe can
load it before it starts its clock.
"""

from dataclasses import dataclass

_LOGISTIC = {
    "objective": {"kind": "logistic", "n_samples": 2000, "n_features": 5, "n_classes": 10},
    "n_clients": 100,
    "participation_ratio": 0.1,
    "partition": {"scheme": "dirichlet", "alpha": 0.1},
    "heterogeneity": {"mode": "random", "lr_min": 0.0001, "lr_max": 0.001,
                      "epochs_min": 1, "epochs_max": 10},
    "rounds_max": 300,
    "tol": 1e-08,
}


@dataclass(frozen=True)
class Workload:
    name: str
    config: dict              # ExperimentConfig fields, seed and out_dir excluded
    default_seed: int
    expected_status: str
    target_gap: float         # relative gap (f_k - f*) / (f_0 - f*) for time/rounds to target
    writes_outputs: bool      # run with out_dir set, as `fedecado run` does
    minimizer_rtol: float = None   # quadratics: allowed relative distance to the minimizer


WORKLOADS = {
    w.name: w for w in (
        Workload(
            # consensus-heavy: 6,492 Backward-Euler trials, 19% rejected, held
            # flows for 90 inactive clients, and no per-substep trace loss
            name="hetero",
            config={
                "name": "hetero",
                "objective": {"kind": "quadratic", "dim": 20, "eig_min": 60.0, "eig_max": 90.0},
                "n_clients": 100,
                "participation_ratio": 0.1,
                "partition": {"scheme": "dirichlet", "alpha": 0.5},
                "heterogeneity": {"mode": "random", "lr_min": 1e-4, "lr_max": 1e-3,
                                  "epochs_min": 1, "epochs_max": 10},
                "algo": "fedecado",
                "algo_params": {"L": 0.001, "delta": 1e-2, "dt0": 0.0105,
                                "sensitivity_dt_ref": 0.01},
                "rounds_max": 3000,
                "tol": 1e-12,
            },
            default_seed=7,
            expected_status="rounds_exhausted",
            target_gap=1e-6,
            writes_outputs=False,
            minimizer_rtol=1e-3,
        ),
        Workload(
            # objective evaluation dominates, including the per-substep trace
            # loss that only runs when out_dir is set
            name="logistic-fedecado",
            config=dict(_LOGISTIC, name="logistic-noniid", algo="fedecado",
                        algo_params={"L": 0.0003, "delta": 0.01, "dt0": 0.0105,
                                     "sensitivity_dt_ref": 10.0}),
            default_seed=0,
            expected_status="rounds_exhausted",
            target_gap=0.7,
            writes_outputs=True,
        ),
        Workload(
            # the same instance through FedNova: baselines replace clients and
            # consensus, so it is the bypass workload for both
            name="logistic-fednova",
            config=dict(_LOGISTIC, name="logistic-fednova", algo="fednova"),
            default_seed=0,
            expected_status="rounds_exhausted",
            target_gap=0.7,
            writes_outputs=True,
        ),
        Workload(
            # client-heavy (20 local epochs, all 10 clients active), cheap
            # per-round metrics, and the only steady-state stop
            name="quad-consensus",
            config={
                "name": "quadratic-consensus",
                "objective": {"kind": "quadratic", "dim": 20, "eig_min": 60.0, "eig_max": 90.0},
                "n_clients": 10,
                "participation_ratio": 1.0,
                "partition": {"scheme": "dirichlet", "alpha": 0.5},
                "heterogeneity": {"mode": "fixed", "lr": 0.0025, "epochs": 20},
                "algo": "fedecado",
                "algo_params": {"L": 0.04, "delta": 0.01, "dt0": 0.0525,
                                "sensitivity_dt_ref": 0.05},
                "rounds_max": 500,
                "tol": 1e-05,
            },
            default_seed=7,
            expected_status="converged",
            target_gap=1e-6,
            writes_outputs=True,
            minimizer_rtol=1e-4,
        ),
    )
}


def experiment_config(workload, seed, out_dir=None):
    """The workload's ExperimentConfig at `seed`, validated by the program's
    own config parser."""
    import json

    from fedecado.harness import ExperimentConfig

    fields = dict(workload.config, seed=int(seed), out_dir=out_dir)
    return ExperimentConfig.from_json(json.dumps(fields))
