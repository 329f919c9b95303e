"""Acceptance suite: one test per criterion, each printing a PASS line with
its measured quantities (run with -s to see them on success)."""

import time
from dataclasses import replace

import numpy as np
import pytest

import fedecado.consensus as consensus
from fedecado.harness import ExperimentConfig, metrics_to_csv, run_experiment, trace_to_csv
from fedecado.oracles import (
    contraction_ratio,
    gradient_errors,
    hold_state,
    interp_algebra,
    quadratic_minimizer,
    solver_discrepancy,
    stationary_flows,
)

QUAD_DELTA = 1e-2


def quad_consensus_config(**overrides):
    """Criterion-1 instance: 10 clients, d=20, random PSD curvature
    (condition number 1.5), Dirichlet(0.5) weights at seed 7, full
    participation."""
    base = dict(
        name="accept-quad", seed=7,
        objective={"kind": "quadratic", "dim": 20, "eig_min": 60.0, "eig_max": 90.0},
        n_clients=10, participation_ratio=1.0,
        partition={"scheme": "dirichlet", "alpha": 0.5},
        heterogeneity={"mode": "fixed", "lr": 0.0025, "epochs": 20},
        algo="fedecado",
        algo_params={"L": 0.04, "delta": QUAD_DELTA, "dt0": 0.0525,
                     "sensitivity_dt_ref": 0.05},
        rounds_max=500, tol=1e-12, record_flow_trace=True)
    base.update(overrides)
    return ExperimentConfig(**base)


def hetero_config(seed, sync=True):
    """Criterion-2 instance: the 100-client version with sampled per-client
    learning rates and epochs, participation 0.1."""
    return ExperimentConfig(
        name="accept-hetero", seed=seed,
        objective={"kind": "quadratic", "dim": 20, "eig_min": 60.0, "eig_max": 90.0},
        n_clients=100, participation_ratio=0.1,
        partition={"scheme": "dirichlet", "alpha": 0.5},
        heterogeneity={"mode": "random", "lr_min": 1e-4, "lr_max": 1e-3,
                       "epochs_min": 1, "epochs_max": 10},
        algo="fedecado",
        algo_params={"L": 0.001, "delta": QUAD_DELTA, "dt0": 0.0105,
                     "sensitivity_dt_ref": 0.01, "sync": sync},
        rounds_max=3000, tol=1e-12)


def logistic_config(seed, algo):
    """Criterion-8 instance: synthetic 10-class logistic regression over 100
    clients with a skewed partition and sampled compute profiles."""
    params = {"mu": 0.01, "server_lr": 1.0}
    if algo == "fedecado":
        params = {"L": 3e-4, "delta": QUAD_DELTA, "dt0": 0.0105,
                  "sensitivity_dt_ref": 10.0}
    return ExperimentConfig(
        name=f"accept-logistic-{algo}", seed=seed,
        objective={"kind": "logistic", "n_samples": 2000, "n_features": 5,
                   "n_classes": 10},
        n_clients=100, participation_ratio=0.1,
        partition={"scheme": "dirichlet", "alpha": 0.1},
        heterogeneity={"mode": "random", "lr_min": 1e-4, "lr_max": 1e-3,
                       "epochs_min": 1, "epochs_max": 10},
        algo=algo, algo_params=params,
        rounds_max=300, tol=1e-12)


@pytest.fixture(scope="module")
def quad_run():
    t0 = time.perf_counter()
    result = run_experiment(quad_consensus_config())
    elapsed = time.perf_counter() - t0
    x_star = quadratic_minimizer(result.objectives, result.weights)
    d = x_star.shape[0]
    rels = []
    for traj in result.flow_trace:
        x_c = traj.states[-1][-d:]
        rels.append(float(np.linalg.norm(x_c - x_star) / np.linalg.norm(x_star)))
    return {"result": result, "elapsed": elapsed, "x_star": x_star, "rels": rels}


@pytest.fixture(scope="module")
def hetero_run():
    result = run_experiment(hetero_config(7))
    x_star = quadratic_minimizer(result.objectives, result.weights)
    rel = float(np.linalg.norm(result.final_x - x_star) / np.linalg.norm(x_star))
    return {"result": result, "rel": rel}


def test_criterion_1_quadratic_consensus_convergence(quad_run):
    rels = quad_run["rels"]
    hit = next((k + 1 for k, r in enumerate(rels) if r <= 1e-4), None)
    assert hit is not None and hit <= 500, f"never reached 1e-4 (best {min(rels):.3e})"
    assert quad_run["elapsed"] <= 10.0, f"run took {quad_run['elapsed']:.1f}s"
    print(f"criterion 1: PASS - relative error {rels[hit-1]:.3e} at round {hit} "
          f"(final {rels[-1]:.3e}, {quad_run['elapsed']:.1f}s)")


def test_criterion_2_heterogeneous_compute_convergence(hetero_run):
    assert hetero_run["rel"] <= 1e-3, f"relative error {hetero_run['rel']:.3e}"
    print(f"criterion 2 (main): PASS - relative error {hetero_run['rel']:.3e} "
          f"after {hetero_run['result'].rounds_run} rounds")


def test_criterion_2_ablation_sync_beats_raw_final_states(hetero_run):
    wins = 0
    details = []
    for seed in range(10):
        # runs are pure functions of their config: seed 7's sync run is the fixture's
        res_sync = (hetero_run["result"] if seed == 7
                    else run_experiment(hetero_config(seed, sync=True)))
        res_raw = run_experiment(hetero_config(seed, sync=False))
        x_star = quadratic_minimizer(res_sync.objectives, res_sync.weights)
        rel_sync = np.linalg.norm(res_sync.final_x - x_star) / np.linalg.norm(x_star)
        rel_raw = np.linalg.norm(res_raw.final_x - x_star) / np.linalg.norm(x_star)
        wins += rel_sync < rel_raw
        details.append(f"seed {seed}: {rel_sync:.2e} vs {rel_raw:.2e}")
    assert wins >= 9, "\n".join(details)
    print(f"criterion 2 (ablation): PASS - synchronized beats raw finals in {wins}/10 seeds")


def test_synchronization_is_extrapolation(monkeypatch):
    """What criterion 2's ablation measures: resampling a short window past
    its end extrapolates its last segment.  Holding the final state there
    instead loses nearly all of the gain over raw final states."""
    small = dict(n_clients=10, participation_ratio=1.0, rounds_max=200)

    def rel(cfg):
        res = run_experiment(replace(cfg, **small))
        x_star = quadratic_minimizer(res.objectives, res.weights)
        return np.linalg.norm(res.final_x - x_star) / np.linalg.norm(x_star)

    rel_sync = rel(hetero_config(7))
    rel_raw = rel(hetero_config(7, sync=False))
    monkeypatch.setattr(consensus, "interp_state", hold_state)
    rel_hold = rel(hetero_config(7))
    assert rel_hold >= 100 * rel_sync, (rel_sync, rel_hold)
    assert 0.5 <= rel_hold / rel_raw <= 2.0, (rel_hold, rel_raw)
    print(f"synchronization: sync {rel_sync:.2e}, hold {rel_hold:.2e}, raw {rel_raw:.2e} "
          f"(hold/sync {rel_hold / rel_sync:.3g}, hold/raw {rel_hold / rel_raw:.3f})")


def test_criterion_3_lte_guarantee(quad_run, hetero_run):
    checked = 0
    for res in (quad_run["result"], hetero_run["result"]):
        delta = res.config.params()["delta"]
        for rec in res.step_records:
            assert max(rec.eps_c, rec.eps_l) <= delta, (
                f"step at tau={rec.tau} logged eps=({rec.eps_c:.3e}, {rec.eps_l:.3e}) "
                f"> delta={delta}")
            checked += 1
    assert checked > 0
    print(f"criterion 3: PASS - {checked} accepted steps all within tolerance")


def test_criterion_4_interp_operator_algebra():
    worst_lin, violations = interp_algebra(202, 200)
    assert worst_lin <= 1e-12, f"linearity gap {worst_lin:.3e}"
    assert violations == 0
    print(f"criterion 4: PASS - linearity gap {worst_lin:.2e}, 0 order/constant violations")


def test_criterion_5_solver_equivalence():
    worst = solver_discrepancy(505, 100)
    assert worst <= 1e-10, f"max discrepancy {worst:.3e}"
    print(f"criterion 5: PASS - max elementwise discrepancy {worst:.2e} over 100 instances")


def test_criterion_6_contraction(quad_run):
    result = quad_run["result"]
    flows_star = stationary_flows(result.objectives, result.weights, quad_run["x_star"])
    for beta in (0.5, 1.0, 2.0):
        ratios = contraction_ratio(result.flow_trace, quad_run["x_star"],
                                   flows_star, beta=beta)
        late = ratios[5:]
        bad = [(i + 6, r) for i, r in enumerate(late) if r >= 1.0]
        assert not bad, f"beta={beta}: ratios >= 1 at rounds {bad[:5]}"
    print("criterion 6: PASS - contraction ratios < 1 after round 5 for "
          "beta in {0.5, 1, 2}")


def test_criterion_7_gradient_fidelity():
    worst = np.max(list(gradient_errors(707, 10).values()))
    assert worst <= 1e-5, f"max relative gradient error {worst:.3e}"
    print(f"criterion 7: PASS - max relative gradient error {worst:.2e} "
          "(quadratic, logistic, mlp; 10 points each)")


def test_criterion_8_baseline_comparison_direction():
    t0 = time.perf_counter()
    medians = {}
    for algo in ("fedecado", "fednova", "fedprox"):
        losses = []
        for seed in range(5):
            res = run_experiment(logistic_config(seed, algo))
            losses.append(res.metrics_rows[-1]["global_loss"])
        medians[algo] = float(np.median(losses))
    elapsed = time.perf_counter() - t0
    assert medians["fedecado"] <= medians["fednova"], medians
    assert medians["fedecado"] <= medians["fedprox"], medians
    assert elapsed <= 300.0, f"comparison took {elapsed:.0f}s"
    print(f"criterion 8: PASS - median losses fedecado={medians['fedecado']:.2f} "
          f"<= fednova={medians['fednova']:.2f}, fedprox={medians['fedprox']:.2f}; "
          f"fednova/fedecado={medians['fednova'] / medians['fedecado']:.3f}, "
          f"fedprox/fedecado={medians['fedprox'] / medians['fedecado']:.3f} "
          f"({elapsed:.0f}s)")


def test_criterion_9_determinism():
    cfg_a = quad_consensus_config(rounds_max=40, record_flow_trace=False)
    cfg_b = quad_consensus_config(rounds_max=40, record_flow_trace=False)
    res_a = run_experiment(cfg_a)
    res_b = run_experiment(cfg_b)
    assert metrics_to_csv(res_a.metrics_rows) == metrics_to_csv(res_b.metrics_rows)
    assert trace_to_csv(res_a.step_records) == trace_to_csv(res_b.step_records)
    log_a = run_experiment(logistic_config(3, "fedecado"))
    log_b = run_experiment(logistic_config(3, "fedecado"))
    assert metrics_to_csv(log_a.metrics_rows) == metrics_to_csv(log_b.metrics_rows)
    print("criterion 9: PASS - byte-identical metrics CSVs on repeated runs")


def test_steady_state_detection_on_acceptance_instance():
    """The steady-state test fires within the round budget at tol 1e-6 on the
    quadratic consensus instance."""
    cfg = quad_consensus_config(tol=1e-6, record_flow_trace=False)
    res = run_experiment(cfg)
    assert res.status == "converged"
    assert res.rounds_run <= 500
    print(f"steady-state detection: fires at round {res.rounds_run} (tol 1e-6)")
