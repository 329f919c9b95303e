import importlib.util
import json
import os
import warnings
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import fedecado.harness as harness
from fedecado.cli import main as cli_main
from fedecado.consensus import STEP_DTYPE, build_sensitivity
from fedecado.harness import (
    ConfigError,
    ExperimentConfig,
    metrics_to_csv,
    partitioned_dataset,
    run_experiment,
    sample_active_set,
    trace_to_csv,
)
from fedecado.objectives import LogisticObjective, QuadraticObjective
from fedecado.oracles import quadratic_minimizer

ROOT = Path(__file__).resolve().parents[1]


def quad_config(**overrides):
    base = dict(
        name="t", seed=3,
        objective={"kind": "quadratic", "dim": 4, "eig_min": 4.0, "eig_max": 8.0},
        n_clients=3, participation_ratio=1.0,
        partition={"scheme": "dirichlet", "alpha": 1.0},
        heterogeneity={"mode": "fixed", "lr": 0.01, "epochs": 10},
        algo="fedecado",
        algo_params={"L": 0.05, "delta": 1e-2, "dt0": 0.105, "sensitivity_dt_ref": 0.05},
        rounds_max=60, tol=1e-12)
    base.update(overrides)
    return ExperimentConfig(**base)


def overflow_config():
    """A FedAvg run whose first server step overflows to infinity."""
    return quad_config(algo="fedavg", objective={"kind": "quadratic", "dim": 4, "eig_min": 4.0,
                                                 "eig_max": 8.0, "center_scale": 10.0},
                       algo_params={"server_lr": 1e308}, rounds_max=5)


def logistic_config(**overrides):
    base = dict(
        name="log", seed=1,
        objective={"kind": "logistic", "n_samples": 200, "n_features": 4,
                   "n_classes": 3},
        n_clients=5, participation_ratio=1.0,
        partition={"scheme": "dirichlet", "alpha": 0.5},
        heterogeneity={"mode": "fixed", "lr": 1e-3, "epochs": 5},
        algo="fedecado",
        algo_params={"L": 1e-3, "delta": 1e-2, "dt0": 0.006},
        rounds_max=20, tol=1e-12)
    base.update(overrides)
    return ExperimentConfig(**base)


class TestSampleActiveSet:
    def test_full_participation(self):
        np.testing.assert_array_equal(sample_active_set(7, 1.0, 0, 0), np.arange(7))

    def test_exact_count(self):
        assert len(sample_active_set(100, 0.1, 5, 9)) == 10

    def test_deterministic_per_round(self):
        a = sample_active_set(50, 0.2, 3, 11)
        b = sample_active_set(50, 0.2, 3, 11)
        np.testing.assert_array_equal(a, b)

    def test_rounds_differ(self):
        draws = {tuple(sample_active_set(100, 0.1, r, 13)) for r in range(20)}
        assert len(draws) > 1

    def test_without_replacement(self):
        ids = sample_active_set(30, 0.5, 0, 2)
        assert len(set(ids.tolist())) == len(ids)


class TestConfig:
    def test_json_round_trip(self):
        cfg = quad_config()
        again = ExperimentConfig.from_json(cfg.to_json())
        assert again == cfg

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_json('{"objective": {"kind": "quadratic"}, "n_clients": 2, "bogus": 1}')

    def test_sections_completed_to_defaults(self):
        cfg = ExperimentConfig(objective={"kind": "quadratic"}, n_clients=2)
        assert cfg.objective == {"kind": "quadratic", "dim": 20, "eig_min": 1.0,
                                 "eig_max": 10.0, "center_scale": 1.0}
        assert cfg.partition == {"scheme": "iid"}
        assert cfg.heterogeneity == {"mode": "fixed", "lr": 1e-3, "epochs": 5}
        assert cfg.algo_params == {
            "L": 1.0, "delta": 1e-3, "dt0": 1e-2, "sensitivity_dt_ref": 1e-2, "sync": True,
            "mu": 0.01, "server_lr": 1.0}
        widened = ExperimentConfig(objective={"kind": "quadratic", "eig_max": 12}, n_clients=2,
                                   participation_ratio=1, algo_params={"L": 3})
        assert [type(v) for v in (widened.objective["eig_max"], widened.participation_ratio,
                                  widened.algo_params["L"])] == [float, float, float]
        assert widened.objective["eig_max"] == 12.0

    def test_shipped_configs_round_trip(self):
        """Every file in configs/ and every benchmark workload survives
        to_json/from_json and still reads the way the benchmark reads it."""
        spec = importlib.util.spec_from_file_location(
            "perfbench_workloads", ROOT / "perfbench" / "workloads.py")
        bench = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(bench)
        paths = sorted((ROOT / "configs").glob("*.json"))
        configs = [ExperimentConfig.from_file(p) for p in paths]
        configs += [bench.experiment_config(w, w.default_seed) for w in bench.WORKLOADS.values()]
        assert len(configs) == 7
        for cfg in configs:
            assert ExperimentConfig.from_json(cfg.to_json()) == cfg
            assert cfg.objective["kind"] in ("quadratic", "logistic")
            assert cfg.params()["delta"] > 0

    def test_bad_json_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_json("{not json")

    def test_unknown_algo_rejected(self):
        with pytest.raises(ConfigError):
            quad_config(algo="sgd")

    def test_zero_active_clients_rejected(self):
        with pytest.raises(ConfigError):
            quad_config(n_clients=3, participation_ratio=0.1)

    def test_unknown_algo_param_rejected(self):
        with pytest.raises(ConfigError):
            quad_config(algo_params={"LL": 1.0})

    def test_negative_mu_rejected(self):
        with pytest.raises(ConfigError, match="mu"):
            quad_config(algo="fedprox", algo_params={"mu": -0.1})

    def test_nonpositive_server_lr_rejected(self):
        with pytest.raises(ConfigError, match="server_lr"):
            quad_config(algo="fedavg", algo_params={"server_lr": 0.0})

    def test_minibatch_on_quadratic_rejected(self):
        with pytest.raises(ConfigError, match="minibatch"):
            quad_config(minibatch=4)

    @pytest.mark.parametrize("minibatch", [0, -3])
    def test_nonpositive_minibatch_rejected(self, minibatch):
        with pytest.raises(ConfigError, match="minibatch"):
            logistic_config(minibatch=minibatch)


class TestRunExperiment:
    def test_single_client_converges_to_center(self):
        cfg = quad_config(n_clients=1, partition={"scheme": "iid"}, rounds_max=150)
        res = run_experiment(cfg)
        center = res.objectives[0].center
        assert np.linalg.norm(res.final_x - center) / np.linalg.norm(center) <= 1e-6

    def test_metrics_csv_deterministic(self):
        csv_a = metrics_to_csv(run_experiment(quad_config()).metrics_rows)
        csv_b = metrics_to_csv(run_experiment(quad_config()).metrics_rows)
        assert csv_a == csv_b

    def test_wall_clock_times_rounds_and_changes_nothing_else(self):
        timed = run_experiment(quad_config(rounds_max=5, wall_clock=True)).metrics_rows
        plain = run_experiment(quad_config(rounds_max=5)).metrics_rows
        assert len(timed) == len(plain) == 5
        assert all(row["wall_ms"] > 0 for row in timed)
        assert all(row["wall_ms"] == 0 for row in plain)
        strip = [{k: v for k, v in row.items() if k != "wall_ms"} for row in timed]
        assert strip == [{k: v for k, v in row.items() if k != "wall_ms"} for row in plain]

    def test_loss_not_increased_on_convex_run(self):
        res = run_experiment(quad_config())
        assert res.metrics_rows[-1]["global_loss"] <= res.metrics_rows[0]["global_loss"]

    def test_steady_state_stops_early(self):
        cfg = quad_config(tol=1e-4, rounds_max=500)
        res = run_experiment(cfg)
        assert res.status == "converged"
        assert res.rounds_run < 500
        assert res.exit_code == 0
        # at a declared steady state every client tracks the consensus state
        assert res.metrics_rows[-1]["consensus_gap"] <= 1e-3

    def test_rounds_exhausted_status(self):
        cfg = quad_config(rounds_max=3)
        res = run_experiment(cfg)
        assert res.status == "rounds_exhausted"
        assert res.exit_code == 2

    def test_divergence_aborts_with_diagnostic_row(self):
        cfg = quad_config(heterogeneity={"mode": "fixed", "lr": 1e12, "epochs": 3},
                          rounds_max=10)
        res = run_experiment(cfg)
        assert res.status == "diverged"
        assert res.exit_code == 1
        assert np.isnan(res.metrics_rows[-1]["global_loss"])

    def test_divergence_reason_names_the_cause(self, tmp_path):
        cfg = quad_config(heterogeneity={"mode": "fixed", "lr": 1e12, "epochs": 3},
                          rounds_max=10, out_dir=str(tmp_path / "div"))
        res = run_experiment(cfg)
        assert "diverged at local step" in res.reason
        assert res.rounds_run == 1
        saved = json.loads((tmp_path / "div" / "final_model.json").read_text())
        assert saved["status"] == "diverged" and saved["reason"] == res.reason
        ok = run_experiment(quad_config(rounds_max=3, out_dir=str(tmp_path / "ok")))
        assert ok.reason == ""
        assert json.loads((tmp_path / "ok" / "final_model.json").read_text())["reason"] == ""

    def test_server_step_overflow_diverges_with_reason(self):
        res = run_experiment(overflow_config())
        assert res.status == "diverged"
        assert res.reason == "fedavg server step produced non-finite values"
        assert res.rounds_run == len(res.metrics_rows) == 1
        assert np.isnan(res.metrics_rows[-1]["global_loss"])

    def test_server_step_overflow_prints_no_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = run_experiment(overflow_config())
        assert res.status == "diverged"
        assert res.reason == "fedavg server step produced non-finite values"

    def test_baselines_run_and_record(self):
        for algo in ("fedavg", "fedprox", "fednova"):
            cfg = quad_config(algo=algo, rounds_max=30,
                              algo_params={"mu": 0.05, "server_lr": 1.0})
            res = run_experiment(cfg)
            assert res.rounds_run == 30 or res.status == "converged"
            assert np.isfinite(res.metrics_rows[-1]["global_loss"])
            assert res.metrics_rows[-1]["dt_min"] is None

    def test_fedprox_rounds_match_hand_iteration(self):
        # each round: proximal local steps from the global state on the
        # active clients, their weighted average, then the server step
        mu, server_lr = 0.5, 1.5
        cfg = quad_config(algo="fedprox", rounds_max=2, n_clients=4, participation_ratio=0.5,
                          heterogeneity={"mode": "random", "lr_min": 0.005, "lr_max": 0.02,
                                         "epochs_min": 2, "epochs_max": 6},
                          algo_params={"mu": mu, "server_lr": server_lr})
        res = run_experiment(cfg)
        x = res.x_init.copy()
        for rnd in range(2):
            active = sample_active_set(4, 0.5, rnd, cfg.seed)
            finals, weights = [], []
            for i in active:
                obj, c = res.objectives[i], res.client_configs[i]
                xi = x.copy()
                for _ in range(c.epochs):
                    xi = xi - c.lr * (c.weight * obj.gradient(xi) + mu * (xi - x))
                finals.append(xi)
                weights.append(c.weight)
            avg = sum(w * f for w, f in zip(weights, finals)) / sum(weights)
            x = x + server_lr * (avg - x)
        assert len({c.epochs for c in res.client_configs}) > 1
        np.testing.assert_allclose(res.final_x, x, rtol=1e-13, atol=1e-15)

    def test_logistic_metrics_include_accuracy(self):
        res = run_experiment(logistic_config())
        acc = res.metrics_rows[-1]["accuracy"]
        assert acc is not None and 0.0 <= acc <= 1.0

    def test_global_loss_is_client_weighted_summed_cross_entropy(self):
        # F(x) = sum_i w_i sum_{s in D_i} CE_s(x) with w_i = |D_i| / |D|
        cfg = logistic_config(partition={"scheme": "dirichlet", "alpha": 0.2})
        res = run_experiment(cfg)
        dataset, part = partitioned_dataset(cfg)
        m, k = dataset.features.shape[1], dataset.n_classes
        W, b = res.final_x[: m * k].reshape(m, k), res.final_x[m * k:]
        logits = dataset.features @ W + b
        top = logits.max(axis=1)
        log_norm = top + np.log(np.exp(logits - top[:, None]).sum(axis=1))
        ce = log_norm - logits[np.arange(len(dataset)), dataset.labels]
        expected = sum(len(idx) / len(dataset) * ce[idx].sum()
                       for idx in part.client_indices)
        assert res.metrics_rows[-1]["global_loss"] == pytest.approx(expected, rel=1e-12)

    def test_baselines_skip_curvature_and_sensitivity(self, monkeypatch):
        calls = {"mean_hessian": 0, "build_sensitivity": 0}
        mean_hessian = QuadraticObjective.mean_hessian
        build_sensitivity = harness.build_sensitivity

        def counted_hessian(self, *args, **kwargs):
            calls["mean_hessian"] += 1
            return mean_hessian(self, *args, **kwargs)

        def counted_sensitivity(*args, **kwargs):
            calls["build_sensitivity"] += 1
            return build_sensitivity(*args, **kwargs)

        monkeypatch.setattr(QuadraticObjective, "mean_hessian", counted_hessian)
        monkeypatch.setattr(harness, "build_sensitivity", counted_sensitivity)
        run_experiment(quad_config(algo="fednova", rounds_max=3))
        assert calls == {"mean_hessian": 0, "build_sensitivity": 0}
        run_experiment(quad_config(rounds_max=3))
        assert calls == {"mean_hessian": 9, "build_sensitivity": 3}   # 3 rounds x 3 clients

    def test_sensitivity_built_each_round_from_active_clients(self, monkeypatch):
        seen = []
        consensus_round = harness.consensus_round

        def capturing(state, updates, g, *args, **kwargs):
            seen.append((state, sorted(updates), g))
            return consensus_round(state, updates, g, *args, **kwargs)

        monkeypatch.setattr(harness, "consensus_round", capturing)
        cfg = logistic_config(participation_ratio=0.5, rounds_max=3)
        res = run_experiment(cfg)
        assert len(seen) == 3
        for rnd, (state, active, g) in enumerate(seen):
            assert active == sample_active_set(cfg.n_clients, 0.5, rnd, cfg.seed).tolist()
            assert len(active) < cfg.n_clients
            expected = build_sensitivity(
                res.weights[active], [res.objectives[i].mean_hessian(state.x_c) for i in active],
                cfg.algo_params["sensitivity_dt_ref"])
            assert g.tobytes() == expected.tobytes()
        # the curvature is taken where each round starts, not once at x_init
        assert not np.array_equal(seen[0][0].x_c, seen[2][0].x_c)

    def test_mlp_run_finishes(self):
        cfg = ExperimentConfig(
            name="mlp", seed=2,
            objective={"kind": "mlp", "n_samples": 120, "n_features": 4,
                       "n_classes": 3, "hidden": 5},
            n_clients=4, participation_ratio=1.0,
            partition={"scheme": "iid"},
            heterogeneity={"mode": "fixed", "lr": 5e-4, "epochs": 4},
            algo="fedecado",
            algo_params={"L": 1e-3, "delta": 1e-2, "dt0": 0.003},
            rounds_max=10, tol=1e-12)
        res = run_experiment(cfg)
        assert np.isfinite(res.metrics_rows[-1]["global_loss"])

    def test_random_heterogeneity_within_bounds(self):
        cfg = quad_config(heterogeneity={"mode": "random"}, rounds_max=5, n_clients=20)
        res = run_experiment(cfg)
        for c in res.client_configs:
            assert 1e-4 <= c.lr <= 1e-3
            assert 1 <= c.epochs <= 10

    def test_minibatch_deterministic(self):
        cfg = dict(
            name="mb", seed=5,
            objective={"kind": "logistic", "n_samples": 150, "n_features": 3,
                       "n_classes": 3},
            n_clients=4, participation_ratio=1.0,
            partition={"scheme": "iid"},
            heterogeneity={"mode": "fixed", "lr": 1e-3, "epochs": 3},
            algo="fedecado",
            algo_params={"L": 1e-3, "delta": 1e-2, "dt0": 0.0035},
            rounds_max=8, tol=1e-12, minibatch=10)
        a = run_experiment(ExperimentConfig(**cfg))
        b = run_experiment(ExperimentConfig(**cfg))
        np.testing.assert_array_equal(a.final_x, b.final_x)

    def test_minibatch_stream_is_per_round_and_shared_by_algos(self, monkeypatch):
        drawn = []
        gradient = LogisticObjective.gradient

        def recording(self, x, sample_indices=None):
            if sample_indices is not None:
                drawn.append(tuple(sample_indices.tolist()))
            return gradient(self, x, sample_indices)

        monkeypatch.setattr(LogisticObjective, "gradient", recording)
        cfg = dict(
            name="mb", seed=5,
            objective={"kind": "logistic", "n_samples": 150, "n_features": 3,
                       "n_classes": 3},
            n_clients=2, participation_ratio=1.0,
            partition={"scheme": "iid"},
            heterogeneity={"mode": "fixed", "lr": 1e-3, "epochs": 2},
            algo_params={"L": 1e-3, "delta": 1e-2, "dt0": 0.0035},
            rounds_max=2, tol=1e-12, minibatch=10)
        draws = {}
        for algo in ("fedecado", "fedavg", "fednova"):
            drawn.clear()
            run_experiment(ExperimentConfig(algo=algo, **cfg))
            assert len(drawn) == 8   # 2 rounds x 2 clients x 2 local steps
            draws[algo] = (drawn[:4], drawn[4:])
        round0, round1 = draws["fedecado"]
        assert round0 != round1
        assert draws["fedavg"][0] == round0
        assert draws["fednova"][0] == round0

    def test_output_files_written(self, tmp_path):
        out = tmp_path / "runout"
        cfg = quad_config(rounds_max=10, out_dir=str(out))
        run_experiment(cfg)
        assert (out / "metrics.csv").exists()
        assert (out / "trace.csv").exists()
        assert (out / "final_model.json").exists()
        header = (out / "metrics.csv").read_text().splitlines()[0]
        assert header == ("round,wall_ms,global_loss,grad_norm,consensus_gap,"
                          "accuracy,dt_min,dt_mean,dt_max,backtracks")


class TestCli:
    def _write_cfg(self, tmp_path, **overrides):
        cfg = quad_config(**overrides)
        path = tmp_path / "cfg.json"
        path.write_text(cfg.to_json())
        return path

    def test_run_converged_exit_zero(self, tmp_path):
        path = self._write_cfg(tmp_path, tol=1e-4, rounds_max=500)
        result = CliRunner().invoke(cli_main, ["run", "--config", str(path),
                                               "--out", str(tmp_path / "o")])
        assert result.exit_code == 0, result.output

    def test_run_budget_exhausted_exit_two(self, tmp_path):
        path = self._write_cfg(tmp_path, rounds_max=2)
        result = CliRunner().invoke(cli_main, ["run", "--config", str(path)])
        assert result.exit_code == 2

    @pytest.mark.parametrize("algo_params", [{"mu": -0.1}, {"server_lr": 0.0}])
    def test_run_bad_baseline_params_exit_one(self, tmp_path, algo_params):
        path = tmp_path / "bad.json"
        fields = json.loads(quad_config(algo="fedprox").to_json())
        fields["algo_params"] = algo_params
        path.write_text(json.dumps(fields))
        result = CliRunner().invoke(cli_main, ["run", "--config", str(path)])
        assert result.exit_code == 1
        assert "error:" in result.output
        assert "Traceback" not in result.output

    @pytest.mark.parametrize("path,override", [
        ("algo_params", {"L": 0}),
        ("algo_params", {"dt0": -1}),
        ("algo_params.growth", {"growth": 0.5}),   # a removed knob
        ("algo_params.max_backtracks", {"max_backtracks": 0}),   # a removed knob
        ("algo_params", {"sensitivity_dt_ref": 0}),
        # removed knobs are unknown keys; a removed knob's case keeps its place,
        # so the ids of the cases after it stay the same
        ("algo_params.hessian_samples", {"hessian_samples": 0}),
        ("algo_params.sensitivity_refresh", {"sensitivity_refresh": -3}),
        ("heterogeneity", {"mode": "fixed", "lr": 0}),
        ("heterogeneity", {"mode": "fixed", "epochs": 0}),
        ("heterogeneity", {"mode": "random", "lr_min": 1e-3, "lr_max": 1e-4}),
        ("heterogeneity", {"mode": "random", "epochs_min": 5, "epochs_max": 2}),
        ("partition", {"scheme": "dirichlet", "alpha": 0}),
        # unknown keys, including another tag's fields
        ("objective.dimm", {"kind": "quadratic", "dimm": 5}),
        ("partition.alpah", {"scheme": "dirichlet", "alpah": 0.01}),
        ("heterogeneity.epoch", {"mode": "fixed", "epoch": 50}),
        ("partition.alpha", {"scheme": "iid", "alpha": 0.5}),
        ("heterogeneity.lr", {"mode": "random", "lr": 0.01}),
        ("objective.hidden", {"kind": "quadratic", "hidden": 8}),
        # wrong types: a string for a bool, floats for ints, strings for numbers
        ("algo_params.sync", {"sync": "false"}),
        ("heterogeneity.epochs", {"mode": "fixed", "lr": 0.01, "epochs": 2.9}),
        ("seed", 3.5),
        ("seed", -1),
        ("rounds_max", 2.5),
        ("algo_params.max_backtracks", {"max_backtracks": 2.5}),   # a removed knob
        ("n_clients", "2"),
        ("algo_params.L", {"L": "1"}),
        ("objective", "quadratic"),
        ("partition", None),
        ("heterogeneity", []),
        # out of range or not finite
        ("objective.dim", {"kind": "quadratic", "dim": 0}),
        ("objective.eig_max", {"kind": "quadratic", "eig_min": 5.0, "eig_max": 2.0}),
        ("objective.eig_min", {"kind": "quadratic", "eig_min": -1.0}),
        ("objective.n_samples", {"kind": "logistic", "n_samples": 2}),
        ("objective.hidden", {"kind": "mlp", "hidden": 0}),
        ("algo_params.safety", {"safety": float("nan")}),   # a removed knob
        ("tol", float("nan")),
        ("tol", 10**310),
        ("algo_params.delta", {"delta": float("inf")}),
        ("objective.n_features", {"kind": "logistic", "n_features": 0}),
        ("objective.n_classes", {"kind": "logistic", "n_classes": 1}),
        # CSV datasets the test writes: fewer rows than clients, non-integer labels
        ("objective.csv", {"kind": "logistic", "csv": "few_rows.csv"}),
        ("objective.csv", {"kind": "logistic", "csv": "bad_labels.csv"}),
        # no rows, no feature column, a blank or infinite cell, a single class
        ("objective.csv", {"kind": "logistic", "csv": "header_only.csv"}),
        ("objective.csv", {"kind": "logistic", "csv": "label_only.csv"}),
        ("objective.csv", {"kind": "logistic", "csv": "blank_cell.csv"}),
        ("objective.csv", {"kind": "logistic", "csv": "inf_cell.csv"}),
        ("objective.csv", {"kind": "logistic", "csv": "one_class.csv"}),
    ])
    def test_run_bad_config_fields_exit_one(self, tmp_path, monkeypatch, path, override):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "few_rows.csv").write_text("f0,f1,label\n0.1,0.2,0\n0.3,0.4,1\n")
        (tmp_path / "bad_labels.csv").write_text(
            "f0,label\n0.1,0\n0.2,1\n0.3,0.5\n0.4,1\n")
        (tmp_path / "header_only.csv").write_text("f0,label\n")
        (tmp_path / "label_only.csv").write_text("label\n0\n1\n0\n1\n")
        (tmp_path / "blank_cell.csv").write_text("f0,label\n0.1,0\n,1\n0.3,0\n0.4,1\n")
        (tmp_path / "inf_cell.csv").write_text("f0,label\n0.1,0\ninf,1\n0.3,0\n0.4,1\n")
        (tmp_path / "one_class.csv").write_text("f0,label\n0.1,0\n0.2,0\n0.3,0\n0.4,0\n")
        fields = json.loads(quad_config().to_json())
        fields[path.split(".")[0]] = override
        (tmp_path / "bad.json").write_text(json.dumps(fields))
        result = CliRunner().invoke(cli_main, ["run", "--config", "bad.json"])
        assert result.exit_code == 1
        assert "error:" in result.stderr and path in result.stderr
        assert isinstance(result.exception, SystemExit)
        assert "Traceback" not in result.output

    @pytest.mark.parametrize("make_config,minibatch",
                             [(quad_config, 4), (logistic_config, 0)])
    def test_run_bad_minibatch_exit_one(self, tmp_path, make_config, minibatch):
        path = tmp_path / "bad.json"
        fields = json.loads(make_config().to_json())
        fields["minibatch"] = minibatch
        path.write_text(json.dumps(fields))
        result = CliRunner().invoke(cli_main, ["run", "--config", str(path)])
        assert result.exit_code == 1
        assert "error:" in result.stderr and "minibatch" in result.stderr
        # a clean exit, not an exception escaping run_experiment
        assert isinstance(result.exception, SystemExit)
        assert "Traceback" not in result.output

    def test_run_diverged_prints_reason(self, tmp_path):
        path = self._write_cfg(tmp_path, rounds_max=10,
                               heterogeneity={"mode": "fixed", "lr": 1e12, "epochs": 3})
        result = CliRunner().invoke(cli_main, ["run", "--config", str(path)])
        assert result.exit_code == 1
        assert "diverged:" in result.stderr and "diverged at local step" in result.stderr
        assert "after 1 rounds" in result.stdout

    def test_run_server_step_overflow_exit_one(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(overflow_config().to_json())
        result = CliRunner().invoke(cli_main, ["run", "--config", str(path)])
        assert result.exit_code == 1
        assert "diverged: fedavg server step" in result.stderr
        assert isinstance(result.exception, SystemExit)
        assert "Traceback" not in result.output

    def test_run_bad_config_exit_one(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"objective": {"kind": "nope"}, "n_clients": 1}')
        result = CliRunner().invoke(cli_main, ["run", "--config", str(path)])
        assert result.exit_code == 1

    def test_algo_override(self, tmp_path):
        path = self._write_cfg(tmp_path, rounds_max=3)
        result = CliRunner().invoke(cli_main, ["run", "--config", str(path),
                                               "--algo", "fedavg"])
        assert result.exit_code == 2

    def test_partition_subcommand(self, tmp_path):
        cfg = ExperimentConfig(
            name="p", seed=4,
            objective={"kind": "logistic", "n_samples": 300, "n_features": 3,
                       "n_classes": 4},
            n_clients=6, partition={"scheme": "dirichlet", "alpha": 0.2},
            algo="fedavg", rounds_max=1)
        path = tmp_path / "cfg.json"
        path.write_text(cfg.to_json())
        out = tmp_path / "part.json"
        result = CliRunner().invoke(cli_main, ["partition", "--config", str(path),
                                               "--out", str(out)])
        assert result.exit_code == 0, result.output
        payload = json.loads(out.read_text())
        assert len(payload["clients"]) == 6
        assert abs(sum(payload["weights"]) - 1.0) <= 1e-12

    def test_partition_rejects_quadratic(self, tmp_path):
        path = self._write_cfg(tmp_path)
        result = CliRunner().invoke(cli_main, ["partition", "--config", str(path),
                                               "--out", str(tmp_path / "p.json")])
        assert result.exit_code == 1

    def test_compare_joined_csv(self, tmp_path):
        p1 = tmp_path / "a.json"
        p2 = tmp_path / "b.json"
        p1.write_text(quad_config(name="a", rounds_max=4).to_json())
        p2.write_text(quad_config(name="b", rounds_max=4, algo="fedavg").to_json())
        out = tmp_path / "joined.csv"
        result = CliRunner().invoke(cli_main, ["compare", "--configs", str(p1),
                                               "--configs", str(p2), "--out", str(out)])
        assert result.exit_code == 0, result.output
        lines = out.read_text().splitlines()
        assert lines[0].startswith("config,round,")
        names = {line.split(",")[0] for line in lines[1:]}
        assert names == {"a", "b"}

    def test_verify_subcommand(self):
        result = CliRunner().invoke(cli_main, ["verify"])
        assert result.exit_code == 0, result.output
        assert "1..7" in result.output


def test_run_is_pure_function_of_config(tmp_path):
    out1 = tmp_path / "r1"
    out2 = tmp_path / "r2"
    run_experiment(quad_config(rounds_max=25, out_dir=str(out1)))
    run_experiment(quad_config(rounds_max=25, out_dir=str(out2)))
    assert (out1 / "metrics.csv").read_bytes() == (out2 / "metrics.csv").read_bytes()
    assert (out1 / "trace.csv").read_bytes() == (out2 / "trace.csv").read_bytes()


def test_fedecado_beats_initial_loss_on_quadratic():
    res = run_experiment(quad_config(rounds_max=80))
    x_star = quadratic_minimizer(res.objectives, res.weights)
    rel = np.linalg.norm(res.final_x - x_star) / np.linalg.norm(x_star)
    assert rel <= 1e-3


def test_step_table_reads_and_prints_like_step_records():
    # two extreme rows, as consensus_round writes them; the text is what the
    # per-step record objects printed before the record array replaced them
    table = np.array([(0, 0.0105, 0.0105, 1e-3, 2.5e-7, 0, 0.75, float("nan")),
                      (4099, 1.0 / 3.0, 1e-300, 0.0, 9.999e-3, 40, 1e15, 12.516230)],
                     dtype=STEP_DTYPE).view(np.recarray)
    assert (table[1].round_index, table[1].backtracks, table[1].tau) == (4099, 40, 1.0 / 3.0)
    assert trace_to_csv(table) == (
        "round,tau,dt,eps_c,eps_l,backtracks,norm_xc_change,global_loss\n"
        "0,0.0105,0.0105,0.001,2.5e-07,0,0.75,nan\n"
        "4099,0.333333333333,1e-300,0,0.009999,40,1e+15,12.51623\n")
    assert trace_to_csv(np.empty(0, STEP_DTYPE).view(np.recarray)) == (
        "round,tau,dt,eps_c,eps_l,backtracks,norm_xc_change,global_loss\n")


@pytest.mark.parametrize("run", ["fedecado", "fednova", "logistic-fedecado"])
def test_benchmark_tracer_sees_every_layer(run, tmp_path):
    """The benchmark's tracer wraps this program's layers from outside.  A
    traced run must give the untraced run's outputs, find every attach point,
    count the central steps the run recorded, and see the client windows of
    every algorithm, their local steps and their resamples; a logistic run
    that writes its outputs also shows its curvature calls and trace loss.
    Retiring an attach point means editing this test."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    algo = run.removeprefix("logistic-")
    if run == "logistic-fedecado":
        cfg = logistic_config(n_clients=10, participation_ratio=0.3, rounds_max=40,
                              out_dir=str(tmp_path))
    else:
        cfg = quad_config(algo=algo, n_clients=10, participation_ratio=0.3, rounds_max=40,
                          heterogeneity={"mode": "random"})
    plain = run_experiment(cfg)
    tracer = bench.Tracer()
    tracer.install()
    try:
        traced = tracer.run_experiment(cfg)
    finally:
        tracer.uninstall()
    assert metrics_to_csv(traced.metrics_rows) == metrics_to_csv(plain.metrics_rows)
    assert trace_to_csv(traced.step_records) == trace_to_csv(plain.step_records)
    assert tracer.missing == set()
    layers = bench.layer_metrics(tracer, tracer.run_id)
    assert layers["consensus.accepted_steps"] == len(traced.step_records)
    assert layers["consensus.rejected_trials"] == int(traced.step_records.backtracks.sum())
    assert layers["clients.simulate_local.calls"] == 40 * 3
    # the counters that read each client window: the active clients' epochs,
    # and n_active * (trials + 1) resamples per FedECADO round
    assert layers["clients.local_steps"] == sum(
        traced.client_configs[i].epochs
        for rnd in range(40) for i in sample_active_set(10, 0.3, rnd, cfg.seed))
    trials = len(traced.step_records) + int(traced.step_records.backtracks.sum())
    assert layers["consensus.interp_state.calls"] == (3 * (trials + 40)
                                                      if algo == "fedecado" else 0)
    if algo == "fednova":
        assert layers["baselines.round.calls"] == 40
    if run == "logistic-fedecado":
        # one curvature per active client per round, and a loss per accepted step
        assert layers["objectives.mean_hessian.calls"] == 3 * traced.rounds_run
        assert layers["consensus.trace_loss_s"] > 0
