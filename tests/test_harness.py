import json
import os

import numpy as np
import pytest
from click.testing import CliRunner

import fedecado.harness as harness
from fedecado.cli import main as cli_main
from fedecado.consensus import StepRecord, step_table
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
        assert "substeps" in res.reason
        saved = json.loads((tmp_path / "div" / "final_model.json").read_text())
        assert saved["status"] == "diverged" and saved["reason"] == res.reason
        ok = run_experiment(quad_config(rounds_max=3, out_dir=str(tmp_path / "ok")))
        assert ok.reason == ""
        assert json.loads((tmp_path / "ok" / "final_model.json").read_text())["reason"] == ""

    def test_baselines_run_and_record(self):
        for algo in ("fedavg", "fedprox", "fednova"):
            cfg = quad_config(algo=algo, rounds_max=30,
                              algo_params={"mu": 0.05, "server_lr": 1.0})
            res = run_experiment(cfg)
            assert res.rounds_run == 30 or res.status == "converged"
            assert np.isfinite(res.metrics_rows[-1]["global_loss"])
            assert res.metrics_rows[-1]["dt_min"] is None

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
        assert calls == {"mean_hessian": 3, "build_sensitivity": 1}

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

    def test_endpoint_record_mode_runs(self):
        # endpoint-only trajectories (2 checkpoints) trade resampling
        # fidelity for payload size; the run must still converge sanely
        res = run_experiment(quad_config(record="endpoints", rounds_max=60))
        assert res.metrics_rows[-1]["global_loss"] <= res.metrics_rows[0]["global_loss"]

    def test_sensitivity_refresh_runs(self):
        cfg = quad_config(rounds_max=12,
                          algo_params={"L": 0.05, "delta": 1e-2, "dt0": 0.105,
                                       "sensitivity_dt_ref": 0.05,
                                       "sensitivity_refresh": 5})
        res = run_experiment(cfg)
        assert res.rounds_run == 12

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
        for algo in ("fedecado", "fedavg"):
            drawn.clear()
            run_experiment(ExperimentConfig(algo=algo, **cfg))
            assert len(drawn) == 8   # 2 rounds x 2 clients x 2 local steps
            draws[algo] = (drawn[:4], drawn[4:])
        round0, round1 = draws["fedecado"]
        assert round0 != round1
        assert draws["fedavg"][0] == round0

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
        assert "diverged:" in result.stderr and "substeps" in result.stderr

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
    records = [StepRecord(0, 0.0105, 0.0105, 1e-3, 2.5e-7, 0, 0.75, float("nan")),
               StepRecord(4099, 1.0 / 3.0, 1e-300, 0.0, 9.999e-3, 40, 1e15, 12.516230)]
    table = step_table(records)
    assert len(table) == 2 and len(step_table(())) == 0
    for rec, row in zip(records, table):
        assert (row.round_index, row.backtracks) == (rec.round_index, rec.backtracks)
        np.testing.assert_array_equal([row.tau, row.dt, row.eps_c, row.eps_l,
                                       row.norm_xc_change, row.global_loss],
                                      [rec.tau, rec.dt, rec.eps_c, rec.eps_l,
                                       rec.norm_xc_change, rec.global_loss])
    assert trace_to_csv(table) == trace_to_csv(records)
