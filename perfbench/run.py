"""fedecado benchmark: runs one pinned workload (or all four) against the
program in this checkout, checks every run's outputs, and prints the
end-to-end metrics, or with --trace 1 the per-layer metrics, as the last line
of standard output.

    python3 perfbench/run.py --workload hetero --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all

See perfbench/README.md for the metric glossary.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

# Single-threaded BLAS, set before numpy is first imported in this process;
# the set-up probes inherit it.
BLAS_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}
os.environ.update(BLAS_ENV)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(HERE, ".out")
CACHE_DIR = os.path.join(HERE, ".cache")

SETUP_PROBES = 5          # fresh interpreters per run; setup_s is their median
MIN_REPEATS = 2           # untraced experiments per run, so outputs can be compared
HARD_STOP_S = 120.0       # start no experiment after this, to exit within 180 s

import workloads  # noqa: E402  (after the BLAS pinning above)


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=0,
                    help="benchmark seed; recorded with the result (the instance is pinned)")
    ap.add_argument("--workload-seed", type=int, default=None,
                    help="instance seed; defaults to the workload's pinned seed")
    ap.add_argument("--seconds", type=int, default=25, help="measurement time per run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="1: traced run reporting per-layer metrics")
    return ap.parse_args(argv)


def _checkout_or_exit():
    if not os.path.isfile(os.path.join(SRC, "fedecado", "__init__.py")):
        print(f"error: no fedecado sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, SRC)


def _git_sha():
    """HEAD of the checkout when it is a git repository, read without git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.isfile(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _environment():
    import numpy as np
    return {
        "git_sha": _git_sha(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "blas_threads": dict(BLAS_ENV),
    }


def _setup_times(workload, wseed):
    probe = os.path.join(HERE, "setup_probe.py")
    times = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run([sys.executable, probe, workload.name, str(wseed)],
                              cwd=ROOT, capture_output=True, text=True, timeout=60, check=True)
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return times


class Runner:
    """Runs and checks experiments of one workload instance."""

    def __init__(self, workload, wseed):
        import numpy as np
        import fedecado.harness as harness
        import oracle

        self.np, self.harness, self.oracle = np, harness, oracle
        self.workload = workload
        self.wseed = wseed
        self.reference = None     # (f_star, f_0, x_star or None)
        self.first_outputs = None

    def run(self, tracer=None):
        """One experiment; untraced runs also record round boundaries."""
        import shutil
        import tempfile
        import traceback

        out_dir = tempfile.mkdtemp(dir=OUT_DIR) if self.workload.writes_outputs else None
        cfg = workloads.experiment_config(self.workload, self.wseed, out_dir)
        marks, loop_end = [], []
        if tracer is None:
            restore = self._mark_rounds(marks, loop_end)
            call = self.harness.run_experiment
        else:
            tracer.install()
            restore, call = tracer.uninstall, tracer.run_experiment
        clock = time.perf_counter
        try:
            t0 = clock()
            result = call(cfg)
            t1 = clock()
        except Exception as exc:  # counted as a failed experiment; the run goes on
            t1 = clock()
            traceback.print_exc()
            result = None
            failures = [f"raised {type(exc).__name__}: {exc}"]
        finally:
            restore()
        try:
            if result is not None:
                failures = self._check(result, self._outputs(result, out_dir))
        finally:
            if out_dir:
                shutil.rmtree(out_dir, ignore_errors=True)
        return {"run_s": t1 - t0, "result": result, "start": t0, "failures": failures,
                "bounds": marks + [loop_end[0] if loop_end else t1]}

    def _mark_rounds(self, marks, loop_end):
        """Timestamp each round start and the loop end; returns the undo."""
        h = self.harness
        sample, to_csv = h.sample_active_set, h.metrics_to_csv
        clock = time.perf_counter

        def marked_sample(*args, **kwargs):
            marks.append(clock())
            return sample(*args, **kwargs)

        def marked_csv(*args, **kwargs):
            loop_end.append(clock())
            return to_csv(*args, **kwargs)

        h.sample_active_set, h.metrics_to_csv = marked_sample, marked_csv

        def restore():
            h.sample_active_set, h.metrics_to_csv = sample, to_csv
        return restore

    def _outputs(self, result, out_dir):
        if out_dir is None:
            return (self.harness.metrics_to_csv(result.metrics_rows),
                    self.harness.trace_to_csv(result.step_records))
        texts = []
        for name in ("metrics.csv", "trace.csv"):
            with open(os.path.join(out_dir, name), "rb") as fh:
                texts.append(fh.read())
        return tuple(texts)

    def _ensure_reference(self, result):
        if self.reference is not None:
            return
        np, oracle = self.np, self.oracle
        kind = result.config.objective["kind"]
        f_star = oracle.cached_optimum(CACHE_DIR, self.workload.name, self.wseed, kind,
                                       result.objectives, result.weights)
        f_0 = oracle.weighted_loss(result.objectives, result.weights, result.x_init)
        x_star = None
        if kind == "quadratic":
            x_star = oracle.quadratic_minimizer(result.objectives, result.weights)
        self.reference = (f_star, f_0, x_star)

    def rounds_to_target(self, result):
        """First round (1-based) whose relative gap (f_k - f*)/(f_0 - f*) is
        at most the workload's target, or None."""
        f_star, f_0, _ = self.reference
        losses = self.np.array([row["global_loss"] for row in result.metrics_rows])
        hit = self.np.flatnonzero((losses - f_star) / (f_0 - f_star) <= self.workload.target_gap)
        return int(hit[0]) + 1 if len(hit) else None

    def minimizer_distance(self, result):
        x_star = self.reference[2]
        return float(self.np.linalg.norm(result.final_x - x_star) / self.np.linalg.norm(x_star))

    def _check(self, result, outputs):
        np, wl = self.np, self.workload
        bad = []
        try:
            self._ensure_reference(result)
        except self.oracle.OracleError as exc:
            return [f"reference optimum: {exc}"]
        if result.status != wl.expected_status:
            bad.append(f"status {result.status}, expected {wl.expected_status}")
        delta = result.config.params()["delta"]
        worst = max((max(r.eps_c, r.eps_l) for r in result.step_records), default=0.0)
        if worst > delta:
            bad.append(f"accepted step with max(eps_c, eps_l) = {worst:.3e} > delta {delta:g}")
        final_loss = result.metrics_rows[-1]["global_loss"] if result.metrics_rows else float("nan")
        if not np.isfinite(final_loss):
            bad.append("final loss is not finite")
        if wl.minimizer_rtol is not None:
            dist = self.minimizer_distance(result)
            if not dist <= wl.minimizer_rtol:
                bad.append(f"final iterate {dist:.3e} from the minimizer (limit {wl.minimizer_rtol:g})")
        if self.rounds_to_target(result) is None:
            bad.append(f"relative gap never reached {wl.target_gap:g}")
        if self.first_outputs is None:
            self.first_outputs = outputs
        elif outputs != self.first_outputs:
            bad.append("metrics.csv/trace.csv bytes differ from the first repeat")
        for msg in bad:
            print(f"check failed ({wl.name}): {msg}", file=sys.stderr)
        return bad


def _end_to_end(runner, recs, setup_times):
    import resource

    import numpy as np

    # failed experiments still report their figures; pass_share shows the failures
    done = [r for r in recs if r["result"] is not None and runner.reference is not None]
    if not done:
        return {}, {"experiments": len(recs)}
    latencies_ms = np.concatenate([np.diff(r["bounds"]) for r in done]) * 1e3
    rtt = runner.rounds_to_target(done[0]["result"])
    rates = [(len(r["bounds"]) - 1) / (r["bounds"][-1] - r["bounds"][0]) for r in done]
    to_target = [r["bounds"][rtt] - r["start"] if rtt else float("nan") for r in done]
    last = done[0]["result"].metrics_rows[-1]
    accuracy = last.get("accuracy")
    if accuracy is None:
        # quadratics have no labels: 1 - relative distance to the minimizer
        accuracy = max(0.0, 1.0 - runner.minimizer_distance(done[0]["result"]))
    values = {
        "run_s": statistics.median(r["run_s"] for r in done),
        "setup_s": statistics.median(setup_times),
        "rounds_per_s": statistics.median(rates),
        "round_ms_p50": float(np.percentile(latencies_ms, 50)),
        "round_ms_p95": float(np.percentile(latencies_ms, 95)),
        "time_to_target_s": statistics.median(to_target),
        "rounds_to_target": rtt if rtt else float("nan"),
        "final_loss": last["global_loss"],
        "final_accuracy": accuracy,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "pass_share": sum(1 for r in recs if not r["failures"]) / len(recs),
    }
    samples = {"experiments": len(recs), "rounds": int(len(latencies_ms)),
               "run_s_each": [r["run_s"] for r in recs], "setup_s_each": setup_times}
    return values, samples


def _per_layer(runner, tracer, traced, untraced):
    import tracer as tracing

    ok = [rec for rec in traced if not rec["failures"]]
    if not ok:
        return {}, []
    per_exp = [tracing.layer_metrics(tracer, rec["run_id"]) for rec in ok]
    first = per_exp[0]
    result = ok[0]["result"]
    problems = []
    for name, value in first.items():
        if isinstance(value, int) and any(m.get(name) != value for m in per_exp[1:]):
            problems.append(f"count {name} differs between traced repeats")
    if "consensus.accepted_steps" in first and \
            first["consensus.accepted_steps"] != len(result.step_records):
        problems.append(f"traced accepted steps {first['consensus.accepted_steps']} != "
                        f"{len(result.step_records)} step records")
    if "consensus.rejected_trials" in first and \
            first["consensus.rejected_trials"] != sum(r.backtracks for r in result.step_records):
        problems.append("traced rejected trials != sum of step-record backtracks")
    for msg in problems:
        print(f"trace check failed ({runner.workload.name}): {msg}", file=sys.stderr)
    values = {}
    for name, value in first.items():
        values[name] = value if isinstance(value, int) else statistics.median(
            m[name] for m in per_exp)
    values["tracing.overhead_s"] = (statistics.median(r["run_s"] for r in traced)
                                    - statistics.median(r["run_s"] for r in untraced))
    return values, problems


def _declared_units(trace):
    """Metric name -> unit, as BENCHMARK.json declares them."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def _time_left(t_begin, t_start, seconds, next_s):
    """Whether another experiment expected to take next_s seconds still ends
    within the measuring time, and starts before the hard stop."""
    now = time.perf_counter()
    return now - t_start + next_s <= seconds and now - t_begin < HARD_STOP_S


def run_workload(args):
    _checkout_or_exit()
    os.makedirs(OUT_DIR, exist_ok=True)
    workload = workloads.WORKLOADS[args.workload]
    wseed = workload.default_seed if args.workload_seed is None else args.workload_seed
    runner = Runner(workload, wseed)
    env = _environment()
    clock = time.perf_counter
    t_begin = clock()
    extra_problems = []

    if args.trace:
        import tracer as tracing
        tr = tracing.Tracer()
        untraced, traced = [], []
        t_start = clock()
        while not traced or _time_left(t_begin, t_start, args.seconds, pair_s):
            t_pair = clock()
            untraced.append(runner.run())
            rec = runner.run(tracer=tr)
            rec["run_id"] = tr.run_id
            traced.append(rec)
            pair_s = clock() - t_pair
        recs = untraced + traced
        tr.save(os.path.join(OUT_DIR, f"spans-{workload.name}-{wseed}.npz"))
        values, extra_problems = _per_layer(runner, tr, traced, untraced)
        samples = {"experiments": len(recs), "traced": len(traced),
                   "missing_attach_points": sorted(tr.missing)}
    else:
        setup_times = _setup_times(workload, wseed)
        recs = []
        t_start = clock()
        while len(recs) < MIN_REPEATS or _time_left(t_begin, t_start, args.seconds,
                                                    recs[-1]["run_s"]):
            recs.append(runner.run())
        values, samples = _end_to_end(runner, recs, setup_times)

    units = _declared_units(args.trace)
    # a traced run may lack metrics whose attach point is gone, never others
    absent = set(units) - set(values) if values and not args.trace else set()
    extra_problems += [f"metric {name} not produced" for name in sorted(absent)]
    extra_problems += [f"metric {name} not declared" for name in sorted(set(values) - set(units))]
    metrics = {k: {"value": v, "unit": units.get(k, "")} for k, v in values.items()}

    failed = sum(1 for r in recs if r["failures"])
    correct = failed == 0 and not extra_problems and bool(metrics) and all(
        isinstance(m["value"], (int, float)) and m["value"] == m["value"] for m in metrics.values())
    record = {"workload": workload.name, "workload_seed": wseed, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "environment": env,
              "samples": samples, "metrics": metrics, "correct": correct,
              "attempted": len(recs), "failed": failed,
              "failures": [f for r in recs for f in r["failures"]] + extra_problems}
    with open(os.path.join(OUT_DIR, f"record-{workload.name}-{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2)
    print(json.dumps({k: record[k] for k in ("environment", "samples")}))
    print(json.dumps({"correct": correct, "attempted": len(recs), "failed": failed,
                      "metrics": metrics}))
    return 0


def run_all(args):
    """Each workload in its own fresh interpreter, one after another."""
    _checkout_or_exit()
    status = 0
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        if args.workload_seed is not None:
            cmd += ["--workload-seed", str(args.workload_seed)]
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
        sys.stderr.write(done.stderr)
        if done.returncode != 0 or not done.stdout.strip():
            print(f"{name}: exit {done.returncode}")
            status = 1
            continue
        line = json.loads(done.stdout.strip().splitlines()[-1])
        status |= 0 if line["correct"] else 1
        print(f"== {name}: correct={line['correct']} attempted={line['attempted']} "
              f"failed={line['failed']}")
        for metric, m in line["metrics"].items():
            print(f"   {metric:36s} {m['value']:>14.6g} {m['unit']}")
    return status


def main(argv=None):
    args = _parse(argv)
    if args.seconds < 1:
        raise SystemExit("--seconds must be >= 1")
    return run_all(args) if args.workload == "all" else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
