"""Set-up probe, run in a fresh interpreter by run.py: times `import
fedecado` through config load, instance build, partition, compute profiles
and the initial curvature and sensitivity, up to the start of the first
round, then stops the experiment there.

Usage: python3 perfbench/setup_probe.py <workload> <workload-seed>
Prints the set-up time in seconds.
"""

import os
import sys
import time

import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class _FirstRound(Exception):
    """Raised at the first round boundary to end the probe."""


def _stop(*args, **kwargs):
    raise _FirstRound


def main(argv):
    workload = workloads.WORKLOADS[argv[0]]
    seed = int(argv[1])
    sys.path.insert(0, os.path.join(ROOT, "src"))
    t0 = time.perf_counter()
    import fedecado.harness as harness  # imports the fedecado package first

    cfg = workloads.experiment_config(workload, seed)
    harness.sample_active_set = _stop
    try:
        harness.run_experiment(cfg)
    except _FirstRound:
        elapsed = time.perf_counter() - t0
    else:
        raise SystemExit("the experiment finished without starting a round")
    print(repr(elapsed))


if __name__ == "__main__":
    main(sys.argv[1:])
