"""Continuous-time federated learning simulator.

Clients integrate local gradient-flow ODEs over private time windows, each
recorded as a `Trajectory` of checkpoints; a central agent resamples those
trajectories on a shared timescale and reconciles them with an implicit
(Backward-Euler) solve over coupled flow variables, adapting its step size
from local truncation error estimates.  FedAvg, FedProx and FedNova
baselines share the same objectives, partitioner, local integrator and round
loop: every algorithm's clients run the same windows, and only the server
step (consensus round or aggregation rule) differs.
"""

from fedecado.objectives import (
    Dataset,
    LogisticObjective,
    MlpObjective,
    QuadraticObjective,
    load_csv_dataset,
    make_blobs,
    random_quadratic,
)
from fedecado.partition import Partition, dirichlet_partition, iid_partition
from fedecado.clients import (
    ClientConfig,
    DivergenceError,
    Trajectory,
    sample_heterogeneity,
    simulate_local,
)
from fedecado.consensus import (
    FlowState,
    StepControlError,
    adaptive_step,
    be_step,
    build_sensitivity,
    consensus_round,
    interp_state,
    lte,
    steady_state_reached,
)
from fedecado.harness import ExperimentConfig, ExperimentResult, run_experiment, sample_active_set

__version__ = "0.1.0"

__all__ = [
    "ClientConfig",
    "Dataset",
    "DivergenceError",
    "ExperimentConfig",
    "ExperimentResult",
    "FlowState",
    "LogisticObjective",
    "MlpObjective",
    "Partition",
    "QuadraticObjective",
    "StepControlError",
    "Trajectory",
    "adaptive_step",
    "be_step",
    "build_sensitivity",
    "consensus_round",
    "dirichlet_partition",
    "iid_partition",
    "interp_state",
    "load_csv_dataset",
    "lte",
    "make_blobs",
    "random_quadratic",
    "run_experiment",
    "sample_active_set",
    "sample_heterogeneity",
    "simulate_local",
    "steady_state_reached",
]
