"""Internal self-calibration analysis for antenna arrays wired with
transmission lines.

The package covers wiring topologies (trees with a reference antenna),
estimation-accuracy bounds for the unknown RF gains, time-budget
arithmetic and parallel measurement scheduling, noisy measurement
synthesis, exact maximum-likelihood recovery, and experiment drivers
with exhaustive brute-force verification.
"""

from . import errors
from .crlb import (
    DAISY_VS_STAR_LIMIT,
    ScenarioParams,
    budgeted_average_crlb,
    crlb_closed_form,
    crlb_numeric,
    daisy_mean_distance,
    daisy_vs_star_ratio,
    fisher_matrix,
    optimal_reference,
    repetition_budget,
    time_to_collect,
)
from .estimator import (
    GainEstimates,
    estimation_error,
    ml_estimate,
)
from .harness import (
    ExperimentConfig,
    run_snr_sweep,
    sweep_rows_to_csv,
    sweep_rows_to_json,
    validate_config,
    verify_daisy_optimality,
    verify_star_optimality,
    verify_time_bounds,
)
from .simulate import (
    MeasurementSet,
    RfGains,
    draw_gains,
    measurements_from_dict,
    measurements_to_dict,
    synthesize,
)
from .topology import (
    from_edges,
    make_daisy,
    make_star,
    measurement_schedule,
    schedule_to_dict,
    schedule_violations,
    topology_from_dict,
    topology_to_dict,
)

__version__ = "0.1.0"
