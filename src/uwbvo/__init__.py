"""Self-corrective UWB + visual-odometry positioning toolkit.

Estimates a planar track from two complementary sensors: an absolute but
noisy UWB positioning unit and a smooth but drift-prone visual odometer.
The UWB stream is Kalman-filtered independently; at planned stopping points
a stream clusterer denoises the filtered samples into stop estimates, and
cumulative correction vectors realign the odometer whenever the two
technologies disagree. Kalman-fusion baselines, a fault-injecting flight
simulator, accuracy metrics, and a benchmark CLI round out the package.
"""

from .baselines import BaselineKind, avg_fusion, direct_fusion, pozyx_only, run_method
from .clustering import ClusterParams, StopClusterer, StopEstimate, detect_stop, region_gate
from .core import (
    AlignedSample,
    FlightPlan,
    LogFormatError,
    Position2D,
    Sample,
    StreamPair,
    align_streams,
    euclidean,
    read_log,
    write_log,
)
from .ekf import (
    CtraFilter,
    CtraParams,
    ctra_jacobian,
    predict_state,
    run_filter,
)
from .metrics import (
    RunReport,
    StopAccuracy,
    TruthTable,
    compare,
    stop_accuracy,
    trajectory_rmse,
)
from .pipeline import (
    FusedTrack,
    PipelineParams,
    StopDecision,
    StopDetectionFailure,
    corrected_vo,
    mode_select,
    run_pipeline,
    run_pipeline_live,
    update_correction,
)
from .simulate import (
    GroundTruth,
    RaySpec,
    ScaleFaultSpec,
    ScenarioConfig,
    UwbModel,
    VoModel,
    VoSensor,
    best_case_scenario,
    build_truth,
    default_scenario,
    simulate_pair,
    synth_uwb,
    synth_vo,
    worst_case_scenario,
)

__version__ = "0.1.0"
