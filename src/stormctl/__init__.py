"""Broadcast storm modelling, detection and suppression toolkit.

Layers, importable a la carte:

  growth      the storm build-up curve and its least-squares fit
  datasets    bundled measurement tables and interpolation
  metrics     channel counters, thresholds, verdict classification
  agents      one detector per broadcast domain, per-node port blocking,
              tickets, suppression policies
  simulation  deterministic broadcast-domain simulator and scenarios
  tracefile   trace, ticket, parameter and scenario file formats
  plotting    dependency-free SVG charts
  cli         the stormctl command
"""

from .agents import (
    AgentConfig,
    AgentFleet,
    CalibrationError,
    Policy,
    StaticAgent,
    ThresholdDb,
    Trigger,
    TriggerCause,
    TroubleTicket,
    replay_elementwise,
)
from .datasets import dataset_names, interpolate, load_trace, table4_hump
from .growth import (
    FitError,
    FitResult,
    PtrArray,
    PtrModelParams,
    TracePoint,
    build_ptr_array,
    eval_ptr,
    fit_model,
    make_params,
    rise_segment,
)
from .metrics import (
    ChannelStats,
    Stage,
    StormClassification,
    TrafficSample,
    Verdict,
    broadcast_ratio,
    classify,
    detect_ipid_loop,
    ipg_shrinkage,
    min_ipg,
    node_bandwidth,
    utilization,
)
from .simulation import (
    Injector,
    NormalBroadcastProfile,
    Scenario,
    ScenarioError,
    SimTrace,
    preset,
    run,
    saturation_cap,
    scenario_presets,
)

__version__ = "0.1.0"

__all__ = [
    "AgentConfig", "AgentFleet", "CalibrationError", "Policy", "StaticAgent",
    "ThresholdDb", "Trigger", "TriggerCause", "TroubleTicket",
    "replay_elementwise",
    "dataset_names", "interpolate", "load_trace", "table4_hump",
    "FitError", "FitResult", "PtrArray", "PtrModelParams", "TracePoint",
    "build_ptr_array", "eval_ptr", "fit_model", "make_params", "rise_segment",
    "ChannelStats", "Stage", "StormClassification", "TrafficSample",
    "Verdict", "broadcast_ratio", "classify", "detect_ipid_loop",
    "ipg_shrinkage", "min_ipg", "node_bandwidth", "utilization",
    "Injector", "NormalBroadcastProfile", "Scenario", "ScenarioError",
    "SimTrace", "preset", "run", "saturation_cap", "scenario_presets",
    "__version__",
]
