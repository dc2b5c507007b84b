"""Power-balance system identification and indirect adaptive control toolkit."""

from .estimator import (GplusDEstimator, GradientEstimator,
                        MonotonicityReport, check_monotonicity)
from .filters import ChannelMode, FirstOrderFilterBank
from .plants import (Controller, PlantModel, Scenario, circuit_scenario,
                     make_scenario, ph_scenario)
from .regressor import (NlpreData, ParamMap, PbepGenerator, RegressorSample,
                        StdLreData, StdLreGenerator)
from .sim import (ControllerKind, EstimatorKind, ExcitationRecord,
                  NonFiniteStateError, RunReport, SimConfig, World,
                  excitation_report, run, step)
from .smallmat import adjugate, determinant, min_eig_symmetric, symmetric_eigen

__all__ = [
    "ChannelMode", "Controller", "ControllerKind", "EstimatorKind",
    "ExcitationRecord", "FirstOrderFilterBank", "GplusDEstimator",
    "GradientEstimator", "MonotonicityReport", "NlpreData",
    "NonFiniteStateError", "ParamMap", "PbepGenerator", "PlantModel",
    "RegressorSample", "RunReport", "Scenario", "SimConfig", "StdLreData",
    "StdLreGenerator", "World", "adjugate", "check_monotonicity",
    "circuit_scenario", "determinant", "excitation_report", "make_scenario",
    "min_eig_symmetric", "ph_scenario", "run", "step", "symmetric_eigen",
]

__version__ = "0.1.0"
