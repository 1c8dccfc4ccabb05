"""Numerical laboratory for torsional stability of a fish-bone bridge model."""

from .hill import (
    ForcedHillCheck,
    HillStabilityReport,
    PureVerticalMode,
    Stability,
    classify,
    forced_check,
    mode_from_energy,
    pure_mode,
)
from .integrator import (
    IntegratorConfig,
    OnsetEvent,
    Scheme,
    Trajectory,
    make_initial,
    simulate,
)
from .model import (
    EnergyBreakdown,
    ModelSpec,
    SystemState,
    Variant,
    energy,
    rhs_m_mode,
    rhs_one_mode,
    vertical_mode_energy,
)
from .threshold import (
    InvalidBracketError,
    SweepRow,
    ThresholdResult,
    find_threshold,
    sweep,
)

__all__ = [
    "EnergyBreakdown",
    "ForcedHillCheck",
    "HillStabilityReport",
    "IntegratorConfig",
    "InvalidBracketError",
    "ModelSpec",
    "OnsetEvent",
    "PureVerticalMode",
    "Scheme",
    "Stability",
    "SweepRow",
    "SystemState",
    "ThresholdResult",
    "Trajectory",
    "Variant",
    "classify",
    "energy",
    "find_threshold",
    "forced_check",
    "make_initial",
    "mode_from_energy",
    "pure_mode",
    "rhs_m_mode",
    "rhs_one_mode",
    "simulate",
    "sweep",
    "vertical_mode_energy",
]

__version__ = "0.1.0"
