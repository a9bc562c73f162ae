"""Memory-reinforced random walk lab.

Simulation, limit theory, exact small-horizon oracles, and statistical
verification for a family of multidimensional memory-reinforced random
walks and the scalar stochastic approximation processes they reduce to.
"""

from .funcdsl import FuncExpr, parse
from .model import (
    Domain,
    InitialLaw,
    ModelError,
    ModelSpec,
    StepLaw,
    ValidatedModel,
    load_model,
    save_model,
    validate_model,
)
from .presets import build_preset, list_presets
from .simulate import EnsembleStats, FunctionalConfig, ensemble
from .theory import RegimeReport, classify, find_fixed_point

__all__ = [
    "FuncExpr",
    "parse",
    "Domain",
    "InitialLaw",
    "ModelError",
    "ModelSpec",
    "StepLaw",
    "ValidatedModel",
    "load_model",
    "save_model",
    "validate_model",
    "build_preset",
    "list_presets",
    "EnsembleStats",
    "FunctionalConfig",
    "ensemble",
    "RegimeReport",
    "classify",
    "find_fixed_point",
]

__version__ = "0.1.0"
