"""Pseudo-spectral simulation and estimate verification for coupled
third-order dispersive wave systems on a periodic box."""

__version__ = "0.1.0"

from .grid import (
    Grid,
    SpectralField,
    dealias,
    field_from_callable,
    forward,
    inverse,
    l2_norm,
    spectral_derivative,
    zero_field,
)
from .systems import (
    BlowupDetected,
    Feng,
    GearGrimshaw,
    GeneralCoupled,
    HirotaSatsuma,
    NormalForm,
    NotApplicable,
    Sakovich,
    State,
    diagonal_form,
    diagonalize,
    gear_grimshaw_as_general,
    gg_lambda_alpha,
    hs_as_kdv,
    lower,
    nonlinear_rhs,
)
from .solver import (
    PicardReport,
    StepperConfig,
    Trajectory,
    picard_iterate,
    simulate,
)
from .diagnostics import (
    collect,
    record_for,
    sobolev_norm,
)
from .bump import psi, psi_T
from .io import read_snapshot, write_csv, write_snapshot
from .harness import (
    ConfigError,
    ExperimentConfig,
    RunManifest,
    config_from_dict,
    load_config,
    run,
)
from . import bourgain

__all__ = [
    "__version__",
    "Grid", "SpectralField", "dealias", "field_from_callable",
    "forward", "inverse", "l2_norm", "spectral_derivative", "zero_field",
    "BlowupDetected", "Feng", "GearGrimshaw", "GeneralCoupled", "HirotaSatsuma",
    "NormalForm", "NotApplicable", "Sakovich", "State", "diagonal_form", "diagonalize",
    "gear_grimshaw_as_general", "gg_lambda_alpha", "hs_as_kdv",
    "lower", "nonlinear_rhs",
    "PicardReport", "StepperConfig", "Trajectory", "picard_iterate", "simulate",
    "collect", "record_for", "sobolev_norm",
    "psi", "psi_T",
    "read_snapshot", "write_csv", "write_snapshot",
    "ConfigError", "ExperimentConfig", "RunManifest", "config_from_dict",
    "load_config", "run",
    "bourgain",
]
