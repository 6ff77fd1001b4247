"""Distortion-aware beamforming for cell-free massive MIMO downlinks."""

__version__ = "0.1.0"

from .central_solver import run_central
from .common import SolutionReport, SolveMode, SolverOptions
from .pa_model import PaModel
from .ring_solver import run_ring
from .scenario import SystemConfig, desk_profile, full_profile, make_scenario
from .star_solver import run_star

__all__ = [
    "PaModel",
    "SolveMode",
    "SolutionReport",
    "SolverOptions",
    "SystemConfig",
    "desk_profile",
    "full_profile",
    "make_scenario",
    "run_central",
    "run_ring",
    "run_star",
    "__version__",
]
