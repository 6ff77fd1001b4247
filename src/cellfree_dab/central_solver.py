"""Centralized baseline plus the DAB/DUB/IDEAL design-evaluation modes.

The centralized design runs the ring solver's loop
(``block_driver.run_blocks``) with two differences: a pass visits the BSs
in the order 0, ..., B-1, and the FP auxiliaries are refreshed once per pass
instead of after every visit, so every block of a pass ascends the same
transformed objective. A monolithic joint solve over all BSs at once is
deliberately out of scope.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import block_driver
from .common import SolutionReport, SolverOptions, initial_beamformers
from .pa_model import PaModel
from .scenario import ChannelSet, SystemConfig

CENTRAL_TRACE_COLUMNS = (
    "visit",
    "bs",
    "surrogate_objective",
    "sum_rate",
    "penalty_residual",
)

MODE_TAGS = ("DAB", "DUB", "IDEAL")


@dataclass(frozen=True)
class SolveMode:
    """Design/evaluation PA pairing for one experiment arm."""

    tag: str
    design_pa: PaModel
    eval_pa: PaModel

    def __post_init__(self):
        if self.tag not in MODE_TAGS:
            raise ValueError(f"unknown mode tag {self.tag!r}")

    @classmethod
    def dab(cls, true_pa: PaModel) -> "SolveMode":
        return cls("DAB", design_pa=true_pa, eval_pa=true_pa)

    @classmethod
    def dub(cls, true_pa: PaModel) -> "SolveMode":
        return cls("DUB", design_pa=PaModel.ideal(), eval_pa=true_pa)

    @classmethod
    def ideal(cls) -> "SolveMode":
        return cls("IDEAL", design_pa=PaModel.ideal(), eval_pa=PaModel.ideal())

    @classmethod
    def from_tag(cls, tag: str, true_pa: PaModel) -> "SolveMode":
        return {"DAB": cls.dab, "DUB": cls.dub}.get(
            tag, lambda _: cls.ideal()
        )(true_pa)


def run_central(channels: ChannelSet, config: SystemConfig,
                opts: SolverOptions | None = None,
                mode: SolveMode | None = None) -> SolutionReport:
    """Block-coordinate centralized solve under ``mode.design_pa``."""
    opts = opts or SolverOptions()
    mode = mode or SolveMode.ideal()
    net = block_driver.setup(channels, config, mode.design_pa, opts,
                             initial_beamformers)
    B = net.H.shape[0]
    return block_driver.run_blocks(net, opts, order=range(B), fp_period=B,
                                   trace_columns=CENTRAL_TRACE_COLUMNS)
