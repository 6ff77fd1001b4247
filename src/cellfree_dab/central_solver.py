"""Centralized baseline for the DAB/DUB/IDEAL design-evaluation modes.

The centralized design runs the ring solver's loop
(``block_driver.run_blocks``) with two differences: a pass visits the BSs
in the order 0, ..., B-1, and the FP auxiliaries are refreshed once per pass
instead of after every visit, so every block of a pass ascends the same
transformed objective. A monolithic joint solve over all BSs at once is
deliberately out of scope.
"""

from __future__ import annotations

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


def run_central(channels: ChannelSet, config: SystemConfig, pa: PaModel,
                opts: SolverOptions | None = None) -> SolutionReport:
    """Block-coordinate centralized solve under the design amplifier ``pa``.

    The DAB, DUB and IDEAL arms differ only in ``pa``: the true amplifier,
    or ``PaModel.ideal()`` for the two distortion-unaware designs.
    """
    opts = opts or SolverOptions()
    net = block_driver.setup(channels, config, pa, initial_beamformers)
    B = net.H.shape[0]
    return block_driver.run_blocks(net, opts, order=range(B), fp_period=B,
                                   trace_columns=CENTRAL_TRACE_COLUMNS)
