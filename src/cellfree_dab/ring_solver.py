"""Ring-topology fully-distributed solver: token-passing of (Q, p).

A single token carrying the K x K aggregate Q and the K-vector p circulates
through the BSs in the order 1, ..., B-1, 0. The visited BS subtracts its
cached contribution, runs one penalty-MM sweep on its local problem, adds its
fresh contribution back, refreshes the FP auxiliaries from the token, and
forwards it. The loop is ``block_driver.run_blocks``, shared with the
centralized baseline. The token is strictly sequential; concurrency exists
only across independent scenario trials.
"""

from __future__ import annotations

from . import block_driver, metrics
from .common import SolutionReport, SolverOptions, initial_beamformers
from .pa_model import PaModel
from .scenario import ChannelSet, SystemConfig

RING_TRACE_COLUMNS = (
    "visit",
    "bs",
    "surrogate_objective",
    "sum_rate",
    "penalty_residual",
    "exchanged_complex_values_cum",
)


def run_ring(channels: ChannelSet, config: SystemConfig, pa: PaModel,
             opts: SolverOptions | None = None) -> SolutionReport:
    """Token-passing solve; ``opts.max_outer`` counts full ring passes."""
    opts = opts or SolverOptions()
    net = block_driver.setup(channels, config, pa, initial_beamformers)
    B, _, K = net.H.shape
    report = block_driver.run_blocks(net, opts, order=[*range(1, B), 0],
                                     fp_period=1,
                                     trace_columns=RING_TRACE_COLUMNS)
    report.counters["exchanged_complex_values"] = metrics.overhead_ring(
        K, report.counters["visits"])
    return report
