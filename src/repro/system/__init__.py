"""The Fig. 9/Fig. 10 sweep runtime: engine models over the paper's
frame-size grid, laid out the way the figures are."""

from .runtime import (
    SweepRow,
    energy_sweep,
    find_crossover,
    format_rows,
    forward_stage_sweep,
    inverse_stage_sweep,
    sweep,
    total_time_sweep,
)

__all__ = [
    "SweepRow", "energy_sweep", "find_crossover", "format_rows",
    "forward_stage_sweep", "inverse_stage_sweep", "sweep", "total_time_sweep",
]
