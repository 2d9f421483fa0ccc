"""The Processing Element Group (§4.2, Fig. 7).

One PEG sits behind each sparse-matrix HBM channel: eight PEs fed by the
eight 64-bit lanes of the 512-bit channel word, a shared BRAM x-buffer,
and (in Chasoň) a Reduction Unit that folds the ScUG banks after streaming
completes.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from ..config import AcceleratorConfig
from ..errors import SimulationError
from ..scheduling.base import ChannelGrid, ScheduledElement
from .memory import BramXBuffer
from .pe import ProcessingElement


class ProcessingElementGroup:
    """Eight PEs plus the PEG-local x buffer."""

    def __init__(self, channel_id: int, config: AcceleratorConfig):
        self.channel_id = channel_id
        self.config = config
        self.x_buffer = BramXBuffer(
            f"ch{channel_id}.xbuf", capacity=config.column_window
        )
        self.pes: List[ProcessingElement] = [
            ProcessingElement(channel_id, pe, config, self.x_buffer)
            for pe in range(config.pes_per_channel)
        ]
        self.cycles_consumed = 0

    def load_x_window(self, window: np.ndarray) -> None:
        self.x_buffer.load_window(window)

    def consume_word(
        self, slots: Sequence[Optional[ScheduledElement]]
    ) -> None:
        """Process one channel beat: slot k drives PE k (§3.2)."""
        if len(slots) != len(self.pes):
            raise SimulationError(
                f"channel word with {len(slots)} lanes for "
                f"{len(self.pes)} PEs"
            )
        for pe, element in zip(self.pes, slots):
            if element is None:
                pe.idle()
            else:
                pe.process(element)
        self.cycles_consumed += 1

    def consume_grid(self, grid: ChannelGrid) -> None:
        """Stream a whole channel data list through the PEG.

        Only occupied slots reach the MACs; idle counters advance from the
        grid's stall accounting so per-slot iteration stays cheap.
        """
        if grid.channel_id != self.channel_id:
            raise SimulationError(
                f"grid of channel {grid.channel_id} streamed into PEG "
                f"{self.channel_id}"
            )
        _, pe_ids, rows, cols, values, origin_channels, origin_pes = (
            grid.element_arrays()
        )
        counts = np.bincount(pe_ids, minlength=len(self.pes))
        for pe_id, pe in enumerate(self.pes):
            lane = pe_ids == pe_id
            if counts[pe_id]:
                # element_arrays is cycle-major, so each lane's slice keeps
                # the per-bank accumulation order of slot-at-a-time replay.
                pe.process_block(
                    rows[lane],
                    cols[lane],
                    values[lane],
                    origin_channels[lane],
                    origin_pes[lane],
                )
            pe.stats.idle_cycles += grid.length - int(counts[pe_id])
        self.cycles_consumed += grid.length

    # -- aggregate statistics -------------------------------------------------

    @property
    def total_macs(self) -> int:
        return sum(pe.stats.macs for pe in self.pes)

    @property
    def total_idle(self) -> int:
        return sum(pe.stats.idle_cycles for pe in self.pes)

    @property
    def shared_fraction(self) -> float:
        shared = sum(pe.stats.shared_accumulations for pe in self.pes)
        total = self.total_macs
        return shared / total if total else 0.0
