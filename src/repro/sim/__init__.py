"""Cycle-level model of the Chasoň / Serpens datapath (§4).

``execute_schedule`` compiles a schedule into a :class:`ReplayPlan` and
runs it; the unit classes (PE, PEG, memories, Reduction and Rearrange
Units) model the hardware block by block and drive
:mod:`repro.sim.reference`, the walk the plan is tested against.
"""

from .fifo import FifoStream
from .memory import BramXBuffer, ScugBankGroup, UramBank
from .pe import ProcessingElement
from .peg import ProcessingElementGroup
from .reduction import ReductionUnit
from .rearrange import RearrangeUnit
from .trace import PETimeline, ScheduleTrace, trace_grid, trace_schedule
from .engine import (
    CycleBreakdown,
    SpMVExecution,
    estimate_cycles,
    execute_schedule,
)
from .plan import ReplayPlan, compile_plan

__all__ = [
    "FifoStream",
    "BramXBuffer",
    "ScugBankGroup",
    "UramBank",
    "ProcessingElement",
    "ProcessingElementGroup",
    "ReductionUnit",
    "RearrangeUnit",
    "CycleBreakdown",
    "SpMVExecution",
    "estimate_cycles",
    "execute_schedule",
    "ReplayPlan",
    "compile_plan",
    "PETimeline",
    "ScheduleTrace",
    "trace_grid",
    "trace_schedule",
]
