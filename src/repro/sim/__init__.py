"""Trace-driven SSD simulator (the paper's modified-SSDSim substitute)."""

from .background import BackgroundGCSSD
from .des_ssd import ChipOp, ChipServer, EventDrivenSSD
from .engine import EventEngine, EventHandle
from .host import HostAdapter, HostCompletion, HostRequest
from .logging import CompletionLog, LoggedRequest
from .metrics import LatencyStats, RunResult, percent_improvement
from .request import CompletedRequest, IORequest, OpType, Trace
from .scheduler import HostQueue
from .ssd import SimulatedSSD, replay

__all__ = [
    "IORequest",
    "Trace",
    "OpType",
    "CompletedRequest",
    "LatencyStats",
    "RunResult",
    "percent_improvement",
    "HostQueue",
    "CompletionLog",
    "LoggedRequest",
    "SimulatedSSD",
    "BackgroundGCSSD",
    "EventEngine",
    "EventHandle",
    "EventDrivenSSD",
    "ChipServer",
    "ChipOp",
    "HostAdapter",
    "HostRequest",
    "HostCompletion",
    "replay",
]
