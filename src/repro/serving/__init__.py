"""The serving layer: a batched, coalescing SpMV request service.

Everything below this package treats one matrix as one batch call; this
package is where the reproduction meets the ROADMAP's "heavy traffic"
north star — concurrent :class:`SpMVRequest` s flow through a bounded
admission queue (priority + deadlines + explicit load shedding), a
micro-batcher groups compatible work, identical in-flight work coalesces
onto one execution, and a thread-pool worker engine drives the shared
:class:`~repro.pipeline.runner.PipelineRunner`.

See ``docs/serving.md`` for the request lifecycle, the coalescing rules,
the shedding policy and the SLO metrics.
"""

from .client import ServingClient, load_request_file, serve_request_file
from .engine import (
    BATCH_ENV,
    QUEUE_ENV,
    WORKERS_ENV,
    ServingEngine,
    Ticket,
    serve_max_batch,
    serve_queue_capacity,
    serve_worker_count,
)
from .queue import AdmissionQueue
from .resident import (
    STATE_BUDGET_ENV,
    ResidentStateStore,
    session_state_budget,
)
from .request import (
    STATUS_ERROR,
    STATUS_EXPIRED,
    STATUS_OK,
    STATUS_REJECTED,
    SpMVRequest,
    SpMVResponse,
    request_from_json,
)
from .slo import latency_percentiles

__all__ = [
    "AdmissionQueue",
    "BATCH_ENV",
    "QUEUE_ENV",
    "STATUS_ERROR",
    "STATUS_EXPIRED",
    "STATUS_OK",
    "STATUS_REJECTED",
    "STATE_BUDGET_ENV",
    "ResidentStateStore",
    "ServingClient",
    "ServingEngine",
    "SpMVRequest",
    "SpMVResponse",
    "Ticket",
    "WORKERS_ENV",
    "latency_percentiles",
    "load_request_file",
    "request_from_json",
    "serve_max_batch",
    "serve_queue_capacity",
    "serve_request_file",
    "serve_worker_count",
    "session_state_budget",
]
