"""The runtime-knob registry: every ``REPRO_*`` environment variable.

One declarative table of the environment variables the reproduction
reads, with their defaults and one-line meanings.  ``repro info`` renders
it so an operator can see, in one place, which knobs are set in the
current environment and which are riding their defaults — the same
inventory the EXPERIMENTS.md table documents.

This is the only module that reads the environment.  The 25 numeric
knobs declare their type and bounds beside their default string, and
:meth:`Knob.read` applies one rule to all of them: unset or blank gives
the default; a value that does not parse, or is not finite, warns once
(through :func:`repro.telemetry.warn_once`) and gives the default; a
value outside the bounds warns once and is clamped.  Invalid values
never raise.  The other knobs (paths, the full-corpus flag, the
fidelity tier, tenant weights, the fault plan) have grammars of their
own, which their consumers apply to :attr:`Knob.current`.

The default string is the only place a default is written: code that
needs a numeric default reads :attr:`Knob.default_value`.  The
environment is read on every call, so a knob set between two calls
takes effect at the second.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Union

Number = Union[int, float]


@dataclass(frozen=True)
class Knob:
    """One ``REPRO_*`` environment variable."""

    name: str
    #: Subsystem bucket used to group the ``repro info`` rendering.
    subsystem: str
    #: Human-readable default ("unset" knobs default to ``None``); for a
    #: numeric knob, the string :attr:`default_value` parses.
    default: Optional[str]
    description: str
    #: ``int`` or ``float`` for a numeric knob (see :meth:`read`);
    #: ``None`` when the consumer parses :attr:`current` itself.
    kind: Optional[type] = None
    #: Inclusive bounds :meth:`read` clamps to (``None``: unbounded).
    low: Optional[Number] = None
    high: Optional[Number] = None

    @property
    def current(self) -> Optional[str]:
        """The value set in this process's environment, stripped;
        ``None`` when unset or blank."""
        value = os.environ.get(self.name, "").strip()
        return value or None

    @property
    def effective(self) -> str:
        """What the process will actually use, as a display string."""
        current = self.current
        if current is not None:
            return current
        return self.default if self.default is not None else "unset"

    @property
    def default_value(self) -> Number:
        """A numeric knob's default, parsed by the knob's own type."""
        return self.kind(self.default)

    def read(self) -> Number:
        """A numeric knob's value under the one rule (module docstring)."""
        raw = self.current
        if raw is None:
            return self.default_value
        try:
            value = self.kind(raw)
        except ValueError:
            value = None
        if value is None or (self.kind is float
                             and not math.isfinite(value)):
            what = "an integer" if self.kind is int else "a finite number"
            self._warn(
                f"{self.name}={raw!r} is not {what}; falling back to the "
                f"default {self.default} ({self.description})"
            )
            return self.default_value
        low = -math.inf if self.low is None else self.low
        high = math.inf if self.high is None else self.high
        clamped = min(max(value, low), high)
        if clamped != value:
            self._warn(
                f"{self.name}={raw!r} is outside [{low}, {high}]; "
                f"clamping to {clamped}"
            )
        return clamped

    def _warn(self, message: str) -> None:
        # Function-local: telemetry sits above this module's layer.
        from .telemetry import warn_once

        warn_once(f"invalid_{self.name[len('REPRO_'):].lower()}", message)


#: Every runtime knob, grouped by subsystem in rendering order.
RUNTIME_KNOBS: Tuple[Knob, ...] = (
    # corpus sweeps
    Knob("REPRO_FULL_CORPUS", "corpus", None,
         "set to 1 to run the full 800-matrix corpus, uncapped"),
    Knob("REPRO_CORPUS_COUNT", "corpus", "96",
         "corpus size for the capped sweeps", int, 1, 800),
    Knob("REPRO_CORPUS_NNZ_CAP", "corpus", "40000",
         "per-matrix non-zero cap (0 = uncapped)", int, 0),
    Knob("REPRO_CORPUS_WORKERS", "corpus", "1",
         "corpus-sweep worker processes; 1 is serial, more fan out over "
         "a process pool (deterministic merge)", int, 1),
    Knob("REPRO_DATA_DIR", "corpus", None,
         "directory of real SuiteSparse/SNAP .mtx files to prefer over "
         "synthetic generation"),
    # caches
    Knob("REPRO_SCHEDULE_CACHE_SIZE", "cache", "16",
         "global artifact store's in-memory segmented LRU of schedules, "
         "keyed by schedule fingerprint; 0 disables", int, 0),
    Knob("REPRO_SCHEDULE_CACHE_DIR", "cache", None,
         "on-disk schedule tier in the §3.2 wire format "
         "(<schedule fingerprint>.chsn files)"),
    Knob("REPRO_PIPELINE_CACHE_SIZE", "cache", "64",
         "global artifact store's shared segmented LRU (load/simulate/"
         "metrics/estimate); 0 disables it", int, 0),
    # telemetry
    Knob("REPRO_TELEMETRY", "telemetry", None,
         "JSONL trace path ('-' streams to stderr); unset disables"),
    Knob("REPRO_TRACE_SAMPLE", "telemetry", "1.0",
         "fraction of requests that start a trace (deterministic in "
         "request id)", float, 0.0, 1.0),
    Knob("REPRO_TRACE_CHROME", "telemetry", None,
         "write a Chrome/Perfetto trace-event JSON here when the "
         "telemetry trace closes"),
    Knob("REPRO_PROM_FILE", "telemetry", None,
         "write a Prometheus-style text exposition here when the "
         "telemetry trace closes"),
    # serving
    Knob("REPRO_SERVE_WORKERS", "serving", "4",
         "serving engine worker threads", int, 1),
    Knob("REPRO_SERVE_QUEUE", "serving", "256",
         "admission queue capacity; overload sheds with Rejected "
         "responses", int, 1),
    Knob("REPRO_SERVE_BATCH", "serving", "8",
         "micro-batch limit per dispatch (requests sharing one "
         "(scheme, config) group)", int, 1),
    # fidelity
    Knob("REPRO_FIDELITY", "fidelity", "exact (pipeline) / "
         "estimate (serving)",
         "fidelity tier: exact, estimate (calibrated analytical "
         "estimator) or auto (estimate with exact fallback)"),
    Knob("REPRO_AUDIT_RATE", "fidelity", "0.05",
         "fraction of estimate-tier responses re-run through the exact "
         "simulator; a tolerance violation demotes the scheme to exact",
         float, 0.0, 1.0),
    # sessions
    Knob("REPRO_SESSION_MAX", "sessions", "4096",
         "max concurrent solver sessions per SessionManager; opens "
         "beyond the limit raise SessionError", int, 1),
    Knob("REPRO_SESSION_STATE_BUDGET", "sessions", "67108864",
         "resident-state byte budget per engine; LRU sessions beyond it "
         "are evicted and re-materialized on next use", int, 0),
    Knob("REPRO_SESSION_ITER_BATCH", "sessions", "8",
         "solver iterations executed per admitted session work item "
         "(bounds how long one session occupies a worker)", int, 1),
    # tenancy
    Knob("REPRO_TENANT_WEIGHTS", "tenancy", None,
         "per-tenant fair-share weights 'tenant:weight,...'; unlisted "
         "tenants weigh 1.0; malformed values warn and fall back"),
    Knob("REPRO_TENANT_QUOTA", "tenancy", "1.0",
         "per-tenant admission-queue quota as a fraction of capacity "
         "(1.0 disables the per-tenant cap)", float, 0.0, 1.0),
    Knob("REPRO_TENANT_BURN_SHED", "tenancy", "1.0",
         "interactive fast-window burn rate above which batch entries "
         "shed first", float, 0.0),
    # cluster
    Knob("REPRO_CLUSTER_DEVICES", "cluster", "4",
         "simulated devices in the cluster (each its own engine and "
         "private caches)", int, 1),
    Knob("REPRO_CLUSTER_REPLICAS", "cluster", "2",
         "replica-set size per fingerprint (failover/hedging targets "
         "beyond the primary)", int, 1),
    Knob("REPRO_CLUSTER_HEDGE_MS", "cluster", "100",
         "duplicate a request onto a replica after this many ms "
         "outstanding", int, 1),
    Knob("REPRO_CLUSTER_RETRIES", "cluster", "3",
         "submission attempts per request before the last structured "
         "response stands", int, 1),
    Knob("REPRO_CLUSTER_FAULTS", "cluster", None,
         "fault plan 'kind:device[:key=value...],...' with kinds "
         "slow/stall/crash plus seed=N; malformed entries warn and skip"),
    # autoscale
    Knob("REPRO_AUTOSCALE_MIN", "autoscale", "1",
         "autoscaler floor: never drain below this many alive devices",
         int, 1),
    Knob("REPRO_AUTOSCALE_MAX", "autoscale", "8",
         "autoscaler ceiling: never add beyond this many alive devices",
         int, 1),
    Knob("REPRO_AUTOSCALE_INTERVAL", "autoscale", "1.0",
         "seconds between autoscaler control-loop evaluations",
         float, 0.01),
    Knob("REPRO_AUTOSCALE_UP_DEPTH", "autoscale", "8.0",
         "mean queue depth per alive device above which the loop "
         "scales up", float, 0.0),
    Knob("REPRO_AUTOSCALE_DOWN_DEPTH", "autoscale", "1.0",
         "mean queue depth per alive device at or below which the loop "
         "scales down", float, 0.0),
    Knob("REPRO_AUTOSCALE_UP_LATENCY_MS", "autoscale", "0",
         "worst-device EWMA latency (ms) that also triggers scale-up; "
         "0 disables the latency trigger", float, 0.0),
)

_BY_NAME: Dict[str, Knob] = {entry.name: entry for entry in RUNTIME_KNOBS}


def knob(name: str) -> Knob:
    """Look up one knob by environment-variable name."""
    return _BY_NAME[name]


def format_knobs() -> str:
    """The ``repro info`` runtime-knobs section."""
    width = max(len(entry.name) for entry in RUNTIME_KNOBS)
    lines: List[str] = []
    subsystem = None
    for entry in RUNTIME_KNOBS:
        if entry.subsystem != subsystem:
            subsystem = entry.subsystem
            lines.append(f"  [{subsystem}]")
        marker = "*" if entry.current is not None else " "
        default = entry.default if entry.default is not None else "unset"
        lines.append(
            f"  {marker} {entry.name:<{width}s}  "
            f"current={entry.effective}  default={default}"
        )
        lines.append(f"      {entry.description}")
    lines.append("  (* = set in this environment)")
    return "\n".join(lines)
