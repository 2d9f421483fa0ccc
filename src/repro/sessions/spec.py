"""Session specifications and the ``REPRO_SESSION_*`` knobs.

A :class:`SessionSpec` is everything that determines a session's result:
the matrix source, the solver, the scheme + config, and the solver
parameters.  Because a session's resident state is a pure function of
its spec and the number of completed iterations, the spec is also the
re-materialization recipe after a device crash or an eviction — replay
the completed iterations on the new device and the state is
byte-identical to an uninterrupted run.

Service parameters (priority, deadline, SLO class) ride on the spec too
and are inherited by every iteration the session submits.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from ..config import AcceleratorConfig
from ..errors import ConfigError
from ..knobs import knob
from ..pipeline.fingerprint import fingerprint, fingerprint_config
from ..pipeline.stages import LoadStage
from ..scheduling.registry import get_scheme
from ..tenancy import DEFAULT_TENANT

SESSION_MAX_ENV = "REPRO_SESSION_MAX"
ITER_BATCH_ENV = "REPRO_SESSION_ITER_BATCH"

_SESSION_MAX = knob(SESSION_MAX_ENV)
_ITER_BATCH = knob(ITER_BATCH_ENV)


def session_max() -> int:
    """Configured concurrent-session limit (``REPRO_SESSION_MAX``)."""
    return _SESSION_MAX.read()


def session_iter_batch() -> int:
    """Configured iterations per admitted work item
    (``REPRO_SESSION_ITER_BATCH``)."""
    return _ITER_BATCH.read()


@dataclass(frozen=True)
class SessionSpec:
    """Everything that determines one solver session's result."""

    source: Any
    #: A registered solver program: ``power_iteration``, ``cg`` or
    #: ``jacobi`` (see :mod:`repro.sessions.programs`).
    solver: str = "power_iteration"
    scheme: str = "crhcs"
    config: Optional[AcceleratorConfig] = None
    config_overrides: Optional[Dict[str, Any]] = None
    tolerance: float = 1e-8
    max_iterations: int = 200
    #: Solver parameters: ``seed``/``x0`` (power), ``b``/``x0`` (cg),
    #: ``b``/``omega``/``x0`` (jacobi).
    params: Dict[str, Any] = field(default_factory=dict)
    #: Service parameters, inherited by every iteration's request.
    priority: int = 0
    deadline_ms: Optional[float] = None
    slo_class: Optional[str] = None
    #: Tenant the session belongs to — inherited by every iteration's
    #: request, so a session is scheduled under its owner's fair share
    #: exactly like the owner's one-shot traffic.
    tenant: str = DEFAULT_TENANT

    def resolve_config(self) -> AcceleratorConfig:
        """The effective accelerator config for this session."""
        spec = get_scheme(self.scheme)
        config = self.config if self.config is not None \
            else spec.default_config
        if self.config_overrides:
            try:
                config = dataclasses.replace(
                    config, **self.config_overrides
                )
            except TypeError as error:
                raise ConfigError(
                    f"invalid config override for scheme "
                    f"{spec.name!r}: {error}"
                ) from error
        return config

    def work_fingerprint(self) -> str:
        """Routing fingerprint — the *same* digest chain as a one-shot
        :meth:`~repro.serving.request.SpMVRequest.work_fingerprint` for
        this (matrix, scheme, config), so a session lands on the device
        whose caches the one-shot traffic for the same matrix already
        warmed."""
        spec = get_scheme(self.scheme)
        config = self.resolve_config()
        _kind, _label, source_digest = LoadStage.describe(self.source)
        return fingerprint(
            "serve",
            source_digest,
            spec.name,
            spec.version,
            fingerprint_config(config),
        )
