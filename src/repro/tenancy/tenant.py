"""Tenant identity and the per-tenant QoS policy knobs.

A *tenant* is the unit of fairness in the serving layer: every
:class:`~repro.serving.request.SpMVRequest` (and, by inheritance, every
session iteration) carries a tenant id, and the admission queue
schedules and sheds *per tenant* instead of globally.  Requests that
never mention a tenant belong to :data:`DEFAULT_TENANT` — with a single
tenant the weighted-fair queue degenerates to exactly the original
global policy, which is what keeps the single-tenant path byte-stable.

The policy itself is three numbers:

* **weights** (``REPRO_TENANT_WEIGHTS``, ``"name:weight,..."``) — the
  deficit-round-robin service shares.  A tenant absent from the map
  gets :data:`DEFAULT_WEIGHT`.
* **quota** (``REPRO_TENANT_QUOTA``, a fraction of queue capacity) —
  the hard cap on how much of the admission queue one tenant may
  occupy.  ``1.0`` (the default) disables the cap.
* **burn-shed threshold** (``REPRO_TENANT_BURN_SHED``) — when the
  interactive SLO class's fast-window burn rate exceeds this value,
  batch-class entries become preferred shed victims (see
  :mod:`repro.tenancy.fair_queue`).

Garbage in the environment logs one warning and degrades, it never
raises: malformed weights fall back to uniform weights, and the two
numbers follow the numeric-knob rule of :mod:`repro.knobs` (an
unparsable or non-finite value gives the default, an out-of-range one
clamps).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional

from .. import telemetry
from ..knobs import knob

#: The tenant every request without an explicit tenant belongs to.
DEFAULT_TENANT = "default"

#: Weight of tenants not named in ``REPRO_TENANT_WEIGHTS``.
DEFAULT_WEIGHT = 1.0

#: Weights are clamped up to this floor so a mis-configured zero or
#: negative weight throttles a tenant instead of starving it forever
#: (deficit round-robin still visits it every round).
MIN_WEIGHT = 1e-3

WEIGHTS_ENV = "REPRO_TENANT_WEIGHTS"
QUOTA_ENV = "REPRO_TENANT_QUOTA"
BURN_SHED_ENV = "REPRO_TENANT_BURN_SHED"

_WEIGHTS = knob(WEIGHTS_ENV)
_QUOTA = knob(QUOTA_ENV)
_BURN_SHED = knob(BURN_SHED_ENV)

#: Default quota fraction: one tenant may fill the whole queue (the
#: pre-tenancy behavior).
DEFAULT_QUOTA_FRACTION = _QUOTA.default_value

#: Default interactive fast-window burn rate above which batch-class
#: entries shed first.  1.0 = "spending the error budget exactly as
#: fast as it accrues" — the standard paging threshold.
DEFAULT_BURN_SHED = _BURN_SHED.default_value


def normalize_tenant(raw: Optional[str]) -> str:
    """Canonical tenant id: stripped, defaulted when empty/``None``."""
    if raw is None:
        return DEFAULT_TENANT
    tenant = str(raw).strip()
    return tenant if tenant else DEFAULT_TENANT


def parse_tenant_weights(raw: Optional[str] = None) -> Dict[str, float]:
    """Parse ``"alice:3,bob:1"`` into a weight map.

    With no argument, parses ``REPRO_TENANT_WEIGHTS`` from the
    environment.  Invalid input (bad syntax, non-numeric or
    non-positive weight) warns once and falls back to the empty map —
    every tenant then runs at :data:`DEFAULT_WEIGHT`, which is the safe
    degradation.
    """
    if raw is None:
        raw = _WEIGHTS.current
    if not raw or not raw.strip():
        return {}
    weights: Dict[str, float] = {}
    for item in raw.split(","):
        item = item.strip()
        if not item:
            continue
        name, sep, value = item.partition(":")
        name = name.strip()
        if not sep or not name:
            telemetry.warn_once(
                "invalid_tenant_weights",
                f"{WEIGHTS_ENV}={raw!r} is not 'tenant:weight,...'; "
                f"falling back to uniform weights",
            )
            return {}
        try:
            weight = float(value)
        except ValueError:
            telemetry.warn_once(
                "invalid_tenant_weights",
                f"{WEIGHTS_ENV}={raw!r} has a non-numeric weight for "
                f"tenant {name!r}; falling back to uniform weights",
            )
            return {}
        if not math.isfinite(weight) or weight <= 0:
            telemetry.warn_once(
                "invalid_tenant_weights",
                f"{WEIGHTS_ENV}={raw!r} has a non-positive weight for "
                f"tenant {name!r}; falling back to uniform weights",
            )
            return {}
        weights[name] = weight
    return weights


def tenant_quota_fraction() -> float:
    """Configured per-tenant queue-share cap (``REPRO_TENANT_QUOTA``)."""
    return _QUOTA.read()


def tenant_burn_shed_threshold() -> float:
    """Configured burn-shed threshold (``REPRO_TENANT_BURN_SHED``)."""
    return _BURN_SHED.read()


@dataclass(frozen=True)
class TenantPolicy:
    """The resolved per-tenant QoS policy one queue schedules by."""

    #: Explicit tenant weights; tenants not listed get ``default_weight``.
    weights: Mapping[str, float] = field(default_factory=dict)
    default_weight: float = DEFAULT_WEIGHT
    #: Max fraction of queue capacity one tenant may occupy (1.0 = off).
    quota_fraction: float = DEFAULT_QUOTA_FRACTION
    #: Interactive fast-window burn rate above which batch sheds first.
    burn_shed_threshold: float = DEFAULT_BURN_SHED

    def weight(self, tenant: str) -> float:
        """The (floored) DRR weight of ``tenant``."""
        return max(self.weights.get(tenant, self.default_weight),
                   MIN_WEIGHT)

    def quota(self, capacity: int) -> int:
        """The per-tenant entry cap for a queue of ``capacity`` slots.

        Always at least 1 (a tenant can never be locked out entirely)
        and exactly ``capacity`` at the default fraction, which makes
        the quota check coincide with the global capacity check in the
        single-tenant case.
        """
        fraction = min(max(self.quota_fraction, 0.0), 1.0)
        return max(1, int(capacity * fraction)) if fraction < 1.0 \
            else capacity


def policy_from_env() -> TenantPolicy:
    """The :class:`TenantPolicy` the ``REPRO_TENANT_*`` knobs describe."""
    return TenantPolicy(
        weights=parse_tenant_weights(),
        quota_fraction=tenant_quota_fraction(),
        burn_shed_threshold=tenant_burn_shed_threshold(),
    )
