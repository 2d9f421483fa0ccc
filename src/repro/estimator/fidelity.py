"""Fidelity-tier and audit-rate resolution (env knobs, warn-once).

Two runtime knobs govern the tiered-fidelity split:

``REPRO_FIDELITY`` — ``exact`` | ``estimate`` | ``auto``
    Which tier an analysis runs through.  ``exact`` is the cycle-level
    simulator (byte-identical to the pre-tier pipeline), ``estimate``
    the calibrated analytical model, ``auto`` picks ``estimate`` when
    the scheme has both a predictor and a calibration entry and falls
    back to ``exact`` otherwise.  The environment variable overrides
    each call site's *default* (the pipeline defaults to ``exact``, the
    serving engine to ``estimate``) but never an explicit argument.

``REPRO_AUDIT_RATE`` — float in [0, 1]
    Fraction of estimate-tier serving responses re-run through the
    exact simulator by the background audit.  Sampling is deterministic
    in the request's work fingerprint so replays audit the same subset.

An invalid tier warns once per process and falls back to the call
site's default; the audit rate follows the numeric-knob rule of
:mod:`repro.knobs`.
"""

from __future__ import annotations

from typing import Optional

from .. import telemetry
from ..errors import ConfigError
from ..knobs import knob

FIDELITY_ENV = "REPRO_FIDELITY"
AUDIT_RATE_ENV = "REPRO_AUDIT_RATE"

#: Valid ``REPRO_FIDELITY`` values.
FIDELITY_TIERS = ("exact", "estimate", "auto")

_FIDELITY = knob(FIDELITY_ENV)
_AUDIT_RATE = knob(AUDIT_RATE_ENV)

#: Default fraction of estimate-tier responses audited through exact.
DEFAULT_AUDIT_RATE = _AUDIT_RATE.default_value


def resolve_fidelity(
    value: Optional[str] = None, default: str = "exact"
) -> str:
    """Resolve the fidelity tier: explicit value > environment > default.

    An invalid explicit ``value`` raises :class:`ConfigError` (caller
    bug); an invalid environment value warns once and falls back.
    """
    if value is not None:
        tier = str(value).strip().lower()
        if tier not in FIDELITY_TIERS:
            raise ConfigError(
                f"invalid fidelity {value!r}; "
                f"expected one of {', '.join(FIDELITY_TIERS)}"
            )
        return tier
    raw = _FIDELITY.current
    if raw is not None:
        tier = raw.lower()
        if tier in FIDELITY_TIERS:
            return tier
        telemetry.warn_once(
            "invalid_fidelity",
            f"{FIDELITY_ENV}={raw!r} is not one of "
            f"{', '.join(FIDELITY_TIERS)}; using {default!r}",
        )
    return default


def resolve_audit_rate(value: Optional[float] = None) -> float:
    """Resolve the audit sampling rate: explicit > environment > default.

    An explicit value is clamped to [0, 1]; the environment value is
    read under the knob rule of :mod:`repro.knobs`.
    """
    if value is not None:
        return min(max(float(value), 0.0), 1.0)
    return _AUDIT_RATE.read()


def audit_draw(work_fingerprint: str) -> float:
    """Deterministic uniform draw in [0, 1) from a work fingerprint."""
    return int(work_fingerprint[:8], 16) / float(16 ** 8)


def should_audit(work_fingerprint: str, rate: float) -> bool:
    """Whether a response with this fingerprint falls in the audit sample."""
    if rate <= 0.0:
        return False
    if rate >= 1.0:
        return True
    return audit_draw(work_fingerprint) < rate
