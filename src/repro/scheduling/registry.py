"""The scheme registry — the one scheme→scheduler dispatch table.

Every flow that turns a scheme *name* into a scheduler used to carry its
own ``{"crhcs": ...}`` literal; those tables drifted independently (the
CLI knew five schemes, the accelerators two, the SpMM extension one).
This module replaces them all: a scheduler registers itself once, with a
declarative :class:`SchedulerSpec`, and the CLI, the accelerator façades,
the pipeline and the experiment runners all resolve names here.

Registering a new scheduler takes ten lines in its own module::

    from .registry import register_scheme
    from ..config import DEFAULT_SERPENS

    @register_scheme(
        name="my_scheme",
        version="1",
        default_config=DEFAULT_SERPENS,
        power_key="serpens",
        description="what the scheme does",
    )
    def schedule_my_scheme(matrix, config, **kwargs):
        ...

``version`` is the scheduler's *algorithm revision* and is part of every
cache fingerprint (:mod:`repro.pipeline.fingerprint`): bump it when the
scheme's output changes so stale cached schedules cannot be served.
"""

from __future__ import annotations

import difflib
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Tuple

from ..config import AcceleratorConfig
from ..errors import ConfigError
from .passes import validate_pass_name
from .passes.fingerprint import encode, fingerprint_config

#: name → spec; the *only* scheme dispatch table in the code base.
_REGISTRY: Dict[str, "SchedulerSpec"] = {}

#: Pass signatures (and schedule key tails) one spec keeps before it
#: empties that memo.
_SIGNATURE_MEMO = 64

#: Keyword-argument types whose ``repr`` pins their canonical encoding
#: (``1``, ``1.0``, ``True`` and ``"1"`` all read differently).
_SCALARS = (type(None), bool, int, float, str)

#: Modules whose import registers the built-in schemes.
_BUILTIN_MODULES = (
    "row_based",
    "pe_aware",
    "greedy",
    "row_split",
    "crhcs",
)


@dataclass(frozen=True)
class SchedulerSpec:
    """Everything the rest of the system needs to know about a scheme."""

    #: Registry key (also the ``--scheme`` CLI value).
    name: str
    #: ``scheduler(matrix, config, **kwargs) -> TiledSchedule``.
    scheduler: Callable[..., "object"]
    #: Algorithm revision; part of every schedule cache fingerprint.
    version: str
    #: Configuration used when the caller does not supply one (carries
    #: the clock of the placed design the scheme models).
    default_config: AcceleratorConfig
    #: Key into :func:`repro.power.devices.measured_power` for the power
    #: model of the datapath this scheme runs on.
    power_key: str
    #: Accelerator name stamped into :class:`SpMVReport` rows.
    accelerator_name: str = ""
    #: Whether ``scheduler`` accepts a ``report=MigrationReport()``
    #: keyword for migration bookkeeping (CrHCS-family schemes).
    report_kwarg: bool = False
    description: str = ""
    #: The scheme's pass-pipeline composition, as registry spellings
    #: (``"build:pe_aware"``, ``"migrate:crhcs"``, ``"compact"``, …).
    #: Validated at registration; empty for non-pass-based schemes.
    passes: Tuple[str, ...] = ()
    #: ``plan(config, scheduler_kwargs) -> List[SchedulePass]`` — the
    #: instantiated pass list with kwargs resolved (spans defaulted,
    #: thresholds computed).  Present iff ``passes`` is declared; it is
    #: what the pipeline fingerprints and what ``reschedule`` runs.
    plan: Optional[Callable[..., list]] = None
    extra: Tuple[Tuple[str, object], ...] = field(default=())

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigError("a scheduler spec needs a name")
        if not self.version:
            raise ConfigError(f"scheme {self.name!r} needs a version tag")
        if not self.accelerator_name:
            object.__setattr__(self, "accelerator_name", self.name)
        for pass_name in self.passes:
            validate_pass_name(pass_name)
        if self.passes and self.plan is None:
            raise ConfigError(
                f"scheme {self.name!r} declares passes but no plan"
            )
        # Outside the fields, so equality and ``replace`` never see them.
        object.__setattr__(self, "_signatures", {})
        object.__setattr__(self, "_key_tails", {})

    def pass_plan(self, config: AcceleratorConfig, scheduler_kwargs: dict):
        """The instantiated pass list for one (config, kwargs) pair.

        ``report`` and private (``_``-prefixed) keyword arguments are
        side channels, not scheduling parameters — they are stripped
        before the plan sees the kwargs.
        """
        if self.plan is None:
            return None
        return self.plan(config, _plan_kwargs(scheduler_kwargs))

    def pass_signature(
        self, config: AcceleratorConfig, scheduler_kwargs: dict
    ) -> Tuple[Tuple[object, ...], ...]:
        """Per-pass digest signatures — folded into schedule cache keys.

        A plan reads only the config and the kwargs :meth:`pass_plan`
        hands it, so the spec memoizes each signature on exactly those:
        the config's digest and the kwargs' ``repr`` (a kwarg that is
        not a plain scalar skips the memo).  The memo holds at most
        :data:`_SIGNATURE_MEMO` signatures and is emptied when full.
        """
        if self.plan is None:
            return ()
        clean = _plan_kwargs(scheduler_kwargs)
        memo = self.__dict__["_signatures"]
        key = _memo_key(config, clean)
        signature = memo.get(key)
        if signature is None:
            signature = tuple(p.signature() for p in self.plan(config, clean))
            _remember(memo, key, signature)
        return signature

    def schedule_key_tail(
        self, config: AcceleratorConfig, scheduler_kwargs: dict
    ) -> bytes:
        """The encoded tail of this scheme's schedule keys.

        A schedule key digests the matrix fingerprint, then the scheme's
        name and version, the config's digest, the public (not
        ``_``-prefixed) kwargs and the pass signature.  That tail is a
        pure function of (spec, config, public kwargs), so the spec
        encodes it once (:func:`~repro.scheduling.passes.fingerprint.encode`)
        and memoizes the bytes like :meth:`pass_signature`, on the same
        exact key.
        """
        public = {
            k: scheduler_kwargs[k]
            for k in sorted(scheduler_kwargs)
            if not k.startswith("_")
        }
        memo = self.__dict__["_key_tails"]
        key = _memo_key(config, public)
        tail = memo.get(key)
        if tail is None:
            tail = encode(
                self.name,
                self.version,
                fingerprint_config(config),
                public,
                self.pass_signature(config, scheduler_kwargs),
            )
            _remember(memo, key, tail)
        return tail

    @property
    def clock_mhz(self) -> float:
        """The placed-design clock the scheme's reports are charged at."""
        return self.default_config.frequency_mhz

    def power_watts(self) -> float:
        """Measured runtime power of the modelled platform (§5.3)."""
        from ..power.devices import measured_power

        return measured_power(self.power_key)


def _memo_key(config: AcceleratorConfig, kwargs: dict):
    """The exact memo key of (config, kwargs): the config's digest and
    the kwargs' ``repr``; ``None`` (no memo) unless every kwarg is a
    plain scalar."""
    if all(type(value) in _SCALARS for value in kwargs.values()):
        return (
            fingerprint_config(config),
            tuple((k, repr(kwargs[k])) for k in sorted(kwargs)),
        )
    return None


def _remember(memo: dict, key, value) -> None:
    """Keep ``value`` under ``key`` (not when ``None``), emptying a full
    memo first."""
    if key is not None:
        if len(memo) >= _SIGNATURE_MEMO:
            memo.clear()
        memo[key] = value


def _plan_kwargs(scheduler_kwargs: dict) -> dict:
    """The kwargs a plan sees: no ``report``, nothing ``_``-prefixed."""
    return {
        k: v
        for k, v in scheduler_kwargs.items()
        if k != "report" and not k.startswith("_")
    }


def register(spec: SchedulerSpec) -> SchedulerSpec:
    """Register a spec, rejecting duplicate names."""
    if spec.name in _REGISTRY:
        raise ConfigError(f"scheme {spec.name!r} is already registered")
    _REGISTRY[spec.name] = spec
    return spec


def register_scheme(
    name: str,
    version: str,
    default_config: AcceleratorConfig,
    power_key: str,
    accelerator_name: str = "",
    report_kwarg: bool = False,
    description: str = "",
    passes: Tuple[str, ...] = (),
    plan: Optional[Callable[..., list]] = None,
):
    """Decorator form of :func:`register` for scheduler functions."""

    def decorate(fn: Callable[..., "object"]) -> Callable[..., "object"]:
        register(
            SchedulerSpec(
                name=name,
                scheduler=fn,
                version=version,
                default_config=default_config,
                power_key=power_key,
                accelerator_name=accelerator_name,
                report_kwarg=report_kwarg,
                description=description,
                passes=tuple(passes),
                plan=plan,
            )
        )
        return fn

    return decorate


def _ensure_builtins() -> None:
    """Import the scheduler modules so their decorators have run."""
    import importlib

    for module in _BUILTIN_MODULES:
        importlib.import_module(f".{module}", package=__package__)


def get_scheme(name: str) -> SchedulerSpec:
    """Resolve a scheme name, with a did-you-mean on typos."""
    spec = _REGISTRY.get(name)
    if spec is None:
        # Import the built-ins only on a miss: every routed request
        # resolves its scheme three times, and five imports cost far
        # more than the lookup itself.
        _ensure_builtins()
        spec = _REGISTRY.get(name)
    if spec is not None:
        return spec
    known = sorted(_REGISTRY)
    message = f"unknown scheme {name!r}; registered: {', '.join(known)}"
    close = difflib.get_close_matches(name, known, n=1)
    if close:
        message += f" — did you mean {close[0]!r}?"
    raise ConfigError(message)


def registered_schemes() -> Tuple[str, ...]:
    """All registered scheme names, sorted."""
    _ensure_builtins()
    return tuple(sorted(_REGISTRY))


def iter_schemes() -> Tuple[SchedulerSpec, ...]:
    """All registered specs in name order."""
    _ensure_builtins()
    return tuple(_REGISTRY[name] for name in sorted(_REGISTRY))


def unregister(name: str) -> Optional[SchedulerSpec]:
    """Remove a scheme (test helper); returns the removed spec."""
    return _REGISTRY.pop(name, None)
