"""Canonical content fingerprints (the hashing core of the repo).

A fingerprint is a hex SHA-256 digest over a *canonical encoding* of the
inputs that determine an artifact's contents.  The encoder lives here —
at the bottom of the scheduling layer — because the pass pipeline chains
a digest through every :class:`~repro.scheduling.passes.base.SchedulePass`
(upstream digest + pass config + pass version) and the pipeline layer
re-exports the same functions for whole-artifact fingerprints
(:mod:`repro.pipeline.fingerprint` is a thin shim over this module).

The rules fix the cache-key bug class at the root:

* **configs** contribute every dataclass field, recursively (a clock or
  window change is a different fingerprint, not a stale hit);
* **passes** contribute their version tag and resolved parameters, so a
  revised pass can never be served a previous revision's artifact;
* **tiles** contribute their bases and the actual COO payload, so an
  in-place matrix edit invalidates exactly the tiles it touched.

Fingerprints are plain strings: hashable, JSON-safe, usable as disk cache
keys and as telemetry attributes.
"""

from __future__ import annotations

import dataclasses
import hashlib
from typing import Any

import numpy as np


def _encode(value: Any, h: "hashlib._Hash") -> None:
    """Feed one value into the digest with type-tagged framing."""
    if value is None:
        h.update(b"\x00none")
    elif isinstance(value, bool):
        h.update(b"\x01b" + (b"1" if value else b"0"))
    elif isinstance(value, int):
        h.update(b"\x02i" + str(value).encode())
    elif isinstance(value, float):
        # repr round-trips doubles exactly; 1.0 and 1 stay distinct
        # thanks to the type tag.
        h.update(b"\x03f" + repr(value).encode())
    elif isinstance(value, str):
        h.update(b"\x04s" + value.encode())
    elif isinstance(value, bytes):
        h.update(b"\x05y" + value)
    elif isinstance(value, np.ndarray):
        h.update(b"\x06a" + str(value.dtype).encode()
                 + str(value.shape).encode())
        # The C-order bytes, read through the buffer protocol: no copy
        # of an array that is already contiguous.
        h.update(np.ascontiguousarray(value))
    elif dataclasses.is_dataclass(value) and not isinstance(value, type):
        h.update(b"\x07d" + type(value).__name__.encode())
        for f in dataclasses.fields(value):
            h.update(f.name.encode() + b"=")
            _encode(getattr(value, f.name), h)
    elif isinstance(value, dict):
        h.update(b"\x08m")
        for key in sorted(value, key=repr):
            _encode(key, h)
            _encode(value[key], h)
    elif isinstance(value, (list, tuple)):
        h.update(b"\x09l")
        for item in value:
            _encode(item, h)
    else:
        # Fall back to repr for exotic values; numbers/arrays/dataclasses
        # (everything fingerprints are built from) never reach here.
        h.update(b"\x0ar" + repr(value).encode())
    h.update(b"\x1f")  # field separator


class _Encoding(list):
    """Stands in for a digest: keeps the chunks :func:`_encode` feeds
    (bytes, or arrays read as their buffers when joined)."""

    update = list.append


def encode(*parts: Any) -> bytes:
    """The canonical encoding of ``parts``: the bytes :func:`fingerprint`
    hashes for them."""
    chunks = _Encoding()
    for part in parts:
        _encode(part, chunks)
    return b"".join(chunks)


def fingerprint(*parts: Any, tail: bytes = b"") -> str:
    """Digest an ordered sequence of values into one hex fingerprint.

    ``tail`` is more parts, already encoded (:func:`encode`), hashed
    after ``parts``: ``fingerprint(a, tail=encode(b, c))`` equals
    ``fingerprint(a, b, c)``.
    """
    h = hashlib.sha256()
    for part in parts:
        _encode(part, h)
    h.update(tail)
    return h.hexdigest()


#: Attribute under which a frozen config keeps its own digest.
_CONFIG_DIGEST = "_config_fingerprint"


def fingerprint_config(config: Any) -> str:
    """Fingerprint of an :class:`AcceleratorConfig` *by contents*.

    Covers every field recursively (including the nested
    :class:`HBMConfig`), plus the concrete type name so e.g. a
    ``ChasonConfig`` and a field-identical ``SerpensConfig`` differ.

    A frozen dataclass is a value, so each config object is digested
    once and keeps the digest on itself, outside its fields: the memo is
    exact (keyed on the object, never on ``==``, under which a
    ``frequency_mhz=301`` config equals a ``301.0`` one), lives exactly
    as long as the config, and a race between threads only computes
    the same digest twice.
    """
    digest = getattr(config, "__dict__", {}).get(_CONFIG_DIGEST)
    if digest is None:
        digest = fingerprint("config", config)
        params = getattr(type(config), "__dataclass_params__", None)
        if params is not None and params.frozen and hasattr(
            config, "__dict__"
        ):
            object.__setattr__(config, _CONFIG_DIGEST, digest)
    return digest


def fingerprint_tile(tile: Any, config_fingerprint: str) -> str:
    """The d0 of a tile's pass-digest chain: content + placement + config.

    Covers the tile's bases and window shape as well as the COO payload,
    so two identical payloads at different grid positions never share a
    chain, and an in-place value edit changes exactly the touched tile's
    digest.
    """
    return fingerprint(
        "tile",
        config_fingerprint,
        tile.row_base,
        tile.col_base,
        tile.n_rows,
        tile.n_cols,
        tile.rows,
        tile.cols,
        tile.values,
    )
