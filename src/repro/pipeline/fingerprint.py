"""Stable content fingerprints for pipeline artifacts.

A fingerprint is a hex SHA-256 digest over a *canonical encoding* of the
inputs that determine an artifact's contents.  The rules fix the cache-key
bug class at the root:

* **configs** contribute every dataclass field, recursively (a clock or
  window change is a different fingerprint, not a stale hit); a config
  is a frozen value, so each config object is digested once and keeps
  its digest (see :func:`fingerprint_config`);
* **schedulers** contribute their registry *version tag* and, for
  pass-based schemes, the per-pass signature chain, so a revised
  algorithm — or a single revised pass — can never be served a previous
  revision's schedule;
* **matrices** contribute either their seeded spec (cheap, identity-stable
  across processes) or, for in-memory matrices with no spec, the actual
  COO payload.

The canonical encoding itself (`_encode`/:func:`fingerprint`/
:func:`fingerprint_config`) lives in
:mod:`repro.scheduling.passes.fingerprint` so the pass pipeline can chain
per-pass digests without importing the pipeline layer; this module
re-exports it and adds the matrix/source rules, which need the format
converters.

Fingerprints are plain strings: hashable, JSON-safe, usable as disk cache
keys and as telemetry attributes.
"""

from __future__ import annotations

import dataclasses
from typing import Any

from ..scheduling.passes.fingerprint import (  # noqa: F401  (re-exports)
    _encode,
    fingerprint,
    fingerprint_config,
)


def fingerprint_matrix(matrix: Any) -> str:
    """Content fingerprint of a COO/CSR/CSC/ELL matrix payload."""
    from ..formats.convert import to_coo

    coo = to_coo(matrix)
    return fingerprint(
        "matrix", coo.shape[0], coo.shape[1], coo.rows, coo.cols, coo.values
    )


def fingerprint_source(source: Any) -> str:
    """Fingerprint of a matrix *source* (spec or in-memory payload).

    Seeded specs (:class:`~repro.matrices.named.MatrixSpec`,
    :class:`~repro.matrices.collection.CorpusSpec`) fingerprint by their
    fields — the matrix is a pure function of the spec, so this is both
    cheap and stable across processes.  Raw matrices fall back to
    :func:`fingerprint_matrix` over their payload.
    """
    if dataclasses.is_dataclass(source) and not isinstance(source, type):
        return fingerprint("spec", type(source).__name__, source)
    return fingerprint_matrix(source)
