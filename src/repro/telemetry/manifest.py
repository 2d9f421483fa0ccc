"""Run manifests: the provenance record written next to benchmark output.

A ``BENCH_*.json`` number is only reproducible if you know what produced
it — which commit, which interpreter, which numpy, how many workers, and
which accelerator configurations.  :func:`write_manifest` captures that
alongside the benchmark file as ``<stem>.manifest.json``; every field
degrades gracefully (``None``) when unavailable (e.g. no git binary in
the environment).
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, Optional

from ..config import DEFAULT_CHASON, DEFAULT_SERPENS
from ..knobs import knob
from . import core


def _git_sha() -> Optional[str]:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=os.path.dirname(os.path.abspath(__file__)),
            capture_output=True,
            text=True,
            timeout=5,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else None


#: Runtime knobs folded into :func:`config_hash`: anything that changes
#: what a benchmark *measured* (estimate-tier vs exact-tier, audit and
#: trace sampling overhead) must move the digest so manifests from
#: different fidelity configurations never compare as equal runs.
#: Raw environment strings are hashed (layering: telemetry sits below
#: the estimator, so it must not import the estimator's resolvers).
_HASHED_ENV_KNOBS = ("REPRO_FIDELITY", "REPRO_AUDIT_RATE",
                     "REPRO_TRACE_SAMPLE")


def _fidelity_env() -> Dict[str, Optional[str]]:
    return {name: knob(name).current for name in _HASHED_ENV_KNOBS}


def config_hash() -> str:
    """A stable digest of the configuration a run measured.

    Covers the default accelerator configurations (frozen-dataclass
    reprs list every field, so any config change moves the digest) plus
    the fidelity/audit/trace-sampling environment — an estimate-tier
    bench run hashes differently from an exact-tier one.
    """
    payload = repr(
        (DEFAULT_CHASON, DEFAULT_SERPENS, sorted(_fidelity_env().items()))
    ).encode()
    return hashlib.sha256(payload).hexdigest()[:16]


def build_manifest(
    workers: Optional[int] = None,
    extra: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """Assemble the provenance record for the current process."""
    import numpy

    from ..analysis.runner import corpus_worker_count

    telemetry = core.get()
    manifest: Dict[str, Any] = {
        "created_unix": round(time.time(), 3),
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "argv": sys.argv,
        "config_hash": config_hash(),
        "workers": workers if workers is not None else corpus_worker_count(),
        "telemetry_run_id": telemetry.run_id if telemetry.enabled else None,
        "telemetry_sink": knob(core.TELEMETRY_ENV).current,
        "fidelity_env": _fidelity_env(),
    }
    if extra:
        manifest.update(extra)
    return manifest


def manifest_path_for(bench_json_path: "os.PathLike[str]") -> Path:
    """``BENCH_foo.json`` → ``BENCH_foo.manifest.json``."""
    path = Path(bench_json_path)
    return path.with_name(f"{path.stem}.manifest.json")


def write_manifest(
    bench_json_path: "os.PathLike[str]",
    workers: Optional[int] = None,
    extra: Optional[Dict[str, Any]] = None,
) -> Path:
    """Write the manifest next to a benchmark JSON file; returns its path."""
    target = manifest_path_for(bench_json_path)
    manifest = build_manifest(workers=workers, extra=extra)
    target.write_text(json.dumps(manifest, indent=2) + "\n")
    return target
