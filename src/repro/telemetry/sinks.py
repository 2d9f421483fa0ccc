"""Telemetry sinks: where event records go.

Records are plain dicts (see :mod:`repro.telemetry.schema`); a sink's job
is transport only.  Two implementations:

* :class:`JsonlSink` — one JSON object per line, appended to a file
  (``-`` streams to stderr).  Records wait in a bounded batch and are
  serialized, written in order and flushed a batch at a time, so the
  request path pays one list append per record; a killed process can
  lose at most one batch, and what was written is a readable prefix.
* :class:`MemorySink` — records kept in a list, for tests and for the
  per-worker capture of the parallel corpus runner.
"""

from __future__ import annotations

import atexit
import io
import json
import sys
import threading
from typing import Any, Dict, List, Optional


class Sink:
    """Interface: accepts event records, owns its transport."""

    def write(self, record: Dict[str, Any]) -> None:
        raise NotImplementedError

    def flush(self) -> None:
        return None

    def close(self) -> None:
        return None


class MemorySink(Sink):
    """Buffers records in memory (tests, worker capture)."""

    def __init__(self) -> None:
        self.records: List[Dict[str, Any]] = []

    def write(self, record: Dict[str, Any]) -> None:
        self.records.append(record)

    def clear(self) -> None:
        self.records.clear()


class JsonlSink(Sink):
    """Appends one compact JSON object per line to a file or stderr.

    :meth:`write` appends the record to a batch of at most
    :attr:`BATCH_SIZE` records.  A full batch, :meth:`flush`, :meth:`close`
    and process exit each serialize the batch, write its lines in the
    order the records came and flush the stream.  The records are
    serialized when their batch is written, so a record must not change
    after it is written to the sink (the registry builds a new one per
    emission).
    """

    #: Records held before a write.
    BATCH_SIZE = 256

    _encode = json.JSONEncoder(separators=(",", ":")).encode

    def __init__(self, target: str):
        self.target = target
        self._owns_stream = target != "-"
        self._stream: Optional[io.TextIOBase] = None
        self._batch: List[Dict[str, Any]] = []
        # Writers append under the registry's lock, but a flush may
        # come from any thread; this lock keeps the batches in order.
        self._lock = threading.Lock()
        atexit.register(self.flush)

    def _ensure_stream(self) -> io.TextIOBase:
        if self._stream is None:
            if self.target == "-":
                self._stream = sys.stderr
            else:
                self._stream = open(self.target, "a", encoding="utf-8")
        return self._stream

    def _write_batch(self) -> None:
        """Serialize and write the batch, then flush (under the lock)."""
        batch, self._batch = self._batch, []
        if batch:
            stream = self._ensure_stream()
            stream.write("".join(self._encode(r) + "\n" for r in batch))
            stream.flush()

    def write(self, record: Dict[str, Any]) -> None:
        with self._lock:
            self._batch.append(record)
            if len(self._batch) >= self.BATCH_SIZE:
                self._write_batch()

    def flush(self) -> None:
        with self._lock:
            self._write_batch()
            if self._stream is not None:
                self._stream.flush()

    def close(self) -> None:
        with self._lock:
            self._write_batch()
            if self._stream is not None and self._owns_stream:
                self._stream.close()
            self._stream = None
