"""Content-addressed on-disk trace store, kept alongside the result cache.

Entries are :class:`~repro.common.durable.BlobStore` blobs under
``<root>/v<TRACE_SCHEMA_VERSION>/<key[:2]>/<key>.trace``, keyed by
:func:`~repro.replay.trace.trace_key`.  The format's length header and CRC
are the check on read: a torn, truncated, or corrupt file is a **miss**,
never a wrong trace, and the caller then records afresh or runs live.
"""

from __future__ import annotations

from pathlib import Path

from repro.common.durable import BlobStore
from repro.replay.trace import (
    TRACE_SCHEMA_VERSION,
    ArchTrace,
    TraceFormatError,
)


class TraceStore:
    """Filesystem map from :func:`~repro.replay.trace.trace_key` to
    :class:`ArchTrace`."""

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self._blobs = BlobStore(self.root, version=TRACE_SCHEMA_VERSION, suffix=".trace")

    def path_for(self, key: str) -> Path:
        return self._blobs.path_for(key)

    def get(self, key: str) -> ArchTrace | None:
        """The stored trace, or ``None`` on a miss *or* any detectable
        corruption (torn write, truncation, checksum failure)."""
        blob = self._blobs.read(key)
        if blob is None:
            return None
        try:
            return ArchTrace.from_bytes(blob)
        except TraceFormatError:
            return None

    def put(self, key: str, trace: ArchTrace) -> Path:
        """Store ``trace`` under ``key``; atomic against readers."""
        return self._blobs.write(key, trace.to_bytes())

    def has(self, key: str) -> bool:
        return self._blobs.has(key)

    def __len__(self) -> int:
        return len(self._blobs)
