"""Durable storage: one append-only JSONL log, one sharded blob store, one rule.

* A **log** (:class:`JsonlLog`) flushes every append.  On read only a torn
  tail is tolerated: the last non-blank line,
  which a crash mid-append can leave half written, is dropped.  A line that
  does not parse, or a record the loader cannot apply, anywhere else raises
  :class:`CorruptLogError` naming the file and the 1-based line.
* A **blob** (:class:`BlobStore`) is written to a temp file in its own
  directory and atomically renamed into place, without fsync.  The codec on
  top checks what it reads; a failed check is a miss, and the content is
  recomputed.
"""

from __future__ import annotations

import json
import os
import tempfile
import zlib
from pathlib import Path
from typing import Callable


class CorruptLogError(ValueError):
    """A log line that is corrupt and is not the torn tail."""

    def __init__(self, source: object, line: int) -> None:
        super().__init__(f"{source}:{line}: corrupt record (not a torn tail)")
        self.source = source
        self.line = line


def _replay_lines(text: str, source: object, apply: Callable[[dict], object]) -> int:
    """Feed each JSON line of ``text`` to ``apply``; returns how many applied.

    Blank lines are skipped.  A line that does not parse, or that ``apply``
    rejects with ``KeyError``/``TypeError``/``ValueError``, is dropped as a
    torn tail when it is the last non-blank line and raises
    :class:`CorruptLogError` anywhere else.
    """
    lines = [(n, line) for n, line in enumerate(text.split("\n"), 1) if line.strip()]
    for applied, (number, line) in enumerate(lines):
        try:
            apply(json.loads(line))
        except (KeyError, TypeError, ValueError):
            if applied == len(lines) - 1:
                return applied
            raise CorruptLogError(source, number) from None
    return len(lines)


class JsonlLog:
    """An append-only file of JSON lines (see the module docstring)."""

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self._fh = None

    def append(self, record: dict) -> None:
        if self._fh is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._fh = self.path.open("a")
            # Cut a torn last line (reads drop it anyway), so the next record
            # does not land on the same line and turn it into corruption.
            with self.path.open("r+b") as fh:
                data = fh.read()
                if data and not data.endswith(b"\n"):
                    fh.truncate(data.rfind(b"\n") + 1)
        self._fh.write(json.dumps(record, sort_keys=True) + "\n")
        self._fh.flush()

    def replay(self, apply: Callable[[dict], object]) -> int:
        """:func:`_replay_lines` over the file (a missing one applies nothing)."""
        try:
            # Undecodable bytes become U+FFFD and fail to parse like any
            # other corrupt line.
            text = self.path.read_text(encoding="utf-8", errors="replace")
        except FileNotFoundError:
            return 0
        return _replay_lines(text, self.path, apply)

    def read(self) -> list:
        records: list = []
        self.replay(records.append)
        return records

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None


class BlobStore:
    """Files under ``<root>/v<version>/<key[:2]>/<key><suffix>``: a version
    bump orphans old entries instead of misreading them."""

    def __init__(self, root: str | Path, *, version: int, suffix: str) -> None:
        self.root = Path(root)
        self._dir = self.root / f"v{version}"
        self._suffix = suffix

    def path_for(self, key: str) -> Path:
        return self._dir / key[:2] / f"{key}{self._suffix}"

    def write(self, key: str, data: bytes) -> Path:
        """Store ``data`` under ``key``; atomic against readers."""
        path = self.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp_name = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(data)
            os.replace(tmp_name, path)
        except BaseException:
            Path(tmp_name).unlink(missing_ok=True)
            raise
        return path

    def read(self, key: str) -> bytes | None:
        """The stored bytes, or ``None`` for a missing or unreadable file."""
        try:
            return self.path_for(key).read_bytes()
        except OSError:
            return None

    def has(self, key: str) -> bool:
        return self.path_for(key).exists()

    def __len__(self) -> int:
        return sum(1 for _ in self._dir.glob(f"*/*{self._suffix}"))

    def clear(self) -> int:
        """Delete every entry of this version; returns the count."""
        entries = list(self._dir.glob(f"*/*{self._suffix}"))
        for entry in entries:
            entry.unlink(missing_ok=True)
        return len(entries)


def payload_crc32(payload: object) -> int:
    """CRC-32 of a JSON payload's canonical form (sorted keys, no spaces),
    stored beside the payload so a reader detects corruption that still
    parses as JSON."""
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return zlib.crc32(canonical.encode("utf-8")) & 0xFFFFFFFF
