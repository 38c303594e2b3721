"""Content-addressed on-disk result cache.

Simulation is a pure function of a :class:`~repro.sim.api.RunRequest`, so a
result can be reused whenever the *semantic* inputs match: the workload's
program (its content digest) and warm set, the Table II configuration, the
attack model, the machine, and the run limits.  :func:`cache_key` folds
exactly those into a SHA-256 hex digest.  The workload's name and
description are deliberately excluded, so a renamed but otherwise
identical workload still hits; the configuration's are not.

Entries live under ``<root>/v<SCHEMA_VERSION>/<key[:2]>/<key>.json`` and
hold the serialized metrics with a CRC-32 of their canonical JSON.
``SCHEMA_VERSION`` is part of the key material: bump it whenever the
simulator's timing model changes in a way that should invalidate old
results.  Storage follows :mod:`repro.common.durable`: an entry that is
unreadable or fails its key or checksum check is a miss — the cache can
always be rebuilt by re-running.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from repro.common.durable import BlobStore, JsonlLog, payload_crc32
from repro.sim.api import (
    FAILURE_CANCELLED,
    RunFailure,
    RunMetrics,
    RunOutcome,
    RunRequest,
    _rebrand,
)

#: Bump when RunMetrics serialization or simulator timing semantics change.
#: v2: RunMetrics gained ``termination`` (halted / max_cycles /
#: max_instructions) — v1 entries cannot say whether the run halted.
#: v3: entries carry a ``crc32`` of the canonical metrics JSON, checked on
#: read (a v2 entry with a flipped digit was served as truth).
#: v4: the program enters the key as ``Program.digest``, not as JSON lists.
#: v5: the config, machine and attack model enter as their wire form
#: (``to_dict()``, enums by value), not a second encoding with enums by name.
SCHEMA_VERSION = 5


def cache_key(request: RunRequest) -> str:
    """Stable content hash of a request's semantic inputs.

    ``request.instrumentation`` is deliberately absent: tracing/profiling
    never changes the simulated outcome.  The engine instead bypasses the
    cache entirely for instrumented requests (the trace files must actually
    be produced, and host-dependent ``profile.*`` stats must not be stored).
    The program enters as its :attr:`~repro.isa.program.Program.digest`.
    """
    material = {
        "schema": SCHEMA_VERSION,
        "program": request.workload.program.digest,
        "warm_addresses": request.workload.warm_addresses,
        "max_cycles": request.workload.max_cycles,
        "config": request.config.to_dict(),
        "attack_model": request.attack_model.value,
        "machine": request.machine.to_dict(),
        "check_golden": request.check_golden,
        "max_instructions": request.max_instructions,
    }
    blob = json.dumps(material, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


class ResultCache:
    """Filesystem-backed map from :func:`cache_key` to :class:`RunMetrics`;
    each entry's ``crc32`` of its canonical metrics JSON is checked on read."""

    def __init__(self, root: str | Path = ".repro-cache") -> None:
        self.root = Path(root)
        self._blobs = BlobStore(self.root, version=SCHEMA_VERSION, suffix=".json")

    def path_for(self, key: str) -> Path:
        return self._blobs.path_for(key)

    def get(self, request: RunRequest, key: str) -> RunMetrics | None:
        """The cached metrics for ``request``, or ``None`` on a miss.

        ``key`` must be ``cache_key(request)``: a sweep computes it once per
        cell and hands it to both :meth:`get` and :meth:`put`.  An entry
        whose key or checksum does not match is a miss.  The workload name
        is taken from the request, since the key ignores it (the config and
        attack model are part of the key).
        """
        blob = self._blobs.read(key)
        if blob is None:
            return None
        try:
            entry = json.loads(blob)
            if entry["key"] != key or entry["crc32"] != payload_crc32(entry["metrics"]):
                return None
            metrics = RunMetrics.from_dict(entry["metrics"])
        except (ValueError, KeyError, TypeError):
            return None
        return _rebrand(metrics, request)

    def put(self, request: RunRequest, metrics: RunMetrics, key: str) -> Path:
        """Store ``metrics`` for ``request`` under ``key``, which must be
        ``cache_key(request)``; atomic against readers."""
        payload = metrics.to_dict()
        entry = {"key": key, "schema": SCHEMA_VERSION, "metrics": payload}
        entry["crc32"] = payload_crc32(payload)
        return self._blobs.write(key, json.dumps(entry, sort_keys=True).encode("utf-8"))

    def __contains__(self, request: RunRequest) -> bool:
        return self._blobs.has(cache_key(request))

    def __len__(self) -> int:
        return len(self._blobs)

    def clear(self) -> int:
        """Delete every entry of the current schema; returns the count."""
        return self._blobs.clear()


_DECODERS = {"metrics": RunMetrics.from_dict, "failure": RunFailure.from_dict}


class SweepJournal:
    """Append-only JSONL record of a sweep's terminal outcomes, for resume.

    One JSON object per line::

        {"key": "<cache_key>", "kind": "metrics", "payload": {...RunMetrics...}}
        {"key": "<cache_key>", "kind": "failure", "payload": {...RunFailure...}}

    The journal is keyed by :func:`cache_key`, so it survives request
    reordering and workload renames exactly like the result cache.  After a
    crash or SIGINT, re-running the sweep with the journal loaded
    (``python -m repro sweep --resume``) replays every recorded outcome
    without re-executing its cell.  Failures are journalled too — the
    simulation is deterministic, so a recorded hang/crash would simply
    repeat — **except** ``cancelled`` cells, which never ran and must run
    on resume.

    Unlike the result cache the journal also records failures and works when
    caching is disabled, which is what makes interrupted ``--no-cache``
    sweeps resumable.  It is a :class:`~repro.common.durable.JsonlLog`: a
    torn trailing line (a crash mid-write) is dropped on load, and a corrupt
    record anywhere else raises :class:`~repro.common.durable.CorruptLogError`.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self._log = JsonlLog(self.path)
        self._entries: dict[str, RunOutcome] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def load(self) -> int:
        """Read previously journalled outcomes; returns how many loaded."""
        return self._log.replay(self._apply)

    def _apply(self, record: dict) -> None:
        decode = _DECODERS[record["kind"]]  # an unknown kind is a KeyError
        self._entries[record["key"]] = decode(record["payload"])

    def get(self, key: str) -> RunOutcome | None:
        return self._entries.get(key)

    def record(self, key: str, outcome: RunOutcome) -> None:
        """Journal one terminal outcome (idempotent per key)."""
        if key in self._entries:
            return
        failed = isinstance(outcome, RunFailure)
        if failed and outcome.kind == FAILURE_CANCELLED:
            return  # never ran; must run on resume
        self._entries[key] = outcome
        kind = "failure" if failed else "metrics"
        self._log.append({"key": key, "kind": kind, "payload": outcome.to_dict()})

    def close(self) -> None:
        self._log.close()

    def __enter__(self) -> "SweepJournal":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()
