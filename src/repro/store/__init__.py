"""Content-addressed artifact store: persistent memoization of the
analysis pipeline.

Every expensive artifact the repo computes — compiled CSR snapshots,
schedules, bound results, spill-game manifests — is a pure function of
``(builder, params, seed, code version)``.  This package caches them in
one SQLite file (WAL mode, ``WITHOUT ROWID`` clustered keys, mmap
reads) under SHA-256 content addresses, so the long-running bound
server (:mod:`repro.service`) answers warm queries without rebuilding
anything.  The store caches answers: a miss computes from a fresh
build, and a stored compiled snapshot is served as bytes, never read
back into a CDAG.

Layers (see ``docs/service.md`` for the full contract):

* :mod:`repro.store.keys` — content addressing + code-version stamping;
* :mod:`repro.store.codec` — deterministic payload (de)serialization;
* :mod:`repro.store.db` — the SQLite engine (integrity-checked reads,
  single-flight recomputation, gc/stats);
* :mod:`repro.store.analysis` — the memoized analyses and the builder
  registry.
"""

from .analysis import (
    BOUND_METHODS,
    BUILDERS,
    SCHEDULE_KINDS,
    build_cdag,
    cached_bound,
    cached_compiled_payload,
    cached_schedule,
    cached_spill,
    compiled_spec,
    fresh_bound,
    fresh_compiled,
    fresh_compiled_payload,
    fresh_schedule,
    fresh_spill,
)
from .codec import (
    json_from_payload,
    pack_arrays,
    schedule_from_payload,
    serialize_compiled,
    serialize_json,
    serialize_schedule,
    unpack_arrays,
)
from .db import ArtifactStore, STORE_SCHEMA_VERSION
from .keys import CODE_VERSION_ENV, artifact_key, code_version

__all__ = [
    "ArtifactStore",
    "STORE_SCHEMA_VERSION",
    "CODE_VERSION_ENV",
    "artifact_key",
    "code_version",
    "pack_arrays",
    "unpack_arrays",
    "serialize_compiled",
    "serialize_schedule",
    "schedule_from_payload",
    "serialize_json",
    "json_from_payload",
    "BUILDERS",
    "BOUND_METHODS",
    "SCHEDULE_KINDS",
    "build_cdag",
    "compiled_spec",
    "fresh_compiled",
    "fresh_compiled_payload",
    "cached_compiled_payload",
    "fresh_schedule",
    "cached_schedule",
    "fresh_bound",
    "cached_bound",
    "fresh_spill",
    "cached_spill",
]
