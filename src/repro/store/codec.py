"""Deterministic (de)serialization of cached artifacts.

Payload bytes are the unit of the store's correctness story: the
differential suite pins ``stored payload == serialize(freshly computed
value)`` byte for byte, so every encoder here must be a pure function of
its input — no timestamps, no dict-order dependence, no compression
nondeterminism.  ``numpy.savez`` is ruled out (zip containers carry
archive metadata); instead arrays travel in a tiny explicit container:

``RPROART1`` magic, an 8-byte little-endian header length, a canonical
JSON header (array names/dtypes/shapes/offsets plus a free-form ``meta``
mapping), then the raw C-contiguous array bytes in header order.

Three artifact families build on it:

* **compiled** — the CSR arrays + id table of a
  :class:`~repro.core.compiled.CompiledCDAG` snapshot
  (:func:`serialize_compiled`; read back only as raw arrays, through
  :func:`unpack_arrays`);
* **schedule** — an int32 id array plus its kind;
* **json** — canonical-JSON values (bound results, spill-game rows).
"""

from __future__ import annotations

import json
from typing import Dict, List, Mapping, Tuple

import numpy as np

from ..core.compiled import CompiledCDAG
from ..evaluation.manifest import canonical_config, dumps_canonical

__all__ = [
    "MAGIC",
    "pack_arrays",
    "unpack_arrays",
    "serialize_compiled",
    "serialize_schedule",
    "schedule_from_payload",
    "serialize_json",
    "json_from_payload",
]

MAGIC = b"RPROART1"


# ----------------------------------------------------------------------
# The array container
# ----------------------------------------------------------------------
def pack_arrays(
    arrays: Mapping[str, np.ndarray], meta: Mapping
) -> bytes:
    """Encode named arrays + a JSON-safe ``meta`` mapping, bytewise
    deterministically (arrays in the given mapping order)."""
    header_arrays = []
    chunks: List[bytes] = []
    offset = 0
    for name, arr in arrays.items():
        arr = np.ascontiguousarray(arr)
        raw = arr.tobytes()
        header_arrays.append(
            {
                "name": str(name),
                "dtype": arr.dtype.str,
                "shape": list(arr.shape),
                "offset": offset,
                "nbytes": len(raw),
            }
        )
        chunks.append(raw)
        offset += len(raw)
    header = dumps_canonical(
        {"arrays": header_arrays, "meta": canonical_config(meta)},
        indent=None,
    ).encode("utf-8")
    return b"".join(
        [MAGIC, len(header).to_bytes(8, "little"), header, *chunks]
    )


def unpack_arrays(payload: bytes) -> Tuple[Dict[str, np.ndarray], Dict]:
    """Decode a :func:`pack_arrays` payload into ``(arrays, meta)``.

    Arrays are zero-copy read-only views over the payload; raises
    ``ValueError`` on a bad magic, truncated header, or truncated body
    (the store treats that as corruption and recomputes).
    """
    if payload[: len(MAGIC)] != MAGIC:
        raise ValueError("bad artifact magic")
    pos = len(MAGIC)
    header_len = int.from_bytes(payload[pos : pos + 8], "little")
    pos += 8
    header_raw = payload[pos : pos + header_len]
    if len(header_raw) != header_len:
        raise ValueError("truncated artifact header")
    header = json.loads(header_raw.decode("utf-8"))
    body = memoryview(payload)[pos + header_len :]
    arrays: Dict[str, np.ndarray] = {}
    for spec in header["arrays"]:
        start, nbytes = spec["offset"], spec["nbytes"]
        raw = body[start : start + nbytes]
        if len(raw) != nbytes:
            raise ValueError(f"truncated artifact array {spec['name']!r}")
        arr = np.frombuffer(raw, dtype=np.dtype(spec["dtype"]))
        arrays[spec["name"]] = arr.reshape(spec["shape"])
    return arrays, header["meta"]


# ----------------------------------------------------------------------
# Compiled CDAG snapshots
# ----------------------------------------------------------------------
def _vertex_to_json(v):
    if isinstance(v, tuple):
        return [_vertex_to_json(x) for x in v]
    return v


def serialize_compiled(c: CompiledCDAG) -> bytes:
    """A compiled snapshot as one deterministic payload.

    The CSR arrays, degree vectors and input/output masks travel as raw
    arrays; the id -> vertex-name table travels in the JSON header
    (tuples spelled as lists).  Derived caches (topological order,
    adjacency matrices, the wavefront solver) are *not* stored.
    """
    return pack_arrays(
        {
            "succ_indptr": c.succ_indptr,
            "succ_indices": c.succ_indices,
            "pred_indptr": c.pred_indptr,
            "pred_indices": c.pred_indices,
            "in_degree": c.in_degree,
            "out_degree": c.out_degree,
            "is_input_mask": c.is_input_mask,
            "is_output_mask": c.is_output_mask,
        },
        {
            "artifact": "compiled",
            "name": c.name,
            "n": c.n,
            "m": c.m,
            "verts": [_vertex_to_json(v) for v in c._verts],
        },
    )


# ----------------------------------------------------------------------
# Schedules
# ----------------------------------------------------------------------
def serialize_schedule(ids: np.ndarray, kind: str) -> bytes:
    """A schedule (vertex-id order) as one deterministic payload."""
    ids = np.asarray(ids, dtype=np.int32)
    return pack_arrays(
        {"ids": ids},
        {"artifact": "schedule", "kind": str(kind), "length": int(ids.size)},
    )


def schedule_from_payload(payload: bytes) -> Tuple[np.ndarray, Dict]:
    """Rehydrate a schedule payload into ``(ids, meta)``."""
    arrays, meta = unpack_arrays(payload)
    if meta.get("artifact") != "schedule":
        raise ValueError(
            f"payload is not a schedule: {meta.get('artifact')!r}"
        )
    return arrays["ids"], meta


# ----------------------------------------------------------------------
# JSON artifacts (bounds, spill-game rows)
# ----------------------------------------------------------------------
def serialize_json(value: Mapping) -> bytes:
    """A canonical-JSON artifact (bound results, spill manifests)."""
    return dumps_canonical(canonical_config(value), indent=None).encode(
        "utf-8"
    )


def json_from_payload(payload: bytes) -> Dict:
    return json.loads(payload.decode("utf-8"))
