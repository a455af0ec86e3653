"""Run-directory protocol: manifests, metrics, summaries, tolerances.

Every harness cell (one (experiment, params, seed) point of a sweep
grid) executes into its own result directory under the results root::

    results/
      e2_composite/            <- cell label (unique within a grid)
        manifest.json          <- config snapshot + seed + provenance
        metrics.jsonl          <- one canonical-JSON row per metric row,
                                  appended while the cell runs
        timing.json            <- wall-clock info (non-deterministic,
                                  never compared)
        summary.json           <- per-metric aggregates; written last,
                                  atomically — the commit marker

The protocol is crash-safe by construction: ``summary.json`` is written
with a same-directory temp file + ``os.replace`` only after every
metrics row has been appended, so a directory without it is *partial*
(killed mid-cell) and is swept and re-run on ``--resume``.  Everything
that lands in ``metrics.jsonl`` and ``summary.json`` is canonicalized
(sorted keys, tuples as lists, numpy scalars unboxed, no timestamps),
so two runs of the same cell on the same machine produce byte-identical
files — the invariant the crash/resume differential suite pins.

``config_hash`` is the cell identity: the SHA-256 of the canonical JSON
encoding of ``{"experiment", "params", "seed"}``.  It is stable under
dict key reordering and tuple/list spelling (both properties are
hypothesis-tested) and deliberately excludes provenance (git SHA,
package versions, creation time), so re-running an identical config on
a newer checkout still *resumes* rather than re-executing.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence

__all__ = [
    "SCHEMA_VERSION",
    "DEFAULT_REL_TOL",
    "DEFAULT_ABS_TOL",
    "canonical_config",
    "canonical_row",
    "dumps_canonical",
    "config_hash",
    "build_manifest",
    "collect_provenance",
    "write_manifest",
    "read_manifest",
    "append_metrics_row",
    "read_metrics",
    "summarize_rows",
    "write_summary",
    "read_summary",
    "within_tolerance",
    "compare_summaries",
    "compare_rows",
    "MANIFEST_NAME",
    "METRICS_NAME",
    "SUMMARY_NAME",
    "TIMING_NAME",
]

#: schema tag stamped into every manifest and summary
SCHEMA_VERSION = "repro-run/1"

#: default per-metric tolerances for ``reproduce`` (experiments may
#: override per metric; see ``docs/experiments.md``)
DEFAULT_REL_TOL = 1e-9
DEFAULT_ABS_TOL = 1e-12

MANIFEST_NAME = "manifest.json"
METRICS_NAME = "metrics.jsonl"
SUMMARY_NAME = "summary.json"
TIMING_NAME = "timing.json"


# ----------------------------------------------------------------------
# Canonicalization + hashing
# ----------------------------------------------------------------------
#: the exact types that are their own canonical form (a subclass or a
#: numpy scalar takes the general path of :func:`_canon_value`)
_PLAIN = frozenset({str, int, bool, type(None)})


def _canon_value(value, path: str):
    """One JSON-safe canonical value; raises TypeError on anything that
    would not survive a JSON round trip exactly."""
    kind = type(value)
    if kind in _PLAIN or (kind is float and math.isfinite(value)):
        return value
    if kind is dict and all(type(k) is str for k in value):
        return {k: v if type(v) in _PLAIN else _canon_value(v, f"{path}.{k}")
                for k, v in value.items()}
    if kind is list or kind is tuple:
        return [v if type(v) in _PLAIN else _canon_value(v, f"{path}[{i}]")
                for i, v in enumerate(value)]
    # A numpy scalar exists only once numpy is loaded, so a process that
    # never loads it (the fleet controller) never imports it here.
    np = sys.modules.get("numpy")
    if np is not None and isinstance(value,
                                     (np.bool_, np.integer, np.floating)):
        value = value.item()
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        if math.isnan(value) or math.isinf(value):
            raise TypeError(f"non-finite float at {path!r}: {value!r}")
        return value
    if isinstance(value, (list, tuple)):
        return [_canon_value(v, f"{path}[{i}]") for i, v in enumerate(value)]
    if isinstance(value, Mapping):
        out = {}
        for k in value:
            if not isinstance(k, str):
                raise TypeError(f"non-string key at {path!r}: {k!r}")
            out[k] = _canon_value(value[k], f"{path}.{k}")
        return out
    raise TypeError(f"unsupported config value at {path!r}: {value!r}")


def canonical_config(config: Mapping) -> Dict:
    """The canonical (JSON-round-trippable) form of a config mapping.

    Tuples become lists, numpy scalars become python scalars, keys must
    be strings; ``canonical_config`` is idempotent and invariant under
    dict key reordering (the serialized form sorts keys).
    """
    if type(config) is not dict and not isinstance(config, Mapping):
        raise TypeError(f"config must be a mapping, got {type(config).__name__}")
    return _canon_value(config, "$")


def canonical_row(row: Mapping) -> Dict:
    """Canonical form of one metrics row (same rules as configs)."""
    return canonical_config(row)


def dumps_canonical(obj, indent: Optional[int] = 2) -> str:
    """Deterministic JSON text: sorted keys, fixed separators, trailing
    newline.  Identical inputs produce identical bytes on every run."""
    if indent is None:
        return json.dumps(obj, sort_keys=True, separators=(", ", ": "))
    return json.dumps(obj, sort_keys=True, indent=indent) + "\n"


def config_hash(experiment: str, params: Mapping, seed: int) -> str:
    """SHA-256 cell identity over the canonical (experiment, params,
    seed) triple; stable under key reordering and tuple/list spelling."""
    payload = {
        "experiment": str(experiment),
        "params": canonical_config(params),
        "seed": int(seed),
    }
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# ----------------------------------------------------------------------
# Manifests
# ----------------------------------------------------------------------
@functools.lru_cache(maxsize=None)
def _git_head() -> str:
    """The checkout's ``HEAD`` commit, asked of git once per process."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
            cwd=Path(__file__).resolve().parent,
        )
        if out.returncode == 0:
            return out.stdout.strip()
    except OSError:  # pragma: no cover - git missing entirely
        pass
    return "unknown"


def _git_sha() -> str:
    """``REPRO_GIT_SHA`` when set (read on every call), else
    :func:`_git_head`."""
    return os.environ.get("REPRO_GIT_SHA") or _git_head()


def collect_provenance() -> Dict[str, str]:
    """Environment snapshot recorded in manifests (excluded from the
    config hash, so it never forces a re-run)."""
    import time

    import numpy

    return {
        "git_sha": _git_sha(),
        "created_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
    }


def build_manifest(
    experiment: str,
    params: Mapping,
    seed: int,
    label: str,
    provenance: Optional[Mapping[str, str]] = None,
) -> Dict:
    """The full config snapshot written to ``manifest.json`` before a
    cell runs.  ``params`` and ``seed`` round-trip exactly (property
    tested); ``provenance`` is informational only."""
    return {
        "schema": SCHEMA_VERSION,
        "experiment": str(experiment),
        "label": str(label),
        "params": canonical_config(params),
        "seed": int(seed),
        "config_hash": config_hash(experiment, params, seed),
        "provenance": dict(provenance)
        if provenance is not None
        else collect_provenance(),
    }


def write_manifest(run_dir: Path, manifest: Mapping) -> Path:
    path = Path(run_dir) / MANIFEST_NAME
    path.write_text(dumps_canonical(manifest))
    return path


def read_manifest(run_dir: Path) -> Dict:
    return json.loads((Path(run_dir) / MANIFEST_NAME).read_text())


# ----------------------------------------------------------------------
# Metrics rows
# ----------------------------------------------------------------------
def append_metrics_row(run_dir: Path, row: Mapping) -> None:
    """Append one canonical row to ``metrics.jsonl`` (one line per row,
    flushed immediately so a crash loses at most the torn last line —
    which the resume sweep discards along with the whole partial dir)."""
    line = dumps_canonical(canonical_row(row), indent=None)
    with open(Path(run_dir) / METRICS_NAME, "a", encoding="utf-8") as fh:
        fh.write(line + "\n")
        fh.flush()


def read_metrics(run_dir: Path) -> List[Dict]:
    path = Path(run_dir) / METRICS_NAME
    if not path.exists():
        return []
    rows = []
    for line in path.read_text().splitlines():
        if line.strip():
            rows.append(json.loads(line))
    return rows


# ----------------------------------------------------------------------
# Summaries
# ----------------------------------------------------------------------
def _is_numeric(values: Sequence) -> bool:
    return all(isinstance(v, (bool, int, float)) for v in values)


def summarize_rows(rows: Sequence[Mapping]) -> Dict:
    """Deterministic per-metric aggregates over a cell's rows.

    Numeric metrics (bool counts as 0/1) get ``count``/``mean``/``min``
    /``max``; anything else gets the sorted distinct rendered values.
    ``reproduce`` compares these against a regeneration within
    per-metric tolerances.
    """
    metrics: Dict[str, Dict] = {}
    keys = sorted({k for row in rows for k in row})
    for key in keys:
        values = [
            canonical_row({"v": row[key]})["v"] for row in rows if key in row
        ]
        if values and _is_numeric(values):
            nums = [float(v) for v in values]
            metrics[key] = {
                "kind": "numeric",
                "count": len(nums),
                "mean": math.fsum(nums) / len(nums),
                "min": min(nums),
                "max": max(nums),
            }
        else:
            metrics[key] = {
                "kind": "values",
                "count": len(values),
                "values": sorted({dumps_canonical(v, indent=None) for v in values}),
            }
    return {"num_rows": len(rows), "metrics": metrics}


def write_summary(run_dir: Path, summary: Mapping) -> Path:
    """Atomically commit ``summary.json`` (temp file + ``os.replace`` in
    the same directory) — the marker that the cell completed."""
    run_dir = Path(run_dir)
    path = run_dir / SUMMARY_NAME
    tmp = run_dir / (SUMMARY_NAME + ".tmp")
    tmp.write_text(dumps_canonical(summary))
    os.replace(tmp, path)
    return path


def read_summary(run_dir: Path) -> Optional[Dict]:
    """The committed summary, or ``None`` when the cell is partial
    (missing or unparseable ``summary.json``)."""
    path = Path(run_dir) / SUMMARY_NAME
    if not path.exists():
        return None
    try:
        return json.loads(path.read_text())
    except ValueError:
        return None


# ----------------------------------------------------------------------
# Tolerances
# ----------------------------------------------------------------------
def within_tolerance(a: float, b: float, rel: float, abs_: float) -> bool:
    """Symmetric closeness test: ``|a-b| <= abs_ + rel * max(|a|,|b|)``."""
    return abs(a - b) <= abs_ + rel * max(abs(a), abs(b))


def _metric_tol(tolerances: Optional[Mapping], key: str):
    spec = {}
    if tolerances:
        spec = tolerances.get(key, tolerances.get("*", {}))
    return (
        float(spec.get("rel", DEFAULT_REL_TOL)),
        float(spec.get("abs", DEFAULT_ABS_TOL)),
    )


def compare_summaries(
    stored: Mapping,
    fresh: Mapping,
    tolerances: Optional[Mapping] = None,
) -> List[str]:
    """Mismatches between a stored summary and a regenerated one.

    Numeric aggregates compare within the per-metric tolerance
    (``tolerances[key]`` or ``tolerances["*"]``, each a ``{"rel":
    ..., "abs": ...}`` mapping); counts, kinds and non-numeric value
    sets compare exactly.  Returns human-readable mismatch strings
    (empty list = within tolerance).
    """
    problems: List[str] = []
    if stored.get("num_rows") != fresh.get("num_rows"):
        problems.append(
            f"num_rows: stored {stored.get('num_rows')} != "
            f"regenerated {fresh.get('num_rows')}"
        )
    s_metrics = stored.get("metrics", {})
    f_metrics = fresh.get("metrics", {})
    for key in sorted(set(s_metrics) | set(f_metrics)):
        if key not in s_metrics or key not in f_metrics:
            problems.append(f"metric {key!r}: present in only one summary")
            continue
        s, f = s_metrics[key], f_metrics[key]
        if s.get("kind") != f.get("kind") or s.get("count") != f.get("count"):
            problems.append(
                f"metric {key!r}: kind/count changed "
                f"({s.get('kind')}/{s.get('count')} vs "
                f"{f.get('kind')}/{f.get('count')})"
            )
            continue
        if s.get("kind") == "numeric":
            rel, abs_ = _metric_tol(tolerances, key)
            for agg in ("mean", "min", "max"):
                if not within_tolerance(s[agg], f[agg], rel, abs_):
                    problems.append(
                        f"metric {key!r}: {agg} {s[agg]!r} vs {f[agg]!r} "
                        f"outside tolerance (rel={rel}, abs={abs_})"
                    )
        elif s.get("values") != f.get("values"):
            problems.append(
                f"metric {key!r}: value set changed "
                f"({s.get('values')} vs {f.get('values')})"
            )
    return problems


def compare_rows(
    stored_rows: Sequence[Mapping],
    fresh_rows: Sequence[Mapping],
    tolerances: Optional[Mapping] = None,
) -> List[str]:
    """Row-by-row comparison of stored vs regenerated metrics (numeric
    fields within tolerance, everything else exact)."""
    problems: List[str] = []
    if len(stored_rows) != len(fresh_rows):
        return [f"row count {len(stored_rows)} != {len(fresh_rows)}"]
    for i, (s_row, f_row) in enumerate(zip(stored_rows, fresh_rows)):
        s_row = canonical_row(s_row)
        f_row = canonical_row(f_row)
        if set(s_row) != set(f_row):
            problems.append(f"row {i}: key sets differ")
            continue
        for key in sorted(s_row):
            s, f = s_row[key], f_row[key]
            numeric = _is_numeric([s]) and _is_numeric([f])
            if numeric:
                rel, abs_ = _metric_tol(tolerances, key)
                if not within_tolerance(float(s), float(f), rel, abs_):
                    problems.append(
                        f"row {i} metric {key!r}: {s!r} vs {f!r} "
                        f"outside tolerance (rel={rel}, abs={abs_})"
                    )
            elif s != f:
                problems.append(f"row {i} metric {key!r}: {s!r} != {f!r}")
    return problems
