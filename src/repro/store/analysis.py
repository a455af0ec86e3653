"""Memoized analyses: the pure functions the store caches.

Everything the service serves is a pure function of ``(builder, params,
seed, code version)``:

* **compiled** — the CSR snapshot of the builder's CDAG, served as
  payload bytes (:func:`cached_compiled_payload`);
* **schedule** — a DFS or min-live-set schedule in id space
  (:func:`cached_schedule`);
* **bound** — a lower bound on the CDAG's I/O: the automated
  wavefront/min-cut bound (Lemma 2), the Hong-Kung 2S-partition bound
  (Corollary 1, given a ``U(2S)`` upper bound), or a closed-form
  analytical bound where one exists for the builder family
  (:func:`cached_bound`);
* **spill** — a complete spill-strategy game's move/I/O manifest
  (:func:`cached_spill`, delegating to the harness's
  ``experiment_spill_strategies`` driver).

Each ``cached_*`` function has a ``fresh_*`` counterpart that computes
without touching any store — the randomized differential suite pins
``stored payload == serialize(fresh value)`` byte for byte, and the
store path is exactly ``fresh`` + codec + :class:`ArtifactStore`, so a
cache hit can never drift from a recomputation.  A miss computes from
a fresh build and writes one row: the CDAG must be built either way,
so a stored snapshot could save only the compile.

The builder registry (:data:`BUILDERS`) spans the repo's CDAG zoo:
chains, reduction/broadcast trees, diamonds, d-dimensional stencil
grids, FFT butterflies, pyramids, outer products, dense layers, the
spill star, and the seeded random component forest (the only
seed-sensitive family).

Doctest::

    >>> import tempfile, os
    >>> from repro.store import ArtifactStore, cached_bound
    >>> store = ArtifactStore(os.path.join(tempfile.mkdtemp(), "s.db"))
    >>> bound, hit = cached_bound(store, "chain", {"length": 16}, s=2)
    >>> hit, bound["method"], bound["value"] >= 0
    (False, 'wavefront', True)
    >>> bound2, hit2 = cached_bound(store, "chain", {"length": 16}, s=2)
    >>> hit2 and bound2 == bound
    True
    >>> store.close()
"""

from __future__ import annotations

from typing import Callable, Dict, Mapping, Optional, Tuple

import numpy as np

from ..bounds.analytical import fft_io_lower_bound, outer_product_io
from ..bounds.hong_kung import lower_bound_from_largest_subset
from ..bounds.mincut import automated_wavefront_bound
from ..core import builders as _b
from ..core.cdag import CDAG
from ..core.compiled import CompiledCDAG
from ..core.ordering import dfs_schedule_ids, min_liveset_schedule_ids
from ..evaluation.manifest import canonical_config, dumps_canonical
from ..pebbling.workloads import component_forest_cdag, star_spill_cdag
from .codec import (
    json_from_payload,
    schedule_from_payload,
    serialize_compiled,
    serialize_json,
    serialize_schedule,
)
from .db import ArtifactStore
from .keys import artifact_key, code_version

__all__ = [
    "BUILDERS",
    "BuilderDef",
    "MAX_CANDIDATES",
    "MAX_CDAG_SIZE",
    "build_cdag",
    "compiled_spec",
    "schedule_spec",
    "bound_spec",
    "fresh_compiled",
    "fresh_compiled_payload",
    "cached_compiled_payload",
    "fresh_schedule",
    "cached_schedule",
    "fresh_bound",
    "cached_bound",
    "fresh_spill",
    "cached_spill",
    "SCHEDULE_KINDS",
    "BOUND_METHODS",
]


#: Largest CDAG, in vertices + edges, a builder spec may ask for.  The
#: biggest default spec (``grid``) is ~13k by the same count; a chain at
#: the cap took 3 s and 380 MB to build and compile on a 2-core box.
MAX_CDAG_SIZE = 1_000_000
#: Largest ``max_candidates`` a wavefront bound spec takes: a candidate
#: may cost one max-flow, so this caps a bound query's work.
MAX_CANDIDATES = 1024


class BuilderDef:
    """One registered CDAG family: a construction function over
    canonical params (+ seed for the randomized families), the defaults
    merged under caller overrides, and ``size(params)``, an upper bound
    on the CDAG's vertices + edges computed without building it."""

    __slots__ = ("name", "build", "defaults", "size", "seeded")

    def __init__(
        self,
        name: str,
        build: Callable[[Mapping, int], CDAG],
        defaults: Mapping,
        size: Callable[[Mapping], int],
        seeded: bool = False,
    ):
        self.name = name
        self.build = build
        self.defaults = dict(defaults)
        self.size = size
        self.seeded = seeded


def _n(p: Mapping, key: str) -> int:
    """``int(p[key])``, the builders' own conversion.  Every builder
    refuses a size below one, so such a value is a client error here,
    before any lookup (it also cannot cancel a huge one in a bound)."""
    n = int(p[key])
    if n < 1:
        raise ValueError(f"param {key!r} must be >= 1, got {n}")
    return n


def _grid_size(p: Mapping) -> int:
    """``T + 1`` layers of points with at most ``2d + 1`` in-edges each,
    counted ``d`` times: every vertex name and neighbour offset has
    ``d`` coordinates, so a long shape of ones costs that much."""
    shape = [int(x) for x in p["shape"]]
    if any(n < 1 for n in shape):
        raise ValueError(f"param 'shape' entries must be >= 1, got {shape}")
    timesteps = _n(p, "timesteps")
    points = 1
    for n in shape:  # capped, so a long shape never makes a huge int
        points = min(points * n, MAX_CDAG_SIZE + 1)
    d = len(shape)
    return (timesteps + 1 + timesteps * (2 * d + 1)) * points * max(d, 1)


def _butterfly_size(p: Mapping) -> int:
    """``(L + 1) * 2**L`` vertices and ``2L * 2**L`` edges; ``2**L`` is
    clamped at ``2**64``, already far over any cap."""
    log_n = _n(p, "log_n")
    return (3 * log_n + 1) << min(log_n, 64)


BUILDERS: Dict[str, BuilderDef] = {
    "chain": BuilderDef(
        "chain",
        lambda p, seed: _b.chain_cdag(int(p["length"])),
        {"length": 64},
        lambda p: 2 * _n(p, "length") + 1,
    ),
    "chains": BuilderDef(
        "chains",
        lambda p, seed: _b.independent_chains_cdag(
            int(p["num_chains"]), int(p["length"])
        ),
        {"num_chains": 8, "length": 32},
        lambda p: _n(p, "num_chains") * (2 * _n(p, "length") + 1),
    ),
    "tree": BuilderDef(
        "tree",
        lambda p, seed: _b.reduction_tree_cdag(
            int(p["num_leaves"]), int(p["arity"])
        ),
        {"num_leaves": 64, "arity": 2},
        # at most 3N vertices (N leaves, then ceil-halved levels), and
        # one edge fewer
        lambda p: 6 * _n(p, "num_leaves"),
    ),
    "bcast": BuilderDef(
        "bcast",
        lambda p, seed: _b.broadcast_tree_cdag(
            int(p["num_leaves"]), int(p["arity"])
        ),
        {"num_leaves": 64, "arity": 2},
        # levels grow geometrically up to N: under 3N + 1 vertices
        lambda p: 6 * _n(p, "num_leaves") + 2,
    ),
    "diamond": BuilderDef(
        "diamond",
        lambda p, seed: _b.diamond_cdag(int(p["width"]), int(p["depth"])),
        {"width": 16, "depth": 16},
        lambda p: 4 * _n(p, "width") * _n(p, "depth"),
    ),
    "grid": BuilderDef(
        "grid",
        lambda p, seed: _b.grid_stencil_cdag(
            tuple(int(x) for x in p["shape"]), int(p["timesteps"])
        ),
        {"shape": [16, 16], "timesteps": 4},
        _grid_size,
    ),
    "butterfly": BuilderDef(
        "butterfly",
        lambda p, seed: _b.butterfly_cdag(int(p["log_n"])),
        {"log_n": 5},
        _butterfly_size,
    ),
    "pyramid": BuilderDef(
        "pyramid",
        lambda p, seed: _b.pyramid_cdag(int(p["base"])),
        {"base": 16},
        # B(B + 1)/2 vertices, B(B - 1) edges
        lambda p: 2 * _n(p, "base") ** 2,
    ),
    "outer": BuilderDef(
        "outer",
        lambda p, seed: _b.outer_product_cdag(int(p["n"])),
        {"n": 8},
        lambda p: 3 * _n(p, "n") ** 2 + 2 * _n(p, "n"),
    ),
    "dense": BuilderDef(
        "dense",
        lambda p, seed: _b.dense_layer_cdag(
            int(p["num_inputs"]), int(p["num_outputs"])
        ),
        {"num_inputs": 8, "num_outputs": 8},
        lambda p: (_n(p, "num_inputs") + 1) * (_n(p, "num_outputs") + 1),
    ),
    "star_spill": BuilderDef(
        "star_spill",
        lambda p, seed: star_spill_cdag(int(p["ops"]), int(p["degree"])),
        {"ops": 64, "degree": 8},
        lambda p: _n(p, "ops") * (2 * _n(p, "degree") + 1),
    ),
    "forest": BuilderDef(
        "forest",
        lambda p, seed: component_forest_cdag(
            int(p["components"]), int(p["component_size"]), seed=seed
        ),
        {"components": 4, "component_size": 12},
        # every pair i < j of a component may be an edge; each
        # component's own random generator costs about as much to set up
        # as 16 vertices, so a forest of tiny components counts that too
        lambda p: _n(p, "components")
        * (_n(p, "component_size") * (_n(p, "component_size") + 1) // 2
           + 16),
        seeded=True,
    ),
}

SCHEDULE_KINDS = ("dfs", "minlive")
BOUND_METHODS = ("wavefront", "hong_kung", "analytical")


def _resolve(builder: str, params: Optional[Mapping]) -> Tuple[BuilderDef, Dict]:
    if builder not in BUILDERS:
        raise ValueError(
            f"unknown builder {builder!r}; known: {sorted(BUILDERS)}"
        )
    bdef = BUILDERS[builder]
    merged = dict(bdef.defaults)
    for key, value in (params or {}).items():
        if key not in merged:
            raise ValueError(
                f"unknown param {key!r} for builder {builder!r}; "
                f"known: {sorted(merged)}"
            )
        merged[key] = value
    merged = canonical_config(merged)
    size = bdef.size(merged)
    if size > MAX_CDAG_SIZE:
        shown = f"up to {size:,}" if size < 10**15 else "over 10**15"
        raise ValueError(
            f"builder {builder!r} with these params builds {shown} "
            f"vertices + edges, above the {MAX_CDAG_SIZE:,} cap "
            "(MAX_CDAG_SIZE)"
        )
    return bdef, merged


def build_cdag(
    builder: str, params: Optional[Mapping] = None, seed: int = 0
) -> CDAG:
    """Construct the named CDAG family fresh (defaults + overrides)."""
    bdef, merged = _resolve(builder, params)
    return bdef.build(merged, int(seed))


def compiled_spec(
    builder: str, params: Optional[Mapping] = None, seed: int = 0
) -> Dict:
    """The canonical spec mapping content-addressing a builder's CDAG."""
    _, merged = _resolve(builder, params)
    return {"builder": builder, "params": merged, "seed": int(seed)}


def _check_schedule_kind(kind: str) -> None:
    if kind not in SCHEDULE_KINDS:
        raise ValueError(
            f"unknown schedule kind {kind!r}; known: {SCHEDULE_KINDS}"
        )


def schedule_spec(
    builder: str,
    params: Optional[Mapping] = None,
    seed: int = 0,
    kind: str = "dfs",
) -> Dict:
    """The canonical spec mapping content-addressing a schedule."""
    _check_schedule_kind(kind)
    spec = compiled_spec(builder, params, seed)
    spec["schedule"] = kind
    return spec


def bound_spec(
    builder: str,
    params: Optional[Mapping] = None,
    seed: int = 0,
    s: int = 16,
    method: str = "wavefront",
    max_candidates: int = 32,
    u_upper: Optional[float] = None,
) -> Dict:
    """The canonical spec mapping content-addressing a bound; rejects
    arguments no bound is computed for (unknown method, ``s < 1``,
    ``max_candidates`` outside ``[1, MAX_CANDIDATES]``, ``hong_kung``
    without ``u_upper``)."""
    if method not in BOUND_METHODS:
        raise ValueError(
            f"unknown bound method {method!r}; known: {BOUND_METHODS}"
        )
    if int(s) < 1:
        raise ValueError(f"s (fast-memory size) must be >= 1, got {s}")
    spec = compiled_spec(builder, params, seed)
    spec["s"] = int(s)
    spec["method"] = method
    if method == "wavefront":
        if not 1 <= int(max_candidates) <= MAX_CANDIDATES:
            raise ValueError(
                f"max_candidates must be in [1, {MAX_CANDIDATES}] "
                f"(MAX_CANDIDATES), got {max_candidates}"
            )
        spec["max_candidates"] = int(max_candidates)
    if method == "hong_kung":
        if u_upper is None:
            raise ValueError("method 'hong_kung' requires u_upper (a valid "
                             "upper bound on U(2S))")
        spec["u_upper"] = float(u_upper)
    return spec


def _store_meta(kind: str, spec: Mapping) -> Dict:
    return {
        "kind": kind,
        "builder": str(spec.get("builder", "")),
        "seed": int(spec.get("seed", 0)),
        "spec_json": dumps_canonical(canonical_config(spec), indent=None),
        "code_ver": code_version(),
    }


def _get_or_compute(
    store: ArtifactStore, kind: str, spec: Mapping, compute: Callable[[], bytes]
) -> Tuple[bytes, bool]:
    key = artifact_key(kind, spec)
    return store.get_or_compute(key, compute, **_store_meta(kind, spec))


# ----------------------------------------------------------------------
# Compiled snapshots
# ----------------------------------------------------------------------
def fresh_compiled(
    builder: str, params: Optional[Mapping] = None, seed: int = 0
) -> CompiledCDAG:
    """Build + compile the CDAG without touching any store."""
    return build_cdag(builder, params, seed).compiled()


def fresh_compiled_payload(
    builder: str, params: Optional[Mapping] = None, seed: int = 0
) -> bytes:
    return serialize_compiled(fresh_compiled(builder, params, seed))


def cached_compiled_payload(
    store: ArtifactStore,
    builder: str,
    params: Optional[Mapping] = None,
    seed: int = 0,
) -> Tuple[bytes, bool]:
    """``(payload bytes, was_hit)`` for the compiled-snapshot artifact."""
    spec = compiled_spec(builder, params, seed)
    return _get_or_compute(
        store,
        "compiled",
        spec,
        lambda: fresh_compiled_payload(builder, params, seed),
    )


# ----------------------------------------------------------------------
# Schedules
# ----------------------------------------------------------------------
def fresh_schedule(
    builder: str,
    params: Optional[Mapping] = None,
    seed: int = 0,
    kind: str = "dfs",
) -> np.ndarray:
    """A schedule id array computed fresh (``kind`` in
    :data:`SCHEDULE_KINDS`)."""
    _check_schedule_kind(kind)
    c = fresh_compiled(builder, params, seed)
    ids = dfs_schedule_ids(c) if kind == "dfs" \
        else min_liveset_schedule_ids(c)
    return np.asarray(ids, dtype=np.int32)


def cached_schedule(
    store: ArtifactStore,
    builder: str,
    params: Optional[Mapping] = None,
    seed: int = 0,
    kind: str = "dfs",
) -> Tuple[np.ndarray, bool]:
    """``(schedule ids, was_hit)``."""
    spec = schedule_spec(builder, params, seed, kind)

    def compute() -> bytes:
        return serialize_schedule(
            fresh_schedule(builder, params, seed, kind), kind
        )

    payload, hit = _get_or_compute(store, "schedule", spec, compute)
    ids, _meta = schedule_from_payload(payload)
    return ids, hit


# ----------------------------------------------------------------------
# Bounds
# ----------------------------------------------------------------------
def _bound_vertex_json(vertex):
    if vertex is None:
        return None
    if isinstance(vertex, tuple):
        return [_bound_vertex_json(x) for x in vertex]
    return vertex


def fresh_bound(
    builder: str,
    params: Optional[Mapping] = None,
    seed: int = 0,
    s: int = 16,
    method: str = "wavefront",
    max_candidates: int = 32,
    u_upper: Optional[float] = None,
) -> Dict:
    """One lower-bound result as a canonical JSON-safe mapping.

    ``method`` selects the machinery (:data:`BOUND_METHODS`):
    ``"wavefront"`` runs the automated Lemma 2 candidate heuristic with
    exact per-candidate min-cuts; ``"hong_kung"`` applies Corollary 1
    and **requires** ``u_upper`` (a valid upper bound on ``U(2S)`` —
    soundness is the caller's obligation, exactly as in
    :mod:`repro.bounds.hong_kung`); ``"analytical"`` uses the
    closed-form family bound and is available for the ``butterfly`` and
    ``outer`` builders only.  ``s`` must be >= 1 for every method.
    """
    merged = bound_spec(
        builder, params, seed, s, method, max_candidates, u_upper
    )["params"]
    base = {
        "builder": builder,
        "method": method,
        "s": int(s),
        "seed": int(seed),
    }
    if method == "wavefront":
        cdag = build_cdag(builder, params, seed)
        bound = automated_wavefront_bound(
            cdag, int(s), max_candidates=int(max_candidates)
        )
        return {
            **base,
            "value": float(bound.value),
            "wavefront": int(bound.wavefront),
            "vertex": _bound_vertex_json(bound.vertex),
            "max_candidates": int(max_candidates),
        }
    if method == "hong_kung":
        c = fresh_compiled(builder, params, seed)
        num_ops = c.n - int(c.is_input_mask.sum())
        bound = lower_bound_from_largest_subset(
            int(s), num_ops, float(u_upper)
        )
        return {
            **base,
            "value": float(bound.value),
            "num_operations": int(num_ops),
            "u_upper": float(u_upper),
        }
    # analytical
    if builder == "butterfly":
        n = 2 ** int(merged["log_n"])
        return {**base, "value": float(fft_io_lower_bound(n, int(s))),
                "n": n}
    if builder == "outer":
        n = int(merged["n"])
        return {**base, "value": float(outer_product_io(n)), "n": n}
    raise ValueError(
        f"no analytical bound registered for builder {builder!r} "
        "(available: butterfly, outer)"
    )


def cached_bound(
    store: ArtifactStore,
    builder: str,
    params: Optional[Mapping] = None,
    seed: int = 0,
    s: int = 16,
    method: str = "wavefront",
    max_candidates: int = 32,
    u_upper: Optional[float] = None,
) -> Tuple[Dict, bool]:
    """``(bound mapping, was_hit)`` — the service's core query."""
    spec = bound_spec(
        builder, params, seed, s, method, max_candidates, u_upper
    )

    def compute() -> bytes:
        return serialize_json(
            fresh_bound(
                builder,
                params,
                seed,
                s=s,
                method=method,
                max_candidates=max_candidates,
                u_upper=u_upper,
            )
        )

    payload, hit = _get_or_compute(store, "bound", spec, compute)
    return json_from_payload(payload), hit


# ----------------------------------------------------------------------
# Spill-game manifests
# ----------------------------------------------------------------------
def fresh_spill(params: Optional[Mapping] = None, seed: int = 0) -> Dict:
    """One complete spill-strategy game's move/I/O row, computed fresh
    through the harness driver (accepts its parameter set)."""
    from ..evaluation.harness import REGISTRY, make_spec

    spec = make_spec("spill", params, seed=seed)
    rows = REGISTRY["spill"].run(spec.params, spec.seed)
    return rows[0]


#: The builder whose CDAG each spill workload's game plays on.
_SPILL_BUILDERS = {"star": "star_spill", "chains": "chains",
                   "forest": "forest"}


def cached_spill(
    store: ArtifactStore,
    params: Optional[Mapping] = None,
    seed: int = 0,
) -> Tuple[Dict, bool]:
    """``(spill-game row, was_hit)`` — the pebbling-query endpoint.

    The workload's CDAG must pass the builder size cap
    (:data:`MAX_CDAG_SIZE`), checked on the params before any lookup.
    """
    from ..evaluation.harness import make_spec

    cell = make_spec("spill", params, seed=seed)
    workload = cell.params["workload"]
    if workload not in _SPILL_BUILDERS:
        raise ValueError(f"unknown spill workload {workload!r}; known: "
                         f"{sorted(_SPILL_BUILDERS)}")
    builder = _SPILL_BUILDERS[workload]
    # The chains workload calls the builder's ``num_chains`` ``chains``.
    _resolve(builder, {
        key: cell.params["chains" if key == "num_chains" else key]
        for key in BUILDERS[builder].defaults
    })
    spec = {
        "builder": workload,
        "params": dict(cell.params),
        "seed": int(seed),
    }
    payload, hit = _get_or_compute(
        store, "spill", spec, lambda: serialize_json(fresh_spill(params, seed))
    )
    return json_from_payload(payload), hit
