"""Manifest-driven experiment harness: declarative grids, resume, reproduce.

:data:`REGISTRY` is the one definition of every experiment: its
params, their defaults (which also fix each param's type) and its
tolerances.  The ``experiment_*`` drivers take every param as a
keyword and have no defaults of their own.  Every entry point (a
grid, a grid file, the fleet's ``/v1/grid``, the CLI's table
subcommands and ``spill``, the bound server's ``/v1/pebble``) builds
its cells through :func:`make_spec` or :func:`run_grid`, and so through
the one param check :func:`check_params`, before anything is built.
Its value rule, :func:`check_fields`, also checks the bound server's
builder specs against each builder's defaults.

Sweeps run a declarative grid of :class:`RunSpec` cells — one
(experiment, params, seed) point each — executed by :func:`run_grid`
into a results store following the run-directory protocol of
:mod:`repro.evaluation.manifest` (``manifest.json`` first,
``metrics.jsonl`` row-by-row, ``summary.json`` committed last).

Resume semantics (``run_grid(..., resume=True)``) are a *pure function*
of the on-disk state and the requested grid, exposed as
:func:`plan_resume` so the property suite can pin it without touching
disk:

* directory absent                       -> run
* ``summary.json`` + matching hash       -> skip (cell is complete)
* ``summary.json`` + hash mismatch       -> stale config, swept + re-run
* directory without ``summary.json``     -> partial (crash), swept + re-run

:func:`reproduce` replays every manifest in a results store and checks
the regenerated rows and aggregates against the stored
``metrics.jsonl``/``summary.json`` within per-metric tolerances —
the artifact-checklist discipline of SNIPPETS.md ("regenerates all
results from manifests; numeric results match within floating-point
tolerance").

:func:`bench_view` derives a ``BENCH_core.json``-shaped ``{"results":
...}`` mapping from a results store (per-cell wall-clock from
``timing.json`` over the move counts in ``summary.json``), so benchmark
trajectories become an auditable derived view instead of a hand-merged
flat dict.

Parallel cells
--------------
``run_grid(..., jobs=N)`` executes up to ``N`` cells at a time, each in
its own worker **process** (fork where available), so a crashing or
runaway cell cannot take the sweep down with it: a worker that dies
leaves its partial run directory behind (resumable, exactly like a
crash under ``jobs=1``) and is reported in ``GridRunResult.failed``.
``cell_timeout`` puts a wall-clock deadline on every cell; a cell past
its deadline is terminated and reported the same way.  The commit
protocol makes this safe without any cross-process locking: cells never
share a run directory, and a cell only counts as complete once its
``summary.json`` is committed.  ``jobs > 1`` buys crash isolation and
the per-cell timeout, not speed.

Crash-injection hook
--------------------
The crash/resume differential suite needs a deterministic way to die
mid-grid.  When ``REPRO_HARNESS_KILL_AT`` is set to ``"row:N"`` (die
right before appending the Nth metrics row of the run, leaving a
partial cell) or ``"summary:N"`` (die right before committing the Nth
summary, leaving a fully-written but uncommitted cell), the runner
SIGKILLs its own process at that point.  The hook costs two integer
compares per row and is inert unless the variable is set.
"""

from __future__ import annotations

import json
import multiprocessing
import numbers
import os
import shutil
import signal
import time
from collections import deque
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from ..machine.catalog import PAPER_MACHINES
from . import experiments as _exp
from .manifest import (
    DEFAULT_ABS_TOL,
    DEFAULT_REL_TOL,
    SCHEMA_VERSION,
    TIMING_NAME,
    append_metrics_row,
    build_manifest,
    canonical_config,
    compare_rows,
    compare_summaries,
    config_hash,
    dumps_canonical,
    read_manifest,
    read_metrics,
    read_summary,
    summarize_rows,
    write_manifest,
    write_summary,
)

__all__ = [
    "RunSpec",
    "ExperimentDef",
    "REGISTRY",
    "CellState",
    "ResumePlan",
    "GridRunResult",
    "CellFailure",
    "check_fields",
    "check_params",
    "make_spec",
    "default_grid",
    "smoke_grid",
    "load_grid_file",
    "plan_resume",
    "scan_results_root",
    "describe_worker_exit",
    "run_grid",
    "reproduce",
    "bench_view",
    "write_bench_view",
]

#: environment variable driving the crash-injection hook
KILL_ENV = "REPRO_HARNESS_KILL_AT"


# ----------------------------------------------------------------------
# Grid cells and the experiment registry
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RunSpec:
    """One grid cell: an experiment key, its canonical params, a seed,
    and the unique directory label it runs under."""

    experiment: str
    params: Mapping
    seed: int = 0
    label: str = ""

    def hash(self) -> str:
        return config_hash(self.experiment, self.params, self.seed)


@dataclass(frozen=True)
class ExperimentDef:
    """Registry entry: how to run one experiment, its params with their
    defaults, and how tightly its metrics must reproduce.

    ``run(params, seed)`` gets params that passed :func:`check_params`;
    a default also fixes its param's type.  ``optional_params`` are the
    params a cell may add to the defaults, each with a value of its
    type; absent, the driver's own fallback applies.  ``choices`` maps a
    string param, or a list-of-strings param, to the strings its value
    (each element) may be."""

    name: str
    run: Callable[[Mapping, int], List[Dict]]
    default_params: Mapping
    tolerances: Mapping = field(default_factory=dict)
    optional_params: Mapping = field(default_factory=dict)
    choices: Mapping = field(default_factory=dict)


#: the machines a ``machines`` param may name, by name (grid params stay
#: JSON; MachineSpec objects never land in a manifest)
_MACHINES = {m.name: m for m in PAPER_MACHINES}


def _call_driver(driver: Callable[..., List[Dict]], seeded: bool,
                 params: Mapping, seed: int) -> List[Dict]:
    """Run ``driver`` on a cell's checked params: each param is the
    driver keyword of the same name, a list becomes a tuple, ``machines``
    resolves by name through the paper catalog, and a ``seeded`` driver
    also gets the cell's seed."""
    kwargs = {name: tuple(value) if isinstance(value, list) else value
              for name, value in params.items()}
    if "machines" in kwargs:
        kwargs["machines"] = [_MACHINES[name] for name in kwargs["machines"]]
    if seeded:
        kwargs["seed"] = seed
    return driver(**kwargs)


def _driver(driver: Callable[..., List[Dict]], seeded: bool = False):
    """``run(params, seed)`` for a registry entry (a partial of module
    functions, so it pickles into spawned cell processes)."""
    return partial(_call_driver, driver, seeded)


#: loose tolerance for float-heavy analytical pipelines (cross-machine
#: libm/BLAS variation); counts and game I/O stay exact by default
_FLOAT_TOL = {"*": {"rel": 1e-6, "abs": 1e-9}}

#: the optional param of the experiments whose drivers tabulate
#: machines (absent, the driver tabulates every paper machine); it also
#: lists the names such a param may hold
_MACHINES_PARAM = {"machines": list(_MACHINES)}

REGISTRY: Dict[str, ExperimentDef] = {
    "e1": ExperimentDef(
        "e1", _driver(_exp.experiment_table1_machines), {},
        optional_params=_MACHINES_PARAM, choices=_MACHINES_PARAM,
    ),
    "e2": ExperimentDef(
        "e2",
        _driver(_exp.experiment_composite_example),
        {"sizes": [4, 8, 16], "s": 64},
    ),
    "e3": ExperimentDef(
        "e3",
        _driver(_exp.experiment_cg_bounds),
        {"n": 1000, "dimensions": 3, "iterations": 1, "small_shape": [2, 2]},
        _FLOAT_TOL,
        optional_params=_MACHINES_PARAM, choices=_MACHINES_PARAM,
    ),
    "e4": ExperimentDef(
        "e4",
        _driver(_exp.experiment_gmres_bounds),
        {"n": 1000, "dimensions": 3, "krylov_dimensions": [5, 10, 20, 50, 100]},
        _FLOAT_TOL,
    ),
    "e5": ExperimentDef(
        "e5",
        _driver(_exp.experiment_jacobi_bounds),
        {"dimensions": [1, 2, 3, 4, 5, 6, 8, 11], "n": 100, "timesteps": 100},
        _FLOAT_TOL,
    ),
    "e6": ExperimentDef(
        "e6",
        _driver(_exp.experiment_matmul_bounds),
        {"sizes": [4, 6], "cache_sizes": [8, 16]},
        _FLOAT_TOL,
    ),
    "e7": ExperimentDef("e7", _driver(_exp.experiment_bound_validation),
                        {"s": 3}),
    "e8": ExperimentDef(
        "e8",
        _driver(_exp.experiment_distsim_parallel),
        {
            "shape": [12, 12],
            "timesteps": 3,
            "num_nodes": 4,
            "cache_words": 32,
            "policies": ["lru", "belady"],
        },
        _FLOAT_TOL,
        choices={"policies": ("lru", "belady")},
    ),
    "e9": ExperimentDef(
        "e9",
        _driver(_exp.experiment_balance_conditions),
        {"n": 1000, "dimensions": 3, "gmres_m": 10, "jacobi_timesteps": 1000},
        _FLOAT_TOL,
        optional_params=_MACHINES_PARAM, choices=_MACHINES_PARAM,
    ),
    "spill": ExperimentDef(
        "spill",
        _driver(_exp.experiment_spill_strategies, seeded=True),
        {
            "workload": "star",
            "ops": 64,
            "degree": 8,
            "chains": 8,
            "length": 16,
            "num_red": 4,
            "components": 4,
            "component_size": 12,
            "policy": "lru",
            "backend": "batched",
        },
        choices={
            "workload": ("star", "chains", "forest"),
            "policy": ("lru", "belady"),
            "backend": ("batched", "dict"),
        },
    ),
}

#: a param value's JSON kind, singular and plural (a bool is no integer)
_KINDS = {
    bool: ("a boolean", "booleans"),
    int: ("an integer", "integers"),
    float: ("a number", "numbers"),
    str: ("a string", "strings"),
    list: ("a list", "lists"),
    tuple: ("a list", "lists"),
}


def _kind(value) -> Tuple[str, str]:
    kind = _KINDS.get(type(value))
    if kind is None and isinstance(value, numbers.Integral):
        return _KINDS[int]  # a numpy integer
    return kind or ("an object", "objects")


def _check_value(where: str, value, default) -> None:
    """``value`` has the kind of ``default`` (a list, non-empty, with
    elements of the kind of the default's first); integers are >= 1."""
    want = _kind(default)[0]
    if _kind(value)[0] != want:
        raise ValueError(f"{where} must be {want}, got {value!r}")
    if want == "an integer" and value < 1:
        raise ValueError(f"{where} must be >= 1, got {value!r}")
    if want != "a list":
        return
    if not value:
        raise ValueError(f"{where} must be a non-empty list, got {value!r}")
    item, items = _kind(default[0])
    for element in value:
        if _kind(element)[0] != item:
            raise ValueError(
                f"{where} must be a list of {items}, got {element!r} in "
                f"{value!r}"
            )
        if item == "an integer" and element < 1:
            raise ValueError(
                f"{where} must be a list of {items} >= 1, got {element!r} "
                f"in {value!r}"
            )


def _check_choice(where: str, name: str, value, choices) -> None:
    """``value``, or each element of a list ``value``, is one of
    ``choices``."""
    allowed = sorted(choices)
    if not isinstance(value, (list, tuple)):
        if value not in choices:
            raise ValueError(f"{where} must be one of {allowed}, "
                             f"got {value!r}")
        return
    for element in value:
        if element not in choices:
            raise ValueError(f"{where} must name {name} of {allowed}, "
                             f"got {element!r}")


def _entry(
    experiment: str, registry: Mapping[str, ExperimentDef]
) -> ExperimentDef:
    if experiment not in registry:
        raise ValueError(
            f"unknown experiment {experiment!r}; known: {sorted(registry)}"
        )
    return registry[experiment]


def check_fields(
    owner: str,
    label: str,
    params: Mapping,
    defaults: Mapping,
    optional: Optional[Mapping] = None,
    choices: Optional[Mapping] = None,
) -> None:
    """The value rule: ``params`` set every default and nothing else but
    the ``optional`` params.  Each value has the JSON kind of its
    default (a numpy integer is an integer, a bool never is); a list is
    non-empty, its elements of the kind of the default's first; every
    integer, alone or in a list, is at least 1; a param with ``choices``
    holds only those strings.  Anything else is one ``ValueError``
    naming ``owner`` (``experiment 'e2'``) or starting with ``label``
    (``e2 param 's' must be ...``)."""
    known = {**defaults, **(optional or {})}
    choices = choices or {}
    for name in sorted(params):
        if name not in known:
            raise ValueError(
                f"unknown param {name!r} for {owner}; known: {sorted(known)}"
            )
        where = f"{label} param {name!r}"
        _check_value(where, params[name], known[name])
        if name in choices:
            _check_choice(where, name, params[name], choices[name])
    for name in sorted(defaults):
        if name not in params:
            raise ValueError(f"missing param {name!r} for {owner}")


def check_params(
    experiment: str,
    params: Mapping,
    registry: Mapping[str, ExperimentDef] = REGISTRY,
) -> None:
    """The one check of a cell, before anything is built or written:
    :func:`check_fields` over the registry entry's defaults, optional
    params and choices (spill's ``workload``, ``policy`` and
    ``backend``, e8's ``policies``, ``machines``).  :func:`make_spec`,
    :func:`run_grid` (so the fleet's ``/v1/grid``) and
    :func:`reproduce` call it."""
    entry = _entry(experiment, registry)
    check_fields(f"experiment {experiment!r}", experiment, params,
                 entry.default_params, entry.optional_params, entry.choices)


def make_spec(
    experiment: str,
    params: Optional[Mapping] = None,
    seed: int = 0,
    label: Optional[str] = None,
    registry: Mapping[str, ExperimentDef] = REGISTRY,
) -> RunSpec:
    """Build a checked cell (:func:`check_params`): registry defaults
    merged with ``params`` overrides, canonicalized; ``label`` defaults
    to the experiment key."""
    merged = {**_entry(experiment, registry).default_params,
              **(params or {})}
    check_params(experiment, merged, registry)
    return RunSpec(
        experiment=experiment,
        params=canonical_config(merged),
        seed=int(seed),
        label=label if label is not None else experiment,
    )


def _spill_label(params: Mapping, seed: int) -> str:
    return (
        f"spill_{params['workload']}_{params['policy']}_"
        f"{params['backend']}_s{seed}"
    )


def default_grid(seed: int = 0) -> List[RunSpec]:
    """The full sweep: all nine paper experiments at their registry
    defaults plus four spill cells: star (whose P-RBW strategy always
    evicts LRU), chains under LRU and Belady, and one seeded forest."""
    specs = [make_spec(name, seed=seed) for name in
             ("e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9")]
    spill_axes: List[Dict] = [
        {"workload": "star"},
        {"workload": "chains", "policy": "lru"},
        {"workload": "chains", "policy": "belady"},
        {"workload": "forest"},
    ]
    for overrides in spill_axes:
        spec = make_spec("spill", overrides, seed=seed)
        specs.append(
            RunSpec(spec.experiment, spec.params, spec.seed,
                    _spill_label(spec.params, spec.seed))
        )
    return specs


def smoke_grid(seed: int = 0) -> List[RunSpec]:
    """The 4-cell grid of the CI harness smoke and the crash/resume
    differential suite (~a second end to end): tiny E2 + E5 cells and
    two tiny spill cells (one of them the seeded forest workload)."""
    e2 = make_spec("e2", {"sizes": [4, 8], "s": 64}, seed=seed)
    e5 = make_spec("e5", {"dimensions": [2, 3], "n": 50, "timesteps": 50},
                   seed=seed)
    sp1 = make_spec(
        "spill", {"workload": "star", "ops": 16}, seed=seed
    )
    sp2 = make_spec(
        "spill",
        {"workload": "forest", "components": 3, "component_size": 10},
        seed=seed,
    )
    return [
        e2,
        e5,
        RunSpec(sp1.experiment, sp1.params, sp1.seed,
                _spill_label(sp1.params, sp1.seed)),
        RunSpec(sp2.experiment, sp2.params, sp2.seed,
                _spill_label(sp2.params, sp2.seed)),
    ]


GRIDS: Dict[str, Callable[[int], List[RunSpec]]] = {
    "default": default_grid,
    "smoke": smoke_grid,
}


def load_grid_file(path: Path, seed: int = 0) -> List[RunSpec]:
    """A grid from a JSON file: a list of ``{"experiment": ...,
    "params": {...}, "seed": ..., "label": ...}`` cell objects (params,
    seed and label optional).  A malformed file or cell raises
    ``ValueError`` naming the file and the cell index, with
    :func:`make_spec`'s message after it for a bad experiment or
    param."""
    try:
        cells = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(f"grid file {path} is not JSON: {exc}") from None
    if not isinstance(cells, list):
        raise ValueError(f"grid file {path} must contain a JSON list")
    specs = []
    for i, cell in enumerate(cells):
        where = f"grid file {path}, cell {i}"
        if not isinstance(cell, dict):
            raise ValueError(f"{where} is not a JSON object")
        if not isinstance(cell.get("experiment"), str):
            raise ValueError(f"{where} has no string 'experiment'")
        if not isinstance(cell.get("params", {}), dict):
            raise ValueError(f"{where} has non-object 'params'")
        try:
            cell_seed = int(cell.get("seed", seed))
        except (TypeError, ValueError):
            raise ValueError(f"{where} has a non-integer 'seed'") from None
        try:
            spec = make_spec(
                cell["experiment"],
                cell.get("params"),
                seed=cell_seed,
                label=cell.get("label"),
            )
        except ValueError as exc:
            raise ValueError(f"{where}: {exc}") from None
        if "label" not in cell and spec.experiment == "spill":
            spec = RunSpec(spec.experiment, spec.params, spec.seed,
                           _spill_label(spec.params, spec.seed))
        specs.append(spec)
    return specs


# ----------------------------------------------------------------------
# Resume planning (pure) + results-store scanning
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CellState:
    """What exists on disk for one cell label."""

    has_summary: bool
    config_hash: Optional[str] = None


@dataclass(frozen=True)
class ResumePlan:
    """The resume decision for every requested cell label: ``skip`` is
    complete-and-matching; ``run``/``stale``/``partial`` all execute
    (the latter two after sweeping the old directory)."""

    run: Tuple[str, ...]
    skip: Tuple[str, ...]
    stale: Tuple[str, ...]
    partial: Tuple[str, ...]

    @property
    def to_execute(self) -> Tuple[str, ...]:
        return self.run + self.stale + self.partial


def plan_resume(
    specs: Sequence[RunSpec], existing: Mapping[str, CellState]
) -> ResumePlan:
    """Pure resume planner: decisions from (requested grid x on-disk
    state) only — hypothesis-tested in
    ``tests/evaluation/test_manifest_properties.py``."""
    run, skip, stale, partial = [], [], [], []
    for spec in specs:
        state = existing.get(spec.label)
        if state is None:
            run.append(spec.label)
        elif not state.has_summary:
            partial.append(spec.label)
        elif state.config_hash == spec.hash():
            skip.append(spec.label)
        else:
            stale.append(spec.label)
    return ResumePlan(tuple(run), tuple(skip), tuple(stale), tuple(partial))


def scan_results_root(root: Path) -> Dict[str, CellState]:
    """The on-disk cell states under a results root (any directory is a
    cell candidate; completeness == committed, parseable summary)."""
    root = Path(root)
    states: Dict[str, CellState] = {}
    if not root.exists():
        return states
    for entry in sorted(root.iterdir()):
        if not entry.is_dir():
            continue
        summary = read_summary(entry)
        if summary is None:
            states[entry.name] = CellState(has_summary=False)
        else:
            states[entry.name] = CellState(
                has_summary=True, config_hash=summary.get("config_hash")
            )
    return states


# ----------------------------------------------------------------------
# Grid execution
# ----------------------------------------------------------------------
class _KillHook:
    """Deterministic SIGKILL injection for the crash/resume suite (see
    module docstring); parsed once from ``REPRO_HARNESS_KILL_AT``."""

    def __init__(self, spec: Optional[str]):
        self.kind: Optional[str] = None
        self.at = 0
        self.count = 0
        if spec:
            kind, _, n = spec.partition(":")
            if kind not in ("row", "summary") or not n.isdigit() or int(n) < 1:
                raise ValueError(
                    f"{KILL_ENV} must be 'row:N' or 'summary:N', got {spec!r}"
                )
            self.kind, self.at = kind, int(n)

    def _tick(self, kind: str) -> None:
        if self.kind != kind:
            return
        self.count += 1
        if self.count >= self.at:  # pragma: no cover - kills the process
            os.kill(os.getpid(), signal.SIGKILL)

    def after_row(self) -> None:
        self._tick("row")

    def before_summary(self) -> None:
        self._tick("summary")


@dataclass
class GridRunResult:
    root: Path
    plan: ResumePlan
    executed: List[str]
    skipped: List[str]
    #: (label, reason) for cells whose worker died or timed out
    #: (``jobs > 1`` only; under ``jobs=1`` cell errors propagate)
    failed: List[Tuple[str, str]] = field(default_factory=list)


def _validate_grid(
    specs: Sequence[RunSpec], registry: Mapping[str, ExperimentDef]
) -> None:
    """The grid check of ``run_grid`` and the fleet's ``/v1/grid``:
    every cell passes :func:`check_params`, and labels are unique.  A
    label names the cell's run directory ``root / label``, which is
    wiped before the cell runs, so it must be one plain path component
    inside the results root."""
    seen = set()
    for spec in specs:
        check_params(spec.experiment, spec.params, registry)
        label = spec.label
        if not label:
            raise ValueError(f"cell for {spec.experiment!r} has an empty label")
        if (
            not isinstance(label, str)
            or label in (".", "..")
            or any(ch in label for ch in "/\\\0")
        ):
            raise ValueError(
                f"cell label {label!r} is not a plain directory name"
            )
        if label in seen:
            raise ValueError(f"duplicate cell label {label!r} in grid")
        seen.add(label)


def _execute_cell(
    spec: RunSpec,
    run_dir: Path,
    registry: Mapping[str, ExperimentDef],
    kill: _KillHook,
) -> None:
    """One cell, start to commit: manifest -> metrics rows -> timing ->
    summary.  ``run_dir`` must exist and be empty."""
    manifest = build_manifest(
        spec.experiment, spec.params, spec.seed, spec.label
    )
    write_manifest(run_dir, manifest)
    start = time.perf_counter()
    rows = registry[spec.experiment].run(spec.params, spec.seed)
    for row in rows:
        kill.after_row()
        append_metrics_row(run_dir, row)
    elapsed = time.perf_counter() - start
    (run_dir / TIMING_NAME).write_text(
        dumps_canonical({"elapsed_s": elapsed})
    )
    kill.before_summary()
    write_summary(
        run_dir,
        {
            "schema": SCHEMA_VERSION,
            "experiment": spec.experiment,
            "label": spec.label,
            "seed": spec.seed,
            "config_hash": manifest["config_hash"],
            **summarize_rows(rows),
        },
    )


def _cell_process_main(
    spec: RunSpec,
    run_dir: str,
    registry: Mapping[str, ExperimentDef],
) -> None:
    """Worker-process entry point for one cell under ``jobs > 1``.  The
    parent prepared (swept + recreated) ``run_dir``; exit code 0 means
    the cell committed, anything else leaves a resumable partial."""
    _execute_cell(
        spec, Path(run_dir), registry, _KillHook(os.environ.get(KILL_ENV))
    )


def _mp_context():
    """Fork where the platform has it (cheap, inherits non-picklable
    registries); spawn otherwise.  numpy loads ``numpy.random`` lazily,
    so it is loaded here, once, not in every forked forest cell."""
    import numpy.random  # noqa: F401

    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "fork" if "fork" in methods else "spawn"
    )


def describe_worker_exit(exitcode: Optional[int]) -> str:
    """Human-readable failure reason for a dead worker process.

    Negative exit codes are deaths by signal; name the signal (``worker
    killed by SIGKILL``) instead of leaking the raw ``-9``.
    """
    if exitcode is not None and exitcode < 0:
        try:
            name = signal.Signals(-exitcode).name
        except ValueError:  # pragma: no cover - unknown signal number
            name = f"signal {-exitcode}"
        return f"worker killed by {name}"
    return f"worker exited with code {exitcode}"


def _run_cells_parallel(
    to_run: Sequence[RunSpec],
    root: Path,
    registry: Mapping[str, ExperimentDef],
    decisions: Mapping[str, str],
    jobs: int,
    cell_timeout: Optional[float],
    log: Callable[[str], None],
    events=None,
) -> Tuple[List[str], List[Tuple[str, str]]]:
    """Run cells in up to ``jobs`` worker processes; returns
    (completed labels, failed (label, reason) pairs), both in grid
    order.  ``events``, when given, is an event sink with an
    ``emit(kind, **fields)`` method (duck-typed so callers without
    :mod:`repro.obs` pass nothing): ``cell.started`` /
    ``cell.committed`` / ``cell.failed`` per cell."""
    ctx = _mp_context()
    pending = deque(to_run)
    running: Dict[str, Tuple] = {}  # label -> (proc, deadline)
    done: Dict[str, Optional[str]] = {}  # label -> None | failure reason
    try:
        while pending or running:
            while pending and len(running) < jobs:
                spec = pending.popleft()
                run_dir = root / spec.label
                if run_dir.exists():
                    shutil.rmtree(run_dir)
                run_dir.mkdir()
                log(f"[{decisions[spec.label]}]".ljust(10) + spec.label)
                proc = ctx.Process(
                    target=_cell_process_main,
                    args=(spec, str(run_dir), registry),
                )
                proc.start()
                if events is not None:
                    events.emit("cell.started", label=spec.label)
                deadline = (
                    None if cell_timeout is None
                    else time.monotonic() + cell_timeout
                )
                running[spec.label] = (proc, deadline)
            for label, (proc, deadline) in list(running.items()):
                if proc.is_alive():
                    if deadline is not None and time.monotonic() >= deadline:
                        proc.terminate()
                        proc.join(5.0)
                        if proc.is_alive():  # pragma: no cover - stuck
                            proc.kill()
                            proc.join()
                        done[label] = f"timed out after {cell_timeout:g}s"
                        log(f"[timeout] {label} ({done[label]}; partial "
                            "directory left for --resume)")
                        if events is not None:
                            events.emit("cell.failed", label=label,
                                        error=done[label])
                        del running[label]
                    continue
                proc.join()
                if proc.exitcode == 0:
                    done[label] = None
                    if events is not None:
                        events.emit("cell.committed", label=label)
                else:
                    done[label] = describe_worker_exit(proc.exitcode)
                    log(f"[failed]  {label} ({done[label]})")
                    if events is not None:
                        events.emit("cell.failed", label=label,
                                    error=done[label])
                del running[label]
            if running:
                time.sleep(0.01)
    finally:
        # A KeyboardInterrupt (or a log()/scheduling exception) must not
        # orphan live workers: terminate and reap every one of them so
        # their partial run directories are left quiescent for --resume.
        for label, (proc, _deadline) in running.items():
            if proc.is_alive():
                proc.terminate()
        for label, (proc, _deadline) in running.items():
            proc.join(5.0)
            if proc.is_alive():  # pragma: no cover - stuck worker
                proc.kill()
                proc.join()
    completed = [s.label for s in to_run if done.get(s.label) is None]
    failed = [(s.label, done[s.label]) for s in to_run
              if done.get(s.label) is not None]
    return completed, failed


def run_grid(
    specs: Sequence[RunSpec],
    root: Path,
    resume: bool = False,
    registry: Mapping[str, ExperimentDef] = REGISTRY,
    log: Callable[[str], None] = print,
    jobs: int = 1,
    cell_timeout: Optional[float] = None,
    events=None,
) -> GridRunResult:
    """Execute a grid into ``root``, one run directory per cell.

    Without ``resume`` every requested cell is (re)run, clobbering any
    previous directory of the same label.  With ``resume`` the
    :func:`plan_resume` decisions apply; stale and partial directories
    are swept before re-running.  Each cell follows the manifest ->
    metrics -> summary commit protocol.

    ``jobs > 1`` runs cells in parallel worker processes — execution
    order becomes nondeterministic but directories never conflict, and
    worker crashes / ``cell_timeout`` expiries are collected in
    ``GridRunResult.failed`` instead of aborting the sweep (the failed
    cell's partial directory stays behind for ``--resume``).  Under
    ``jobs=1`` execution is in grid order and cell exceptions propagate,
    exactly as before.

    ``events``, when given, is any object with an ``emit(kind,
    **fields)`` method (an :class:`repro.obs.EventRing` in practice —
    duck-typed so this module keeps zero obs imports); the grid emits
    ``cell.started`` / ``cell.committed`` / ``cell.failed`` per cell.
    """
    _validate_grid(specs, registry)
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    if cell_timeout is not None and cell_timeout <= 0:
        raise ValueError(f"cell_timeout must be positive, got {cell_timeout}")
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    kill = _KillHook(os.environ.get(KILL_ENV))

    if resume:
        plan = plan_resume(specs, scan_results_root(root))
    else:
        plan = ResumePlan(tuple(s.label for s in specs), (), (), ())
    decisions = {label: "run" for label in plan.run}
    decisions.update({label: "stale" for label in plan.stale})
    decisions.update({label: "partial" for label in plan.partial})

    skipped: List[str] = []
    to_run: List[RunSpec] = []
    for spec in specs:
        if spec.label in plan.skip:
            log(f"[skip]    {spec.label} (complete, config hash matches)")
            skipped.append(spec.label)
        else:
            to_run.append(spec)

    failed: List[Tuple[str, str]] = []
    if jobs > 1:
        executed, failed = _run_cells_parallel(
            to_run, root, registry, decisions, jobs, cell_timeout, log,
            events=events,
        )
    else:
        executed = []
        for spec in to_run:
            run_dir = root / spec.label
            if run_dir.exists():
                shutil.rmtree(run_dir)
            run_dir.mkdir()
            log(f"[{decisions[spec.label]}]".ljust(10) + spec.label)
            if events is not None:
                events.emit("cell.started", label=spec.label)
            _execute_cell(spec, run_dir, registry, kill)
            executed.append(spec.label)
            if events is not None:
                events.emit("cell.committed", label=spec.label)
    log(
        f"executed {len(executed)} cell(s), skipped {len(skipped)}"
        + (f", FAILED {len(failed)}" if failed else "")
    )
    return GridRunResult(root=root, plan=plan, executed=executed,
                         skipped=skipped, failed=failed)


# ----------------------------------------------------------------------
# Reproduce
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CellFailure:
    label: str
    problems: Tuple[str, ...]


def reproduce(
    root: Path,
    registry: Mapping[str, ExperimentDef] = REGISTRY,
    log: Callable[[str], None] = print,
) -> List[CellFailure]:
    """Replay every committed manifest under ``root`` and check the
    regenerated rows and aggregates against the stored artifacts within
    per-metric tolerances (defaults ``rel=1e-9``/``abs=1e-12``, loosened
    per experiment in the registry).  A cell whose re-run raises is
    recorded as failed (naming the exception) and the check goes on.
    Returns the failing cells; an empty list means the whole store
    reproduces.
    """
    root = Path(root)
    failures: List[CellFailure] = []
    cell_dirs = [d for d in sorted(root.iterdir()) if d.is_dir()] \
        if root.exists() else []
    if not cell_dirs:
        return [CellFailure("(results root)",
                            (f"no run directories under {root}",))]
    for run_dir in cell_dirs:
        label = run_dir.name
        stored_summary = read_summary(run_dir)
        if stored_summary is None:
            log(f"[partial] {label} (no committed summary; not reproduced)")
            continue
        problems: List[str] = []
        try:
            manifest = read_manifest(run_dir)
        except (OSError, ValueError) as exc:
            failures.append(
                CellFailure(label, (f"unreadable manifest: {exc}",)))
            log(f"[FAIL]    {label}")
            continue
        experiment = manifest.get("experiment")
        if experiment not in registry:
            failures.append(CellFailure(
                label, (f"unknown experiment {experiment!r} in manifest",)))
            log(f"[FAIL]    {label}")
            continue
        params, seed = manifest.get("params", {}), int(manifest.get("seed", 0))
        if manifest.get("config_hash") != config_hash(experiment, params,
                                                      seed):
            problems.append("manifest config_hash does not match its params")
        if stored_summary.get("config_hash") != manifest.get("config_hash"):
            problems.append("summary config_hash does not match manifest")
        tolerances = registry[experiment].tolerances
        try:
            check_params(experiment, params, registry)
            fresh_rows = registry[experiment].run(params, seed)
        except Exception as exc:  # one bad cell must not stop the rest
            problems.append(
                f"re-running the cell raised {type(exc).__name__}: {exc}"
            )
        else:
            problems += compare_rows(
                read_metrics(run_dir), fresh_rows, tolerances
            )
            problems += compare_summaries(
                stored_summary, summarize_rows(fresh_rows), tolerances
            )
        if problems:
            failures.append(CellFailure(label, tuple(problems)))
            log(f"[FAIL]    {label}")
            for problem in problems:
                log(f"          - {problem}")
        else:
            log(f"[ok]      {label}")
    log(
        f"reproduce: {len(cell_dirs) - len(failures)}/{len(cell_dirs)} "
        "cell(s) within tolerance"
    )
    return failures


# ----------------------------------------------------------------------
# Derived benchmark view
# ----------------------------------------------------------------------
def bench_view(root: Path) -> Dict[str, Dict]:
    """A ``BENCH_core.json``-shaped ``{"results": {...}}`` mapping
    derived from a results store: every committed cell contributes a
    ``harness/<label>`` entry with its wall-clock (from ``timing.json``)
    and, for cells whose rows carry a ``moves`` metric, an ``ns_per_op``
    headline — so the CI bench guard can diff sweep trajectories the
    same way it diffs the hand-rolled benches."""
    root = Path(root)
    results: Dict[str, Dict] = {}
    if not root.exists():
        return {"results": results}
    for run_dir in sorted(root.iterdir()):
        if not run_dir.is_dir():
            continue
        summary = read_summary(run_dir)
        if summary is None:
            continue
        entry: Dict[str, object] = {
            "experiment": summary.get("experiment"),
            "config_hash": summary.get("config_hash"),
            "num_rows": summary.get("num_rows"),
        }
        timing_path = run_dir / TIMING_NAME
        if timing_path.exists():
            try:
                elapsed = float(
                    json.loads(timing_path.read_text())["elapsed_s"])
            except (ValueError, KeyError):
                elapsed = None
            if elapsed is not None:
                entry["elapsed_s"] = elapsed
                moves = summary.get("metrics", {}).get("moves")
                if moves and moves.get("kind") == "numeric":
                    total = moves["mean"] * moves["count"]
                    if total > 0:
                        entry["ns_per_op"] = elapsed * 1e9 / total
                        entry["moves"] = total
        results[f"harness/{run_dir.name}"] = entry
    return {"results": results}


def write_bench_view(
    root: Path, out: Path, merge: bool = True
) -> Dict[str, Dict]:
    """Write (or merge into) a BENCH-style JSON file from a results
    store; with ``merge`` existing non-``harness/`` entries (the
    hand-rolled bench numbers) are preserved, and a top-level ``view``
    records the provenance."""
    view = bench_view(root)
    out = Path(out)
    merged: Dict[str, Dict] = {}
    if merge and out.exists():
        try:
            merged = json.loads(out.read_text()).get("results", {})
        except (ValueError, OSError):
            merged = {}
    merged.update(view["results"])
    payload = {
        "results": dict(sorted(merged.items())),
        "view": {
            "schema": "bench-view/1",
            "derived_from": str(root),
        },
    }
    out.write_text(dumps_canonical(payload))
    return payload


# keep the tolerance defaults importable next to the registry
DEFAULT_TOLERANCES = {"rel": DEFAULT_REL_TOL, "abs": DEFAULT_ABS_TOL}
