"""The one param check behind every entry point.

``repro.evaluation.harness.REGISTRY`` holds every experiment's params
and defaults, and ``check_params`` checks a cell against them before
anything is built or written.  A malformed cell gives the same one-line
message on every path that takes cells: ``sweep --grid-file``, the
table subcommand's ``--param``, the fleet's ``/v1/grid`` and, for spill
cells, the bound server's ``cached_spill`` and ``/v1/pebble``
(``--grid-file`` puts ``grid file PATH, cell I:`` in front).  A string
param with registry ``choices`` (a spill workload, policy or backend)
is refused there too, before any directory is made or store row read.
The drivers themselves have no param defaults, so ``repro all`` prints
the default grid's cells and nothing else.

The bound server's builder specs go through the same value rule
(``check_fields``) over each builder's defaults: a malformed spec is one
message naming the builder and the param, from the spec functions and as
a 400 from ``/v1/compiled``, ``/v1/schedule`` and ``/v1/bound``, before
anything is built or the store is read.  A bound spec's own fields
(``s``, ``max_candidates``, ``u_upper``) follow the HTTP layer's number
rule on the library path too.
"""

import inspect
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cli import TABLES, main
from repro.evaluation import experiments, report
from repro.evaluation.harness import (
    REGISTRY,
    check_params,
    default_grid,
    make_spec,
    run_grid,
)
from repro.evaluation.manifest import canonical_row, read_metrics
from repro.distsim import cache as distsim_cache
from repro.fleet.controller import FleetController
from repro.pebbling import strategies
from repro.service.server import BoundService
from repro.store import ArtifactStore
from repro.store.analysis import (
    _SPILL_BUILDERS,
    BUILDERS,
    bound_spec,
    cached_bound,
    cached_spill,
    compiled_spec,
    schedule_spec,
)

#: table subcommand of each experiment key
SUBCOMMAND = {key: name for name, (key, _title) in TABLES.items()}

#: (experiment, param overrides, the message every path prints)
CASES = [
    pytest.param("e6", {"sizes": 5},
                 "e6 param 'sizes' must be a list, got 5",
                 id="list-param-scalar"),
    pytest.param("e8", {"timesteps": [3]},
                 "e8 param 'timesteps' must be an integer, got [3]",
                 id="int-param-list"),
    pytest.param("e2", {"s": 64.9},
                 "e2 param 's' must be an integer, got 64.9",
                 id="int-param-float"),
    pytest.param("spill", {"ops": "16"},
                 "spill param 'ops' must be an integer, got '16'",
                 id="int-param-string"),
    pytest.param("e6", {"sizes": ["a"]},
                 "e6 param 'sizes' must be a list of integers, got 'a' in "
                 "['a']",
                 id="int-list-string-element"),
    pytest.param("e5", {"dimensions": [2.5], "n": 50, "timesteps": 50},
                 "e5 param 'dimensions' must be a list of integers, got 2.5 "
                 "in [2.5]",
                 id="int-list-float-element"),
    pytest.param("e3", {"small_shape": [2, True]},
                 "e3 param 'small_shape' must be a list of integers, got "
                 "True in [2, True]",
                 id="int-list-bool-element"),
    pytest.param("e8", {"policies": ["lru", 1]},
                 "e8 param 'policies' must be a list of strings, got 1 in "
                 "['lru', 1]",
                 id="string-list-int-element"),
    pytest.param("e1", {"bogus": 1},
                 "unknown param 'bogus' for experiment 'e1'; known: "
                 "['machines']",
                 id="unknown-param"),
    pytest.param("e2", {"s": 0}, "e2 param 's' must be >= 1, got 0",
                 id="zero"),
    pytest.param("spill", {"workers": 2},
                 "unknown param 'workers' for experiment 'spill'; known: "
                 "['backend', 'chains', 'component_size', 'components', "
                 "'degree', 'length', 'num_red', 'ops', 'policy', "
                 "'workload']",
                 id="spill-unknown-param"),
    pytest.param("spill", {"ops": 0}, "spill param 'ops' must be >= 1, got 0",
                 id="spill-zero"),
    pytest.param("spill", {"workload": "mesh"},
                 "spill param 'workload' must be one of ['chains', 'forest', "
                 "'star'], got 'mesh'",
                 id="spill-unknown-workload"),
    pytest.param("spill", {"policy": "fifo"},
                 "spill param 'policy' must be one of ['belady', 'lru'], got "
                 "'fifo'",
                 id="spill-unknown-policy"),
    pytest.param("spill", {"backend": "kernel"},
                 "spill param 'backend' must be one of ['batched', 'dict'], "
                 "got 'kernel'",
                 id="spill-unknown-backend"),
    pytest.param("e8", {"policies": ["lru", "fifo"]},
                 "e8 param 'policies' must name policies of ['belady', "
                 "'lru'], got 'fifo'",
                 id="list-param-unknown-choice"),
]
#: the cases of the experiments that have a table subcommand
TABLE_CASES = [case for case in CASES if case.values[0] in SUBCOMMAND]
#: the spill cases, which the bound server also plays
SPILL_CASES = [case for case in CASES if case.values[0] == "spill"]
PARAMS = "experiment, params, message"


def _stderr_of(capsys, argv):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    return captured.err


class TestOneMessagePerPath:
    @pytest.mark.parametrize(PARAMS, CASES)
    def test_sweep_grid_file(self, tmp_path, capsys, experiment, params,
                             message):
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps(
            [{"experiment": experiment, "params": params}]))
        out = tmp_path / "results"
        err = _stderr_of(capsys, ["sweep", "--grid-file", str(grid),
                                  "--out", str(out)])
        assert err == f"repro: error: grid file {grid}, cell 0: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize(PARAMS, TABLE_CASES)
    def test_table_subcommand_param(self, capsys, experiment, params,
                                    message):
        argv = [SUBCOMMAND[experiment]]
        for key, value in params.items():
            argv += ["--param", f"{key}={json.dumps(value)}"]
        assert _stderr_of(capsys, argv) == f"repro: error: {message}\n"

    @pytest.mark.parametrize(PARAMS, CASES)
    def test_fleet_grid(self, tmp_path, experiment, params, message):
        controller = FleetController(tmp_path, log=lambda _msg: None)
        cell = {"experiment": experiment,
                "params": {**REGISTRY[experiment].default_params, **params},
                "label": "cell"}
        status, body = controller.handle("POST", "/v1/grid",
                                         {"cells": [cell]})
        assert (status, body) == (400, {"error": message})
        assert controller.status()["pending"] == []

    @pytest.mark.parametrize(PARAMS, SPILL_CASES)
    def test_cached_spill(self, tmp_path, experiment, params, message):
        with ArtifactStore(tmp_path / "store.db") as store:
            with pytest.raises(ValueError) as exc:
                cached_spill(store, params)
            assert str(exc.value) == message
            assert store.stats()["entries"] == 0
            assert store.counters["misses"] == 0

    @pytest.mark.parametrize(PARAMS, SPILL_CASES)
    def test_pebble_endpoint(self, tmp_path, experiment, params, message):
        service = BoundService(ArtifactStore(tmp_path / "store.db"))
        try:
            assert service.handle("POST", "/v1/pebble", {"params": params}) \
                == (400, {"error": message})
            assert service.store.counters["misses"] == 0
        finally:
            service.close()


#: (builder, param overrides, the message every builder-spec path gives)
BUILDER_CASES = [
    pytest.param("grid", {"shape": "16"},
                 "builder 'grid' param 'shape' must be a list, got '16'",
                 id="shape-string"),
    pytest.param("grid", {"shape": []},
                 "builder 'grid' param 'shape' must be a non-empty list, "
                 "got []",
                 id="shape-empty"),
    pytest.param("grid", {"shape": [16, 0]},
                 "builder 'grid' param 'shape' must be a list of integers "
                 ">= 1, got 0 in [16, 0]",
                 id="shape-zero-entry"),
    pytest.param("chain", {"length": "64"},
                 "builder 'chain' param 'length' must be an integer, got "
                 "'64'",
                 id="length-string"),
    pytest.param("chain", {"length": 64.9},
                 "builder 'chain' param 'length' must be an integer, got "
                 "64.9",
                 id="length-float"),
    pytest.param("chain", {"length": True},
                 "builder 'chain' param 'length' must be an integer, got "
                 "True",
                 id="length-bool"),
    pytest.param("forest", {"components": 0},
                 "builder 'forest' param 'components' must be >= 1, got 0",
                 id="zero"),
    pytest.param("dense", {"bogus": 1},
                 "unknown param 'bogus' for builder 'dense'; known: "
                 "['num_inputs', 'num_outputs']",
                 id="unknown-param"),
]
BUILDER_PARAMS = "builder, params, message"
#: each builder-spec endpoint, with the fields it needs besides the spec
ENDPOINTS = {"/v1/compiled": {}, "/v1/schedule": {"kind": "minlive"},
             "/v1/bound": {"s": 4}}


class TestOneMessagePerBuilderPath:
    @pytest.mark.parametrize(BUILDER_PARAMS, BUILDER_CASES)
    def test_spec_functions(self, builder, params, message):
        for spec in (compiled_spec, schedule_spec, bound_spec):
            with pytest.raises(ValueError) as exc:
                spec(builder, params)
            assert str(exc.value) == message

    @pytest.mark.parametrize("path", sorted(ENDPOINTS))
    @pytest.mark.parametrize(BUILDER_PARAMS, BUILDER_CASES)
    def test_query_endpoints(self, tmp_path, path, builder, params,
                             message):
        """One 400 with the message; nothing is built, so the store is
        never read."""
        service = BoundService(ArtifactStore(tmp_path / "store.db"))
        try:
            body = {"builder": builder, "params": params, **ENDPOINTS[path]}
            assert service.handle("POST", path, body) \
                == (400, {"error": message})
            assert service.store.counters["hits"] == 0
            assert service.store.counters["misses"] == 0
        finally:
            service.close()


#: (bound spec fields, the message the library path gives)
BOUND_FIELD_CASES = [
    pytest.param({"s": "4"}, "'s' must be an integer, got '4'",
                 id="s-string"),
    pytest.param({"max_candidates": 7.9},
                 "'max_candidates' must be an integer, got 7.9",
                 id="max-candidates-float"),
    pytest.param({"s": True}, "'s' must be an integer, got True",
                 id="s-bool"),
    pytest.param({"method": "hong_kung", "u_upper": "12.5"},
                 "'u_upper' must be a number, got '12.5'",
                 id="u-upper-string"),
]


class TestBoundSpecFields:
    """``bound_spec`` takes what ``http.number`` takes: integer fields
    an integer (a numpy integer too, a bool never), ``u_upper`` any real
    number.  It converts nothing else, so no malformed argument is keyed
    as a well-typed one."""

    @pytest.mark.parametrize("fields, message", BOUND_FIELD_CASES)
    def test_malformed_fields_are_refused(self, tmp_path, fields, message):
        with pytest.raises(ValueError) as exc:
            bound_spec("chain", **fields)
        assert str(exc.value) == message
        with ArtifactStore(tmp_path / "store.db") as store:
            with pytest.raises(ValueError, match=message):
                cached_bound(store, "chain", **fields)
            assert store.counters["misses"] == 0

    def test_numpy_and_python_numbers_key_alike(self):
        assert bound_spec("chain", s=np.int64(4),
                          max_candidates=np.int32(7)) \
            == bound_spec("chain", s=4, max_candidates=7)
        assert bound_spec("chain", method="hong_kung", u_upper=40) \
            == bound_spec("chain", method="hong_kung", u_upper=40.0) \
            == bound_spec("chain", method="hong_kung",
                          u_upper=np.float64(40.0))


class TestCheckedBeforeAnythingRuns:
    def test_every_cell_of_a_grid_file_is_checked_first(self, tmp_path,
                                                        capsys):
        """A valid cell before a bad one runs nothing: the whole file is
        checked before the first cell directory is made."""
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps([
            {"experiment": "e2", "params": {"sizes": [4]}},
            {"experiment": "e6", "params": {"sizes": [4.5]}},
        ]))
        out = tmp_path / "results"
        err = _stderr_of(capsys, ["sweep", "--grid-file", str(grid),
                                  "--out", str(out)])
        assert err == (
            f"repro: error: grid file {grid}, cell 1: e6 param 'sizes' must "
            "be a list of integers, got 4.5 in [4.5]\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("experiment, value", [
        ("e2", {"sizes": [4, 0]}), ("e3", {"n": -1}),
        ("e8", {"shape": []}), ("e8", {"shape": [12, 0]}),
        ("e5", {"dimensions": [1, 0, 2]}), ("e9", {"gmres_m": 0}),
    ])
    def test_every_integer_below_one_is_refused(self, experiment, value):
        with pytest.raises(ValueError, match=f"{experiment} param "):
            make_spec(experiment, value)

    def test_e1_refuses_unknown_params(self):
        with pytest.raises(ValueError, match="unknown param 'bogus'"):
            make_spec("e1", {"bogus": 1})

    @pytest.mark.parametrize("experiment", sorted(
        key for key in REGISTRY if key not in ("e1", "e3", "e9")))
    def test_machines_only_where_a_driver_reads_it(self, experiment):
        with pytest.raises(ValueError, match="unknown param 'machines'"):
            make_spec(experiment, {"machines": ["IBM BG/Q"]})

    @pytest.mark.parametrize("experiment", ["e1", "e3", "e9"])
    def test_machines_select_catalog_rows(self, experiment):
        spec = make_spec(experiment, {"machines": ["Cray XT5"]})
        rows = REGISTRY[experiment].run(spec.params, spec.seed)
        machines = {row["machine"] for row in rows}
        assert "Cray XT5" in machines and "IBM BG/Q" not in machines
        with pytest.raises(ValueError) as exc:
            make_spec(experiment, {"machines": ["Cray"]})
        assert str(exc.value) == (
            f"{experiment} param 'machines' must name machines of "
            "['Cray XT5', 'IBM BG/Q'], got 'Cray'")

    def test_wire_cells_must_set_every_param(self):
        with pytest.raises(ValueError,
                           match="missing param 'sizes' for experiment"):
            check_params("e2", {"s": 64})


#: any JSON value a grid file can hold, small
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 40)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.sampled_from(["lru", "belady", "star", "IBM BG/Q", "x"]),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["a", "b"]), inner, max_size=2),
    max_leaves=6,
)


def _admissible(value, default, choices=None) -> bool:
    """Oracle: ``value`` may stand where ``default`` does, and is (each
    element is) one of ``choices`` when the param has them."""
    if isinstance(default, list):
        return (isinstance(value, list) and len(value) > 0
                and all(_admissible(v, default[0], choices) for v in value))
    if type(default) is int:
        return type(value) is int and value >= 1
    return type(value) is type(default) and (choices is None
                                             or value in choices)


def _checked(owner):
    """``(known params, choices, check)`` of an experiment's cells or a
    builder's specs; ``check(overrides)`` returns the admitted params."""
    kind, name = owner
    if kind == "builder":
        return (BUILDERS[name].defaults, {},
                lambda overrides: compiled_spec(name, overrides)["params"])
    entry = REGISTRY[name]
    return ({**entry.default_params, **entry.optional_params}, entry.choices,
            lambda overrides: make_spec(name, overrides).params)


#: every owner of params the one check guards
OWNERS = [("experiment", name) for name in sorted(REGISTRY)] + [
    ("builder", name) for name in sorted(BUILDERS)]


@settings(max_examples=600, derandomize=True, database=None, deadline=None)
@given(owner=st.sampled_from(OWNERS), data=st.data())
def test_grid_cell_fuzz_is_refused_or_well_typed(owner, data):
    """Random JSON values for an experiment's or a builder's params (and
    an unknown key): the check refuses a cell or spec with one
    ``ValueError`` and nothing else, and one it admits holds only values
    that may stand where the defaults do."""
    known, choices, check = _checked(owner)
    overrides = data.draw(st.dictionaries(
        st.sampled_from(sorted(known) + ["bogus"]), JSON_VALUES,
        max_size=3))
    try:
        params = check(overrides)
    except ValueError as exc:
        assert "\n" not in str(exc)
        return
    assert set(params) <= set(known)
    for name, value in params.items():
        assert _admissible(value, known[name], choices.get(name)), \
            (name, value)


def test_choices_are_what_the_engines_accept():
    """The registry's choices are the values the engines take: the spill
    workloads the bound server sizes, the strategy policies and
    backends, and the distsim cache policies."""
    choices = REGISTRY["spill"].choices
    assert set(choices["workload"]) == set(_SPILL_BUILDERS)
    assert tuple(choices["policy"]) == strategies._POLICIES
    assert tuple(choices["backend"]) == strategies._BACKENDS
    for policy in REGISTRY["e8"].choices["policies"]:
        distsim_cache.CacheSimulator(4, policy=policy)
    with pytest.raises(ValueError):
        distsim_cache.CacheSimulator(4, policy="fifo")


#: each registry key's driver
DRIVERS = {
    "e1": experiments.experiment_table1_machines,
    "e2": experiments.experiment_composite_example,
    "e3": experiments.experiment_cg_bounds,
    "e4": experiments.experiment_gmres_bounds,
    "e5": experiments.experiment_jacobi_bounds,
    "e6": experiments.experiment_matmul_bounds,
    "e7": experiments.experiment_bound_validation,
    "e8": experiments.experiment_distsim_parallel,
    "e9": experiments.experiment_balance_conditions,
    "spill": experiments.experiment_spill_strategies,
}


class TestOneDefinition:
    def test_drivers_cover_the_registry(self):
        assert set(DRIVERS) == set(REGISTRY)
        assert {f.__name__ for f in DRIVERS.values()} == set(experiments.__all__)

    @pytest.mark.parametrize("experiment", sorted(DRIVERS))
    def test_registry_params_are_the_driver_keywords(self, experiment):
        """The registry's param names are the driver's keywords; only the
        catalog fallbacks ``machine``/``machines`` keep a default (None),
        and spill's driver also takes the cell seed."""
        signature = inspect.signature(DRIVERS[experiment])
        defaults = {name: p.default for name, p in signature.parameters.items()
                    if p.default is not inspect.Parameter.empty}
        assert defaults == {name: None for name in defaults}
        assert set(defaults) <= {"machine", "machines"}
        entry = REGISTRY[experiment]
        declared = set(entry.default_params) | set(entry.optional_params)
        extra = {"seed"} if experiment == "spill" else set()
        assert set(signature.parameters) - {"machine"} == declared | extra
        check_params(experiment, entry.default_params)


def test_all_prints_the_default_grids_table_cells(tmp_path, capsys,
                                                  monkeypatch):
    """``repro all`` prints, for E1-E9, exactly the rows that the default
    grid's cells write to ``metrics.jsonl``, under each table's title."""
    titles = dict(TABLES.values())
    specs = [s for s in default_grid() if s.experiment in titles]
    assert [s.experiment for s in specs] == [f"e{k}" for k in range(1, 10)]
    run_grid(specs, tmp_path, log=lambda _msg: None)
    rendered = []
    real = report.render_report

    def capture(title, rows):
        rendered.append((title, rows))
        return real(title, rows)

    monkeypatch.setattr(report, "render_report", capture)
    assert main(["all"]) == 0
    assert [(title, [canonical_row(row) for row in rows])
            for title, rows in rendered] == [
        (titles[s.experiment], read_metrics(tmp_path / s.label))
        for s in specs
    ]
    assert capsys.readouterr().out == "".join(
        real(title, rows) + "\n\n" for title, rows in rendered)
