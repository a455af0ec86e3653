"""Route-aware fuzz of both JSON apps through ``handle()``.

Hypothesis sends every route of the bound server and of the fleet
controller bodies whose fields hold the expected shape or junk of any
JSON type, mixed with unknown paths and wrong methods, and checks the
contract of the shared HTTP layer (:mod:`repro.service.http`):

* no request is answered 5xx, and every payload passes the canonical
  encoder the wire uses;
* ``/metrics`` counters never decrease between scrapes;
* the ``http.*`` instruments stay within three per route plus
  ``http.unmatched``, whatever paths arrive;
* the controller never leases a label twice, each worker's ``leased``
  set equals the leases it holds, and no lease is granted past the
  worker's slots (re-registering with fewer slots keeps the leases
  already held, by design, so the cap is checked at grant time);
* every leased label is a plain directory name, whatever labels the
  grids carry (``../c0``, ``/tmp/c0``, ``a/b``, ``..``).

Builder and spill sizes are at most ~10, or now and then far over the
size cap (``MAX_CDAG_SIZE``), which refuses the spec before anything is
built or played, so a query the server accepts is cheap (a huge size
the workload does not play on, or a huge ``num_red``, costs nothing).
Other huge ints appear only in the fields the number parser
range-checks (``seed``, ``s``, ``slots``).  Deterministic: derandomized,
no example database, fixed example counts.
"""

import math

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from repro.evaluation.harness import ExperimentDef  # noqa: E402
from repro.evaluation.manifest import dumps_canonical  # noqa: E402
from repro.fleet.controller import FleetController  # noqa: E402
from repro.service.server import BoundService  # noqa: E402
from repro.store.analysis import (  # noqa: E402
    BOUND_METHODS, BUILDERS, SCHEDULE_KINDS,
)
from repro.store.db import ArtifactStore  # noqa: E402


def fuzz(max_examples):
    return settings(
        max_examples=max_examples,
        derandomize=True,
        database=None,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )


JUNK = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-2, 12),
    st.floats(-2, 12),
    st.sampled_from([math.inf, -math.inf, math.nan]),
    st.text(alphabet="ab3-. ", max_size=3),
    st.lists(st.integers(-1, 4), max_size=3),
    st.dictionaries(st.text(alphabet="ab", max_size=2), st.integers(0, 3),
                    max_size=2),
)
HUGE = st.sampled_from([2**63, -(2**63) - 1, 10**30, 1e30])


def rarely(rare, common):
    """``common`` nine times in ten, else ``rare``."""
    return st.integers(0, 9).flatmap(lambda k: rare if k == 0 else common)


def or_junk(strategy):
    """Mostly ``strategy``, sometimes junk of any JSON type, so a
    multi-field body is often valid as a whole."""
    return rarely(JUNK, strategy)


NUMBER = or_junk(rarely(HUGE, st.integers(-2, 10)))  # seed, s, slots


def size(hi=10):
    return or_junk(st.integers(1, hi))


def unknown_route(known_paths):
    path = st.one_of(
        st.sampled_from(sorted(known_paths)),
        st.text(alphabet="/abv1?.%", max_size=10).map(lambda t: "/" + t),
    )
    body = st.one_of(st.none(), st.dictionaries(st.text(max_size=3), JUNK,
                                                max_size=3))
    return st.tuples(st.sampled_from(["GET", "POST", "PUT"]), path, body)


# ----------------------------------------------------------------------
# The bound server
# ----------------------------------------------------------------------
#: builder sizes that alone put a spec over the size cap
OVERSIZE = st.sampled_from([10**7, 10**8, 2**62, 10**30])


def builder_params(name):
    fields = {
        key: or_junk(st.lists(rarely(OVERSIZE, st.integers(0, 4)),
                              min_size=1, max_size=2))
        if key == "shape"
        else or_junk(rarely(OVERSIZE, st.integers(1, 4 if key == "log_n"
                                                   else 10)))
        for key in BUILDERS[name].defaults
    }
    return with_unknown_key(st.fixed_dictionaries(fields))


def with_unknown_key(params):
    return rarely(params.map(lambda p: {**p, "bogus": 1}), params)


@st.composite
def query_body(draw, extra):
    builder = draw(or_junk(st.sampled_from(sorted(BUILDERS))))
    body = {"builder": builder}
    if isinstance(builder, str) and builder in BUILDERS:
        body["params"] = draw(or_junk(builder_params(builder)))
    elif draw(st.booleans()):
        body["params"] = draw(JUNK)
    body.update(draw(st.fixed_dictionaries(
        {}, optional={"seed": NUMBER, **extra}
    )))
    return body


BOUND_FIELDS = {
    "s": NUMBER,
    "method": or_junk(st.sampled_from(BOUND_METHODS)),
    "max_candidates": size(4),
    "u_upper": or_junk(st.floats(-1, 100)),
}
SCHEDULE_FIELDS = {
    "kind": or_junk(st.sampled_from(SCHEDULE_KINDS)),
    "include_ids": or_junk(st.booleans()),
}
SPILL_PARAMS = st.fixed_dictionaries(
    {"workload": or_junk(st.sampled_from(["star", "chains", "forest"]))},
    optional={
        **{key: or_junk(rarely(OVERSIZE, st.integers(1, 10)))
           for key in ("ops", "degree", "chains", "length", "num_red",
                       "components", "component_size")},
        "policy": or_junk(st.sampled_from(["lru", "belady"])),
        "backend": or_junk(st.sampled_from(["batched", "dict"])),
    },
)
BOUND_PATHS = {"/health", "/stats", "/metrics", "/v1/compiled",
               "/v1/schedule", "/v1/bound", "/v1/pebble"}
BOUND_REQUEST = st.one_of(
    st.tuples(st.just("POST"), st.just("/v1/compiled"), query_body({})),
    st.tuples(st.just("POST"), st.just("/v1/schedule"),
              query_body(SCHEDULE_FIELDS)),
    st.tuples(st.just("POST"), st.just("/v1/bound"),
              query_body(BOUND_FIELDS)),
    st.tuples(st.just("POST"), st.just("/v1/pebble"),
              st.fixed_dictionaries({}, optional={
                  "params": or_junk(with_unknown_key(SPILL_PARAMS)),
                  "seed": NUMBER})),
    st.tuples(st.just("GET"), st.sampled_from(["/health", "/stats",
                                               "/metrics"]), st.none()),
    unknown_route(BOUND_PATHS),
)


def answer(app, method, path, body):
    status, payload = app.handle(method, path, body)
    assert status < 500, (method, path, body, payload)
    dumps_canonical(payload, indent=None)  # what the wire would send
    return status, payload


def scrape(app, last, routes):
    """One ``/metrics`` scrape: counters only grow, and the ``http.*``
    instruments stay bounded by the number of routes."""
    _status, view = answer(app, "GET", "/metrics", None)
    snap = view["metrics"]
    for name, value in last.items():
        assert snap["counters"].get(name, 0) >= value, name
    http = [name for name in (*snap["counters"], *snap["histograms"])
            if name.startswith("http.")]
    assert len(http) <= 3 * routes + 1, sorted(http)
    last.clear()
    last.update(snap["counters"])


@pytest.fixture(scope="module")
def bound_app(tmp_path_factory):
    app = BoundService(
        ArtifactStore(tmp_path_factory.mktemp("fuzz") / "fuzz.db")
    )
    yield app, {}
    app.close()


@fuzz(400)
@given(requests=st.lists(BOUND_REQUEST, min_size=1, max_size=6))
def test_bound_server_never_fails_on_client_input(bound_app, requests):
    app, last = bound_app
    for method, path, body in requests:
        answer(app, method, path, body)
    scrape(app, last, len(BOUND_PATHS))


# ----------------------------------------------------------------------
# The fleet controller
# ----------------------------------------------------------------------
def _run_quick(params, seed):
    return [{"seed": seed}]


REGISTRY = {"quick": ExperimentDef("quick", _run_quick, {"x": 2})}
WORKER = or_junk(st.sampled_from(["w1", "w2", "w3"]))
# Labels name run directories (``root / label``): the last four are not
# plain directory names and must never be queued or leased.
LABEL = or_junk(st.sampled_from(
    ["c0", "c1", "c2", "c3", "../c0", "/tmp/c0", "a/b", ".."]
))
CELL = st.fixed_dictionaries(
    {"experiment": or_junk(st.just("quick")), "label": LABEL},
    optional={
        "params": or_junk(st.fixed_dictionaries({}, optional={"x": size()})),
        "seed": NUMBER,
    },
)


def _label_of(cell):
    return str(cell.get("label")) if isinstance(cell, dict) else repr(cell)


FLEET_PATHS = {"/health", "/status", "/metrics", "/v1/grid",
               "/v1/register", "/v1/lease", "/v1/heartbeat", "/v1/report"}
LEASE = st.tuples(st.just("POST"), st.just("/v1/lease"),
                  st.fixed_dictionaries({"worker": WORKER}))
VALID_GRID = st.lists(st.sampled_from(["c0", "c1", "c2", "c3"]), min_size=1,
                      max_size=4, unique=True).map(
    lambda labels: [{"experiment": "quick", "params": {"x": 2},
                     "label": label} for label in labels])
FLEET_STEP = st.one_of(
    st.tuples(st.just("POST"), st.just("/v1/grid"),
              st.fixed_dictionaries({"cells": or_junk(st.lists(
                  or_junk(CELL), min_size=1, max_size=4,
                  unique_by=_label_of))})),
    st.tuples(st.just("POST"), st.just("/v1/register"),
              st.fixed_dictionaries({"worker": WORKER}, optional={
                  "slots": or_junk(rarely(HUGE, st.integers(0, 3)))})),
    LEASE,
    LEASE,  # twice as likely: leases are where the invariants bite
    st.tuples(st.just("POST"), st.just("/v1/heartbeat"),
              st.fixed_dictionaries({"worker": WORKER}, optional={
                  "labels": or_junk(st.lists(LABEL, max_size=3))})),
    st.tuples(st.just("POST"), st.just("/v1/report"),
              st.fixed_dictionaries(
                  {"worker": WORKER, "label": LABEL},
                  optional={"ok": or_junk(st.booleans()),
                            "error": or_junk(st.sampled_from(
                                ["", "boom", "killed by SIGKILL"]))})),
    st.tuples(st.just("GET"), st.sampled_from(["/health", "/status",
                                               "/metrics"]), st.none()),
    unknown_route(FLEET_PATHS),
    # a clock step between requests: expires leases, ends backoffs
    st.tuples(st.just("TICK"), st.floats(0, 8), st.none()),
)


class SteppingClock:
    def __init__(self) -> None:
        self.now = 100.0

    def __call__(self) -> float:
        return self.now


def check_leases(controller, granted_to=None):
    """The lease invariants, read through the controller's status view."""
    status = controller.status()
    labels = [lease["label"] for lease in status["leases"]]
    assert len(labels) == len(set(labels)), labels
    for label in labels:
        assert label not in ("", ".", "..") and not set("/\\\0") & set(label)
    held = {}
    for lease in status["leases"]:
        held.setdefault(lease["worker"], set()).add(lease["label"])
    for worker in status["workers"]:
        assert set(worker["leased"]) == held.pop(worker["name"], set())
        if worker["name"] == granted_to:
            assert len(worker["leased"]) <= worker["slots"]
    assert not held, held


@pytest.fixture(scope="module")
def fleet_root(tmp_path_factory):
    return tmp_path_factory.mktemp("fleet-fuzz")


@fuzz(400)
@given(grid=st.one_of(st.none(), VALID_GRID),
       steps=st.lists(FLEET_STEP, min_size=1, max_size=16))
def test_controller_never_fails_or_double_leases(fleet_root, grid, steps):
    """Half the sequences start from a valid grid, so leases get
    granted, expire and come back."""
    clock = SteppingClock()
    controller = FleetController(
        fleet_root, lease_ttl_s=5.0, max_retries=2, backoff_s=1.0,
        registry=REGISTRY, log=lambda message: None, clock=clock,
    )
    if grid is not None:
        steps = [("POST", "/v1/grid", {"cells": grid})] + steps
    last = {}
    for method, path, body in steps:
        if method == "TICK":
            clock.now += path
            continue
        status, payload = answer(controller, method, path, body)
        granted = path == "/v1/lease" and status == 200 and payload["cell"]
        check_leases(controller, str(body["worker"]) if granted else None)
        scrape(controller, last, len(FLEET_PATHS))
