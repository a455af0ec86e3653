"""Content addresses pinned to literal values.

The property suites prove that keys are stable under reordering and
respelling; these literals prove that they did not move at all.  A
change to the canonical form (say, a faster canonicalization path) that
moved a key would orphan every row stored under it, and a moved
``config_hash`` would re-run every committed cell on ``--resume``.
Each spec mixes the spellings the canonical form folds together: tuples
for lists, numpy scalars for ints, defaults left implicit."""

import numpy as np
import pytest

from repro.evaluation.harness import make_spec
from repro.evaluation.manifest import config_hash
from repro.service.server import BoundService
from repro.store import ArtifactStore
from repro.store.analysis import (
    bound_spec,
    cached_spill,
    compiled_spec,
    schedule_spec,
)
from repro.store.keys import CODE_VERSION_ENV, artifact_key

CODE_VER = "pinned-code-version"

PINNED_KEYS = [
    pytest.param(
        "compiled",
        lambda: compiled_spec("grid", {"shape": (3, 4),
                                       "timesteps": np.int64(2)}),
        "dcd3627013b45a8375d7c9f6a50f6815c9771311d7b577c39515079b4e365228",
        id="compiled"),
    pytest.param(
        "schedule",
        lambda: schedule_spec("forest", {"components": 2}, seed=7,
                              kind="minlive"),
        "97af8d9b490a869559d6b559ff46fcaec92c5edd9c0d3a875fc7103a68844ca7",
        id="schedule"),
    pytest.param(
        "bound",
        lambda: bound_spec("chain", {"length": 16}, s=4),
        "7707f540a66314905d8a630194f52f8cfb756a5bd5ad430c5bf985c2e862221c",
        id="bound-wavefront"),
    pytest.param(
        "bound",
        lambda: bound_spec("dense", None, s=2, method="hong_kung",
                           u_upper=12.5),
        "5fd89e211e27a079db8ae6d96b34f47aae92044ab6ea8679f5d2738789e4867e",
        id="bound-hong-kung"),
    pytest.param(
        "spill",
        lambda: {"builder": "star",
                 "params": dict(make_spec("spill", {"ops": 8}).params),
                 "seed": 3},
        "4db0e211adfc3925c9ad3019c5e244f904a510e8b7eed384fb0435db70713899",
        id="spill"),
]


@pytest.mark.parametrize("kind, spec, key", PINNED_KEYS)
def test_artifact_key_is_pinned(kind, spec, key):
    assert artifact_key(kind, spec(), CODE_VER) == key


def test_served_and_stored_keys_are_the_pinned_ones(tmp_path, monkeypatch):
    """The bound server echoes the pinned key, and a spill query stores
    its row under its pinned key."""
    monkeypatch.setenv(CODE_VERSION_ENV, CODE_VER)
    service = BoundService(ArtifactStore(tmp_path / "store.db"))
    try:
        status, payload = service.handle(
            "POST", "/v1/bound",
            {"builder": "chain", "params": {"length": 16}, "s": 4})
        assert status == 200
        assert payload["key"] == PINNED_KEYS[2].values[2]
        cached_spill(service.store, {"ops": 8}, seed=3)
        assert service.store.get(PINNED_KEYS[4].values[2]) is not None
    finally:
        service.close()


def test_config_hash_is_pinned():
    params = {"shape": (12, 12), "timesteps": 3, "num_nodes": 4,
              "cache_words": np.int64(32), "policies": ["lru", "belady"]}
    assert config_hash("e8", params, 1) == (
        "032d2693a637a971e12f6ed1e4a30e6ac5f9ac99d6756f332002d6f2dc8e474a")
