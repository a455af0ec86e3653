"""Randomized differential suite: every cached artifact is byte-identical
to its freshly computed counterpart.

The store path is ``fresh_* -> codec -> SQLite``, so this pins the whole
invariant chain: a warm hit can never drift from a recomputation — not
across calls, not across store reopenings, not across seeds.  Also pins
that a CDAG mutated after ``compiled()`` invalidates its snapshot.
"""

import numpy as np
import pytest

from repro.store import (
    BUILDERS,
    ArtifactStore,
    build_cdag,
    cached_bound,
    cached_compiled_payload,
    cached_schedule,
    cached_spill,
    fresh_bound,
    fresh_compiled_payload,
    fresh_schedule,
    fresh_spill,
)
from repro.store.analysis import (
    MAX_CANDIDATES, MAX_CDAG_SIZE, bound_spec, compiled_spec,
)

# (builder, params) points spanning every family; seeds only matter for
# the forest builder but are exercised everywhere.
CASES = [
    ("chain", {"length": 12}),
    ("chains", {"num_chains": 3, "length": 5}),
    ("tree", {"num_leaves": 8, "arity": 2}),
    ("bcast", {"num_leaves": 9, "arity": 3}),
    ("diamond", {"width": 4, "depth": 3}),
    ("grid", {"shape": [4, 4], "timesteps": 2}),
    ("butterfly", {"log_n": 3}),
    ("pyramid", {"base": 5}),
    ("outer", {"n": 3}),
    ("dense", {"num_inputs": 3, "num_outputs": 4}),
    ("star_spill", {"ops": 6, "degree": 3}),
    ("forest", {"components": 3, "component_size": 6}),
]


@pytest.fixture
def store(tmp_path):
    with ArtifactStore(tmp_path / "diff.db") as s:
        yield s


def _random_case(rng):
    builder, params = CASES[int(rng.integers(len(CASES)))]
    seed = int(rng.integers(4))
    return builder, params, seed


class TestCompiledByteIdentity:
    @pytest.mark.parametrize("builder,params", CASES)
    def test_cached_equals_fresh(self, store, builder, params):
        cold, hit_cold = cached_compiled_payload(store, builder, params)
        warm, hit_warm = cached_compiled_payload(store, builder, params)
        assert (hit_cold, hit_warm) == (False, True)
        assert cold == warm == fresh_compiled_payload(builder, params)

    def test_randomized_sweep_across_reopen(self, tmp_path):
        rng = np.random.default_rng(7)
        path = tmp_path / "sweep.db"
        expected = {}
        with ArtifactStore(path) as store:
            for _ in range(20):
                builder, params, seed = _random_case(rng)
                payload, _ = cached_compiled_payload(
                    store, builder, params, seed
                )
                assert payload == fresh_compiled_payload(
                    builder, params, seed
                )
                expected[(builder, seed)] = payload
        # a different process/epoch reopening the same file must see
        # bit-identical artifacts and hit on all of them
        with ArtifactStore(path) as store:
            for (builder, seed), payload in expected.items():
                again, hit = cached_compiled_payload(
                    store, builder, dict(CASES)[builder], seed
                )
                assert hit is True and again == payload

    def test_forest_seeds_are_distinct_artifacts(self, store):
        p0, _ = cached_compiled_payload(store, "forest", seed=0)
        p1, _ = cached_compiled_payload(store, "forest", seed=1)
        assert p0 != p1
        assert p0 == fresh_compiled_payload("forest", seed=0)
        assert p1 == fresh_compiled_payload("forest", seed=1)


class TestDerivedArtifacts:
    @pytest.mark.parametrize("kind", ["dfs", "minlive"])
    def test_schedule_matches_fresh(self, store, kind):
        rng = np.random.default_rng(11)
        for _ in range(8):
            builder, params, seed = _random_case(rng)
            ids, _ = cached_schedule(store, builder, params, seed, kind)
            np.testing.assert_array_equal(
                ids, fresh_schedule(builder, params, seed, kind)
            )
            ids2, hit = cached_schedule(store, builder, params, seed, kind)
            assert hit is True
            np.testing.assert_array_equal(ids2, ids)

    def test_bound_matches_fresh(self, store):
        rng = np.random.default_rng(13)
        seen = set()
        for _ in range(8):
            builder, params, seed = _random_case(rng)
            s = int(rng.integers(2, 6))
            cold, hit0 = cached_bound(store, builder, params, seed, s=s)
            warm, hit1 = cached_bound(store, builder, params, seed, s=s)
            assert hit0 is ((builder, seed, s) in seen)
            assert hit1 is True
            seen.add((builder, seed, s))
            assert cold == warm == fresh_bound(builder, params, seed, s=s)

    def test_analytical_and_hong_kung_bounds(self, store):
        a, _ = cached_bound(
            store, "butterfly", {"log_n": 3}, s=2, method="analytical"
        )
        assert a == fresh_bound(
            "butterfly", {"log_n": 3}, s=2, method="analytical"
        )
        hk, _ = cached_bound(
            store, "chain", {"length": 12}, s=2, method="hong_kung",
            u_upper=40.0,
        )
        assert hk == fresh_bound(
            "chain", {"length": 12}, s=2, method="hong_kung", u_upper=40.0
        )

    @pytest.mark.parametrize("method, extra", [
        ("wavefront", {}),
        ("hong_kung", {"u_upper": 40.0}),
        ("analytical", {}),
    ])
    @pytest.mark.parametrize("s", [0, -5])
    def test_bound_needs_s_of_at_least_one(self, store, method, extra, s):
        args = ("butterfly", {"log_n": 3})
        with pytest.raises(ValueError, match="must be >= 1"):
            fresh_bound(*args, s=s, method=method, **extra)
        with pytest.raises(ValueError, match="must be >= 1"):
            cached_bound(store, *args, s=s, method=method, **extra)
        assert store.counters["misses"] == 0

    def test_spill_row_matches_fresh(self, store):
        params = {"workload": "forest", "components": 3,
                  "component_size": 8}
        cold, hit0 = cached_spill(store, params, seed=2)
        warm, hit1 = cached_spill(store, params, seed=2)
        assert (hit0, hit1) == (False, True)
        assert cold == warm == fresh_spill(params, seed=2)

    def test_misses_store_answers_only(self, store):
        """A schedule or bound miss writes its own row and nothing else:
        no compiled snapshot is stored beside the answer."""
        grid = ("grid", {"shape": [4, 4], "timesteps": 2})
        cached_schedule(store, *grid, kind="minlive")
        cached_bound(store, *grid, s=2)
        cached_bound(store, *grid, s=2, method="hong_kung", u_upper=40.0)
        kinds = store.stats()["kinds"]
        assert {kind: row["entries"] for kind, row in kinds.items()} == {
            "bound": 2,
            "schedule": 1,
        }
        assert store.counters["puts"] == 3
        _, hit = cached_compiled_payload(store, *grid)
        assert hit is False


class TestAdoptionSafety:
    def test_mutation_after_compiled_drops_snapshot(self):
        from repro.core.builders import chain_cdag

        cdag = chain_cdag(6)
        c = cdag.compiled()
        cdag.add_vertex("extra")
        cdag.add_edge(("chain", 6), "extra")
        assert cdag.compiled() is not c
        assert cdag.compiled().n == c.n + 1


# Small params for every family, edge cases included (a grid of ones,
# arities past the leaf count).  An empty shape is refused by the param
# check (tests/evaluation/test_param_gate.py).
SIZE_SWEEP = {
    "chain": [{"length": n} for n in range(1, 12)],
    "chains": [{"num_chains": c, "length": n}
               for c in range(1, 4) for n in range(1, 5)],
    "tree": [{"num_leaves": n, "arity": a}
             for n in range(1, 40) for a in (2, 3, 5, 50)],
    "bcast": [{"num_leaves": n, "arity": a}
              for n in range(1, 40) for a in (2, 3, 5, 50)],
    "diamond": [{"width": w, "depth": d}
                for w in range(1, 5) for d in range(1, 5)],
    "grid": [{"shape": shape, "timesteps": t}
             for shape in ([1], [5], [3, 4], [1, 1, 1], [2, 3, 2])
             for t in (1, 3)],
    "butterfly": [{"log_n": n} for n in range(1, 7)],
    "pyramid": [{"base": b} for b in range(1, 12)],
    "outer": [{"n": n} for n in range(1, 8)],
    "dense": [{"num_inputs": i, "num_outputs": o}
              for i in range(1, 4) for o in range(1, 4)],
    "star_spill": [{"ops": o, "degree": d}
                   for o in range(1, 4) for d in range(1, 4)],
    "forest": [{"components": c, "component_size": n}
               for c in (1, 3) for n in range(1, 14)],
}


class TestSizeBound:
    """``BuilderDef.size`` bounds vertices + edges from above without
    building, so the size cap never admits a CDAG over it."""

    @pytest.mark.parametrize("builder", sorted(BUILDERS))
    def test_closed_form_bounds_the_built_cdag(self, builder):
        for params in SIZE_SWEEP[builder]:
            merged = compiled_spec(builder, params)["params"]
            cdag = build_cdag(builder, params, seed=3)
            assert BUILDERS[builder].size(merged) >= \
                cdag.num_vertices() + cdag.num_edges(), params

    def test_every_default_is_far_below_the_cap(self):
        assert set(SIZE_SWEEP) == set(BUILDERS)
        for name, bdef in BUILDERS.items():
            assert 50 * bdef.size(bdef.defaults) <= MAX_CDAG_SIZE, name

    @pytest.mark.parametrize("builder", sorted(BUILDERS))
    def test_size_below_one_is_refused_before_any_lookup(
        self, store, builder
    ):
        """Each builder's first param is a size (a shape entry for the
        grid); below one it is a ``ValueError`` naming the param, raised
        by the param check, so the store is never read."""
        key = next(iter(BUILDERS[builder].defaults))
        value = [4, 0] if key == "shape" else 0
        with pytest.raises(ValueError, match=f"param '{key}'"):
            cached_bound(store, builder, {key: value})
        assert store.counters["misses"] == store.counters["hits"] == 0
        assert store.stats()["entries"] == 0

    @pytest.mark.parametrize("max_candidates", [0, MAX_CANDIDATES + 1,
                                                10**9])
    def test_max_candidates_outside_the_cap_is_refused_before_any_lookup(
        self, store, max_candidates
    ):
        """A wavefront bound runs up to one max-flow per candidate, so
        ``max_candidates`` is capped at ``MAX_CANDIDATES``: a value
        outside ``[1, MAX_CANDIDATES]`` is a ``ValueError`` from the
        spec, and the store is never read."""
        with pytest.raises(ValueError, match="max_candidates"):
            bound_spec("chain", max_candidates=max_candidates)
        with pytest.raises(ValueError, match="max_candidates"):
            cached_bound(store, "chain", max_candidates=max_candidates)
        assert store.counters["misses"] == store.counters["hits"] == 0
        spec = bound_spec("chain", max_candidates=MAX_CANDIDATES)
        assert spec["max_candidates"] == MAX_CANDIDATES
