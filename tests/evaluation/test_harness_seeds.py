"""Seed-plumbing audit for the harness (satellite of the manifest PR).

E1-E9 are deterministic given their parameters; the only randomized
construction reachable from a driver is the ``forest`` workload of
``experiment_spill_strategies``, which takes an **explicit** seed.  The
harness records the seed of every cell in its manifest, and this suite
pins the contract: two same-seed runs of a grid that includes the
randomized workload produce byte-identical ``metrics.jsonl`` (and
summaries), while different seeds are different cell identities.
"""

from repro.evaluation.experiments import experiment_spill_strategies
from repro.evaluation.harness import make_spec, run_grid
from repro.evaluation.manifest import read_manifest, read_metrics


def _seeded_grid(seed):
    return [
        make_spec("e2", {"sizes": [4, 8], "s": 64}, seed=seed),
        make_spec(
            "spill",
            {"workload": "forest", "components": 3, "component_size": 10},
            seed=seed,
            label="forest",
        ),
        make_spec(
            "spill", {"workload": "chains", "chains": 4, "length": 8},
            seed=seed, label="chains",
        ),
    ]


class TestSameSeedIdentity:
    def test_same_seed_runs_write_identical_metrics(self, tmp_path):
        roots = []
        for name in ("a", "b"):
            root = tmp_path / name
            run_grid(_seeded_grid(seed=7), root, log=lambda _: None)
            roots.append(root)
        for cell in ("e2", "forest", "chains"):
            a = (roots[0] / cell / "metrics.jsonl").read_bytes()
            b = (roots[1] / cell / "metrics.jsonl").read_bytes()
            assert a == b, f"metrics.jsonl differs for cell {cell}"
            a_sum = (roots[0] / cell / "summary.json").read_bytes()
            b_sum = (roots[1] / cell / "summary.json").read_bytes()
            assert a_sum == b_sum

    def test_seed_is_recorded_in_manifest_and_rows(self, tmp_path):
        root = tmp_path / "store"
        run_grid(_seeded_grid(seed=7), root, log=lambda _: None)
        for cell in ("e2", "forest", "chains"):
            assert read_manifest(root / cell)["seed"] == 7
        forest_rows = read_metrics(root / "forest")
        assert forest_rows[0]["seed"] == 7

    def test_different_seeds_are_different_cell_identities(self):
        grid7 = _seeded_grid(seed=7)
        grid8 = _seeded_grid(seed=8)
        for a, b in zip(grid7, grid8):
            assert a.label == b.label
            assert a.hash() != b.hash()


def _forest_rows(seed):
    """The forest driver, called directly on a small registry cell."""
    spec = make_spec(
        "spill", {"workload": "forest", "components": 3, "component_size": 10}
    )
    return experiment_spill_strategies(**spec.params, seed=seed)


class TestDriverSeedPlumbing:
    def test_forest_driver_is_deterministic_per_seed(self):
        rows_a = _forest_rows(11)
        rows_b = _forest_rows(11)
        assert rows_a == rows_b
        assert rows_a[0]["seed"] == 11

    def test_forest_seed_changes_the_game(self):
        """Different seeds build different random forests.  Vertex count
        is fixed by construction, so structure shows up in the edge
        count or the played game; assert on a seed pair where it does
        (deterministically — no RNG in the test itself)."""
        rows_11 = _forest_rows(11)[0]
        rows_12 = _forest_rows(12)[0]
        assert (
            rows_11["num_edges"],
            rows_11["moves"],
            rows_11["io"],
        ) != (rows_12["num_edges"], rows_12["moves"], rows_12["io"])

    def test_deterministic_drivers_ignore_seed(self):
        """The audit's complement: E2 is parameter-deterministic, so the
        seed changes the manifest identity but never the rows."""
        from repro.evaluation.experiments import experiment_composite_example

        assert experiment_composite_example(sizes=(4, 8), s=64) == (
            experiment_composite_example(sizes=(4, 8), s=64)
        )
