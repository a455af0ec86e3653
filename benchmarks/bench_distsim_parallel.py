"""E8 — simulated distributed machine vs the parallel lower bounds.

Runs the block-partitioned stencil and CG workloads on the simulated
cluster (per-node LRU/Belady caches, ghost-cell exchanges) and compares
the measured per-node vertical and horizontal traffic against the
Theorem 8/10 lower bounds and the ghost-cell upper-bound formula.  Also the
ablation bench for the cache replacement policy.
"""

from repro.evaluation import REGISTRY, make_spec, render_report

from conftest import emit


def test_distsim_measurements_vs_bounds(benchmark):
    spec = make_spec(
        "e8", {"shape": [24, 24], "timesteps": 6, "cache_words": 64}
    )
    rows = benchmark(REGISTRY["e8"].run, spec.params, spec.seed)
    emit(render_report(
        "Simulated cluster — measured traffic vs analytical bounds",
        rows,
        notes=["measured vertical traffic must dominate the lower bounds; "
               "Belady (optimal replacement) narrows but never closes the gap"],
    ))
    for r in rows:
        assert r["vertical_ok"]
    lru = [r for r in rows if r["policy"] == "lru"]
    opt = [r for r in rows if r["policy"] == "belady"]
    for a, b in zip(lru, opt):
        assert b["measured_vertical_max"] <= a["measured_vertical_max"]
