"""E6 — matrix-multiplication and outer-product bounds (Section 3 constants).

Regenerates the N^3/(2 sqrt(2S)) matmul lower bound, the Corollary 1 bound
computed from the CDAG, and the measured upper bound of a spill game; the
sandwich LB <= UB must hold for every (N, S).
"""

from repro.evaluation import REGISTRY, make_spec, render_report

from conftest import emit


def test_matmul_bound_sandwich(benchmark):
    spec = make_spec("e6", {"cache_sizes": [8, 16, 32]})
    rows = benchmark(REGISTRY["e6"].run, spec.params, spec.seed)
    emit(render_report(
        "Matrix multiplication — analytical LB vs Corollary 1 vs spill-game UB",
        rows,
    ))
    for r in rows:
        assert r["sandwich_ok"]
        assert r["analytical_LB"] > 0
        assert r["spill_game_UB"] >= r["corollary1_LB"]
