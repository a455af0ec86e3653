"""E9 — balance-condition sweep across algorithms and machines.

The summary table of the paper's evaluation narrative: CG and small-m GMRES
are vertically (memory-bandwidth) bound on both Table 1 machines, the
3-D Jacobi stencil is not, and none of the algorithms are network bound.
"""

from repro.evaluation import REGISTRY, make_spec, render_report

from conftest import emit


def test_balance_condition_sweep(benchmark):
    spec = make_spec("e9")
    rows = benchmark(REGISTRY["e9"].run, spec.params, spec.seed)
    emit(render_report(
        "Evaluation summary — bandwidth-bound verdicts per algorithm and machine",
        rows,
        notes=["reproduces the paper's conclusion that vertical (within-node) "
               "data movement, not the interconnect, is the binding constraint"],
    ))
    for r in rows:
        if r["algorithm"] == "CG":
            assert r["vertically_bound"] is True
            assert r["possibly_network_bound"] is False
        if r["algorithm"] == "Jacobi":
            assert r["vertically_bound"] is False
