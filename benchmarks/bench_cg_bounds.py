"""E3 — Theorem 8 / Section 5.2.3: CG data-movement analysis.

Regenerates the CG rows of the evaluation: vertical intensity 0.3
words/FLOP (above every Table 1 balance, hence memory-bandwidth bound) and
the small horizontal intensity ``6 N_nodes^{1/3} / (20 n)`` (not network
bound), plus a small-grid wavefront cross-check of Theorem 8.
"""

import pytest

from repro.evaluation import REGISTRY, make_spec, render_report

from conftest import emit


def test_cg_bounds_analysis(benchmark):
    spec = make_spec("e3")
    rows = benchmark(REGISTRY["e3"].run, spec.params, spec.seed)
    emit(render_report(
        "Section 5.2.3 — CG vertical/horizontal data movement vs machine balance",
        rows,
        notes=["paper: LB_vert*N/|V| = 6/20 = 0.3 > balance of all machines;"
               " horizontal requirement orders of magnitude below balance"],
    ))
    machine_rows = [r for r in rows if r["machine"] in ("IBM BG/Q", "Cray XT5")]
    for r in machine_rows:
        assert r["vertical_intensity"] == pytest.approx(0.3)
        assert r["vertically_bound"] is True
        assert r["possibly_network_bound"] is False
