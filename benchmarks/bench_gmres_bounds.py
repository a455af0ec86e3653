"""E4 — Theorem 9 / Section 5.3.3: GMRES data-movement analysis.

Regenerates the GMRES intensity ``6/(m+20)`` as a function of the Krylov
dimension m, showing the crossover from memory-bound (small m) to
undetermined (large m), and the negligible horizontal requirement.
"""

import pytest

from repro.evaluation import REGISTRY, make_spec, render_report

from conftest import emit


def test_gmres_bounds_analysis(benchmark):
    spec = make_spec("e4", {"krylov_dimensions": [5, 10, 20, 50, 100, 200]})
    rows = benchmark(REGISTRY["e4"].run, spec.params, spec.seed)
    emit(render_report(
        "Section 5.3.3 — GMRES vertical intensity 6/(m+20) vs machine balance",
        rows,
        notes=["vertical requirement exceeds the BG/Q balance for small m "
               "and falls below it as the orthogonalisation work grows"],
    ))
    for r in rows:
        assert r["vertical_intensity"] == pytest.approx(r["paper_formula_6/(m+20)"])
        assert r["possibly_network_bound"] is False
    assert rows[0]["vertically_bound"] is True
    assert rows[-1]["vertically_bound"] is False
