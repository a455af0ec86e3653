"""E5 — Theorem 10 / Section 5.4.3: Jacobi stencil analysis.

Regenerates the per-dimension vertical requirement ``1/(4 (2S)^{1/d})`` and
the dimension threshold above which the stencil is provably memory-bandwidth
bound on BG/Q (the paper's qualitative conclusion: only impractically
high-dimensional stencils are bound).
"""

import pytest

from repro.evaluation import REGISTRY, make_spec, render_report

from conftest import emit


def test_jacobi_dimension_threshold(benchmark):
    spec = make_spec("e5")
    rows = benchmark(REGISTRY["e5"].run, spec.params, spec.seed)
    emit(render_report(
        "Section 5.4.3 — Jacobi vertical requirement per dimension (IBM BG/Q)",
        rows,
        notes=[
            "paper threshold (linearised form 0.21*log2(2S)) = 4.83;"
            " exact condition threshold = log(2S)/log(1/(4*balance)) ~ 10.2",
            "both agree qualitatively: practical stencils (d <= 3) are far "
            "from being vertically bandwidth bound",
        ],
    ))
    by_d = {r["d"]: r for r in rows}
    assert by_d[2]["vertically_bound"] is False
    assert by_d[3]["vertically_bound"] is False
    assert by_d[11]["vertically_bound"] is True
    assert by_d[2]["paper_threshold_d"] == pytest.approx(4.83, rel=0.01)
