"""E1 — Table 1: machine specifications and balance parameters.

Regenerates the two rows of the paper's Table 1 (IBM BG/Q, Cray XT5) from
the machine catalog and checks the published words/FLOP balance values.
"""

import pytest

from repro.evaluation import REGISTRY, make_spec, render_report

from conftest import emit


def test_table1_machines(benchmark):
    spec = make_spec("e1")
    rows = benchmark(REGISTRY["e1"].run, spec.params, spec.seed)
    emit(render_report("Table 1 — Specifications of various computing systems",
                       rows))
    by_name = {r["machine"]: r for r in rows}
    assert by_name["IBM BG/Q"]["vertical_balance"] == pytest.approx(0.052)
    assert by_name["IBM BG/Q"]["horizontal_balance"] == pytest.approx(0.049)
    assert by_name["Cray XT5"]["vertical_balance"] == pytest.approx(0.0256)
    assert by_name["Cray XT5"]["horizontal_balance"] == pytest.approx(0.058)
