"""E2 — Section 3 composite example.

Regenerates the motivating comparison: the naive sum of per-step bounds vs
the true I/O of the composite computation (``4N + 1``), demonstrated with a
move-checked red-blue game.
"""

from repro.evaluation import REGISTRY, make_spec, render_report

from conftest import emit


def test_composite_example_io(benchmark):
    spec = make_spec("e2", {"sizes": [4, 8, 16, 32]})
    rows = benchmark(REGISTRY["e2"].run, spec.params, spec.seed)
    emit(render_report(
        "Section 3 — composite example: per-step bound sum vs composite I/O",
        rows,
        notes=["the verified game replays the recomputation strategy of the "
               "paper through the rule-checked red-blue engine"],
    ))
    for row in rows:
        assert row["verified_game_io"] == 4 * row["N"] + 1
        assert row["naive_step_sum"] > row["verified_game_io"]
        assert row["composite_below_matmul_LB"]
