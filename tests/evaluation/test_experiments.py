"""Tests for the evaluation experiment drivers (E1-E9)."""

import pytest

from repro.evaluation import (
    experiments,
    experiment_balance_conditions,
    experiment_bound_validation,
    experiment_cg_bounds,
    experiment_composite_example,
    experiment_distsim_parallel,
    experiment_gmres_bounds,
    experiment_jacobi_bounds,
    experiment_matmul_bounds,
    experiment_table1_machines,
    format_table,
    render_report,
)
from repro.pebbling import SearchBudgetExceeded


class TestE1Table1:
    def test_rows_match_paper_constants(self):
        rows = experiment_table1_machines()
        by_name = {r["machine"]: r for r in rows}
        assert by_name["IBM BG/Q"]["vertical_balance"] == pytest.approx(0.052)
        assert by_name["IBM BG/Q"]["horizontal_balance"] == pytest.approx(0.049)
        assert by_name["Cray XT5"]["vertical_balance"] == pytest.approx(0.0256)
        assert by_name["Cray XT5"]["horizontal_balance"] == pytest.approx(0.058)
        assert by_name["IBM BG/Q"]["nodes"] == 2048
        assert by_name["Cray XT5"]["nodes"] == 9408


class TestE2Composite:
    def test_verified_game_matches_4n_plus_1(self):
        rows = experiment_composite_example(sizes=(4, 8))
        for row in rows:
            assert row["verified_game_io"] == 4 * row["N"] + 1
            assert row["verified_game_io"] == row["composite_upper_bound_4N+1"]
            assert row["naive_step_sum"] > row["verified_game_io"]


class TestE3CG:
    def test_vertical_intensity_and_verdicts(self):
        rows = experiment_cg_bounds(n=1000, dimensions=3)
        machine_rows = [r for r in rows if r["machine"] in ("IBM BG/Q", "Cray XT5")]
        assert len(machine_rows) == 2
        for r in machine_rows:
            assert r["vertical_intensity"] == pytest.approx(0.3)
            assert r["vertically_bound"] is True
            assert r["possibly_network_bound"] is False

    def test_wavefront_check_row_present(self):
        rows = experiment_cg_bounds()
        check = [r for r in rows if "wavefront check" in str(r["machine"])]
        assert len(check) == 1
        assert check[0]["vertically_bound"] is True  # wavefront >= 2 n^d


class TestE4GMRES:
    def test_intensity_tracks_paper_formula(self):
        rows = experiment_gmres_bounds(krylov_dimensions=(5, 10, 100))
        for r in rows:
            assert r["vertical_intensity"] == pytest.approx(
                r["paper_formula_6/(m+20)"]
            )
        # crossover: memory bound for small m, not for m = 100 on BG/Q
        assert rows[0]["vertically_bound"] is True
        assert rows[-1]["vertically_bound"] is False


class TestE5Jacobi:
    def test_threshold_and_verdicts(self):
        rows = experiment_jacobi_bounds(dimensions=(1, 2, 3, 11))
        by_d = {r["d"]: r for r in rows}
        assert by_d[2]["vertically_bound"] is False
        assert by_d[3]["vertically_bound"] is False
        assert by_d[11]["vertically_bound"] is True
        # thresholds reported consistently across rows
        assert by_d[2]["exact_threshold_d"] == by_d[3]["exact_threshold_d"]
        assert by_d[2]["paper_threshold_d"] == pytest.approx(4.83, rel=0.01)


class TestE6Matmul:
    def test_sandwich_holds(self):
        rows = experiment_matmul_bounds(sizes=(4,), cache_sizes=(8,))
        for r in rows:
            assert r["sandwich_ok"] is True
            assert r["corollary1_LB"] <= r["spill_game_UB"]


class TestE7Validation:
    def test_all_rows_sound(self):
        rows = experiment_bound_validation()
        assert len(rows) >= 5
        assert all(r["sound"] for r in rows)

    def test_search_errors_propagate(self, monkeypatch):
        def broken(*args, **kwargs):
            raise RuntimeError("bug in the exact search")

        monkeypatch.setattr(experiments, "optimal_rbw_io", broken)
        with pytest.raises(RuntimeError, match="bug in the exact search"):
            experiment_bound_validation()

    def test_budget_exceeded_gives_skipped_rows(self, monkeypatch):
        def over_budget(*args, **kwargs):
            raise SearchBudgetExceeded("over budget")

        monkeypatch.setattr(experiments, "optimal_rbw_io", over_budget)
        rows = experiment_bound_validation()
        assert all(r["optimal_io"] == "(skipped)" for r in rows)
        assert all(r["sound"] for r in rows)


class TestE8Distsim:
    def test_measured_traffic_dominates_bounds(self):
        rows = experiment_distsim_parallel(
            shape=(12, 12), timesteps=3, num_nodes=4, cache_words=32,
            policies=("lru",),
        )
        assert len(rows) == 2
        for r in rows:
            assert r["vertical_ok"] is True
            assert r["measured_vertical_max"] >= r["vertical_LB_per_node"]


class TestE9Balance:
    def test_summary_narrative(self):
        rows = experiment_balance_conditions()
        cg_rows = [r for r in rows if r["algorithm"] == "CG"]
        jac_rows = [r for r in rows if r["algorithm"] == "Jacobi"]
        assert all(r["vertically_bound"] for r in cg_rows)
        assert all(not r["vertically_bound"] for r in jac_rows)
        assert all(not r["possibly_network_bound"] for r in cg_rows)


class TestReportFormatting:
    def test_format_table_alignment(self):
        rows = [{"a": 1, "b": "xy"}, {"a": 23456789, "b": "z"}]
        text = format_table(rows)
        lines = text.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("a")

    def test_format_empty(self):
        assert "empty" in format_table([])

    def test_render_report_includes_title_and_notes(self):
        out = render_report("My Table", [{"x": 1.5}], notes=["hello"])
        assert "My Table" in out and "hello" in out

    def test_float_formatting(self):
        from repro.evaluation import format_value

        assert format_value(0.3) == "0.3"
        assert "e" in format_value(1.23e-9)
        assert format_value(True) == "yes"
