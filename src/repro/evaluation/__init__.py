"""Evaluation harness: drivers reproducing the paper's tables and analyses.

Two layers:

* :mod:`repro.evaluation.experiments` — the nine ad-hoc drivers
  (E1-E9) plus the spill-strategy game driver, directly callable;
* :mod:`repro.evaluation.harness` / :mod:`repro.evaluation.manifest` —
  the manifest-driven sweep runner (declarative grids, per-run result
  directories, ``--resume``, ``reproduce``) layered on top.

The names below resolve on first use (a module ``__getattr__``), and
the harness's registry names each driver rather than importing it: the
drivers, and numpy with them, load when a cell first runs in a process
or at the fork point of cell processes, so a process that only plans
and checks grids (the fleet controller) never loads them.
"""

from importlib import import_module

#: the submodule each exported name lives in
_EXPORTS = {
    **dict.fromkeys((
        "experiment_balance_conditions",
        "experiment_bound_validation",
        "experiment_cg_bounds",
        "experiment_composite_example",
        "experiment_distsim_parallel",
        "experiment_gmres_bounds",
        "experiment_jacobi_bounds",
        "experiment_matmul_bounds",
        "experiment_spill_strategies",
        "experiment_table1_machines",
    ), "experiments"),
    **dict.fromkeys((
        "GRIDS",
        "REGISTRY",
        "RunSpec",
        "bench_view",
        "default_grid",
        "load_grid_file",
        "make_spec",
        "plan_resume",
        "reproduce",
        "run_grid",
        "scan_results_root",
        "smoke_grid",
        "write_bench_view",
    ), "harness"),
    **dict.fromkeys(("format_table", "format_value", "render_report"),
                    "report"),
}


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{module}"), name)


__all__ = list(_EXPORTS)
