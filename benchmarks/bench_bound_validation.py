"""E7 — lower-bound machinery validation.

For a collection of small CDAGs, checks the soundness sandwich

    wavefront LB  <=  exact optimal I/O  <=  heuristic spill-game UB

where the exact optimum comes from the bitmask A* search (a 0-1 BFS
with an admissible, consistent heuristic) over the RBW game's state
space in ``repro.pebbling.optimal``.  This is the ablation bench for
the automated wavefront heuristic.

``optimal/e7_cases`` times that search alone: the six E7 searches run
cold at E7's pebble counts, in smoke mode too, so the CI bench guard
(``check_bench.py``) covers the exact oracle.
"""

from repro.evaluation import REGISTRY, make_spec, render_report
from repro.evaluation.experiments import bound_validation_cases
from repro.pebbling import optimal_rbw_io

from conftest import emit, record_bench, time_ns_per_op


def test_bound_sandwich_on_small_cdags(benchmark):
    spec = make_spec("e7")
    rows = benchmark(REGISTRY["e7"].run, spec.params, spec.seed)
    emit(render_report(
        "Bound-machinery validation — LB <= OPT <= UB on small CDAGs",
        rows,
    ))
    assert all(r["sound"] for r in rows)


def test_optimal_search_on_e7_cases():
    cases = bound_validation_cases(make_spec("e7").params["s"])

    def run():
        return [
            optimal_rbw_io(cdag, s, max_states=400_000) for _, cdag, s in cases
        ]

    results = run()
    ns = time_ns_per_op(run)
    record_bench(
        "optimal/e7_cases",
        ns_per_op=ns / len(cases),
        cases=len(cases),
        states_expanded=sum(r.states_expanded for r in results),
        optimal_io=[r.io for r in results],
    )
