"""The end-to-end benchmark under ``perfbench/`` binds to the program by
name: a traced run wraps public entry points (among them
``repro.pebbling.sharded.run_spill_game``) and the run's env line reads
``run_spill_game``'s ``backend`` default and the kernel tier.  These
tests fail when one of those names disappears from the program."""

import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def perfbench(monkeypatch):
    """Make perfbench's flat modules importable for one test, and drop
    them from ``sys.modules`` afterwards (their names are generic)."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    before = set(sys.modules)
    yield
    for name in set(sys.modules) - before:
        if name in ("common", "spans", "run"):
            del sys.modules[name]


def test_tracer_installs_and_restores(perfbench):
    import repro.pebbling.sharded as sharded
    import spans

    original = sharded.run_spill_game
    tracer = spans.Tracer()
    try:
        spans.install(tracer)
        assert sharded.run_spill_game is not original
    finally:
        tracer.restore()
    assert sharded.run_spill_game is original


def test_environment_line(perfbench, monkeypatch):
    monkeypatch.delenv("REPRO_KERNEL", raising=False)
    import run

    env = run.environment()
    assert env["strategy_backend"] == "batched"
    assert env["repro_kernel"] == "numpy"
    assert isinstance(env["numba"], bool)


def test_traced_spill_game_records_nested_play_spans(perfbench):
    """A traced ``run_spill_game`` still plays the same game, and the
    strategy it dispatches to shows up as a child ``pebbling.play`` span
    carrying the move count (the benchmark's per-layer attribution)."""
    import spans

    import repro.pebbling.sharded as sharded
    from repro.core.builders import independent_chains_cdag

    cdag = independent_chains_cdag(6, 5)
    untraced = sharded.run_spill_game(cdag, 4)
    tracer = spans.Tracer()
    try:
        spans.install(tracer)
        traced = sharded.run_spill_game(cdag, 4)
    finally:
        tracer.restore()
    assert traced.summary() == untraced.summary()
    play = [(i, s) for i, s in enumerate(tracer.spans)
            if s[0] == "pebbling.play"]
    assert len(play) == 2
    (outer_i, outer), (_, inner) = play
    assert outer[3] == -1 and inner[3] == outer_i
    assert outer[4] == inner[4] == len(untraced.log)
