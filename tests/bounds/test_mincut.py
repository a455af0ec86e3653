"""Unit tests for the min-cut / wavefront lower bounds (Lemma 2)."""

import pytest

from repro.algorithms import dot_then_axpy_cdag
from repro.bounds import (
    automated_wavefront_bound,
    best_wavefront_lower_bound,
    heuristic_wavefront_candidates,
    wavefront_lower_bound,
)
from repro.core import chain_cdag, diamond_cdag, reduction_tree_cdag
from repro.pebbling import optimal_rbw_io, spill_game_rbw


class TestLemma2PerVertex:
    def test_formula(self):
        c = dot_then_axpy_cdag(4)
        b = wavefront_lower_bound(c, ("acc", 3), s=3)
        assert b.wavefront == 9
        assert b.value == 2 * (9 - 3)
        assert b.vertex == ("acc", 3)

    def test_floor_at_zero(self):
        c = chain_cdag(5)
        b = wavefront_lower_bound(c, ("chain", 2), s=10)
        assert b.value == 0

    def test_negative_s_rejected(self):
        with pytest.raises(ValueError):
            wavefront_lower_bound(chain_cdag(2), ("chain", 1), s=-1)


class TestBestWavefront:
    def test_best_over_all_vertices(self):
        c = dot_then_axpy_cdag(3)
        b = best_wavefront_lower_bound(c, s=2)
        assert b.wavefront == 7
        assert b.value == 2 * (7 - 2)

    def test_candidate_restriction(self):
        c = dot_then_axpy_cdag(3)
        b = best_wavefront_lower_bound(c, s=2, candidates=[("prod", 0)])
        assert b.wavefront <= 7


class TestArgumentChecks:
    @pytest.mark.parametrize("s", [-1, -5])
    def test_negative_s_rejected_by_every_bound(self, s):
        c = chain_cdag(12)
        for bound in (best_wavefront_lower_bound, automated_wavefront_bound):
            with pytest.raises(ValueError, match="negative"):
                bound(c, s=s)

    @pytest.mark.parametrize("max_candidates", [0, -3])
    def test_max_candidates_below_one_rejected(self, max_candidates):
        c = chain_cdag(12)
        with pytest.raises(ValueError, match="max_candidates"):
            automated_wavefront_bound(c, s=2, max_candidates=max_candidates)
        with pytest.raises(ValueError, match="max_candidates"):
            heuristic_wavefront_candidates(c, max_candidates=max_candidates)


class TestHeuristicCandidates:
    def test_candidates_are_vertices(self):
        c = dot_then_axpy_cdag(4)
        cands = heuristic_wavefront_candidates(c)
        assert all(v in c for v in cands)
        assert len(cands) >= 1

    def test_heuristic_includes_reduction_root(self):
        c = dot_then_axpy_cdag(4)
        cands = heuristic_wavefront_candidates(c, max_candidates=8)
        assert ("acc", 3) in cands

    def test_empty_cdag(self):
        from repro.core import CDAG

        assert heuristic_wavefront_candidates(CDAG()) == []

    def test_automated_bound_matches_exhaustive_on_small_cdags(self):
        for cdag in (dot_then_axpy_cdag(3), reduction_tree_cdag(8), diamond_cdag(4, 3)):
            auto = automated_wavefront_bound(cdag, s=2)
            full = best_wavefront_lower_bound(cdag, s=2)
            assert auto.wavefront == full.wavefront


class TestSoundness:
    """Lemma 2 bounds must never exceed the true optimum or any valid game."""

    @pytest.mark.parametrize("s", [4, 6])
    def test_bound_below_optimal(self, s):
        c = dot_then_axpy_cdag(2)
        lb = automated_wavefront_bound(c, s=s).value
        opt = optimal_rbw_io(c, num_red=max(s, 4)).io
        assert lb <= opt

    @pytest.mark.parametrize(
        "cdag_factory",
        [
            lambda: dot_then_axpy_cdag(4),
            lambda: reduction_tree_cdag(16),
            lambda: diamond_cdag(6, 4),
        ],
    )
    def test_bound_below_spill_game(self, cdag_factory):
        c = cdag_factory()
        s = 5
        lb = automated_wavefront_bound(c, s=s).value
        ub = spill_game_rbw(c, num_red=max(s, 4)).io_count
        assert lb <= ub

    def test_wavefront_grows_linearly_for_dot_axpy_family(self):
        # the Theorem 8 structure in miniature: wavefront = 2n + 1
        values = [automated_wavefront_bound(dot_then_axpy_cdag(n), s=0).wavefront
                  for n in (2, 3, 4, 5)]
        assert values == [5, 7, 9, 11]


#: ``(builder, wavefront, vertex)`` of the automated bound on the bound
#: server's default builders (the ``/v1/bound`` specs of perfbench's
#: bound-server mix use these at S = 2, 4 and 8)
SERVER_BOUNDS = [
    ("chain", 1, ["chain", 1]),
    ("chains", 1, ["chains", 0, 1]),
    ("tree", 1, ["reduce", 5, 0]),
    ("bcast", 1, ["bcast", 1, 0]),
    ("diamond", 16, ["dmd", 5, 5]),
    ("grid", 18, ["st", 2, 2, 2]),
    ("butterfly", 1, ["fft", 4, 0]),
    ("pyramid", 8, ["pyr", 8, 0]),
]


class TestPinnedWavefronts:
    """The automated bound's wavefront and vertex are pinned, so a
    change of max-flow or of candidate pruning cannot move them."""

    @pytest.mark.parametrize("s", [2, 4, 8])
    @pytest.mark.parametrize("builder, wavefront, vertex", SERVER_BOUNDS,
                             ids=[b[0] for b in SERVER_BOUNDS])
    def test_bound_server_builders(self, builder, wavefront, vertex, s):
        from repro.store.analysis import fresh_bound

        got = fresh_bound(builder, s=s)
        assert (got["wavefront"], got["vertex"]) == (wavefront, vertex)
        assert got["value"] == max(0.0, 2.0 * (wavefront - s))

    @pytest.mark.parametrize("n, wavefront", [(16, 16), (32, 25), (64, 25)])
    def test_jacobi1d_bench_cdags(self, n, wavefront):
        # the wavefront/jacobi1d_* entries of bench_compiled_core.py
        from repro.core import grid_stencil_cdag

        cdag = grid_stencil_cdag((n,), 16)
        bound = automated_wavefront_bound(cdag, s=8, max_candidates=8)
        assert bound.wavefront == wavefront
