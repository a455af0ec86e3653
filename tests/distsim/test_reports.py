"""Unit tests for the traffic-report containers of the distributed simulator."""

import pytest

from repro.distsim import ClusterTrafficReport


class TestClusterTrafficReport:
    def test_maxima_and_totals(self):
        rep = ClusterTrafficReport(
            horizontal_per_node={0: 10, 1: 30, 2: 20},
            vertical_per_node={0: 100, 1: 80, 2: 120},
            flops_per_node={0: 1000, 1: 1000, 2: 1000},
        )
        assert rep.max_horizontal == 30
        assert rep.max_vertical == 120
        assert rep.total_flops == 3000

    def test_intensities(self):
        rep = ClusterTrafficReport(
            horizontal_per_node={0: 10, 1: 20},
            vertical_per_node={0: 100, 1: 200},
            flops_per_node={0: 500, 1: 500},
        )
        # max_vertical * N / total_flops = 200 * 2 / 1000
        assert rep.vertical_intensity() == pytest.approx(0.4)
        assert rep.horizontal_intensity() == pytest.approx(0.04)

    def test_empty_report(self):
        rep = ClusterTrafficReport()
        assert rep.max_horizontal == 0
        assert rep.max_vertical == 0
        assert rep.vertical_intensity() == 0.0
        assert rep.horizontal_intensity() == 0.0
