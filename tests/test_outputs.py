"""CSV/SVG writer tests."""
import pytest

from relpack import outputs
from relpack.costs import CostWeights
from relpack.sim import SlotReport


def report(**kw):
    defaults = dict(
        slot=0, active_racks=2, active_pms=5, n_migrations=3,
        c_ene=0.123456789, c_rel=12.5, g_rel=0.9510, objective=0.25,
        nodes_explored=100, wall_time=0.005, proof="optimal",
    )
    defaults.update(kw)
    return SlotReport(**defaults)


class TestCsv:
    def test_report_row_format(self):
        row = outputs.report_row(report(), 7, CostWeights(alpha=0.2))
        fields = row.split(",")
        assert len(fields) == len(outputs.REPORT_HEADER.split(","))
        assert fields[0] == "0" and fields[1] == "7" and fields[2] == "0.2"
        assert fields[8] == "0.123457"  # six significant digits

    def test_mean_row(self):
        rows = [report(active_pms=4), report(active_pms=6)]
        row = outputs.report_row(outputs.mean_report(rows), "mean", CostWeights())
        fields = row.split(",")
        assert fields[1] == "mean"
        assert fields[6] == "5"

    def test_write_report(self, tmp_path):
        path = tmp_path / "r.csv"
        outputs.write_report_csv(path, [outputs.report_row(report(), 0, CostWeights())])
        text = path.read_text()
        assert text.startswith(outputs.REPORT_HEADER + "\n")
        assert text.endswith("\n")

    def test_empty_report_refused(self, tmp_path):
        with pytest.raises(outputs.OutputError):
            outputs.write_report_csv(tmp_path / "r.csv", [])

    def test_placement_csv(self, tmp_path):
        path = tmp_path / "p.csv"
        outputs.write_placement_csv(path, [2, 0, 1])
        assert path.read_text() == "vm_id,pm_id\n0,2\n1,0\n2,1\n"

    def test_unwritable_path(self, tmp_path):
        target = tmp_path / "file"
        target.write_text("x")
        with pytest.raises(outputs.OutputError):
            outputs.write_text(target / "sub.csv", "y")  # parent is a file


class TestSvg:
    def test_line_plot_deterministic(self):
        series = [("a", [0.0, 1.0], [1.0, 2.0]), ("b", [0.0, 1.0], [2.0, 0.5])]
        one = outputs.svg_line_plot("t", "x", "y", series)
        two = outputs.svg_line_plot("t", "x", "y", series)
        assert one == two
        assert one.startswith("<svg") and one.rstrip().endswith("</svg>")
        assert "polyline" in one and one.count("<circle") == 4

    def test_bar_plot(self):
        svg = outputs.svg_bar_plot("t", "y", ["a", "b"], [("s1", [1.0, 2.0]), ("s2", [2.0, 1.0])])
        assert svg.count("<rect") >= 4  # background + four bars
        assert "s1" in svg and "b" in svg

    def test_degenerate_series(self):
        svg = outputs.svg_line_plot("t", "x", "y", [("flat", [0.0, 1.0], [3.0, 3.0])])
        assert "</svg>" in svg
