"""Tests for table and record persistence."""

import json

import pytest

from hamflow import io
from hamflow.experiments import ResultRow, ResultTable

ROWS = (ResultRow("L7", 4.5, 1.234567891, 0.000123456789, 8),
        ResultRow("L1", 4.5, 2.0, 0.5, 8),
        ResultRow("L1", 3.0, 1.0 / 3.0, 12345678.9, 16),
        ResultRow("L13", 0.1, -0.0, 1e-12, 1))


def test_table_rows_sorted_by_label_then_regularity(tmp_path):
    path = tmp_path / "table.csv"
    io.write_table(ResultTable(rows=ROWS), path)
    lines = path.read_text().splitlines()
    assert lines[0] == "label,regularity,estimate,stderr,samples"
    assert [tuple(line.split(",")[:2]) for line in lines[1:]] == [
        ("L1", "3"), ("L1", "4.5"), ("L13", "0.1"), ("L7", "4.5")]


def test_table_values_have_six_significant_digits(tmp_path):
    path = tmp_path / "table.csv"
    io.write_table(ResultTable(rows=ROWS), path)
    assert path.read_text() == ("label,regularity,estimate,stderr,samples\n"
                                "L1,3,0.333333,1.23457e+07,16\n"
                                "L1,4.5,2,0.5,8\n"
                                "L13,0.1,-0,1e-12,1\n"
                                "L7,4.5,1.23457,0.000123457,8\n")


def test_table_round_trip(tmp_path):
    path = tmp_path / "table.csv"
    io.write_table(ResultTable(rows=ROWS), path)
    table = io.read_table(path)
    assert len(table.rows) == len(ROWS)
    for row in ROWS:
        back = table.row(row.label, row.regularity)
        assert back.samples == row.samples
        assert back.estimate == pytest.approx(row.estimate, rel=5e-6, abs=0.0)
        assert back.standard_error == pytest.approx(row.standard_error, rel=5e-6, abs=0.0)
    again = tmp_path / "again.csv"
    io.write_table(table, again)
    assert again.read_bytes() == path.read_bytes()


def test_read_table_rejects_other_files(tmp_path):
    path = tmp_path / "other.csv"
    path.write_text("a,b\n1,2\n")
    with pytest.raises(ValueError):
        io.read_table(path)


def test_equal_records_write_equal_bytes(tmp_path):
    records = [{"sample": 0, "osc": 0.1 + 0.2, "vertices": [[0.5, 1.0], [1e-17, 2.5]]},
               {"winding": [1, 0], "sample": 1, "error": "NonFinite: flow state left the finite range"}]
    reordered = [dict(reversed(list(r.items()))) for r in records]
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    io.write_records(records, a)
    io.write_records(reordered, b)
    assert a.read_bytes() == b.read_bytes()
    lines = a.read_text().splitlines()
    assert [json.loads(line) for line in lines] == records
    assert lines[0].startswith('{"osc": 0.30000000000000004, "sample": 0')
