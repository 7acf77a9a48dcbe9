"""Deterministic CSV writing and the binary snapshot format."""

import numpy as np
import pytest

from ckdv import State, field_from_callable, read_snapshot, write_csv, write_snapshot
from ckdv.grid import Grid
from ckdv.io import format_value, read_csv


def test_format_value_cases():
    assert format_value("plain") == "plain"
    assert format_value('say "hi"') == '"say ""hi"""'
    assert format_value("a,b") == '"a,b"'
    assert format_value(True) == "true"
    assert format_value(False) == "false"
    assert format_value(np.bool_(True)) == "true"
    assert format_value(7) == "7"
    assert format_value(np.int64(-3)) == "-3"
    assert format_value(0.1) == "0.10000000000000001"
    assert format_value(float("nan")) == "nan"


def test_csv_round_trip_is_bit_exact(tmp_path):
    rng = np.random.default_rng(0)
    rows = rng.standard_normal((10, 3)).tolist()
    path = tmp_path / "t.csv"
    write_csv(rows, ["a", "b", "c"], path)
    schema, back = read_csv(path)
    assert schema == ["a", "b", "c"]
    assert np.array_equal(np.array(back), np.array(rows))  # 17 digits round-trip


def test_csv_rewrites_identically(tmp_path):
    rows = [[1.0 / 3.0, 2.0 / 7.0]]
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_csv(rows, ["x", "y"], p1)
    write_csv(rows, ["x", "y"], p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_csv_rejects_row_width_mismatch(tmp_path):
    with pytest.raises(ValueError):
        write_csv([[1.0, 2.0]], ["only"], tmp_path / "t.csv")


def test_csv_header_only(tmp_path):
    path = tmp_path / "e.csv"
    write_csv([], ["a", "b"], path)
    schema, rows = read_csv(path)
    assert schema == ["a", "b"] and rows == []


def test_snapshot_round_trip(tmp_path):
    g = Grid(64, 8.0 * np.pi)
    u = field_from_callable(lambda x: np.exp(-(x**2)) * np.cos(x), g)
    v = field_from_callable(lambda x: np.sin(x) * np.exp(-(x**2) / 2.0), g)
    st = State(u, v, t=0.375)
    path = tmp_path / "s.bin"
    write_snapshot(path, st)
    back = read_snapshot(path)
    assert back.t == 0.375
    assert back.grid.n == 64 and back.grid.period == pytest.approx(8.0 * np.pi)
    assert np.max(np.abs(back.u.values() - u.values())) < 1e-14
    assert np.max(np.abs(back.v.values() - v.values())) < 1e-14


def test_snapshot_rewrite_is_byte_identical(tmp_path):
    g = Grid(32, 2.0 * np.pi)
    st = State(
        field_from_callable(np.sin, g), field_from_callable(np.cos, g), t=1.0
    )
    p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
    write_snapshot(p1, st)
    write_snapshot(p2, st)
    assert p1.read_bytes() == p2.read_bytes()


def test_snapshot_rejects_corruption(tmp_path):
    g = Grid(32, 2.0 * np.pi)
    st = State(field_from_callable(np.sin, g), field_from_callable(np.cos, g))
    path = tmp_path / "s.bin"
    write_snapshot(path, st)
    raw = path.read_bytes()

    bad_magic = tmp_path / "m.bin"
    bad_magic.write_bytes(b"XKDV" + raw[4:])
    with pytest.raises(ValueError, match="magic"):
        read_snapshot(bad_magic)

    bad_version = tmp_path / "v.bin"
    bad_version.write_bytes(raw[:4] + b"\x63\x00\x00\x00" + raw[8:])
    with pytest.raises(ValueError, match="version"):
        read_snapshot(bad_version)

    truncated = tmp_path / "t.bin"
    truncated.write_bytes(raw[:-8])
    with pytest.raises(ValueError, match="length"):
        read_snapshot(truncated)

    # shorter than the header: a ValueError naming the path and the length, not a struct.error
    stub = tmp_path / "h.bin"
    stub.write_bytes(b"CKDV\x01\x00")
    with pytest.raises(ValueError, match="h.bin: length 6, shorter than the 28-byte header"):
        read_snapshot(stub)
