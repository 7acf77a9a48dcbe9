"""On-disk formats: deterministic CSV and the binary state snapshot.

CSV floats are printed with 17 significant digits so a round-trip
through text is bit-exact for float64.  Snapshots are a fixed
little-endian binary layout:

    magic "CKDV" | version u32 | n u32 | period f64 | t f64
    | n f64 u samples | n f64 v samples
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from .grid import Grid, forward
from .systems import State

SNAPSHOT_MAGIC = b"CKDV"
SNAPSHOT_VERSION = 1


def format_value(v) -> str:
    if isinstance(v, str):
        if any(ch in v for ch in ',"\n'):
            return '"' + v.replace('"', '""') + '"'
        return v
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return "%.17g" % float(v)


def write_csv(rows, schema, path) -> None:
    """Rows of values under a fixed column schema; deterministic bytes."""
    lines = [",".join(schema)]
    for row in rows:
        if len(row) != len(schema):
            raise ValueError(f"row width {len(row)} != schema width {len(schema)}")
        lines.append(",".join(format_value(v) for v in row))
    Path(path).write_text("\n".join(lines) + "\n")


def read_csv(path):
    """Inverse of write_csv for numeric tables: (schema, float rows)."""
    text = Path(path).read_text().strip().split("\n")
    schema = text[0].split(",")
    rows = [[float(v) for v in line.split(",")] for line in text[1:]]
    return schema, rows


def write_snapshot(path, state: State) -> None:
    g = state.grid
    u = state.u.values()
    v = state.v.values()
    head = SNAPSHOT_MAGIC + struct.pack(
        "<IIdd", SNAPSHOT_VERSION, g.n, g.period, state.t
    )
    body = u.astype("<f8").tobytes() + v.astype("<f8").tobytes()
    Path(path).write_bytes(head + body)


def read_snapshot(path) -> State:
    """The State a snapshot stores, on Grid(n, period); its fields are raw (not dealiased)."""
    raw = Path(path).read_bytes()
    if len(raw) < 28:
        raise ValueError(f"{path}: length {len(raw)}, shorter than the 28-byte header")
    if raw[:4] != SNAPSHOT_MAGIC:
        raise ValueError(f"{path}: bad magic {raw[:4]!r}")
    version, n = struct.unpack("<II", raw[4:12])
    if version != SNAPSHOT_VERSION:
        raise ValueError(f"{path}: unsupported snapshot version {version}")
    period, t = struct.unpack("<dd", raw[12:28])
    expected = 28 + 2 * 8 * n
    if len(raw) != expected:
        raise ValueError(f"{path}: length {len(raw)}, header implies {expected}")
    u = np.frombuffer(raw, dtype="<f8", count=n, offset=28)
    v = np.frombuffer(raw, dtype="<f8", count=n, offset=28 + 8 * n)
    g = Grid(n, period)
    return State(forward(u.copy(), g), forward(v.copy(), g), t)
