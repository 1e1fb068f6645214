"""Byte-stable file output: fixed float formatting, JSON lines, CSV, hashes.

Every artifact the CLI writes goes through these helpers so that reruns
with the same seed produce byte-identical files.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np


def fmt(value) -> str:
    """Fixed text form: floats at 17 significant digits, ints bare."""
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".17g")
    return str(value)


def json_text(obj) -> str:
    """Compact JSON with the fixed float format (sorted object keys)."""
    if obj is None:
        return "null"
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer, float, np.floating)):
        return fmt(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, dict):
        items = (f"{json_text(str(k))}: {json_text(v)}" for k, v in sorted(obj.items()))
        return "{" + ", ".join(items) + "}"
    if isinstance(obj, (list, tuple, np.ndarray)):
        seq = obj.tolist() if isinstance(obj, np.ndarray) else obj
        return "[" + ", ".join(json_text(v) for v in seq) + "]"
    raise TypeError(f"cannot serialize {type(obj)!r}")


def write_jsonl(path: str | Path, rows) -> None:
    with open(path, "w") as f:
        for row in rows:
            f.write(json_text(row) + "\n")


def write_csv(path: str | Path, header, rows) -> None:
    with open(path, "w") as f:
        f.write(",".join(header) + "\n")
        for row in rows:
            f.write(",".join(fmt(v) for v in row) + "\n")


def write_pgm(path: str | Path, values: np.ndarray) -> None:
    """Write a 2D array of values in [0, 1] as an 8-bit binary PGM, pixel
    round(v * 255), row 0 first."""
    data = np.round(values * 255.0).astype(np.uint8)
    with open(path, "wb") as f:
        f.write(f"P5\n{data.shape[1]} {data.shape[0]}\n255\n".encode("ascii"))
        f.write(data.tobytes())


def sha256_file(path: str | Path) -> str:
    h = hashlib.sha256()
    h.update(Path(path).read_bytes())
    return h.hexdigest()
