"""Byte-stable file output: JSON that reads back exactly, CSV, PGM, hashes.

Every artifact the CLI writes goes through these helpers so that reruns
with the same seed produce byte-identical files.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np


def fmt(value) -> str:
    """Fixed text form: floats at 17 significant digits, booleans 1 or 0,
    anything else (ints, strings) as ``str`` gives it."""
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".17g")
    return str(value)


def _plain(obj):
    """``json.dumps``'s fallback: numpy scalars and arrays as Python values."""
    if isinstance(obj, (np.generic, np.ndarray)):
        return obj.tolist()
    raise TypeError(f"cannot serialize {type(obj)!r}")


def json_text(obj) -> str:
    """Compact JSON with sorted object keys.  Floats take Python's shortest
    exact form (``0.1``, ``1.0``, ``-0.0``) and non-finite ones ``NaN``,
    ``Infinity`` and ``-Infinity``, so ``json.loads`` reads back every value
    and its type."""
    return json.dumps(obj, sort_keys=True, default=_plain)


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
