"""Deterministic CSV/JSON emission for trajectories, tensors and reports.

CSV cells hold 17 significant digits (``format(x, ".17g")``).  JSON numbers
are Python's shortest round-trip ``repr``, with ``NaN``, ``Infinity`` and
``-Infinity`` for non-finite values, exactly as ``json.dumps`` writes them.
Either way every float reads back exactly and identical inputs give
byte-identical files.  Writes go to a temporary file in the target
directory followed by an atomic rename, so no partial file survives an
error.

Arrays are converted to text in bulk (``json_array`` and the CSV row
templates) instead of value by value in the pure-Python encoder that
``json.dumps(..., indent=1)`` runs.  A ``BaseText`` holds the columns a
base curve shares with every field transported along it (t, the frame
entries and the velocities), so each seed's file converts only its own
``z`` columns.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
from functools import cached_property

import numpy as np

__all__ = [
    "fmt",
    "json_array",
    "atomic_write_text",
    "BaseText",
    "trajectory_csv",
    "trajectory_json",
    "tensor_json",
    "tensor_csv",
    "sectional_csv",
    "report_json",
]


# values converted per block of rows: bounds the per-value texts alive at once
_BLOCK_VALUES = 4096


def fmt(x: float) -> str:
    return format(float(x), ".17g")


def atomic_write_text(path: str, text: str):
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".redhom-")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _meta_header(traj, space: str, alpha: str) -> str:
    step = traj.meta.get("step")
    integ = traj.meta.get("integrator", "")
    return (
        f"# space={space} alpha={alpha} "
        f"step={fmt(step) if step is not None else 'n/a'} integrator={integ}"
    )


def trajectory_columns(traj):
    d = traj.frames.shape[1]
    n = traj.velocities.shape[1]
    cols = ["t"]
    cols += [f"g_{i}{j}" for i in range(d) for j in range(d)]
    cols += [f"x_{k + 1}" for k in range(n)]
    if traj.transported is not None:
        cols += [f"z_{k + 1}" for k in range(n)]
    return cols


def _csv_rows(columns) -> list:
    """Rows of a 2-D float array as comma-joined ``.17g`` cells (``%.17g`` equals ``fmt``)."""
    template = ",".join(["%.17g"] * columns.shape[1])
    step = max(1, _BLOCK_VALUES // max(1, columns.shape[1]))
    return [template % tuple(row) for i in range(0, len(columns), step)
            for row in columns[i:i + step].tolist()]


class BaseText:
    """The t, frame and velocity columns of a trajectory, converted to text once.

    These columns are the same in every file written along one base curve;
    pass one ``BaseText`` to ``trajectory_csv`` and ``trajectory_json`` for
    each seed and only the ``z`` columns are converted per seed.  Each form
    is built on first use.
    """

    def __init__(self, traj):
        self.traj = traj

    @cached_property
    def csv_rows(self) -> list:
        traj = self.traj
        return _csv_rows(np.hstack([traj.times[:, None],
                                    traj.frames.reshape(len(traj), -1), traj.velocities]))

    @cached_property
    def json_arrays(self) -> dict:
        traj = self.traj
        return {"times": json_array(traj.times, 1), "frames": json_array(traj.frames, 1),
                "velocities": json_array(traj.velocities, 1)}


def trajectory_csv(traj, space: str = "", alpha: str = "", base: BaseText | None = None) -> str:
    """CSV of a trajectory; ``base`` holds its t, frame and velocity columns as text."""
    rows = (base if base is not None else BaseText(traj)).csv_rows
    if traj.transported is not None:
        rows = [row + "," + z for row, z in zip(rows, _csv_rows(traj.transported))]
    return "\n".join([_meta_header(traj, space, alpha), ",".join(trajectory_columns(traj)),
                      *rows, ""])


def _jsonable(value):
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (np.floating, float)):
        v = float(value)
        return v if np.isfinite(v) else str(v)
    if isinstance(value, (np.integer, int)):
        return int(value)
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    return value


def _json_float(x: float) -> str:
    if x != x:
        return "NaN"
    if math.isinf(x):
        return "Infinity" if x > 0 else "-Infinity"
    return float.__repr__(x)


def _items(cells: list, shape: tuple, level: int) -> list:
    """Texts of the items of the outermost list of ``shape``, from its flat cell texts."""
    for depth in range(len(shape) - 1, 0, -1):
        n = shape[depth]
        inner = " " * (level + depth + 1)
        sep, close = ",\n" + inner, "\n" + " " * (level + depth) + "]"
        groups = math.prod(shape[:depth])
        if n == 0:
            cells = ["[]"] * groups
        else:
            cells = ["[\n" + inner + sep.join(cells[i:i + n]) + close
                     for i in range(0, groups * n, n)]
    return cells


def json_array(values, level: int = 0) -> str:
    """``json.dumps(values.tolist(), indent=1)`` for a float array of one or more axes.

    With ``level > 0`` the text is the array as a value nested ``level``
    containers deep: continuation lines are indented ``level`` more spaces.
    Leading rows are converted a block at a time, so the per-value texts of
    only one block are alive at once.
    """
    a = np.asarray(values, dtype=float)
    if len(a) == 0:
        return "[]"
    text = float.__repr__ if np.isfinite(a).all() else _json_float
    rows = max(1, _BLOCK_VALUES // max(1, a.size // len(a)))
    sep = ",\n" + " " * (level + 1)
    blocks = []
    for i in range(0, len(a), rows):
        block = a[i:i + rows]
        cells = list(map(text, block.ravel().tolist()))
        blocks.append(sep.join(_items(cells, block.shape, level)))
    blocks[0] = "[\n" + " " * (level + 1) + blocks[0]
    blocks[-1] += "\n" + " " * level + "]"
    return sep.join(blocks)


def _json_object(fields: dict, arrays: dict) -> str:
    """``json.dumps({**fields, **arrays}, sort_keys=True, indent=1) + "\\n"``.

    ``arrays`` maps keys to values already encoded by ``json_array(..., 1)``.
    """
    texts = {key: json.dumps(value, sort_keys=True, indent=1).replace("\n", "\n ")
             for key, value in fields.items()}
    texts.update(arrays)
    parts = ["{"]
    for key in sorted(texts):
        parts += ["\n ", json.dumps(key), ": ", texts[key], ","]
    parts[-1] = "\n}\n"
    return "".join(parts)


def trajectory_json(traj, space: str = "", alpha: str = "", base: BaseText | None = None) -> str:
    """JSON of a trajectory; ``base`` holds its t, frame and velocity columns as text."""
    fields = {
        "meta": _jsonable({**traj.meta, "space": space, "alpha": alpha}),
        "columns": trajectory_columns(traj),
    }
    arrays = dict((base if base is not None else BaseText(traj)).json_arrays)
    if traj.transported is None:
        fields["transported"] = None
    else:
        arrays["transported"] = json_array(traj.transported, 1)
    return _json_object(fields, arrays)


def tensor_json(tensor, extra_meta=None) -> str:
    fields = {
        "kind": tensor.kind,
        "shape": list(tensor.coeffs.shape),
        "layout": "row-major",
        "tainted": tensor.tainted,
    }
    fields.update(_jsonable(extra_meta or {}))
    return _json_object(fields, {"coefficients": json_array(tensor.coeffs.ravel(), 1)})


def tensor_csv(tensor) -> str:
    """Rank-3 tensors as (k, i, j, value) rows with 1-based indices."""
    coeffs = tensor.coeffs
    if coeffs.ndim != 3:
        raise ValueError("CSV output is defined for rank-3 tensors only")
    rows = np.column_stack([np.indices(coeffs.shape).reshape(3, -1).T + 1, coeffs.ravel()])
    return "\n".join(["k,i,j,value", *_csv_rows(rows)]) + "\n"


def sectional_csv(entries) -> str:
    """Basis-plane sectional curvatures as (i, j, value-or-degenerate) rows."""
    lines = ["i,j,sectional"]
    for i, j, val in entries:
        lines.append(f"{i + 1},{j + 1},{'degenerate' if val is None else fmt(val)}")
    return "\n".join(lines) + "\n"


def report_json(reports, passed: bool, extra=None) -> str:
    payload = {
        "pass": bool(passed),
        "checks": [r.to_json_dict() for r in reports],
    }
    payload.update(_jsonable(extra or {}))
    return json.dumps(payload, sort_keys=True, indent=1) + "\n"
