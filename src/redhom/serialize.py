"""Deterministic CSV/JSON emission for trajectories, tensors and reports.

Every float in every artifact is written as ``json.dumps`` writes it:
Python's shortest round-trip ``repr``, and ``NaN``, ``Infinity`` or
``-Infinity`` when it is not finite.  So a CSV cell and its JSON twin are
the same text, every value reads back exactly (``json.load``, ``float``
and ``np.loadtxt`` alike), and identical inputs give byte-identical files.
Writes go to a temporary file in the target directory followed by an
atomic rename, so no partial file survives an error.  The file gets the
mode a plain ``open(path, "w")`` would give it: 0o666 less the umask.

The texts of an array's values come from ``orjson``, whose Ryu kernel
(Adams, PLDI 2018) finds the same shortest round-trip digits as ``repr``
several times faster.  Its text equals ``repr``'s wherever both write
positional notation, 1e-4 <= |x| < 1e16, and for 0.0 and -0.0.  Outside
that range it writes ``1.5e-7`` for ``1.5e-07``, ``5.4e16`` for
``5.4e+16`` and ``0.00001`` for ``1e-05``, and ``null`` for a value that
is not finite, so those cells, found with one mask per block, keep the
single-value text ``fmt`` gives.  ``orjson`` is imported on the first
array converted: its import pulls in ``uuid`` and ``zoneinfo``, and a
command that writes no array (``check``) does not pay for it.

``write_trajectory`` converts each value of a trajectory to text once, a
block of rows at a time, and builds both the CSV rows and the pieces of the
JSON arrays from those texts.  A piece is one ``%`` of a row template, the
``json.dumps(..., indent=1)`` text of a zero-filled row with ``%s`` for
each value, cached per row shape and nesting level, so the pieces give the
text ``json.dumps`` would without its value-by-value pure-Python encoder.
The CSV is written block by block and the JSON from its pieces, so neither
file is ever held as one string.  A batch of seeds transported along one
curve is written as one file pair per seed, and the columns they share (t,
the frame entries and the velocities) are converted once for all of them,
so each seed's files convert only its own ``z`` columns.  A batch, like
the file set of ``tensors`` (``atomic_write_texts``), is written whole or
not at all: every file is staged in a temporary file, one at a time, and
the staged files replace their paths only once all of them are written.
"""

from __future__ import annotations

import errno
import functools
import io
import json
import math
import os
import tempfile
from contextlib import contextmanager

import numpy as np

__all__ = [
    "fmt",
    "json_array",
    "atomic_write_text",
    "atomic_write_texts",
    "write_trajectory",
    "trajectory_csv",
    "trajectory_json",
    "tensor_json",
    "tensor_csv",
    "sectional_csv",
    "report_json",
]


# values converted per block of rows: bounds the per-value texts alive at once
_BLOCK_VALUES = 4096


def _json_float(x: float) -> str:
    if x != x:
        return "NaN"
    if math.isinf(x):
        return "Infinity" if x > 0 else "-Infinity"
    return float.__repr__(x)


def fmt(x: float) -> str:
    """The text of one float in every artifact, as ``json.dumps`` writes it."""
    return _json_float(float(x))


def _cells(values) -> list:
    """Texts of an array's values in row-major order, each as ``fmt`` writes it.

    One ``orjson.dumps`` of the block, split on commas, gives the texts;
    the cells outside 1e-4 <= |x| < 1e16, other than zeros, and the cells
    that are not finite, where its text is not ``repr``'s, are redone by
    ``_json_float``.
    """
    import orjson  # lazy: see the module docstring

    flat = np.asarray(values, dtype=float).ravel()
    if not flat.size:
        return []
    cells = orjson.dumps(flat, option=orjson.OPT_SERIALIZE_NUMPY)[1:-1].decode().split(",")
    size = np.abs(flat)
    redo = ~(((size >= 1e-4) & (size < 1e16)) | (size == 0))
    for i in np.flatnonzero(redo).tolist():
        cells[i] = _json_float(float(flat[i]))
    return cells


def _block_rows(width: int) -> int:
    """Rows per block for rows of ``width`` values."""
    return max(1, _BLOCK_VALUES // max(1, width))


def _umask() -> int:
    mask = os.umask(0)
    os.umask(mask)
    return mask


@contextmanager
def _atomic_files():
    """``stage(path)``, a context giving a text handle on a temporary file for ``path``.

    When the block ends every staged file replaces its path; when it raises,
    no path is replaced and no temporary file is left.  A directory that
    cannot hold a file raises ``OSError`` naming the path, and a path that is
    a directory raises ``IsADirectoryError`` before any path is replaced.
    """
    staged = []

    @contextmanager
    def stage(path: str):
        directory = os.path.dirname(os.path.abspath(path)) or "."
        try:
            fd, tmp = tempfile.mkstemp(dir=directory, prefix=".redhom-")
        except OSError as exc:
            raise type(exc)(exc.errno, exc.strerror, path) from None
        staged.append((tmp, path))
        with os.fdopen(fd, "w") as handle:
            # mkstemp makes the file 0o600
            os.chmod(tmp, 0o666 & ~_umask())
            yield handle

    try:
        yield stage
        for _, path in staged:
            if os.path.isdir(path):
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
        for tmp, path in staged:
            os.replace(tmp, path)
    except BaseException:
        for tmp, _ in staged:
            if os.path.exists(tmp):
                os.unlink(tmp)
        raise


def atomic_write_texts(files: dict):
    """Write each ``path: text`` of ``files``: all of them, or none when one fails."""
    with _atomic_files() as stage:
        for path, text in files.items():
            with stage(path) as handle:
                handle.write(text)


def atomic_write_text(path: str, text: str):
    atomic_write_texts({path: text})


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


def _csv_rows(cells: list, rows: int) -> list:
    """CSV lines of ``rows`` rows from the cell texts of several arrays.

    Each entry of ``cells`` holds the row-major texts of one array with
    ``rows`` leading rows; a line is a row's cells of each array in turn.
    """
    parts = [(c, len(c) // rows) for c in cells if c]
    return [",".join([",".join(c[k * w:(k + 1) * w]) for c, w in parts]) for k in range(rows)]


def _jsonable(value):
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (np.floating, float)):
        return float(value)
    if isinstance(value, (np.integer, int)):
        return int(value)
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    return value


@functools.lru_cache(maxsize=64)
def _row_template(shape: tuple, level: int) -> str:
    """``%`` template of one item of shape ``shape`` as ``json_array`` nests it at ``level``:
    the ``json.dumps(..., indent=1)`` text of a zero-filled item with ``%s`` per value."""
    text = json.dumps(np.zeros(shape).tolist(), indent=1).replace("0.0", "%s")
    return text.replace("\n", "\n" + " " * (level + 1))


def _json_piece(cells: list, shape: tuple, level: int) -> str:
    """The items of a block of leading rows as ``json_array`` writes them, without brackets."""
    items = (",\n" + " " * (level + 1)).join([_row_template(shape[1:], level)] * shape[0])
    return items % tuple(cells)


def _json_parts(pieces: list, level: int) -> list:
    """Texts that concatenate to the JSON array whose blocks of rows are ``pieces``."""
    if not pieces:
        return ["[]"]
    indent = " " * (level + 1)
    parts = ["[\n" + indent]
    for piece in pieces:
        parts += [piece, ",\n" + indent]
    parts[-1] = "\n" + " " * level + "]"
    return parts


def json_array(values, level: int = 0) -> str:
    """``json.dumps(values.tolist(), indent=1)`` for a float array of one or more axes.

    With ``level > 0`` the text is the array as a value nested ``level``
    containers deep: continuation lines are indented ``level`` more spaces.
    Leading rows are converted a block at a time, so the per-value texts of
    only one block are alive at once.
    """
    a = np.asarray(values, dtype=float)
    rows = _block_rows(a.size // len(a)) if len(a) else 1
    blocks = (a[i:i + rows] for i in range(0, len(a), rows))
    return "".join(_json_parts([_json_piece(_cells(b), b.shape, level) for b in blocks], level))


def _json_object(fields: dict, arrays: dict) -> list:
    """Texts that concatenate to ``json.dumps({**fields, **arrays}, sort_keys=True,
    indent=1) + "\\n"``.

    ``arrays`` maps keys to the texts of values nested one level deep, as
    ``_json_parts(..., 1)`` gives them.
    """
    texts = {key: [json.dumps(value, sort_keys=True, indent=1).replace("\n", "\n ")]
             for key, value in fields.items()}
    texts.update(arrays)
    parts = ["{"]
    for key in sorted(texts):
        parts += ["\n ", json.dumps(key), ": ", *texts[key], ","]
    parts[-1] = "\n}\n"
    return parts


def _base_blocks(traj):
    """``(start, lines, pieces)`` per block of rows of the t, frame and velocity columns.

    ``lines`` are the block's CSV lines of those columns and ``pieces`` maps
    each JSON key to the block's piece of its array.
    """
    arrays = {"times": traj.times, "frames": traj.frames, "velocities": traj.velocities}
    rows = _block_rows(sum(a[0].size for a in arrays.values()) if len(traj) else 0)
    for start in range(0, len(traj), rows):
        blocks = {key: a[start:start + rows] for key, a in arrays.items()}
        cells = {key: _cells(b) for key, b in blocks.items()}
        yield (start, _csv_rows(list(cells.values()), len(blocks["times"])),
               {key: _json_piece(cells[key], b.shape, 1) for key, b in blocks.items()})


def _emit_trajectory(csv, traj, space: str, alpha: str, base, z) -> list:
    """Write a trajectory's CSV text, with ``z`` as its transported columns, to the handle
    ``csv``; return the parts of its JSON.  ``base`` holds its ``_base_blocks``."""
    arrays = {"times": [], "frames": [], "velocities": []}
    if z is not None:
        arrays["transported"] = []
    csv.write(_meta_header(traj, space, alpha) + "\n" + ",".join(trajectory_columns(traj))
              + "\n")
    for start, lines, pieces in base:
        for key, piece in pieces.items():
            arrays[key].append(piece)
        if z is not None:
            block = z[start:start + len(lines)]
            cells = _cells(block)
            arrays["transported"].append(_json_piece(cells, block.shape, 1))
            lines = _csv_rows([lines, cells], len(lines))
        csv.write("\n".join(lines) + "\n")
    fields = {
        "meta": _jsonable({**traj.meta, "space": space, "alpha": alpha}),
        "columns": trajectory_columns(traj),
    }
    if z is None:
        fields["transported"] = None
    return _json_object(fields, {key: _json_parts(p, 1) for key, p in arrays.items()})


def write_trajectory(prefix: str, traj, space: str, alpha: str):
    """Write the ``.csv`` and ``.json`` files of a trajectory, each value converted once.

    ``traj.transported`` may be absent, one field of shape (M, N), or the
    batch of shape (M, S, N) that ``parallel_transport`` returns for S
    seeds.  A batch writes one file pair per seed, ``prefix_seed<i>``, or
    ``prefix`` when S = 1; its t, frame and velocity columns are converted
    to text once for all of them.  The batch is written whole or not at all:
    the files replace their paths only once all of them are written, and a
    target that is a directory refuses the batch before any is replaced.
    """
    z = traj.transported
    seeds = [z] if z is None or z.ndim == 2 else list(np.moveaxis(z, 1, 0))
    paths = [prefix] if len(seeds) == 1 else [f"{prefix}_seed{i}" for i in range(len(seeds))]
    base = _base_blocks(traj) if len(seeds) == 1 else list(_base_blocks(traj))
    with _atomic_files() as stage:
        for path, seed in zip(paths, seeds):
            with stage(path + ".csv") as handle:
                json_parts = _emit_trajectory(handle, traj, space, alpha, base, seed)
            with stage(path + ".json") as handle:
                handle.writelines(json_parts)


def trajectory_csv(traj, space: str = "", alpha: str = "") -> str:
    """The text ``write_trajectory`` writes to ``prefix.csv`` for one seed or none."""
    text = io.StringIO()
    _emit_trajectory(text, traj, space, alpha, _base_blocks(traj), traj.transported)
    return text.getvalue()


def trajectory_json(traj, space: str = "", alpha: str = "") -> str:
    """The text ``write_trajectory`` writes to ``prefix.json`` for one seed or none."""
    return "".join(_emit_trajectory(io.StringIO(), traj, space, alpha, _base_blocks(traj),
                                    traj.transported))


def tensor_json(tensor, extra_meta=None) -> str:
    fields = {
        "kind": tensor.kind,
        "shape": list(tensor.coeffs.shape),
        "layout": "row-major",
        "tainted": tensor.tainted,
    }
    fields.update(_jsonable(extra_meta or {}))
    return "".join(_json_object(fields, {"coefficients": [json_array(tensor.coeffs.ravel(), 1)]}))


def tensor_csv(tensor) -> str:
    """Rank-3 tensors as (k, i, j, value) rows with 1-based integer indices."""
    coeffs = tensor.coeffs
    if coeffs.ndim != 3:
        raise ValueError("CSV output is defined for rank-3 tensors only")
    indices = list(map(str, (np.indices(coeffs.shape).reshape(3, -1).T + 1).ravel().tolist()))
    return "\n".join(["k,i,j,value", *_csv_rows([indices, _cells(coeffs)], coeffs.size)]) + "\n"


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
