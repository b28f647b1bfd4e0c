"""Deterministic CSV/JSON emission for trajectories, tensors and reports.

Every float in every artifact is written as ``json.dumps`` writes it:
Python's shortest round-trip ``repr``, and ``NaN``, ``Infinity`` or
``-Infinity`` when it is not finite.  So a CSV cell and its JSON twin are
the same text, every value reads back exactly (``json.load``, ``float``
and ``np.loadtxt`` alike), and identical inputs give byte-identical files.
Writes go to a temporary file in the target directory followed by an
atomic rename, so no partial file survives an error.  The file gets the
mode a plain ``open(path, "w")`` would give it: 0o666 less the umask.

Array text comes from one kernel, ``_rows``: one ``orjson.dumps`` of a
block's C-contiguous 2-D view, split into row texts ``b"v,v,..."``, so
Python handles rows, not values.  orjson's Ryu kernel (Adams, PLDI 2018)
finds ``repr``'s shortest round-trip digits, and its text is ``repr``'s
wherever both write positional notation, 1e-4 <= |x| < 1e16, and for 0.0
and -0.0.  Outside that range it writes ``1.5e-7`` for ``1.5e-07``,
``5.4e16`` for ``5.4e+16`` and ``0.00001`` for ``1e-05``, and ``null`` for
a value that is not finite: those cells, found with one mask per block,
are rewritten with ``fmt``'s text, and only the rows holding one are split.
``orjson`` is imported on the first array converted: its import pulls in
``uuid`` and ``zoneinfo``, and a command that writes no array (``check``)
does not pay for it.

A CSV line is one ``b",".join`` of a row's texts from each array.  A JSON
array, in the ``json.dumps(..., indent=1)`` layout, is a block's innermost
rows joined with control bytes marking the row and item boundaries, whose
commas and control bytes are then replaced by the indented separators; a
1-D array is one row per block.  The text stays bytes up to the binary
handle it is written through.  ``write_trajectory`` builds a block's CSV
lines and JSON pieces from the same row texts, and neither file is held as
one string; a block's time column is converted as one row and split into
its cells.  A batch of seeds transported along one curve is one file pair
per seed.  The columns they share (t, frames, velocities) are converted
once for all of them, and their transported columns one block of rows at
a time, all seeds in one ``_rows`` call.  A batch, like the file set of ``tensors``
(``atomic_write_texts``), is written whole or not at all: each file is
staged in a temporary file, and the staged files replace their paths only
once all of them are written.
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


# values converted per block of rows: bounds the texts alive at once
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


def _rows(values) -> list:
    """The texts ``b"v,v,..."`` of the rows of a 2-D block, each value as ``fmt`` writes it:
    one ``orjson.dumps``, with the cells the module docstring names redone by ``_json_float``."""
    import orjson  # lazy: see the module docstring

    a = np.ascontiguousarray(values, dtype=float)
    if not len(a):
        return []
    rows = orjson.dumps(a, option=orjson.OPT_SERIALIZE_NUMPY)[2:-2].split(b"],[")
    size = np.abs(a)
    redo = ~(((size >= 1e-4) & (size < 1e16)) | (size == 0))
    for r in np.flatnonzero(redo.any(axis=1)).tolist():
        cells = rows[r].split(b",")
        for c in np.flatnonzero(redo[r]).tolist():
            cells[c] = _json_float(float(a[r, c])).encode()
        rows[r] = b",".join(cells)
    return rows


def _umask() -> int:
    mask = os.umask(0)
    os.umask(mask)
    return mask


@contextmanager
def _atomic_files():
    """``stage(path)``, a context giving a binary handle on a temporary file for ``path``.

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
        with os.fdopen(fd, "wb") as handle:
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
    """Write each ``path: text`` of ``files`` as UTF-8: all of them, or none when one fails."""
    with _atomic_files() as stage:
        for path, text in files.items():
            with stage(path) as handle:
                handle.write(text.encode())


def atomic_write_text(path: str, text: str):
    atomic_write_texts({path: text})


def trajectory_columns(traj):
    d = traj.frames.shape[1]
    n = traj.velocities.shape[1]
    cols = ["t"]
    cols += [f"g_{i}{j}" for i in range(d) for j in range(d)]
    cols += [f"x_{k + 1}" for k in range(n)]
    if traj.transported is not None:
        cols += [f"z_{k + 1}" for k in range(n)]
    return cols


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
def _separators(ndim: int, level: int) -> tuple:
    """The texts ``json.dumps(..., indent=1)`` puts between neighbouring values of an
    array of ``ndim`` axes nested ``level`` deep: item ``e`` where their indices first
    differ on axis ``e``, the last one between the values of an innermost row."""
    pad = [b"\n" + b" " * (level + c) for c in range(ndim + 1)]
    return tuple(b"".join([*(pad[c] + b"]" for c in range(ndim - 1, e, -1)), b",",
                           *(pad[c] + b"[" for c in range(e + 1, ndim)), pad[ndim]])
                 for e in range(ndim))


def _json_piece(rows: list, shape: tuple, level: int) -> bytes:
    """The items of a block of shape ``shape`` as ``json_array`` writes them, without
    brackets, from its innermost rows (one row if it has one axis), joined with byte
    ``e + 1`` where neighbours first differ on axis ``e``, which ``_separators`` replace."""
    seps = _separators(len(shape), level)
    for axis in range(len(shape) - 2, 0, -1):
        n = shape[axis]
        rows = list(map(bytes([axis + 1]).join, zip(*[rows[i::n] for i in range(n)])))
    text = b"\x01".join(rows).replace(b",", seps[-1])
    for axis in range(len(shape) - 1):
        text = text.replace(bytes([axis + 1]), seps[axis])
    return text


def _json_parts(pieces: list, ndim: int, level: int) -> list:
    """Texts that concatenate to the JSON array of ``ndim`` axes whose blocks of
    leading rows are ``pieces``."""
    if not pieces:
        return [b"[]"]
    sep = _separators(ndim, level)[0]
    closing, opening = sep.split(b",")
    parts = [sep] * (2 * len(pieces) + 1)
    parts[1::2] = pieces
    parts[0], parts[-1] = b"[" + opening, closing + b"\n" + b" " * level + b"]"
    return parts


def json_array(values, level: int = 0) -> str:
    """``json.dumps(values.tolist(), indent=1)`` for a float array of one or more axes.

    With ``level > 0`` the text is the array as a value nested ``level``
    containers deep: continuation lines are indented ``level`` more spaces.
    Leading rows are converted a block at a time, so the texts of only one
    block are alive at once.
    """
    a = np.asarray(values, dtype=float)
    if not a.size:          # no value to convert; an inner axis of length 0 gives ``[]`` items
        return json.dumps(a.tolist(), indent=1).replace("\n", "\n" + " " * level)
    rows = max(1, _BLOCK_VALUES // (a.size // len(a)))
    pieces = [_json_piece(_rows(b.reshape(-1, a.shape[-1]) if a.ndim > 1 else b[None]),
                          b.shape, level) for b in (a[i:i + rows] for i in range(0, len(a), rows))]
    return b"".join(_json_parts(pieces, a.ndim, level)).decode()


def _json_object(fields: dict, arrays: dict) -> list:
    """Texts that concatenate to ``json.dumps({**fields, **arrays}, sort_keys=True,
    indent=1) + "\\n"``, encoded.

    ``arrays`` maps keys to the texts of values nested one level deep, as
    ``_json_parts(..., 1)`` gives them.
    """
    texts = {key: [json.dumps(value, sort_keys=True, indent=1).replace("\n", "\n ").encode()]
             for key, value in fields.items()}
    texts.update(arrays)
    parts = [b"{"]
    for key in sorted(texts):
        parts += [b"\n ", json.dumps(key).encode(), b": ", *texts[key], b","]
    parts[-1] = b"\n}\n"
    return parts


def _blocks(traj, z):
    """``(lines, pieces, z_rows)`` per block of rows.

    ``lines`` are the block's CSV lines of the t, frame and velocity columns
    and ``pieces`` maps each JSON key to the block's piece of its array.
    ``z`` is None or the transported coordinates of shape (M, S, N), and
    ``z_rows[s]`` the row texts of seed s in the block: one ``_rows`` call
    converts the block of all seeds, and seed s takes every S-th row text.
    """
    frames, velocities = traj.frames, traj.velocities
    p = frames.shape[1]             # innermost frame rows per trajectory row
    rows = max(1, _BLOCK_VALUES // (1 + math.prod(frames.shape[1:]) + velocities.shape[1]))
    for start in range(0, len(traj), rows):
        t_row = _rows(traj.times[None, start:start + rows])
        g, x = frames[start:start + rows], velocities[start:start + rows]
        g_rows, x_rows = _rows(g.reshape(-1, g.shape[-1])), _rows(x)
        lines = list(map(b",".join, zip(t_row[0].split(b","), *[g_rows[i::p] for i in range(p)],
                                        x_rows)))
        pieces = {"times": _json_piece(t_row, (len(lines),), 1),
                  "frames": _json_piece(g_rows, g.shape, 1),
                  "velocities": _json_piece(x_rows, x.shape, 1)}
        if z is None:
            yield lines, pieces, None
        else:
            z_text = _rows(z[start:start + rows].reshape(-1, z.shape[-1]))
            yield lines, pieces, [z_text[s::z.shape[1]] for s in range(z.shape[1])]


def _emit_trajectory(csv, traj, space: str, alpha: str, blocks, seed) -> list:
    """Write a trajectory's CSV text, with seed ``seed`` of its ``_blocks`` as its
    transported columns (none when ``seed`` is None), to the binary handle ``csv``; return
    the parts of its JSON."""
    n = traj.velocities.shape[1]
    ndims = {"times": 1, "frames": 3, "velocities": 2}
    if seed is not None:
        ndims["transported"] = 2
    pieces = {key: [] for key in ndims}
    step = traj.meta.get("step")
    columns = trajectory_columns(traj)
    csv.write((f"# space={space} alpha={alpha} step={'n/a' if step is None else fmt(step)} "
               f"integrator={traj.meta.get('integrator', '')}\n"
               + ",".join(columns) + "\n").encode())
    for lines, base_pieces, z_rows in blocks:
        for key, piece in base_pieces.items():
            pieces[key].append(piece)
        if seed is None:
            csv.write(b"\n".join(lines) + b"\n")
            continue
        z_rows = z_rows[seed]
        pieces["transported"].append(_json_piece(z_rows, (len(z_rows), n), 1))
        text = [None, b",", None, b"\n"] * len(lines)
        text[0::4], text[2::4] = lines, z_rows
        csv.write(b"".join(text))
    fields = {"meta": _jsonable({**traj.meta, "space": space, "alpha": alpha}),
              "columns": columns}
    if seed is None:
        fields["transported"] = None
    return _json_object(fields, {key: _json_parts(pieces[key], ndim, 1)
                                 for key, ndim in ndims.items()})


def write_trajectory(prefix: str, traj, space: str, alpha: str):
    """Write the ``.csv`` and ``.json`` files of a trajectory, each value converted once.

    ``traj.transported`` may be absent, one field of shape (M, N), or the
    batch of shape (M, S, N) that ``parallel_transport`` returns for S
    seeds.  A batch writes one file pair per seed, ``prefix_seed<i>``, or
    ``prefix`` when S = 1; its t, frame and velocity columns are converted
    to text once for all of them, and its transported columns one block of
    all seeds at a time.  The batch is written whole or not at all: the
    files replace their paths only once all of them are written, and a
    target that is a directory refuses the batch before any is replaced.
    """
    z = traj.transported
    if z is not None and z.ndim == 2:
        z = z[:, None]
    seeds = [None] if z is None else range(z.shape[1])
    paths = [prefix] if len(seeds) == 1 else [f"{prefix}_seed{i}" for i in seeds]
    blocks = _blocks(traj, z)
    if len(seeds) > 1:
        blocks = list(blocks)
    with _atomic_files() as stage:
        for path, seed in zip(paths, seeds):
            with stage(path + ".csv") as handle:
                json_parts = _emit_trajectory(handle, traj, space, alpha, blocks, seed)
            with stage(path + ".json") as handle:
                handle.writelines(json_parts)


def _one_trajectory(traj, space, alpha):
    """The CSV text and the JSON parts ``write_trajectory`` writes for one seed or none."""
    z = traj.transported
    text = io.BytesIO()
    json_parts = _emit_trajectory(text, traj, space, alpha,
                                  _blocks(traj, None if z is None else z[:, None]),
                                  None if z is None else 0)
    return text.getvalue(), json_parts


def trajectory_csv(traj, space: str = "", alpha: str = "") -> str:
    """The text ``write_trajectory`` writes to ``prefix.csv`` for one seed or none."""
    return _one_trajectory(traj, space, alpha)[0].decode()


def trajectory_json(traj, space: str = "", alpha: str = "") -> str:
    """The text ``write_trajectory`` writes to ``prefix.json`` for one seed or none."""
    return b"".join(_one_trajectory(traj, space, alpha)[1]).decode()


def tensor_json(tensor, extra_meta=None) -> str:
    fields = {"kind": tensor.kind, "shape": list(tensor.coeffs.shape), "layout": "row-major",
              "tainted": tensor.tainted}
    fields.update(_jsonable(extra_meta or {}))
    coefficients = [json_array(tensor.coeffs.ravel(), 1).encode()]
    return b"".join(_json_object(fields, {"coefficients": coefficients})).decode()


def tensor_csv(tensor) -> str:
    """Rank-3 tensors as (k, i, j, value) rows with 1-based integer indices."""
    coeffs = tensor.coeffs
    if coeffs.ndim != 3:
        raise ValueError("CSV output is defined for rank-3 tensors only")
    import orjson  # lazy: see the module docstring

    index = np.indices(coeffs.shape).reshape(3, -1).T.copy() + 1
    index = orjson.dumps(index, option=orjson.OPT_SERIALIZE_NUMPY)[2:-2].split(b"],[")
    lines = map(b",".join, zip(index, _rows(coeffs.reshape(-1, 1))))
    return b"\n".join([b"k,i,j,value", *lines]).decode() + "\n"


def sectional_csv(entries) -> str:
    """Basis-plane sectional curvatures as (i, j, value-or-degenerate) rows."""
    lines = ["i,j,sectional"]
    for i, j, val in entries:
        lines.append(f"{i + 1},{j + 1},{'degenerate' if val is None else fmt(val)}")
    return "\n".join(lines) + "\n"


def report_json(reports, passed: bool, extra=None) -> str:
    payload = {"pass": bool(passed), "checks": [r.to_json_dict() for r in reports]}
    payload.update(_jsonable(extra or {}))
    return json.dumps(payload, sort_keys=True, indent=1) + "\n"
