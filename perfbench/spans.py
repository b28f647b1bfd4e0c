"""Spans around calls into each ``redhom`` module, recorded from outside the program.

``install()`` wraps each public function listed in ``TARGETS`` (and the
``StructuredLieAlgebra`` / ``AlphaMap`` constructors) and rebinds the
wrapper under every name that held the original in any ``redhom.*``
module namespace: ``cli``, ``deffile`` and ``catalog`` import with
``from .x import f``, so patching only the defining module would miss
most calls.  Nothing under ``src/`` changes.

A span is ``[name, start_ns, end_ns, parent_index, amount]``; spans live
in memory and are written out once, when the worker ends.  ``amount`` is the
work count a span carries (RK4 steps, emitted values, bytes written).
"""

from __future__ import annotations

import functools
import sys
import time

# module -> public callables whose calls become spans
TARGETS = {
    "algebra": ("StructuredLieAlgebra", "expm", "expand_in_matrix_basis"),
    "reductive": ("build_decomposition", "normal_decomposition", "symmetric_decomposition",
                  "check_ad_H_invariance_bilinear", "check_metric_invariance"),
    "connection": ("AlphaMap", "levi_civita_alpha", "curvature", "sectional_curvature",
                   "torsion"),
    "catalog": ("stiefel", "grassmann_like", "group_as_space", "diagnostic_battery"),
    "deffile": ("parse_definition", "build_space", "check_space"),
    "transport": ("geodesic", "geodesic_convergence", "frame_diagnostics", "horizontal_lift",
                  "realize_curve", "parallel_transport"),
    "serialize": ("trajectory_csv", "trajectory_json", "atomic_write_text", "tensor_json",
                  "tensor_csv", "report_json"),
    "cli": ("main",),
}

ROOT = "cli.main"


def _trajectory_values(args, kwargs, result):
    traj = args[0] if args else kwargs["traj"]
    frames, vel = traj.frames, traj.velocities
    cols = 1 + frames.shape[1] * frames.shape[2] + vel.shape[1]
    if traj.transported is not None:
        cols += traj.transported.shape[1]
    return len(traj.times) * cols


def _steps(args, kwargs, result):
    return len(result.times) - 1


def _bytes(args, kwargs, result):
    text = args[1] if len(args) > 1 else kwargs["text"]
    return len(text) if text.isascii() else len(text.encode("utf-8"))


AMOUNTS = {
    "transport.geodesic": _steps,
    "transport.parallel_transport": _steps,
    "serialize.trajectory_csv": _trajectory_values,
    "serialize.trajectory_json": _trajectory_values,
    "serialize.atomic_write_text": _bytes,
}


class Recorder:
    """Holds the spans of one worker process."""

    def __init__(self):
        self.spans = []
        self.stack = []

    def wrap(self, name, fn):
        spans, stack, amount = self.spans, self.stack, AMOUNTS.get(name)
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            record = [name, 0, 0, stack[-1] if stack else -1, 0]
            spans.append(record)
            stack.append(index)
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if amount is not None:
                record[4] = amount(args, kwargs, result)
            return result

        return wrapper


def install() -> Recorder:
    recorder = Recorder()
    modules = [m for n, m in list(sys.modules.items())
               if (n == "redhom" or n.startswith("redhom.")) and m is not None]
    for short, names in TARGETS.items():
        home = sys.modules[f"redhom.{short}"]
        for attr in names:
            original = getattr(home, attr)
            span = f"{short}.{attr}"
            if isinstance(original, type):
                original.__init__ = recorder.wrap(span, original.__init__)
                continue
            wrapper = recorder.wrap(span, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
    return recorder


# -- analysis (parent side) --------------------------------------------------------


def summarize(spans) -> dict:
    """Per-name totals of one invocation's spans.

    Returns ``name -> {"ms", "self_ms", "calls", "amount"}``.  ``ms`` is
    inclusive time of the outermost calls of that name (a call nested in a
    call of the same name is not counted twice); ``self_ms`` subtracts the
    time covered by child spans.
    """
    child_ns = [0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    out = {}
    for index, (name, start, end, parent, amount) in enumerate(spans):
        entry = out.setdefault(name, {"ms": 0.0, "self_ms": 0.0, "calls": 0, "amount": 0})
        entry["calls"] += 1
        entry["amount"] += amount
        entry["self_ms"] += (end - start - child_ns[index]) / 1e6
        ancestor = parent
        while ancestor >= 0 and spans[ancestor][0] != name:
            ancestor = spans[ancestor][3]
        if ancestor < 0:
            entry["ms"] += (end - start) / 1e6
    return out


def nested_calls(spans, outer: str, inner: str) -> int:
    """Number of ``inner`` spans that have an ``outer`` span among their ancestors."""
    count = 0
    for name, _, _, parent, _ in spans:
        if name != inner:
            continue
        while parent >= 0 and spans[parent][0] != outer:
            parent = spans[parent][3]
        count += parent >= 0
    return count
