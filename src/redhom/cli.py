"""Batch front-end: validate space files, integrate, and emit CSV/JSON artifacts.

Exit codes, one cause a line:

0
  - all mandatory checks pass and the computation finished.

1
  - a mandatory check fails, or a decomposition gate does; ``check``
    reports the battery, and every other command without ``--force``
    reports it and stops before it computes or writes anything else;
  - aborted dynamics, in ``convergence`` too, by any run or its
    reference (the error names that run's step and abort time);
  - a ``convergence`` whose ``--steps`` take fewer than three distinct
    steps, or whose errors do not decrease as the step shrinks, round-off
    dominating them (both errors name the steps taken);
  - a geodesic drifting past ``group_drift`` (its artifacts are still
    written);
  - ``--t1`` not above ``--t0`` ("t_span must be a nonempty interval");
  - a ``--step`` that is not positive ("step must be positive");
  - finite ``--t0``, ``--t1`` and ``--step`` whose step count overflows
    or whose time grid is too large to allocate;
  - an ``--x0``, ``--z0`` or ``one_parameter:`` vector, or a
    ``velocity_file:`` row, with a coordinate of magnitude over the
    blow-up norm (no step is taken, and no curve is lifted for a
    ``--z0``; the error names the vector or the row);
  - a step whose product with the largest velocity coordinate, at a
    sample or at a midpoint the curve interpolates, is over that norm,
    its exponential being round-off (the error names the step);
  - a step whose square, which weighs the Magnus commutator, overflows
    (the error names the step);
  - a ``group_file:`` sample, on an algebra whose matrix basis is skew,
    whose orthogonality drift is over ``group_drift`` (the error names
    its data row; no curve is lifted);
  - a sample curve whose finite-difference derivative is not finite, its
    times too close for its values (no step is taken; the error names
    the samples);
  - an ``--x0``, ``--z0`` or ``one_parameter:`` vector whose length is
    not dim m;
  - a ``group_file:`` or ``velocity_file:`` curve on an algebra without
    a matrix basis;
  - an ``--out`` file that cannot be written, as in a missing directory
    (the error names the path; no temporary file is left behind; a
    ``transport`` batch with one such file writes none of its seeds'
    files).

2
  - a parse or schema error in the definition file;
  - a definition file that is not UTF-8 (the error names the path and
    the line of the first bad byte);
  - a bad ``--tol`` name or value;
  - an empty ``--out`` ("expected a non-empty path prefix"; nothing is
    written);
  - a malformed or non-finite number in ``--t0``, ``--t1``, ``--step``,
    ``--steps``, ``--x0``, ``--z0`` or a ``one_parameter:`` curve;
  - a ``group_file:`` or ``velocity_file:`` sample file that holds fewer
    than two data rows, rows not 1 + d*d (group) or 1 + dim m (velocity)
    values wide, a non-finite cell, a time that does not exceed the
    previous row's, or a ``group_file:`` matrix whose |det| is below the
    singularity floor (the error names the file, and the first such data
    row);
  - an algebra or a requested alpha failing its gate at the ``--tol``
    values (``--force`` builds such an alpha anyway, tainted).

A ``group_file:`` or ``velocity_file:`` curve is differentiated by one
Lagrange stencil of min(samples, 5) nodes: fourth order on any grid of 5
or more samples, uniform or not, and order 1, 2 or 3 on 2, 3 or 4.
Between samples a velocity curve, sampled or lifted, and the lift's
isotropy generator take the cubic Hermite interpolant from those
derivatives, once: transport takes the midpoints the frames were built
from.
The distance from the three-node derivative is the error estimate, and
a warning reports one over 1e-4; a grid of 2-4 samples warns ``short
grid: finite-difference error not estimated``.

The ``group_drift`` gate covers every algebra whose matrix basis is
skew, from the catalog or a definition file, since its group lies in
O(d).  Output files are written atomically and deterministically.  Every
float in them, CSV and JSON alike, is the text ``json.dumps`` gives it:
the shortest repr that reads back exactly, and ``NaN``, ``Infinity`` or
``-Infinity`` when not finite.

argv is read in one pass over the command's option table when it is
well formed: one file, and each flag of the command spelled in full as
``--flag=value`` or ``--flag value``.  Help, abbreviations, unknown flags,
``--``, separate values starting with ``-`` (but for the vectors below) and
every malformed value go to argparse, which prints its help, usage and
error texts and exits 0 (help) or 2.

Geodesic frames stay on the group up to round-off, so ``convergence``
reports ``exact`` for an alpha whose symmetric part vanishes: its geodesics
are the one-parameter curves ``exp(t X)`` and every step size meets the
closed form to machine precision.  A vector value may follow its option
as a separate argument even when it starts with ``-`` (``--x0 -0.3,0.2``).
"""

from __future__ import annotations

import argparse
import math
import re
import sys
import warnings

import numpy as np

from . import serialize
from .connection import basis_sectional_curvatures, curvature, torsion
from .deffile import DefFileError, build_space, check_space, parse_definition
from .reductive import DecompositionError
from .reporting import DEFAULT_TOLERANCES, resolve_tolerances
from .transport import (CurveSpec, _refuse_blowup, geodesic, geodesic_convergence,
                        parallel_transport, realize_curve)

__all__ = ["main"]


def _read_definition(path: str):
    try:
        with open(path, "rb") as handle:
            raw = handle.read()
    except OSError as exc:
        raise DefFileError(f"cannot read {path}: {exc}") from exc
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        # the line parse_definition would give it: str.splitlines breaks lines at \r too
        line = len((raw[:exc.start].decode("utf-8") + "_").splitlines())
        raise DefFileError(f"{path} is not UTF-8 text: {exc.reason} (byte 0x{raw[exc.start]:02x})",
                           line) from None
    return parse_definition(text)


def _tol_pair(item: str):
    """Parse one ``--tol NAME=VALUE``; argparse reports a failure as exit 2."""
    name, _, value = (part.strip() for part in item.partition("="))
    if name not in DEFAULT_TOLERANCES:
        raise argparse.ArgumentTypeError(
            f"unknown tolerance name {name!r} (known: {', '.join(sorted(DEFAULT_TOLERANCES))})")
    try:
        if 0.0 <= float(value) < math.inf:
            return name, float(value)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected NAME=VALUE with a finite VALUE >= 0, got {item!r}")


def _attach_vector_values(argv):
    """Rewrite ``--x0 -0.3,0.2`` (and ``--z0``) as ``--x0=-0.3,0.2``.

    argparse reads a separate value that starts with ``-`` and is not a
    plain number as an option, so a vector whose first coordinate is
    negative would otherwise end in "expected one argument".
    """
    out = []
    for arg in argv:
        if out and out[-1] in ("--x0", "--z0") and re.match(r"-\.?\d", arg):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def _out_prefix(text: str) -> str:
    """An ``--out`` prefix; argparse reports an empty one as exit 2."""
    if not text:
        raise argparse.ArgumentTypeError("expected a non-empty path prefix")
    return text


def _finite_floats(text: str) -> np.ndarray:
    """Parse finite numbers separated by commas or spaces; argparse reports a failure as exit 2."""
    try:
        values = np.array([float(v) for v in text.replace(",", " ").split()])
        if values.size and np.isfinite(values).all():
            return values
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected finite numbers, comma separated, got {text!r}")


def _finite_float(text: str) -> float:
    try:
        (value,) = _finite_floats(text)
    except (argparse.ArgumentTypeError, ValueError):
        raise argparse.ArgumentTypeError(f"expected one finite number, got {text!r}") from None
    return float(value)


def _run(args) -> int:
    """Every command's pipeline: read the definition, resolve ``--tol``, build the
    space, run the battery once, then gate on it.

    ``check``, and a command whose battery fails without ``--force``, ends in the
    battery report: exit 0 if every mandatory check passes, else 1.  Any other
    command gets the gated space and the taint of its outputs (a tainted report row,
    as an unchecked alpha's, or a forced failure) and returns its own exit code.
    """
    tols = resolve_tolerances(dict(args.tol or ()))
    bundle, alpha = build_space(_read_definition(args.file), force=args.force,
                                tolerances=tols)
    reports, passed = check_space(bundle, alpha, tols)
    if args.func is None or not (passed or args.force):
        _emit_report(args, bundle, reports, passed)
        if args.func is not None:
            print("mandatory checks failed; rerun with --force to integrate anyway",
                  file=sys.stderr)
        return 0 if passed else 1
    tainted = any(r.tainted for r in reports) or not passed
    return args.func(args, bundle, alpha, tols, reports, tainted)


def _emit_report(args, bundle, reports, passed):
    text = serialize.report_json(reports, passed, extra={"space": bundle.name})
    if args.json:
        sys.stdout.write(text)
    else:
        for r in reports:
            flag = "PASS" if r.passed else "FAIL"
            kind = "" if r.mandatory else " (informational)"
            print(f"[{flag}] {r.check}{kind}: residual {r.max_residual:.3e} "
                  f"tol {r.tolerance:.1e}")
        print(f"space {bundle.name}: {'PASS' if passed else 'FAIL'}")
    if args.out:
        serialize.atomic_write_text(args.out + ".report.json", text)


# -- commands ----------------------------------------------------------------------
# each takes the space ``_run`` built and gated, and returns its exit code


def cmd_geodesic(args, bundle, alpha, tols, reports, tainted) -> int:
    traj = geodesic(alpha, args.x0, (args.t0, args.t1), args.step)
    traj.meta["tainted"] = tainted
    serialize.write_trajectory(args.out, traj, bundle.name, alpha.label)
    drift = traj.meta.get("group_drift")
    leak = traj.meta.get("horizontality_leak")
    print(f"geodesic: {len(traj)} samples, step {traj.meta['step']:.6g}, "
          f"group drift {drift if drift is None else format(drift, '.3e')}, "
          f"h-leak {leak if leak is None else format(leak, '.3e')}")
    code = 0
    if drift is not None and drift > tols["group_drift"]:
        print(f"group drift {drift:.3e} exceeds tolerance group_drift "
              f"{tols['group_drift']:.1e}; trajectory written", file=sys.stderr)
        code = 1
    if traj.meta.get("blow_up"):
        print(f"blow-up abort at t = {traj.meta['aborted_at']:.6g}; "
              "partial trajectory written", file=sys.stderr)
        code = 1
    return code


def _parse_curve(args, dec) -> CurveSpec:
    spec = args.curve
    if spec.startswith("one_parameter:"):
        try:
            x0 = _finite_floats(spec.split(":", 1)[1])
        except argparse.ArgumentTypeError as exc:
            raise DefFileError(f"--curve one_parameter: {exc}") from None
        return CurveSpec.one_parameter(x0, (args.t0, args.t1), args.step)
    path = spec.split(":", 1)[-1]
    if spec.startswith("velocity_file:"):
        times, rows = _read_samples(path, "velocity", dec.N, "coordinates")
        make = CurveSpec.velocity_samples
    elif spec.startswith("group_file:"):
        dec.algebra._require_matrices()
        d = dec.algebra.matrix_dim
        times, rows = _read_samples(path, "group", d * d, "matrix entries")
        rows, make = rows.reshape(-1, d, d), CurveSpec.group_samples
    else:
        raise DefFileError(
            "--curve must be one_parameter:<coords>, velocity_file:<path> or group_file:<path>")
    try:
        return make(times, rows)
    except ValueError as exc:           # the samples' own checks, naming the data row
        raise DefFileError(f"sample file {path}: {exc}") from exc


def _read_samples(path: str, kind: str, width: int, entries: str):
    """Times and rows of a ``kind`` sample file, each a time and ``width`` ``entries``; the
    ``CurveSpec`` constructor checks them."""
    try:
        with warnings.catch_warnings():
            # an empty file is refused below, by name
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            raw = np.loadtxt(path, delimiter=",", comments="#", ndmin=2)
    except OSError as exc:
        raise DefFileError(f"cannot read samples from {path}: {exc}") from exc
    except ValueError as exc:
        raise DefFileError(f"malformed sample file {path}: {exc}") from exc
    if not raw.size:
        raise DefFileError(f"sample file {path} holds no data rows")
    if raw.shape[1] != 1 + width:
        raise DefFileError(f"sample file {path}: {kind} sample rows must hold {width} {entries}, "
                           f"got {raw.shape[1] - 1}")
    return raw[:, 0], raw[:, 1:]


def cmd_transport(args, bundle, alpha, tols, reports, tainted) -> int:
    dec = bundle.dec
    if any(z.shape != (dec.N,) for z in args.z0):
        raise ValueError(f"each --z0 must hold {dec.N} coordinates")
    seeds = np.array(args.z0)
    _refuse_blowup("z0", seeds)   # before the lift, which parallel_transport would follow
    base = realize_curve(dec, _parse_curve(args, dec), tols)
    batch = parallel_transport(alpha, base, seeds)
    batch.meta["tainted"] = tainted
    serialize.write_trajectory(args.out, batch, bundle.name, alpha.label)

    # the battery judged is_metric for this alpha and metric at tols["is_metric"]
    if any(r.check == "is_metric" and r.passed for r in reports):
        zs = batch.transported
        gram = np.einsum("tak,kl,tbl->tab", zs, bundle.metric.gram, zs, optimize=True)
        drift = float(np.max(np.abs(gram - gram[0])))
        print(f"transport: drift of the metric on transported seeds {drift:.3e}")
    for warning in batch.meta.get("warnings", []):
        print(f"warning: {warning}", file=sys.stderr)
    return 0


def cmd_tensors(args, bundle, alpha, tols, reports, tainted) -> int:
    tor = torsion(alpha)
    curv = curvature(alpha, tol=tols["curvature_h_leak"])
    anti = float(np.max(np.abs(curv.coeffs + np.swapaxes(curv.coeffs, 1, 2)))) \
        if curv.coeffs.size else 0.0
    meta = {"space": bundle.name, "alpha": alpha.label,
            "curvature_antisymmetry_residual": anti, "tainted": tainted}
    files = {"_torsion.json": serialize.tensor_json(tor, meta),
             "_torsion.csv": serialize.tensor_csv(tor),
             "_curvature.json": serialize.tensor_json(curv, meta)}
    if bundle.metric is not None:
        files["_sectional.csv"] = serialize.sectional_csv(
            basis_sectional_curvatures(curv, bundle.metric))
    serialize.atomic_write_texts({args.out + suffix: text for suffix, text in files.items()})
    print(f"tensors: wrote torsion/curvature for {bundle.name} "
          f"(curvature antisymmetry {anti:.3e})")
    return 0


def cmd_convergence(args, bundle, alpha, tols, reports, tainted) -> int:
    result = geodesic_convergence(alpha, args.x0, (args.t0, args.t1), args.steps.tolist())
    if result.exact:
        print("convergence: exact (errors at machine precision)")
    else:
        print(f"convergence: measured order {result.slope:.3f}")
    for s, e in zip(result.steps, result.errors):
        print(f"  step {s:.6g}: error {e:.6e}")
    if args.out:
        payload = {
            "steps": result.steps, "errors": result.errors,
            "slope": result.slope, "exact": result.exact, "space": bundle.name,
            "tainted": tainted,
        }
        import json
        serialize.atomic_write_text(args.out + ".json",
                                    json.dumps(payload, sort_keys=True, indent=1) + "\n")
    return 0


# -- argument plumbing --------------------------------------------------------------


# the options every command takes after its ``file``, in the order of the help text
_COMMON = (
    ("--json", dict(action="store_true", help="print reports as JSON")),
    ("--tol", dict(action="append", metavar="NAME=VALUE", type=_tol_pair,
                   help="override a named tolerance (repeatable)")),
    ("--force", dict(action="store_true",
                     help="proceed despite failed checks; outputs are tainted")),
    ("--out", dict(type=_out_prefix, default=None, help="output path prefix")),
)

# name -> (handler, help, options beyond ``_COMMON``), in the order of the usage text;
# ``check`` has no handler: the battery report is all it does
_COMMANDS = {
    "check": (None, "run the diagnostic battery", ()),
    "geodesic": (cmd_geodesic, "integrate a geodesic", (
        ("--x0", dict(type=_finite_floats, required=True,
                      help="initial velocity coordinates, comma separated")),
        ("--t0", dict(type=_finite_float, default=0.0)),
        ("--t1", dict(type=_finite_float, required=True)),
        ("--step", dict(type=_finite_float, required=True)),
    )),
    "transport": (cmd_transport, "parallel-transport seeds along a curve", (
        ("--curve", dict(required=True, help="one_parameter:<coords> | "
                         "velocity_file:<csv> | group_file:<csv>")),
        ("--z0", dict(type=_finite_floats, action="append", required=True,
                      help="seed coordinates, comma separated (repeatable)")),
        ("--t0", dict(type=_finite_float, default=0.0)),
        ("--t1", dict(type=_finite_float, default=1.0)),
        ("--step", dict(type=_finite_float, default=1e-3)),
    )),
    "tensors": (cmd_tensors, "emit torsion/curvature/sectional tables", ()),
    "convergence": (cmd_convergence, "estimate the integrator order", (
        ("--x0", dict(type=_finite_floats, required=True)),
        ("--t0", dict(type=_finite_float, default=0.0)),
        ("--t1", dict(type=_finite_float, default=1.0)),
        ("--steps", dict(type=_finite_floats, default="0.2,0.1,0.05,0.025")),
    )),
}


def build_parser() -> argparse.ArgumentParser:
    """The ``redhom`` parser, built from ``_COMMON`` and ``_COMMANDS``.

    ``main`` runs it only on the argv ``_read_argv`` hands over, so every
    help, usage and error text and every exit code is argparse's.
    """
    parser = argparse.ArgumentParser(
        prog="redhom",
        description="diagnostics and transport on reductive homogeneous spaces",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for name, (func, help_text, options) in _COMMANDS.items():
        p = subs.add_parser(name, help=help_text)
        p.add_argument("file", help="space-definition file")
        for flag, kwargs in _COMMON + options:
            p.add_argument(flag, **kwargs)
        p.set_defaults(func=func)
    return parser


def _read_argv(argv):
    """The namespace ``build_parser().parse_args(argv)`` gives, or None.

    Reads only argv that argparse reads one way and accepts: a command,
    exactly one ``file``, and flags of that command spelled in full, as
    ``--flag=value`` or as ``--flag value`` with a value not starting with
    ``-``; every value converted by its ``type`` without error and every
    required flag given.  Anything else (help, ``--``, an abbreviation, an
    unknown flag, a converter that raises) returns None, and argparse
    reads it, so its texts and exit codes need no copy here.  This skips
    argparse's start-up, about 3 ms of every call.
    """
    if not argv or argv[0] not in _COMMANDS:
        return None
    func, _help, options = _COMMANDS[argv[0]]
    table = dict(_COMMON + options)
    given, files, rest = {}, [], iter(argv[1:])
    for arg in rest:
        if not arg.startswith("-"):
            files.append(arg)
            continue
        flag, eq, value = arg.partition("=")
        kwargs = table.get(flag)
        if kwargs is None:
            return None
        if kwargs.get("action") == "store_true":
            if eq:
                return None
            given[flag] = True
            continue
        if not eq:
            value = next(rest, "-")
            if value.startswith("-"):
                return None
        try:
            value = kwargs.get("type", str)(value)
        except (argparse.ArgumentTypeError, TypeError, ValueError):
            return None
        if kwargs.get("action") == "append":
            given.setdefault(flag, []).append(value)
        else:
            given[flag] = value
    if len(files) != 1:
        return None
    values = {"file": files[0]}
    for flag, kwargs in table.items():
        if flag in given:
            values[flag[2:]] = given[flag]
            continue
        if kwargs.get("required"):
            return None
        default = kwargs.get("default", False if kwargs.get("action") == "store_true" else None)
        # argparse converts a string default as it converts a given value
        values[flag[2:]] = kwargs["type"](default) if isinstance(default, str) else default
    return argparse.Namespace(**values, command=argv[0], func=func)


def main(argv=None) -> int:
    """Run one ``redhom`` command; return its exit code.

    Well-formed argv is read by ``_read_argv``; help, usage errors and any
    argv it does not take go to ``build_parser``, which prints argparse's
    texts and exits 0 (help) or 2 (errors).  Then ``_run`` reads, builds,
    checks and gates the space, and the command computes, writes and
    summarizes.  See the module docstring for the codes the commands return.
    """
    argv = _attach_vector_values(sys.argv[1:] if argv is None else argv)
    args = _read_argv(argv)
    if args is None:
        args = build_parser().parse_args(argv)
    if args.out is None and args.command in ("geodesic", "transport", "tensors"):
        args.out = "redhom_out"
    try:
        return _run(args)
    except DefFileError as exc:
        print(f"definition error: {exc}", file=sys.stderr)
        return 2
    except DecompositionError as exc:
        print(f"check failure: {exc}", file=sys.stderr)
        return 1
    except (ValueError, MemoryError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
