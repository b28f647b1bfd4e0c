"""Batch front-end: validate space files, integrate, and emit CSV/JSON artifacts.

Exit codes: 0 all mandatory checks pass and the computation finished;
1 check failures (a failed decomposition gate too), aborted dynamics (in
``convergence`` too, by any run or its reference: the error names that
run's step and abort time), a ``convergence`` whose ``--steps`` take fewer
than three distinct steps or whose errors do not decrease as the step
shrinks (round-off dominates them; both errors name the steps taken),
or a geodesic drifting past ``group_drift`` (its artifacts are still written),
finite ``--t0``, ``--t1`` and ``--step`` whose step count overflows or
whose time grid is too large to allocate, an ``--x0`` with a coordinate of
magnitude over the blow-up norm (no step is taken), and an ``--x0``,
``--z0`` or ``one_parameter:`` vector whose length is not dim m;
2 parse/schema errors, a bad ``--tol`` name or value, a malformed or
non-finite number in ``--t0``, ``--t1``, ``--step``, ``--steps``, ``--x0``,
``--z0`` or a ``one_parameter:`` curve, a ``group_file:`` or
``velocity_file:`` sample file that holds no data rows or a non-finite cell
(the error names the file, and the first such data row), and an algebra or a
requested alpha failing its gate at the ``--tol`` values (``--force``
builds such an alpha anyway, tainted).  The ``group_drift`` gate covers
every algebra whose matrix basis is skew, from the catalog or a definition
file, since its group lies in O(d).  Output files are written atomically and
deterministically.  Every float in them, CSV and JSON alike, is the text
``json.dumps`` gives it: the shortest repr that reads back exactly, and
``NaN``, ``Infinity`` or ``-Infinity`` when not finite.

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
from .transport import CurveSpec, geodesic, geodesic_convergence, parallel_transport, realize_curve

__all__ = ["main"]


def _read_definition(path: str):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise DefFileError(f"cannot read {path}: {exc}") from exc
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


def _build(args):
    """Parse and build the space with the resolved tolerances; run the battery."""
    tols = resolve_tolerances(dict(args.tol or ()))
    bundle, alpha = build_space(_read_definition(args.file), force=args.force,
                                tolerances=tols)
    reports, passed = check_space(bundle, alpha, tols)
    return bundle, alpha, tols, reports, passed


def _prepare(args):
    """Parse, build and gate on the check battery (unless --force); ``reports``
    cover the returned ``alpha``."""
    bundle, alpha, tols, reports, passed = _build(args)
    tainted = any(r.tainted for r in reports) or (not passed and args.force)
    if not passed and not args.force:
        _emit_report(args, bundle, reports, passed)
        print("mandatory checks failed; rerun with --force to integrate anyway",
              file=sys.stderr)
        return None
    return bundle, alpha, tols, tainted, reports


def _emit_report(args, bundle, reports, passed, extra=None):
    meta = {"space": bundle.name, **(extra or {})}
    text = serialize.report_json(reports, passed, extra=meta)
    if getattr(args, "json", False):
        sys.stdout.write(text)
    else:
        for r in reports:
            flag = "PASS" if r.passed else "FAIL"
            kind = "" if r.mandatory else " (informational)"
            print(f"[{flag}] {r.check}{kind}: residual {r.max_residual:.3e} "
                  f"tol {r.tolerance:.1e}")
        print(f"space {bundle.name}: {'PASS' if passed else 'FAIL'}")
    if getattr(args, "out", None):
        serialize.atomic_write_text(args.out + ".report.json", text)


# -- commands ----------------------------------------------------------------------


def cmd_check(args) -> int:
    bundle, _alpha, _tols, reports, passed = _build(args)
    _emit_report(args, bundle, reports, passed)
    return 0 if passed else 1


def cmd_geodesic(args) -> int:
    prep = _prepare(args)
    if prep is None:
        return 1
    bundle, alpha, tols, tainted, _reports = prep
    traj = geodesic(alpha, args.x0, (args.t0, args.t1), args.step)
    traj.meta["tainted"] = traj.meta.get("tainted", False) or tainted
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
        return CurveSpec.one_parameter(x0, (args.t0, args.t1))
    if spec.startswith("velocity_file:"):
        times, rows = _read_samples(spec.split(":", 1)[1])
        return CurveSpec.velocity_samples(times, rows)
    if spec.startswith("group_file:"):
        times, rows = _read_samples(spec.split(":", 1)[1])
        d = dec.algebra.matrix_dim
        if rows.shape[1] != d * d:
            raise DefFileError(
                f"group sample rows must hold {d * d} matrix entries, got {rows.shape[1]}")
        return CurveSpec.group_samples(times, rows.reshape(-1, d, d))
    raise DefFileError(
        "--curve must be one_parameter:<coords>, velocity_file:<path> or group_file:<path>")


def _read_samples(path: str):
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
    bad = ~np.isfinite(raw).all(axis=1)
    if bad.any():
        raise DefFileError(f"sample file {path}: data row {int(np.argmax(bad)) + 1} holds a "
                           "non-finite value")
    return raw[:, 0], raw[:, 1:]


def cmd_transport(args) -> int:
    prep = _prepare(args)
    if prep is None:
        return 1
    bundle, alpha, _tols, tainted, reports = prep
    dec = bundle.dec
    seeds = args.z0
    if any(z.shape != (dec.N,) for z in seeds):
        raise ValueError(f"each --z0 must hold {dec.N} coordinates")
    base = realize_curve(dec, _parse_curve(args, dec), step=args.step)
    batch = parallel_transport(alpha, base, np.array(seeds))
    batch.meta["tainted"] = batch.meta.get("tainted", False) or tainted
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


def cmd_tensors(args) -> int:
    prep = _prepare(args)
    if prep is None:
        return 1
    bundle, alpha, tols, tainted, _reports = prep
    tor = torsion(alpha)
    curv = curvature(alpha, tol=tols["curvature_h_leak"])
    anti = float(np.max(np.abs(curv.coeffs + np.swapaxes(curv.coeffs, 1, 2)))) \
        if curv.coeffs.size else 0.0
    meta = {"space": bundle.name, "alpha": alpha.label,
            "curvature_antisymmetry_residual": anti, "tainted": tainted}
    serialize.atomic_write_text(args.out + "_torsion.json",
                                serialize.tensor_json(tor, meta))
    serialize.atomic_write_text(args.out + "_torsion.csv", serialize.tensor_csv(tor))
    serialize.atomic_write_text(args.out + "_curvature.json",
                                serialize.tensor_json(curv, meta))
    if bundle.metric is not None:
        serialize.atomic_write_text(args.out + "_sectional.csv", serialize.sectional_csv(
            basis_sectional_curvatures(curv, bundle.metric)))
    print(f"tensors: wrote torsion/curvature for {bundle.name} "
          f"(curvature antisymmetry {anti:.3e})")
    return 0


def cmd_convergence(args) -> int:
    prep = _prepare(args)
    if prep is None:
        return 1
    bundle, alpha, _tols, tainted, _reports = prep
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
        }
        import json
        serialize.atomic_write_text(args.out + ".json",
                                    json.dumps(payload, sort_keys=True, indent=1) + "\n")
    return 0


# -- argument plumbing --------------------------------------------------------------


def _common(sub):
    sub.add_argument("file", help="space-definition file")
    sub.add_argument("--json", action="store_true", help="print reports as JSON")
    sub.add_argument("--tol", action="append", metavar="NAME=VALUE", type=_tol_pair,
                     help="override a named tolerance (repeatable)")
    sub.add_argument("--force", action="store_true",
                     help="proceed despite failed checks; outputs are tainted")
    sub.add_argument("--out", default=None, help="output path prefix")


# name -> (handler, help, arguments beyond ``_common``), in the order of the usage text
_COMMANDS = {
    "check": (cmd_check, "run the diagnostic battery", ()),
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


def build_parser(command=None) -> argparse.ArgumentParser:
    """The ``redhom`` parser, with only ``command``'s subparser when it names one.

    Building one subparser instead of five is most of the parser's cost.
    A one-command parser spells out the full command list in its usage, so
    every help, usage and error text is the one the parser with all five
    subparsers gives for the same arguments.  ``main`` passes its first
    argument.
    """
    parser = argparse.ArgumentParser(
        prog="redhom",
        description="diagnostics and transport on reductive homogeneous spaces",
    )
    names = [command] if command in _COMMANDS else list(_COMMANDS)
    # a partial parser spells out the full command list its usage would show
    subs = parser.add_subparsers(dest="command", required=True, metavar=(
        "{" + ",".join(_COMMANDS) + "}" if len(names) == 1 else None))
    for name in names:
        func, help_text, arguments = _COMMANDS[name]
        p = subs.add_parser(name, help=help_text)
        _common(p)
        for flag, options in arguments:
            p.add_argument(flag, **options)
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    argv = _attach_vector_values(sys.argv[1:] if argv is None else argv)
    args = build_parser(argv[0] if argv else None).parse_args(argv)
    if getattr(args, "out", None) is None and args.command in (
            "geodesic", "transport", "tensors"):
        args.out = "redhom_out"
    try:
        return args.func(args)
    except DefFileError as exc:
        print(f"definition error: {exc}", file=sys.stderr)
        return 2
    except DecompositionError as exc:
        print(f"check failure: {exc}", file=sys.stderr)
        return 1
    except (ValueError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
