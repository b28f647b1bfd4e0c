"""Untimed checks of each invocation's artifacts, plus digests and fingerprints.

``verify(inv, pass_dir, context)`` returns ``(problems, digests,
fingerprint)``.  ``problems`` lists every way the artifacts are wrong;
an invocation with any problem counts as failed.  ``digests`` maps each
artifact to its sha256 (the CLI promises byte-identical files for
identical inputs, so the run compares them across passes).  The
fingerprint holds rounded result values (final frame, final ``z`` per
seed, curvature norm, report residuals) so that a later change can show
its results agree with its parent's to round-off.
"""

from __future__ import annotations

import hashlib
import json
import os

import numpy as np

CURVATURE_ANTISYMMETRY_TOL = 1e-10
FRAME_ORTHOGONALITY_TOL = 1e-10
SPEED_DRIFT_TOL = 1e-9
NORM_DRIFT_TOL = 1e-9
HORIZONTALITY_TOL = 1e-8
ORDER = 4.0
ORDER_TOL = 0.3


def _round(values, decimals=9):
    return [round(float(v), decimals) + 0.0 for v in np.ravel(values)]


def _residual(value):
    return float(f"{value:.1e}")


def sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _load(path):
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def _check_report(inv, pass_dir, problems, fp):
    report = _load(os.path.join(pass_dir, inv.artifacts[0]))
    if report.get("pass") is not True:
        problems.append("report pass flag is not true")
    failed = [c["check"] for c in report["checks"] if c["mandatory"] and not c["pass"]]
    if failed:
        problems.append(f"mandatory checks FAIL: {failed}")
    fp["residuals"] = {c["check"]: _residual(c["max_residual"]) for c in report["checks"]}


def _check_tensors(inv, pass_dir, problems, fp):
    curv = _load(os.path.join(pass_dir, inv.out + "_curvature.json"))
    tors = _load(os.path.join(pass_dir, inv.out + "_torsion.json"))
    anti = curv["curvature_antisymmetry_residual"]
    if not anti <= CURVATURE_ANTISYMMETRY_TOL:
        problems.append(f"curvature antisymmetry residual {anti:.3e}")
    if curv["tainted"] or tors["tainted"]:
        problems.append("tensors are tainted")
    fp["curvature_frobenius"] = _round([np.linalg.norm(curv["coefficients"])])[0]
    fp["torsion_frobenius"] = _round([np.linalg.norm(tors["coefficients"])])[0]
    fp["antisymmetry_residual"] = _residual(anti)


def _check_geodesic(inv, pass_dir, gram, problems, fp):
    traj = _load(os.path.join(pass_dir, inv.out + ".json"))
    frames = np.array(traj["frames"])
    xs = np.array(traj["velocities"])
    if len(frames) != inv.steps + 1:
        problems.append(f"{len(frames)} samples, expected {inv.steps + 1}")
    if not np.allclose(xs[0], inv.x0, rtol=0.0, atol=1e-15):
        problems.append("trajectory does not start at x0")
    eye = np.eye(frames.shape[1])
    ortho = float(np.max(np.abs(np.einsum("mji,mjk->mik", frames, frames) - eye)))
    if not ortho <= FRAME_ORTHOGONALITY_TOL:
        problems.append(f"frames leave the orthogonal group by {ortho:.3e}")
    speed = np.einsum("si,ij,sj->s", xs, gram, xs)
    drift = float(np.max(np.abs(speed - speed[0])))
    if not drift <= SPEED_DRIFT_TOL:
        problems.append(f"Levi-Civita speed drifts by {drift:.3e}")
    fp["final_frame"] = _round(frames[-1])
    fp["final_x"] = _round(xs[-1])
    fp["orthogonality_residual"] = _residual(ortho)
    fp["speed_drift"] = _residual(drift)


def _check_convergence(inv, pass_dir, problems, fp):
    result = _load(os.path.join(pass_dir, inv.out + ".json"))
    slope = result["slope"]
    if result["exact"] or slope is None or not abs(slope - ORDER) <= ORDER_TOL:
        problems.append(f"measured order {slope}, expected {ORDER} +- {ORDER_TOL}")
    fp["order"] = round(float(slope), 4) if slope is not None else None
    fp["errors"] = [float(f"{e:.6e}") for e in result["errors"]]


def _check_transport(inv, pass_dir, gram, problems, fp):
    finals = []
    for name in inv.artifacts:
        if not name.endswith(".json"):
            continue
        traj = _load(os.path.join(pass_dir, name))
        zs = np.array(traj["transported"])
        if len(zs) != inv.steps + 1:
            problems.append(f"{name}: {len(zs)} samples, expected {inv.steps + 1}")
        norm = np.einsum("si,ij,sj->s", zs, gram, zs)
        drift = float(np.max(np.abs(norm - norm[0])))
        if not drift <= NORM_DRIFT_TOL:
            problems.append(f"{name}: g-norm drifts by {drift:.3e}")
        leak = traj["meta"].get("horizontality_leak")
        if leak is None or not leak <= HORIZONTALITY_TOL:
            problems.append(f"{name}: horizontality leak {leak}")
        finals.append(_round(zs[-1]))
    fp["final_z"] = finals


def verify(inv, pass_dir: str, grams: dict):
    """Check one invocation's artifacts; ``grams`` maps space keys to metric grams."""
    problems, fp, digests = [], {}, {}
    for name in inv.artifacts:
        path = os.path.join(pass_dir, name)
        if not os.path.isfile(path):
            problems.append(f"missing artifact {name}")
        else:
            digests[name] = sha256(path)
    if problems:
        return problems, digests, fp
    try:
        if inv.command == "check":
            _check_report(inv, pass_dir, problems, fp)
        elif inv.command == "tensors":
            _check_tensors(inv, pass_dir, problems, fp)
        elif inv.command == "geodesic":
            _check_geodesic(inv, pass_dir, grams[inv.space], problems, fp)
        elif inv.command == "convergence":
            _check_convergence(inv, pass_dir, problems, fp)
        elif inv.command == "transport":
            _check_transport(inv, pass_dir, grams[inv.space], problems, fp)
    except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
        problems.append(f"unreadable artifact: {type(exc).__name__}: {exc}")
    return problems, digests, fp


def metric_grams(definitions: dict, src_dir: str) -> dict:
    """Metric gram of each definition, rebuilt by the program under test.

    The oracles need the gram to test conservation of the Levi-Civita
    speed and of the transported g-norm; for the rigid body it is the
    generated inertia, for catalog spaces the normal metric.
    """
    import sys

    if src_dir not in sys.path:
        sys.path.insert(0, src_dir)
    from redhom.deffile import build_space, parse_definition

    grams = {}
    for key, text in definitions.items():
        bundle, _ = build_space(parse_definition(text))
        if bundle.metric is not None:
            grams[key] = np.array(bundle.metric.gram)
    return grams
