"""Seeded inputs for the three benchmark workloads.

A workload is a fixed list of ``redhom`` CLI invocations (one "pass").
``build(workload, seed, inputs_dir)`` writes the definition files and
sample CSVs the invocations read into ``inputs_dir`` and returns the list.
The seed decides every number in those inputs (rigid-body inertia,
initial velocities, transport seeds, the sampled group curve); the list of
invocations and their sizes are the same for every seed, so timings of
different seeds measure the same amount of work.

Vectors are passed as ``--x0=...`` / ``--z0=...``.  With a separate
argument (``--x0 -0.3,...``) argparse reads the leading ``-`` as a flag
and the CLI exits 2 with "expected one argument".
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

WORKLOADS = ("spaces", "geodesic", "transport")

RIGID_BODY_BASIS = (
    "[0 0 0; 0 0 -1; 0 1 0] [0 0 1; 0 0 0; -1 0 0] [0 -1 0; 1 0 0; 0 0 0]"
)


@dataclass
class Invocation:
    """One CLI call of a pass and what its oracle needs to know."""

    label: str
    command: str
    argv: list
    space: str                      # key into the run's definition files
    named: bool                     # the definition names a catalog space
    out: str                        # --out prefix, relative to the pass directory
    artifacts: list                 # files the call must write, relative to the pass directory
    steps: int = 0                  # integrator steps per trajectory
    seeds: int = 0                  # transported seeds
    x0: list = field(default_factory=list)


@dataclass
class Scale:
    """Sizes of one workload; ``FULL`` is the benchmark, ``SMOKE`` its quick check."""

    stiefel_check: tuple
    grassmann_check: tuple
    tensors: tuple
    geodesic_t1: float
    geodesic_step: float
    convergence_t1: float
    transport_t1: float
    transport_samples: int
    transport_steps: int
    transport_seeds: int


FULL = Scale(
    stiefel_check=(4, 5, 6, 7, 8),
    grassmann_check=((6, 3), (8, 4)),
    tensors=("stiefel(7,2)", "grassmann(8,4)"),
    geodesic_t1=10.0, geodesic_step=0.002,
    convergence_t1=2.0,
    transport_t1=1.0, transport_samples=1001, transport_steps=1000, transport_seeds=8,
)

SMOKE = Scale(
    stiefel_check=(4,),
    grassmann_check=((4, 2),),
    tensors=("stiefel(4,2)",),
    geodesic_t1=0.4, geodesic_step=0.002,
    convergence_t1=0.5,
    transport_t1=0.1, transport_samples=101, transport_steps=100, transport_seeds=2,
)


def _vec(values) -> str:
    return ",".join(repr(float(v)) for v in values)


def _unit(rng, n):
    v = rng.standard_normal(n)
    return v / np.linalg.norm(v)


def _write(path, text):
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)


def _named_def(space: str, alpha: str | None = None) -> str:
    text = f"space = {space}\n"
    if alpha:
        text += f"\n[connection]\nalpha = {alpha}\n"
    return text


def rigid_body_def(inertia) -> str:
    """so(3) by its rotation generators, a diagonal inertia gram, Levi-Civita alpha."""
    gram = "; ".join(" ".join(repr(float(inertia[i])) if i == j else "0" for j in range(3))
                     for i in range(3))
    return (
        "[algebra]\nname = rigid-body\ndim = 3\n"
        f"matrix_basis = {RIGID_BODY_BASIS}\n\n"
        f"[metric]\ngram = [{gram}]\n\n"
        "[connection]\nalpha = levi_civita\n"
    )


def stiefel_m_dim(n: int, k: int) -> int:
    return n * (n - 1) // 2 - (n - k) * (n - k - 1) // 2


def skew_exp_samples(a: np.ndarray, times: np.ndarray) -> np.ndarray:
    """exp(t A) for a real skew matrix A, through the eigenbasis of the Hermitian iA."""
    w, v = np.linalg.eigh(1j * a)
    vh = v.conj().T
    return np.array([((v * np.exp(-1j * t * w)) @ vh).real for t in times])


def build(workload: str, seed: int, inputs_dir: str, scale: Scale = FULL) -> tuple:
    """Write the inputs of ``workload`` and return ``(invocations, definitions)``.

    ``definitions`` maps each space key to its definition-file text (the
    oracles rebuild the metric from it).  Paths in argv are relative to a
    pass directory that sits next to ``inputs_dir``.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    os.makedirs(inputs_dir, exist_ok=True)
    rel = os.path.join("..", os.path.basename(inputs_dir))
    defs = {}

    def define(key, text):
        defs[key] = text
        _write(os.path.join(inputs_dir, key + ".def"), text)
        return os.path.join(rel, key + ".def")

    inertia = np.sort(rng.uniform(1.0, 3.0, size=3))
    rigid = define("rigid_body", rigid_body_def(inertia))
    invs = []

    if workload == "spaces":
        spaces = [f"stiefel({n},2)" for n in scale.stiefel_check]
        spaces += [f"grassmann({n},{k})" for n, k in scale.grassmann_check]
        for i, space in enumerate(spaces):
            path = define(f"space{i}", _named_def(space))
            invs.append(Invocation(f"check {space}", "check",
                                   ["check", path, "--json", f"--out=check{i}"],
                                   f"space{i}", True, f"check{i}", [f"check{i}.report.json"]))
        invs.append(Invocation("check rigid_body", "check",
                               ["check", rigid, "--json", "--out=check_rb"],
                               "rigid_body", False, "check_rb", ["check_rb.report.json"]))
        for i, space in enumerate(scale.tensors):
            key = f"tensors{i}"
            path = define(key, _named_def(space))
            out = f"tensors{i}"
            invs.append(Invocation(
                f"tensors {space}", "tensors", ["tensors", path, f"--out={out}"], key, True,
                out, [out + s for s in ("_torsion.json", "_torsion.csv",
                                        "_curvature.json", "_sectional.csv")]))
        return invs, defs

    steps = round(scale.geodesic_t1 / scale.geodesic_step)
    stiefel = define("stiefel62", _named_def("stiefel(6,2)", "levi_civita"))
    n_m = stiefel_m_dim(6, 2)

    if workload == "geodesic":
        for key, path, dim in (("stiefel62", stiefel, n_m), ("rigid_body", rigid, 3)):
            x0 = _unit(rng, dim)
            out = f"geo_{key}"
            invs.append(Invocation(
                f"geodesic {key}", "geodesic",
                ["geodesic", path, f"--x0={_vec(x0)}", f"--t1={scale.geodesic_t1!r}",
                 f"--step={scale.geodesic_step!r}", f"--out={out}"],
                key, key != "rigid_body", out, [out + ".csv", out + ".json"],
                steps=steps, x0=list(x0)))
        x0 = _unit(rng, 3)
        invs.append(Invocation(
            "convergence rigid_body", "convergence",
            ["convergence", rigid, f"--x0={_vec(x0)}", f"--t1={scale.convergence_t1!r}",
             "--out=conv"],
            "rigid_body", False, "conv", ["conv.json"], x0=list(x0)))
        return invs, defs

    # transport
    seeds = [_unit(rng, n_m) for _ in range(scale.transport_seeds)]
    z_args = [f"--z0={_vec(z)}" for z in seeds]
    t1 = scale.transport_t1
    times = np.linspace(0.0, t1, scale.transport_samples)
    b = rng.standard_normal((6, 6))
    mats = skew_exp_samples(0.5 * (b - b.T), times)
    curve = os.path.join(inputs_dir, "group_curve.csv")
    _write(curve, "".join(_vec([t, *m.ravel()]) + "\n" for t, m in zip(times, mats)))
    direction = _unit(rng, n_m)
    curves = (
        ("group_file", f"group_file:{os.path.join(rel, 'group_curve.csv')}",
         scale.transport_samples - 1, []),
        ("one_parameter", f"one_parameter:{_vec(direction)}", scale.transport_steps,
         [f"--t1={t1!r}", f"--step={t1 / scale.transport_steps!r}"]),
    )
    for name, spec, nsteps, extra in curves:
        out = f"tr_{name}"
        suffixes = [""] if len(seeds) == 1 else [f"_seed{i}" for i in range(len(seeds))]
        invs.append(Invocation(
            f"transport {name}", "transport",
            ["transport", stiefel, f"--curve={spec}", *z_args, *extra, f"--out={out}"],
            "stiefel62", True, out,
            [out + s + ext for s in suffixes for ext in (".csv", ".json")],
            steps=nsteps, seeds=len(seeds)))
    return invs, defs
