"""Horizontal lifts, geodesics and parallel transport.

Everything is driven through m-coordinates.  A curve on the quotient is
represented by a horizontal frame curve ``g(t)`` in the group together with
the velocity coordinates ``x(t)`` defined by ``g^-1 g' = mat(x)``; a vector
field along the curve is the coordinate curve ``z(t)`` of its lift into the
moving frame.  The governing ODEs are then

* horizontal lift of ``c(t)``:   write ``g = c h``, ``h' = -pr_h(c^-1 c') h``
* geodesic:                      ``x' = -alpha(x, x)``, ``g' = g mat(x)``
* parallel transport:            ``z' = -alpha(x(t), z)``

The geodesic velocity equation does not involve g, and only alpha's
symmetric part moves x.  When that part vanishes, x is constant and the
geodesic is the one-parameter curve ``exp(t X)``, as on every catalog
space with its Levi-Civita alpha (they are naturally reductive).
Otherwise x is integrated alone with fixed-step RK4, whose blow-up guard
reads a block of steps at a time.  Every frame equation is linear with a
generator sampled on a grid, and one propagator, ``_magnus_frames``,
solves them all with one exponential per step of the fourth-order Magnus
expansion (Iserles, Munthe-Kaas, Norsett and Zanna, Acta Numerica 9,
2000): the frames of a geodesic, a one-parameter curve or a sampled
velocity curve, the lift's isotropy factor h, and the transport
propagator.  Their generators lie in a Lie algebra, so each solution
stays on its group up to round-off: g in G, h in H and, for a metric
alpha, the transport propagator in O(g).  Its test of the samples is the
one constant-generator decision: equal samples on a uniform grid (a
constant velocity, tiled, or the transport generator along it) take the
powers of one exponential.  All seeds transported along one curve share
one propagator sequence.  The RK4 loop writes into rows allocated once,
its stage inputs and the update ``x + h/6 acc`` operation by operation in
the order of those expressions; the stage sum ``acc = k1 + 2 k2 + 2 k3 +
k4`` is one dot of the four stages, kept in one array, with (1, 2, 2, 1).
The frames are written a block of ``MAGNUS_BLOCK`` steps at a time: the
block's frames are the frame before it times the prefix products of its
increments, in one batched product.  A frame stack is
inverted, in the lift and its diagnostics, by ``_inverse_times``: on an
orthogonal algebra its frames lie in O(d) up to round-off, and one
Newton-Schulz step from the transpose, through the E = g^T g - I that
measures their group drift, inverts them to round-off; frames off O(d)
by more than ``NEWTON_SCHULZ_DRIFT``, and those of other algebras, take
an LU.

A sampled curve, of group matrices or of velocities, is differentiated
by one Lagrange stencil of k = min(samples, 5) nodes: at each node, the
derivative of the polynomial through the k nodes centred on it, or the
first or last k, with weights from ratios of the nodes' actual offsets
(Fornberg, Math. Comp. 51, 1988), so no product of small steps
underflows.  It is fourth order on any grid of 5 or more samples, uniform
or not, and its distance from the three-node stencil on the same grid is
the error estimate of the lift and of transport.  A grid of 2, 3 or 4
samples is differentiated to order 1, 2 or 3, with no estimate.  Every
sampled generator the Magnus step needs at the interval midpoints (the
lift's h-coordinates, a velocity curve, the transport generator) is the
cubic Hermite interpolant from those derivatives.

``geodesic_convergence`` measures the RK4 order against a run at a tenth
of the finest step: its truncation error, 1e-4 of the finest run's and
often below its round-off, is too small to move the order.  It reads only
each run's end frame, so its runs skip the frame diagnostics.

``ValueError`` refuses, before any step, an x0, a one-parameter direction,
a velocity sample or a transported seed with a coordinate over
``BLOWUP_NORM``, a step whose product with the largest velocity
coordinate, at a node or an interpolated midpoint, is over it: the
exponential of such a step would be round-off, or overflow, and a step
whose square overflows.  It also refuses a time
grid of more samples than one array or memory can hold, a curve with a
non-finite finite-difference derivative, and, on an orthogonal algebra,
group samples off the group by more than the ``group_drift`` tolerance.

Every trajectory starts at the identity frame, and a lift at its first
sample; no initial frame is taken, since it would add nothing.  The
covariant derivatives are invariant under left translation, so the
geodesic or parallel field from a frame g0 is g0 times the one from the
identity, with the same x and z.  A lift through c(t0) h1 is the lift
through c(t0) times h1, since Ad(H) keeps m.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .algebra import DET_FLOOR, expm
from .connection import AlphaMap
from .reductive import ReductiveDecomposition
from .reporting import resolve_tolerances

__all__ = [
    "CurveSpec",
    "Trajectory",
    "horizontal_lift",
    "geodesic",
    "parallel_transport",
    "convergence_probe",
    "ConvergenceResult",
    "geodesic_convergence",
    "realize_curve",
]

BLOWUP_NORM = 1e6
FINE_FACTOR = 10                    # reference step of geodesic_convergence: min(steps) / this
FD_COARSE_WARNING = 1e-4
FD_UNESTIMATED = "short grid: finite-difference error not estimated"
MAGNUS_BLOCK = 1024
GUARD_BLOCK = 64                    # RK4 steps between two blow-up checks of geodesic
# no registry key: the orthogonality drift below which one Newton-Schulz step from the
# transpose inverts a frame to round-off; it picks the inverse and judges no result
NEWTON_SCHULZ_DRIFT = 1e-8


# -- finite differences and interpolation -----------------------------------------


def _fd_weights(t, p):
    """Weights on the k - 1 steps y[i+1] - y[i] of a k-node window whose sum is the
    derivative at node ``p`` of the polynomial of degree k - 1 through the window.

    ``t`` holds the window's k times, scalars or arrays of one time per
    window.  The Lagrange weight of node j (Fornberg, Math. Comp. 51, 1988)
    is the product of the ratios (t_i - t_p) / (t_i - t_j) over the other
    nodes i, over t_j - t_p.  Ratios of offsets are those of the window
    scaled by its span, so no product of small offsets underflows into a
    zero weight, and each divisor is the difference of two distinct times,
    never zero.  On the steps the weights become partial sums, since
    y_j - y_p is the sum of the steps between the two nodes; a constant
    curve then has derivative 0 exactly.
    """
    k = len(t)
    w = {j: math.prod((t[i] - t[p]) / (t[i] - t[j]) for i in range(k) if i not in (j, p))
         / (t[j] - t[p]) for j in range(k) if j != p}
    return [sum(w[j] for j in w if j > i) if i >= p else -sum(w[j] for j in w if j <= i)
            for i in range(k - 1)]


def _fd(times, values, k):
    """Order k - 1 derivatives on any grid of k or more samples: at each node, that of
    the polynomial through the k nodes centred on it, or the first or last k.

    The interior weights are built from slices of the grid, and applied to
    a strided view of each node's k - 1 steps by one ``einsum``, with no copy
    of the windows."""
    m, c = len(times), k // 2
    n = m - k + 1                       # windows, one per interior node from node c on
    steps = np.diff(values, axis=0).reshape(m - 1, -1)
    flat = np.empty((m, steps.shape[1]))
    weights = np.stack(_fd_weights([times[j:n + j] for j in range(k)], c), axis=1)
    windows = np.lib.stride_tricks.sliding_window_view(steps, k - 1, axis=0)
    np.einsum("ik,ijk->ij", weights, windows, out=flat[c:c + n])
    for node in (*range(c), *range(c + n, m)):
        s = min(max(node - c, 0), m - k)
        flat[node] = np.dot(_fd_weights(times[s:s + k], node - s), steps[s:s + k - 1])
    return flat.reshape(values.shape)


def _fd_derivatives(times, values, name, spread=False):
    """Derivative estimates of the ``name`` samples: (derivs, order, spread).

    They are :func:`_fd`'s with k = min(samples, 5), of order k - 1: 4 on 5
    or more samples, whatever their spacing, and 1, 2 or 3 on 2, 3 or 4.
    With ``spread``, on 5 or more samples, the third item is their
    difference from the three-node derivatives on the same grid, the raw
    material of an error estimate; it is otherwise None.  A derivative not
    finite raises ``ValueError`` naming the samples.
    """
    k = min(len(times), 5)
    with np.errstate(over="ignore", invalid="ignore"):
        d = _fd(times, values, k)
        spread = d - _fd(times, values, 3) if spread and k == 5 else None
    for a in (d,) if spread is None else (d, spread):
        bad = ~np.isfinite(a).all(axis=tuple(range(1, a.ndim)))
        if bad.any():
            raise ValueError(f"the finite-difference derivative of the {name} is not finite at "
                             f"sample {int(np.argmax(bad)) + 1}: their times are too close for "
                             f"their values")
    return d, k - 1, spread


def _is_uniform(d: np.ndarray) -> bool:
    """Whether the steps ``d`` (at least one) of a grid are equal up to rounding in its
    sample times."""
    # no registry key: tells a uniform grid from rounding in the sample times; it picks
    # the constant-generator propagator and judges no result
    return bool(np.max(np.abs(d - d[0])) <= 1e-9 * max(abs(float(d[0])), 1e-300))


def _grid_steps(t_span, step):
    """The fewest equal steps over ``t_span`` no longer than ``step``: (count, step taken).

    A count whose time grid is over the largest float array numpy can
    address raises ``ValueError`` naming the span and the step.
    """
    if step <= 0:
        raise ValueError("step must be positive")
    t0, t1 = float(t_span[0]), float(t_span[1])
    if not t1 > t0:
        raise ValueError("t_span must be a nonempty interval")
    span = (t1 - t0) / step
    if not math.isfinite(span):
        raise ValueError(f"t_span ({t0!r}, {t1!r}) holds too many steps of {step!r} to count")
    nsteps = max(1, math.ceil(span - 1e-12))
    if nsteps >= np.iinfo(np.intp).max // np.dtype(float).itemsize:
        raise ValueError(f"t_span ({t0!r}, {t1!r}) holds {nsteps:.3g} steps of {step!r}: "
                         f"more samples than one array can hold")
    return nsteps, (t1 - t0) / nsteps


def _time_grid(t_span, step):
    """The grid of :func:`_grid_steps` over ``t_span``: (times, step taken).  A grid
    memory cannot hold raises ``ValueError`` naming the span and the step."""
    nsteps, h = _grid_steps(t_span, step)
    t0, t1 = float(t_span[0]), float(t_span[1])
    try:
        return np.linspace(t0, t1, nsteps + 1), h
    except MemoryError:
        raise ValueError(f"t_span ({t0!r}, {t1!r}) holds {nsteps:.3g} steps of {step!r}: "
                         f"more samples than memory can hold") from None


def _orthogonality_defect(g: np.ndarray) -> np.ndarray:
    """E = g^T g - I for a stack g, without a warning when a product overflows: E is
    then inf or nan, which no drift test passes."""
    with np.errstate(over="ignore", invalid="ignore"):
        return np.swapaxes(g, 1, 2) @ g - np.eye(g.shape[-1])


def _inverse_times(g: np.ndarray, b: np.ndarray, e) -> np.ndarray:
    """g^-1 b for a stack g, given ``e`` = :func:`_orthogonality_defect` of g on an
    orthogonal algebra, else None.

    With max|E| <= ``NEWTON_SCHULZ_DRIFT``, g^-1 = (I + E)^-1 g^T and E^2 is
    round-off, so one Newton-Schulz step from the transpose (Higham,
    *Functions of Matrices*, 2008), g^T b - E g^T b, is g^-1 b to round-off,
    at two batched products where a batched LU costs several times more.
    With ``e`` None, or off the group by more, it is ``np.linalg.solve(g, b)``.
    """
    if e is not None and np.max(np.abs(e), initial=0.0) <= NEWTON_SCHULZ_DRIFT:
        y = np.swapaxes(g, 1, 2) @ b
        return y - e @ y
    return np.linalg.solve(g, b)


def _hermite_midpoints(values, derivs, dt):
    """Cubic Hermite value at each interval midpoint; dt has shape (M-1,).  A midpoint
    that overflows is inf or nan, without a warning: ``_magnus_frames`` refuses it."""
    dt = dt.reshape((-1,) + (1,) * (values.ndim - 1))
    with np.errstate(over="ignore", invalid="ignore"):
        return 0.5 * (values[:-1] + values[1:]) + dt * (derivs[:-1] - derivs[1:]) / 8.0


# -- trajectories -----------------------------------------------------------------


@dataclass
class Trajectory:
    """Time-sampled frame curve with velocity (and optionally transported) coordinates.

    ``frames[i]`` is the group matrix g(t_i), ``velocities[i]`` the
    m-coordinates of g^-1 g' at t_i, and ``transported[i]`` the coordinates
    of a parallel vector field when one has been integrated (one row per
    seed when several were transported together).  ``meta``
    records the integrator, step size and drift diagnostics.
    """

    dec: ReductiveDecomposition
    times: np.ndarray
    frames: np.ndarray
    velocities: np.ndarray
    transported: np.ndarray | None = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if not (len(self.times) == len(self.frames) == len(self.velocities)):
            raise ValueError("times, frames and velocities must have equal length")
        if self.transported is not None and len(self.transported) != len(self.times):
            raise ValueError("transported samples must match the time grid")

    def __len__(self):
        return len(self.times)


def frame_diagnostics(dec, times, frames, velocities) -> dict:
    """Finite-difference horizontality and drift measurements.

    The velocity residual and h-leak are estimated from derivatives of
    the stored frames, by the Lagrange stencil of :func:`_fd_derivatives`
    (``fd_order`` 4 on 5 or more samples, on any grid, and 2 or 3 on 3 or
    4), so they carry an O(spacing^fd_order) noise floor on
    top of the true integration error.  On an orthogonal algebra the
    group drift is max|E| of E = g^T g - I, and the same E inverts the
    frames in g^-1 g' by :func:`_inverse_times`.
    """
    alg = dec.algebra
    out = {"group_drift": None, "horizontality_leak": None,
           "velocity_residual": None, "fd_order": None}
    e = None
    if alg.orthogonal:
        e = _orthogonality_defect(frames)
        out["group_drift"] = float(np.max(np.abs(e)))
    if alg.matrix_basis is None or len(times) < 3:
        return out
    gdot, out["fd_order"], _ = _fd_derivatives(times, frames, "frames")
    h_part, m_part, resid = dec.split_matrices(_inverse_times(frames, gdot, e))
    out["expansion_residual"] = float(np.max(resid))
    out["horizontality_leak"] = float(np.max(np.abs(h_part))) if dec.q else 0.0
    out["velocity_residual"] = float(np.max(np.abs(m_part - velocities)))
    return out


def _diagnosed(dec, times, frames, velocities, meta) -> Trajectory:
    """The trajectory of a curve, with its ``frame_diagnostics`` merged into ``meta``."""
    traj = Trajectory(dec, times, frames, velocities, meta=meta)
    meta.update(frame_diagnostics(dec, times, frames, velocities))
    return traj


# -- curve specifications ----------------------------------------------------------


@dataclass
class CurveSpec:
    """A curve handed to the lift/transport machinery.

    Three kinds: ``one_parameter`` (the curve exp(t X0), already
    horizontal), ``piecewise_velocity`` (velocity coordinates sampled in t,
    interpolated at the interval midpoints by cubic Hermite from their
    finite-difference derivatives when frames are reconstructed), and
    ``group_samples`` (group matrices sampled in t, to be lifted).  Each
    carries its time grid, a one-parameter curve that of ``_time_grid``.  The sample
    constructors alone check their samples, ``group_samples`` against ``DET_FLOOR`` too.
    """

    kind: str
    x0: np.ndarray | None = None
    times: np.ndarray | None = None
    values: np.ndarray | None = None

    @classmethod
    def one_parameter(cls, x0, t_span, step):
        times, _ = _time_grid(t_span, step)
        return cls(kind="one_parameter", x0=np.asarray(x0, dtype=float), times=times)

    @classmethod
    def velocity_samples(cls, times, xs):
        times = np.asarray(times, dtype=float)
        xs = np.asarray(xs, dtype=float)
        _check_samples(times, xs)
        return cls(kind="piecewise_velocity", times=times, values=xs)

    @classmethod
    def group_samples(cls, times, mats):
        times = np.asarray(times, dtype=float)
        mats = np.asarray(mats, dtype=float)
        _check_samples(times, mats)
        # log |det|: det itself overflows, with a warning, on samples far off the unit scale
        log_det = np.linalg.slogdet(mats)[1]
        singular = log_det < math.log(DET_FLOOR)
        if singular.any():
            k = int(np.argmax(singular))
            raise ValueError(f"data row {k + 1} holds a numerically singular matrix "
                             f"(|det| = {math.exp(log_det[k]):.3e})")
        return cls(kind="group_samples", times=times, values=mats)


def _check_samples(times, values):
    """Refuse unpaired or fewer than two samples, and name the first bad data row (from 1)."""
    if times.ndim != 1 or values.shape[:1] != times.shape:
        raise ValueError(f"samples of shape {values.shape} do not pair with times {times.shape}")
    # a NaN passes every comparison-based test below and in the lift, so reject it here
    bad = ~(np.isfinite(times) & np.isfinite(values).all(axis=tuple(range(1, values.ndim))))
    if bad.any():
        raise ValueError(f"data row {int(np.argmax(bad)) + 1} holds a non-finite value")
    if len(times) < 2:
        raise ValueError("data row 1 is the only one; a curve needs at least two"
                         if len(times) else "a curve needs at least two data rows, got none")
    stalled = np.diff(times) <= 0
    if stalled.any():
        k = int(np.argmax(stalled)) + 2
        raise ValueError(f"data row {k} has time {float(times[k - 1])}, not after row "
                         f"{k - 1}'s {float(times[k - 2])}")


# -- horizontal lift ---------------------------------------------------------------


def horizontal_lift(dec: ReductiveDecomposition, curve: CurveSpec,
                    tolerances=None) -> Trajectory:
    """Lift sampled group matrices to a horizontal frame curve.

    Writing ``g = c h``, horizontality of g forces ``h' = -pr_h(c^-1 c') h``,
    which ``_magnus_frames`` solves across the sample grid, so h stays in H
    up to round-off.  The derivative ``c^-1 c'`` comes from the Lagrange
    stencil on the samples, fourth order on any grid of 5 or more; its
    h-coordinates are interpolated at the interval midpoints by cubic
    Hermite from their own derivatives by the same stencil.
    ``fd_error_estimate`` is max|c^-1 (c'_5 - c'_3)|, the distance of
    c^-1 c' from its value by the three-node stencil; a grid of 2-4
    samples has none, and warns so.  The lift starts at the first sample,
    h(t0) = I; the lift through c(t0) h1 is this one times h1.

    On an orthogonal algebra a sample whose orthogonality drift is over the
    ``group_drift`` tolerance of ``resolve_tolerances(tolerances)`` is off
    the group, and ``ValueError`` names its data row.  The E = c^T c - I of
    that test, and that of h, then invert c and h in c^-1 c', in the
    estimate and in h^-1 pr_m(c^-1 c') h by :func:`_inverse_times`.
    """
    if curve.kind != "group_samples":
        raise ValueError("horizontal_lift expects a group_samples curve")
    alg = dec.algebra
    alg._require_matrices()
    times = curve.times
    mats = curve.values
    d = alg.matrix_dim
    if mats.shape[1:] != (d, d):
        raise ValueError(f"group samples must be {d}x{d} matrices")
    m = len(times)
    warnings_list = []
    e = None
    if alg.orthogonal:
        e = _orthogonality_defect(mats)
        # a sample whose products overflow has inf on the diagonal of E and maybe nan
        # (inf - inf) off it; fmax skips the nan, so its drift reads inf
        drift = np.fmax.reduce(np.abs(e).reshape(m, -1), axis=1)
        tol = resolve_tolerances(tolerances)["group_drift"]
        off = ~(drift <= tol)
        if off.any():
            k = int(np.argmax(off))
            raise ValueError(f"group sample data row {k + 1}: orthogonality drift "
                             f"{drift[k]:.3e} exceeds group_drift {tol:.1e}")

    cdot, fd_order, spread = _fd_derivatives(times, mats, "group samples", spread=True)
    body = _inverse_times(mats, cdot, e)                 # c^-1 c' at samples
    h_coords, m_coords, resid = dec.split_matrices(body)
    worst_resid = float(np.max(resid))
    # no registry key: rejects samples off the group; fd_error_estimate reports grid error
    if worst_resid > 2e-2:
        raise ValueError(
            f"samples do not stay on the group: c^-1 c' leaves the algebra by {worst_resid:.3e}"
        )

    # spread of the lift's generator c^-1 c', not of c' as parallel_transport measures
    fd_err = None if spread is None else float(np.max(np.abs(_inverse_times(mats, spread, e))))
    if fd_err is None:
        warnings_list.append(FD_UNESTIMATED)
    elif fd_err > FD_COARSE_WARNING:
        warnings_list.append(f"samples too coarse: estimated c^-1 c' finite-difference error "
                             f"{fd_err:.3e}")

    # h' = A h with A = -mat(pr_h(c^-1 c')), solved transposed
    h_dot = _fd_derivatives(times, h_coords, "h-coordinates of c^-1 c'")[0]
    dt = np.diff(times)
    h_mid = _hermite_midpoints(h_coords, h_dot, dt)
    hs = _magnus_frames(np.eye(d), np.swapaxes(dec.h_matrices, 1, 2), times, -h_coords,
                        -h_mid, dt).swapaxes(1, 2)

    frames = np.einsum("mab,mbc->mac", mats, hs)

    # x = m-coords of g^-1 g' = Ad_{h^-1}(pr_m(c^-1 c'))
    pm_mats = np.einsum("mk,kab->mab", m_coords, dec.m_matrices)
    e_h = _orthogonality_defect(hs) if alg.orthogonal else None
    conj = np.einsum("mab,mbc->mac", _inverse_times(hs, pm_mats, e_h), hs)
    x_h, xs, _ = dec.split_matrices(conj)
    ad_leak = float(np.max(np.abs(x_h))) if dec.q else 0.0

    meta = {
        "integrator": "magnus4-lift",
        "step": float(np.max(dt)),
        "samples": m,
        "warnings": warnings_list,
        "fd_order": fd_order,
        "fd_error_estimate": fd_err,
        "body_expansion_residual": worst_resid,
        "isotropy_conjugation_leak": ad_leak,
    }
    return _diagnosed(dec, np.array(times), frames, np.ascontiguousarray(xs), meta)


# -- geodesics ---------------------------------------------------------------------


def geodesic(alpha: AlphaMap, x0, t_span, step: float) -> Trajectory:
    """Integrate the geodesic x' = -alpha(x, x) and its frame g' = g mat(x).

    The frame starts at the identity; by left invariance the geodesic from
    a frame g0 is g0 times this one, with the same x.

    The velocity equation does not involve g, and only alpha's symmetric
    part moves x.  When that part vanishes, x stays x0 and no RK4 step is
    taken.  Otherwise x is integrated alone by fixed-step RK4, with x at
    the interval midpoints interpolated by cubic Hermite from the exact
    derivatives at the nodes.  Either way ``_magnus_frames`` builds the
    frames, which stay on the group up to round-off, and the integrator
    reads ``rk4-magnus4``: for a constant x the frames are those of the
    one-parameter curve, bit for bit.  The step is shrunk slightly if the
    interval is not an integer multiple of the request.

    A blow-up guard ends the run once |x| exceeds ``BLOWUP_NORM``
    (completeness holds for lifts, not for arbitrary alpha).  It reads the
    samples ``GUARD_BLOCK`` steps at a time and keeps those before the
    first one over the norm, as a check after every step would; the
    returned partial trajectory ends at the last sample within the norm,
    and ``meta["aborted_at"]`` is the time of the first one beyond it.  An
    x0 already beyond the norm raises ``ValueError`` before any step.
    """
    times, frames, xs, h, aborted_at = _geodesic_run(alpha, x0, t_span, step)
    meta = {
        "integrator": "rk4-magnus4",
        "step": h,
        "requested_step": step,
        "alpha": alpha.label,
        "tainted": not alpha.checked,
        "blow_up": aborted_at is not None,
        "aborted_at": aborted_at,
    }
    return _diagnosed(alpha.dec, times, frames, xs, meta)


def _geodesic_run(alpha, x0, t_span, step):
    """The undiagnosed core of :func:`geodesic`: (times, frames, xs, step taken,
    aborted_at), the last None unless the run blew up."""
    dec = alpha.dec
    x0 = _velocity(dec, x0, "x0")
    times, h = _time_grid(t_span, step)
    sym = _symmetric_part(alpha)
    if sym is None:
        xs, aborted_at = np.tile(x0, (len(times), 1)), None
    else:
        xs, dxs = _rk4_velocities(-sym, x0, h, len(times) - 1)
        aborted_at = float(times[len(xs)]) if len(xs) < len(times) else None
        times = times[: len(xs)]
    # np.diff of the grid differs from h in its last bits
    dt = np.full(len(xs) - 1, h)
    x_mid = xs[1:] if sym is None else _hermite_midpoints(xs, dxs, dt)
    return times, _frames(dec, times, xs, x_mid, dt), xs, h, aborted_at


def _velocity(dec, x0, name):
    """``x0`` as floats; ``ValueError`` naming it unless ``dec`` has a realized group
    and ``x0`` length ``dec.N`` and no coordinate over ``BLOWUP_NORM``."""
    dec.algebra._require_matrices()
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (dec.N,):
        raise ValueError(f"{name} must have length {dec.N}")
    _refuse_blowup(name, x0)
    return x0


def _frames(dec, times, xs, x_mid, dt):
    """The frames from the identity of g' = g mat(x), from x at the nodes ``times`` and
    at the midpoints: :func:`_magnus_frames` on ``dec.m_matrices``."""
    return _magnus_frames(np.eye(dec.algebra.matrix_dim), dec.m_matrices, times, xs, x_mid, dt)


def _refuse_blowup(name, values):
    """Raise ``ValueError`` naming ``name`` when a coordinate of ``values`` is over
    ``BLOWUP_NORM`` in magnitude; "not <=" also catches a nan."""
    if not np.max(np.abs(values), initial=0.0) <= BLOWUP_NORM:
        raise ValueError(f"{name} has a coordinate of magnitude over the blow-up norm "
                         f"{BLOWUP_NORM:g}")


def _refuse_long_step(h, *xs):
    """Raise ``ValueError`` when a step of ``h`` along velocity coordinates ``xs`` (one
    array or several) moves through more than ``BLOWUP_NORM``: its exponential would be
    round-off, or overflow; or when h^2, which weighs the Magnus commutator, overflows
    (inf times a vanishing commutator would be nan)."""
    x = float(np.max([np.max(np.abs(a), initial=0.0) for a in xs]))    # a nan stays nan
    if not float(h) * x <= BLOWUP_NORM:
        raise ValueError(f"a step of {h:.6g} along a velocity coordinate of magnitude {x:.6g} "
                         f"is over the blow-up norm {BLOWUP_NORM:g}")
    if not math.isfinite(float(h) * float(h)):
        raise ValueError(f"a step of {h:.6g} is too long: its square, which weighs the "
                         f"Magnus commutator, overflows")


def _symmetric_part(alpha: AlphaMap):
    """Coefficients of (alpha(x, y) + alpha(y, x)) / 2, or None when they vanish.

    Only this part moves a geodesic's velocity: alpha(x, x) = sym(x, x).
    """
    sym = 0.5 * (alpha.coeffs + np.swapaxes(alpha.coeffs, 1, 2))
    # no registry key: picks the constant-velocity path and judges no result (a zero
    # test to round-off)
    if not sym.size or float(np.max(np.abs(sym))) <= 1e-15:
        return None
    return sym


def _rk4_velocities(neg_sym, x0, h, nsteps):
    """RK4 for x' = neg_sym(x, x) from x0: (xs, dxs) up to the first sample over the norm.

    ``dxs[i]`` is the field at ``xs[i]``.  The guard reads each block of
    ``GUARD_BLOCK`` new samples at once, so the steps run past a blow-up to
    the end of its block, where they may overflow; their results are
    dropped with their floating-point warnings.

    On vectors this short the cost of a numpy call is its overhead, so each
    step writes into buffers allocated once.  The field is two matrix-vector
    products, the first with neg_sym flattened to (n*n, n), each through the
    bound ``ndarray.dot`` of its matrix: the C routine of ``np.dot`` without
    its Python-level ``__array_function__`` dispatch.  The stage inputs
    ``x + h/2 k1``, ``x + h/2 k2``, ``x + h k3`` and the update ``x + h/6 acc``
    are written operation by operation in the order of those expressions.
    The four stages share one (4, n) array, so ``acc = k1 + 2 k2 + 2 k3 + k4``
    is one ``dot`` with (1, 2, 2, 1): BLAS may add its exact products in
    another order than left to right, and acc then differs from the sum
    written out in its last bits.  At some sizes, n = 9 and 15 among those
    tried, BLAS sums the flattened product in another order than n slabs of
    n rows, and the field differs from ``neg_sym @ v @ v`` in its last bits.

    The update keeps this textbook rounding although faster forms exist.  One
    weighted ``dot`` of (x, k1, k2, k3, k4) for the update saved 6-14% of the
    loop, and stage matrices prescaled so that the weights become (1, 1/3,
    2/3, 1/3, 1/3) saved 28% (one BLAS thread, 2-vCPU x86_64 host).  Both
    moved the rigid body at t = 50 by 1.7-1.8e-13 from the per-step einsum
    RK4, over the 1e-13 its test allows; this form stays within 7e-15.
    """
    n = len(x0)
    xs = np.empty((nsteps + 1, n))
    dxs = np.empty_like(xs)
    flat = neg_sym.reshape(n * n, n)
    lin = np.empty(n * n)
    lin2 = lin.reshape(n, n)
    stages = np.empty((4, n))
    k1, k2, k3, k4 = stages
    v, acc = np.empty((2, n))
    # 0-d arrays: a ufunc converts a Python float operand on every call
    half, full, sixth = (np.array(c) for c in (0.5 * h, h, h / 6.0))
    field1, field2, add, mul = flat.dot, lin2.dot, np.add, np.multiply
    stage_sum = np.array([1.0, 2.0, 2.0, 1.0]).dot
    xs[0] = x0
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, nsteps, GUARD_BLOCK):
            stop = min(start + GUARD_BLOCK, nsteps)
            for i in range(start, stop):
                x = xs[i]
                field1(x, lin)
                field2(x, k1)
                add(x, mul(half, k1, v), v)
                field1(v, lin)
                field2(v, k2)
                add(x, mul(half, k2, v), v)
                field1(v, lin)
                field2(v, k3)
                add(x, mul(full, k3, v), v)
                field1(v, lin)
                field2(v, k4)
                stage_sum(stages, acc)
                add(x, mul(sixth, acc, acc), xs[i + 1])
                dxs[i] = k1
            # "not <=" also catches a sample that overflowed to nan
            over = ~(np.max(np.abs(xs[start + 1:stop + 1]), axis=1) <= BLOWUP_NORM)
            if over.any():
                first = start + 1 + int(np.argmax(over))
                return xs[:first], dxs[:first]
    field1(xs[nsteps], lin)
    field2(xs[nsteps], dxs[nsteps])
    return xs, dxs


def _magnus_frames(g0, basis, times, xs, x_mid, dt):
    """Frames of g' = g A(t), A = sum_k x_k basis_k, from x at nodes and midpoints.

    Each step is one exponential of the fourth-order Magnus expansion with
    Simpson's rule, ``g_{i+1} = g_i expm(Omega_i)`` with
    ``Omega_i = dt/6 (A_i + 4 A_mid + A_{i+1}) + dt^2/12 [A_i, A_{i+1}]``.
    Omega_i lies in the algebra, so the frames stay on the group up to
    round-off.  The exponentials are built ``MAGNUS_BLOCK`` steps at a time,
    which keeps the temporaries small, and each block of frames is one
    batched product ``frames[i+1:i+1+B] = frames[i] @ P`` of the frame
    before it, the carry, with the block's prefix products P, which
    :func:`_prefix_products` forms by recursive pairing.  The products round
    in another order than the per-step loop ``g = g @ inc``; both stay
    within a few ulps of that loop carried out in long double.  The basis is
    made contiguous once: the transposed bases of lift and transport are
    strided views, on which each block's contraction is several times
    slower, with the same bits.

    A constant generator takes no per-step exponential.  When the samples
    ``xs`` are all exactly equal (the midpoints interpolate them) and the
    steps ``dt`` are uniform by the test of ``_is_uniform``, every Omega_i is
    h A: the commutator vanishes and Simpson's weights sum to 1.  The frames
    are then ``g0 E^i`` with the one exponential E = expm(h A), where h is the
    grid's step (t_M - t_0) / M over the M steps of ``times``, the step
    ``_time_grid`` takes.  This is the exact propagator along one-parameter
    curves and naturally reductive geodesics; a frame on a grid uniform only
    to that test's 1e-9 sits at t_0 + i h, not t_i.  The powers E^1 ... E^B
    of one block are built once, each the one before it times E, and every
    block takes them with its own carry; powers paired as prefix products
    would double the group drift of a long geodesic.  This data test is the
    one place that tells a constant generator apart.

    A left-acting ODE ``Y' = B(t) Y`` is the same problem transposed,
    ``(Y^T)' = Y^T B(t)^T``: pass ``Y(t0)^T`` and the transposed basis, and
    transpose the frames back.  Lift and transport are solved this way.
    A step of dt along an x, at a node or a midpoint, over ``BLOWUP_NORM`` in all
    raises ``ValueError``; so does a midpoint that is not finite.
    """
    _refuse_long_step(np.max(dt, initial=0.0), xs, x_mid)
    basis = np.ascontiguousarray(basis)
    if len(dt) and _is_uniform(dt) and (xs == xs[0]).all():
        h = (float(times[-1]) - float(times[0])) / len(dt)
        powers = _powers(expm(h * np.einsum("k,kab->ab", xs[0], basis)),
                         min(MAGNUS_BLOCK, len(dt)))
        blocks = (powers[:len(dt) - start] for start in range(0, len(dt), MAGNUS_BLOCK))
    else:
        blocks = map(_prefix_products, map(expm, _magnus_exponents(basis, xs, x_mid, dt)))
    frames = np.empty((len(xs),) + g0.shape)
    frames[0] = g0
    start = 0
    for products in blocks:
        stop = start + len(products)
        np.matmul(frames[start], products, out=frames[start + 1:stop + 1])
        start = stop
    return frames


def _powers(e, count):
    """E^1, ..., E^count of one matrix, each the previous one times E."""
    out = np.empty((count,) + e.shape)
    out[0] = e
    for k in range(1, count):
        out[k - 1].dot(e, out[k])
    return out


def _prefix_products(incs):
    """E_1, E_1 E_2, ..., E_1 ... E_B of a (B, d, d) stack, by recursive pairing.

    The products of neighbouring pairs have their own prefix products, which
    are the even-length prefixes; each odd-length one is the even one before
    it times one increment.  That is two batched products a level, about
    2 log2 B in all.
    """
    if len(incs) == 1:
        return incs
    paired = _prefix_products(incs[0:-1:2] @ incs[1::2])
    out = np.empty_like(incs)
    out[0] = incs[0]
    out[1::2] = paired
    out[2::2] = paired[:(len(incs) - 1) // 2] @ incs[2::2]
    return out


def _magnus_exponents(basis, xs, x_mid, dt):
    """The Omega_i of :func:`_magnus_frames`, a stack per ``MAGNUS_BLOCK`` steps."""
    for start in range(0, len(dt), MAGNUS_BLOCK):
        stop = min(start + MAGNUS_BLOCK, len(dt))
        a = np.einsum("sk,kab->sab", xs[start:stop + 1], basis)
        a_mid = np.einsum("sk,kab->sab", x_mid[start:stop], basis)
        d = dt[start:stop].reshape(-1, 1, 1)
        a0, a1 = a[:-1], a[1:]
        yield d / 6.0 * (a0 + 4.0 * a_mid + a1) + d * d / 12.0 * (a0 @ a1 - a1 @ a0)


# -- parallel transport ------------------------------------------------------------


def parallel_transport(alpha: AlphaMap, base: Trajectory, z0) -> Trajectory:
    """Transport coordinates z along a base trajectory: z' = -alpha(x(t), z).

    ``z0`` is one seed of shape (N,) or a seed matrix of shape (S, N).
    Integration reuses the base grid, with cubic Hermite interpolation of
    the velocity coordinates at interval midpoints from their derivatives
    by the stencil of :func:`_fd_derivatives`, which preserves the
    integrator's order on any grid of 5 or more samples; the distance of
    those derivatives from the three-node ones, when over
    ``FD_COARSE_WARNING``, warns that the grid is too coarse.  The propagators
    ``P(t_i)`` with ``z(t_i) = P(t_i) z0`` depend on the base curve alone, so
    ``_magnus_frames`` builds them once and each seed is one product with
    them; for a metric alpha they lie in O(g) up to round-off.  Returns a
    copy of the base trajectory with the transported coordinates attached,
    of shape (M, N) for one seed and (M, S, N) for a seed matrix.  A seed
    with a coordinate over ``BLOWUP_NORM`` raises ``ValueError``.
    """
    if len(base) < 2:
        raise ValueError("base trajectory has no intervals to integrate over")
    dec = alpha.dec
    if base.dec is not dec:
        raise ValueError("alpha and base trajectory use different decompositions")
    seeds = np.array(z0, dtype=float, ndmin=1)
    if seeds.ndim > 2 or seeds.shape[-1] != dec.N:
        raise ValueError(f"z0 must have length {dec.N}")
    _refuse_blowup("z0", seeds)

    times = base.times
    xs = base.velocities
    warnings_list = list(base.meta.get("warnings", []))
    dxs, _, spread = _fd_derivatives(times, xs, "velocities", spread=True)
    fd_err = 0.0 if spread is None else float(np.max(np.abs(spread)))
    if fd_err > FD_COARSE_WARNING:
        warnings_list.append(f"transport grid too coarse: velocity finite-difference error "
                             f"~{fd_err:.3e}")

    dt = np.diff(times)
    x_mid = _hermite_midpoints(xs, dxs, dt)
    # z' = A z with A_kj = -sum_i x_i alpha_kij, solved transposed
    prop_t = _magnus_frames(np.eye(dec.N), np.transpose(alpha.coeffs, (1, 2, 0)), times, -xs,
                            -x_mid, dt)
    # one product per seed: a product over the whole seed matrix would round
    # differently, and each seed's z must not depend on which seeds share its call
    zs = np.stack([z @ prop_t for z in seeds.reshape(-1, dec.N)], axis=1)

    meta = dict(base.meta)
    meta.update({
        "transport_alpha": alpha.label,
        "tainted": meta.get("tainted", False) or not alpha.checked,
        "warnings": warnings_list,
    })
    return Trajectory(dec, base.times, base.frames, base.velocities,
                      transported=zs if seeds.ndim == 2 else zs[:, 0], meta=meta)


# -- convergence probe -------------------------------------------------------------


@dataclass
class ConvergenceResult:
    steps: list
    errors: list
    slope: float | None
    exact: bool

    def __repr__(self):
        if self.exact:
            return "ConvergenceResult(exact)"
        return f"ConvergenceResult(slope={self.slope:.3f})"


def _order_steps(steps) -> list:
    """The steps taken, as floats; an order estimate needs three distinct ones."""
    steps = [float(s) for s in steps]
    if len(set(steps)) < 3:
        raise ValueError("an order estimate needs three distinct steps; the steps taken are "
                         + ", ".join(f"{s:.6g}" for s in steps))
    return steps


def convergence_probe(error_at_step, steps) -> ConvergenceResult:
    """Least-squares order estimate from errors at several step sizes.

    ``error_at_step`` maps a step size to a scalar error against a reference
    solution.  Errors at machine precision short-circuit to the ``exact``
    sentinel instead of fitting noise.  ``ValueError`` is raised when fewer
    than three of the steps are distinct, and when the errors do not
    strictly decrease as the step shrinks: round-off then dominates them.
    """
    steps = _order_steps(steps)
    errors = [float(error_at_step(s)) for s in steps]
    # no registry key: the round-off floor below which a slope would fit noise; it
    # picks the exact sentinel and judges no result
    if max(errors) <= 1e-13:
        return ConvergenceResult(steps, errors, None, True)
    by_step = sorted(zip(steps, errors))
    if not all(e < e_next for (_, e), (_, e_next) in zip(by_step, by_step[1:])):
        raise ValueError(
            "the errors " + ", ".join(f"{e:.2e}" for _, e in by_step) + " at the steps "
            + ", ".join(f"{s:.6g}" for s, _ in by_step) + " do not decrease as the step "
            "shrinks; round-off dominates them, so no order can be measured")
    safe = [max(e, 1e-300) for e in errors]
    slope = float(np.polyfit(np.log(steps), np.log(safe), 1)[0])
    return ConvergenceResult(steps, errors, slope, False)


def geodesic_convergence(alpha: AlphaMap, x0, t_span, steps) -> ConvergenceResult:
    """Convergence of the geodesic frame against a closed form or a fine run.

    The closed-form frame ``exp(T mat(x0))`` is the reference whenever
    alpha's symmetric part vanishes (then x stays constant); otherwise a run at
    ``min(steps) / FINE_FACTOR`` is, whose fourth-order error is 1e-4 of the
    finest run's.  The order is fitted against the steps the runs take,
    which are shorter than the requested ones when those do not divide the
    interval; three of them must be distinct, which is checked before any
    run.  A run that blows up, the reference too, raises ``ValueError``, as
    :func:`convergence_probe` does for errors that round-off dominates.
    """
    dec = alpha.dec
    x0 = _velocity(dec, x0, "x0")   # before the closed-form reference, as before any run
    steps = _order_steps(_grid_steps(t_span, float(s))[1] for s in steps)

    def end_frame(step):
        _, frames, _, _, aborted_at = _geodesic_run(alpha, x0, t_span, step)
        if aborted_at is not None:
            raise ValueError(f"the geodesic at step {step:.6g} blows up at t = "
                             f"{aborted_at:.6g}; no order can be measured")
        return frames[-1]

    if _symmetric_part(alpha) is None:
        _refuse_long_step(max(steps), x0)     # as each run would, before the one exponential
        ref = expm((float(t_span[1]) - float(t_span[0])) * dec.m_matrix(x0))
    else:
        ref = end_frame(min(steps) / FINE_FACTOR)
    return convergence_probe(lambda step: float(np.max(np.abs(end_frame(step) - ref))), steps)


# -- curve realization --------------------------------------------------------------


def realize_curve(dec: ReductiveDecomposition, spec: CurveSpec,
                  tolerances=None) -> Trajectory:
    """Turn a curve specification into a trajectory on its own time grid, with frames
    and velocities: a lift of group samples, gated on ``tolerances`` as
    :func:`horizontal_lift` says, or the frames of a velocity curve from the identity
    by ``_magnus_frames``."""
    if spec.kind == "group_samples":
        return horizontal_lift(dec, spec, tolerances)
    if spec.kind == "one_parameter":
        return _one_parameter_trajectory(dec, spec)
    if spec.kind == "piecewise_velocity":
        return _velocity_trajectory(dec, spec)
    raise ValueError(f"unknown curve kind {spec.kind!r}")


def _one_parameter_trajectory(dec, spec):
    x0 = _velocity(dec, spec.x0, "one-parameter direction")
    times = spec.times
    h = (float(times[-1]) - float(times[0])) / (len(times) - 1)
    xs = np.tile(x0, (len(times), 1))
    frames = _frames(dec, times, xs, xs[1:], np.full(len(times) - 1, h))
    meta = {"integrator": "exp", "step": h, "curve": "one_parameter"}
    return _diagnosed(dec, times, frames, xs, meta)


def _velocity_trajectory(dec, spec):
    dec.algebra._require_matrices()
    times = spec.times
    xs = np.asarray(spec.values, dtype=float)
    if xs.shape != (len(times), dec.N):
        raise ValueError(f"velocity samples must have shape (len(times), {dec.N})")
    row = int(np.argmax(~(np.max(np.abs(xs), axis=1, initial=0.0) <= BLOWUP_NORM)))
    _refuse_blowup(f"velocity sample data row {row + 1}", xs[row])
    dt = np.diff(times)
    dxs, fd_order, _ = _fd_derivatives(times, xs, "velocities")
    frames = _frames(dec, times, xs, _hermite_midpoints(xs, dxs, dt), dt)
    meta = {"integrator": "magnus4", "step": float(np.max(dt)), "curve": "piecewise_velocity",
            "warnings": [] if fd_order == 4 else [FD_UNESTIMATED]}
    return _diagnosed(dec, np.array(times), frames, xs.copy(), meta)
