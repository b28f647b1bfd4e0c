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
space with its Levi-Civita alpha (they are naturally reductive), and
``_one_parameter_frames`` builds its frames as the powers of one
exponential.  Otherwise x is integrated alone with fixed-step RK4, whose
blow-up guard reads a block of steps at a time.  Every other equation is
linear with a varying generator, and one propagator, ``_magnus_frames``,
solves them all with one exponential per step of the fourth-order Magnus
expansion (Iserles, Munthe-Kaas, Norsett and Zanna, Acta Numerica 9,
2000): the frames of an RK4 geodesic or of a sampled velocity curve, the
lift's isotropy factor h, and the transport propagator.  Their generators
lie in a Lie algebra, so each solution stays on its group up to
round-off: g in G, h in H and, for a metric alpha, the transport
propagator in O(g).  Every parallel field along one curve solves the same
linear ODE, so all seeds transported in one call share one propagator
sequence.  ``geodesic_convergence`` measures the RK4 order against a run at
a tenth of the finest step: its truncation error, 1e-4 of the finest run's
and often below its round-off, is too small to move the order.

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

from .algebra import expm
from .connection import AlphaMap
from .reductive import ReductiveDecomposition

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
FD_UNESTIMATED = "nonuniform or short grid: finite-difference error not estimated"
MAGNUS_BLOCK = 256
GUARD_BLOCK = 64                    # RK4 steps between two blow-up checks of geodesic


# -- finite differences and interpolation -----------------------------------------


def _fd4_uniform(y: np.ndarray, h: float) -> np.ndarray:
    """Fourth-order derivative estimates on a uniform grid (len >= 5)."""
    d = np.empty_like(y)
    d[2:-2] = (-y[4:] + 8 * y[3:-1] - 8 * y[1:-3] + y[:-4]) / (12 * h)
    c0 = np.array([-25.0, 48.0, -36.0, 16.0, -3.0]) / 12.0
    c1 = np.array([-3.0, -10.0, 18.0, -6.0, 1.0]) / 12.0
    d[0] = np.tensordot(c0, y[:5], axes=(0, 0)) / h
    d[1] = np.tensordot(c1, y[:5], axes=(0, 0)) / h
    d[-1] = -np.tensordot(c0, y[-1:-6:-1], axes=(0, 0)) / h
    d[-2] = -np.tensordot(c1, y[-1:-6:-1], axes=(0, 0)) / h
    return d


def _fd_derivatives(times: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Second-order derivative estimates, tolerant of nonuniform grids."""
    order = 2 if len(times) >= 3 else 1
    return np.gradient(values, times, axis=0, edge_order=order)


def _fd4_step(times: np.ndarray):
    """The step of a uniform grid of 5 or more samples, on which fourth-order
    differences and their error estimate apply, else None."""
    d = np.diff(times)
    if d.size < 4:
        return None
    # no registry key: tells a uniform grid from rounding in the sample times; it picks
    # the finite-difference stencil and judges no result
    uniform = bool(np.max(np.abs(d - d[0])) <= 1e-9 * max(abs(float(d[0])), 1e-300))
    return float(d[0]) if uniform else None


def _best_fd(times: np.ndarray, values: np.ndarray):
    """Highest-order derivative estimate available for the grid: (derivs, order)."""
    h = _fd4_step(times)
    if h is not None:
        return _fd4_uniform(values, h), 4
    return _fd_derivatives(times, values), 2


def _time_grid(t_span, step):
    """The fewest equal steps over ``t_span`` no longer than ``step``: (times, step taken)."""
    if step <= 0:
        raise ValueError("step must be positive")
    t0, t1 = float(t_span[0]), float(t_span[1])
    if not t1 > t0:
        raise ValueError("t_span must be a nonempty interval")
    span = (t1 - t0) / step
    if not math.isfinite(span):
        raise ValueError(f"t_span ({t0!r}, {t1!r}) holds too many steps of {step!r} to count")
    nsteps = max(1, math.ceil(span - 1e-12))
    return np.linspace(t0, t1, nsteps + 1), (t1 - t0) / nsteps


def _hermite_midpoints(values, derivs, dt):
    """Cubic Hermite value at each interval midpoint; dt has shape (M-1,)."""
    shape = (-1,) + (1,) * (values.ndim - 1)
    dt = dt.reshape(shape)
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
    the stored frames, so they carry an O(spacing^fd_order) noise floor
    on top of the true integration error.
    """
    alg = dec.algebra
    out = {"group_drift": None, "horizontality_leak": None,
           "velocity_residual": None, "fd_order": None}
    if alg.orthogonal:
        eye = np.eye(frames.shape[1])
        out["group_drift"] = float(
            np.max(np.abs(np.einsum("mji,mjk->mik", frames, frames) - eye))
        )
    if alg.matrix_basis is None or len(times) < 3:
        return out
    gdot, out["fd_order"] = _best_fd(times, frames)
    h_part, m_part, resid = dec.split_matrices(np.linalg.solve(frames, gdot))
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
    interpolated linearly when frames are reconstructed), and
    ``group_samples`` (group matrices sampled in t, to be lifted).
    """

    kind: str
    t_span: tuple | None = None
    x0: np.ndarray | None = None
    times: np.ndarray | None = None
    values: np.ndarray | None = None

    @classmethod
    def one_parameter(cls, x0, t_span):
        t0, t1 = float(t_span[0]), float(t_span[1])
        if not t1 > t0:
            raise ValueError("t_span must be a nonempty interval")
        return cls(kind="one_parameter", x0=np.asarray(x0, dtype=float), t_span=(t0, t1))

    @classmethod
    def velocity_samples(cls, times, xs):
        times = np.asarray(times, dtype=float)
        xs = np.asarray(xs, dtype=float)
        _check_samples(times, xs)
        return cls(kind="piecewise_velocity", times=times, values=xs,
                   t_span=(float(times[0]), float(times[-1])))

    @classmethod
    def group_samples(cls, times, mats):
        times = np.asarray(times, dtype=float)
        mats = np.asarray(mats, dtype=float)
        _check_samples(times, mats)
        # no registry key: a singularity cut guarding the solves ahead, not a tolerance
        if np.any(np.abs(np.linalg.det(mats)) < 1e-12):
            raise ValueError("group samples contain a numerically singular matrix")
        return cls(kind="group_samples", times=times, values=mats,
                   t_span=(float(times[0]), float(times[-1])))


def _check_samples(times, values):
    # a NaN passes every comparison-based test below and in the lift, so reject it here
    if not (np.isfinite(times).all() and np.isfinite(values).all()):
        raise ValueError("curve samples must be finite")
    if times.ndim != 1 or len(times) < 2:
        raise ValueError("need at least two strictly increasing sample times")
    if np.any(np.diff(times) <= 0):
        raise ValueError("sample times must be strictly increasing")


# -- horizontal lift ---------------------------------------------------------------


def horizontal_lift(dec: ReductiveDecomposition, curve: CurveSpec) -> Trajectory:
    """Lift sampled group matrices to a horizontal frame curve.

    Writing ``g = c h``, horizontality of g forces ``h' = -pr_h(c^-1 c') h``,
    which ``_magnus_frames`` solves across the sample grid, so h stays in H
    up to round-off.  The derivative ``c^-1 c'`` comes from finite
    differences of the samples; its h-coordinates are interpolated at the
    interval midpoints by cubic Hermite.  The lift starts at the first
    sample, h(t0) = I; the lift through c(t0) h1 is this one times h1.
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

    cdot, fd_order = _best_fd(times, mats)
    body = np.linalg.solve(mats, cdot)                   # c^-1 c' at samples
    h_coords, m_coords, resid = dec.split_matrices(body)
    worst_resid = float(np.max(resid))
    # no registry key: rejects samples off the group; fd_error_estimate reports grid error
    if worst_resid > 2e-2:
        raise ValueError(
            f"samples do not stay on the group: c^-1 c' leaves the algebra by {worst_resid:.3e}"
        )

    if fd_order == 4:
        # spread of the lift's generator c^-1 c', not of c' as parallel_transport measures
        body2 = np.linalg.solve(mats, _fd_derivatives(times, mats))
        fd_err = float(np.max(np.abs(body - body2)))
    else:
        fd_err = None
    if fd_err is None:
        warnings_list.append(FD_UNESTIMATED)
    elif fd_err > FD_COARSE_WARNING:
        warnings_list.append(
            f"samples too coarse: estimated c^-1 c' finite-difference error {fd_err:.3e}"
        )

    # h' = A h with A = -mat(pr_h(c^-1 c')), solved transposed
    h_dot, _ = _best_fd(times, h_coords)
    dt = np.diff(times)
    h_mid = _hermite_midpoints(h_coords, h_dot, dt)
    hs = _magnus_frames(np.eye(d), np.swapaxes(dec.h_matrices, 1, 2), -h_coords, -h_mid,
                        dt).swapaxes(1, 2)

    frames = np.einsum("mab,mbc->mac", mats, hs)

    # x = m-coords of g^-1 g' = Ad_{h^-1}(pr_m(c^-1 c'))
    pm_mats = np.einsum("mk,kab->mab", m_coords, dec.m_matrices)
    conj = np.einsum("mab,mbc->mac", np.linalg.solve(hs, pm_mats), hs)
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
    part moves x.  When that part vanishes, x stays x0, no step is taken,
    and the frames are those of the one-parameter curve, bit for bit.
    Otherwise x is integrated alone by fixed-step RK4, and the frames come
    from ``_magnus_frames``, with x at the interval midpoints interpolated
    by cubic Hermite from the exact derivatives at the nodes.  Either way
    the frames stay on the group up to round-off, and the integrator reads
    ``rk4-magnus4``: a Magnus step of a constant generator is the one
    exponential.  The step is shrunk slightly if the interval is not an
    integer multiple of the request.

    A blow-up guard ends the run once |x| exceeds ``BLOWUP_NORM``
    (completeness holds for lifts, not for arbitrary alpha).  It reads the
    samples ``GUARD_BLOCK`` steps at a time and keeps those before the
    first one over the norm, as a check after every step would; the
    returned partial trajectory ends at the last sample within the norm,
    and ``meta["aborted_at"]`` is the time of the first one beyond it.  An
    x0 already beyond the norm raises ``ValueError`` before any step.
    """
    times, h = _time_grid(t_span, step)
    dec = alpha.dec
    dec.algebra._require_matrices()
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (dec.N,):
        raise ValueError(f"x0 must have length {dec.N}")
    # "not <=" also catches a nan; checked before the paths split, so both reject it
    if not np.max(np.abs(x0), initial=0.0) <= BLOWUP_NORM:
        raise ValueError("x0 has a coordinate of magnitude over the blow-up norm "
                         f"{BLOWUP_NORM:g}")

    sym = _symmetric_part(alpha)
    if sym is None:
        xs = np.tile(x0, (len(times), 1))
        frames = _one_parameter_frames(dec, x0, h, len(times) - 1)
        aborted_at = None
    else:
        xs, dxs = _rk4_velocities(-sym, x0, h, len(times) - 1)
        aborted_at = float(times[len(xs)]) if len(xs) < len(times) else None
        times = times[: len(xs)]
        dt = np.full(len(xs) - 1, h)
        frames = _magnus_frames(np.eye(dec.algebra.matrix_dim), dec.m_matrices, xs,
                                _hermite_midpoints(xs, dxs, dt), dt)
        del dxs                     # not held while the diagnostics run
    meta = {
        "integrator": "rk4-magnus4",
        "step": h,
        "requested_step": step,
        "alpha": alpha.label,
        "tainted": not alpha.checked,
        "blow_up": aborted_at is not None,
        "aborted_at": aborted_at,
    }
    return _diagnosed(dec, times, frames, xs, meta)


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
    """
    xs = np.empty((nsteps + 1, len(x0)))
    dxs = np.empty_like(xs)
    half, sixth = 0.5 * h, h / 6.0
    x = xs[0] = x0
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, nsteps, GUARD_BLOCK):
            stop = min(start + GUARD_BLOCK, nsteps)
            for i in range(start, stop):
                dxs[i] = k1 = neg_sym @ x @ x
                v = x + half * k1
                k2 = neg_sym @ v @ v
                v = x + half * k2
                k3 = neg_sym @ v @ v
                v = x + h * k3
                k4 = neg_sym @ v @ v
                x = xs[i + 1] = x + sixth * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            # "not <=" also catches a sample that overflowed to nan
            over = ~(np.max(np.abs(xs[start + 1:stop + 1]), axis=1) <= BLOWUP_NORM)
            if over.any():
                first = start + 1 + int(np.argmax(over))
                return xs[:first], dxs[:first]
    dxs[nsteps] = neg_sym @ x @ x
    return xs, dxs


def _magnus_frames(g0, basis, xs, x_mid, dt):
    """Frames of g' = g A(t), A = sum_k x_k basis_k, from x at nodes and midpoints.

    Each step is one exponential of the fourth-order Magnus expansion with
    Simpson's rule, ``g_{i+1} = g_i expm(Omega_i)`` with
    ``Omega_i = dt/6 (A_i + 4 A_mid + A_{i+1}) + dt^2/12 [A_i, A_{i+1}]``.
    Omega_i lies in the algebra, so the frames stay on the group up to
    round-off.  The exponentials are built a block of steps at a time, which
    keeps the temporaries small.  A constant generator needs none of this:
    ``_one_parameter_frames`` takes the powers of one exponential.

    A left-acting ODE ``Y' = B(t) Y`` is the same problem transposed,
    ``(Y^T)' = Y^T B(t)^T``: pass ``Y(t0)^T`` and the transposed basis, and
    transpose the frames back.  Lift and transport are solved this way.
    """
    frames = np.empty((len(xs),) + g0.shape)
    frames[0] = g = g0
    for start in range(0, len(dt), MAGNUS_BLOCK):
        stop = min(start + MAGNUS_BLOCK, len(dt))
        a = np.einsum("sk,kab->sab", xs[start:stop + 1], basis)
        a_mid = np.einsum("sk,kab->sab", x_mid[start:stop], basis)
        d = dt[start:stop].reshape(-1, 1, 1)
        a0, a1 = a[:-1], a[1:]
        omega = d / 6.0 * (a0 + 4.0 * a_mid + a1) + d * d / 12.0 * (a0 @ a1 - a1 @ a0)
        for i, inc in enumerate(expm(omega), start + 1):
            g = g @ inc
            frames[i] = g
    return frames


def _one_parameter_frames(dec, x0, h, nsteps):
    """Frames exp(i h mat(x0)), i = 0..nsteps, as powers of one exponential."""
    d = dec.algebra.matrix_dim
    inc = expm(h * dec.m_matrix(x0))
    frames = np.empty((nsteps + 1, d, d))
    frames[0] = g = np.eye(d)
    for i in range(1, nsteps + 1):
        frames[i] = g = g @ inc
    return frames


# -- parallel transport ------------------------------------------------------------


def parallel_transport(alpha: AlphaMap, base: Trajectory, z0) -> Trajectory:
    """Transport coordinates z along a base trajectory: z' = -alpha(x(t), z).

    ``z0`` is one seed of shape (N,) or a seed matrix of shape (S, N).
    Integration reuses the base grid, with cubic Hermite interpolation of
    the velocity coordinates at interval midpoints (from finite-difference
    derivatives, which preserves the integrator's order).  The propagators
    ``P(t_i)`` with ``z(t_i) = P(t_i) z0`` depend on the base curve alone, so
    ``_magnus_frames`` builds them once and each seed is one product with
    them; for a metric alpha they lie in O(g) up to round-off.  Returns a
    copy of the base trajectory with the transported coordinates attached,
    of shape (M, N) for one seed and (M, S, N) for a seed matrix.
    """
    if len(base) < 2:
        raise ValueError("base trajectory has no intervals to integrate over")
    dec = alpha.dec
    if base.dec is not dec:
        raise ValueError("alpha and base trajectory use different decompositions")
    seeds = np.array(z0, dtype=float, ndmin=1)
    if seeds.ndim > 2 or seeds.shape[-1] != dec.N:
        raise ValueError(f"z0 must have length {dec.N}")

    times = base.times
    xs = base.velocities
    warnings_list = list(base.meta.get("warnings", []))
    dxs, fd_order = _best_fd(times, xs)
    if fd_order == 4:
        fd_err = float(np.max(np.abs(_fd_derivatives(times, xs) - dxs)))
        if fd_err > FD_COARSE_WARNING:
            warnings_list.append(
                f"transport grid too coarse: velocity interpolation error ~{fd_err:.3e}"
            )

    dt = np.diff(times)
    x_mid = _hermite_midpoints(xs, dxs, dt)
    # z' = A z with A_kj = -sum_i x_i alpha_kij, solved transposed
    prop_t = _magnus_frames(np.eye(dec.N), np.transpose(alpha.coeffs, (1, 2, 0)), -xs, -x_mid, dt)
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
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (dec.N,):
        raise ValueError(f"x0 must have length {dec.N}")
    steps = _order_steps(_time_grid(t_span, float(s))[1] for s in steps)

    def end_frame(step):
        run = geodesic(alpha, x0, t_span, step)
        if run.meta["blow_up"]:
            raise ValueError(f"the geodesic at step {step:.6g} blows up at t = "
                             f"{run.meta['aborted_at']:.6g}; no order can be measured")
        return run.frames[-1]

    if _symmetric_part(alpha) is None:
        ref = expm((float(t_span[1]) - float(t_span[0])) * dec.m_matrix(x0))
    else:
        ref = end_frame(min(steps) / FINE_FACTOR)
    return convergence_probe(lambda step: float(np.max(np.abs(end_frame(step) - ref))), steps)


# -- curve realization --------------------------------------------------------------


def realize_curve(dec: ReductiveDecomposition, spec: CurveSpec,
                  step: float | None = None) -> Trajectory:
    """Turn a curve specification into a trajectory with frames and velocities."""
    if spec.kind == "group_samples":
        return horizontal_lift(dec, spec)
    if spec.kind == "one_parameter":
        if step is None or step <= 0:
            raise ValueError("one-parameter curves need a positive step")
        return _one_parameter_trajectory(dec, spec, step)
    if spec.kind == "piecewise_velocity":
        return _velocity_trajectory(dec, spec)
    raise ValueError(f"unknown curve kind {spec.kind!r}")


def _one_parameter_trajectory(dec, spec, step):
    dec.algebra._require_matrices()
    x0 = np.asarray(spec.x0, dtype=float)
    if x0.shape != (dec.N,):
        raise ValueError(f"one-parameter direction must have length {dec.N}")
    times, h = _time_grid(spec.t_span, step)
    frames = _one_parameter_frames(dec, x0, h, len(times) - 1)
    xs = np.tile(x0, (len(times), 1))
    meta = {"integrator": "exp", "step": h, "curve": "one_parameter"}
    return _diagnosed(dec, times, frames, xs, meta)


def _velocity_trajectory(dec, spec):
    dec.algebra._require_matrices()
    times = spec.times
    xs = np.asarray(spec.values, dtype=float)
    if xs.shape != (len(times), dec.N):
        raise ValueError(f"velocity samples must have shape (len(times), {dec.N})")
    dt = np.diff(times)
    x_mid = 0.5 * (xs[:-1] + xs[1:])        # order-1 interpolation of the samples
    frames = _magnus_frames(np.eye(dec.algebra.matrix_dim), dec.m_matrices, xs, x_mid, dt)
    meta = {"integrator": "magnus4", "step": float(np.max(dt)), "curve": "piecewise_velocity",
            "warnings": [] if _fd4_step(times) is not None else [FD_UNESTIMATED]}
    return _diagnosed(dec, np.array(times), frames, xs.copy(), meta)
