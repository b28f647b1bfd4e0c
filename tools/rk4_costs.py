"""Time both RK4 kernels of ``redhom.transport`` and fit the model that picks one.

For a rigid body of diagonal inertia (six nonzero terms, as in the
benchmark), the Riccati field x_1' = x_1^2 (one term), the diagonal fields
x_a' = x_a^2 of n = 9 and 27 and seeded dense symmetric forms of n = 3, 5
and 9, it prints each kernel's µs a step (the best of ``--repeat`` runs of
``--steps`` steps), the scalar kernel's compile time, and the kernel
``_scalar_is_cheaper`` picks.  It then fits, by least
squares relative to each case's cost, the scalar kernel's cost per step,
per coordinate and per term, and the numpy loop's per step and per n^3
multiply-add: the constants of ``_scalar_is_cheaper`` on the host it runs
on.

Run from the repository root, with numpy and the stdlib only:
``python tools/rk4_costs.py [--steps 5000] [--repeat 9]``.  BLAS is held to
one thread unless ``OPENBLAS_NUM_THREADS`` says otherwise.
"""

import argparse
import os
import sys
import time
from pathlib import Path

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

import redhom as rh  # noqa: E402
from redhom import transport  # noqa: E402


def rigid_body():
    body = rh.group_as_space(rh.so3(), np.diag([1.4, 1.9, 2.6]))
    return -transport._symmetric_part(rh.levi_civita_alpha(body.dec, body.metric))


def riccati():
    neg_sym = np.zeros((3, 3, 3))
    neg_sym[0, 0, 0] = 1.0
    return neg_sym


def diagonal(n):
    """x_a' = x_a^2 for each a: n terms on n coordinates, which sets the per-coordinate
    cost apart from the per-term one."""
    neg_sym = np.zeros((n, n, n))
    neg_sym[np.arange(n), np.arange(n), np.arange(n)] = 1.0
    return neg_sym


def dense(n):
    c = np.random.default_rng(n).standard_normal((n, n, n))
    return -0.5 * (c + np.swapaxes(c, 1, 2))


CASES = [("rigid body", rigid_body), ("riccati", riccati),
         *((f"diagonal n={n}", lambda n=n: diagonal(n)) for n in (9, 27)),
         *((f"dense n={n}", lambda n=n: dense(n)) for n in (3, 5, 9))]


def best_us_per_step(run, steps, repeat):
    """The fastest of ``repeat`` calls of ``run``, in µs a step."""
    best = float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        run()
        best = min(best, time.perf_counter() - start)
    return best / steps * 1e6


def measure(neg_sym, steps, repeat):
    """(scalar µs/step, compile ms, numpy µs/step, n, terms) of one table."""
    n = len(neg_sym)
    nonzero = np.nonzero(neg_sym)
    support = tuple(zip(*(index.tolist() for index in nonzero)))
    coeffs = neg_sym[nonzero].tolist()
    # a small start, run for about a tenth of the time the field takes to blow it up
    x0 = np.full(n, 0.05 / n)
    h = 0.1 / (steps * max(1.0, float(np.max(np.abs(neg_sym))) * n * n * float(x0[0])))
    transport._rk4_kernel.cache_clear()
    start = time.perf_counter()
    kernel = transport._rk4_kernel(n, support)
    compile_ms = (time.perf_counter() - start) * 1e3
    scalar = best_us_per_step(lambda: transport._rk4_scalar(kernel, coeffs, x0, h, steps),
                              steps, repeat)
    numpy_loop = best_us_per_step(lambda: transport._rk4_numpy(neg_sym, x0, h, steps),
                                  steps, repeat)
    return scalar, compile_ms, numpy_loop, n, len(coeffs)


def relative_fit(design, costs):
    """Least-squares coefficients of ``design`` for ``costs``, each case weighed by its
    own cost rather than the largest one's."""
    costs = np.array(costs)
    return np.linalg.lstsq(np.array(design) / costs[:, None], np.ones(len(costs)),
                           rcond=None)[0]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--steps", type=int, default=5000)
    parser.add_argument("--repeat", type=int, default=9)
    args = parser.parse_args(argv)
    print(f"{'case':<15}{'n':>3}{'terms':>7}{'scalar us':>11}{'compile ms':>12}"
          f"{'numpy us':>10}  picks")
    rows = []
    for name, make in CASES:
        scalar, compile_ms, numpy_loop, n, terms = measure(make(), args.steps, args.repeat)
        rows.append((scalar, numpy_loop, n, terms))
        pick = "scalar" if transport._scalar_is_cheaper(n, terms) else "numpy"
        print(f"{name:<15}{n:>3}{terms:>7}{scalar:>11.2f}{compile_ms:>12.2f}"
              f"{numpy_loop:>10.2f}  {pick}")
    scalar = relative_fit([(1.0, n, terms) for _, _, n, terms in rows], [r[0] for r in rows])
    numpy_loop = relative_fit([(1.0, n ** 3) for _, _, n, _ in rows], [r[1] for r in rows])
    print(f"fit: scalar {scalar[0]:.3f} + {scalar[1]:.3f} n + {scalar[2]:.4f} terms, "
          f"numpy {numpy_loop[0]:.3f} + {numpy_loop[1]:.2e} n^3 us a step")
    print(f"in use: scalar {transport._SCALAR_STEP_US} + {transport._SCALAR_COORD_US} n + "
          f"{transport._SCALAR_TERM_US} terms (at most {transport._SCALAR_MAX_TERMS}), "
          f"numpy {transport._NUMPY_STEP_US} + {transport._NUMPY_MADD_US} n^3")


if __name__ == "__main__":
    main()
