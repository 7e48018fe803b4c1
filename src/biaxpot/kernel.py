"""The fourth fundamental solution of the bi-axially symmetric potential
equation

    u_xx + u_yy + (2 alpha / x) u_x + (2 beta / y) u_y = 0,
    0 < 2 alpha < 1,  0 < 2 beta < 1,

on the quarter plane, together with its gradient and conormal
derivative.  The solution is

    q4(x, y; x0, y0) = k4 (r^2)^(alpha+beta-2) (x x0)^(1-2 alpha)
                           (y y0)^(1-2 beta)
                           F2(2-alpha-beta; 1-alpha, 1-beta;
                              2-2 alpha, 2-2 beta; xi, eta)

with xi = -4 x x0 / r^2, eta = -4 y y0 / r^2.  It vanishes on both axes
and carries a logarithmic singularity at (x0, y0).

Derivative formulas need three more F2 parameter families (the x-shift,
the y-shift, and the a-shift of the main family).  The batched evaluators
(q4_many, grad_q4_many, weighted_dq4_dn_many, and the scalar q4 and grad_q4
that wrap them) take all four from one specfun.f2_kernel_families call on
the Euler integral of the main family, one axis graded and the other done
exactly.  dq4_dn_many (and the scalar dq4_dn that wraps it) evaluates the
four families of all its points as parameter sets of one
specfun.appell_f2_sets call, on the tensor Euler route, and assembles a
grouped closed form; it is kept as an independent second evaluation tree
that the tests and ``verify gradient`` check the batched route against.

The batched evaluators take the second point either as a fixed Point or
as per-pair arrays (x0s, y0s), broadcast against the first points; a
Point is broadcast the same way, so both run one closed form with the
same elementwise arithmetic.  xi and eta are bitwise symmetric under the
swap of the two points (x x0 commutes, and (x - x0)^2 = (x0 - x)^2), so
one kernel_families call serves a pair in both orders.

Every evaluator takes its chord data (r^2, xi, eta) from one array
routine, ``_chord_arrays``.  It raises SingularPairError for a pair whose
r^2 falls below SINGULAR_R2_FRAC of the larger chord scale, coincident
points included.

Argument convention: the first point is the integration/evaluation
variable (x, y), the second the fixed field point (x0, y0).  q4 itself is
symmetric under the swap.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, SingularPairError
from .geometry import CurvePoint, Point
from .specfun import _powers, appell_f2_sets, f2_kernel_families, ln_gamma

# A pair is treated as numerically singular when r^2 falls below this
# fraction of the larger chord scale; quadrature layouts must keep nodes
# farther out than that.
SINGULAR_R2_FRAC = 1.0e-12


@dataclass(frozen=True)
class Params:
    """Axis exponents of the operator; both in (0, 1/2)."""
    alpha: float
    beta: float

    def __post_init__(self):
        if not (0.0 < 2.0 * self.alpha < 1.0 and 0.0 < 2.0 * self.beta < 1.0):
            raise DomainError(
                f"parameters must satisfy 0 < 2*alpha, 2*beta < 1, "
                f"got alpha={self.alpha}, beta={self.beta}")


@functools.lru_cache(maxsize=64)
def k4_constant(p: Params) -> float:
    """Normalization constant of q4.

    k4 = 2^(4-2a-2b) G(1-a) G(1-b) G(2-a-b) / (4 pi G(2-2a) G(2-2b)).
    """
    a, b = p.alpha, p.beta
    ln = ((4.0 - 2.0 * a - 2.0 * b) * math.log(2.0)
          + ln_gamma(1.0 - a) + ln_gamma(1.0 - b) + ln_gamma(2.0 - a - b)
          - math.log(4.0 * math.pi) - ln_gamma(2.0 - 2.0 * a)
          - ln_gamma(2.0 - 2.0 * b))
    return math.exp(ln)


# F2 parameter families used by q4 and its first derivatives:
# main) (2-a-b; 1-a, 1-b; 2-2a, 2-2b)   the solution itself
# dx)   (3-a-b; 2-a, 1-b; 3-2a, 2-2b)   x-shifted, from d/dxi
# dy)   (3-a-b; 1-a, 2-b; 2-2a, 3-2b)   y-shifted, from d/deta
# da)   (3-a-b; 1-a, 1-b; 2-2a, 2-2b)   a-shifted, from the Euler relation

def _family_params(p: Params):
    a, b = p.alpha, p.beta
    return {
        "main": (2.0 - a - b, 1.0 - a, 1.0 - b, 2.0 - 2.0 * a, 2.0 - 2.0 * b),
        "dx": (3.0 - a - b, 2.0 - a, 1.0 - b, 3.0 - 2.0 * a, 2.0 - 2.0 * b),
        "dy": (3.0 - a - b, 1.0 - a, 2.0 - b, 2.0 - 2.0 * a, 3.0 - 2.0 * b),
        "da": (3.0 - a - b, 1.0 - a, 1.0 - b, 2.0 - 2.0 * a, 2.0 - 2.0 * b),
    }


def _chord_arrays(xs, ys, Q):
    """Vectorized chord data with the singular-pair guard.

    Q is the second point: a Point, or per-pair arrays (x0s, y0s).  All
    coordinates are broadcast to one shape, so a fixed source runs the
    same elementwise arithmetic as per-pair sources.
    """
    x0s, y0s = (Q.x, Q.y) if isinstance(Q, Point) else Q
    xs, ys, x0s, y0s = np.broadcast_arrays(
        *(np.asarray(v, dtype=float) for v in (xs, ys, x0s, y0s)))
    dx = xs - x0s
    dy = ys - y0s
    r2 = dx * dx + dy * dy
    fx = 4.0 * xs * x0s
    fy = 4.0 * ys * y0s
    r1sq = r2 + fx
    r2sq = r2 + fy
    bad = r2 < SINGULAR_R2_FRAC * np.maximum(r1sq, r2sq)
    if np.any(bad):
        j = int(np.argmax(bad))
        raise SingularPairError(
            f"pair ({xs.flat[j]}, {ys.flat[j]}) vs ({x0s.flat[j]}, "
            f"{y0s.flat[j]}) too close to the kernel singularity "
            f"(r^2 = {r2.flat[j]:.3e})")
    with np.errstate(divide="ignore"):
        xi = -fx / r2
        eta = -fy / r2
    return xs, ys, x0s, y0s, dx, dy, r2, xi, eta


def kernel_families(p: Params, xs, ys, Q):
    """The four F2 families (main, dx, dy, da) of q4 at the pairs
    ((xs, ys), Q), with Q a Point or per-pair arrays (x0s, y0s).

    xi and eta are bitwise symmetric under the swap of the two points, so
    the result also serves the swapped pairs (the ``families`` argument of
    weighted_dq4_dn_many).
    """
    xi, eta = _chord_arrays(xs, ys, Q)[-2:]
    return f2_kernel_families(*_family_params(p)["main"], xi, eta)


def q4_many(p: Params, xs, ys, Q) -> np.ndarray:
    """q4 at many first-argument points against a second point Q, either a
    fixed Point or per-pair arrays (x0s, y0s) broadcast against them."""
    xs, ys, x0s, y0s, _, _, r2, xi, eta = _chord_arrays(xs, ys, Q)
    f_main = f2_kernel_families(*_family_params(p)["main"], xi, eta)[0]
    a, b = p.alpha, p.beta
    with np.errstate(invalid="ignore"):
        pref = ((xs * x0s) ** (1.0 - 2.0 * a) * (ys * y0s) ** (1.0 - 2.0 * b)
                * r2 ** (a + b - 2.0))
    out = k4_constant(p) * pref * f_main
    # on-axis points: the prefactor vanishes identically
    out = np.where((xs == 0.0) | (ys == 0.0) | (x0s == 0.0) | (y0s == 0.0),
                   np.where(r2 > 0.0, 0.0, np.nan), out)
    return out


def q4(p: Params, P: Point, Q: Point) -> float:
    """The fourth fundamental solution at the pair (P, Q)."""
    return float(q4_many(p, np.array([P.x]), np.array([P.y]), Q)[0])


def grad_q4_many(p: Params, xs, ys, Q):
    """(d/dx, d/dy) of q4 in its first argument, at many points against a
    second point Q (a Point, or per-pair arrays (x0s, y0s)).

    Points must sit strictly inside the quadrant (the x-derivative carries
    an x^(-2 alpha) factor, and symmetrically in y).
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if np.any(xs <= 0.0) or np.any(ys <= 0.0):
        raise DomainError("grad_q4 needs points strictly inside the quadrant")
    xs, ys, x0, y0, dx, dy, r2, xi, eta = _chord_arrays(xs, ys, Q)
    f_main, f_dx, f_dy, f_da = f2_kernel_families(
        *_family_params(p)["main"], xi, eta)
    a, b = p.alpha, p.beta
    k4 = k4_constant(p)
    astar = 2.0 - a - b
    base = k4 * x0 ** (1.0 - 2.0 * a) * y0 ** (1.0 - 2.0 * b)
    r2m2 = r2 ** (a + b - 2.0)
    r2m3 = r2 ** (a + b - 3.0)
    xp = xs ** (1.0 - 2.0 * a)
    yp = ys ** (1.0 - 2.0 * b)
    gx = base * ((1.0 - 2.0 * a) * r2m2 * xs ** (-2.0 * a) * yp * f_main
                 - 2.0 * astar * r2m3 * xp * yp * (x0 * f_dx + dx * f_da))
    gy = base * ((1.0 - 2.0 * b) * r2m2 * xp * ys ** (-2.0 * b) * f_main
                 - 2.0 * astar * r2m3 * xp * yp * (y0 * f_dy + dy * f_da))
    return gx, gy


def grad_q4(p: Params, P: Point, Q: Point) -> tuple[float, float]:
    """Gradient of q4 with respect to its first point."""
    gx, gy = grad_q4_many(p, np.array([P.x]), np.array([P.y]), Q)
    return float(gx[0]), float(gy[0])


def dq4_dn_many(p: Params, xs, ys, nxs, nys, Q) -> np.ndarray:
    """Outward conormal derivative of q4 at many curve points (positions
    and outward unit normals) against a second point Q, either a fixed
    Point or per-pair arrays (x0s, y0s).

    Assembled as the five-term grouped closed form (the r^2-logarithm
    projection plus four single-family terms), which must agree with the
    normal projection of grad_q4_many; both are exposed so that tests can
    pit the two evaluation trees against each other.  The four families
    of all points come from one appell_f2_sets call, a parameter set per
    family and point, not from the shared node set of f2_kernel_families.
    The power factors take Python's float power, so each point's value is
    bitwise the same in any batch.  Curve points must sit strictly inside
    the quadrant.
    """
    xs, ys, nxs, nys = (np.asarray(v, dtype=float)
                        for v in (xs, ys, nxs, nys))
    if np.any(xs <= 0.0) or np.any(ys <= 0.0):
        raise DomainError("dq4_dn needs points strictly inside the quadrant")
    xs, ys, x0, y0, dx, dy, r2, xi, eta = _chord_arrays(xs, ys, Q)
    # the four families as four parameter sets at every point
    sets = np.array(list(_family_params(p).values())).T
    f_main, f_dx, f_dy, f_da = appell_f2_sets(
        *sets.reshape((5, 4) + (1,) * xi.ndim), xi, eta)
    a, b = p.alpha, p.beta
    k4 = k4_constant(p)
    astar = 2.0 - a - b
    dln = (2.0 * dx * nxs + 2.0 * dy * nys) / r2
    base = k4 * _powers(x0, 1.0 - 2.0 * a) * _powers(y0, 1.0 - 2.0 * b)
    r2m2 = _powers(r2, a + b - 2.0)
    r2m3 = _powers(r2, a + b - 3.0)
    xp = _powers(xs, 1.0 - 2.0 * a)
    yp = _powers(ys, 1.0 - 2.0 * b)
    return base * (
        -astar * r2m2 * xp * yp * f_da * dln
        - 2.0 * astar * r2m3 * xp * yp * x0 * f_dx * nxs
        - 2.0 * astar * r2m3 * xp * yp * y0 * f_dy * nys
        + (1.0 - 2.0 * a) * r2m2 * _powers(xs, -2.0 * a) * yp * f_main * nxs
        + (1.0 - 2.0 * b) * r2m2 * xp * _powers(ys, -2.0 * b) * f_main * nys)


def dq4_dn(p: Params, cp: CurvePoint, Q: Point) -> float:
    """Outward conormal derivative of q4 at a curve point: ``dq4_dn_many``
    at one point."""
    return float(dq4_dn_many(p, cp.x, cp.y, *cp.normal, Q))


def weighted_dq4_dn_many(p: Params, xs, ys, nxs, nys, Q,
                         families=None) -> np.ndarray:
    """x^(2 alpha) y^(2 beta) times the outward conormal derivative of q4,
    at many curve points (positions and outward normals) against a second
    point Q, either a fixed Point or per-pair arrays (x0s, y0s).

    The weight is folded into the closed form so that every power of the
    curve coordinates is nonnegative; the result stays finite (and tends
    to zero) at the on-axis curve endpoints.  ``families`` takes the F2
    families of the pairs from kernel_families, for callers that evaluate
    both orders of each pair.
    """
    nxs = np.asarray(nxs, dtype=float)
    nys = np.asarray(nys, dtype=float)
    xs, ys, x0, y0, dx, dy, r2, xi, eta = _chord_arrays(xs, ys, Q)
    if families is None:
        families = f2_kernel_families(*_family_params(p)["main"], xi, eta)
    f_main, f_dx, f_dy, f_da = families
    a, b = p.alpha, p.beta
    k4 = k4_constant(p)
    astar = 2.0 - a - b
    base = k4 * x0 ** (1.0 - 2.0 * a) * y0 ** (1.0 - 2.0 * b)
    r2m2 = r2 ** (a + b - 2.0)
    r2m3 = r2 ** (a + b - 3.0)
    xy = xs * ys
    main_part = r2m2 * ((1.0 - 2.0 * a) * ys * nxs
                        + (1.0 - 2.0 * b) * xs * nys) * f_main
    shift_part = -2.0 * astar * r2m3 * xy * (x0 * f_dx * nxs + y0 * f_dy * nys)
    radial_part = -2.0 * astar * r2m3 * xy * (dx * nxs + dy * nys) * f_da
    return base * (main_part + shift_part + radial_part)
