"""The boundary curve in the open quarter plane x > 0, y > 0.

A ``Curve`` is an arc from a point B = (0, b) on the y-axis to a point
A = (a, 0) on the x-axis, parametrised by arclength s in [0, l].  The
orientation is fixed: s = 0 at B, s = l at A.  For this traversal the
outward unit normal (pointing away from the enclosed region, which lies
between the arc and the axes) is (-y'(s), x'(s)).

The arc is the quarter superellipse (x/a)^q + (y/b)^q = 1 with q >= 2,
the one curve the package knows.  It is built from two graphs glued at
the point of the arc where x/a = y/b: near B the arc is the graph
x -> (x, y(x)), near A the graph y -> (x(y), y).  Both graphs have
bounded slope on their half, so speed, tangent and curvature follow from
stable closed forms, and the only numerical content is the arclength
table used to invert s -> parameter.

``Curve.frames(s)`` is the array evaluator: point, unit tangent, outward
normal and curvature at a whole batch of arclengths, with one vectorized
Newton polish of the table inverse per branch.  ``point_at`` and
``points_at`` wrap it in ``CurvePoint`` objects.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import DomainError


@dataclass(frozen=True)
class Point:
    """A point of the closed quarter plane with finite coordinates."""
    x: float
    y: float

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise DomainError(f"point ({self.x}, {self.y}) is not finite")
        if self.x < 0.0 or self.y < 0.0:
            raise DomainError(f"point ({self.x}, {self.y}) leaves the quarter plane")


@dataclass(frozen=True)
class CurvePoint:
    """Boundary point with local frame data at arclength s.

    ``normal`` is the outward unit normal (-dy/ds, dx/ds); ``tangent`` is
    (dx/ds, dy/ds); ``curvature`` is signed with respect to that frame.
    """
    s: float
    x: float
    y: float
    tangent: tuple[float, float]
    normal: tuple[float, float]
    curvature: float


_TABLE_CELLS = 1024
_GAUSS_PTS = 7


def _cubic_spline(x, y):
    """Not-a-knot cubic spline through (x[i], y[i]), x strictly increasing,
    at least four knots; a vectorised evaluator that extends the end cubics.
    The knot slopes solve the tridiagonal system in one Thomas sweep."""
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    if (x.ndim != 1 or x.shape != y.shape or x.size < 4
            or not np.all(np.diff(x) > 0.0)):
        raise DomainError("spline needs four or more increasing 1-d knots")
    dx = np.diff(x)
    m = np.diff(y) / dx
    # row i: lower[i-1] s[i-1] + diag[i] s[i] + upper[i] s[i+1] = rhs[i];
    # the first and last rows are the not-a-knot conditions
    d0, d1 = x[2] - x[0], x[-1] - x[-3]
    lower, upper = [*dx[1:].tolist(), d1], [d0, *dx[:-1].tolist()]
    diag = [dx[1], *(2.0 * (dx[:-1] + dx[1:])).tolist(), dx[-2]]
    rhs = [((dx[0] + 2.0 * d0) * dx[1] * m[0] + dx[0] ** 2 * m[1]) / d0,
           *(3.0 * (dx[1:] * m[:-1] + dx[:-1] * m[1:])).tolist(),
           (dx[-1] ** 2 * m[-2] + (2.0 * d1 + dx[-1]) * dx[-2] * m[-1]) / d1]
    for i in range(1, x.size):
        w = lower[i - 1] / diag[i - 1]
        diag[i] -= w * upper[i - 1]
        rhs[i] -= w * rhs[i - 1]
    s = [rhs[-1] / diag[-1]]
    for i in range(x.size - 2, -1, -1):
        s.append((rhs[i] - upper[i] * s[-1]) / diag[i])
    s = np.array(s[::-1])
    # power-form coefficients per interval, constant term first
    t = (s[:-1] + s[1:] - 2.0 * m) / dx
    coef = (y[:-1], s[:-1], (m - s[:-1]) / dx - t, t / dx)

    def spline(u):
        u = np.asarray(u, dtype=float)
        k = np.clip(np.searchsorted(x, u, side="right") - 1, 0, x.size - 2)
        d = u - x[k]
        return coef[0][k] + coef[1][k] * d + coef[2][k] * (d * d) \
            + coef[3][k] * (d * d * d)

    return spline


class Curve:
    """Quarter superellipse (x/a)^q + (y/b)^q = 1, q >= 2, from (0, b) to
    (a, 0), parametrised by arclength; see the module docstring.

    q = 2 is the ellipse.  Larger q flattens the arc against the axes; the
    graph slope at the axis endpoints vanishes like the (q-1)-th power of
    the distance, which is what ``check_endpoint_conditions`` measures.
    """

    def __init__(self, a: float, b: float, q: float):
        if a <= 0.0 or b <= 0.0:
            raise DomainError("curve endpoints must sit on the positive axes")
        if q < 2.0:
            raise DomainError(f"superellipse exponent must satisfy q >= 2, got {q}")
        self.a = float(a)
        self.b = float(b)
        self.q = float(q)
        self._build_tables()

    # -- the two graph branches ----------------------------------------------

    def _graph_over_x(self, x):
        """Return (y, dy/dx, d2y/dx2) for the branch near B."""
        q = self.q
        w = (x / self.a) ** q
        g = (1.0 - w) ** (1.0 / q)     # y/b
        y = self.b * g
        # dy/dx = -(b/a) (x/a)^(q-1) g^(1-q)
        dy = -(self.b / self.a) * (x / self.a) ** (q - 1.0) * g ** (1.0 - q)
        # d2y/dx2 = -(q-1) (b/a^2) (x/a)^(q-2) g^(1-2q)
        d2y = -(q - 1.0) * (self.b / self.a ** 2) \
            * (x / self.a) ** (q - 2.0) * g ** (1.0 - 2.0 * q)
        return y, dy, d2y

    def _graph_over_y(self, y):
        """Return (x, dx/dy, d2x/dy2) for the branch near A."""
        q = self.q
        w = (y / self.b) ** q
        g = (1.0 - w) ** (1.0 / q)
        x = self.a * g
        dx = -(self.a / self.b) * (y / self.b) ** (q - 1.0) * g ** (1.0 - q)
        d2x = -(q - 1.0) * (self.a / self.b ** 2) \
            * (y / self.b) ** (q - 2.0) * g ** (1.0 - 2.0 * q)
        return x, dx, d2x

    def implicit_value(self, x: float, y: float) -> float:
        """Signed implicit function (x/a)^q + (y/b)^q - 1.

        Negative inside the arc, zero on it, positive outside; used by the
        point classifier in the potential module.
        """
        return (x / self.a) ** self.q + (y / self.b) ** self.q - 1.0

    def x_extent(self, y):
        """Width of the domain at height y: the x where the arc sits."""
        g = 1.0 - (np.asarray(y, dtype=float) / self.b) ** self.q
        return self.a * np.maximum(g, 0.0) ** (1.0 / self.q)

    # -- arclength machinery -------------------------------------------------

    def _build_tables(self):
        # glue where x/a = y/b, (x/a)^q = 1/2: branch 1 is the graph over
        # x in [0, x_star] (containing B), branch 2 the graph over y in
        # [0, y_star] (containing A)
        glue = 0.5 ** (1.0 / self.q)
        x_star, y_star = self.a * glue, self.b * glue
        gl_x, gl_w = leggauss(_GAUSS_PTS)

        def table(upper, speed):
            edges = upper * np.linspace(0.0, 1.0, _TABLE_CELLS + 1) ** 2
            mid = 0.5 * (edges[1:] + edges[:-1])
            half = 0.5 * (edges[1:] - edges[:-1])
            nodes = mid[:, None] + half[:, None] * gl_x[None, :]
            cell = half * (speed(nodes.ravel()).reshape(nodes.shape)
                           @ gl_w)
            return edges, np.concatenate(([0.0], np.cumsum(cell)))

        x_edges, s_of_x = table(
            x_star, lambda x: np.hypot(1.0, self._graph_over_x(x)[1]))
        y_edges, s_of_y = table(
            y_star, lambda y: np.hypot(1.0, self._graph_over_y(y)[1]))
        self._s_glue = s_of_x[-1]
        self.length = s_of_x[-1] + s_of_y[-1]
        # Per branch: graph, forward map s(par) (not-a-knot spline, near
        # machine accuracy on smooth data), (s, par) table whose linear
        # reading seeds the Newton polish, par range end, sign of -ds/dpar
        # (s grows with x from B on branch 1, falls with y on branch 2).
        # The graph is the plain function, called with the curve: a bound
        # method here would tie the curve into a reference cycle, and its
        # tables would wait for the cyclic garbage collector instead of
        # going with the curve.
        s_of_y = self.length - s_of_y
        self._branches = (
            (Curve._graph_over_x, _cubic_spline(x_edges, s_of_x),
             (s_of_x, x_edges), x_star, -1.0),
            (Curve._graph_over_y, _cubic_spline(y_edges, s_of_y),
             (s_of_y[::-1], y_edges[::-1]), y_star, 1.0))

    def _branch_frames(self, s: np.ndarray, branch: int):
        """(x, y, tx, ty, kappa) at arclengths s on one graph branch.

        The table inverse seeds a Newton polish that makes the parameter
        consistent with the analytic speed to machine accuracy.  The seed
        and every step are clamped into the branch's range: rounding can
        land a parameter just outside it (y = -8e-24 at s = l), where the
        graph's fractional powers are NaN.
        """
        graph, s_of, table, edge, sign = self._branches[branch - 1]
        par = np.clip(np.interp(s, *table), 0.0, edge)
        for _ in range(3):
            _, dpar, _ = graph(self, par)
            par = par + sign * ((s_of(par) - s) / np.hypot(1.0, dpar))
            par = np.clip(par, 0.0, edge)
        other, d1, d2 = graph(self, par)
        sp = np.hypot(1.0, d1)
        kappa = d2 / sp ** 3
        if branch == 1:
            # ds points toward growing x on this branch
            return par, other, 1.0 / sp, d1 / sp, kappa
        # ds points toward falling y on this branch, so dx/ds = -dx/dy / sp
        return other, par, -d1 / sp, -1.0 / sp, kappa

    def frames(self, s) -> tuple[np.ndarray, ...]:
        """Arrays (x, y, tx, ty, nx, ny, kappa) at arclengths s in [0, l].

        Point, unit tangent (dx/ds, dy/ds), outward unit normal (-ty, tx)
        and signed curvature, each with the shape of ``s``.  One array
        Newton polish per graph branch serves the whole batch.
        """
        s = np.asarray(s, dtype=float)
        if not np.all(np.isfinite(s)):
            raise DomainError("arclength must be finite")
        outside = (s < -1e-12 * self.length) | (s > self.length * (1 + 1e-12))
        if np.any(outside):
            raise DomainError(f"arclength {s[outside].flat[0]} outside "
                              f"[0, {self.length}]")
        shape = s.shape
        s = np.clip(s, 0.0, self.length).ravel()
        out = np.empty((5, s.size))
        first = s <= self._s_glue
        for branch, sel in ((1, first), (2, ~first)):
            if sel.any():
                out[:, sel] = self._branch_frames(s[sel], branch)
        x, y, tx, ty, kappa = out.reshape((5,) + shape)
        return x, y, tx, ty, -ty, tx, kappa

    def point_at(self, s: float) -> CurvePoint:
        """Boundary point, frame and curvature at arclength s in [0, l]."""
        x, y, tx, ty, nx, ny, k = (float(v) for v in self.frames(s))
        return CurvePoint(s=min(max(float(s), 0.0), self.length), x=x, y=y,
                          tangent=(tx, ty), normal=(nx, ny), curvature=k)

    def points_at(self, s) -> list[CurvePoint]:
        """``CurvePoint`` objects at the arclengths s, built by ``frames``."""
        s = np.asarray(s, dtype=float).ravel()
        rows = zip(np.clip(s, 0.0, self.length).tolist(),
                   *(v.tolist() for v in self.frames(s)))
        return [CurvePoint(s=si, x=x, y=y, tangent=(tx, ty), normal=(nx, ny),
                           curvature=k)
                for si, x, y, tx, ty, nx, ny, k in rows]


def check_endpoint_conditions(curve: Curve, eps: float = 1.0,
                              n_dyadic: int = 12) -> dict:
    """Measure how fast the arc flattens onto the axes at its endpoints.

    Samples dyadically shrinking arclength offsets from each endpoint and
    fits the decay exponent of |dx/ds| / y**(1+eps) near the x-axis end
    (resp. |dy/ds| / x**(1+eps) near the y-axis end).  The boundary
    integrals of the weighted potentials stay finite when both ratios stay
    bounded, i.e. when the fitted slopes are >= 0.

    Returns a report dict with the sampled ratios and a boolean ``ok``.
    """
    l = curve.length
    offs = l * 2.0 ** (-np.arange(4, 4 + n_dyadic, dtype=float))

    def probe(end_at_x_axis: bool):
        x, y, tx, ty = curve.frames(l - offs if end_at_x_axis else offs)[:4]
        if end_at_x_axis:
            ratios = np.abs(tx) / y ** (1.0 + eps)
        else:
            ratios = np.abs(ty) / x ** (1.0 + eps)
        grow = ratios[-1] / ratios[0]
        return ratios, grow

    rx, gx = probe(end_at_x_axis=True)
    ry, gy = probe(end_at_x_axis=False)
    ok = bool(gx < 2.0 and gy < 2.0)
    return {
        "eps": eps,
        "offsets": offs,
        "x_axis_ratios": rx,
        "y_axis_ratios": ry,
        "x_axis_growth": float(gx),
        "y_axis_growth": float(gy),
        "ok": ok,
    }
