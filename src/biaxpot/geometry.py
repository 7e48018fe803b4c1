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
stable closed forms.  The only numerical content is each branch's
arclength: Gauss-summed cell lengths, read between cell edges by a
cell-local quintic Hermite and inverted by Newton's method.

``Curve.frames(s)`` is the array evaluator: point, unit tangent, outward
normal and curvature at a whole batch of arclengths, with one vectorized
Newton polish of the table inverse per branch.  ``point_at`` and
``points_at`` wrap it in ``CurvePoint`` objects.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.polynomial import polyval

from .errors import DomainError
from .specfun import _quintic_cells, gauss_rule


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


def _quintic_hermite(x, y, dy, d2y):
    """Piecewise quintic matching the values y, slopes dy and second
    derivatives d2y at the increasing knots x, in closed form on each cell;
    a vectorised evaluator that extends the end quintics."""
    h = np.diff(x)
    coef = _quintic_cells(h, y, dy, d2y)

    def hermite(u):
        k = np.clip(np.searchsorted(x, u, side="right") - 1, 0, h.size - 1)
        return polyval((u - x[k]) / h[k], coef[:, k], tensor=False)

    return hermite


def _graph_slope(t, q, run, rise):
    """(f / rise, f') at t of the graph f(t) = rise (1 - (t/run)^q)^(1/q):
    the arc over x near B (run a, rise b) and over y near A (run b,
    rise a)."""
    g = (1.0 - (t / run) ** q) ** (1.0 / q)
    # f' = -(rise/run) (t/run)^(q-1) g^(1-q)
    return g, -(rise / run) * (t / run) ** (q - 1.0) * g ** (1.0 - q)


def _graph(t, q, run, rise):
    """(f, f', f'') at t of the graph of ``_graph_slope``."""
    g, d1 = _graph_slope(t, q, run, rise)
    # f'' = -(q-1) (rise/run^2) (t/run)^(q-2) g^(1-2q)
    d2 = -(q - 1.0) * (rise / run ** 2) \
        * (t / run) ** (q - 2.0) * g ** (1.0 - 2.0 * q)
    return rise * g, d1, d2


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

    def implicit_value(self, x: float, y: float) -> float:
        """Signed implicit function (x/a)^q + (y/b)^q - 1.

        Negative inside the arc, zero on it, positive outside; used by the
        point classifier in the potential module.
        """
        return (x / self.a) ** self.q + (y / self.b) ** self.q - 1.0

    # -- arclength machinery -------------------------------------------------

    def _build_tables(self):
        # glue where x/a = y/b, (x/a)^q = 1/2: branch 1 is the graph over
        # x in [0, a glue] (containing B), branch 2 the graph over y in
        # [0, b glue] (containing A)
        glue = 0.5 ** (1.0 / self.q)
        gl_x, gl_w = gauss_rule(_GAUSS_PTS)
        # cells graded toward both branch ends: the axis, where the graph's
        # fractional powers start, and the glue point, a near corner at
        # large q
        grade = np.sin(0.5 * np.pi * np.linspace(0.0, 1.0,
                                                 _TABLE_CELLS + 1)) ** 2

        def branch(run, rise):
            # arclength from the branch's axis end as a function of the
            # parameter: Gauss-summed cell lengths, and s' = speed and
            # s'' = f' f'' / speed at the cell edges
            end = run * glue
            edges = end * grade
            mid, half = 0.5 * (edges[1:] + edges[:-1]), 0.5 * np.diff(edges)
            nodes = mid[:, None] + half[:, None] * gl_x
            cell = half * (np.hypot(1.0, _graph_slope(nodes, self.q, run,
                                                      rise)[1]) @ gl_w)
            s = np.concatenate(([0.0], np.cumsum(cell)))
            _, d1, d2 = _graph(edges, self.q, run, rise)
            speed = np.hypot(1.0, d1)
            return (run, rise, _quintic_hermite(edges, s, speed,
                                                d1 * d2 / speed),
                    (s, edges), end)

        self._branches = branch(self.a, self.b), branch(self.b, self.a)
        # both arclength tables run from an axis end to the glue point
        s_x, s_y = (table[0] for _, _, _, table, _ in self._branches)
        self._s_glue = s_x[-1]
        self.length = s_x[-1] + s_y[-1]

    def _branch_frames(self, s: np.ndarray, branch: int):
        """(x, y, tx, ty, kappa) at arclengths s on one graph branch.

        The table's linear reading seeds a Newton polish of the quintic
        forward map at the arclength from the branch's axis end (l - s on
        branch 2), which places points within 1e-14 of an mpmath arclength
        (tests/data/arclength_references.json).  The seed and every step
        are clamped into the branch's range: rounding can land a parameter
        just outside it, where the graph's fractional powers are NaN.
        """
        run, rise, s_of, table, end = self._branches[branch - 1]
        if branch == 2:
            s = self.length - s
        par = np.clip(np.interp(s, *table), 0.0, end)
        for _ in range(3):
            dpar = _graph_slope(par, self.q, run, rise)[1]
            par = np.clip(par - (s_of(par) - s) / np.hypot(1.0, dpar), 0.0,
                          end)
        other, d1, d2 = _graph(par, self.q, run, rise)
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


# Dyadic arclength offsets l 2^-4 ... l 2^-15 of the endpoint probes.
_ENDPOINT_OFFSETS = 2.0 ** -np.arange(4.0, 16.0)


def check_endpoint_conditions(curve: Curve, eps: float = 1.0) -> dict:
    """Measure how fast the arc flattens onto the axes at its endpoints.

    Samples dyadically shrinking arclength offsets from each endpoint and
    compares |dx/ds| / y**(1+eps) near the x-axis end (resp.
    |dy/ds| / x**(1+eps) near the y-axis end) at the innermost offset with
    the outermost.  The boundary integrals of the weighted potentials stay
    finite when both ratios stay bounded; ``ok`` asks that neither grows
    by a factor of 2 or more.  A report, not a check: every
    ``solve-dirichlet`` summary carries it, whatever its verdict.

    Returns a report dict with the sampled ratios and a boolean ``ok``.
    """
    l = curve.length
    offs = l * _ENDPOINT_OFFSETS

    def probe(end_at_x_axis: bool):
        x, y, tx, ty = curve.frames(l - offs if end_at_x_axis else offs)[:4]
        if end_at_x_axis:
            ratios = np.abs(tx) / y ** (1.0 + eps)
        else:
            ratios = np.abs(ty) / x ** (1.0 + eps)
        # at very large q both ends flatten below the smallest double
        grow = ratios[-1] / ratios[0] if ratios[0] > 0.0 else 0.0
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
