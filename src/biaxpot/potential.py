"""Double-layer potential, gauge function, boundary traces, and flux checks.

The double-layer potential carries the weighted conormal derivative of the
fundamental solution q4 against a density mu on the curve:

    w(P0) = int_0^l x(t)^(2a) y(t)^(2b) mu(t) dq4/dn(x(t), y(t); P0) dt.

Everything downstream of that integral lives here: the kernel K4(s, t) off
its diagonal and its log split c(s) ln|t - s| + regular(s) near it, the
log-graded quadrature rule, the one-sided boundary traces with their
+-mu/2 jumps, the gauge function k collecting the axis-segment flux, and
the closed-contour flux identity.
"""

from __future__ import annotations

import math
import weakref
from typing import Callable, NamedTuple

import numpy as np
from numpy.polynomial.legendre import legval, legvander

from .errors import (AmbiguousClassificationError, ConvergenceError,
                     DomainError)
from .geometry import Curve, Point
from .kernel import Params, k4_constant, weighted_dq4_dn_many
from .specfun import gauss_2f1, gauss_rule

__all__ = [
    "Density",
    "kernel_K4_log_split", "kernel_K4_row",
    "double_layer", "k_gauge", "boundary_trace",
    "contour_flux", "classify", "nearest_arclength",
    "GaugeIdentityResult", "gauge_identity_verify",
]

# Offset fraction (of curve length) of the one-sided kernel values whose
# mean gives the regular part of the diagonal log split.
DIAG_OFFSET_FRAC = 1.0e-5

# Implicit-value band classifying a point as lying on the curve.
ON_CURVE_TOL = 1.0e-9

# Points closer to the curve than this, yet outside the on-curve band,
# cannot be classified reliably.
AMBIGUOUS_DIST = 1.0e-6

# Absolute error target for the adaptive near-boundary evaluator.
NEAR_FIELD_TOL = 1.0e-8

# Its relative floor: next to the arc the kernel's rounding noise grows
# like 1/distance (on the stock arc between 1e-13 and 1e-12 of a panel's
# value at 1e-5, and below 1e-11 at 2e-6), and a budget halved below it
# would split every panel at the peak until the live-panel stop.
NEAR_FIELD_RTOL = 1.0e-11


class Density:
    """Boundary density mu(s) on the arc, closed form or given on panels.

    Wraps a vectorised callable of arclength; ``from_panels`` builds the
    Nystrom interpolant that re-evaluates solver output at arbitrary
    quadrature nodes.
    """

    def __init__(self, func: Callable):
        if not callable(func):
            raise DomainError("density must be callable in arclength")
        self._func = func

    def __call__(self, s):
        arr = np.asarray(s, dtype=float)
        out = np.asarray(self._func(arr), dtype=float)
        out = np.broadcast_to(out, arr.shape) if out.shape != arr.shape else out
        if not np.all(np.isfinite(out)):
            raise DomainError("density produced non-finite values")
        return float(out) if arr.ndim == 0 else np.array(out, dtype=float)

    @classmethod
    def constant(cls, value: float) -> "Density":
        value = float(value)
        if not math.isfinite(value):
            raise DomainError("constant density must be finite")
        return cls(lambda s: np.full_like(np.asarray(s, dtype=float), value))

    @classmethod
    def from_panels(cls, edges, values) -> "Density":
        """The density on the panels [edges[k], edges[k+1]] given by its
        values at the same number of Gauss nodes on each, in panel order:
        on each panel the polynomial through them, in Legendre form from
        the Gauss transform of the values; the end polynomials extend past
        the outer edges.  ``edges``, ``nodes`` and ``values`` ride along."""
        edges = np.asarray(edges, dtype=float)
        values = np.asarray(values, dtype=float)
        panels = edges.size - 1
        if (edges.ndim != 1 or values.ndim != 1 or panels < 1
                or values.size == 0 or values.size % panels):
            raise DomainError("panel density needs 1-d edges and the same "
                              "number of 1-d values on every panel")
        if not (np.all(np.isfinite(edges)) and np.all(np.isfinite(values))
                and np.all(np.diff(edges) > 0.0)):
            raise DomainError("panel density needs finite values on finite "
                              "increasing edges")
        order = values.size // panels
        u, w = gauss_rule(order)
        coef = values.reshape(panels, order) @ (
            legvander(u, order - 1) * (w[:, None] * (np.arange(order) + 0.5)))
        mid, half = 0.5 * (edges[1:] + edges[:-1]), 0.5 * np.diff(edges)

        def interpolant(s):
            k = np.clip(np.searchsorted(edges, s, side="right") - 1, 0,
                        panels - 1)
            return legval((s - mid[k]) / half[k], coef[k].T, tensor=False)

        den = cls(interpolant)
        den.edges, den.values = edges.copy(), values.copy()
        den.nodes = _panel_nodes(edges, order)[0]
        return den


def _panel_nodes(edges: np.ndarray, order: int):
    """Gauss-Legendre nodes/weights on each [edges[k], edges[k+1]] panel."""
    x, w = gauss_rule(order)
    lo = edges[:-1][:, None]
    hi = edges[1:][:, None]
    nodes = 0.5 * (lo + hi) + 0.5 * (hi - lo) * x
    weights = 0.5 * (hi - lo) * w
    return nodes.ravel(), weights.ravel()


# Smallest excluded half-gap of the graded rule, as a fraction of the
# curve length.  Narrower gaps would park nodes inside the kernel's
# singular-pair guard band when the grading point sits near an endpoint.
GRADED_MIN_GAP_FRAC = 4.0e-6


def _graded_rule(length: float, s0: float):
    """Dyadic panels of 12-point Gauss rules accumulating at s0 from both
    sides, 16 levels deep; returns (nodes, weights, gap).

    The kernel K4(s0, .) behaves like c*log|t - s0| plus a smooth part
    near s0; dyadic grading restores full Gauss accuracy for that shape.
    The innermost gap around s0 (per side about side_length*2**(-16), but
    never narrower than GRADED_MIN_GAP_FRAC of the total length) is left
    out and returned as ``gap`` = (lo, hi); the trace evaluator integrates
    the log model across it analytically.
    """
    if not 0.0 < s0 < length:
        raise DomainError("grading point must lie strictly inside (0, length)")
    cap = length / 16.0
    floor_gap = GRADED_MIN_GAP_FRAC * length
    node_parts, weight_parts, half_gaps = [], [], []
    for reach, sign in ((s0, -1.0), (length - s0, 1.0)):
        side_levels = min(16, max(2, int(math.log2(reach / floor_gap))))
        breaks = s0 + sign * reach * 0.5 ** np.arange(0, side_levels + 1)
        side_edges = []
        for lo, hi in zip(breaks[:-1], breaks[1:]):
            lo, hi = min(lo, hi), max(lo, hi)
            pieces = max(1, int(math.ceil((hi - lo) / cap)))
            side_edges.append(np.linspace(lo, hi, pieces + 1))
        # each side is one contiguous block; the gap between the two blocks
        # around s0 stays uncovered on purpose
        edges = np.unique(np.concatenate(side_edges))
        nd, wt = _panel_nodes(edges, 12)
        node_parts.append(nd)
        weight_parts.append(wt)
        half_gaps.append(reach * 0.5 ** side_levels)
    nodes = np.concatenate(node_parts)
    weights = np.concatenate(weight_parts)
    idx = np.argsort(nodes, kind="stable")
    return nodes[idx], weights[idx], (s0 - half_gaps[0], s0 + half_gaps[1])


# -- kernel ------------------------------------------------------------------

def _diagonal_sides(curve: Curve, s: np.ndarray) -> np.ndarray:
    """The one-sided offsets s -/+ DIAG_OFFSET_FRAC * length of the
    diagonal limit, as (len(s), 2); NaN marks a side outside (0, l)."""
    delta = DIAG_OFFSET_FRAC * curve.length
    sides = s[:, None] + np.array([-delta, delta])
    sides[(sides <= 0.0) | (sides >= curve.length)] = np.nan
    if np.any(np.all(np.isnan(sides), axis=1)):
        raise DomainError("diagonal limit needs room on at least one side")
    return sides


def _side_means(p: Params, curve: Curve, s: np.ndarray,
                ts: np.ndarray) -> np.ndarray:
    """Row means of K4(s_i, ts[i, k]) over the non-NaN entries of ts,
    from one pairwise kernel call."""
    keep = ~np.isnan(ts)
    src = np.broadcast_to(s[:, None], ts.shape)[keep]
    xs, ys, _, _, nxs, nys, _ = curve.frames(ts[keep])
    x0s, y0s = curve.frames(src)[:2]
    values = np.full(ts.shape, np.nan)
    values[keep] = weighted_dq4_dn_many(p, xs, ys, nxs, nys, (x0s, y0s))
    return np.nanmean(values, axis=1)


def kernel_K4_log_split(p: Params, curve: Curve, s):
    """Log slope and regular part of the kernel near its diagonal.

    The log coefficient of q4 varies with the source point, so the kernel
    keeps a residual c(s) * ln|t - s| term; near the diagonal
    K4(s, t) ~ c(s) * ln|t - s| + regular(s).  The slope has the closed
    form c(s) = (alpha n_x / x + beta n_y / y) / (2 pi) at Gamma(s), the
    leading term of q4 at coincident points; the regular part is the
    diagonal limit at offset d = DIAG_OFFSET_FRAC * length minus c ln d.

    ``s`` is one arclength or an array of them inside (0, l); an array
    gives arrays of its shape.  Every call evaluates the diagonal offsets
    of every arclength in one pairwise kernel call: 2 len(s) pairs.
    """
    s_arr = np.asarray(s, dtype=float).ravel()
    if not np.all((s_arr > 0.0) & (s_arr < curve.length)):
        raise DomainError("log split needs arclengths strictly inside (0, l)")
    x, y, _, _, nx, ny, _ = curve.frames(s_arr)
    slope = (p.alpha * nx / x + p.beta * ny / y) / (2.0 * math.pi)
    d_inner = _side_means(p, curve, s_arr, _diagonal_sides(curve, s_arr))
    regular = d_inner - slope * math.log(DIAG_OFFSET_FRAC * curve.length)
    if np.ndim(s) == 0:
        return float(slope[0]), float(regular[0])
    return slope.reshape(np.shape(s)), regular.reshape(np.shape(s))


def _weighted_row(p: Params, curve: Curve, ts: np.ndarray,
                  source: Point) -> np.ndarray:
    """Weighted conormal derivative of q4(.; source) at curve points ts."""
    xs, ys, _, _, nxs, nys, _ = curve.frames(ts)
    return weighted_dq4_dn_many(p, xs, ys, nxs, nys, source)


def kernel_K4_row(p: Params, curve: Curve, s: float, ts) -> np.ndarray:
    """Double-layer kernel K4(s, t) = x(t)^(2a) y(t)^(2b) dq4/dn_t over an
    array of arclengths t.  t = s is the singular pair and raises
    SingularPairError; ``kernel_K4_log_split`` models the kernel there."""
    x0, y0 = curve.frames(float(s))[:2]
    return _weighted_row(p, curve, np.asarray(ts, dtype=float),
                         Point(float(x0), float(y0)))


# -- geometry queries --------------------------------------------------------

def nearest_arclength(curve: Curve, P: Point) -> tuple[float, float]:
    """Arclength of the curve point nearest to P, and the distance.

    Coarse scan of the arc followed by Newton steps on the stationarity
    condition (Gamma(s) - P) . T(s) = 0.
    """
    ss = np.linspace(0.0, curve.length, 257)
    xs, ys = curve.frames(ss)[:2]
    s = float(ss[int(np.argmin((xs - P.x) ** 2 + (ys - P.y) ** 2))])
    for _ in range(8):
        cp = curve.point_at(s)
        rx, ry = cp.x - P.x, cp.y - P.y
        g = rx * cp.tangent[0] + ry * cp.tangent[1]
        # d/ds of g: |T|^2 + (Gamma - P) . kappa N
        gp = 1.0 + cp.curvature * (rx * cp.normal[0] + ry * cp.normal[1])
        if gp == 0.0:
            break
        step = g / gp
        s = min(max(s - step, 0.0), curve.length)
        if abs(step) < 1.0e-14 * curve.length:
            break
    cp = curve.point_at(s)
    return s, math.hypot(cp.x - P.x, cp.y - P.y)


def classify(curve: Curve, P: Point) -> str:
    """Classify P against the closed domain: "inside", "on", or "outside".

    Uses the implicit value of the arc with an on-curve band of ON_CURVE_TOL;
    points within AMBIGUOUS_DIST of the arc that miss the band raise
    AmbiguousClassificationError.
    """
    if not (P.x > 0.0 and P.y > 0.0):  # false for NaN as well
        raise DomainError("classification needs a point in the open quadrant")
    value = curve.implicit_value(P.x, P.y)
    if abs(value) <= ON_CURVE_TOL:
        return "on"
    # cheap distance bound from the implicit gradient before the expensive
    # nearest-point search
    q = curve.q
    gx = q / curve.a * (P.x / curve.a) ** (q - 1.0)
    gy = q / curve.b * (P.y / curve.b) ** (q - 1.0)
    d_est = abs(value) / math.hypot(gx, gy)
    if d_est <= 10.0 * AMBIGUOUS_DIST:
        _, dist = nearest_arclength(curve, P)
        if dist <= AMBIGUOUS_DIST:
            raise AmbiguousClassificationError(
                f"point ({P.x}, {P.y}) lies {dist:.3e} from the curve, "
                "inside the ambiguity band")
    return "inside" if value < 0.0 else "outside"


# -- double-layer potential ----------------------------------------------------

def _gauss_panels(f: Callable, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """12-point Gauss values of int f on each [lo[k], hi[k]], one f call."""
    x, w = gauss_rule(12)
    half = 0.5 * (hi - lo)[:, None]
    s = 0.5 * (lo + hi)[:, None] + half * x
    return np.einsum("ij,ij->i", half * w, f(s.ravel()).reshape(s.shape))


def _layer_panels(p: Params, curve: Curve, mu: Density, P0: Point,
                  lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """12-point Gauss values of the layer integral on the panels
    [lo[k], hi[k]], from one frames call and one kernel call for all."""
    return _gauss_panels(lambda s: _weighted_row(p, curve, s, P0) * mu(s),
                         lo, hi)


def _bisect(panels: Callable, lo: np.ndarray, hi: np.ndarray, tol: float,
            rtol: float) -> tuple[float, float]:
    """Adaptive sum of ``panels(lo, hi)``, the per-panel integral values.

    Breadth-first bisection: each level evaluates the halves of all live
    panels in one call and accepts a panel when |parent - (left + right)|
    is within its budget (``tol`` shared by the root panels, halved at every
    level) plus ``rtol`` |left + right|.  Splitting stops after 49 levels or
    beyond 1024 live panels.  Returns the integral and the sum, over all
    panels accepted or left live at the stop, of the part of
    |parent - (left + right)| beyond ``rtol`` |left + right|: above ``tol``
    only if the subdivision stalled.
    """
    parent = panels(lo, hi)
    budget = tol / lo.size
    total = err = 0.0
    for depth in range(49):
        mid = 0.5 * (lo + hi)
        left, right = np.split(panels(np.concatenate((lo, mid)),
                                      np.concatenate((mid, hi))), 2)
        pair = left + right
        diff = np.abs(parent - pair)
        floor = rtol * np.abs(pair)
        done = diff <= budget + floor
        done |= depth == 48 or np.count_nonzero(~done) > 1024
        total += float(np.sum(pair[done]))
        err += float(np.sum(np.maximum(diff - floor, 0.0)[done]))
        if done.all():
            return total, err
        live = ~done
        lo, hi = (np.concatenate((lo[live], mid[live])),
                  np.concatenate((mid[live], hi[live])))
        parent = np.concatenate((left[live], right[live]))
        budget *= 0.5


def _near_field(p: Params, curve: Curve, mu: Density, P0: Point,
                lo: np.ndarray, hi: np.ndarray, tol: float) -> float:
    """The layer integral at P0 over the panels [lo[k], hi[k]], bisected
    (``_bisect``) to the absolute error ``tol`` above the rounding floor
    NEAR_FIELD_RTOL; a stalled subdivision raises ConvergenceError."""
    total, err = _bisect(lambda a, b: _layer_panels(p, curve, mu, P0, a, b),
                         lo, hi, tol, NEAR_FIELD_RTOL)
    if err > tol:
        raise ConvergenceError(
            "near-boundary subdivision stalled; evaluation point is "
            "effectively on the curve, use boundary_trace")
    return total


def double_layer(p: Params, curve: Curve, mu: Density, P0: Point,
                 tol: float = NEAR_FIELD_TOL) -> float:
    """Double-layer potential of any density at an off-curve point P0.

    Adaptive panel bisection (``_near_field``) of 8 uniform root panels to
    the absolute error ``tol``, above the rounding floor NEAR_FIELD_RTOL,
    keeps the near-boundary peak (width comparable to the distance to the curve)
    resolved.  The integral runs over the whole arc.
    """
    if not (P0.x > 0.0 and P0.y > 0.0):  # false for NaN as well
        raise DomainError("evaluation point must lie in the open quadrant")
    edges = np.linspace(0.0, curve.length, 9)
    return _near_field(p, curve, mu, P0, edges[:-1], edges[1:], tol)


# -- gauge function ------------------------------------------------------------

def k_gauge(p: Params, a: float, b: float, P0: Point) -> float:
    """Gauge function k(x0, y0): the axis-segment flux of q4(.; P0).

    Two 1-d integrals over the axis segments [0, a] and [0, b] of the
    analytic axis limits of the weighted gradient, each split at the foot
    of P0 and bisected adaptively (``_bisect``) to an error of 1e-12 plus
    1e-12 of the integral.  On the x axis the limit is that of y^(2b) dq4/dy,
    whose only term surviving y -> 0 carries y^(-2b) and collapses to a 2F1
    in the chord variable (the y axis swaps the roles); the nodes of a
    bisection level take their 2F1 values in one ``gauss_2f1`` call.
    Defined for any P0 in the open quadrant.
    """
    if a <= 0.0 or b <= 0.0:
        raise DomainError("axis segment lengths must be positive")
    if not (P0.x > 0.0 and P0.y > 0.0):  # false for NaN as well
        raise DomainError("gauge function needs a point in the open quadrant")
    pref = (k4_constant(p) * P0.x ** (1.0 - 2.0 * p.alpha)
            * P0.y ** (1.0 - 2.0 * p.beta))
    ab = p.alpha + p.beta

    def axis(length, c, h, e):
        # source at c along the axis and h off it, weight exponent e along
        def limit(t):
            d2 = (t - c) ** 2 + h ** 2
            f = gauss_2f1(2.0 - ab, 1.0 - e, 2.0 - 2.0 * e,
                          -4.0 * t * c / d2)
            return t * d2 ** (ab - 2.0) * f
        edges = np.array([0.0, c, length] if c < length else [0.0, length])
        return _bisect(lambda lo, hi: _gauss_panels(limit, lo, hi),
                       edges[:-1], edges[1:], 1.0e-12, 1.0e-12)

    vx, ex = axis(a, P0.x, P0.y, p.alpha)
    vy, ey = axis(b, P0.y, P0.x, p.beta)
    err = abs(pref) * ((1.0 - 2.0 * p.beta) * ex + (1.0 - 2.0 * p.alpha) * ey)
    if err > 1.0e-9:
        raise ConvergenceError(
            f"gauge quadrature error estimate {err:.2e} too large")
    return pref * ((1.0 - 2.0 * p.beta) * vx + (1.0 - 2.0 * p.alpha) * vy)


# -- boundary traces -------------------------------------------------------------

_trace_cache: "weakref.WeakKeyDictionary[Curve, dict]" = weakref.WeakKeyDictionary()


def _trace_integral(p: Params, curve: Curve, mu: Density, s: float) -> float:
    """int_0^l mu(t) K4(s, t) dt with the log-graded rule ``_graded_rule``.

    The kernel row and the gap correction depend only on (p, s), so they
    are cached per curve; different densities and the two trace sides
    reuse the same row.
    """
    cache = _trace_cache.setdefault(curve, {})
    key = (p.alpha, p.beta, float(s))
    entry = cache.get(key)
    if entry is None:
        nodes, weights, (lo, hi) = _graded_rule(curve.length, s)
        row = kernel_K4_row(p, curve, s, nodes)
        slope, regular = kernel_K4_log_split(p, curve, s)
        # The row integral excludes the gap; integrate the near-diagonal
        # model c ln|t - s| + regular across it exactly.
        left, right = s - lo, hi - s
        log_part = (left * (math.log(left) - 1.0)
                    + right * (math.log(right) - 1.0))
        gap_weight = regular * (hi - lo) + slope * log_part
        entry = (nodes, weights, row, gap_weight)
        cache[key] = entry
    nodes, weights, row, gap_weight = entry
    return float(np.dot(weights, row * mu(nodes)) + gap_weight * mu(s))


def boundary_trace(p: Params, curve: Curve, mu: Density, s: float,
                   side: str) -> float:
    """One-sided limit of the double-layer potential on the curve.

    interior trace = -mu(s)/2 + w0(s), exterior trace = +mu(s)/2 + w0(s),
    where w0 is the on-curve integral computed with the log-graded rule
    ``_graded_rule`` (16 levels of 12-point panels).  Both sides share the
    same w0.
    """
    if side not in ("interior", "exterior"):
        raise DomainError(f"side must be 'interior' or 'exterior', got {side!r}")
    if not 0.0 < s < curve.length:
        raise DomainError("trace arclength must lie strictly inside (0, l)")
    w0 = _trace_integral(p, curve, mu, s)
    jump = -0.5 if side == "interior" else 0.5
    return jump * float(mu(s)) + w0


# -- flux identities -------------------------------------------------------------

def contour_flux(p: Params, curve: Curve, Q: Point) -> float:
    """Weighted flux of q4(.; Q) through the closed boundary of the domain.

    The curve part is the unit-density double layer at Q (``double_layer``,
    adaptive to NEAR_FIELD_TOL); the two axis segments contribute exactly
    -k_gauge(Q) through their analytic limits.  Equals -1 for Q inside the
    domain and 0 for Q outside: the off-curve gauge identity.  A source
    closer to the curve than the bisection resolves raises
    ConvergenceError.
    """
    if classify(curve, Q) == "on":
        raise DomainError("flux source must not lie on the curve")
    curve_part = double_layer(p, curve, Density.constant(1.0), Q)
    return curve_part - k_gauge(p, curve.a, curve.b, Q)


# -- the three-case gauge identity ----------------------------------------------

class GaugeIdentityResult(NamedTuple):
    classification: str
    lhs: float
    rhs: float
    residual: float


def gauge_identity_verify(p: Params, curve: Curve,
                          P0: Point) -> GaugeIdentityResult:
    """Check the constant-density double-layer value against the gauge function.

    The unit-density potential w1 equals k(P0) - 1 inside the domain,
    k(P0) - 1/2 on the curve, and k(P0) outside.  Returns the classification,
    the quadrature value w1, the predicted value, and their distance.
    """
    classification = classify(curve, P0)
    k = k_gauge(p, curve.a, curve.b, P0)
    one = Density.constant(1.0)
    if classification == "on":
        s0, _ = nearest_arclength(curve, P0)
        lhs = _trace_integral(p, curve, one, s0)
        rhs = k - 0.5
    else:
        lhs = double_layer(p, curve, one, P0)
        rhs = k - 1.0 if classification == "inside" else k
    return GaugeIdentityResult(classification, lhs, rhs, abs(lhs - rhs))
