"""Nystrom solver for the interior Dirichlet problem via the double layer.

The interior trace relation turns the Dirichlet problem into a second-kind
Fredholm equation for the density mu:

    -mu(s)/2 + int K4(s, t) mu(t) dt = f(s).

The kernel is smooth away from the diagonal but carries a residual
c(s) * log|t - s| term there (the log coefficient of q4 varies with the
source point, so its normal derivative keeps a logarithm).  Plain Nystrom
weights would lose that term, so the panels adjacent to each collocation
node use product-integration weights built from exact log moments, with the
regular part recovered by subtracting the closed-form log slope.

The collocation panels span the whole arc [0, l].  Gauss nodes never sit
at the axis endpoints s = 0 and s = l, where the weight x^(2a) y^(2b)
vanishes algebraically, and the solved density takes the end exponents
1 - 2a and 1 - 2b the theory predicts.

``evaluate_many`` integrates the solved density, the per-panel Nystrom
interpolant, over the arc cut at its nodes and panel edges: far
pieces take a Gauss rule sized by their standoff from the target, batched
over all targets, and only near pieces are bisected.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError, SolveError
from .geometry import Curve, Point
from .kernel import (Params, kernel_families, q4_many,
                     weighted_dq4_dn_many)
from .potential import (NEAR_FIELD_TOL, Density, _near_field, _panel_nodes,
                        kernel_K4_log_split)
from .specfun import gauss_rule

__all__ = [
    "PANEL_ORDER", "NystromSystem",
    "assemble", "solve_dirichlet", "evaluate", "evaluate_many",
    "manufactured_data", "default_exterior_source", "convergence_study",
    "condition_estimate",
]

# Gauss order of the collocation panels.
PANEL_ORDER = 8


def _far_orders(ratio: np.ndarray) -> np.ndarray:
    """Gauss order of a far piece at ratio = min(bound, 1/|kappa|, end) / h,
    with end its distance to the nearer end of the arc: the fewest points
    m whose Bernstein-ellipse bound (4 ratio)^(-2 m) stays within 4^(-24),
    the 12-point bound at ratio 1 (12 points below it)."""
    return np.where(ratio < 4.0, 12, np.where(ratio < 16.0, 6, 4))


@functools.cache
def _lagrange_coeffs(order: int) -> np.ndarray:
    """Monomial coefficients of the Lagrange basis on Gauss nodes in [-1, 1].

    Column k holds the coefficients of L_k, lowest power first: the
    product of (u - u_j) over the other nodes, over its value at u_k.
    """
    u, _ = gauss_rule(order)
    return np.array([np.poly(np.delete(u, k))[::-1] / np.prod(
        u[k] - np.delete(u, k)) for k in range(order)]).T


def _log_panel_weights(lo, hi, s0, order: int) -> np.ndarray:
    """Weights integrating ln|t - s0| against panel-node values exactly.

    lambda_k = int_lo^hi ln|t - s0| L_k(t) dt for the Gauss-order Lagrange
    basis on [lo, hi]; exact for data from polynomials of the panel degree.
    Scalar arguments give the ``order`` weights, arrays a row per panel.
    With s0 at nu on the panel mapped to [-1, 1], the log moments come from
    the monomial recursion (Helsing & Ojala 2008, J. Comput. Phys.
    227:8820): (r+1) int_{-1}^{1} u^r ln|u - nu| du = ln|1-nu| +
    (-1)^r ln|1+nu| + T_r, T_r = nu T_(r-1) - int u^r, T_(-1) =
    ln|(1+nu)/(1-nu)|; for |nu| >= 1.5, where that step loses a factor |nu|,
    T_r runs down from T_(order-1) = 2 sum_(odd k > order) nu^(order-k)/k.
    """
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    half = np.atleast_1d(0.5 * (hi - lo))
    nu = np.atleast_1d((s0 - 0.5 * (lo + hi))) / half
    with np.errstate(divide="ignore"):
        logs = np.log(np.abs(1.0 - nu)), np.log(np.abs(1.0 + nu))
    # a log is infinite only at nu = +-1, where its coefficient vanishes
    lp, lm = (np.where(np.isinf(v), 0.0, v) for v in logs)
    r = np.arange(order)
    plain = np.where(r % 2 == 0, 2.0 / (r + 1.0), 0.0)
    t = np.empty((nu.size, order))
    near, far = np.abs(nu) < 1.5, np.abs(nu) >= 1.5
    prev = (lm - lp)[near]
    for k in range(order):
        prev = t[near, k] = nu[near] * prev - plain[k]
    inv = 1.0 / nu[far]
    odd = np.arange(order + 1 + order % 2, order + 121, 2)
    t[far, -1] = 2.0 * (inv[:, None] ** (odd - order) / odd).sum(axis=1)
    for k in range(order - 1, 0, -1):
        t[far, k - 1] = (t[far, k] + plain[k]) * inv
    log_part = (lp[:, None] + (-1.0) ** r * lm[:, None] + t) / (r + 1.0)
    moments = half[:, None] * (np.log(half)[:, None] * plain + log_part)
    lam = np.einsum("nr,rk->nk", moments, _lagrange_coeffs(order))
    return lam.reshape(np.shape(s0 - lo + hi) + (order,))


@dataclass
class NystromSystem:
    """Discretised second-kind system on n/8 uniform panels of [0, l].

    ``matrix`` is -I/2 plus the quadrature of the kernel; rows belonging to
    panels adjacent to the collocation node carry the product-integration
    correction for the kernel's diagonal log term.  ``log_slope`` stores the
    closed-form per-node log coefficients, ``regular_diag`` the log-free
    diagonal values.
    """

    n: int
    nodes: np.ndarray
    weights: np.ndarray
    edges: np.ndarray
    matrix: np.ndarray
    rhs: np.ndarray | None
    log_slope: np.ndarray
    regular_diag: np.ndarray


def assemble(p: Params, curve: Curve, n: int,
             f: Callable | None = None) -> NystromSystem:
    """Build the collocation system with n nodes on n/8 uniform panels
    spanning the arc [0, l].

    ``f`` is optional boundary data evaluated at the nodes into the rhs.
    A kernel evaluation that fails raises SolveError naming the first
    failing row and its arclength.
    """
    if n < 16:
        raise DomainError(f"need at least 16 nodes, got {n}")
    if n % PANEL_ORDER != 0:
        raise DomainError(f"node count must be a multiple of {PANEL_ORDER}")
    panels = n // PANEL_ORDER
    edges = np.linspace(0.0, curve.length, panels + 1)
    nodes, weights = _panel_nodes(edges, PANEL_ORDER)

    xs, ys, _, _, nxs, nys, _ = curve.frames(nodes)

    # Row i is the source node, column j the curve point.  The F2 families
    # are symmetric in the pair, so one call on the upper triangle serves
    # both halves; only the closed forms differ.
    iu, ju = np.triu_indices(n, 1)
    kernel = np.zeros((n, n))
    try:
        families = kernel_families(p, xs[ju], ys[ju], (xs[iu], ys[iu]))
        kernel[iu, ju] = weighted_dq4_dn_many(
            p, xs[ju], ys[ju], nxs[ju], nys[ju], (xs[iu], ys[iu]), families)
        kernel[ju, iu] = weighted_dq4_dn_many(
            p, xs[iu], ys[iu], nxs[iu], nys[iu], (xs[ju], ys[ju]), families)
        log_slope, regular_diag = kernel_K4_log_split(p, curve, nodes)
    except Exception as exc:
        i, exc = _first_failure(p, curve, nodes, xs, ys, nxs, nys, exc)
        where = "" if i is None else f" on row {i} (s = {nodes[i]:.6f})"
        raise SolveError(f"kernel evaluation failed{where}: {exc}") from exc

    matrix = weights * kernel
    # the product-integration weights of every (row, adjacent panel) pair
    pairs = [(i, q) for i in range(n)
             for q in range(max(0, i // PANEL_ORDER - 1),
                            min(panels, i // PANEL_ORDER + 2))]
    rows, cols = np.array(pairs).T
    lams = _log_panel_weights(edges[cols], edges[cols + 1], nodes[rows],
                              PANEL_ORDER)
    # on those panels the kernel minus its log term is regular (the
    # diagonal takes the regular part), and lams integrate the log term
    i = rows[:, None]
    j = cols[:, None] * PANEL_ORDER + np.arange(PANEL_ORDER)
    diag = j == i
    slope = log_slope[i]
    gap = np.log(np.where(diag, 1.0, np.abs(nodes[j] - nodes[i])))
    matrix[i, j] = (weights[j] * np.where(diag, regular_diag[i],
                                          kernel[i, j] - slope * gap)
                    + slope * lams)
    matrix[np.arange(n), np.arange(n)] += -0.5

    rhs = None
    if f is not None:
        rhs = np.asarray(f(nodes), dtype=float)
        if rhs.shape != nodes.shape or not np.all(np.isfinite(rhs)):
            raise DomainError("boundary data must be finite at all nodes")
    return NystromSystem(n=n, nodes=nodes, weights=weights, edges=edges,
                         matrix=matrix, rhs=rhs, log_slope=log_slope,
                         regular_diag=regular_diag)


def _first_failure(p: Params, curve: Curve, nodes, xs, ys, nxs, nys,
                   exc: Exception) -> tuple[int | None, Exception]:
    """The first row whose kernel evaluations raise, replayed row by row as
    the row's off-diagonal pairs and then its log split, with its error;
    (None, exc) when no row fails on its own."""
    for i in range(nodes.size):
        others = np.arange(nodes.size) != i
        try:
            weighted_dq4_dn_many(p, xs[others], ys[others], nxs[others],
                                 nys[others], Point(xs[i], ys[i]))
            kernel_K4_log_split(p, curve, float(nodes[i]))
        except Exception as row_exc:
            return i, row_exc
    return None, exc


def condition_estimate(sys: NystromSystem) -> float:
    """Two-norm condition number of the collocation matrix.

    Singular or non-finite matrices give math.inf.
    """
    try:
        cond = float(np.linalg.cond(sys.matrix, 2))
    except np.linalg.LinAlgError:
        return math.inf
    return cond if math.isfinite(cond) else math.inf


def solve_dirichlet(sys: NystromSystem) -> Density:
    """Direct dense solve of the collocation system.

    Returns the Nystrom interpolant ``Density.from_panels(sys.edges, mu)``:
    on each panel the degree-7 polynomial through its node values.
    Residual worse than 1e-10 * ||f||_inf or a singular matrix raises
    SolveError with the condition estimate.
    """
    f = sys.rhs
    if f is None:
        raise SolveError("system has no right-hand side; assemble with data")
    try:
        mu = np.linalg.solve(sys.matrix, f)
    except np.linalg.LinAlgError as exc:
        raise SolveError(
            f"matrix numerically singular (condition estimate "
            f"{condition_estimate(sys):.3e})") from exc
    residual = float(np.max(np.abs(sys.matrix @ mu - f)))
    scale = float(np.max(np.abs(f)))
    if residual > 1.0e-10 * max(scale, 1.0e-300):
        raise SolveError(
            f"solve residual {residual:.3e} exceeds 1e-10 * ||f||_inf "
            f"(condition estimate {condition_estimate(sys):.3e})")
    return Density.from_panels(sys.edges, mu)


def evaluate_many(p: Params, curve: Curve, mu: Density, targets) -> np.ndarray:
    """Potential of a density on panels at many interior points.

    ``targets`` are Points in the open quadrant; the result holds one value
    per target, the integral over the arc.

    The arc is cut into pieces at the density's nodes and panel edges
    (``mu.nodes`` and ``mu.edges``, which must span [0, l]): the density
    is one polynomial on each piece, and no rule straddles its jumps at
    the panel edges.  A piece [lo, hi] of length h is far from a target P
    when h <= |P - Gamma(mid)| - h/2, a lower bound of the distance from P
    to the piece (arclength is at least the chord).
    A far piece takes the 12-, 6- or 4-point Gauss rule ``_far_orders``
    gives its ratio min(bound, 1/|kappa|, end) / h: the target's standoff,
    the radius of curvature where that is shorter (near a sharp corner the
    curve's own parametrisation limits the rule), with |kappa| the largest
    at the midpoints of the piece and its two neighbours, or the piece's
    distance to the nearer end of the arc, where the weight
    x^(2a) y^(2b) is algebraic.  All far pieces
    of all targets come from one frames call and one kernel call with
    per-pair sources.  A target's near pieces are the root panels of the
    near-field evaluator of ``potential.double_layer``
    (``potential._near_field``) at NEAR_FIELD_TOL; a stalled subdivision
    raises ConvergenceError (the point is effectively on the curve).  Each
    target is summed in a fixed order from its own pieces only, so its
    value does not depend on the other targets of the batch.

    A density without panels, or with panels that do not span the arc,
    raises DomainError: closed-form densities go to
    ``potential.double_layer``.
    """
    if getattr(mu, "edges", None) is None:
        raise DomainError("evaluate_many needs a density on panels; use "
                          "double_layer for closed forms")
    xy = np.array([(t.x, t.y) for t in targets], dtype=float).reshape(-1, 2)
    if not np.all(np.isfinite(xy) & (xy > 0.0)):
        raise DomainError("evaluation points must lie in the open quadrant")
    if not (mu.edges[0] == 0.0 and mu.edges[-1] == curve.length):
        raise DomainError("evaluate_many needs panels spanning the arc "
                          "[0, length]")
    edges = np.sort(np.concatenate((mu.edges, mu.nodes)))
    h = np.diff(edges)
    mid = 0.5 * (edges[:-1] + edges[1:])
    mx, my, *_, kappa = curve.frames(mid)
    bound = np.hypot(xy[:, :1] - mx, xy[:, 1:] - my) - 0.5 * h
    far = h <= bound
    # a piece's curvature is the largest at its own and its neighbours'
    # midpoints, so that a piece beside a sharp corner sees the corner
    curv = np.pad(np.abs(kappa), 1)
    curv = np.maximum.reduce([curv[:-2], curv[1:-1], curv[2:]])
    with np.errstate(divide="ignore"):
        radius = 1.0 / curv
    # and no farther than the nearer end, where the weight is algebraic
    radius = np.minimum(radius, np.minimum(edges[:-1],
                                           curve.length - edges[1:]))

    # every far (target, piece) pair in one batch, one block per order,
    # then grouped by target, each in order 12, 6, 4 and by piece
    rows, cols = np.nonzero(far)
    orders = _far_orders(np.minimum(bound[rows, cols], radius[cols]) / h[cols])
    parts = []
    for m in (12, 6, 4):
        pick = orders == m
        x, w = gauss_rule(m)
        half = 0.5 * h[cols[pick], None]
        parts.append(((mid[cols[pick], None] + half * x).ravel(),
                      (half * w).ravel(), np.repeat(rows[pick], m)))
    s, wts, owner = (np.concatenate(v) for v in zip(*parts))
    by_target = np.argsort(owner, kind="stable")
    s, wts, owner = s[by_target], wts[by_target], owner[by_target]
    xs, ys, _, _, nxs, nys, _ = curve.frames(s)
    kern = weighted_dq4_dn_many(p, xs, ys, nxs, nys,
                                (xy[owner, 0], xy[owner, 1]))
    terms = wts * kern * mu(s)
    cuts = np.searchsorted(owner, np.arange(xy.shape[0] + 1))

    out = np.empty(xy.shape[0])
    for i, (px, py) in enumerate(xy.tolist()):
        out[i] = float(np.sum(terms[cuts[i]:cuts[i + 1]]))
        near = ~far[i]
        if near.any():
            out[i] += _near_field(p, curve, mu, Point(px, py),
                                  edges[:-1][near], edges[1:][near],
                                  NEAR_FIELD_TOL)
    return out


def evaluate(p: Params, curve: Curve, mu: Density, P0: Point) -> float:
    """Potential of a density on panels at one interior point: the one-target
    case of ``evaluate_many``, with the same pieces and the same rules."""
    return float(evaluate_many(p, curve, mu, [P0])[0])


def default_exterior_source(curve: Curve) -> Point:
    """Stock source for manufactured solutions, outside the closed domain."""
    return Point(1.5 * curve.a, 1.5 * curve.b)


def manufactured_data(p: Params, curve: Curve,
                      source: Point | None = None) -> Callable:
    """Boundary data of the exact solution u* = q4(.; source) on the curve."""
    src = default_exterior_source(curve) if source is None else source

    def f(s):
        xs, ys = curve.frames(np.atleast_1d(np.asarray(s, dtype=float)))[:2]
        vals = q4_many(p, xs, ys, src)
        return vals if np.ndim(s) else float(vals[0])

    return f


def convergence_study(p: Params, curve: Curve, ns, probes,
                      source: Point | None = None) -> dict:
    """Manufactured-solution study over node counts.

    For each n: assemble on n/8 panels of the whole arc, solve,
    evaluate at all probes in one ``evaluate_many`` call, and compare with
    the exact exterior-source solution.  Returns per-n max probe errors and
    the least-squares convergence order, which needs at least two distinct
    node counts.
    """
    src = default_exterior_source(curve) if source is None else source
    f = manufactured_data(p, curve, src)
    probes = [probe if isinstance(probe, Point) else Point(*probe)
              for probe in probes]
    px = np.array([q.x for q in probes])
    py = np.array([q.y for q in probes])
    exact = q4_many(p, px, py, src)
    ns = [int(v) for v in ns]
    if len(set(ns)) < 2:
        raise DomainError("convergence study needs at least two distinct "
                          "node counts")
    errors = []
    for n in ns:
        sys = assemble(p, curve, n, f=f)
        mu = solve_dirichlet(sys)
        values = evaluate_many(p, curve, mu, probes)
        errors.append(float(np.max(np.abs(values - exact))))
    slope = np.polyfit(np.log(np.asarray(ns, dtype=float)),
                       np.log(np.asarray(errors)), 1)[0]
    return {"ns": ns, "errors": errors, "order": float(-slope)}
