"""Double-layer potential, gauge function, boundary traces and flux.

The gauge reference values marked "30-digit" come from an independent
adaptive-quadrature evaluation of the two axis integrals at 30-digit
precision.
"""

import math
from types import SimpleNamespace

import numpy as np
import pytest

from biaxpot import (AmbiguousClassificationError, Curve, Density,
                     DomainError, Params, Point, SingularPairError, classify,
                     contour_flux, double_layer, dq4_dn,
                     gauge_identity_verify, k_gauge, kernel_K4_log_split,
                     kernel_K4_row, nearest_arclength)
from biaxpot import potential
from biaxpot.bie import evaluate_many
from biaxpot.potential import (NEAR_FIELD_TOL, _graded_rule, _panel_nodes,
                               _trace_integral, _weighted_row, boundary_trace)
from biaxpot.errors import ConvergenceError
from biaxpot.kernel import k4_constant
from biaxpot.specfun import gauss_2f1, gauss_rule

P25 = Params(0.25, 0.25)


# -- quadrature rules -------------------------------------------------------------

def test_graded_rule_leaves_gap(curve):
    s0 = 0.3 * curve.length
    nodes, weights, (lo, hi) = _graded_rule(curve.length, s0)
    assert np.all(weights > 0.0)
    assert lo < s0 < hi
    assert not np.any((nodes > lo) & (nodes < hi))
    # nodes cover everything else up to the gap
    assert weights.sum() == pytest.approx(curve.length - (hi - lo),
                                          rel=1e-12)


def test_graded_rule_rejects_endpoint_grading(curve):
    with pytest.raises(DomainError):
        _graded_rule(curve.length, 0.0)


# -- kernel on the curve ----------------------------------------------------------

def kernel_K4(p, curve, s, t):
    """K4(s, t) at one pair, from a one-entry kernel row."""
    return float(kernel_K4_row(p, curve, s, [t])[0])


def test_kernel_vanishes_at_axis_endpoint(curve):
    s = 0.3 * curve.length
    vals = [abs(kernel_K4(P25, curve, s, curve.length * (1.0 - off)))
            for off in (1e-2, 1e-3, 1e-4)]
    assert vals[0] > vals[1] > vals[2]
    assert vals[2] <= 1.0e-3


def test_kernel_is_weighted_conormal(curve):
    s, t = 0.25 * curve.length, 0.7 * curve.length
    cp = curve.point_at(t)
    source = curve.point_at(s)
    want = (cp.x ** (2 * P25.alpha) * cp.y ** (2 * P25.beta)
            * dq4_dn(P25, cp, Point(source.x, source.y)))
    assert kernel_K4(P25, curve, s, t) == pytest.approx(want, rel=1e-12)


def test_kernel_operational_diagonal(curve):
    # the log split at the stock offset d gives back the average of the
    # one-sided kernel values there; the two sides agree because the log
    # term is even
    s = 0.5 * curve.length
    d = potential.DIAG_OFFSET_FRAC * curve.length
    plus, minus = kernel_K4_row(P25, curve, s, [s + d, s - d])
    assert abs(plus - minus) <= 1.0e-6
    slope, regular = kernel_K4_log_split(P25, curve, s)
    diag = regular + slope * math.log(d)
    assert diag == pytest.approx(0.5 * (plus + minus), rel=1e-12)
    # frozen from the quintic arclength map, which places the points at
    # s and s +- d within 1e-15 of tests/data/arclength_references.json.
    # The pin holds this arithmetic, not the exact-geometry value: at this
    # d, n.(P - Q) ~ kappa d^2 / 2 ~ 1e-10 meets coordinates rounded at
    # 1e-16, so shifting s by a few ulps moves diag by up to 2.5e-8
    # relative; to first order in that rounding the mpmath points give
    # -0.89431718955
    assert diag == pytest.approx(-0.8943172084786077, rel=1e-9)


def test_kernel_log_split_models_near_diagonal(curve):
    # slope*log(d) + regular matches the kernel up to an O(d log d)
    # remainder, and the log term is even across the diagonal
    s = 0.4 * curve.length
    slope, regular = kernel_K4_log_split(P25, curve, s)
    errs = []
    for f in (1.0e-3, 1.0e-4, 1.0e-5):
        d = f * curve.length
        model = slope * math.log(d) + regular
        errs.append(abs(model - kernel_K4(P25, curve, s, s + d)))
    d = 1.0e-5 * curve.length
    assert abs(kernel_K4(P25, curve, s, s + d)
               - kernel_K4(P25, curve, s, s - d)) <= 1.0e-4
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] <= 2.0e-5
    assert errs[2] <= errs[0] / 30.0


def test_kernel_log_split_array_matches_scalar(monkeypatch):
    # separate curves, so that the two forms share no curve state
    ss = np.linspace(0.01, 0.99, 9)
    calls = []
    pairwise = potential.weighted_dq4_dn_many

    def counted(*args):
        calls.append(np.size(args[1]))
        return pairwise(*args)

    monkeypatch.setattr(potential, "weighted_dq4_dn_many", counted)
    c_array = Curve(1.0, 1.0, 3.0)
    slopes, regulars = kernel_K4_log_split(P25, c_array, ss * c_array.length)
    assert calls == [2 * ss.size]  # one pairwise call for every offset
    c_scalar = Curve(1.0, 1.0, 3.0)
    for k, s in enumerate(ss * c_scalar.length):
        assert (slopes[k], regulars[k]) == kernel_K4_log_split(P25, c_scalar,
                                                               float(s))
    # a repeat call on the same curve evaluates every offset again, in one
    # call, and gives the same split
    calls.clear()
    again = kernel_K4_log_split(P25, c_scalar, ss[:3] * c_scalar.length)
    assert calls == [2 * 3]
    assert np.array_equal(again[0], slopes[:3])
    assert np.array_equal(again[1], regulars[:3])


@pytest.mark.parametrize("alpha, beta", [(0.25, 0.25), (0.1, 0.4),
                                         (0.01, 0.49)])
@pytest.mark.parametrize("q", [2.0, 3.0, 8.0])
@pytest.mark.parametrize("a", [1.0, 6.0])
def test_kernel_log_slope_is_the_limit_of_offset_fits(alpha, beta, q, a):
    # two-offset fits (D(o1) - D(o2)) / ln(o1 / o2) of the symmetrised
    # kernel D converge to the closed-form slope as the offsets shrink, near
    # the ends as well as inside; the regular part is the diagonal limit
    # minus slope * ln(offset), bitwise
    p, curve = Params(alpha, beta), Curve(a, 1.0, q)
    fracs = np.array([0.05, 0.3, 0.5, 0.7, 0.95])
    s = fracs * curve.length
    slope, regular = kernel_K4_log_split(p, curve, s)
    offsets = np.array([1.0e-3, 1.0e-4, 1.0e-5]) * curve.length
    ts = np.concatenate([s[:, None] + np.array([-d, d]) for d in offsets])
    d1, d2, d3 = potential._side_means(p, curve, np.tile(s, 3), ts).reshape(
        3, -1)
    coarse = (d1 - d2) / math.log(10.0)
    fine = (d2 - d3) / math.log(10.0)
    assert np.all(slope > 0.0)
    assert np.all(np.abs(fine - slope) < np.abs(coarse - slope))
    rel = np.abs(fine - slope) / slope
    assert np.all(rel <= 5.0e-4)
    assert np.all(rel[(fracs >= 0.3) & (fracs <= 0.7)] <= 2.0e-5)
    inner = potential._side_means(p, curve, s,
                                  potential._diagonal_sides(curve, s))
    want = inner - slope * math.log(potential.DIAG_OFFSET_FRAC * curve.length)
    assert np.array_equal(regular, want)


def test_kernel_log_split_rejects_arclengths_off_the_open_arc(curve):
    for s in (0.0, curve.length, -0.1, math.nan):
        with pytest.raises(DomainError):
            kernel_K4_log_split(P25, curve, s)


def test_kernel_row_matches_scalar(curve):
    s = 0.35 * curve.length
    ts = np.linspace(0.1, 0.9, 7) * curve.length
    row = kernel_K4_row(P25, curve, s, ts)
    for j, t in enumerate(ts):
        assert row[j] == pytest.approx(kernel_K4(P25, curve, s, float(t)),
                                       rel=1e-12)


@pytest.mark.parametrize("alpha, beta", [(0.25, 0.25), (0.1, 0.4)])
def test_kernel_row_rejects_t_equal_s(curve, alpha, beta):
    # t = s is the singular pair; the log split models the kernel there
    p = Params(alpha, beta)
    s = 0.35 * curve.length
    t0, t1 = 0.2 * curve.length, 0.6 * curve.length
    with pytest.raises(SingularPairError):
        kernel_K4_row(p, curve, s, [t0, s, t1])
    row = kernel_K4_row(p, curve, s, [t0, t1])
    assert row[0] == kernel_K4(p, curve, s, t0)
    assert row[1] == kernel_K4(p, curve, s, t1)


# -- classification ---------------------------------------------------------------

def test_classify_three_regions(curve):
    assert classify(curve, Point(0.3, 0.3)) == "inside"
    assert classify(curve, Point(1.2, 1.2)) == "outside"
    cp = curve.point_at(0.5 * curve.length)
    assert classify(curve, Point(cp.x, cp.y)) == "on"


def test_classify_ambiguous_band_raises(curve):
    cp = curve.point_at(0.61 * curve.length)
    shifted = Point(cp.x + 1.0e-7 * cp.normal[0],
                    cp.y + 1.0e-7 * cp.normal[1])
    with pytest.raises(AmbiguousClassificationError):
        classify(curve, shifted)


def test_classify_rejects_axis_points(curve):
    with pytest.raises(DomainError):
        classify(curve, Point(0.0, 0.5))


def test_nearest_arclength_recovers_curve_point(curve):
    s0 = 0.37 * curve.length
    cp = curve.point_at(s0)
    P = Point(cp.x - 0.05 * cp.normal[0], cp.y - 0.05 * cp.normal[1])
    s, dist = nearest_arclength(curve, P)
    assert abs(s - s0) <= 1.0e-6 * curve.length
    assert dist == pytest.approx(0.05, rel=1e-9)


# -- double layer and gauge function ----------------------------------------------

def test_double_layer_zero_density(curve):
    zero = Density.constant(0.0)
    assert double_layer(P25, curve, zero, Point(0.4, 0.5)) == 0.0


def test_panel_density_checks_its_inputs(curve):
    edges = np.array([0.2, 0.6, 1.0])
    values = np.sin(np.linspace(0.2, 1.0, 8))
    mu = Density.from_panels(edges, values)
    assert np.array_equal(mu.edges, edges)
    assert np.array_equal(mu.values, values)
    for bad_edges, bad_values in (
            ([0.2], values),                      # no panel
            (edges[::-1], values),                # decreasing edges
            ([0.2, 0.2, 1.0], values),            # an empty panel
            ([0.2, math.nan, 1.0], values),
            (edges.reshape(1, 3), values),
            (edges, values.reshape(2, 4)),
            (edges, values[:7]),                  # panels not filled equally
            (edges, np.zeros(0)),
            (edges, np.append(values[:7], math.inf))):
        with pytest.raises(DomainError):
            Density.from_panels(bad_edges, bad_values)
    # panels that do not span the arc are caught where the arc is known
    for partial in ([0.1, curve.length], [0.0, curve.length + 1.0]):
        with pytest.raises(DomainError, match="spanning the arc"):
            evaluate_many(P25, curve, Density.from_panels(partial, values),
                          [Point(0.4, 0.5)])


def _depth_first_layer(p, curve, mu, P0, tol):
    """Reference for the adaptive double layer: the recursive bisection,
    one single-panel kernel call at a time.  Returns (value, leaf panels)."""
    x, w = gauss_rule(12)

    def panel(lo, hi):
        s = 0.5 * (lo + hi) + 0.5 * (hi - lo) * x
        return float(np.dot(0.5 * (hi - lo) * w,
                            _weighted_row(p, curve, s, P0) * mu(s)))

    leaves = 0

    def bisect(lo, hi, parent, budget, depth):
        nonlocal leaves
        mid = 0.5 * (lo + hi)
        left, right = panel(lo, mid), panel(mid, hi)
        if abs(parent - (left + right)) <= budget:
            leaves += 2
            return left + right
        assert depth < 48
        return (bisect(lo, mid, left, 0.5 * budget, depth + 1)
                + bisect(mid, hi, right, 0.5 * budget, depth + 1))

    edges = np.linspace(0.0, curve.length, 9)
    budget = tol / (len(edges) - 1)
    total = sum(bisect(lo, hi, panel(lo, hi), budget, 0)
                for lo, hi in zip(edges[:-1], edges[1:]))
    return total, leaves


@pytest.mark.parametrize("alpha, beta", [(0.25, 0.25), (0.1, 0.4)])
@pytest.mark.parametrize("dist, tol", [(0.4, NEAR_FIELD_TOL),
                                       (0.05, NEAR_FIELD_TOL),
                                       (0.005, NEAR_FIELD_TOL),
                                       # deep enough for the budget halving
                                       # to change which panels split
                                       (0.005, 1.0e-10)])
def test_double_layer_batched_matches_depth_first(curve, monkeypatch,
                                                  alpha, beta, dist, tol):
    p = Params(alpha, beta)
    l = curve.length
    mu = Density(lambda t: 1.0 + 0.5 * np.sin(np.pi * np.asarray(t) / l))
    cp = curve.point_at(0.43 * l)
    P0 = Point(cp.x - dist * cp.normal[0], cp.y - dist * cp.normal[1])

    sizes = []
    batched = potential._layer_panels

    def recording(*args):
        sizes.append(args[4].size)
        return batched(*args)

    monkeypatch.setattr(potential, "_layer_panels", recording)
    value = double_layer(p, curve, mu, P0, tol=tol)
    ref, ref_leaves = _depth_first_layer(p, curve, mu, P0, tol)
    # sizes = [roots, 2 L_0, 2 L_1, ...] with L_d live panels at depth d:
    # every child evaluated is a leaf unless it is split at the next level
    live = [n // 2 for n in sizes[1:]]
    leaves = 2 * sum(live) - sum(live[1:])
    assert abs(value - ref) <= 1.0e-13 * abs(ref)
    assert leaves == ref_leaves
    # one kernel call per level instead of one per panel
    assert len(sizes) < ref_leaves


@pytest.mark.parametrize("alpha, beta, q, a, b", [
    (0.1, 0.4, 8.0, 6.0, 1.0),
    (0.45, 0.45, 2.0, 1.0, 1.0),
])
@pytest.mark.parametrize("frac", [0.02, 0.97])
def test_double_layer_holds_at_the_arc_ends(alpha, beta, q, a, b, frac):
    # targets on both sides of the arc beside either end, where the uniform
    # root panels meet the Hoelder-type endpoint behaviour; the reference
    # stays at 1e-11, since tighter budgets split panels on kernel noise
    p, curve = Params(alpha, beta), Curve(a, b, q)
    l = curve.length
    mu = Density(lambda t: 1.0 + 0.5 * np.sin(np.pi * np.asarray(t) / l))
    cp = curve.point_at(frac * l)
    for dist in (0.4, 0.05, 0.005):
        for side in (1.0, -1.0):
            d = side * dist * min(a, b)
            P0 = Point(cp.x + d * cp.normal[0], cp.y + d * cp.normal[1])
            ref = double_layer(p, curve, mu, P0, tol=1.0e-11)
            assert abs(double_layer(p, curve, mu, P0) - ref) <= NEAR_FIELD_TOL


def test_unit_density_exterior_equals_gauge(curve):
    one = Density.constant(1.0)
    P0 = Point(1.2, 1.1)
    w1 = double_layer(P25, curve, one, P0)
    assert abs(w1 - k_gauge(P25, 1.0, 1.0, P0)) <= 1.0e-6


def test_unit_density_interior_equals_gauge_minus_one(curve):
    one = Density.constant(1.0)
    P0 = Point(0.3, 0.3)
    w1 = double_layer(P25, curve, one, P0)
    assert abs(w1 - (k_gauge(P25, 1.0, 1.0, P0) - 1.0)) <= 1.0e-6


def test_k_gauge_reference_values():
    # 30-digit references on the unit quarter domain
    cases = [
        (Params(0.25, 0.25), Point(0.5, 0.5), 0.478746407126386590822),
        (Params(0.1, 0.4), Point(0.3, 0.7), 0.547925186785220376684),
        (Params(0.45, 0.05), Point(0.8, 0.2), 0.609731305094311504279),
    ]
    for p, P0, want in cases:
        assert k_gauge(p, 1.0, 1.0, P0) == pytest.approx(want, rel=1e-8)


def test_k_gauge_decays_far_away():
    near = k_gauge(P25, 1.0, 1.0, Point(5.0, 5.0))
    far = k_gauge(P25, 1.0, 1.0, Point(10.0, 10.0))
    assert 0.0 < far < near < 1.0e-2


def test_k_gauge_rejects_axis_points():
    with pytest.raises(DomainError):
        k_gauge(P25, 1.0, 1.0, Point(0.0, 0.5))


@pytest.mark.parametrize("bad", [(math.nan, 0.3), (0.3, math.nan)],
                         ids=["x", "y"])
def test_nan_points_fail_the_open_quadrant_checks(curve, bad):
    # a NaN passed "x <= 0 or y <= 0", and k_gauge then ran a 2F1 series
    # to its term cap and raised ConvergenceError instead of DomainError.
    # Point itself rejects a NaN; a duck-typed point still meets each
    # evaluator's own check
    with pytest.raises(DomainError):
        Point(*bad)
    bad = SimpleNamespace(x=bad[0], y=bad[1])
    with pytest.raises(DomainError):
        k_gauge(P25, 1.0, 1.0, bad)
    with pytest.raises(DomainError):
        classify(curve, bad)
    with pytest.raises(DomainError):
        double_layer(P25, curve, Density.constant(1.0), bad)


def _quad_gauge(p, a, b, P0):
    """k_gauge's two axis integrals by scipy's adaptive quad (test-only
    reference), split at the foot of P0 as quad's break point."""
    from scipy.integrate import quad

    def integral(length, c, h, along):
        def f(t):
            d2 = (t - c) ** 2 + h ** 2
            return (t * d2 ** (p.alpha + p.beta - 2.0)
                    * gauss_2f1(2.0 - p.alpha - p.beta, 1.0 - along,
                                2.0 - 2.0 * along, -4.0 * t * c / d2))
        value, _ = quad(f, 0.0, length, epsabs=1.0e-13, epsrel=1.0e-13,
                        limit=2000, points=[c] if c < length else None)
        return value

    vx = integral(a, P0.x, P0.y, p.alpha)
    vy = integral(b, P0.y, P0.x, p.beta)
    pref = (k4_constant(p) * P0.x ** (1.0 - 2.0 * p.alpha)
            * P0.y ** (1.0 - 2.0 * p.beta))
    return pref * ((1.0 - 2.0 * p.beta) * vx + (1.0 - 2.0 * p.alpha) * vy)


@pytest.mark.parametrize("alpha, beta", [(0.25, 0.25), (0.1, 0.4),
                                         (0.01, 0.49)])
def test_k_gauge_matches_quad(curve, alpha, beta):
    p = Params(alpha, beta)
    cp = curve.point_at(0.3 * curve.length)
    points = [Point(0.5, 1.0e-3), Point(0.7, 1.0e-2),      # near the x axis
              Point(1.0e-3, 0.7), Point(1.0e-2, 0.4),      # near the y axis
              Point(cp.x, cp.y),                           # on the arc
              Point(0.999 * cp.x, 0.999 * cp.y),           # just inside
              Point(0.5, 0.5), Point(1.5, 0.4), Point(2.0, 2.0)]
    for P0 in points:
        assert abs(k_gauge(p, 1.0, 1.0, P0)
                   - _quad_gauge(p, 1.0, 1.0, P0)) <= 1.0e-11
    # unequal segments, the foot of P0 beyond one of them
    P0 = Point(1.3, 0.2)
    assert abs(k_gauge(p, 1.0, 2.0, P0)
               - _quad_gauge(p, 1.0, 2.0, P0)) <= 1.0e-11


def test_k_gauge_raises_when_the_bisection_stalls(monkeypatch):
    # an integrand that never settles leaves an error estimate above 1e-9
    rng = np.random.default_rng(0)
    monkeypatch.setattr(potential, "gauss_2f1",
                        lambda a, b, c, z: rng.normal(size=np.shape(z)))
    with pytest.raises(ConvergenceError):
        k_gauge(P25, 1.0, 1.0, Point(0.5, 0.5))


# -- boundary traces --------------------------------------------------------------

def test_trace_jump_identity(curve):
    l = curve.length
    densities = [Density.constant(1.0),
                 Density(lambda t: np.sin(np.pi * np.asarray(t) / l)),
                 Density(lambda t: np.asarray(t) * (l - np.asarray(t)) / l ** 2)]
    for mu in densities:
        for frac in (0.2, 0.5, 0.8):
            s = frac * l
            w_i = boundary_trace(P25, curve, mu, s, "interior")
            w_e = boundary_trace(P25, curve, mu, s, "exterior")
            assert abs((w_e - w_i) - float(mu(s))) <= 1.0e-12


def test_trace_unit_density_matches_gauge(curve):
    # with unit density the interior trace must continue the interior
    # identity w1 = k - 1 up to the curve
    s = 0.5 * curve.length
    cp = curve.point_at(s)
    one = Density.constant(1.0)
    w_i = boundary_trace(P25, curve, one, s, "interior")
    k = k_gauge(P25, 1.0, 1.0, Point(cp.x, cp.y))
    assert abs(w_i - (k - 1.0)) <= 1.0e-5


def test_trace_is_interior_limit(curve):
    # off-curve values along the inward normal, extrapolated to the curve,
    # land on the interior trace
    l = curve.length
    mu = Density(lambda t: np.sin(np.pi * np.asarray(t) / l))
    s0 = 0.37 * l
    cp = curve.point_at(s0)
    w_i = boundary_trace(P25, curve, mu, s0, "interior")
    ds = np.array([1e-1, 3e-2, 1e-2, 3e-3, 1e-3])
    vals = np.array([
        double_layer(P25, curve, mu,
                     Point(cp.x - d * cp.normal[0], cp.y - d * cp.normal[1]))
        for d in ds])
    assert abs(vals[-1] - w_i) <= 1.0e-2  # raw values already close
    # near-curve expansion of the layer potential: constant plus d ln d,
    # d, and d^2 ln d corrections
    basis = np.column_stack([np.ones_like(ds), ds * np.log(ds), ds,
                             ds ** 2 * np.log(ds)])
    coef, *_ = np.linalg.lstsq(basis, vals, rcond=None)
    assert abs(coef[0] - w_i) <= 1.0e-4


def test_trace_rejects_bad_side_and_range(curve):
    one = Density.constant(1.0)
    with pytest.raises(DomainError):
        boundary_trace(P25, curve, one, 0.3 * curve.length, "above")
    with pytest.raises(DomainError):
        boundary_trace(P25, curve, one, -0.1, "interior")
    with pytest.raises(DomainError):
        boundary_trace(P25, curve, one, curve.length, "interior")


def test_trace_integral_continuous_in_s(curve):
    # no node-to-node jumps beyond the smooth trend of the on-curve integral
    l = curve.length
    mu = Density(lambda t: np.sin(np.pi * np.asarray(t) / l))
    ss = np.linspace(0.2 * l, 0.8 * l, 13)
    w0 = np.array([_trace_integral(P25, curve, mu, float(s)) for s in ss])
    steps = np.abs(np.diff(w0))
    assert steps.max() <= 10.0 * max(np.median(steps), 1.0e-12)


# -- potential solves the equation off the curve ----------------------------------

def test_layer_potential_satisfies_pde(curve):
    l = curve.length
    mu = Density(lambda t: np.sin(np.pi * np.asarray(t) / l))
    # a fixed 512-node rule: the finite differences need one quadrature
    # error at every stencil point, which an adaptive rule would not keep
    nodes, weights = _panel_nodes(np.linspace(0.0, l, 65), 8)

    def w(x, y):
        row = _weighted_row(P25, curve, nodes, Point(x, y))
        return float(np.dot(weights, row * mu(nodes)))

    x0, y0 = 0.35, 0.4
    res = []
    for h in (2e-2, 1e-2, 5e-3):
        c = w(x0, y0)
        lap = ((w(x0 + h, y0) - 2 * c + w(x0 - h, y0)) / h ** 2
               + (w(x0, y0 + h) - 2 * c + w(x0, y0 - h)) / h ** 2)
        low = (2 * P25.alpha / x0 * (w(x0 + h, y0) - w(x0 - h, y0)) / (2 * h)
               + 2 * P25.beta / y0 * (w(x0, y0 + h) - w(x0, y0 - h)) / (2 * h))
        res.append(abs(lap + low))
    assert res[0] > res[1] > res[2]
    assert res[1] <= res[0] / 3.0
    assert res[2] <= res[1] / 3.0


# -- flux identity ----------------------------------------------------------------

def test_flux_residual_small_for_exterior_source(curve):
    assert abs(contour_flux(P25, curve, Point(2.0, 2.0))) <= 1.0e-6


@pytest.mark.parametrize("dist", [1.0e-2, 1.0e-4, 1.0e-5])
@pytest.mark.parametrize("side, target", [(1.0, 0.0), (-1.0, -1.0)],
                         ids=["outside", "inside"])
def test_flux_holds_next_to_the_arc(curve, monkeypatch, dist, side, target):
    # the curve part must resolve the kernel peak of a source next to the
    # arc, whose width is the distance, and stop at the kernel's rounding
    # noise: at 1e-5 it takes 1,632 kernel pairs (119k-187k without the
    # floor NEAR_FIELD_RTOL) and reads 3.4e-12
    pairs = []
    pairwise = potential.weighted_dq4_dn_many

    def counted(*args):
        pairs.append(np.size(args[1]))
        return pairwise(*args)

    monkeypatch.setattr(potential, "weighted_dq4_dn_many", counted)
    cp = curve.point_at(0.5 * curve.length)
    Q = Point(cp.x + side * dist * cp.normal[0],
              cp.y + side * dist * cp.normal[1])
    assert abs(contour_flux(P25, curve, Q) - target) <= 1.0e-10
    assert sum(pairs) < 5000


@pytest.mark.parametrize("dist", [1.0e-3, 1.0e-5])
def test_tight_double_layer_stops_at_the_rounding_floor(curve, dist):
    # a tol below the kernel's rounding next to the arc is met up to the
    # floor NEAR_FIELD_RTOL, which the stall check leaves out of its error
    # estimate: no ConvergenceError, and the flux identity holds (1.9e-14
    # at 1e-3, 3.4e-12 at 1e-5)
    cp = curve.point_at(0.5 * curve.length)
    Q = Point(cp.x + dist * cp.normal[0], cp.y + dist * cp.normal[1])
    w = double_layer(P25, curve, Density.constant(1.0), Q, tol=1.0e-13)
    assert abs(w - k_gauge(P25, 1.0, 1.0, Q)) <= 1.0e-10


def test_flux_interior_source_normalization(curve):
    assert abs(contour_flux(P25, curve, Point(0.5, 0.5)) + 1.0) <= 1.0e-5
    assert abs(contour_flux(P25, curve, Point(0.35, 0.3)) + 1.0) <= 1.0e-5


# -- the three-case gauge identity ------------------------------------------------

def test_gauge_identity_interior(curve):
    r = gauge_identity_verify(P25, curve, Point(0.45, 0.35))
    assert r.classification == "inside"
    assert r.residual <= 1.0e-6


def test_gauge_identity_exterior(curve):
    r = gauge_identity_verify(P25, curve, Point(1.3, 0.9))
    assert r.classification == "outside"
    assert r.residual <= 1.0e-6


def test_gauge_identity_on_curve(curve):
    cp = curve.point_at(0.5 * curve.length)
    r = gauge_identity_verify(P25, curve, Point(cp.x, cp.y))
    assert r.classification == "on"
    assert r.residual <= 1.0e-5
