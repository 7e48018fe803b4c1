"""Quarter-plane boundary curves: parametrization, normals, endpoint decay."""

import gc
import json
import math
import pathlib
import warnings
import weakref

import numpy as np
import pytest

from biaxpot import Curve, DomainError, Point, check_endpoint_conditions
from biaxpot import geometry


def test_point_rejects_negative_coordinates():
    with pytest.raises(DomainError):
        Point(-0.1, 0.5)
    with pytest.raises(DomainError):
        Point(0.5, -1.0e-12)


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_point_rejects_infinite_coordinates(bad):
    with pytest.raises(DomainError):
        Point(bad, 0.3)
    with pytest.raises(DomainError):
        Point(0.3, bad)


def test_superellipse_endpoints(curve):
    start = curve.point_at(0.0)
    end = curve.point_at(curve.length)
    assert (start.x, start.y) == pytest.approx((0.0, 1.0), abs=1e-12)
    assert (end.x, end.y) == pytest.approx((1.0, 0.0), abs=1e-12)


def test_superellipse_flattens_onto_x_axis(curve):
    # near the x-axis endpoint the tangent turns onto the axis like y^2,
    # so |dx/ds| / y^2 stays bounded along the approach
    l = curve.length
    ratios = []
    for d in l * 2.0 ** (-np.arange(4, 14, dtype=float)):
        cp = curve.point_at(l - d)
        ratios.append(abs(cp.tangent[0]) / cp.y ** 2)
    assert max(ratios) <= 2.0 * ratios[0]


def test_quarter_circle_length():
    circle = Curve(1.0, 1.0, 2.0)
    assert abs(circle.length - math.pi / 2.0) <= 1.0e-8


def test_rejects_exponent_below_two():
    with pytest.raises(DomainError):
        Curve(1.0, 1.0, 1.5)


@pytest.mark.parametrize("a, b, q", [
    (math.nan, 1.0, 3.0), (1.0, math.nan, 3.0), (1.0, 1.0, math.nan),
    (math.inf, 1.0, 3.0), (1.0, 1.0, math.inf)],
    ids=["nan-a", "nan-b", "nan-q", "inf-a", "inf-q"])
def test_rejects_non_finite_shape(a, b, q):
    # NaN passes every ordering test, and an infinite a or q built a curve
    # of length NaN, or of length 2 with NaN frames
    with pytest.raises(DomainError):
        Curve(a, b, q)


def test_point_at_midpoint_on_curve(curve):
    cp = curve.point_at(0.5 * curve.length)
    assert abs(cp.x ** 3 + cp.y ** 3 - 1.0) <= 1.0e-10


def test_point_at_unit_tangent(curve):
    for s in np.linspace(0.0, curve.length, 33):
        cp = curve.point_at(float(s))
        assert abs(math.hypot(*cp.tangent) - 1.0) <= 1.0e-10


def test_point_at_rejects_out_of_range(curve):
    with pytest.raises(DomainError):
        curve.point_at(-1.0e-9)
    with pytest.raises(DomainError):
        curve.point_at(curve.length * (1.0 + 1.0e-9))


def test_normal_orthogonal_and_outward(curve):
    interior = Point(0.25, 0.25)
    for s in np.linspace(0.01, curve.length - 0.01, 41):
        cp = curve.point_at(float(s))
        nx, ny = cp.normal
        tx, ty = cp.tangent
        assert abs(nx * tx + ny * ty) <= 1.0e-12
        assert abs(math.hypot(nx, ny) - 1.0) <= 1.0e-10
        # outward: points away from the interior of the convex domain
        assert (cp.x - interior.x) * nx + (cp.y - interior.y) * ny > 0.0


def test_arclength_parametrization_consistent(curve):
    # chord-length sums at two resolutions, Richardson-extrapolated,
    # reproduce arclength differences
    rng = np.random.default_rng(31)
    for _ in range(5):
        s1, s2 = np.sort(rng.uniform(0.0, curve.length, 2))
        if s2 - s1 < 0.05:
            continue

        def chord_sum(m):
            ss = np.linspace(s1, s2, m + 1)
            cps = curve.points_at(ss)
            xs = np.array([c.x for c in cps])
            ys = np.array([c.y for c in cps])
            return float(np.sum(np.hypot(np.diff(xs), np.diff(ys))))

        coarse = chord_sum(512)
        fine = chord_sum(1024)
        extrapolated = (4.0 * fine - coarse) / 3.0
        assert abs(extrapolated - (s2 - s1)) <= 1.0e-8


def test_endpoint_conditions_cubic_superellipse(curve):
    report = check_endpoint_conditions(curve, eps=0.5)
    assert report["ok"] is True


def test_endpoint_conditions_circle_fails():
    circle = Curve(1.0, 1.0, 2.0)
    report = check_endpoint_conditions(circle, eps=0.5)
    assert report["ok"] is False
    # the failure shows up as ratios growing along the approach
    assert report["x_axis_growth"] > 2.0


def test_endpoint_conditions_quartic_wide():
    wide = Curve(2.0, 1.0, 4.0)
    report = check_endpoint_conditions(wide, eps=0.9)
    assert report["ok"] is True
    assert np.all(np.isfinite(report["x_axis_ratios"]))
    assert np.all(np.isfinite(report["y_axis_ratios"]))


# -- array frames ----------------------------------------------------------------

@pytest.mark.parametrize("q", [2.0, 2.5, 3.0, 8.0])
@pytest.mark.parametrize("a, b", [(1.0, 1.0), (6.0, 1.0)])
def test_frames_match_point_at_bitwise(q, a, b):
    curve = Curve(a, b, q)
    ss = np.sort(np.append(np.linspace(0.0, curve.length, 257),
                           curve._s_glue))
    frames = np.array(curve.frames(ss))
    scalar = np.array([
        (cp.x, cp.y, cp.tangent[0], cp.tangent[1], cp.normal[0],
         cp.normal[1], cp.curvature)
        for cp in (curve.point_at(float(s)) for s in ss)]).T
    assert np.all(np.isfinite(frames))
    assert np.array_equal(frames, scalar)
    assert [cp.s for cp in curve.points_at(ss)] == ss.tolist()


def test_frames_keep_shape_and_reject_out_of_range(curve):
    ss = np.linspace(0.0, curve.length, 12).reshape(3, 4)
    out = curve.frames(ss)
    assert len(out) == 7
    assert all(v.shape == (3, 4) for v in out)
    flat = curve.frames(ss.ravel())
    for v, w in zip(out, flat):
        assert np.array_equal(v.ravel(), w)
    x, y, tx, ty, nx, ny, _ = out
    assert np.array_equal(nx, -ty) and np.array_equal(ny, tx)
    assert np.all(np.abs(x ** 3 + y ** 3 - 1.0) <= 1.0e-10)
    with pytest.raises(DomainError):
        curve.frames(np.array([[0.1, 0.2], [0.3, -1.0e-9]]))
    with pytest.raises(DomainError):
        curve.frames(np.array([0.1, curve.length * (1.0 + 1.0e-9)]))


@pytest.mark.parametrize("q", [2.0, 2.5, 3.7, 8.0])
@pytest.mark.parametrize("a, b", [(1.0, 1.0), (6.0, 1.0)])
def test_endpoints_finite_for_all_shapes(q, a, b):
    # the table can read a parameter a rounding error below zero at s = l,
    # where the graph's fractional powers are NaN
    curve = Curve(a, b, q)
    start = curve.point_at(0.0)
    end = curve.point_at(curve.length)
    for cp in (start, end):
        assert np.all(np.isfinite([cp.x, cp.y, *cp.tangent, *cp.normal,
                                   cp.curvature]))
    assert (start.x, start.y) == pytest.approx((0.0, b), abs=1e-14)
    assert (end.x, end.y) == pytest.approx((a, 0.0), abs=1e-14)
    assert np.all(np.isfinite(curve.frames(np.array([0.0, curve.length]))))


def test_point_at_rejects_non_finite(curve):
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(DomainError):
            curve.point_at(bad)
    with pytest.raises(DomainError):
        curve.frames(np.array([0.1, math.nan]))


def test_curve_is_freed_without_the_cyclic_collector():
    # a curve must not sit in a reference cycle: its arclength tables would
    # outlive it until the cyclic collector ran
    enabled = gc.isenabled()
    gc.disable()
    try:
        curve = Curve(1.0, 1.0, 3.0)
        curve.frames(np.linspace(0.0, curve.length, 5))
        ref = weakref.ref(curve)
        del curve
        assert ref() is None
    finally:
        if enabled:
            gc.enable()


# -- the arclength maps against an mpmath arclength ------------------------------

ARC_REFERENCES = json.loads(
    (pathlib.Path(__file__).parent / "data"
     / "arclength_references.json").read_text())["curves"]


@pytest.mark.parametrize("ref", ARC_REFERENCES,
                         ids=lambda r: f"{r['a']}-{r['b']}-{r['q']}")
def test_points_match_the_mpmath_arclength_references(ref):
    # points at given arclengths, on both branches and next to the glue
    # point (x / x_star = 0.999), frozen by data/make_references.py
    curve = Curve(ref["a"], ref["b"], ref["q"])
    assert curve.length == pytest.approx(float(ref["length"]), rel=1e-14,
                                         abs=0.0)
    s, *want = np.array(ref["points"], dtype=float).T
    got = curve.frames(s)[:4]
    for k in (0, 1):
        assert np.max(np.abs(got[k] - want[k])) <= 1.0e-14
    for k in (2, 3):
        assert np.max(np.abs(got[k] - want[k])) <= 1.0e-13


@pytest.mark.parametrize("q", [2.0, 2.5, 3.0, 8.0])
@pytest.mark.parametrize("a, b", [(1.0, 1.0), (1.0, 6.0), (6.0, 1.0)])
def test_frames_match_a_scipy_spline_curve(monkeypatch, q, a, b):
    # the same curve with scipy's piecewise quintic Hermite (a Bernstein
    # basis spline) as the arclength table: both read the same knot data,
    # so only the two evaluators' rounding remains
    from scipy.interpolate import BPoly
    mine = Curve(a, b, q)
    monkeypatch.setattr(geometry, "_quintic_hermite", lambda x, *d:
                        BPoly.from_derivatives(x, np.column_stack(d)))
    ref = Curve(a, b, q)
    assert ref.length == mine.length
    s = np.linspace(0.0, mine.length, 4001)
    got, want = mine.frames(s), ref.frames(s)
    for k in (0, 1):
        assert np.max(np.abs(got[k] - want[k])) <= 1.0e-14
    for k in range(2, 7):
        scale = np.max(np.abs(want[k]))
        assert np.max(np.abs(got[k] - want[k])) <= 1.0e-12 * scale


@pytest.mark.parametrize("q", [2.0, 2.5, 3.0, 4.7, 8.0, 20.0, 40.0])
@pytest.mark.parametrize("a, b", [(1.0, 1.0), (6.0, 1.0), (1.0, 6.0),
                                  (1.0, 0.3)])
def test_frames_match_a_quadrature_of_the_analytic_speed(q, a, b):
    # no table involved: the arclength from the branch's axis end to the
    # parameter that frames returns (x on branch 1, y on branch 2), as an
    # adaptive quadrature of sqrt(1 + f'^2) for the graph f over it
    from scipy.integrate import IntegrationWarning, quad
    curve = Curve(a, b, q)
    l = curve.length
    s = np.concatenate((
        np.random.default_rng(7).uniform(0.0, l, 60),
        l * np.array([1e-6, 1e-3, 0.5, 1.0 - 1e-3, 1.0 - 1e-6]),
        [np.nextafter(curve._s_glue, 0.0)]))
    x, y = curve.frames(s)[:2]

    def speed(t, run, rise):
        u = t / run
        slope = (rise / run) * u ** (q - 1.0) * (1.0 - u ** q) ** (1.0 / q - 1.0)
        return math.hypot(1.0, slope)

    # quad's error estimate is pessimistic on this smooth integrand: its
    # sums reach rounding level well before the estimate meets the bound,
    # and a tighter request only draws a roundoff warning
    scale = max(1.0, l)
    worst = 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error", IntegrationWarning)
        for si, xi, yi in zip(s, x, y):
            top, run, rise, want = ((xi, a, b, si) if si <= curve._s_glue
                                    else (yi, b, a, l - si))
            got = quad(speed, 0.0, top, args=(run, rise),
                       epsabs=2e-14 * scale, epsrel=0.0)[0]
            worst = max(worst, abs(got - want))
    assert worst <= 1.0e-14 * scale
