"""Fundamental solution q4: chords, normalization, gradients, log law.

The q4 reference value marked "30-digit" was computed independently with
the double hypergeometric factor evaluated through its Euler double
integral at 30-digit precision.
"""

import math

import numpy as np
import pytest

from biaxpot import (Curve, DomainError, Params, Point, SingularPairError,
                     dq4_dn, dq4_dn_many, grad_q4, grad_q4_many, k4_constant,
                     q4, q4_many, weighted_dq4_dn_many)
from biaxpot.kernel import _chord_arrays, kernel_families

P25 = Params(0.25, 0.25)


# -- parameters -------------------------------------------------------------------

def test_params_validated():
    Params(0.01, 0.49)  # extremes of the open box are fine
    for alpha, beta in [(0.5, 0.25), (0.0, 0.25), (0.25, 0.6), (-0.1, 0.2)]:
        with pytest.raises(DomainError):
            Params(alpha, beta)


# -- chords -----------------------------------------------------------------------

def _chords(P, Q):
    """(r^2, xi, eta) of the pair (P, Q) from the array chord routine."""
    return tuple(float(v) for v in _chord_arrays(P.x, P.y, Q)[-3:])


def test_chords_collinear_pair():
    d = 1.0e-3
    r2, xi, eta = _chords(Point(1.0 + d, 1.0), Point(1.0, 1.0))
    assert r2 == pytest.approx(d * d, rel=1e-12)
    # r1^2 = r^2 (1 - xi)
    assert r2 * (1.0 - xi) == pytest.approx((2.0 + d) ** 2, rel=1e-12)


def test_chords_exact_arithmetic():
    assert _chords(Point(1.0, 2.0), Point(3.0, 5.0)) == (
        13.0, -12.0 / 13.0, -40.0 / 13.0)


def test_chords_swap_invariant():
    rng = np.random.default_rng(41)
    for _ in range(50):
        x, y, x0, y0 = rng.uniform(0.05, 2.0, 4)
        c1 = _chords(Point(x, y), Point(x0, y0))
        assert c1 == _chords(Point(x0, y0), Point(x, y))
        assert c1[1] <= 0.0 and c1[2] <= 0.0


def test_chords_coincident_rejected():
    with pytest.raises(SingularPairError):
        q4_many(P25, [0.3, 1.0], [0.4, 1.0], Point(1.0, 1.0))


# -- normalization constant -------------------------------------------------------

def test_k4_symmetric_quarter():
    # 2^3 G(3/4)^2 G(3/2) / (4 pi G(3/2)^2), assembled from the stdlib gamma
    want = (8.0 * math.gamma(0.75) ** 2 * math.gamma(1.5)
            / (4.0 * math.pi * math.gamma(1.5) ** 2))
    assert abs(k4_constant(P25) - want) <= 1.0e-12 * want
    assert k4_constant(P25) == pytest.approx(1.07870520237675871334,
                                             rel=1e-13)


def test_k4_limit_toward_half():
    # at alpha = beta = 1/2 the constant collapses to G(1/2)^2/pi = 1
    assert abs(k4_constant(Params(0.4999999, 0.4999999)) - 1.0) <= 1.0e-5


def test_k4_asymmetric_value():
    # 30-digit gamma-product reference
    assert k4_constant(Params(0.1, 0.4)) == pytest.approx(
        1.04990860528675732111, rel=1e-13)


# -- q4 ---------------------------------------------------------------------------

def test_q4_vanishes_on_axes():
    Q = Point(0.7, 0.6)
    assert q4(P25, Point(0.0, 0.4), Q) == 0.0
    assert q4(P25, Point(0.4, 0.0), Q) == 0.0


def test_q4_reference_value():
    # 30-digit Euler-integral route: 0.0972008843036407453964
    got = q4(P25, Point(1.0, 1.0), Point(2.0, 2.0))
    assert got == pytest.approx(0.0972008843036407453964, rel=1e-10)


def test_q4_symmetric_in_arguments():
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(100):
        x, y, x0, y0 = rng.uniform(0.05, 2.0, 4)
        if (x - x0) ** 2 + (y - y0) ** 2 < 1.0e-4:
            continue
        v1 = q4(P25, Point(x, y), Point(x0, y0))
        v2 = q4(P25, Point(x0, y0), Point(x, y))
        worst = max(worst, abs(v1 - v2) / max(abs(v1), 1.0e-300))
    assert worst <= 1.0e-12


def test_q4_near_singular_pair_rejected():
    with pytest.raises(SingularPairError):
        q4(P25, Point(1.0, 1.0), Point(1.0 + 1.0e-9, 1.0))


def test_q4_boundary_vanishing_rates():
    # log-log slope of q4 in x at fixed y tends to 1 - 2*alpha
    p = Params(0.1, 0.4)
    Q = Point(0.7, 0.6)
    v1 = q4(p, Point(1.0e-4, 0.4), Q)
    v2 = q4(p, Point(1.0e-5, 0.4), Q)
    slope = (math.log(v1) - math.log(v2)) / math.log(10.0)
    assert abs(slope - (1.0 - 2.0 * p.alpha)) <= 1.0e-3
    w1 = q4(p, Point(0.4, 1.0e-4), Q)
    w2 = q4(p, Point(0.4, 1.0e-5), Q)
    slope = (math.log(w1) - math.log(w2)) / math.log(10.0)
    assert abs(slope - (1.0 - 2.0 * p.beta)) <= 1.0e-3


def pde_residual(p: Params, P: Point, x0: float, y0: float, h: float) -> float:
    """Five-point residual of the governing operator in the second argument."""
    c = q4(p, P, Point(x0, y0))
    xp = q4(p, P, Point(x0 + h, y0))
    xm = q4(p, P, Point(x0 - h, y0))
    yp = q4(p, P, Point(x0, y0 + h))
    ym = q4(p, P, Point(x0, y0 - h))
    uxx = (xp - 2.0 * c + xm) / h ** 2
    uyy = (yp - 2.0 * c + ym) / h ** 2
    ux = (xp - xm) / (2.0 * h)
    uy = (yp - ym) / (2.0 * h)
    return abs(uxx + uyy + 2.0 * p.alpha / x0 * ux + 2.0 * p.beta / y0 * uy)


def test_q4_satisfies_pde():
    P = Point(0.9, 0.8)
    res = [pde_residual(P25, P, 0.3, 0.45, h) for h in (1e-2, 5e-3, 2.5e-3)]
    assert res[0] > res[1] > res[2]
    # second-order decay: each halving divides the residual by about 4
    assert res[1] <= res[0] / 3.0
    assert res[2] <= res[1] / 3.0


# -- gradient ---------------------------------------------------------------------

def test_grad_matches_finite_differences():
    h = 1.0e-5
    P, Q = Point(1.0, 2.0), Point(2.0, 1.0)
    gx, gy = grad_q4(P25, P, Q)
    fx = (q4(P25, Point(P.x + h, P.y), Q)
          - q4(P25, Point(P.x - h, P.y), Q)) / (2.0 * h)
    fy = (q4(P25, Point(P.x, P.y + h), Q)
          - q4(P25, Point(P.x, P.y - h), Q)) / (2.0 * h)
    scale = math.hypot(gx, gy)
    assert math.hypot(gx - fx, gy - fy) <= 1.0e-6 * scale


def test_grad_randomized_finite_differences():
    rng = np.random.default_rng(43)
    h = 1.0e-5
    worst = 0.0
    for _ in range(100):
        x, y, x0, y0 = rng.uniform(0.1, 1.5, 4)
        if math.hypot(x - x0, y - y0) < 0.1:
            continue
        gx, gy = grad_q4(P25, Point(x, y), Point(x0, y0))
        fx = (q4(P25, Point(x + h, y), Point(x0, y0))
              - q4(P25, Point(x - h, y), Point(x0, y0))) / (2.0 * h)
        fy = (q4(P25, Point(x, y + h), Point(x0, y0))
              - q4(P25, Point(x, y - h), Point(x0, y0))) / (2.0 * h)
        scale = max(math.hypot(gx, gy), 1.0e-300)
        worst = max(worst, math.hypot(gx - fx, gy - fy) / scale)
    assert worst <= 1.0e-6


def test_grad_role_swap_consistent():
    # q4(P,Q) = q4(Q,P), so the gradient in the first slot evaluated at
    # (P,Q) equals the gradient in the first slot evaluated at (P,Q) with
    # the roles swapped back
    P, Q = Point(0.8, 1.1), Point(1.4, 0.5)
    h = 1.0e-5
    gx, _ = grad_q4(P25, P, Q)
    fd = (q4(P25, Point(P.x + h, P.y), Q)
          - q4(P25, Point(P.x - h, P.y), Q)) / (2.0 * h)
    fd_swapped = (q4(P25, Q, Point(P.x + h, P.y))
                  - q4(P25, Q, Point(P.x - h, P.y))) / (2.0 * h)
    assert fd == pytest.approx(fd_swapped, rel=1e-12)
    assert gx == pytest.approx(fd, rel=1e-6)


def test_grad_exchange_symmetry_on_diagonal():
    # with alpha = beta the solution is invariant under reflecting both
    # points across the diagonal, so the gradient components exchange
    P, Q = Point(0.9, 0.4), Point(1.2, 1.2)
    gx, gy = grad_q4(P25, P, Q)
    hx, hy = grad_q4(P25, Point(P.y, P.x), Q)
    assert gx == pytest.approx(hy, rel=1e-12)
    assert gy == pytest.approx(hx, rel=1e-12)


def test_grad_rejects_axis_points():
    with pytest.raises(DomainError):
        grad_q4(P25, Point(0.0, 0.5), Point(0.7, 0.6))


def test_grad_many_matches_scalar():
    xs = np.array([0.3, 0.9, 1.4])
    ys = np.array([1.1, 0.2, 0.8])
    Q = Point(0.6, 0.7)
    gxs, gys = grad_q4_many(P25, xs, ys, Q)
    for i in range(3):
        gx, gy = grad_q4(P25, Point(xs[i], ys[i]), Q)
        assert gxs[i] == pytest.approx(gx, rel=1e-13)
        assert gys[i] == pytest.approx(gy, rel=1e-13)


def test_pairwise_sources_match_fixed_sources():
    # per-pair source arrays run the same closed forms as a fixed Point,
    # pair by pair, bitwise
    rng = np.random.default_rng(45)
    xs, ys = rng.uniform(0.1, 1.4, (2, 12))
    theta = rng.uniform(0.0, 1.5, 12)
    nxs, nys = np.cos(theta), np.sin(theta)
    x0s, y0s = rng.uniform(0.1, 1.4, (2, 12))
    pair_q4 = q4_many(P25, xs, ys, (x0s, y0s))
    pair_gx, pair_gy = grad_q4_many(P25, xs, ys, (x0s, y0s))
    pair_dn = weighted_dq4_dn_many(P25, xs, ys, nxs, nys, (x0s, y0s))
    for k in range(12):
        Q = Point(x0s[k], y0s[k])
        one = slice(k, k + 1)
        assert q4_many(P25, xs[one], ys[one], Q)[0] == pair_q4[k]
        gx, gy = grad_q4_many(P25, xs[one], ys[one], Q)
        assert (gx[0], gy[0]) == (pair_gx[k], pair_gy[k])
        assert weighted_dq4_dn_many(P25, xs[one], ys[one], nxs[one],
                                    nys[one], Q)[0] == pair_dn[k]
    # the F2 families do not change when the two points swap
    fwd = kernel_families(P25, xs, ys, (x0s, y0s))
    back = kernel_families(P25, x0s, y0s, (xs, ys))
    for f, g in zip(fwd, back):
        assert np.array_equal(f, g)
    assert np.array_equal(
        weighted_dq4_dn_many(P25, xs, ys, nxs, nys, (x0s, y0s), back),
        pair_dn)


def test_pairwise_sources_broadcast_and_guard():
    xs = np.array([0.3, 0.9, 1.4])
    ys = np.array([1.1, 0.2, 0.8])
    # a scalar pair broadcast against the targets is a fixed source
    assert np.array_equal(q4_many(P25, xs, ys, (0.6, 0.7)),
                          q4_many(P25, xs, ys, Point(0.6, 0.7)))
    with pytest.raises(SingularPairError, match="vs"):
        q4_many(P25, xs, ys, (np.array([0.1, 0.9, 0.5]),
                              np.array([0.1, 0.2, 0.5])))


# -- conormal derivative ----------------------------------------------------------

def test_conormal_matches_projected_gradient(curve):
    Q = Point(0.45, 0.4)
    rng = np.random.default_rng(44)
    for s in rng.uniform(0.05, 0.95, 10) * curve.length:
        cp = curve.point_at(float(s))
        dn = dq4_dn(P25, cp, Q)
        gx, gy = grad_q4(P25, Point(cp.x, cp.y), Q)
        proj = gx * cp.normal[0] + gy * cp.normal[1]
        assert abs(dn - proj) <= 1.0e-10 * max(abs(dn), 1.0)


@pytest.mark.parametrize("alpha, beta", [(0.25, 0.25), (0.1, 0.4), (0.01, 0.49)])
@pytest.mark.parametrize("q", [2.0, 3.0, 8.0])
@pytest.mark.parametrize("a, b", [(1.0, 1.0), (3.0, 0.5)])
def test_conormal_many_matches_projected_gradient(alpha, beta, q, a, b):
    # two evaluation trees: the grouped closed form on appell_f2_sets'
    # tensor route, the gradient on f2_kernel_families' one graded axis
    p = Params(alpha, beta)
    curve = Curve(a, b, q)
    xs, ys, _, _, nxs, nys, _ = curve.frames(
        np.linspace(0.02, 0.98, 25) * curve.length)
    for Q in (Point(1.5 * a, 1.5 * b), Point(0.4 * a, 0.3 * b)):
        dn = dq4_dn_many(p, xs, ys, nxs, nys, Q)
        gx, gy = grad_q4_many(p, xs, ys, Q)
        assert np.all(np.abs(dn - (nxs * gx + nys * gy))
                      <= 1.0e-12 * np.maximum(np.abs(dn), 1.0))


@pytest.mark.parametrize("alpha, beta", [(0.25, 0.25), (0.1, 0.4)])
def test_conormal_many_is_bitwise_the_scalar_calls(curve, alpha, beta):
    p = Params(alpha, beta)
    Q = Point(0.45, 0.4)
    s = np.linspace(0.05, 0.95, 20) * curve.length
    xs, ys, _, _, nxs, nys, _ = curve.frames(s)
    batch = dq4_dn_many(p, xs, ys, nxs, nys, Q)
    for cp, value in zip(curve.points_at(s), batch.tolist()):
        assert dq4_dn(p, cp, Q) == value
    # reversed, as a (4, 5) block, and against per-pair sources
    assert np.array_equal(
        dq4_dn_many(p, xs[::-1], ys[::-1], nxs[::-1], nys[::-1], Q),
        batch[::-1])
    block = dq4_dn_many(p, *(v.reshape(4, 5) for v in (xs, ys, nxs, nys)), Q)
    assert np.array_equal(block.ravel(), batch)
    pairs = (np.full(xs.shape, Q.x), np.full(xs.shape, Q.y))
    assert np.array_equal(dq4_dn_many(p, xs, ys, nxs, nys, pairs), batch)


def test_conormal_many_needs_points_inside_the_quadrant():
    with pytest.raises(DomainError):
        dq4_dn_many(P25, [0.5, 0.0], [0.5, 1.0], [0.7, 0.0], [0.7, 1.0],
                    Point(0.45, 0.4))


def test_weighted_conormal_bounded_at_endpoint(curve):
    # the weight x^(2a) y^(2b) tames the conormal derivative where the
    # curve meets the x axis
    Q = Point(0.45, 0.4)
    l = curve.length
    vals = []
    for d in l * 2.0 ** (-np.arange(6, 16, dtype=float)):
        cp = curve.point_at(l - float(d))
        w = cp.x ** (2 * P25.alpha) * cp.y ** (2 * P25.beta)
        vals.append(abs(w * dq4_dn(P25, cp, Q)))
    assert max(vals) < 10.0 * max(vals[0], 1.0e-12)


def test_weighted_conormal_many_matches_scalar(curve):
    Q = Point(0.45, 0.4)
    ss = np.linspace(0.2, 0.8, 5) * curve.length
    cps = curve.points_at(ss)
    xs = np.array([c.x for c in cps])
    ys = np.array([c.y for c in cps])
    nxs = np.array([c.normal[0] for c in cps])
    nys = np.array([c.normal[1] for c in cps])
    batch = weighted_dq4_dn_many(P25, xs, ys, nxs, nys, Q)
    for i, cp in enumerate(cps):
        w = cp.x ** (2 * P25.alpha) * cp.y ** (2 * P25.beta)
        assert batch[i] == pytest.approx(w * dq4_dn(P25, cp, Q), rel=1e-12)


# -- log singularity --------------------------------------------------------------

def test_log_coefficient_law():
    # q4 * 4 pi x0^(2a) y0^(2b) / ln(1/r^2) -> 1 as the pair merges; the
    # raw ratio closes in like 1/ln(1/r^2), so the limit is read off by
    # extrapolating linearly in that small parameter
    x0, y0 = 0.6, 0.8
    w = 4.0 * math.pi * x0 ** (2 * P25.alpha) * y0 ** (2 * P25.beta)
    ts, ratios = [], []
    prev = None
    for h in (1e-2, 1e-3, 1e-4, 1e-5):
        val = q4(P25, Point(x0 + h, y0), Point(x0, y0))
        big_l = math.log(1.0 / h ** 2)
        ratio = val * w / big_l
        err = abs(ratio - 1.0)
        if prev is not None:
            assert err < prev
        prev = err
        ts.append(1.0 / big_l)
        ratios.append(ratio)
    slope = (ratios[-2] - ratios[-1]) / (ts[-2] - ts[-1])
    extrapolated = ratios[-1] - ts[-1] * slope
    assert abs(extrapolated - 1.0) <= 1.0e-3
