"""Nystrom discretization and the interior Dirichlet solve."""

import dataclasses
import json
import math
from types import SimpleNamespace

import numpy as np
import pytest

from biaxpot import (Curve, Density, DomainError, Params, Point,
                     SolveError, k_gauge, kernel_K4_log_split, kernel_K4_row,
                     weighted_dq4_dn_many)
from biaxpot import bie as bie_mod
from biaxpot import kernel as kernel_mod
from biaxpot import potential as potential_mod
from biaxpot.bie import (PANEL_ORDER, _lagrange_coeffs, _log_panel_weights,
                         assemble,
                         condition_estimate, convergence_study,
                         default_exterior_source, evaluate, evaluate_many,
                         manufactured_data, solve_dirichlet)
from biaxpot.potential import NEAR_FIELD_TOL, boundary_trace, double_layer
from biaxpot.cli import main
from biaxpot.kernel import q4
from biaxpot.specfun import gauss_rule

P25 = Params(0.25, 0.25)


@pytest.fixture(scope="module")
def manufactured(curve):
    src = default_exterior_source(curve)
    f = manufactured_data(P25, curve, src)
    sys = assemble(P25, curve, 64, f=f)
    mu = solve_dirichlet(sys)
    return src, f, sys, mu


# -- assembly ---------------------------------------------------------------------

def test_assemble_validates_node_count(curve):
    with pytest.raises(DomainError):
        assemble(P25, curve, 8)
    with pytest.raises(DomainError):
        assemble(P25, curve, 60)


def test_assemble_matrix_is_finite(curve, manufactured):
    _, _, sys, _ = manufactured
    assert sys.matrix.shape == (64, 64)
    assert np.all(np.isfinite(sys.matrix))
    assert np.all(sys.weights > 0.0)
    assert np.all(np.diff(sys.nodes) > 0.0)


def test_assemble_offdiagonal_entries(curve, manufactured):
    # away from the product-integration band the entries are plain
    # weight-times-kernel values
    _, _, sys, _ = manufactured
    for i in (5, 20, 40):
        for j in (10, 33, 57):
            if abs(i // PANEL_ORDER - j // PANEL_ORDER) < 2:
                continue
            want = sys.weights[j] * kernel_K4_row(P25, curve, sys.nodes[i],
                                                  [sys.nodes[j]])[0]
            assert sys.matrix[i, j] == pytest.approx(want, abs=1e-15)


def test_assemble_meshes_share_the_kernel(curve):
    # the continuous kernel behind the entries does not depend on the
    # mesh: away from the diagonal band each matrix implies the same
    # kernel function, whatever the node layout
    coarse = assemble(P25, curve, 32)
    fine = assemble(P25, curve, 64)
    for sys in (coarse, fine):
        i = PANEL_ORDER // 2
        j = sys.n - PANEL_ORDER // 2
        implied = sys.matrix[i, j] / sys.weights[j]
        want = kernel_K4_row(P25, curve, sys.nodes[i], [sys.nodes[j]])[0]
        assert implied == pytest.approx(want, rel=1e-13)
    # and a 16-node assembly still produces a usable (finite) matrix
    tiny = assemble(P25, curve, 16)
    assert np.all(np.isfinite(tiny.matrix))


def test_assemble_row_sums_match_unit_density_trace(curve, manufactured):
    # K-part acting on the unit density reproduces the on-curve integral,
    # which the gauge identity pins at k - 1/2
    _, _, sys, _ = manufactured
    rows = sys.matrix @ np.ones(sys.n) + 0.5
    for i in range(8, 56, 5):
        cp = curve.point_at(sys.nodes[i])
        want = k_gauge(P25, 1.0, 1.0, Point(cp.x, cp.y)) - 0.5
        assert abs(rows[i] - want) <= 1.0e-4


@pytest.mark.parametrize("alpha, beta, a, b, q", [
    (0.25, 0.25, 1.0, 1.0, 3.0), (0.1, 0.4, 1.0, 1.0, 3.0),
    (0.25, 0.25, 6.0, 1.0, 8.0), (0.45, 0.45, 1.0, 1.0, 2.0)])
def test_nystrom_rows_match_the_graded_trace(alpha, beta, a, b, q):
    # the two on-curve routes, independent of each other: collocation rows
    # with their product-integration log weights, and the log-graded trace
    # rule of boundary_trace, both over the whole arc.  The density vanishes
    # to sixth order at both ends.  Over these cases the rows miss the trace
    # by at most 9.8e-7 at n = 64 and 2.4e-7 at n = 128; without their log
    # weights, by 5e-2 and more.
    p, curve = Params(alpha, beta), Curve(a, b, q)
    l = curve.length
    mu = Density(lambda t: (4.0 * t * (l - t) / l ** 2) ** 6)
    for n in (64, 128):
        sys = assemble(p, curve, n)
        rows = np.linspace(0, n - 1, 9).round().astype(int)
        values = mu(sys.nodes)
        got = (sys.matrix @ values)[rows] + 0.5 * values[rows]
        want = [potential_mod._trace_integral(p, curve, mu,
                                              float(sys.nodes[i]))
                for i in rows]
        assert np.max(np.abs(got - want)) <= 2.0e-6 * (64 / n) ** 2


def _row_by_row(p, curve, sys):
    """The collocation matrix, log slopes and regular diagonals of ``sys``
    rebuilt row by row: one weighted_dq4_dn_many call per row with the
    row's node as a fixed Point source, and the scalar log split."""
    n, nodes, weights, edges = sys.n, sys.nodes, sys.weights, sys.edges
    xs, ys, _, _, nxs, nys, _ = curve.frames(nodes)
    matrix = np.empty((n, n))
    slopes = np.empty(n)
    regulars = np.empty(n)
    for i in range(n):
        others = np.arange(n) != i
        row = np.zeros(n)
        row[others] = weighted_dq4_dn_many(p, xs[others], ys[others],
                                           nxs[others], nys[others],
                                           Point(xs[i], ys[i]))
        slope, regular = kernel_K4_log_split(p, curve, float(nodes[i]))
        slopes[i], regulars[i] = slope, regular
        arow = weights * row
        panel = i // PANEL_ORDER
        for q in range(max(0, panel - 1), min(n // PANEL_ORDER, panel + 2)):
            lam = _log_panel_weights(edges[q], edges[q + 1], nodes[i],
                                     PANEL_ORDER)
            for k in range(PANEL_ORDER):
                j = q * PANEL_ORDER + k
                if j == i:
                    arow[j] = weights[j] * regular + slope * lam[k]
                else:
                    gap = math.log(abs(nodes[j] - nodes[i]))
                    arow[j] = (weights[j] * (row[j] - slope * gap)
                               + slope * lam[k])
        matrix[i] = arow
    matrix[np.arange(n), np.arange(n)] -= 0.5
    return matrix, slopes, regulars


# nu = (s0 - panel centre) / panel half-width: inside the panel, at its
# edges, and across both neighbours out to the far edges
LOG_WEIGHT_NUS = np.concatenate((np.linspace(-3.0, 3.0, 41),
                                 [-1.0, 1.0, 1.0 + 1e-9, -1.0 - 1e-9,
                                  1.4999999, 1.5, -1.5, 2.96, -2.96]))


def _binomial_log_weights(lo, hi, s0, order):
    """The product-integration weights by binomial expansion of the log
    moments around s0: the former construction, kept as a reference."""
    def anti(power, t):
        r = power + 1
        return 0.0 if t == 0.0 else t ** r / r * (math.log(abs(t)) - 1.0 / r)

    half = 0.5 * (hi - lo)
    nu = (s0 - 0.5 * (lo + hi)) / half
    moments = []
    for r in range(order):
        part = sum(math.comb(r, k) * nu ** (r - k)
                   * (anti(k, 1.0 - nu) - anti(k, -1.0 - nu))
                   for k in range(r + 1))
        plain = 2.0 / (r + 1.0) if r % 2 == 0 else 0.0
        moments.append(half * (math.log(half) * plain + part))
    return _lagrange_coeffs(order).T @ np.array(moments)


def test_log_panel_weights_match_quad():
    from scipy.integrate import quad
    lo, hi, order = 0.2, 0.7, PANEL_ORDER
    u, _ = gauss_rule(order)
    nodes = 0.45 + 0.25 * u

    def basis(k, t):
        others = np.delete(nodes, k)
        return np.prod((t - others) / (nodes[k] - others))

    def from_s0(k, s0, x):
        # int_s0^x L_k(t) ln|t - s0| dt, quad's algebraic-log weight taking
        # the log at the s0 end exactly
        def f(t):
            return basis(k, t)
        if x > s0:
            return quad(f, s0, x, weight="alg-loga", wvar=(0.0, 0.0),
                        epsabs=1.0e-14, epsrel=1.0e-14)[0]
        if x < s0:
            return -quad(f, x, s0, weight="alg-logb", wvar=(0.0, 0.0),
                         epsabs=1.0e-14, epsrel=1.0e-14)[0]
        return 0.0

    for nu in LOG_WEIGHT_NUS:
        s0 = 0.45 + 0.25 * nu
        got = _log_panel_weights(lo, hi, s0, order)
        for k in range(order):
            if abs(nu) > 1.25:  # smooth on the panel
                want = quad(lambda t: basis(k, t) * math.log(abs(t - s0)),
                            lo, hi, epsabs=1.0e-14, epsrel=1.0e-14)[0]
            else:
                want = from_s0(k, s0, hi) - from_s0(k, s0, lo)
            assert abs(got[k] - want) <= 1.0e-13, (nu, k)


def test_log_panel_weights_match_the_binomial_expansion():
    # the expansion keeps its digits only for s0 inside the panel; from its
    # edges on it cancels (on [-1, 1], 1.4e-13 off at nu = 1 and 1e-9 at
    # nu = 2.96 against 40-digit moments), so the comparison stays inside
    for nu in LOG_WEIGHT_NUS[np.abs(LOG_WEIGHT_NUS) < 1.0]:
        s0 = 0.45 + 0.25 * nu
        got = _log_panel_weights(0.2, 0.7, s0, PANEL_ORDER)
        want = _binomial_log_weights(0.2, 0.7, s0, PANEL_ORDER)
        assert np.max(np.abs(got - want)) <= 1.0e-13, nu


def test_log_panel_weights_batch_equals_scalar_calls(curve):
    sys = assemble(P25, curve, 32)
    edges, nodes = sys.edges, sys.nodes
    pairs = [(i, q) for i in range(sys.n)
             for q in range(max(0, i // PANEL_ORDER - 1),
                            min(sys.n // PANEL_ORDER, i // PANEL_ORDER + 2))]
    rows, cols = np.array(pairs).T
    batch = _log_panel_weights(edges[cols], edges[cols + 1], nodes[rows],
                               PANEL_ORDER)
    assert batch.shape == (len(pairs), PANEL_ORDER)
    for (i, q), lam in zip(pairs, batch):
        one = _log_panel_weights(edges[q], edges[q + 1], nodes[i],
                                 PANEL_ORDER)
        assert one.shape == (PANEL_ORDER,)
        assert np.array_equal(one, lam)


@pytest.mark.parametrize("alpha, beta", [(0.25, 0.25), (0.1, 0.4)])
@pytest.mark.parametrize("a, b, q", [(1.0, 1.0, 3.0), (1.0, 6.0, 2.0)])
def test_symmetric_assembly_matches_row_by_row(alpha, beta, a, b, q,
                                               monkeypatch):
    p = Params(alpha, beta)
    calls = []
    families = kernel_mod.f2_kernel_families

    def counted(*args):
        calls.append(np.size(args[5]))
        return families(*args)

    monkeypatch.setattr(kernel_mod, "f2_kernel_families", counted)
    sys = assemble(p, Curve(a, b, q), 32)
    # one F2 call for the upper triangle, one for the log-split offsets
    assert calls == [32 * 31 // 2, 2 * 32]
    # a separate curve, so that the reference shares no curve state
    want = _row_by_row(p, Curve(a, b, q), sys)
    for got, ref in zip((sys.matrix, sys.log_slope, sys.regular_diag), want):
        assert np.all(np.abs(got - ref) <= 1.0e-14 * np.abs(ref))


def test_assemble_names_the_first_failing_row(curve, monkeypatch, tmp_path):
    nodes = assemble(P25, curve, 16).nodes
    # every pair now counts as singular, so row 0 fails first
    monkeypatch.setattr(kernel_mod, "SINGULAR_R2_FRAC", 1.0)
    with pytest.raises(SolveError,
                       match=rf"row 0 \(s = {nodes[0]:.6f}\).*too close"):
        assemble(P25, Curve(1.0, 1.0, 3.0), 16)
    (tmp_path / "config.json").write_text('{"nodes": 16}', encoding="utf-8")
    rc = main(["--config", str(tmp_path / "config.json"),
               "--out", str(tmp_path / "out"), "solve-dirichlet"])
    assert rc == 1
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["status"] == "fail"
    assert "row 0" in summary["error"]


def test_condition_estimate_finite(curve, manufactured):
    _, _, sys, _ = manufactured
    c = condition_estimate(sys)
    assert np.isfinite(c)
    assert 1.0 <= c <= 1.0e3


def test_condition_estimate_is_the_two_norm_condition(manufactured):
    # independent route: extreme eigenvalues of A^T A
    _, _, sys, _ = manufactured
    eig = np.linalg.eigvalsh(sys.matrix.T @ sys.matrix)
    assert condition_estimate(sys) == pytest.approx(
        np.sqrt(eig[-1] / eig[0]), rel=1e-8)
    for bad in (np.zeros_like(sys.matrix), np.full_like(sys.matrix, np.nan)):
        assert condition_estimate(dataclasses.replace(sys, matrix=bad)) \
            == math.inf


# -- solve ------------------------------------------------------------------------

def test_solve_homogeneous_data(curve):
    sys = assemble(P25, curve, 32, f=lambda s: np.zeros_like(np.asarray(s)))
    mu = solve_dirichlet(sys)
    assert np.max(np.abs(mu.values)) <= 1.0e-12


def test_solve_is_linear(curve, manufactured):
    _, f, sys, mu = manufactured
    doubled = assemble(P25, curve, 64,
                       f=lambda s: 2.0 * np.asarray(f(s)))
    mu2 = solve_dirichlet(doubled)
    assert np.max(np.abs(mu2.values - 2.0 * mu.values)) <= 1.0e-12


def test_solve_residual_bound(curve, manufactured):
    _, _, sys, mu = manufactured
    residual = np.max(np.abs(sys.matrix @ mu.values - sys.rhs))
    assert residual <= 1.0e-10 * np.max(np.abs(sys.rhs))


def test_solve_requires_data(curve):
    sys = assemble(P25, curve, 16)
    with pytest.raises(SolveError):
        solve_dirichlet(sys)


def test_solved_density_panels_span_the_arc(curve, manufactured):
    _, _, sys, mu = manufactured
    assert np.array_equal(mu.edges, sys.edges)
    assert mu.edges[0] == 0.0 and mu.edges[-1] == curve.length
    assert np.allclose(np.diff(mu.edges), curve.length / 8.0, rtol=1e-12)
    assert 0.0 < sys.nodes[0] and sys.nodes[-1] < curve.length


def test_solved_density_is_the_nystrom_panel_interpolant(manufactured):
    _, _, sys, mu = manufactured
    assert np.array_equal(mu.edges, sys.edges)
    assert np.array_equal(mu.nodes, sys.nodes)
    scale = np.max(np.abs(mu.values))
    # the Legendre form gives back its node values to 6.7e-15 of the
    # largest (the monomial form missed by 3.1e-14), here and at n = 128
    assert np.max(np.abs(mu(sys.nodes) - mu.values)) <= 2.0e-14 * scale
    # the same interpolant gives back a different degree-7 polynomial on
    # every panel, between the nodes and up to the panel edges
    rng = np.random.default_rng(8)
    polys = [np.polynomial.Polynomial(rng.normal(size=PANEL_ORDER),
                                      domain=[lo, hi])
             for lo, hi in zip(sys.edges[:-1], sys.edges[1:])]
    nodes = sys.nodes.reshape(len(polys), PANEL_ORDER)
    poly_mu = Density.from_panels(
        sys.edges, np.concatenate([p(t) for p, t in zip(polys, nodes)]))
    for p, lo, hi in zip(polys, sys.edges[:-1], sys.edges[1:]):
        t = np.append(rng.uniform(lo, hi, 50), lo)
        want = p(t)
        assert np.max(np.abs(poly_mu(t) - want)) <= 1.0e-13 * np.max(
            np.abs(want))


def test_boundary_trace_of_the_solved_density_gives_back_the_data(
        curve, manufactured):
    # the panels span the arc the trace rule spans, so the interior trace,
    # an independent on-curve route, is the boundary data: to 9e-10 mid-arc
    # and 4.3e-7 at the end nodes
    _, f, sys, mu = manufactured
    for i in (0, 1, 20, 32, 62, 63):
        s = float(sys.nodes[i])
        assert abs(boundary_trace(P25, curve, mu, s, "interior")
                   - f(s)) <= 1.0e-6


@pytest.mark.filterwarnings("ignore::scipy.linalg.LinAlgWarning")
def test_solve_reports_singular_matrix(curve):
    sys = assemble(P25, curve, 16, f=lambda s: np.ones_like(np.asarray(s)))
    sys.matrix[1, :] = sys.matrix[0, :]
    with pytest.raises(SolveError, match="singular"):
        solve_dirichlet(sys)


# -- evaluation against the exact solution ----------------------------------------

def test_evaluate_matches_exact_solution(curve, manufactured):
    src, _, _, mu = manufactured
    for q in (Point(0.3, 0.3), Point(0.5, 0.2), Point(0.15, 0.6)):
        u = evaluate(P25, curve, mu, q)
        assert abs(u - q4(P25, q, src)) <= 1.0e-4


def test_evaluate_near_the_curve(curve, manufactured):
    # closer than the rule's standoff the adaptive path takes over
    src, _, _, mu = manufactured
    cp = curve.point_at(0.45 * curve.length)
    shallow = Point(cp.x - 0.03 * cp.normal[0], cp.y - 0.03 * cp.normal[1])
    u = evaluate(P25, curve, mu, shallow)
    assert abs(u - q4(P25, shallow, src)) <= 1.0e-4


def test_evaluate_satisfies_pde(curve, manufactured):
    _, _, _, mu = manufactured

    def u(x, y):
        return evaluate(P25, curve, mu, Point(x, y))

    x0, y0 = 0.35, 0.4
    res = []
    for h in (2e-2, 1e-2, 5e-3):
        c = u(x0, y0)
        lap = ((u(x0 + h, y0) - 2 * c + u(x0 - h, y0)) / h ** 2
               + (u(x0, y0 + h) - 2 * c + u(x0, y0 - h)) / h ** 2)
        low = (2 * P25.alpha / x0 * (u(x0 + h, y0) - u(x0 - h, y0)) / (2 * h)
               + 2 * P25.beta / y0 * (u(x0, y0 + h) - u(x0, y0 - h)) / (2 * h))
        res.append(abs(lap + low))
    assert res[0] > res[1] > res[2]
    assert res[2] <= res[0] / 9.0


def test_evaluate_axis_vanishing_rates(curve, manufactured):
    # u inherits the x^(1-2a), y^(1-2b) axis behavior of the kernel
    _, _, _, mu = manufactured
    vals = [evaluate(P25, curve, mu, Point(x, 0.4))
            for x in (1e-3, 1e-4)]
    slope = np.log(vals[0] / vals[1]) / np.log(10.0)
    assert abs(slope - (1.0 - 2.0 * P25.alpha)) <= 1.0e-3
    vals = [evaluate(P25, curve, mu, Point(0.4, y))
            for y in (1e-3, 1e-4)]
    slope = np.log(vals[0] / vals[1]) / np.log(10.0)
    assert abs(slope - (1.0 - 2.0 * P25.beta)) <= 1.0e-3


def _inward(curve, frac: float, depth: float) -> Point:
    """The point ``depth`` inside the arc along the normal at frac * l."""
    cp = curve.point_at(frac * curve.length)
    return Point(cp.x - depth * cp.normal[0], cp.y - depth * cp.normal[1])


@pytest.mark.parametrize("alpha, beta, q, a, n", [
    (0.25, 0.25, 3.0, 1.0, 16),
    (0.1, 0.4, 8.0, 6.0, 64),
    (0.01, 0.49, 2.0, 1.0, 64),
])
def test_evaluate_many_matches_the_tight_double_layer(monkeypatch, alpha,
                                                      beta, q, a, n):
    # against the generic adaptive integrator at tol 1e-12 on the same
    # support: all-far targets to 5e-11, targets with near pieces to the
    # near-field tolerance
    p, curve = Params(alpha, beta), Curve(a, 1.0, q)
    sys = assemble(p, curve, n, f=manufactured_data(p, curve))
    mu = solve_dirichlet(sys)
    bisected = []

    def spy(*args, **kwargs):
        bisected.append(True)
        return potential_mod._near_field(*args, **kwargs)

    monkeypatch.setattr(bie_mod, "_near_field", spy)
    all_far = 0
    for depth in (0.4, 0.1, 0.03, 3.0e-3):
        P = _inward(curve, 0.55, depth)
        bisected.clear()
        u = evaluate_many(p, curve, mu, [P])[0]
        ref = double_layer(p, curve, mu, P, tol=1.0e-12)
        assert abs(u - ref) <= (NEAR_FIELD_TOL if bisected else 5.0e-11)
        all_far += not bisected
        if depth <= 0.03:
            assert bisected
    assert all_far >= 1


@pytest.mark.parametrize("alpha, beta, q, a, spots", [
    (0.25, 0.25, 3.0, 1.0, [(0.2, 0.15), (0.5, 0.3), (0.8, 0.08)]),
    (0.1, 0.4, 8.0, 6.0, [(0.2, 0.3), (0.5, 0.15), (0.8, 0.3)]),
    (0.01, 0.49, 2.0, 1.0, [(0.2, 0.15), (0.5, 0.3), (0.8, 0.08)]),
])
def test_evaluate_many_tiered_far_rule_matches_the_tight_double_layer(
        monkeypatch, alpha, beta, q, a, spots):
    # all-far targets whose pieces take all three Gauss orders, in one batch,
    # each to 5e-11 of the generic adaptive integrator at tol 1e-12
    p, curve = Params(alpha, beta), Curve(a, 1.0, q)
    sys = assemble(p, curve, 64, f=manufactured_data(p, curve))
    mu = solve_dirichlet(sys)
    orders, bisected = [], []
    far_orders = bie_mod._far_orders

    def spy(ratio):
        orders.append(far_orders(ratio))
        return orders[-1]

    def bisect_spy(*args, **kwargs):
        bisected.append(True)
        return potential_mod._near_field(*args, **kwargs)

    monkeypatch.setattr(bie_mod, "_far_orders", spy)
    monkeypatch.setattr(bie_mod, "_near_field", bisect_spy)
    targets = [_inward(curve, frac, depth) for frac, depth in spots]
    values = evaluate_many(p, curve, mu, targets)
    assert not bisected and len(orders) == 1
    assert set(orders[0].tolist()) == {4, 6, 12}
    for P, u in zip(targets, values):
        ref = double_layer(p, curve, mu, P, tol=1.0e-12)
        assert abs(u - ref) <= 5.0e-11


def test_far_orders_take_the_larger_rule_below_each_edge():
    edges = np.array([1.0, 4.0, 16.0])
    below = np.nextafter(edges, 0.0)
    assert bie_mod._far_orders(below[1:]).tolist() == [12, 6]
    assert bie_mod._far_orders(edges).tolist() == [12, 6, 4]
    assert bie_mod._far_orders(np.array([3.999, 15.99, 1.0e6])).tolist() == [
        12, 6, 4]


def test_evaluate_many_sizes_far_pieces_by_curvature_too():
    # the target 0.3 inside at s = 0.5 l is 22 piece lengths from the piece
    # beside the corner at s = 0.89 l, whose radius of curvature is about
    # two piece lengths: a rule sized by the standoff alone errs by 1.8e-11
    p, curve = Params(0.1, 0.4), Curve(6.0, 1.0, 8.0)
    sys = assemble(p, curve, 64, f=manufactured_data(p, curve))
    mu = solve_dirichlet(sys)
    P = _inward(curve, 0.5, 0.3)
    u = evaluate_many(p, curve, mu, [P])[0]
    ref = double_layer(p, curve, mu, P, tol=1.0e-13)
    assert abs(u - ref) <= 1.0e-13


def test_evaluate_many_is_independent_of_the_batch(curve, manufactured):
    _, _, _, mu = manufactured
    targets = [Point(0.35, 0.3), _inward(curve, 0.45, 0.03),
               Point(0.2, 0.75), _inward(curve, 0.7, 3.0e-3),
               Point(0.6, 0.5)]
    batch = evaluate_many(P25, curve, mu, targets)
    assert batch.shape == (5,)
    for k, P in enumerate(targets):
        alone = evaluate_many(P25, curve, mu, [P])
        assert alone[0] == batch[k]
    reordered = evaluate_many(P25, curve, mu, targets[::-1])
    assert np.array_equal(reordered[::-1], batch)
    P = targets[0]
    assert evaluate(P25, curve, mu, P) == batch[0]


def test_evaluate_many_far_targets_take_one_kernel_call(curve, monkeypatch):
    sys = assemble(P25, curve, 16, f=manufactured_data(P25, curve))
    mu = solve_dirichlet(sys)
    calls = []

    def counted(*args, **kwargs):
        calls.append(np.size(args[1]))
        return weighted_dq4_dn_many(*args, **kwargs)

    monkeypatch.setattr(bie_mod, "weighted_dq4_dn_many", counted)
    monkeypatch.setattr(potential_mod, "weighted_dq4_dn_many", counted)
    targets = [Point(0.35, 0.3), Point(0.3, 0.45), Point(0.45, 0.25)]
    values = evaluate_many(P25, curve, mu, targets)
    # the 16 nodes and the 3 edges of the two panels cut the arc into 18
    # pieces per target, all far; of the 54, 36 take 12 nodes, 12 take 6
    # and 6 take 4: 432 + 72 + 24 = 528.  Sized by standoff and curvature
    # alone they would take 372: the distance to the nearer end of the arc
    # caps the ratio of the pieces toward both ends
    assert calls == [36 * 12 + 12 * 6 + 6 * 4]
    assert np.all(np.isfinite(values))


def test_evaluate_many_empty_and_invalid_targets(curve, manufactured):
    _, _, _, mu = manufactured
    empty = evaluate_many(P25, curve, mu, [])
    assert empty.shape == (0,)
    # a NaN Point fails at construction; a duck-typed target still meets
    # the evaluator's own open-quadrant check
    for bad in (Point(0.0, 0.3), Point(0.3, 0.0),
                SimpleNamespace(x=math.nan, y=0.3)):
        with pytest.raises(DomainError):
            evaluate_many(P25, curve, mu, [Point(0.3, 0.3), bad])
    with pytest.raises(DomainError):
        evaluate_many(P25, curve, Density.constant(1.0), [Point(0.3, 0.3)])
    with pytest.raises(DomainError):
        evaluate(P25, curve, Density.constant(1.0), Point(0.3, 0.3))


# -- refinement behavior ----------------------------------------------------------

@pytest.mark.parametrize("ns", [[16], [16, 16]])
def test_convergence_study_needs_two_distinct_node_counts(curve, ns):
    with pytest.raises(DomainError, match="two distinct"):
        convergence_study(P25, curve, ns, [Point(0.35, 0.3)])


def test_convergence_study_order(curve):
    probes = [Point(0.3, 0.3), Point(0.5, 0.2), Point(0.45, 0.45)]
    study = convergence_study(P25, curve, [16, 32, 64, 128], probes)
    errors = study["errors"]
    assert errors[2] <= 1.0e-4
    for coarse, fine in zip(errors, errors[1:]):
        assert fine <= coarse / 3.0
    assert study["order"] >= 2.0


@pytest.mark.parametrize("a, b", [(1.0, 1.0), (6.0, 1.0)])
@pytest.mark.parametrize("q", [2.0, 3.0, 8.0])
@pytest.mark.parametrize("alpha, beta", [(0.01, 0.49), (0.49, 0.01),
                                         (0.45, 0.45), (0.1, 0.4),
                                         (0.01, 0.01), (0.25, 0.25)])
def test_convergence_study_across_the_domain(alpha, beta, q, a, b):
    # exponents near both edges of 0 < 2 alpha, 2 beta < 1 and unequal
    # pairs, on round, stock and nearly square arcs, stretched or not.  The
    # worst of the 36 reads 1.3e-5 at n = 32 and 1.23e-7 at n = 64, and
    # every case falls at least 6.2x from 16 to 64.  No order is fitted: on
    # four arcs n = 16 already reads 6e-8 to 6e-7, so the first halving
    # stalls, and the q = 8, a/b = 6 arcs stay flat or rise at 2 and 4
    # panels before falling 240-5900x by n = 64; the rate is pinned by
    # test_convergence_study_order
    errors = convergence_study(Params(alpha, beta), Curve(a, b, q),
                               [16, 32, 64],
                               [Point(0.35 * a, 0.3 * b)])["errors"]
    assert errors[1] <= 2.0e-5
    assert errors[2] <= 2.0e-7
    assert errors[2] <= errors[0] / 4.0


@pytest.mark.parametrize("alpha, beta, q", [(0.25, 0.25, 3.0),
                                            (0.1, 0.4, 3.0),
                                            (0.45, 0.45, 2.0),
                                            (0.05, 0.3, 8.0)])
def test_solved_density_takes_the_end_exponents(alpha, beta, q):
    # the panels reach both ends, where the density goes like s^(1 - 2 alpha)
    # at B = (0, b) and (l - s)^(1 - 2 beta) at A = (a, 0): a log-log fit
    # over the six end nodes lands within 0.0027 of each exponent at n = 64.
    # Left out: 0.1/0.4 on the q = 8, a/b = 6 arc, whose A end reads 0.012
    # off at n = 64 and 0.0027 at n = 128, so its fit needs the finer mesh
    p, curve = Params(alpha, beta), Curve(1.0, 1.0, q)
    mu = solve_dirichlet(assemble(p, curve, 64,
                                  f=manufactured_data(p, curve)))
    s, log_mu = mu.nodes, np.log(np.abs(mu.values))
    at_b = np.polyfit(np.log(s[:6]), log_mu[:6], 1)[0]
    at_a = np.polyfit(np.log(curve.length - s[-6:]), log_mu[-6:], 1)[0]
    assert abs(at_b - (1.0 - 2.0 * alpha)) <= 0.005
    assert abs(at_a - (1.0 - 2.0 * beta)) <= 0.005


@pytest.mark.parametrize("alpha", [0.5, 0.0])
def test_exponents_outside_the_domain_are_typed_errors(tmp_path, alpha):
    with pytest.raises(DomainError):
        Params(alpha, 0.25)
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"params": {"alpha": alpha}}), encoding="utf-8")
    assert main(["--config", str(path), "--out", str(tmp_path / "out"),
                 "solve-dirichlet"]) == 2


def test_density_stays_smooth_under_refinement(curve, manufactured):
    src, f, _, mu64 = manufactured
    sys = assemble(P25, curve, 128, f=f)
    mu128 = solve_dirichlet(sys)
    d2_64 = np.max(np.abs(np.diff(mu64.values, 2)))
    d2_128 = np.max(np.abs(np.diff(mu128.values, 2)))
    assert d2_128 <= d2_64
    assert d2_64 <= 1.0e-2
