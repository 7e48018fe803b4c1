"""End-to-end acceptance checks, one test per criterion.

Each test prints a single PASS line with the measured margin once its
assertions hold, so `pytest -v -rA` (or a failure report) shows the
criterion outcomes at a glance.  Wall-clock caps are asserted where the
criterion carries a runtime budget.
"""

import json
import math
import time

import numpy as np

from biaxpot import (Density, Params, Point, double_layer, dq4_dn, grad_q4,
                     kernel_K4_row)
from biaxpot.bie import convergence_study
from biaxpot.cli import main
from biaxpot.kernel import q4
from biaxpot.potential import _panel_nodes

P25 = Params(0.25, 0.25)


def _run_cli(tmp_path, config: dict | None, *argv: str) -> tuple[int, dict]:
    args = []
    if config is not None:
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        args += ["--config", str(path)]
    rc = main(args + ["--out", str(tmp_path / "out")] + list(argv))
    with open(tmp_path / "out" / "summary.json", encoding="utf-8") as f:
        return rc, json.load(f)


def test_criterion_1_special_function_identities(tmp_path):
    t0 = time.perf_counter()
    rc, summary = _run_cli(tmp_path, None, "verify", "specfun")
    elapsed = time.perf_counter() - t0
    assert rc == 0
    assert len(summary["checks"]) == 4
    worst = max(c["residual"] for c in summary["checks"])
    assert worst <= 1.0e-9
    assert elapsed <= 30.0
    print(f"criterion 1 PASS: 4 identities x 200 cases, worst rel err "
          f"{worst:.2e} <= 1e-9, {elapsed:.1f}s")


def test_criterion_2_q4_symmetry_rates_and_pde():
    t0 = time.perf_counter()
    # exchange symmetry of the fundamental solution
    worst_sym = 0.0
    rng = np.random.default_rng(41)
    for p in (P25, Params(0.1, 0.4)):
        for _ in range(100):
            x, y, x0, y0 = rng.uniform(0.05, 2.0, size=4)
            if math.hypot(x - x0, y - y0) < 0.05:
                continue
            a = q4(p, Point(x, y), Point(x0, y0))
            b = q4(p, Point(x0, y0), Point(x, y))
            worst_sym = max(worst_sym, abs(a - b) / max(abs(a), 1e-300))
    assert worst_sym <= 1.0e-12

    # axis vanishing rates 1-2a and 1-2b from log-log slopes
    p = Params(0.1, 0.4)
    src = Point(1.0, 1.2)
    vx = [q4(p, Point(x, 0.5), src) for x in (1e-4, 1e-5)]
    slope_x = math.log(vx[0] / vx[1]) / math.log(10.0)
    vy = [q4(p, Point(0.5, y), src) for y in (1e-4, 1e-5)]
    slope_y = math.log(vy[0] / vy[1]) / math.log(10.0)
    assert abs(slope_x - (1.0 - 2.0 * p.alpha)) <= 1.0e-3
    assert abs(slope_y - (1.0 - 2.0 * p.beta)) <= 1.0e-3

    # five-point residual of the equation shrinks like h^2
    def residual(h: float) -> float:
        x0, y0 = 0.6, 0.8
        w = lambda x, y: q4(P25, Point(x, y), Point(1.4, 1.3))
        c = w(x0, y0)
        lap = ((w(x0 + h, y0) - 2 * c + w(x0 - h, y0)) / h ** 2
               + (w(x0, y0 + h) - 2 * c + w(x0, y0 - h)) / h ** 2)
        low = (2 * P25.alpha / x0 * (w(x0 + h, y0) - w(x0 - h, y0)) / (2 * h)
               + 2 * P25.beta / y0 * (w(x0, y0 + h) - w(x0, y0 - h)) / (2 * h))
        return abs(lap + low)

    res = [residual(h) for h in (1e-2, 5e-3, 2.5e-3)]
    assert res[1] <= res[0] / 3.0
    assert res[2] <= res[1] / 3.0
    elapsed = time.perf_counter() - t0
    assert elapsed <= 60.0
    print(f"criterion 2 PASS: symmetry {worst_sym:.2e} <= 1e-12, slopes "
          f"({slope_x:.5f}, {slope_y:.5f}), pde ratios "
          f"({res[0] / res[1]:.2f}, {res[1] / res[2]:.2f}), {elapsed:.1f}s")


def test_criterion_3_gradient_and_conormal(curve):
    # analytic gradient against central differences
    rng = np.random.default_rng(43)
    worst_fd = 0.0
    drawn = 0
    while drawn < 100:
        x, y, x0, y0 = rng.uniform(0.08, 1.4, size=4)
        if math.hypot(x - x0, y - y0) < 0.08:
            continue
        drawn += 1
        Q = Point(x0, y0)
        gx, gy = grad_q4(P25, Point(x, y), Q)
        h = 1.0e-5
        fx = (q4(P25, Point(x + h, y), Q) - q4(P25, Point(x - h, y), Q)) / (2 * h)
        fy = (q4(P25, Point(x, y + h), Q) - q4(P25, Point(x, y - h), Q)) / (2 * h)
        rel = math.hypot(gx - fx, gy - fy) / max(math.hypot(gx, gy), 1e-300)
        worst_fd = max(worst_fd, rel)
    assert worst_fd <= 1.0e-6

    # conormal derivative equals the normal-projected gradient
    worst_cn = 0.0
    src = Point(1.5, 1.5)
    for frac in np.linspace(0.05, 0.95, 25):
        cp = curve.point_at(float(frac) * curve.length)
        dn = dq4_dn(P25, cp, src)
        gx, gy = grad_q4(P25, Point(cp.x, cp.y), src)
        proj = cp.normal[0] * gx + cp.normal[1] * gy
        worst_cn = max(worst_cn, abs(dn - proj) / max(abs(dn), 1.0))
    assert worst_cn <= 1.0e-10
    print(f"criterion 3 PASS: gradient fd {worst_fd:.2e} <= 1e-6, "
          f"conormal {worst_cn:.2e} <= 1e-10")


def test_criterion_4_gauge_identity_three_parameter_sets(tmp_path):
    t0 = time.perf_counter()
    worst = 0.0
    for k, (alpha, beta) in enumerate([(0.25, 0.25), (0.1, 0.4),
                                       (0.45, 0.05)]):
        sub = tmp_path / f"set{k}"
        sub.mkdir()
        cfg = {"params": {"alpha": alpha, "beta": beta},
               "interior_points": 10, "oncurve_points": 5,
               "exterior_points": 5}
        rc, summary = _run_cli(sub, cfg, "verify", "gauge")
        assert rc == 0
        assert len(summary["checks"]) == 20
        kinds = [c["name"].split()[1] for c in summary["checks"]]
        assert kinds.count("inside") == 10
        assert kinds.count("on") == 5
        assert kinds.count("outside") == 5
        worst = max(worst, max(c["residual"] for c in summary["checks"]))
    assert worst <= 1.0e-5
    elapsed = time.perf_counter() - t0
    assert elapsed <= 300.0
    print(f"criterion 4 PASS: 3 parameter sets x 20 points, worst residual "
          f"{worst:.2e} <= 1e-5, {elapsed:.1f}s")


def test_criterion_5_flux_identities(tmp_path):
    rc, summary = _run_cli(tmp_path, None, "verify", "flux")
    assert rc == 0
    outside = [c for c in summary["checks"] if "outside" in c["name"]]
    inside = [c for c in summary["checks"] if "inside" in c["name"]]
    assert len(outside) == 3 and len(inside) == 2
    worst_out = max(c["residual"] for c in outside)
    worst_in = max(c["residual"] for c in inside)
    assert worst_out <= 1.0e-6
    assert worst_in <= 1.0e-5
    print(f"criterion 5 PASS: exterior flux {worst_out:.2e} <= 1e-6, "
          f"interior flux+1 {worst_in:.2e} <= 1e-5")


def test_criterion_6_jump_relations(tmp_path, curve):
    # trace jumps for three densities at twenty arclengths
    rc, summary = _run_cli(tmp_path, None, "verify", "jumps")
    assert rc == 0
    worst_jump = max(c["residual"] for c in summary["checks"])
    assert worst_jump <= 1.0e-5

    # off-curve consistency: the two-sided difference along the normal,
    # sampled down to distance 1e-3 and extrapolated through its
    # d log d boundary-layer expansion, recovers the density
    l = curve.length
    mu = Density(lambda t: np.sin(np.pi * np.asarray(t) / l))
    ds = np.array([1e-1, 3e-2, 1e-2, 3e-3, 1e-3])
    basis = np.column_stack([np.ones_like(ds), ds * np.log(ds), ds,
                             ds ** 2 * np.log(ds)])
    worst_lim = 0.0
    for frac in (0.37, 0.6):
        s0 = frac * l
        cp = curve.point_at(s0)
        diffs = []
        for d in ds:
            we = double_layer(P25, curve, mu,
                              Point(cp.x + d * cp.normal[0],
                                    cp.y + d * cp.normal[1]))
            wi = double_layer(P25, curve, mu,
                              Point(cp.x - d * cp.normal[0],
                                    cp.y - d * cp.normal[1]))
            diffs.append(we - wi)
        coef, *_ = np.linalg.lstsq(basis, np.array(diffs), rcond=None)
        worst_lim = max(worst_lim, abs(coef[0] - float(mu(s0))))
    assert worst_lim <= 1.0e-4
    print(f"criterion 6 PASS: jump residual {worst_jump:.2e} <= 1e-5, "
          f"approach limit {worst_lim:.2e} <= 1e-4")


def test_criterion_7_log_singularity_law():
    # q4 * 4 pi * x0^2a y0^2b / log(1/r^2) -> 1; one Richardson step in
    # 1/log removes the leading correction
    x0, y0 = 0.6, 0.8
    src = Point(x0, y0)
    weight = 4.0 * math.pi * x0 ** (2 * P25.alpha) * y0 ** (2 * P25.beta)

    def ratio(h: float) -> tuple[float, float]:
        r2 = 2.0 * h * h
        L = math.log(1.0 / r2)
        return weight * q4(P25, Point(x0 + h, y0 + h), src) / L, L

    extrapolated = []
    for h1, h2 in ((1e-3, 1e-4), (1e-4, 1e-5)):
        r1, L1 = ratio(h1)
        r2, L2 = ratio(h2)
        extrapolated.append((L2 * r2 - L1 * r1) / (L2 - L1))
    errs = [abs(v - 1.0) for v in extrapolated]
    assert errs[1] <= errs[0]
    assert errs[1] <= 1.0e-3
    print(f"criterion 7 PASS: extrapolated ratio error {errs[1]:.2e} <= 1e-3")


def test_criterion_8_weighted_kernel_integrability(curve):
    # the absolute weighted kernel is integrable across its log
    # singularity: deeper singularity-centered grading changes the
    # integral by less and less.  Dyadic 12-point panels close in on s0
    # from both sides, each side down to 2^-levels of its reach, and the
    # gap around s0 is left out
    l = curve.length
    s0 = 0.37 * l
    vals = []
    for levels in (9, 12, 15, 18):
        halves = 0.5 ** np.arange(levels + 1)
        sides = [_panel_nodes(edges, 12) for edges in (
            s0 - s0 * halves, s0 + (l - s0) * halves[::-1])]
        nodes, weights = (np.concatenate(v) for v in zip(*sides))
        k = np.abs(kernel_K4_row(P25, curve, s0, nodes))
        vals.append(float(np.sum(weights * k)))
    ratios = [abs(vals[i + 1] / vals[i] - 1.0) for i in range(len(vals) - 1)]
    assert ratios[0] > ratios[1] > ratios[2]
    assert ratios[2] <= 1.0e-3
    print(f"criterion 8 PASS: refinement ratios {ratios[0]:.2e} > "
          f"{ratios[1]:.2e} > {ratios[2]:.2e}, last <= 1e-3")


def test_criterion_9_dirichlet_solve_convergence(curve):
    t0 = time.perf_counter()
    probes = [Point(0.3, 0.3), Point(0.5, 0.2), Point(0.45, 0.45)]
    study = convergence_study(P25, curve, [16, 32, 64, 128], probes)
    errors = study["errors"]
    assert errors[2] <= 1.0e-4  # n = 64
    assert study["order"] >= 2.0
    elapsed = time.perf_counter() - t0
    assert elapsed <= 600.0
    print(f"criterion 9 PASS: n=64 probe error {errors[2]:.2e} <= 1e-4, "
          f"order {study['order']:.2f} >= 2, {elapsed:.1f}s")
