"""Batch command-line front end: evaluations, verification suites, solves.

Three commands, all driven by an optional JSON config file:

* ``eval-q4``        tabulates the fundamental solution and its gradient
                     magnitude over probe point pairs;
* ``verify SUITE``   runs one of the verification suites ``gauge``,
                     ``jumps``, ``flux``, ``gradient``, ``specfun`` and
                     reports each check against its tolerance;
* ``solve-dirichlet`` assembles and solves the boundary integral system
                     for manufactured (or zero) boundary data, measures
                     probe-point errors against the exact solution, and
                     reports how fast the arc flattens onto the axes.

Every command writes CSV detail files plus ``summary.json`` into the
output directory.  Numbers are printed with 17 significant digits and the
pipeline is deterministic: the same config produces bitwise-identical
output.  Randomized suites (``gradient``, ``specfun``) draw from a
generator seeded by the ``seed`` field (default 0), so they are
deterministic too unless the seed is changed.

Exit codes: 0 all checks passed, 1 at least one check failed, 2 malformed
or inconsistent config, 3 evaluation or solver failure (status "error").
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .bie import (PANEL_ORDER, assemble, condition_estimate,
                  convergence_study, default_exterior_source, evaluate_many,
                  manufactured_data, solve_dirichlet)
from .errors import ConfigError, DomainError, SolveError
from .geometry import Curve, Point, check_endpoint_conditions
from .kernel import Params, dq4_dn_many, grad_q4, grad_q4_many, q4, q4_many
from .potential import (Density, boundary_trace, classify, contour_flux,
                        gauge_identity_verify)
from .specfun import (appell_f2_series_sets, appell_f2_sets, gauss_2f1,
                      gauss_2f1_at_one)

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_CONFIG = 2
EXIT_INFRA = 3

SUITES = ("gauge", "jumps", "flux", "gradient", "specfun")

# Per-suite residual tolerances; the solver probe tolerance lives in the
# config (field "tolerance") because it scales with the node count.
TOL_GAUGE = 1.0e-5
TOL_JUMPS = 1.0e-5
TOL_FLUX_EXTERIOR = 1.0e-6
TOL_FLUX_INTERIOR = 1.0e-5
TOL_GRADIENT = 1.0e-6
TOL_CONORMAL = 1.0e-10
TOL_SPECFUN = 1.0e-9

_DEFAULT_PAIRS = (
    (0.35, 0.30, 0.70, 0.60),
    (0.70, 0.60, 0.35, 0.30),
    (0.00, 0.40, 0.70, 0.60),
    (0.60, 0.50, 0.20, 0.75),
)
_DEFAULT_PROBES = ((0.35, 0.30), (0.60, 0.50), (0.20, 0.75))
_DEFAULT_FLUX_EXTERIOR = ((2.0, 2.0), (1.5, 0.4), (0.3, 1.8))
_DEFAULT_FLUX_INTERIOR = ((0.5, 0.5), (0.35, 0.3))


# -- configuration ---------------------------------------------------------------

@dataclass(frozen=True)
class RunConfig:
    """Validated run configuration shared by all commands."""
    params: Params
    curve: Curve
    out: Path
    nodes: int
    seed: int
    tolerance: float
    raw: dict

    def geometry_echo(self) -> dict:
        return {
            "alpha": self.params.alpha, "beta": self.params.beta,
            "a": self.curve.a, "b": self.curve.b, "exponent": self.curve.q,
            "nodes": self.nodes, "seed": self.seed,
            "tolerance": self.tolerance,
        }


def _number(value, kind, where: str):
    """value coerced to kind (int or float); type errors are config errors
    naming ``where``.  Bools and strings are neither, floats must be
    finite, and integral for an int."""
    try:
        # bool is an int subclass
        if (isinstance(value, bool) or not isinstance(value, (int, float))
                or not math.isfinite(value)
                or (kind is int and value != int(value))):
            raise ValueError
        return kind(value)
    except (OverflowError, ValueError):
        noun = "an integer" if kind is int else "a finite number"
        raise ConfigError(f"{where} must be {noun}, got {value!r}") from None


def _want(raw: dict, key: str, kind, default):
    """Fetch raw[key] coerced to kind (int or float), or the default."""
    if key not in raw:
        return default
    return _number(raw[key], kind, f"config field {key!r}")


def _count(raw: dict, key: str, default: int) -> int:
    """Fetch the count field raw[key], an integer of at least 1."""
    value = _want(raw, key, int, default)
    if value < 1:
        raise ConfigError(f"config field {key!r} must be at least 1, "
                          f"got {value}")
    return value


def _point_list(raw: dict, key: str, width: int, default) -> tuple:
    """Validate a list of fixed-width tuples of JSON numbers."""
    if key not in raw:
        return default
    rows = raw[key]
    if not isinstance(rows, list) or not rows:
        raise ConfigError(f"config field {key!r} must be a nonempty list")
    out = []
    for k, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != width:
            raise ConfigError(
                f"config field {key!r} entry {k} must be a list of "
                f"{width} numbers")
        out.append(tuple(
            _number(v, float, f"each value of config field {key!r} entry {k}")
            for v in row))
    return tuple(out)


def _classified(curve: Curve, raw: dict, key: str, default,
                side: str) -> list[Point]:
    """The points of list field raw[key], each classified ``side`` of the
    domain; any other point is a config error naming field and entry."""
    points = []
    for k, (x, y) in enumerate(_point_list(raw, key, 2, default)):
        entry = f"config field {key!r} entry {k} ({x}, {y})"
        try:
            points.append(Point(x, y))
            where = classify(curve, points[-1])
        except DomainError as exc:
            raise ConfigError(f"{entry}: {exc}") from None
        if where != side:
            place = "on the curve" if where == "on" else f"{where} the domain"
            raise ConfigError(f"{entry} lies {place}; it must lie {side}")
    return points


def load_config(path: str | None, out_dir: str | None,
                nodes: int | None, seed: int | None) -> RunConfig:
    """Read, validate and normalize the JSON config; CLI flags win."""
    raw: dict = {}
    if path is not None:
        try:
            with open(path, encoding="utf-8") as f:
                raw = json.load(f)
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
        if not isinstance(raw, dict):
            raise ConfigError("config root must be a JSON object")

    pblock = raw.get("params", {})
    dblock = raw.get("domain", {})
    if not isinstance(pblock, dict) or not isinstance(dblock, dict):
        raise ConfigError("config fields 'params' and 'domain' must be objects")
    alpha = _want(pblock, "alpha", float, 0.25)
    beta = _want(pblock, "beta", float, 0.25)
    curve_kind = dblock.get("curve", "superellipse")
    if curve_kind != "superellipse":
        raise ConfigError(f"unknown curve kind {curve_kind!r}; "
                          "only 'superellipse' is available")
    a = _want(dblock, "a", float, 1.0)
    b = _want(dblock, "b", float, 1.0)
    q = _want(dblock, "exponent", float, 3.0)
    try:
        params = Params(alpha, beta)
        curve = Curve(a, b, q)
    except DomainError as exc:
        raise ConfigError(str(exc)) from exc

    n = nodes if nodes is not None else _want(raw, "nodes", int, 64)
    if n < 16 or n % PANEL_ORDER:
        raise ConfigError(f"node count must be a multiple of {PANEL_ORDER} "
                          f"and at least 16, got {n}")
    rng_seed = seed if seed is not None else _want(raw, "seed", int, 0)
    if rng_seed < 0:
        raise ConfigError(f"seed must be non-negative, got {rng_seed}")
    tol = _want(raw, "tolerance", float, 1.0e-4)
    if not 0.0 < tol < 1.0:
        raise ConfigError(f"tolerance must lie in (0, 1), got {tol}")
    out = raw.get("out", "results")
    if not isinstance(out, str):
        raise ConfigError(f"config field 'out' must be a path string, "
                          f"got {out!r}")
    out = Path(out_dir if out_dir is not None else out)
    return RunConfig(params=params, curve=curve, out=out, nodes=n,
                     seed=rng_seed, tolerance=tol, raw=raw)


# -- output ----------------------------------------------------------------------

def _fmt(value) -> str:
    """17-significant-digit cell; non-numeric cells pass through."""
    if isinstance(value, str):
        return value
    return f"{float(value):.17g}"


def write_csv(path: Path, header: list[str], rows: list[tuple]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def check(name: str, residual: float, tolerance: float) -> dict:
    return {
        "name": name,
        "residual": float(residual),
        "tolerance": float(tolerance),
        "status": "pass" if abs(residual) <= tolerance else "fail",
    }


def write_summary(cfg: RunConfig, command: str, checks: list[dict],
                  outputs: list[str], extra: dict | None = None) -> bool:
    """Write summary.json; returns True when every check passed."""
    n_fail = sum(1 for c in checks if c["status"] != "pass")
    summary = {
        "command": command,
        "config": cfg.geometry_echo(),
        "checks": checks,
        "counts": {"pass": len(checks) - n_fail, "fail": n_fail},
        "status": "pass" if n_fail == 0 else "fail",
        "outputs": sorted(outputs),
    }
    if extra:
        summary.update(extra)
    cfg.out.mkdir(parents=True, exist_ok=True)
    with open(cfg.out / "summary.json", "w", encoding="utf-8") as f:
        json.dump(summary, f, indent=2, sort_keys=True)
        f.write("\n")
    return n_fail == 0


# -- eval-q4 ---------------------------------------------------------------------

def cmd_eval_q4(cfg: RunConfig) -> int:
    pairs = _point_list(cfg.raw, "pairs", 4, _DEFAULT_PAIRS)
    for k, (x, y, x0, y0) in enumerate(pairs):
        if min(x, y, x0, y0) < 0.0:
            raise ConfigError(f"pair {k} leaves the closed quarter plane")
        if x == x0 and y == y0:
            raise ConfigError(f"pair {k} has coincident probe and source")
        if x0 == 0.0 or y0 == 0.0:
            raise ConfigError(f"pair {k} puts the source on an axis, where "
                              "the fundamental solution degenerates")
    rows = []
    p = cfg.params
    for (x, y, x0, y0) in pairs:
        P, Q = Point(x, y), Point(x0, y0)
        value = q4(p, P, Q)
        if x == 0.0 or y == 0.0:
            # the solution vanishes on the axes but its gradient blows up
            grad_norm = math.inf
        else:
            gx, gy = grad_q4(p, P, Q)
            grad_norm = math.hypot(gx, gy)
        rows.append((x, y, x0, y0, value, grad_norm))
    write_csv(cfg.out / "eval_q4.csv",
              ["x", "y", "x0", "y0", "q4", "grad_norm"], rows)
    write_summary(cfg, "eval-q4", [], ["eval_q4.csv"],
                  {"rows": len(rows)})
    return EXIT_PASS


# -- verify suites ---------------------------------------------------------------

def suite_gauge(cfg: RunConfig):
    """Interior / on-curve / exterior identity for the gauge function."""
    p, curve = cfg.params, cfg.curve
    n_int = _count(cfg.raw, "interior_points", 4)
    n_on = _count(cfg.raw, "oncurve_points", 3)
    n_ext = _count(cfg.raw, "exterior_points", 3)
    jump_for = {"inside": 1.0, "on": 0.5, "outside": 0.0}
    rows, checks = [], []
    for count, scale in ((n_int, 0.6), (n_on, 1.0), (n_ext, 1.25)):
        fracs = np.linspace(0.08, 0.92, count)
        xs, ys = curve.frames(fracs * curve.length)[:2]
        for x, y in zip(xs.tolist(), ys.tolist()):
            P0 = Point(scale * x, scale * y)
            res = gauge_identity_verify(p, curve, P0)
            k_val = res.rhs + jump_for[res.classification]
            rows.append((P0.x, P0.y, res.lhs, k_val, res.residual,
                         res.classification))
            checks.append(check(
                f"gauge {res.classification} ({P0.x:.4f}, {P0.y:.4f})",
                res.residual, TOL_GAUGE))
    header = ["x0", "y0", "w1", "k", "residual", "classification"]
    return header, rows, checks


def _test_densities(length: float):
    return (
        ("sin", Density(lambda s: np.sin(np.pi * s / length))),
        ("cos2p2", Density(lambda s: 2.0 + np.cos(2.0 * np.pi * s / length))),
        ("bump", Density(lambda s: (s / length) * (1.0 - s / length))),
    )


def suite_jumps(cfg: RunConfig):
    """Exterior minus interior trace equals the density."""
    p, curve = cfg.params, cfg.curve
    length = curve.length
    count = _count(cfg.raw, "arclengths", 20)
    rows, checks = [], []
    for name, mu in _test_densities(length):
        worst = 0.0
        for s in np.linspace(0.05 * length, 0.95 * length, count):
            s = float(s)
            w_i = boundary_trace(p, curve, mu, s, "interior")
            w_e = boundary_trace(p, curve, mu, s, "exterior")
            mu_s = float(mu(s))
            resid = abs((w_e - w_i) - mu_s)
            worst = max(worst, resid)
            rows.append((name, s, w_i, w_e, mu_s, resid))
        checks.append(check(f"jump mu={name}", worst, TOL_JUMPS))
    header = ["density", "s", "w_i", "w_e", "mu", "jump_residual"]
    return header, rows, checks


def suite_flux(cfg: RunConfig):
    """Closed-boundary flux: 0 for exterior sources, -1 for interior."""
    p, curve = cfg.params, cfg.curve
    exterior = _classified(curve, cfg.raw, "exterior_sources",
                           _DEFAULT_FLUX_EXTERIOR, "outside")
    interior = _classified(curve, cfg.raw, "interior_sources",
                           _DEFAULT_FLUX_INTERIOR, "inside")
    rows, checks = [], []
    for Q in exterior:
        flux = contour_flux(p, curve, Q)
        rows.append((Q.x, Q.y, "outside", flux, 0.0, abs(flux)))
        checks.append(check(f"flux outside ({Q.x:.4f}, {Q.y:.4f})",
                            abs(flux), TOL_FLUX_EXTERIOR))
    for Q in interior:
        flux = contour_flux(p, curve, Q)
        rows.append((Q.x, Q.y, "inside", flux, -1.0, abs(flux + 1.0)))
        checks.append(check(f"flux inside ({Q.x:.4f}, {Q.y:.4f})",
                            abs(flux + 1.0), TOL_FLUX_INTERIOR))
    header = ["x0", "y0", "location", "flux", "target", "residual"]
    return header, rows, checks


def suite_gradient(cfg: RunConfig):
    """Analytic gradient vs central differences; conormal consistency."""
    p, curve = cfg.params, cfg.curve
    count = _count(cfg.raw, "gradient_pairs", 100)
    rng = np.random.default_rng(cfg.seed)
    rows, checks = [], []

    pairs = []
    while len(pairs) < count:
        x, y, x0, y0 = rng.uniform(0.08, 1.4, size=4)
        if math.hypot(x - x0, y - y0) >= 0.08:
            pairs.append((x, y, x0, y0))
    x, y, x0, y0 = np.array(pairs).reshape(-1, 4).T
    gx, gy = grad_q4_many(p, x, y, (x0, y0))
    # the four central-difference stencils of every pair in one call
    h = 1.0e-5
    fd = q4_many(p, np.concatenate((x + h, x - h, x, x)),
                 np.concatenate((y, y, y + h, y - h)),
                 (np.tile(x0, 4), np.tile(y0, 4))).reshape(4, -1)
    fx = (fd[0] - fd[1]) / (2 * h)
    fy = (fd[2] - fd[3]) / (2 * h)
    worst = 0.0
    for k in range(count):
        scale = max(math.hypot(gx[k], gy[k]), 1.0e-300)
        rel = math.hypot(gx[k] - fx[k], gy[k] - fy[k]) / scale
        worst = max(worst, rel)
        rows.append(("grad_fd", x[k], y[k], x0[k], y0[k], rel, TOL_GRADIENT))
    checks.append(check(f"gradient vs differences ({count} pairs)",
                        worst, TOL_GRADIENT))

    source = Point(1.5 * curve.a, 1.5 * curve.b)
    xs, ys, _, _, nxs, nys, _ = curve.frames(
        np.linspace(0.05, 0.95, 25) * curve.length)
    gx, gy = grad_q4_many(p, xs, ys, source)
    # the closed form on its own F2 tree, all points in one call
    dn = dq4_dn_many(p, xs, ys, nxs, nys, source)
    rel = np.abs(dn - (nxs * gx + nys * gy)) / np.maximum(np.abs(dn), 1.0)
    rows.extend(("conormal", x, y, source.x, source.y, e, TOL_CONORMAL)
                for x, y, e in zip(xs, ys, rel))
    checks.append(check("conormal vs normal-projected gradient",
                        np.max(rel), TOL_CONORMAL))
    header = ["kind", "x", "y", "x0", "y0", "error", "tolerance"]
    return header, rows, checks


def _gauss_series_at_one(a: float, b: float, c: float) -> float:
    """Direct series of 2F1 at z = 1 with an algebraic-tail elimination.

    Terms decay like k^(-(1+s)) with s = c - a - b, so partial sums at
    N, 2N, 4N satisfy S_N = S - A N^(-s) - B N^(-s-1) up to O(N^(-s-2));
    solving the 3x3 system recovers the limit.
    """
    s = c - a - b
    base = 4000
    k = np.arange(4 * base, dtype=float)
    ratios = (a + k) * (b + k) / ((c + k) * (1.0 + k))
    terms = np.concatenate(([1.0], np.cumprod(ratios[:-1])))
    sums = np.cumsum(terms)
    ns = np.array([base, 2 * base, 4 * base], dtype=float)
    partial = sums[[base - 1, 2 * base - 1, 4 * base - 1]]
    mat = np.column_stack([np.ones(3), -ns ** (-s), -ns ** (-s - 1.0)])
    sol = np.linalg.solve(mat, partial)
    return float(sol[0])


def suite_specfun(cfg: RunConfig):
    """Randomized hypergeometric identity checks at fixed seed."""
    count = _count(cfg.raw, "cases", 200)
    rng = np.random.default_rng(cfg.seed)
    rows, checks = [], []

    def record(identity: str, errs: list[float]):
        worst = max(errs)
        for i, e in enumerate(errs):
            rows.append((identity, i, e))
        checks.append(check(f"{identity} ({count} cases)", worst, TOL_SPECFUN))

    # gauss_2f1 against the y = 0 edge of F2 on the appell_f2_sets tree,
    # F2(a; b, 1; c, 2; z, 0) = 2F1(a, b; c; z), with Pfaff's map
    # z -> z/(z-1) on the F2 side for z > 0; each side in one call
    cases = []
    for _ in range(count):
        a = rng.uniform(0.1, 2.0)
        b = rng.uniform(0.1, 2.0)
        c = rng.uniform(0.6, 3.0)
        z = rng.uniform(-3.0, 0.85)
        cases.append((a, b, c, z))
    a, b, c, z = np.array(cases).reshape(-1, 4).T
    lhs = gauss_2f1(a, b, c, z)
    pos = z > 0.0
    edge = np.where(pos, (1.0 - z) ** -b, 1.0) * appell_f2_sets(
        np.where(pos, c - a, a), b, 1.0, c, 2.0,
        np.where(pos, z / (z - 1.0), z), 0.0)
    record("edge", (np.abs(lhs - edge)
                    / np.maximum(np.abs(lhs), 1.0e-300)).tolist())

    # contiguous parameter shift of the double series: the cases first,
    # then the four F2 values of every case in one call
    cases = []
    for _ in range(count):
        a = rng.uniform(0.4, 2.2)
        b1 = rng.uniform(0.3, 1.6)
        b2 = rng.uniform(0.3, 1.6)
        c1 = b1 + rng.uniform(0.4, 1.8)
        c2 = b2 + rng.uniform(0.4, 1.8)
        x = -math.exp(rng.uniform(math.log(0.05), math.log(3.0)))
        y = -math.exp(rng.uniform(math.log(0.05), math.log(3.0)))
        cases.append((a, b1, b2, c1, c2, x, y))
    a, b1, b2, c1, c2, x, y = np.array(cases).reshape(-1, 7).T
    f_x, f_y, f_up, f_at = appell_f2_sets(
        [a + 1, a + 1, a + 1, a], [b1 + 1, b1, b1, b1], [b2, b2 + 1, b2, b2],
        [c1 + 1, c1, c1, c1], [c2, c2 + 1, c2, c2], x, y)
    lhs = b1 / c1 * x * f_x + b2 / c2 * y * f_y
    rhs = f_up - f_at
    record("contiguous",
           (np.abs(lhs - rhs) / np.maximum(np.abs(rhs), 1.0e-300)).tolist())

    # analytic continuation vs the direct double series on its disk
    cases = []
    for _ in range(count):
        a = rng.uniform(0.4, 2.2)
        b1 = rng.uniform(0.3, 1.6)
        b2 = rng.uniform(0.3, 1.6)
        c1 = b1 + rng.uniform(0.4, 1.8)
        c2 = b2 + rng.uniform(0.4, 1.8)
        x = -rng.uniform(0.02, 0.42)
        y = -rng.uniform(0.02, 0.42)
        cases.append((a, b1, b2, c1, c2, x, y))
    cases = np.array(cases).reshape(-1, 7).T
    continued = appell_f2_sets(*cases)
    # the double series of every case in one call: the independent tree
    direct = appell_f2_series_sets(*cases)
    record("continuation", (np.abs(direct - continued)
                            / np.maximum(np.abs(direct), 1.0e-300)).tolist())

    # closed form of the series at unit argument
    errs = []
    for _ in range(count):
        a = rng.uniform(0.1, 1.8)
        b = rng.uniform(0.1, 1.8)
        c = a + b + rng.uniform(1.2, 2.5)
        closed = gauss_2f1_at_one(a, b, c)
        series = _gauss_series_at_one(a, b, c)
        errs.append(abs(closed - series) / max(abs(closed), 1.0e-300))
    record("summation", errs)

    header = ["identity", "case", "rel_err"]
    return header, rows, checks


_SUITE_RUNNERS = {
    "gauge": suite_gauge,
    "jumps": suite_jumps,
    "flux": suite_flux,
    "gradient": suite_gradient,
    "specfun": suite_specfun,
}


def cmd_verify(cfg: RunConfig, suite: str) -> int:
    header, rows, checks = _SUITE_RUNNERS[suite](cfg)
    name = f"verify_{suite}.csv"
    write_csv(cfg.out / name, header, rows)
    ok = write_summary(cfg, f"verify {suite}", checks, [name])
    return EXIT_PASS if ok else EXIT_FAIL


# -- solve-dirichlet -------------------------------------------------------------

def cmd_solve(cfg: RunConfig) -> int:
    p, curve = cfg.params, cfg.curve
    probes = _classified(curve, cfg.raw, "probes", _DEFAULT_PROBES, "inside")
    data_kind = cfg.raw.get("data", "manufactured")
    if data_kind not in ("manufactured", "zero"):
        raise ConfigError(f"config field 'data' must be 'manufactured' or "
                          f"'zero', got {data_kind!r}")
    study_ns = cfg.raw.get("study_ns")
    if study_ns is not None and (
            not isinstance(study_ns, list) or len(study_ns) < 2
            or not all(isinstance(n, int) and n >= 16 and n % PANEL_ORDER == 0
                       for n in study_ns)
            or len(set(study_ns)) < len(study_ns)):
        raise ConfigError("config field 'study_ns' must be a list of at "
                          "least two distinct node counts >= 16, each a "
                          f"multiple of {PANEL_ORDER}")

    if data_kind == "zero":
        def f(s):
            return np.zeros_like(np.asarray(s, dtype=float))
    else:
        source = default_exterior_source(curve)
        f = manufactured_data(p, curve, source)

    # reported, not checked: the ellipse (q = 2) fails it, yet its solves
    # converge
    report = check_endpoint_conditions(curve)
    extra = {"endpoint_conditions": {
        key: report[key]
        for key in ("eps", "x_axis_growth", "y_axis_growth", "ok")}}
    try:
        system = assemble(p, curve, cfg.nodes, f=f)
    except SolveError as exc:
        # a kernel that fails at the nodes is reported like a singular system
        write_summary(cfg, "solve-dirichlet",
                      [check("system assembled", 1.0, 0.0)], [],
                      {**extra, "error": str(exc)})
        return EXIT_FAIL
    extra["condition_estimate"] = condition_estimate(system)
    try:
        mu = solve_dirichlet(system)
    except SolveError as exc:
        # a non-invertible discrete operator is a reportable finding,
        # not an infrastructure fault (1 vs 0 keeps the summary strict JSON)
        checks = [check("system solvable", 1.0, 0.0)]
        write_summary(cfg, "solve-dirichlet", checks, [],
                      {**extra, "error": str(exc)})
        return EXIT_FAIL

    density_rows = list(zip(system.nodes.tolist(), mu.values.tolist()))
    probe_rows, checks = [], []
    worst = 0.0
    values = evaluate_many(p, curve, mu, probes)
    if data_kind == "zero":
        exact = np.zeros(len(probes))
    else:
        # the exact solution at every probe in one kernel call
        exact = q4_many(p, [P.x for P in probes], [P.y for P in probes],
                        source)
    for P, u, u_ref in zip(probes, values.tolist(), exact.tolist()):
        err = abs(u - u_ref)
        worst = max(worst, err)
        probe_rows.append((P.x, P.y, u, u_ref, err))
        checks.append(check(f"probe ({P.x:.4f}, {P.y:.4f})", err,
                            cfg.tolerance))
    if data_kind == "zero":
        checks.append(check("density vanishes",
                            float(np.max(np.abs(mu.values))), 1.0e-10))

    outputs = ["density.csv", "probes.csv"]
    write_csv(cfg.out / "density.csv", ["s", "mu"], density_rows)
    write_csv(cfg.out / "probes.csv",
              ["x", "y", "u", "u_exact", "error"], probe_rows)

    extra["max_probe_error"] = worst
    if study_ns is not None:
        study = convergence_study(p, curve, study_ns, probes)
        write_csv(cfg.out / "study.csv", ["n", "error"],
                  list(zip(study["ns"], study["errors"])))
        outputs.append("study.csv")
        extra["convergence_order"] = study["order"]
        checks.append(check("convergence order at least 2",
                            min(study["order"] - 2.0, 0.0), 0.0))

    ok = write_summary(cfg, "solve-dirichlet", checks, outputs, extra)
    return EXIT_PASS if ok else EXIT_FAIL


# -- entry point -----------------------------------------------------------------

# Built on the first call and kept: argparse leaves reference cycles behind
# (each add_argument makes a HelpFormatter that points back at itself), so a
# parser per call left garbage for the cyclic collector between calls.
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="biaxpot",
        description="Evaluate and verify the fourth fundamental solution, "
                    "its double-layer potential, and the Dirichlet solver.")
    parser.add_argument("--config", metavar="PATH",
                        help="JSON run configuration (defaults applied "
                             "when omitted)")
    parser.add_argument("--out", metavar="DIR",
                        help="output directory (overrides config)")
    parser.add_argument("--nodes", type=int, metavar="N",
                        help="collocation node count (overrides config)")
    parser.add_argument("--seed", type=int, metavar="INT",
                        help="seed for randomized suites (overrides config)")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("eval-q4", help="tabulate q4 and |grad q4| on probe pairs")
    verify = sub.add_parser("verify", help="run a verification suite")
    verify.add_argument("suite", choices=SUITES)
    sub.add_parser("solve-dirichlet",
                   help="solve the interior Dirichlet problem and "
                        "measure probe errors")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config, args.out, args.nodes, args.seed)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        if args.command == "eval-q4":
            return cmd_eval_q4(cfg)
        if args.command == "verify":
            return cmd_verify(cfg, args.suite)
        return cmd_solve(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        command = (f"verify {args.suite}" if args.command == "verify"
                   else args.command)
        with contextlib.suppress(OSError):  # the output dir may be at fault
            write_summary(cfg, command, [], [], {
                "status": "error",
                "error": {"type": type(exc).__name__, "message": str(exc)}})
        return EXIT_INFRA


if __name__ == "__main__":
    sys.exit(main())
